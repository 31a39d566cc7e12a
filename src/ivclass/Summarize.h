//===- ivclass/Summarize.h - Multi-branch loop summarization ----*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-branch loop summarization (beyond the paper).
///
/// The classifier punts on loops whose carried update differs per control
/// path ("Multiple paths or an unsolvable recurrence").  Many of those
/// loops are still exactly summarizable because their taken-branch sequence
/// cycles with a small period k: a flip-flop selects `z += 5` and `z -= 2`
/// alternately, a period-3 ring drives a three-arm selector, and so on.
/// The summarizer recovers them in three steps:
///
///  1. *Sample*: run the function with the interpreter on a few argument
///     vectors, slice the block trace into per-iteration paths, and
///     conjecture the smallest period k <= SummarizeMaxPeriod such that
///     every observed activation repeats its paths with period k.  The
///     runs sample the whole function, so one set serves every loop of an
///     analysis run until the IR changes.
///  2. *Prove*: symbolically evaluate each phase path over the SSA graph as
///     X(h+1) = M_p * X(h) + b_p(h) (X = the loop's unknown header phis),
///     compose the per-cycle update, solve it with the recurrence solver,
///     and discharge one proof obligation per in-loop conditional branch:
///     its condition must be provably constant on every phase given the
///     solved forms.  Exit tests are exempt -- a completed iteration
///     follows the stay side by definition, so the per-phase claim is
///     conditional on the iteration happening at all.
///  3. *Report*: period 1 upgrades the phis to plain closed forms; period
///     k >= 2 reports IVKind::PhasePeriodic with one form per phase (plus
///     the composed whole-cycle form as phase 0), consumable by the trip
///     count and, where the interleaved sequence is strictly monotone, the
///     dependence tests.
///
/// A disproved conjecture (or a solver/arithmetic failure) falls back to
/// the classifier's result: summarization only ever upgrades Unknown
/// header phis, never touches solved ones.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IVCLASS_SUMMARIZE_H
#define BEYONDIV_IVCLASS_SUMMARIZE_H

#include "ivclass/InductionAnalysis.h"

namespace biv {
namespace ivclass {

/// Longest branch-cycle period the conjecture considers; larger cycles are
/// left to the monotonic fallback (documented in DESIGN.md section 14).
inline constexpr unsigned SummarizeMaxPeriod = 6;

/// Number of interpreter probe runs per sampling of a function; every
/// function argument receives the same seed value within one run, and the
/// runs differ only in that seed (documented in DESIGN.md section 14).
inline constexpr unsigned SummarizeSampleCount = 3;

/// Instruction budget of one probe run; probes past the budget contribute
/// the iterations they completed.
inline constexpr uint64_t SummarizeSampleSteps = 8192;

/// Cap on simultaneously-unknown header phis per summarized loop: bounds
/// the per-phase transfer matrices and cycle composition.  Deliberately
/// wider than the recurrence solver's MaxSystemSize -- reset-variable
/// peeling usually shrinks the coupled core well below the closure's size,
/// and the prover defers one variable at a time when it does not.
inline constexpr unsigned SummarizeMaxVars = 8;

/// Attempts to summarize \p L: conjectures a period-k branch cycle from
/// interpreter samples, proves it over the SSA graph, and upgrades provable
/// Unknown header phis in \p Map to PhasePeriodic (k >= 2) or plain closed
/// forms (k == 1).  Runs after the classifier and never downgrades an
/// existing classification.  Read-only with respect to the IR.  Samples
/// into \p Traces when it is empty and reads it as is otherwise, so the
/// caller clears it whenever the function changes.
void summarizeLoop(InductionAnalysis &IA, const analysis::Loop *L,
                   ClassTable &Map, SampleTraces &Traces);

} // namespace ivclass
} // namespace biv

#endif // BEYONDIV_IVCLASS_SUMMARIZE_H
