//===- fuzz/Oracle.h - Differential interpreter oracle ----------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle behind `bivc --fuzz`: push one program through
/// parse -> SSA -> classification, execute it with interp::Interpreter, and
/// check every claim the classifier emitted against the observed trace.
///
/// Checks, per top-level loop:
///  - every value claim -- closed forms, c-finite and partial forms,
///    wrap-arounds past their prefix, periodic members through their
///    PScale/POffset image, phase-periodic tuples -- reproduces the observed
///    sequence as Classification::valueAt(h) at every iteration h = 0..T,
///    with argument symbols and once-computed loop-external instructions
///    bound to their runtime values;
///  - monotonic claims (and the tails of wrap-arounds into monotonic
///    variables) hold with the stated direction and strictness;
///  - countable trip counts equal observed header visits minus one, and
///    multi-exit MaxCount bounds them.
///
/// Structural diffs, per program:
///  - behaviour preservation: the analyzed (SCCP-folded, exit-value
///    materialized) function returns the same value and touches the same
///    array cells in the same order as a plain parse -> SSA build;
///  - baseline subsumption: every variable the classical [ACK81]-style
///    algorithm proves a linear IV must classify as linear (or invariant)
///    under the unified analysis.
///
/// All checks are library calls returning structured mismatches -- no test
/// framework involved -- so the CLI fuzzer, the minimizer predicate, and the
/// gtest smoke all share one implementation.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_FUZZ_ORACLE_H
#define BEYONDIV_FUZZ_ORACLE_H

#include <cstdint>
#include <string>
#include <vector>

namespace biv {
namespace fuzz {

/// Switches for one oracle run.
struct OracleOptions {
  /// Argument values for the executions (programs take one parameter `n`;
  /// extra values are ignored by functions with fewer parameters).
  std::vector<int64_t> Args = {6};
  /// Seed array A's cells [-32, 64] with mixed-sign values derived from
  /// this seed so data-dependent branches take both sides.
  uint64_t ArraySeed = 1;
  /// Run the multi-branch summarizer (ivclass --summarize) in the analyzed
  /// build, so its phase-periodic claims are generated and checked.
  bool Summarize = false;

  /// Test-only fault injection: skews every *linear* closed-form prediction
  /// by `Skew * h`, making correct classifications look wrong.  Exercises
  /// the mismatch reporting and minimization path end to end; must be 0 in
  /// real runs.
  int64_t InjectLinearSkew = 0;
};

/// One violated claim.
struct Mismatch {
  /// Which oracle fired: "closed-form", "partial", "wrap-around",
  /// "periodic", "monotonic", "phase-periodic", "trip-count", "behavior",
  /// "baseline", "execution".
  std::string Check;
  std::string Loop;     ///< Loop name, when the claim is loop-relative.
  std::string Value;    ///< IR value name the claim is about.
  std::string Claim;    ///< The classifier's claim, rendered.
  std::string Observed; ///< What execution actually produced.

  std::string str() const;
};

/// Per-category counts of claims actually checked (fuzz campaigns assert
/// these stay non-trivial, so grammar drift cannot silently disable an
/// oracle).
struct CheckCounts {
  unsigned ClosedForm = 0;
  /// Closed forms with a polynomial coefficient on an exponential term
  /// (h*2^h): the c-finite extension.  Disjoint from ClosedForm.
  unsigned CFinite = 0;
  /// Exact forms projected out of unsolvable regions (non-phi members
  /// carrying the Partial flag).
  unsigned Partial = 0;
  unsigned WrapAround = 0;
  unsigned Periodic = 0;
  unsigned Monotonic = 0;
  /// Per-phase closed forms proved by the multi-branch summarizer
  /// (value(h) = PhaseForms[h mod k](h div k)).  Only fires with
  /// OracleOptions::Summarize on.
  unsigned PhasePeriodic = 0;
  unsigned TripCount = 0;
  unsigned Behavior = 0;
  unsigned Baseline = 0;

  unsigned total() const {
    return ClosedForm + CFinite + Partial + WrapAround + Periodic +
           Monotonic + PhasePeriodic + TripCount + Behavior + Baseline;
  }
  CheckCounts &operator+=(const CheckCounts &O) {
    ClosedForm += O.ClosedForm;
    CFinite += O.CFinite;
    Partial += O.Partial;
    WrapAround += O.WrapAround;
    Periodic += O.Periodic;
    Monotonic += O.Monotonic;
    PhasePeriodic += O.PhasePeriodic;
    TripCount += O.TripCount;
    Behavior += O.Behavior;
    Baseline += O.Baseline;
    return *this;
  }
  bool operator==(const CheckCounts &) const = default;
};

/// Everything one oracle run produced.
struct OracleResult {
  /// False when the frontend rejected the program (not a mismatch: the
  /// fuzzer's generator only emits valid programs, but the minimizer
  /// probes invalid candidates all the time).
  bool ParseOK = true;
  std::vector<std::string> FrontendErrors;

  CheckCounts Checks;
  std::vector<Mismatch> Mismatches;

  /// Clean = parsed, executed, and every checked claim held.
  bool clean() const { return ParseOK && Mismatches.empty(); }
};

/// Runs the full differential check on one program.
OracleResult checkProgram(const std::string &Source,
                          const OracleOptions &Opts = {});

} // namespace fuzz
} // namespace biv

#endif // BEYONDIV_FUZZ_ORACLE_H
