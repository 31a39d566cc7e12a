//===- ivclass/Report.h - Classification report -----------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A human-readable summary of an InductionAnalysis run: per loop, the trip
/// count and the classification tuple of every loop-header phi (and,
/// optionally, of every value in the loop), in the paper's notation.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IVCLASS_REPORT_H
#define BEYONDIV_IVCLASS_REPORT_H

#include "ivclass/InductionAnalysis.h"
#include "ssa/SSABuilder.h"
#include <string>

namespace biv {
namespace stats {
class Counter;
}
namespace ivclass {

/// Options for report rendering.
struct ReportOptions {
  /// Include every classified instruction, not just the header phis.
  bool AllValues = false;
  /// Expand nested tuples, e.g. (L18, (L17, 0, 204), 2).
  bool NestedTuples = true;
};

/// Renders the analysis results.  \p Info (when available) lets header phis
/// print under their source variable names.
std::string report(InductionAnalysis &IA, const ssa::SSAInfo *Info = nullptr,
                   const ReportOptions &Opts = ReportOptions());

/// Per-kind counts across all loops of the function (coverage tables).
struct KindCounts {
  unsigned Linear = 0;
  unsigned Polynomial = 0;
  unsigned Geometric = 0;
  unsigned CFinite = 0;
  unsigned WrapAround = 0;
  unsigned Periodic = 0;
  unsigned Monotonic = 0;
  unsigned PhasePeriodic = 0;
  unsigned Invariant = 0;
  unsigned Unknown = 0;
  /// Header phis whose closed form was projected out of an otherwise
  /// unsolvable region (subset of the closed-form kind counts above).
  unsigned Partial = 0;

  unsigned classified() const {
    return Linear + Polynomial + Geometric + CFinite + WrapAround +
           Periodic + Monotonic + PhasePeriodic + Invariant;
  }
};

/// Counts the classification kinds of all loop-header phis and bumps the
/// matching `ivclass.kind.*` counters: call it once per analyzed function.
KindCounts countHeaderPhiKinds(InductionAnalysis &IA);

/// The `ivclass.kind.*` counter countHeaderPhiKinds bumps for \p K.
const stats::Counter &kindCounter(IVKind K);

} // namespace ivclass
} // namespace biv

#endif // BEYONDIV_IVCLASS_REPORT_H
