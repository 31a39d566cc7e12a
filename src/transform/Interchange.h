//===- transform/Interchange.h - Interchange legality -----------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loop-interchange legality from direction vectors — the transformation
/// section 6.1 uses to motivate the whole framework ("some important
/// transformations (such as loop interchanging) are prevented" when
/// normalization perturbs distance vectors).  Interchanging two adjacent
/// loops is legal iff no dependence has direction (<, >) across them: such
/// a vector would become the lexicographically negative (>, <).
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_TRANSFORM_INTERCHANGE_H
#define BEYONDIV_TRANSFORM_INTERCHANGE_H

#include "dependence/DependenceAnalyzer.h"

namespace biv {
namespace transform {

/// Why interchange was rejected (or Legal).
enum class InterchangeVerdict {
  Legal,
  IllegalDirection, ///< Some dependence carries (<, >).
  NotPerfectlyNested, ///< Inner is not the only child, or not a child.
  UnknownDependence,  ///< A dependence has no direction information at all.
};

/// Decides whether \p Outer and its immediate sub-loop \p Inner can be
/// interchanged, from the direction vectors in \p Deps (as produced by
/// DependenceAnalyzer::analyze on the same function).
InterchangeVerdict
canInterchange(const analysis::Loop *Outer, const analysis::Loop *Inner,
               const std::vector<dependence::Dependence> &Deps);

} // namespace transform
} // namespace biv

#endif // BEYONDIV_TRANSFORM_INTERCHANGE_H
