//===- transform/Interchange.cpp - Interchange legality --------------------------===//

#include "transform/Interchange.h"

using namespace biv;
using namespace biv::transform;
using namespace biv::dependence;

InterchangeVerdict
biv::transform::canInterchange(const analysis::Loop *Outer,
                               const analysis::Loop *Inner,
                               const std::vector<Dependence> &Deps) {
  if (!Inner || !Outer || Inner->parent() != Outer)
    return InterchangeVerdict::NotPerfectlyNested;

  for (const Dependence &D : Deps) {
    if (D.Result.O == DependenceResult::Outcome::Independent)
      continue;
    // Only dependences between references inside the inner loop move.
    if (!Inner->contains(D.Src->parent()) ||
        !Inner->contains(D.Dst->parent()))
      continue;
    // With explicit vectors, look for a (<, >) pattern at the two levels.
    size_t OuterIdx = SIZE_MAX, InnerIdx = SIZE_MAX;
    for (size_t I = 0; I < D.Result.Directions.size(); ++I) {
      if (D.Result.Directions[I].L == Outer)
        OuterIdx = I;
      if (D.Result.Directions[I].L == Inner)
        InnerIdx = I;
    }
    if (OuterIdx == SIZE_MAX || InnerIdx == SIZE_MAX)
      return InterchangeVerdict::UnknownDependence;
    if (!D.Result.Vectors.empty()) {
      for (const std::vector<uint8_t> &V : D.Result.Vectors) {
        // A vector shorter than Directions carries no information for the
        // missing levels; indexing it would read out of bounds.  Treat it
        // as an unprovable dependence rather than guessing.
        if (V.size() <= OuterIdx || V.size() <= InnerIdx)
          return InterchangeVerdict::UnknownDependence;
        if (V[OuterIdx] == DirLT && V[InnerIdx] == DirGT)
          return InterchangeVerdict::IllegalDirection;
      }
      continue;
    }
    // Per-loop sets only: conservative cross product.
    uint8_t OD = D.Result.Directions[OuterIdx].Dirs;
    uint8_t ID = D.Result.Directions[InnerIdx].Dirs;
    if ((OD & DirLT) && (ID & DirGT))
      return InterchangeVerdict::IllegalDirection;
  }
  return InterchangeVerdict::Legal;
}
