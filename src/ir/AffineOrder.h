//===- ir/AffineOrder.h - Deterministic affine-term iteration ---*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Affine stores its terms keyed by symbol *pointer*, so iterating them
/// follows allocation order -- which varies across runs (ASLR) and across
/// batch worker threads.  Any consumer whose output depends on term order
/// (instruction emission, rendering) must iterate through orderedTerms(),
/// which sorts by a stable IR key instead.  The batch analyzer's
/// byte-identity guarantee (-j1 == -jN) depends on this.  materializeAffine
/// is the one emitter of affine values as instructions (exit values,
/// strength reduction), so it iterates that way too.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IR_AFFINEORDER_H
#define BEYONDIV_IR_AFFINEORDER_H

#include "ir/Function.h"
#include "ir/Instruction.h"
#include "ir/Value.h"
#include "support/Affine.h"
#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

namespace biv {
namespace ir {

/// A total order over IR values that is stable across runs: arguments by
/// index, instructions by their dense sequence number, then kind and name
/// as tiebreaks.  Never compares pointers.
inline std::tuple<int, unsigned, std::string_view>
stableValueKey(const Value *V) {
  if (const auto *A = dyn_cast<Argument>(V))
    return {0, A->index(), V->name()};
  if (const auto *I = dyn_cast<Instruction>(V))
    return {1, I->seq(), V->name()};
  return {2, 0, V->name()};
}

/// The terms of \p V (whose symbols must be IR values, the project-wide
/// convention) in stable order.
inline std::vector<std::pair<const Value *, Rational>>
orderedTerms(const Affine &V) {
  std::vector<std::pair<const Value *, Rational>> Terms;
  Terms.reserve(V.terms().size());
  for (const auto &[Sym, Coeff] : V.terms())
    Terms.emplace_back(static_cast<const Value *>(Sym), Coeff);
  std::sort(Terms.begin(), Terms.end(), [](const auto &A, const auto &B) {
    return stableValueKey(A.first) < stableValueKey(B.first);
  });
  return Terms;
}

/// Emits instructions computing the integer affine \p V at position \p Pos
/// of \p BB, advancing \p Pos past them: a Mul per non-unit coefficient
/// and an Add per further term, in orderedTerms() order, then the constant.
/// The last new instruction is named uniquely after \p Name.  Returns the
/// value (a constant or symbol when nothing needs computing), or null,
/// emitting nothing, when a coefficient is not an integer.
inline Value *materializeAffine(Function &F, const Affine &V, BasicBlock *BB,
                                size_t &Pos, const std::string &Name) {
  if (!V.constantPart().isInteger())
    return nullptr;
  for (const auto &[Sym, Coeff] : V.terms())
    if (!Coeff.isInteger())
      return nullptr;
  auto emit = [&](Instruction *I) { return BB->insertAt(Pos++, I); };
  Value *Acc = nullptr;
  for (const auto &[Sym, Coeff] : orderedTerms(V)) {
    auto *SymV = const_cast<Value *>(Sym);
    Value *Term = SymV;
    if (!Coeff.isOne())
      Term = emit(
          F.newInstr(Opcode::Mul, {F.constant(Coeff.getInteger()), SymV}));
    Acc = Acc ? emit(F.newInstr(Opcode::Add, {Acc, Term})) : Term;
  }
  int64_t C0 = V.constantPart().getInteger();
  if (!Acc)
    return F.constant(C0);
  if (C0 != 0)
    Acc = emit(F.newInstr(Opcode::Add, {Acc, F.constant(C0)}));
  if (auto *AI = dyn_cast<Instruction>(Acc))
    if (AI->name().empty())
      AI->setName(F.uniqueName(Name));
  return Acc;
}

} // namespace ir
} // namespace biv

#endif // BEYONDIV_IR_AFFINEORDER_H
