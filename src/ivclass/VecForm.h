//===- ivclass/VecForm.h - Values linear in a vector of unknowns -*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A value linear in a vector X of unknown loop-header phis,
/// sum_j A[j] * X_j + B(h), and the one operation algebra over it.  Two
/// evaluators share it: the coupled-system classifier (X = the region's
/// header phis) and the multi-branch summarizer (X = the loop's unknown
/// header phis along one phase path).  Each supplies its own operand lookup
/// and memo; the per-opcode rules live here once.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IVCLASS_VECFORM_H
#define BEYONDIV_IVCLASS_VECFORM_H

#include "ir/Instruction.h"
#include "ivclass/ClosedForm.h"
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace biv {
namespace ivclass {

/// sum_j A[j] * X_j + B, with the forcing B a closed form in h.
struct VecForm {
  std::vector<Rational> A;
  ClosedForm B;

  bool freeOfX() const {
    for (const Rational &C : A)
      if (!C.isZero())
        return false;
    return true;
  }
};

/// Per-instruction results of one evaluation; nullopt = not linear in X
/// (also the provisional entry that breaks a malformed cycle).
using VecMemo =
    std::unordered_map<const ir::Instruction *, std::optional<VecForm>>;

/// \p Var scaled by \p Const, which must be a numeric invariant.
inline std::optional<VecForm> scaleVecForm(VecForm Var, const VecForm &Const) {
  std::optional<Rational> C = Const.B.isInvariant()
                                  ? Const.B.initialValue().getConstant()
                                  : std::nullopt;
  if (!C)
    return std::nullopt;
  for (Rational &R : Var.A)
    R = R * *C;
  Var.B = Var.B * *C;
  return Var;
}

/// The form of \p I from its operands' forms, which \p Eval yields
/// (nullopt: not linear).  Copy passes its operand through; Neg, Add and
/// Sub act coefficient-wise; Mul stays linear only when one side is free of
/// X, and a side that scales one still reading X must be a numeric
/// invariant.  Both operands of a binary operation are evaluated, first to
/// second, before either is checked.  nullopt for every other opcode.
/// Throws RationalOverflow.
template <typename EvalFn>
std::optional<VecForm> applyVecOp(const ir::Instruction *I, EvalFn &&Eval) {
  const ir::Opcode Op = I->opcode();
  if (Op == ir::Opcode::Copy)
    return Eval(I->operand(0));
  if (Op == ir::Opcode::Neg) {
    std::optional<VecForm> X = Eval(I->operand(0));
    if (X) {
      for (Rational &R : X->A)
        R = -R;
      X->B = -X->B;
    }
    return X;
  }
  if (Op != ir::Opcode::Add && Op != ir::Opcode::Sub &&
      Op != ir::Opcode::Mul)
    return std::nullopt;
  std::optional<VecForm> X = Eval(I->operand(0));
  std::optional<VecForm> Y = Eval(I->operand(1));
  if (!X || !Y)
    return std::nullopt;
  if (Op == ir::Opcode::Add) {
    for (size_t J = 0; J < X->A.size(); ++J)
      X->A[J] = X->A[J] + Y->A[J];
    X->B = X->B + Y->B;
    return X;
  }
  if (Op == ir::Opcode::Sub) {
    for (size_t J = 0; J < X->A.size(); ++J)
      X->A[J] = X->A[J] - Y->A[J];
    X->B = X->B - Y->B;
    return X;
  }
  if (X->freeOfX() && Y->freeOfX()) {
    std::optional<ClosedForm> P = X->B.mulChecked(Y->B);
    if (!P)
      return std::nullopt;
    X->B = std::move(*P);
    return X;
  }
  if (Y->freeOfX())
    return scaleVecForm(std::move(*X), *Y);
  if (X->freeOfX())
    return scaleVecForm(std::move(*Y), *X);
  return std::nullopt;
}

} // namespace ivclass
} // namespace biv

#endif // BEYONDIV_IVCLASS_VECFORM_H
