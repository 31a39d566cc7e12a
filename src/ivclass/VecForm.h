//===- ivclass/VecForm.h - Values linear in a vector of unknowns -*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A value linear in a vector X of unknown loop-header phis,
/// sum_j A[j] * X_j + B(h), and the one operation algebra over it.  The
/// per-opcode rule (negVecForm, combineVecForms) serves both evaluators:
/// the classifier's path-set evaluation of a recurrence region (X = the
/// region's header phis, one form per control path) and, through the
/// operand walk applyVecOp, the multi-branch summarizer (X = the loop's
/// unknown header phis along one phase path).
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IVCLASS_VECFORM_H
#define BEYONDIV_IVCLASS_VECFORM_H

#include "ir/Instruction.h"
#include "ivclass/ClosedForm.h"
#include "ivclass/RecurrenceSolver.h"
#include <algorithm>
#include <array>
#include <optional>
#include <utility>
#include <vector>

namespace biv {
namespace ivclass {

/// The coefficients A of a VecForm: inline for up to MaxSystemSize
/// unknowns, a classifier region's header phis, so the hot path allocates
/// none; on the heap beyond, for a summarizer's unknowns.
class Coeffs {
public:
  Coeffs() = default;
  explicit Coeffs(size_t N) : N(N) {
    if (N > Inline.size())
      Heap.resize(N);
  }

  size_t size() const { return N; }
  Rational *begin() { return N > Inline.size() ? Heap.data() : Inline.data(); }
  Rational *end() { return begin() + N; }
  const Rational *begin() const {
    return N > Inline.size() ? Heap.data() : Inline.data();
  }
  const Rational *end() const { return begin() + N; }
  Rational &operator[](size_t J) { return begin()[J]; }
  const Rational &operator[](size_t J) const { return begin()[J]; }

  bool operator==(const Coeffs &O) const {
    return std::equal(begin(), end(), O.begin(), O.end());
  }

private:
  size_t N = 0;
  std::array<Rational, MaxSystemSize> Inline;
  std::vector<Rational> Heap;
};

/// sum_j A[j] * X_j + B, with the forcing B a closed form in h.
struct VecForm {
  Coeffs A;
  ClosedForm B;

  bool freeOfX() const {
    for (const Rational &C : A)
      if (!C.isZero())
        return false;
    return true;
  }

  bool operator==(const VecForm &O) const { return A == O.A && B == O.B; }
};

/// Negates \p X in place.  Throws RationalOverflow.
inline void negVecForm(VecForm &X) {
  for (Rational &R : X.A)
    R = -R;
  X.B = -X.B;
}

/// The form of binary \p Op over operand forms \p X and \p Y.  Add and Sub
/// act coefficient-wise; Mul stays linear only when one side is free of X,
/// and a side that scales one still reading X must be a numeric invariant.
/// nullopt for a product outside that and for every other opcode.  Throws
/// RationalOverflow.
inline std::optional<VecForm> combineVecForms(ir::Opcode Op, const VecForm &X,
                                              const VecForm &Y) {
  VecForm R{Coeffs(X.A.size()), ClosedForm()};
  if (Op == ir::Opcode::Add || Op == ir::Opcode::Sub) {
    const bool Add = Op == ir::Opcode::Add;
    for (size_t J = 0; J < X.A.size(); ++J)
      R.A[J] = Add ? X.A[J] + Y.A[J] : X.A[J] - Y.A[J];
    R.B = Add ? X.B + Y.B : X.B - Y.B;
    return R;
  }
  if (Op != ir::Opcode::Mul)
    return std::nullopt;
  if (X.freeOfX() && Y.freeOfX()) {
    std::optional<ClosedForm> P = X.B.mulChecked(Y.B);
    if (!P)
      return std::nullopt;
    R.B = std::move(*P);
    return R;
  }
  const bool ScaleX = Y.freeOfX();
  if (!ScaleX && !X.freeOfX())
    return std::nullopt;
  const VecForm &Var = ScaleX ? X : Y;
  const ClosedForm &Const = ScaleX ? Y.B : X.B;
  std::optional<Rational> C =
      Const.isInvariant() ? Const.initialValue().getConstant() : std::nullopt;
  if (!C)
    return std::nullopt;
  for (size_t J = 0; J < Var.A.size(); ++J)
    R.A[J] = Var.A[J] * *C;
  R.B = Var.B * *C;
  return R;
}

/// The form of \p I from its operands' forms, which \p Eval yields
/// (nullopt: not linear): Copy passes its operand through, Neg and the
/// binary operations apply the rules above.  Both operands of a binary
/// operation are evaluated, first to second, before either is checked.
/// nullopt for every other opcode.  Throws RationalOverflow.
template <typename EvalFn>
std::optional<VecForm> applyVecOp(const ir::Instruction *I, EvalFn &&Eval) {
  const ir::Opcode Op = I->opcode();
  if (Op == ir::Opcode::Copy)
    return Eval(I->operand(0));
  if (Op == ir::Opcode::Neg) {
    std::optional<VecForm> X = Eval(I->operand(0));
    if (X)
      negVecForm(*X);
    return X;
  }
  if (Op != ir::Opcode::Add && Op != ir::Opcode::Sub &&
      Op != ir::Opcode::Mul)
    return std::nullopt;
  std::optional<VecForm> X = Eval(I->operand(0));
  std::optional<VecForm> Y = Eval(I->operand(1));
  if (!X || !Y)
    return std::nullopt;
  return combineVecForms(Op, *X, *Y);
}

} // namespace ivclass
} // namespace biv

#endif // BEYONDIV_IVCLASS_VECFORM_H
