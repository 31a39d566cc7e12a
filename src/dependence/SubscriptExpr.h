//===- dependence/SubscriptExpr.h - Classified subscripts -------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Subscript expressions for dependence testing (paper section 6).
///
/// "The algorithm used to classify variables will actually classify each
/// subexpression as one of the generalized variable types.  Thus, each
/// subscript expression will be classified as an induction expression,
/// monotonic expression, etc."  A LinearSubscript is the fully-expanded
/// linear view, c0 + sum over loops coeff_L * h_L, with h_L the canonical
/// counter of loop L -- this is the representation that makes the loop
/// normalization of section 6.1 unnecessary.
///
/// A wrap-around, whether the subscript's own class or a symbol's, is
/// linearized through the class it settles into
/// (Classification::settled): its step goes on the wrap-around's own loop
/// and its initial value is expanded like any linear subscript.  The view
/// then holds only after the settle order, which SubscriptInfo records.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_DEPENDENCE_SUBSCRIPTEXPR_H
#define BEYONDIV_DEPENDENCE_SUBSCRIPTEXPR_H

#include "ivclass/InductionAnalysis.h"
#include <map>

namespace biv {
namespace dependence {

/// A subscript written as Const + sum(Coeff[L] * h_L) over enclosing loops.
struct LinearSubscript {
  Affine Const;
  std::map<const analysis::Loop *, Affine> Coeff;

  /// Coefficient of \p L 's counter (zero when absent).
  Affine coeff(const analysis::Loop *L) const {
    auto It = Coeff.find(L);
    return It == Coeff.end() ? Affine() : It->second;
  }

  std::string str(const SymbolNamer &Namer = SymbolNamer()) const;
};

/// One classified subscript of one array reference.
struct SubscriptInfo {
  /// Classification relative to the innermost loop containing the access.
  ivclass::Classification Class;

  /// The linear expansion across the whole nest, when the subscript is an
  /// affine function of the enclosing loop counters.
  std::optional<LinearSubscript> Linear;

  /// Iterations after which Linear holds: the largest settle order of a
  /// wrap-around it went through (0 when none did).
  unsigned SettleOrder = 0;
};

/// Expands \p Sub (an operand of an indexed access in \p AtLoop, which may
/// be null for loop-free code) into SubscriptInfo.  Linear classifications
/// whose symbolic initial values are induction variables of enclosing loops
/// (or settle into them) are expanded recursively (the nested-tuple walk).
SubscriptInfo classifySubscript(ivclass::InductionAnalysis &IA,
                                const ir::Value *Sub,
                                const analysis::Loop *AtLoop);

} // namespace dependence
} // namespace biv

#endif // BEYONDIV_DEPENDENCE_SUBSCRIPTEXPR_H
