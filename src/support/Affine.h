//===- support/Affine.h - Affine symbolic expressions ----------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Affine expressions c0 + sum(ci * symi) with rational coefficients over
/// opaque symbols.
///
/// Induction-variable tuples carry initial values and steps "represented
/// symbolically if [they] cannot be determined" (section 2).  An Affine keeps
/// exactly that: a rational constant plus a rational-weighted combination of
/// loop-invariant symbols.  Symbols are opaque pointers (the IV analysis uses
/// IR values); printing takes a name-resolver callback.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_SUPPORT_AFFINE_H
#define BEYONDIV_SUPPORT_AFFINE_H

#include "support/Rational.h"
#include <functional>
#include <map>
#include <optional>
#include <string>

namespace biv {

/// Opaque identity of a symbolic term (the IV analysis passes IR values).
using SymbolRef = const void *;

/// Appends a symbol's printable name to a rendering buffer.
using SymbolNamer = std::function<void(std::string &Out, SymbolRef)>;

/// An affine expression: Constant + sum of Coeff * Symbol terms.
///
/// Terms with zero coefficients are never stored, so two equal expressions
/// compare equal structurally.
class Affine {
public:
  /// Constructs the constant zero.
  Affine() = default;

  /// Constructs the constant \p C.
  Affine(Rational C) : Constant(C) {}
  Affine(int64_t C) : Constant(C) {}

  /// Constructs the single term 1 * \p Sym.
  static Affine symbol(SymbolRef Sym);

  bool isZero() const { return Constant.isZero() && Terms.empty(); }
  bool isConstant() const { return Terms.empty(); }

  /// Returns the constant value if this has no symbolic terms.
  std::optional<Rational> getConstant() const {
    if (!isConstant())
      return std::nullopt;
    return Constant;
  }

  /// Returns the constant part (the symbolic terms are ignored).
  Rational constantPart() const { return Constant; }

  /// Returns the coefficient of \p Sym (zero when absent).
  Rational coefficientOf(SymbolRef Sym) const;

  /// Returns the symbolic terms in deterministic (pointer-keyed map) order.
  const std::map<SymbolRef, Rational> &terms() const { return Terms; }

  Affine operator-() const;
  Affine operator+(const Affine &RHS) const;
  Affine operator-(const Affine &RHS) const;
  Affine operator*(const Rational &Scale) const;

  Affine &operator+=(const Affine &RHS) { return *this = *this + RHS; }
  Affine &operator-=(const Affine &RHS) { return *this = *this - RHS; }
  Affine &operator*=(const Rational &S) { return *this = *this * S; }

  /// Multiplies two affine expressions; fails (nullopt) unless at least one
  /// side is constant, since the product would otherwise be quadratic.
  static std::optional<Affine> mul(const Affine &A, const Affine &B);

  bool operator==(const Affine &RHS) const {
    return Constant == RHS.Constant && Terms == RHS.Terms;
  }
  bool operator!=(const Affine &RHS) const { return !(*this == RHS); }

  /// Appends the rendering, e.g. "3/2 + 2*n", to \p Out.  Symbols are
  /// named by \p Namer, or printed as "sym" when none is given.
  void append(std::string &Out,
              const SymbolNamer &Namer = SymbolNamer()) const;
  /// The rendering of append as a string of its own.
  std::string str(const SymbolNamer &Namer = SymbolNamer()) const;

private:
  Rational Constant;
  std::map<SymbolRef, Rational> Terms;
};

} // namespace biv

#endif // BEYONDIV_SUPPORT_AFFINE_H
