//===- ivclass/ClosedForm.h - Closed forms of recurrences -------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closed forms of induction sequences.
///
/// Section 4.3 represents a polynomial induction variable as the tuple
/// (l, i, s1, ..., sm) whose value on iteration h is sum(sk * h^k), and a
/// geometric one by "the polynomial coefficients followed by the
/// coefficients of each exponential term": sum(sk * h^k) + sum(gb * b^h).
/// ClosedForm generalizes that to the full exponential-polynomial space of
/// c-finite recurrences: each exponential base carries a *polynomial*
/// coefficient, sum(sk * h^k) + sum_b (sum_j gbj * h^j) * b^h, which is
/// closed under the resonant case x' = a*x + c*a^h (whose solution needs
/// h*a^h) and under constant-coefficient linear systems with integer
/// eigenvalues.  Every coefficient is an Affine (rational coefficients over
/// loop-invariant symbols) and h is the canonical basic loop counter
/// (l, 0, 1) that is zero on the first iteration.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IVCLASS_CLOSEDFORM_H
#define BEYONDIV_IVCLASS_CLOSEDFORM_H

#include "support/Affine.h"
#include "support/Rational.h"
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace biv {
namespace ivclass {

/// Polynomial coefficient of one exponential term: sum_j p[j] * h^j
/// multiplying b^h.  Like the plain polynomial part, index = power of h.
using ExpPoly = std::vector<Affine>;

/// value(h) = sum_k poly[k] * h^k  +  sum_b (sum_j geo[b][j] * h^j) * b^h.
///
/// Invariants: the polynomial coefficient list has no trailing zeros;
/// exponential terms never use base 0 or 1 (base-1 folds into the
/// polynomial part), their coefficient polynomials have no trailing zeros,
/// and an all-zero coefficient polynomial is never stored.
class ClosedForm {
public:
  /// Constructs the zero form.
  ClosedForm() = default;

  /// The constant (loop-invariant) form \p C.
  static ClosedForm constant(Affine C);

  /// The canonical basic counter h = (L, 0, 1).
  static ClosedForm counter();

  /// init + step * h: the paper's linear tuple (L, init, step).
  static ClosedForm linear(Affine Init, Affine Step);

  /// Builds from explicit coefficients (normalizes); each exponential term
  /// gets a constant (degree-0) coefficient polynomial.
  static ClosedForm make(std::vector<Affine> Poly,
                         std::map<int64_t, Affine> Geo = {});

  /// Builds from explicit coefficients with full coefficient polynomials on
  /// the exponential terms (normalizes).
  static ClosedForm makeExp(std::vector<Affine> Poly,
                            std::map<int64_t, ExpPoly> Geo);

  bool isZero() const { return Poly.empty() && Geo.empty(); }
  bool isInvariant() const { return degree() == 0 && Geo.empty(); }
  bool isLinear() const { return degree() <= 1 && Geo.empty(); }
  bool isPolynomial() const { return Geo.empty(); }
  bool hasExponential() const { return !Geo.empty(); }

  /// True when some exponential term carries a non-constant coefficient
  /// polynomial (e.g. h*2^h) -- the c-finite extension beyond the paper's
  /// geometric class.
  bool hasPolyExponential() const {
    for (const auto &[Base, Coeff] : Geo)
      if (Coeff.size() > 1)
        return true;
    return false;
  }

  /// Degree of the polynomial part (0 for a constant).
  unsigned degree() const {
    return Poly.size() <= 1 ? 0 : static_cast<unsigned>(Poly.size() - 1);
  }

  /// Coefficient of h^k (zero when absent).
  Affine coeff(unsigned K) const {
    return K < Poly.size() ? Poly[K] : Affine();
  }

  /// The paper's "initial value": value(0).
  Affine initialValue() const;

  /// Step of a linear form (its h coefficient); requires isLinear().
  Affine linearStep() const {
    assert(isLinear() && "step of non-linear form");
    return coeff(1);
  }

  const std::map<int64_t, ExpPoly> &geoTerms() const { return Geo; }

  /// Coefficient of h^J * Base^h (zero when absent).
  Affine geoCoeff(int64_t Base, unsigned J = 0) const {
    auto It = Geo.find(Base);
    if (It == Geo.end() || J >= It->second.size())
      return Affine();
    return It->second[J];
  }

  ClosedForm operator-() const;
  ClosedForm operator+(const ClosedForm &RHS) const;
  ClosedForm operator-(const ClosedForm &RHS) const;
  ClosedForm operator*(const Rational &Scale) const;

  /// Full product; nullopt when the result leaves the representable space
  /// (symbol-by-symbol products).  h^k * b^h cross terms stay representable
  /// here: they land in the coefficient polynomial of b^h.
  std::optional<ClosedForm> mulChecked(const ClosedForm &RHS) const;

  /// Exact value on iteration \p H (H >= 0).
  Affine evaluateAt(int64_t H) const;

  /// value(h + Delta) as a form in h; nullopt when an exponential
  /// coefficient would leave the rationals (never happens for integer
  /// bases with Delta >= -62).
  std::optional<ClosedForm> shifted(int64_t Delta) const;

  /// value(K*c + P) as a form in the new variable c (K >= 1, P >= 0): the
  /// time-stretch that moves an iteration-domain form into the cycle domain
  /// of a period-K branch cycle at phase P.  Exponential bases become b^K;
  /// nullopt when a stretched base leaves int64.  May throw
  /// RationalOverflow (coefficient arithmetic), like the other operators.
  /// K = 1, P = 0 returns the form itself.
  std::optional<ClosedForm> atLinear(int64_t K, int64_t P) const;

  /// Evaluates at a *symbolic* iteration count: only possible for linear
  /// forms (init + step*TC must stay affine).  This is how inner-loop exit
  /// values with symbolic trip counts (the triangular loop of Figure 9) are
  /// built.
  std::optional<Affine> evaluateAtAffine(const Affine &TC) const;

  /// True when the sequence is non-decreasing for all h >= 0, provable from
  /// numeric coefficients alone (conservative).
  bool provablyNonDecreasing() const;
  /// True when strictly increasing for all h >= 0 (conservative).
  bool provablyIncreasing() const;
  /// True when value(h) >= 0 for all h >= 0 (conservative).
  bool provablyNonNegative() const;

  bool operator==(const ClosedForm &RHS) const {
    return Poly == RHS.Poly && Geo == RHS.Geo;
  }
  bool operator!=(const ClosedForm &RHS) const { return !(*this == RHS); }

  /// Appends e.g. "3 + 1/2*h + 1/2*h^2", "-2 - h + 3*2^h", or (c-finite)
  /// "1 + 2*h*2^h".  Term order is fixed -- polynomial powers ascending,
  /// then bases ascending with coefficient powers ascending -- so the
  /// rendering never depends on pointer or insertion order.
  void append(std::string &Out,
              const SymbolNamer &Namer = SymbolNamer()) const;
  /// The rendering of append as a string of its own.
  std::string str(const SymbolNamer &Namer = SymbolNamer()) const;

private:
  void normalize();

  std::vector<Affine> Poly;
  std::map<int64_t, ExpPoly> Geo;
};

} // namespace ivclass
} // namespace biv

#endif // BEYONDIV_IVCLASS_CLOSEDFORM_H
