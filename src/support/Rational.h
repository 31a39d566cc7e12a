//===- support/Rational.h - Exact rational arithmetic ----------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rational arithmetic on 64-bit numerator/denominator pairs.
///
/// The paper finds closed forms for polynomial and geometric induction
/// variables by inverting small integer matrices; the inverses "will have
/// only rational entries" (section 4.3), so the solver needs exact rational
/// arithmetic.  Intermediate products are computed in 128 bits, gcd-reduced
/// once while still wide, and narrowed back to int64.  A sum, difference or
/// product of two integers is already reduced, so it skips the gcd and only
/// checks the int64 range.  A reduced value that does not fit 64 bits
/// throws RationalOverflow -- callers at analysis boundaries (recurrence
/// solver, trip counts, per-region classification) catch it and degrade to
/// "unknown" instead of computing with a silently wrapped number.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_SUPPORT_RATIONAL_H
#define BEYONDIV_SUPPORT_RATIONAL_H

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace biv {

/// Thrown when an exact rational result cannot be represented in
/// int64/int64 after gcd reduction.  Deliberately a distinct type so
/// analysis code can catch arithmetic overflow without swallowing logic
/// errors.
class RationalOverflow : public std::overflow_error {
public:
  RationalOverflow() : std::overflow_error("rational overflow (result does "
                                           "not fit 64-bit num/den)") {}
};

/// An exact rational number num/den with den > 0 and gcd(num, den) == 1.
class Rational {
public:
  /// Constructs zero.
  Rational() = default;

  /// Constructs the integer \p N.
  Rational(int64_t N) : Num(N) {}

  /// Constructs \p N / \p D; \p D must be nonzero.
  Rational(int64_t N, int64_t D);

  int64_t numerator() const { return Num; }
  int64_t denominator() const { return Den; }

  bool isZero() const { return Num == 0; }
  bool isOne() const { return Num == 1 && Den == 1; }
  bool isInteger() const { return Den == 1; }
  bool isNegative() const { return Num < 0; }
  bool isPositive() const { return Num > 0; }

  /// Returns the integer value; the rational must be an integer.
  int64_t getInteger() const {
    assert(isInteger() && "not an integer rational");
    return Num;
  }

  /// Returns the least integer >= this.
  int64_t ceil() const;
  /// Returns the greatest integer <= this.
  int64_t floor() const;

  Rational operator-() const;
  Rational operator+(const Rational &RHS) const;
  Rational operator-(const Rational &RHS) const;
  Rational operator*(const Rational &RHS) const;
  /// Divides; \p RHS must be nonzero.
  Rational operator/(const Rational &RHS) const;

  Rational &operator+=(const Rational &RHS) { return *this = *this + RHS; }
  Rational &operator-=(const Rational &RHS) { return *this = *this - RHS; }
  Rational &operator*=(const Rational &RHS) { return *this = *this * RHS; }
  Rational &operator/=(const Rational &RHS) { return *this = *this / RHS; }

  bool operator==(const Rational &RHS) const {
    return Num == RHS.Num && Den == RHS.Den;
  }
  bool operator!=(const Rational &RHS) const { return !(*this == RHS); }
  bool operator<(const Rational &RHS) const;
  bool operator<=(const Rational &RHS) const { return !(RHS < *this); }
  bool operator>(const Rational &RHS) const { return RHS < *this; }
  bool operator>=(const Rational &RHS) const { return !(*this < RHS); }

  /// Raises this to the integer power \p Exp (Exp >= 0, or this nonzero).
  Rational pow(int64_t Exp) const;

  /// Renders "n" for integers and "n/d" otherwise.
  std::string str() const;

private:
  /// \p N / \p D, already reduced with \p D > 0.
  struct Reduced {};
  Rational(int64_t N, int64_t D, Reduced) : Num(N), Den(D) {}

  /// Reduces \p N / \p D (\p D nonzero) in 128 bits, then narrows.
  static Rational normalized(__int128 N, __int128 D);

  int64_t Num = 0;
  int64_t Den = 1;
};

/// Greatest common divisor of |A| and |B|; gcd(0, 0) == 0.
int64_t gcd64(int64_t A, int64_t B);

/// Every positive divisor of \p N (N >= 1), ascending.  The list comes from
/// the prime factorisation (deterministic Miller-Rabin plus Pollard-Brent
/// rho), so the cost follows the divisor count -- at most 103,680 below
/// 2^64 -- rather than the size of N.
std::vector<uint64_t> positiveDivisors(uint64_t N);

} // namespace biv

#endif // BEYONDIV_SUPPORT_RATIONAL_H
