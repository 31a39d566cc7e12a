//===- tests/support_test.cpp - Rational/Affine/Matrix unit tests ------------===//

#include "support/Affine.h"
#include "support/Lcg.h"
#include "support/Matrix.h"
#include "support/Rational.h"
#include <algorithm>
#include <gtest/gtest.h>
#include <limits>
#include <optional>
#include <vector>

using namespace biv;

//===----------------------------------------------------------------------===//
// Rational
//===----------------------------------------------------------------------===//

TEST(RationalTest, DefaultIsZero) {
  Rational R;
  EXPECT_TRUE(R.isZero());
  EXPECT_TRUE(R.isInteger());
  EXPECT_EQ(R.getInteger(), 0);
}

TEST(RationalTest, NormalizesSignAndGcd) {
  Rational R(6, -8);
  EXPECT_EQ(R.numerator(), -3);
  EXPECT_EQ(R.denominator(), 4);
  EXPECT_TRUE(R.isNegative());
}

TEST(RationalTest, Arithmetic) {
  Rational Half(1, 2), Third(1, 3);
  EXPECT_EQ(Half + Third, Rational(5, 6));
  EXPECT_EQ(Half - Third, Rational(1, 6));
  EXPECT_EQ(Half * Third, Rational(1, 6));
  EXPECT_EQ(Half / Third, Rational(3, 2));
  EXPECT_EQ(-Half, Rational(-1, 2));
}

TEST(RationalTest, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_NE(Rational(1, 3), Rational(1, 2));
}

TEST(RationalTest, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(6, 2).floor(), 3);
  EXPECT_EQ(Rational(6, 2).ceil(), 3);
}

TEST(RationalTest, Pow) {
  EXPECT_EQ(Rational(2).pow(10), Rational(1024));
  EXPECT_EQ(Rational(-3).pow(3), Rational(-27));
  EXPECT_EQ(Rational(2).pow(0), Rational(1));
  EXPECT_EQ(Rational(2).pow(-2), Rational(1, 4));
  EXPECT_EQ(Rational(1, 2).pow(3), Rational(1, 8));
}

TEST(RationalTest, Str) {
  EXPECT_EQ(Rational(5).str(), "5");
  EXPECT_EQ(Rational(-3, 2).str(), "-3/2");
}

TEST(RationalTest, LargeIntermediates) {
  // (1/3e9) + (1/3e9) must reduce through 128-bit intermediates.
  Rational A(1, 3000000000LL);
  Rational Sum = A + A;
  EXPECT_EQ(Sum, Rational(1, 1500000000LL));
}

TEST(RationalTest, Gcd64) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(-12, 18), 6);
  EXPECT_EQ(gcd64(0, 5), 5);
  EXPECT_EQ(gcd64(0, 0), 0);
}

namespace {

/// The definition positiveDivisors() replaces: trial division to sqrt(N).
std::vector<uint64_t> divisorsByTrialDivision(uint64_t N) {
  std::vector<uint64_t> Divs;
  for (uint64_t D = 1; D * D <= N; ++D)
    if (N % D == 0) {
      Divs.push_back(D);
      if (D != N / D)
        Divs.push_back(N / D);
    }
  std::sort(Divs.begin(), Divs.end());
  return Divs;
}

} // namespace

TEST(DivisorTest, MatchesTrialDivision) {
  for (uint64_t N = 1; N <= 100000; ++N)
    ASSERT_EQ(positiveDivisors(N), divisorsByTrialDivision(N)) << "N = " << N;
  Lcg R(36);
  for (unsigned I = 0; I < 300; ++I) {
    const uint64_t N = R.next() % (uint64_t(1) << 36) + 1;
    ASSERT_EQ(positiveDivisors(N), divisorsByTrialDivision(N)) << "N = " << N;
  }
}

TEST(DivisorTest, LargeSemiprimesSquaresAndPrimes) {
  // The product of the diagonal of the coupled loop u' = 1000000007u + v,
  // v' = 998244353v + u.
  EXPECT_EQ(positiveDivisors(998244359987710471ull),
            (std::vector<uint64_t>{1, 998244353, 1000000007,
                                   998244359987710471ull}));
  // (2^31 - 1)^2: a prime square, where rho must find the repeated factor.
  EXPECT_EQ(positiveDivisors(4611686014132420609ull),
            (std::vector<uint64_t>{1, 2147483647, 4611686014132420609ull}));
  // The largest primes below 2^63 and 2^64.
  EXPECT_EQ(positiveDivisors(9223372036854775783ull),
            (std::vector<uint64_t>{1, 9223372036854775783ull}));
  EXPECT_EQ(positiveDivisors(18446744073709551557ull),
            (std::vector<uint64_t>{1, 18446744073709551557ull}));
  // 2^63 and 2^64 - 1 = 3 * 5 * 17 * 257 * 641 * 65537 * 6700417.
  EXPECT_EQ(positiveDivisors(uint64_t(1) << 63).size(), 64u);
  EXPECT_EQ(positiveDivisors(UINT64_MAX).size(), 128u);
}

TEST(DivisorTest, MostDivisorsBelow2To64) {
  // 897612484786617600 = 2^8 3^4 5^2 7^2 11 13 17 19 23 29 31 37 has
  // 103,680 divisors, the most of any 64-bit value.
  const uint64_t N = 897612484786617600ull;
  const std::vector<uint64_t> Divs = positiveDivisors(N);
  ASSERT_EQ(Divs.size(), 103680u);
  EXPECT_EQ(Divs.front(), 1u);
  EXPECT_EQ(Divs.back(), N);
  for (size_t I = 0; I < Divs.size(); ++I)
    ASSERT_EQ(N % Divs[I], 0u) << Divs[I];
  EXPECT_TRUE(std::is_sorted(Divs.begin(), Divs.end()));
  EXPECT_EQ(std::adjacent_find(Divs.begin(), Divs.end()), Divs.end());
}

TEST(RationalTest, GcdReductionAfterEveryOp) {
  // Results are always in lowest terms -- no "non-normalized fraction"
  // survives an operation (the old bug let 3/6 escape and poison ==).
  Rational S = Rational(1, 6) + Rational(1, 3);
  EXPECT_EQ(S.numerator(), 1);
  EXPECT_EQ(S.denominator(), 2);
  Rational P = Rational(2, 3) * Rational(3, 4);
  EXPECT_EQ(P.numerator(), 1);
  EXPECT_EQ(P.denominator(), 2);
  Rational D = Rational(4, 6) / Rational(2, 9);
  EXPECT_EQ(D.numerator(), 3);
  EXPECT_EQ(D.denominator(), 1);
}

TEST(RationalTest, OverflowThrowsInsteadOfWrapping) {
  const int64_t Max = std::numeric_limits<int64_t>::max();
  const int64_t Min = std::numeric_limits<int64_t>::min();
  // Each of these has an exact value just outside int64 after reduction:
  // the old code wrapped silently, producing a *wrong* closed form.
  EXPECT_THROW(Rational(Max) + Rational(1), RationalOverflow);
  EXPECT_THROW(Rational(Min) - Rational(1), RationalOverflow);
  EXPECT_THROW(-Rational(Min), RationalOverflow);
  EXPECT_THROW(Rational(Max) * Rational(2), RationalOverflow);
  // Normalization keeps Den > 0, so a Den of INT64_MIN must negate Num --
  // representable only when the division by gcd makes room.
  EXPECT_THROW(Rational(1, Min), RationalOverflow);
  EXPECT_THROW(Rational(Min, -1), RationalOverflow); // == -Min, one too big
  EXPECT_THROW(Rational(Min) / Rational(-1), RationalOverflow);
  // Integer operands skip the gcd, not the range check.
  EXPECT_THROW(Rational(Min) * Rational(-1), RationalOverflow);
  EXPECT_THROW(Rational(-1) * Rational(Min), RationalOverflow);
  EXPECT_THROW(Rational(Min) + Rational(Min), RationalOverflow);
  EXPECT_THROW(Rational(Max) - Rational(-1), RationalOverflow);
  EXPECT_THROW(Rational(Min) * Rational(Min), RationalOverflow);
}

TEST(RationalTest, ExtremeValuesThatDoFitAreExact) {
  const int64_t Max = std::numeric_limits<int64_t>::max();
  const int64_t Min = std::numeric_limits<int64_t>::min();
  // INT64_MIN / -2 reduces to 2^62: wide intermediates make it exact.
  Rational R(Min, -2);
  EXPECT_EQ(R.numerator(), int64_t(1) << 62);
  EXPECT_EQ(R.denominator(), 1);
  // (MAX/2) * 2 cancels back inside range.
  EXPECT_EQ(Rational(Max, 2) * Rational(2), Rational(Max));
  // floor/ceil at the bottom of the range must not round through a wrap.
  EXPECT_EQ(Rational(Min).floor(), Min);
  EXPECT_EQ(Rational(Min).ceil(), Min);
  EXPECT_EQ(Rational(Min, 3).ceil(), Min / 3);
  // The integer paths at the ends of the range.
  EXPECT_EQ(Rational(Min) + Rational(0), Rational(Min));
  EXPECT_EQ(Rational(Min) * Rational(1), Rational(Min));
  EXPECT_EQ(-Rational(Max) - Rational(1), Rational(Min));
  EXPECT_EQ(Rational(Max) + Rational(Min), Rational(-1));
  EXPECT_EQ(Rational(Min) - Rational(Min), Rational(0));
  EXPECT_EQ(Rational(Min / 2) * Rational(2), Rational(Min));
  EXPECT_EQ(Rational(Max) * Rational(-1), Rational(Min + 1));
}

namespace {

using I128 = __int128;

/// The value \p N / \p D (D != 0) reduced, with D > 0, or nullopt when it
/// does not fit int64/int64: what every Rational operation must return.
std::optional<std::pair<int64_t, int64_t>> reducedReference(I128 N, I128 D) {
  if (D < 0) {
    N = -N;
    D = -D;
  }
  I128 A = N < 0 ? -N : N, B = D;
  while (B != 0) {
    I128 T = A % B;
    A = B;
    B = T;
  }
  if (A > 1) {
    N /= A;
    D /= A;
  }
  auto fits = [](I128 V) { return V >= INT64_MIN && V <= INT64_MAX; };
  if (!fits(N) || !fits(D))
    return std::nullopt;
  return std::make_pair(int64_t(N), int64_t(D));
}

I128 gcd128(I128 A, I128 B) {
  A = A < 0 ? -A : A;
  B = B < 0 ? -B : B;
  while (B != 0) {
    I128 T = A % B;
    A = B;
    B = T;
  }
  return A;
}

} // namespace

TEST(RationalTest, SeededOperationsMatch128BitReference) {
  const int64_t Max = std::numeric_limits<int64_t>::max();
  const int64_t Min = std::numeric_limits<int64_t>::min();
  Lcg R(18);
  auto operand = [&]() -> Rational {
    switch (R.range(0, 5)) {
    case 0:
      return Rational(R.range(-20, 20));
    case 1: // an end of the range
      return Rational(R.range(0, 1) ? Max - R.range(0, 3) : Min + R.range(0, 3));
    case 2:
      return Rational(int64_t(R.next()));
    case 3:
      return Rational(R.range(-50, 50), R.range(1, 60));
    case 4:
      return Rational(int64_t(R.next()), R.range(2, Max));
    default:
      return Rational(R.range(-(1 << 20), 1 << 20), R.range(1, 1 << 20));
    }
  };
  unsigned Integers = 0, Fractions = 0, Thrown = 0;
  for (unsigned I = 0; I < 20000; ++I) {
    const Rational A = operand(), B = operand();
    const I128 AN = A.numerator(), AD = A.denominator();
    const I128 BN = B.numerator(), BD = B.denominator();
    for (char Op : {'+', '-', '*', '/', '~'}) {
      if (Op == '/' && B.isZero())
        continue;
      I128 N, D;
      switch (Op) {
      case '+':
        N = AN * BD + BN * AD, D = AD * BD;
        break;
      case '-':
        N = AN * BD - BN * AD, D = AD * BD;
        break;
      case '*':
        N = AN * BN, D = AD * BD;
        break;
      case '/':
        N = AN * BD, D = AD * BN;
        break;
      default: // negation
        N = -AN, D = AD;
        break;
      }
      const auto Want = reducedReference(N, D);
      const std::string What =
          A.str() + " " + Op + " " + (Op == '~' ? "" : B.str());
      try {
        const Rational Got = Op == '+'   ? A + B
                             : Op == '-' ? A - B
                             : Op == '*' ? A * B
                             : Op == '/' ? A / B
                                         : -A;
        ASSERT_TRUE(Want) << What << " should overflow, got " << Got.str();
        EXPECT_EQ(Got.numerator(), Want->first) << What;
        EXPECT_EQ(Got.denominator(), Want->second) << What;
        EXPECT_GT(Got.denominator(), 0) << What;
        EXPECT_EQ(gcd128(Got.numerator(), Got.denominator()), 1) << What;
        ++(Got.isInteger() ? Integers : Fractions);
      } catch (const RationalOverflow &) {
        EXPECT_FALSE(Want) << What << " threw, expected "
                           << Rational(Want->first, Want->second).str();
        ++Thrown;
      }
    }
  }
  // Every path is exercised: exact integers, reduced fractions, overflow.
  EXPECT_GT(Integers, 10000u);
  EXPECT_GT(Fractions, 10000u);
  EXPECT_GT(Thrown, 5000u);
}

//===----------------------------------------------------------------------===//
// Affine
//===----------------------------------------------------------------------===//

namespace {
int SymA, SymB; // arbitrary distinct addresses as symbols
} // namespace

TEST(AffineTest, ConstantOnly) {
  Affine A(Rational(3, 2));
  EXPECT_TRUE(A.isConstant());
  EXPECT_EQ(*A.getConstant(), Rational(3, 2));
}

TEST(AffineTest, SymbolArithmetic) {
  Affine N = Affine::symbol(&SymA);
  Affine E = N + Affine(2);            // n + 2
  Affine F = E * Rational(3);          // 3n + 6
  EXPECT_EQ(F.coefficientOf(&SymA), Rational(3));
  EXPECT_EQ(F.constantPart(), Rational(6));
  EXPECT_FALSE(F.isConstant());
}

TEST(AffineTest, CancellationRemovesTerms) {
  Affine N = Affine::symbol(&SymA);
  Affine Z = N - N;
  EXPECT_TRUE(Z.isZero());
  EXPECT_TRUE(Z.isConstant());
}

TEST(AffineTest, MulRequiresConstantSide) {
  Affine N = Affine::symbol(&SymA);
  Affine M = Affine::symbol(&SymB);
  EXPECT_FALSE(Affine::mul(N, M).has_value());
  auto P = Affine::mul(N + Affine(1), Affine(4));
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->coefficientOf(&SymA), Rational(4));
  EXPECT_EQ(P->constantPart(), Rational(4));
}

TEST(AffineTest, Equality) {
  Affine X = Affine::symbol(&SymA) + Affine(1);
  Affine Y = Affine(1) + Affine::symbol(&SymA);
  EXPECT_EQ(X, Y);
  EXPECT_NE(X, X + Affine(1));
}

TEST(AffineTest, Printing) {
  auto Namer = [](SymbolRef S) {
    return S == &SymA ? std::string("n") : std::string("m");
  };
  Affine E = Affine::symbol(&SymA) * Rational(2) + Affine(Rational(1, 2));
  EXPECT_EQ(E.str(Namer), "1/2 + 2*n");
  Affine Neg = -Affine::symbol(&SymA) + Affine(3);
  EXPECT_EQ(Neg.str(Namer), "3 - n");
  EXPECT_EQ(Affine().str(), "0");
}

//===----------------------------------------------------------------------===//
// RatMatrix
//===----------------------------------------------------------------------===//

TEST(MatrixTest, IdentityInverse) {
  RatMatrix I = RatMatrix::identity(3);
  auto Inv = I.inverse();
  ASSERT_TRUE(Inv.has_value());
  EXPECT_EQ(*Inv, I);
}

TEST(MatrixTest, SingularHasNoInverse) {
  RatMatrix M(2, 2);
  M.at(0, 0) = Rational(1);
  M.at(0, 1) = Rational(2);
  M.at(1, 0) = Rational(2);
  M.at(1, 1) = Rational(4);
  EXPECT_FALSE(M.inverse().has_value());
}

TEST(MatrixTest, PaperVandermondeExample) {
  // Section 4.3: k in loop L14 is a third-order polynomial IV; the matrix of
  // h^k values for h = 0..3 must invert exactly over the rationals.
  RatMatrix A(4, 4);
  for (unsigned H = 0; H < 4; ++H)
    for (unsigned K = 0; K < 4; ++K)
      A.at(H, K) = Rational(int64_t(H)).pow(K);
  auto Inv = A.inverse();
  ASSERT_TRUE(Inv.has_value());
  EXPECT_EQ(*Inv * A, RatMatrix::identity(4));

  // Multiplying the inverse by the first four values of k (4, 9, 17, 29)
  // yields the closed-form coefficients (24 23 6 1)/6, i.e.
  // k(h) = (h^3 + 6h^2 + 23h + 24) / 6.
  std::vector<Affine> B = {Affine(4), Affine(9), Affine(17), Affine(29)};
  auto X = A.solveAffine(B);
  ASSERT_TRUE(X.has_value());
  EXPECT_EQ(*(*X)[0].getConstant(), Rational(4));
  EXPECT_EQ(*(*X)[1].getConstant(), Rational(23, 6));
  EXPECT_EQ(*(*X)[2].getConstant(), Rational(1));
  EXPECT_EQ(*(*X)[3].getConstant(), Rational(1, 6));
}

TEST(MatrixTest, SolveWithSymbolicRHS) {
  // x0 + x1*h for h=0,1 with symbolic first values (n, n+s).
  int N, S;
  RatMatrix A(2, 2);
  A.at(0, 0) = Rational(1);
  A.at(0, 1) = Rational(0);
  A.at(1, 0) = Rational(1);
  A.at(1, 1) = Rational(1);
  std::vector<Affine> B = {Affine::symbol(&N),
                           Affine::symbol(&N) + Affine::symbol(&S)};
  auto X = A.solveAffine(B);
  ASSERT_TRUE(X.has_value());
  EXPECT_EQ((*X)[0], Affine::symbol(&N));
  EXPECT_EQ((*X)[1], Affine::symbol(&S));
}

TEST(MatrixTest, GeometricPaperMatrix) {
  // Section 4.3's geometric example m = 3*m + 2*i + 1: matrix rows are
  // [1 h h^2 3^h] for h = 0..3.
  RatMatrix A(4, 4);
  for (unsigned H = 0; H < 4; ++H) {
    A.at(H, 0) = Rational(1);
    A.at(H, 1) = Rational(int64_t(H));
    A.at(H, 2) = Rational(int64_t(H)).pow(2);
    A.at(H, 3) = Rational(3).pow(int64_t(H));
  }
  ASSERT_TRUE(A.inverse().has_value());
  // First values of m starting at 0 with i = h+1: m' = 3m + 2(h+1) + 1.
  // m(0)=0, m(1)=3, m(2)=14, m(3)=49.
  std::vector<Affine> B = {Affine(0), Affine(3), Affine(14), Affine(49)};
  auto X = A.solveAffine(B);
  ASSERT_TRUE(X.has_value());
  // Verify the closed form reproduces the sequence (coefficients are exact).
  for (int64_t H = 0; H <= 3; ++H) {
    Rational V = *(*X)[0].getConstant() +
                 *(*X)[1].getConstant() * Rational(H) +
                 *(*X)[2].getConstant() * Rational(H).pow(2) +
                 *(*X)[3].getConstant() * Rational(3).pow(H);
    EXPECT_EQ(V, *B[H].getConstant());
  }
  // No quadratic term survives, as the paper notes.
  EXPECT_EQ(*(*X)[2].getConstant(), Rational(0));
}

TEST(MatrixTest, MultiplyShapes) {
  RatMatrix A(2, 3), B(3, 2);
  for (unsigned R = 0; R < 2; ++R)
    for (unsigned C = 0; C < 3; ++C)
      A.at(R, C) = Rational(R + C);
  for (unsigned R = 0; R < 3; ++R)
    for (unsigned C = 0; C < 2; ++C)
      B.at(R, C) = Rational(int64_t(R) - int64_t(C));
  RatMatrix P = A * B;
  EXPECT_EQ(P.rows(), 2u);
  EXPECT_EQ(P.cols(), 2u);
  // Row 0 of A = (0 1 2), col 0 of B = (0 1 2) -> 5.
  EXPECT_EQ(P.at(0, 0), Rational(5));
}
