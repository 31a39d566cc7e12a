//===- support/Rational.cpp - Exact rational arithmetic -------------------===//

#include "support/Rational.h"
#include <algorithm>
#include <numeric>

using namespace biv;

int64_t biv::gcd64(int64_t A, int64_t B) {
  if (A < 0)
    A = -A;
  if (B < 0)
    B = -B;
  while (B != 0) {
    int64_t T = A % B;
    A = B;
    B = T;
  }
  return A;
}

namespace {

using U128 = unsigned __int128;

uint64_t mulMod(uint64_t A, uint64_t B, uint64_t M) {
  return uint64_t(U128(A) * B % M);
}

uint64_t powMod(uint64_t B, uint64_t E, uint64_t M) {
  uint64_t R = 1;
  for (B %= M; E != 0; E >>= 1) {
    if (E & 1)
      R = mulMod(R, B, M);
    B = mulMod(B, B, M);
  }
  return R;
}

/// The first twelve primes.  As Miller-Rabin bases they decide primality
/// exactly for every N below 3.3e24, so for all of uint64_t.
constexpr uint64_t SmallPrimes[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};

/// Deterministic Miller-Rabin for N > 1 with no factor among SmallPrimes.
bool isPrime(uint64_t N) {
  if (N < 41 * 41) // a composite's least prime factor is at most its root
    return true;
  uint64_t D = N - 1;
  unsigned S = 0;
  for (; (D & 1) == 0; D >>= 1)
    ++S;
  for (uint64_t A : SmallPrimes) {
    uint64_t X = powMod(A, D, N);
    if (X == 1 || X == N - 1)
      continue;
    unsigned R = 1;
    for (; R < S; ++R) {
      X = mulMod(X, X, N);
      if (X == N - 1)
        break;
    }
    if (R == S)
      return false;
  }
  return true;
}

/// A nontrivial factor of the composite \p N, which has no factor among
/// SmallPrimes: Pollard's rho with Brent's cycle detection, one gcd per
/// batch of 128 differences.  A walk that collapses onto N itself retries
/// with the next increment C.
uint64_t findFactor(uint64_t N) {
  constexpr uint64_t Batch = 128;
  auto Dist = [](uint64_t A, uint64_t B) { return A > B ? A - B : B - A; };
  for (uint64_t C = 1;; ++C) {
    auto F = [&](uint64_t X) { return uint64_t((U128(X) * X + C) % N); };
    uint64_t X = 2, Y = 2, Ys = 2, Q = 1, G = 1;
    for (uint64_t R = 1; G == 1; R *= 2) {
      X = Y;
      for (uint64_t I = 0; I < R; ++I)
        Y = F(Y);
      for (uint64_t K = 0; K < R && G == 1; K += Batch) {
        Ys = Y;
        for (uint64_t I = 0, E = std::min(Batch, R - K); I < E; ++I) {
          Y = F(Y);
          Q = mulMod(Q, Dist(X, Y), N);
        }
        G = std::gcd(Q, N);
      }
    }
    // The batch product hit a multiple of N: replay it one step at a time.
    if (G == N)
      do {
        Ys = F(Ys);
        G = std::gcd(Dist(X, Ys), N);
      } while (G == 1);
    if (G != N)
      return G;
  }
}

void collectPrimes(uint64_t N, std::vector<uint64_t> &Primes) {
  if (N == 1)
    return;
  if (isPrime(N)) {
    Primes.push_back(N);
    return;
  }
  const uint64_t D = findFactor(N);
  collectPrimes(D, Primes);
  collectPrimes(N / D, Primes);
}

} // namespace

std::vector<uint64_t> biv::positiveDivisors(uint64_t N) {
  assert(N != 0 && "every integer divides zero");
  std::vector<uint64_t> Primes;
  for (uint64_t P : SmallPrimes)
    for (; N % P == 0; N /= P)
      Primes.push_back(P);
  collectPrimes(N, Primes);
  std::sort(Primes.begin(), Primes.end());

  // Each run of an equal prime p^e multiplies the list so far by p..p^e.
  std::vector<uint64_t> Divs = {1};
  for (size_t I = 0, J; I < Primes.size(); I = J) {
    const size_t Known = Divs.size();
    uint64_t Pow = 1;
    for (J = I; J < Primes.size() && Primes[J] == Primes[I]; ++J) {
      Pow *= Primes[I];
      for (size_t K = 0; K < Known; ++K)
        Divs.push_back(Divs[K] * Pow);
    }
  }
  std::sort(Divs.begin(), Divs.end());
  return Divs;
}

static int64_t narrow(__int128 V) {
  // Gcd reduction already ran in 128 bits; a value still out of range here
  // is a genuine overflow of the representation, never a transient.  Report
  // it instead of wrapping (the old assert compiled away under NDEBUG and
  // the static_cast silently truncated).
  if (V < INT64_MIN || V > INT64_MAX)
    throw RationalOverflow();
  return static_cast<int64_t>(V);
}

Rational Rational::normalized(__int128 N, __int128 D) {
  assert(D != 0 && "rational with zero denominator");
  // Normalize sign and reduce before narrowing, so transient wide values
  // survive: N = INT64_MIN with D < 0 would overflow a plain int64
  // negation before the gcd could shrink it.
  if (D < 0) {
    N = -N;
    D = -D;
  }
  __int128 A = N < 0 ? -N : N, B = D;
  while (B != 0) {
    __int128 T = A % B;
    A = B;
    B = T;
  }
  if (A > 1) {
    N /= A;
    D /= A;
  }
  return Rational(narrow(N), narrow(D), Reduced());
}

Rational::Rational(int64_t N, int64_t D) : Rational(normalized(N, D)) {}

Rational Rational::operator-() const {
  // -INT64_MIN is not representable: throw rather than negate in int64
  // (signed-overflow UB).  Negation keeps a reduced value reduced.
  if (Num == INT64_MIN)
    throw RationalOverflow();
  return Rational(-Num, Den, Reduced());
}

// Integer operands take the fast paths: their exact result is an integer,
// so there is nothing to reduce, and the overflow builtins report exactly
// the 128-bit results that narrow() would reject.
Rational Rational::operator+(const Rational &RHS) const {
  if (Den == 1 && RHS.Den == 1) {
    int64_t R;
    if (__builtin_add_overflow(Num, RHS.Num, &R))
      throw RationalOverflow();
    return Rational(R);
  }
  return normalized(static_cast<__int128>(Num) * RHS.Den +
                        static_cast<__int128>(RHS.Num) * Den,
                    static_cast<__int128>(Den) * RHS.Den);
}

Rational Rational::operator-(const Rational &RHS) const {
  // Direct subtraction, not *this + (-RHS): negating first throws for RHS
  // touching INT64_MIN even when the difference itself fits (e.g. the
  // trip-count margin (hi - lo) with lo == INT64_MIN).
  if (Den == 1 && RHS.Den == 1) {
    int64_t R;
    if (__builtin_sub_overflow(Num, RHS.Num, &R))
      throw RationalOverflow();
    return Rational(R);
  }
  return normalized(static_cast<__int128>(Num) * RHS.Den -
                        static_cast<__int128>(RHS.Num) * Den,
                    static_cast<__int128>(Den) * RHS.Den);
}

Rational Rational::operator*(const Rational &RHS) const {
  if (Den == 1 && RHS.Den == 1) {
    int64_t R;
    if (__builtin_mul_overflow(Num, RHS.Num, &R))
      throw RationalOverflow();
    return Rational(R);
  }
  return normalized(static_cast<__int128>(Num) * RHS.Num,
                    static_cast<__int128>(Den) * RHS.Den);
}

Rational Rational::operator/(const Rational &RHS) const {
  assert(!RHS.isZero() && "division by zero rational");
  return normalized(static_cast<__int128>(Num) * RHS.Den,
                    static_cast<__int128>(Den) * RHS.Num);
}

bool Rational::operator<(const Rational &RHS) const {
  return static_cast<__int128>(Num) * RHS.Den <
         static_cast<__int128>(RHS.Num) * Den;
}

int64_t Rational::floor() const {
  if (Num >= 0)
    return Num / Den;
  // Widen: -Num overflows for Num == INT64_MIN.  The result magnitude only
  // shrinks (Den >= 1), so the final narrow always succeeds.
  __int128 N = -static_cast<__int128>(Num);
  return narrow(-((N + Den - 1) / Den));
}

int64_t Rational::ceil() const {
  // Truncation toward zero is already the ceiling for non-positive values;
  // doing it directly (rather than -(-x).floor()) keeps INT64_MIN/Den legal.
  if (Num <= 0)
    return Num / Den;
  return narrow((static_cast<__int128>(Num) + Den - 1) / Den);
}

Rational Rational::pow(int64_t Exp) const {
  if (Exp < 0)
    return Rational(1) / pow(-Exp);
  Rational Result(1), Base = *this;
  while (Exp > 0) {
    if (Exp & 1)
      Result *= Base;
    Base *= Base;
    Exp >>= 1;
  }
  return Result;
}

std::string Rational::str() const {
  if (isInteger())
    return std::to_string(Num);
  return std::to_string(Num) + "/" + std::to_string(Den);
}
