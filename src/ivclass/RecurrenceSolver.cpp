//===- ivclass/RecurrenceSolver.cpp - Matrix-based recurrence solving ----------===//

#include "ivclass/RecurrenceSolver.h"
#include "support/Stats.h"
#include <algorithm>
#include <cstdlib>
#include <map>
#include <vector>

using namespace biv;
using namespace biv::ivclass;

namespace {

// The iterate values, Vandermonde-style basis matrix, and Gauss-Jordan
// elimination all run in exact rational arithmetic; a high-order recurrence
// (degree-k polynomial IVs produce determinants that grow superfactorially)
// can push an intermediate past int64 even though every input fits.
// Overflow is not a wrong answer -- it means the closed form is not
// representable here -- so the entry points report "no closed form" instead
// of computing with wrapped numbers.
const stats::Counter NumOverflows("ivclass.solver.overflow");
// Basis guesses whose unknown count exceeds MaxUnknowns; the fit is skipped
// outright (rational elimination at that size would overflow anyway).
const stats::Counter NumTooLarge("ivclass.solver.too_large");
// Coupled-system solves attempted / rejected at the eigenvalue stage.
const stats::Counter NumSystems("ivclass.solver.system");
const stats::Counter NumBadEigen("ivclass.solver.system_bad_eigen");
// Wall time of the coupled solves NumSystems counts; nests inside
// phase.classify or phase.summarize, whichever asked for the solve.
const stats::Timer SolverPhase("phase.solver");

/// Hard cap on the basis size: beyond this the exact elimination overflows
/// int64 rationals in practice, so don't even build the matrix.
constexpr unsigned MaxUnknowns = 16;

/// Basis shape of an exponential-polynomial fit: powers of h up to PolyDeg,
/// plus h^j * b^h for each (b, d) in ExpDeg with j <= d.
unsigned countUnknowns(unsigned PolyDeg,
                       const std::map<int64_t, unsigned> &ExpDeg) {
  unsigned N = PolyDeg + 1;
  for (const auto &[Base, Deg] : ExpDeg) {
    (void)Base;
    N += Deg + 1;
  }
  return N;
}

/// Fits an exponential-polynomial of the given shape through the first
/// Unknowns entries of \p Values (Values[h] = X(h)) and verifies the result
/// against \p Verify extra iterates.  The generalized Vandermonde matrix of
/// {h^k} u {h^j * b^h} at consecutive h is nonsingular, so over-spanning the
/// true basis is safe -- the surplus coefficients solve to zero.
std::optional<ClosedForm> fitExpPoly(unsigned PolyDeg,
                                     const std::map<int64_t, unsigned> &ExpDeg,
                                     const std::vector<Affine> &Values,
                                     unsigned Verify) {
  const unsigned Unknowns = countUnknowns(PolyDeg, ExpDeg);
  if (Unknowns > MaxUnknowns) {
    NumTooLarge.bump();
    return std::nullopt;
  }
  assert(Values.size() >= Unknowns + Verify && "not enough iterates");

  RatMatrix M(Unknowns, Unknowns);
  for (unsigned H = 0; H < Unknowns; ++H) {
    unsigned Col = 0;
    for (unsigned K = 0; K <= PolyDeg; ++K)
      M.at(H, Col++) = Rational(int64_t(H)).pow(K);
    for (const auto &[Base, Deg] : ExpDeg) {
      const Rational BPow = Rational(Base).pow(H);
      for (unsigned J = 0; J <= Deg; ++J)
        M.at(H, Col++) = Rational(int64_t(H)).pow(J) * BPow;
    }
  }

  std::vector<Affine> RHS(Values.begin(), Values.begin() + Unknowns);
  std::optional<std::vector<Affine>> Coeffs = M.solveAffine(RHS);
  if (!Coeffs)
    return std::nullopt;

  std::vector<Affine> Poly(Coeffs->begin(), Coeffs->begin() + PolyDeg + 1);
  std::map<int64_t, ExpPoly> Geo;
  unsigned Col = PolyDeg + 1;
  for (const auto &[Base, Deg] : ExpDeg) {
    ExpPoly &P = Geo[Base];
    for (unsigned J = 0; J <= Deg; ++J)
      P.push_back((*Coeffs)[Col++]);
  }
  ClosedForm Form = ClosedForm::makeExp(std::move(Poly), std::move(Geo));

  // Verify on the extra iterates; a wrong basis guess fails here.
  for (unsigned V = 0; V < Verify; ++V)
    if (Form.evaluateAt(Unknowns + V) != Values[Unknowns + V])
      return std::nullopt;
  return Form;
}

std::optional<ClosedForm> solveLinearRecurrenceImpl(const Rational &A,
                                                    const ClosedForm &B,
                                                    const Affine &Init) {
  // Fast path: X' = X + c is the classical linear induction variable.
  if (A.isOne() && B.isInvariant())
    return ClosedForm::linear(Init, B.initialValue());

  if (A.isZero()) {
    // X(h) = B(h-1) for every h >= 1: the value forgets its past each
    // iteration.  That is a single closed form only when the shifted
    // forcing already passes through Init at h = 0; otherwise the caller
    // models it as an order-1 wrap-around into B.
    std::optional<ClosedForm> S = B.shifted(-1);
    if (S && S->evaluateAt(0) == Init)
      return S;
    return std::nullopt;
  }

  // Choose the basis the solution can be written in.
  //  - A == 1: summing B raises the polynomial degree by one; each
  //    exponential term q(h)*b^h sums to r(h)*b^h + const with deg r =
  //    deg q (b != 1), so the exponential shape carries over.
  //  - A == a (integer, != 0, 1): the homogeneous part contributes a^h; the
  //    particular solution matches B's shape, except the resonant base
  //    b == a, whose coefficient degree grows by one (c*a^h forces
  //    c*h*a^(h-1) into the solution -- the h*2^h case).
  // Non-integer A needs rational bases, which the representation (by
  // design, like the paper's) does not cover.
  if (!A.isInteger())
    return std::nullopt;
  const int64_t ABase = A.getInteger();

  unsigned PolyDeg = B.degree();
  std::map<int64_t, unsigned> ExpDeg;
  for (const auto &[Base, Coeff] : B.geoTerms())
    ExpDeg[Base] = unsigned(Coeff.size() - 1);
  if (ABase == 1) {
    PolyDeg += 1;
  } else {
    auto It = ExpDeg.find(ABase);
    if (It != ExpDeg.end())
      It->second += 1; // resonance
    else
      ExpDeg[ABase] = 0; // homogeneous term
  }

  const unsigned Unknowns = countUnknowns(PolyDeg, ExpDeg);
  if (Unknowns > MaxUnknowns) {
    NumTooLarge.bump();
    return std::nullopt;
  }

  // First Unknowns values of X, plus one more to verify the basis guess.
  std::vector<Affine> Values;
  Values.reserve(Unknowns + 1);
  Values.push_back(Init);
  for (unsigned H = 0; H < Unknowns; ++H)
    Values.push_back(Values.back() * A + B.evaluateAt(H));

  return fitExpPoly(PolyDeg, ExpDeg, Values, 1);
}

std::vector<std::optional<ClosedForm>>
solveLinearSystemImpl(const RatMatrix &M, const std::vector<ClosedForm> &B,
                      const std::vector<Affine> &Init) {
  const unsigned P = M.rows();
  assert(M.cols() == P && B.size() == P && Init.size() == P &&
         "malformed system");
  std::vector<std::optional<ClosedForm>> Out(P);
  if (P == 0 || P > MaxSystemSize)
    return Out;
  if (P == 1) {
    Out[0] = solveLinearRecurrence(M.at(0, 0), B[0], Init[0]);
    return Out;
  }
  NumSystems.bump();
  stats::ScopedSpan Span(SolverPhase);

  // Characteristic polynomial of M via Faddeev-LeVerrier, exact over the
  // rationals: char(x) = x^P + C[1]*x^(P-1) + ... + C[P].
  std::vector<Rational> C(P + 1);
  C[0] = Rational(1);
  RatMatrix N = RatMatrix::identity(P);
  for (unsigned K = 1; K <= P; ++K) {
    const RatMatrix MN = M * N;
    Rational Tr;
    for (unsigned I = 0; I < P; ++I)
      Tr = Tr + MN.at(I, I);
    C[K] = -(Tr / Rational(int64_t(K)));
    N = MN;
    for (unsigned I = 0; I < P; ++I)
      N.at(I, I) = N.at(I, I) + C[K];
  }

  // Representable solutions need every eigenvalue to be a nonzero integer.
  // Then the monic characteristic polynomial has integer coefficients and
  // every root divides the constant term, so deflate by each candidate
  // divisor (synthetic division over the rationals, counting multiplicity),
  // ascending and +D before -D.  The divisors come from the factorisation of
  // the constant, so the search costs at most 2 * 103,680 candidates
  // whatever the coefficients' size.
  for (unsigned K = 1; K <= P; ++K)
    if (!C[K].isInteger()) {
      NumBadEigen.bump();
      return Out;
    }
  const int64_t Const = C[P].getInteger();
  if (Const == 0) {
    // Zero eigenvalue: the system has a finite memory component, which the
    // classifier models as wrap-around, not as a closed form.
    NumBadEigen.bump();
    return Out;
  }
  // The magnitude is taken unsigned, so no int64 negation is involved.
  // The last trace above, -P * Const, fit int64, so every divisor does too.
  const uint64_t AbsC = Const < 0 ? 0 - uint64_t(Const) : uint64_t(Const);
  assert(AbsC <= (uint64_t(1) << 63) / P && "trace -P * Const overflowed");

  std::vector<Rational> Poly(C); // highest power first, Poly[0] == 1
  std::map<int64_t, unsigned> Mult;
  for (uint64_t D : positiveDivisors(AbsC))
    for (int64_t Sign : {int64_t(1), int64_t(-1)}) {
      const int64_t Root = Sign * int64_t(D);
      const Rational R(Root);
      while (Poly.size() > 1) {
        // Synthetic division by (x - R): Horner accumulators are the
        // quotient coefficients, the final one the remainder.
        std::vector<Rational> Q;
        Rational Acc;
        for (const Rational &Co : Poly) {
          Acc = Acc * R + Co;
          Q.push_back(Acc);
        }
        if (!Q.back().isZero())
          break;
        Q.pop_back();
        Poly = std::move(Q);
        ++Mult[Root];
      }
    }
  if (Poly.size() > 1) {
    // Residual factor with no integer roots: irrational or complex
    // eigenvalues, outside the representable space.
    NumBadEigen.bump();
    return Out;
  }

  // Basis shape.  Coupling mixes every component's forcing into every
  // solution, so take the max forcing shape across components; eigenvalue 1
  // with multiplicity m raises the polynomial degree by m, any other
  // eigenvalue b raises the coefficient degree of b^h by its multiplicity
  // (repeated roots and resonance both land in the h^j * b^h columns).
  unsigned FPoly = 0;
  std::map<int64_t, unsigned> ExpDeg;
  for (const ClosedForm &Bi : B) {
    FPoly = std::max(FPoly, Bi.degree());
    for (const auto &[Base, Coeff] : Bi.geoTerms()) {
      unsigned &D = ExpDeg[Base];
      D = std::max(D, unsigned(Coeff.size() - 1));
    }
  }
  auto MultOneIt = Mult.find(1);
  const unsigned MultOne = MultOneIt == Mult.end() ? 0 : MultOneIt->second;
  if (MultOneIt != Mult.end())
    Mult.erase(MultOneIt);
  const unsigned PolyDeg = FPoly + MultOne;
  for (const auto &[R, MuR] : Mult)
    ExpDeg[R] += MuR; // creates the entry for eigenvalue-only bases

  const unsigned Unknowns = countUnknowns(PolyDeg, ExpDeg);
  if (Unknowns > MaxUnknowns) {
    NumTooLarge.bump();
    return Out;
  }

  // Symbolic iterates of the whole vector; two verification iterates per
  // component (systems have more ways to alias on few points than the
  // scalar solve).
  const unsigned Verify = 2;
  std::vector<std::vector<Affine>> Vals(P);
  for (unsigned I = 0; I < P; ++I) {
    Vals[I].reserve(Unknowns + Verify);
    Vals[I].push_back(Init[I]);
  }
  std::vector<Affine> Cur = Init;
  for (unsigned H = 0; H + 1 < Unknowns + Verify; ++H) {
    std::vector<Affine> Next(P);
    for (unsigned I = 0; I < P; ++I) {
      Affine S = B[I].evaluateAt(H);
      for (unsigned J = 0; J < P; ++J)
        S += Cur[J] * M.at(I, J);
      Next[I] = S;
      Vals[I].push_back(Next[I]);
    }
    Cur = std::move(Next);
  }

  // Per-component fit: a component whose solution leaves the space (or
  // overflows) simply stays nullopt -- that is the partial-solve result the
  // classifier projects out.
  for (unsigned I = 0; I < P; ++I)
    try {
      Out[I] = fitExpPoly(PolyDeg, ExpDeg, Vals[I], Verify);
    } catch (const RationalOverflow &) {
      NumOverflows.bump();
    }
  return Out;
}

} // namespace

std::optional<ClosedForm>
biv::ivclass::solveLinearRecurrence(const Rational &A, const ClosedForm &B,
                                    const Affine &Init) {
  try {
    return solveLinearRecurrenceImpl(A, B, Init);
  } catch (const RationalOverflow &) {
    NumOverflows.bump();
    return std::nullopt;
  }
}

std::vector<std::optional<ClosedForm>>
biv::ivclass::solveLinearSystem(const RatMatrix &M,
                                const std::vector<ClosedForm> &B,
                                const std::vector<Affine> &Init) {
  try {
    return solveLinearSystemImpl(M, B, Init);
  } catch (const RationalOverflow &) {
    NumOverflows.bump();
    return std::vector<std::optional<ClosedForm>>(M.rows());
  }
}
