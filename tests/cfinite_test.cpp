//===- tests/cfinite_test.cpp - C-finite recurrence lattice extension ---------===//
//
// Coverage for the extension beyond the paper's fixed shapes: scalar
// recurrences x' = c*x + p(h) with exponential-polynomial solutions
// (including the resonant h*c^h case), coupled constant-coefficient
// systems over RatMatrix, graceful rejection of unrepresentable spectra,
// RationalOverflow degradation to "no claim", and partial closed forms
// projected out of unsolvable regions.  Every claimed form is re-verified
// value-by-value against either direct iteration or the interpreter.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "fuzz/Oracle.h"
#include "ivclass/RecurrenceSolver.h"
#include "support/Stats.h"
#include <gtest/gtest.h>

using namespace biv;
using namespace biv::ivclass;
using namespace biv::testutil;

//===----------------------------------------------------------------------===//
// Scalar solver: x(h+1) = A*x(h) + B(h)
//===----------------------------------------------------------------------===//

TEST(CFiniteSolverTest, GeometricWithQuadraticForcing) {
  // x' = 2x + h^2, x(0) = 1: mixes a 2^h carry with a polynomial drive.
  ClosedForm B = ClosedForm::make({Affine(0), Affine(0), Affine(1)});
  std::optional<ClosedForm> F =
      solveLinearRecurrence(Rational(2), B, Affine(1));
  ASSERT_TRUE(F.has_value());
  EXPECT_TRUE(F->hasExponential());
  EXPECT_FALSE(F->hasPolyExponential()); // no resonance: constant 2^h coeff
  int64_t X = 1;
  for (int64_t H = 0; H <= 14; ++H) {
    EXPECT_EQ(F->evaluateAt(unsigned(H)), Affine(X)) << "h=" << H;
    X = 2 * X + H * H;
  }
}

TEST(CFiniteSolverTest, ResonantForcingNeedsPolynomialCoefficient) {
  // x' = 3x + h*3^h: the forcing sits on the eigenvalue, so the solution
  // escalates to an h^2*3^h term -- outside the paper's lattice.
  ClosedForm B = ClosedForm::makeExp({}, {{3, {Affine(0), Affine(1)}}});
  std::optional<ClosedForm> F =
      solveLinearRecurrence(Rational(3), B, Affine(1));
  ASSERT_TRUE(F.has_value());
  EXPECT_TRUE(F->hasPolyExponential());
  EXPECT_NE(F->geoCoeff(3, 2), Affine(0));
  int64_t X = 1, Pow3 = 1;
  for (int64_t H = 0; H <= 10; ++H) {
    EXPECT_EQ(F->evaluateAt(unsigned(H)), Affine(X)) << "h=" << H;
    X = 3 * X + H * Pow3;
    Pow3 *= 3;
  }
}

TEST(CFiniteSolverTest, AccumulatorGainsOneDegree) {
  // A == 1 control: x' = x + h is the classic triangular sum.
  ClosedForm B = ClosedForm::linear(Affine(0), Affine(1));
  std::optional<ClosedForm> F =
      solveLinearRecurrence(Rational(1), B, Affine(5));
  ASSERT_TRUE(F.has_value());
  EXPECT_TRUE(F->isPolynomial());
  EXPECT_EQ(F->degree(), 2u);
  int64_t X = 5;
  for (int64_t H = 0; H <= 12; ++H) {
    EXPECT_EQ(F->evaluateAt(unsigned(H)), Affine(X)) << "h=" << H;
    X = X + H;
  }
}

TEST(CFiniteSolverTest, ZeroCoefficientIsAShiftedForcing) {
  // x' = 0*x + (5 + h): x(h) = 4 + h for h >= 1.  The full closed form
  // exists only when the initial value happens to sit on that line; any
  // other init must be refused (the caller then models it as wrap-around).
  ClosedForm B = ClosedForm::linear(Affine(5), Affine(1));
  std::optional<ClosedForm> OnLine =
      solveLinearRecurrence(Rational(0), B, Affine(4));
  ASSERT_TRUE(OnLine.has_value());
  EXPECT_EQ(*OnLine, ClosedForm::linear(Affine(4), Affine(1)));
  EXPECT_FALSE(
      solveLinearRecurrence(Rational(0), B, Affine(99)).has_value());
}

TEST(CFiniteSolverTest, NonIntegerCoefficientRejected) {
  EXPECT_FALSE(solveLinearRecurrence(Rational(1, 2), ClosedForm(), Affine(8))
                   .has_value());
}

TEST(CFiniteSolverTest, TooManyUnknownsRejected) {
  // Degree-16 forcing next to a geometric carry needs 18 basis functions;
  // the solver's cap (16) must refuse rather than build a huge system.
  std::vector<Affine> Poly(17, Affine(0));
  Poly[16] = Affine(1);
  ClosedForm B = ClosedForm::make(std::move(Poly));
  EXPECT_FALSE(
      solveLinearRecurrence(Rational(2), B, Affine(0)).has_value());
}

TEST(CFiniteSolverTest, RationalOverflowDegradesToNullopt) {
  // Iterates of x' = 10^9 * x blow through 64-bit rationals within two
  // steps; the wrapper must swallow RationalOverflow and return nullopt
  // instead of propagating or fabricating a form.
  EXPECT_FALSE(solveLinearRecurrence(Rational(1000000000), ClosedForm(),
                                     Affine(1000000000))
                   .has_value());
}

//===----------------------------------------------------------------------===//
// Coupled systems: X(h+1) = M*X(h) + B(h)
//===----------------------------------------------------------------------===//

namespace {

/// Iterates the system numerically and checks every component's claimed
/// form at h = 0..Steps.
void expectSystemMatchesIteration(
    const RatMatrix &M, const std::vector<int64_t> &Forcing0,
    const std::vector<int64_t> &ForcingH, std::vector<int64_t> X,
    const std::vector<std::optional<ClosedForm>> &Sol, unsigned Steps) {
  const size_t K = X.size();
  for (unsigned H = 0; H <= Steps; ++H) {
    for (size_t I = 0; I < K; ++I)
      if (Sol[I]) {
        EXPECT_EQ(Sol[I]->evaluateAt(H), Affine(X[I]))
            << "component " << I << " at h=" << H;
      }
    std::vector<int64_t> Next(K, 0);
    for (size_t I = 0; I < K; ++I) {
      Rational Acc;
      for (size_t J = 0; J < K; ++J)
        Acc += M.at(unsigned(I), unsigned(J)) * Rational(X[J]);
      ASSERT_TRUE(Acc.isInteger());
      Next[I] = Acc.getInteger() + Forcing0[I] + ForcingH[I] * int64_t(H);
    }
    X = std::move(Next);
  }
}

} // namespace

TEST(CFiniteSystemTest, CoupledEigenThreeMinusOne) {
  // u' = u + 2v, v' = 2u + v + h: eigenvalues {3, -1} plus a linear
  // particular term from the forcing.
  RatMatrix M(2, 2);
  M.at(0, 0) = Rational(1);
  M.at(0, 1) = Rational(2);
  M.at(1, 0) = Rational(2);
  M.at(1, 1) = Rational(1);
  std::vector<ClosedForm> B = {ClosedForm(),
                               ClosedForm::linear(Affine(0), Affine(1))};
  auto Sol = solveLinearSystem(M, B, {Affine(1), Affine(0)});
  ASSERT_EQ(Sol.size(), 2u);
  ASSERT_TRUE(Sol[0].has_value());
  ASSERT_TRUE(Sol[1].has_value());
  EXPECT_NE(Sol[0]->geoCoeff(3), Affine(0));
  EXPECT_NE(Sol[0]->geoCoeff(-1), Affine(0));
  expectSystemMatchesIteration(M, {0, 0}, {0, 1}, {1, 0}, Sol, 10);
}

TEST(CFiniteSystemTest, RepeatedEigenvalueEscalates) {
  // Jordan-style pair x0' = 2x0 + x1, x1' = 2x1: the repeated eigenvalue
  // 2 forces an h*2^h term in x0.
  RatMatrix M(2, 2);
  M.at(0, 0) = Rational(2);
  M.at(0, 1) = Rational(1);
  M.at(1, 1) = Rational(2);
  auto Sol = solveLinearSystem(M, {ClosedForm(), ClosedForm()},
                               {Affine(1), Affine(1)});
  ASSERT_EQ(Sol.size(), 2u);
  ASSERT_TRUE(Sol[0].has_value());
  ASSERT_TRUE(Sol[1].has_value());
  EXPECT_TRUE(Sol[0]->hasPolyExponential());
  expectSystemMatchesIteration(M, {0, 0}, {0, 0}, {1, 1}, Sol, 12);
}

TEST(CFiniteSystemTest, IrrationalSpectrumRejected) {
  // Fibonacci companion matrix: eigenvalues (1 +- sqrt(5))/2 are not
  // integers, so no component is representable.
  RatMatrix M(2, 2);
  M.at(0, 0) = Rational(1);
  M.at(0, 1) = Rational(1);
  M.at(1, 0) = Rational(1);
  auto Sol = solveLinearSystem(M, {ClosedForm(), ClosedForm()},
                               {Affine(1), Affine(0)});
  ASSERT_EQ(Sol.size(), 2u);
  EXPECT_FALSE(Sol[0].has_value());
  EXPECT_FALSE(Sol[1].has_value());
}

TEST(CFiniteSystemTest, ZeroEigenvalueRejected) {
  // Nilpotent shift: characteristic polynomial h^2 has the zero root the
  // exponential-polynomial basis cannot express (0^h at h=0).
  RatMatrix M(2, 2);
  M.at(0, 1) = Rational(1);
  auto Sol = solveLinearSystem(M, {ClosedForm(), ClosedForm()},
                               {Affine(5), Affine(7)});
  ASSERT_EQ(Sol.size(), 2u);
  EXPECT_FALSE(Sol[0].has_value());
  EXPECT_FALSE(Sol[1].has_value());
}

TEST(CFiniteSystemTest, OversizeSystemRejected) {
  RatMatrix M = RatMatrix::identity(5);
  auto Sol = solveLinearSystem(
      M, std::vector<ClosedForm>(5),
      std::vector<Affine>(5, Affine(1)));
  ASSERT_EQ(Sol.size(), 5u);
  for (const auto &S : Sol)
    EXPECT_FALSE(S.has_value());
}

namespace {

/// Solves the unforced 2x2 system \p M from X(0) = (1, 1) and expects the
/// overflow outcome: both components unsolved, after exactly one counted
/// and timed coupled solve.
void expectOneOverflowingSolve(const RatMatrix &M) {
  const stats::Counter Systems("ivclass.solver.system");
  const stats::Counter Overflows("ivclass.solver.overflow");
  const stats::Timer Solver("phase.solver");
  const stats::Frame Before = stats::captureFrame();
  auto Sol = solveLinearSystem(M, {ClosedForm(), ClosedForm()},
                               {Affine(1), Affine(1)});
  const stats::Frame D = stats::captureFrame() - Before;
  ASSERT_EQ(Sol.size(), 2u);
  EXPECT_FALSE(Sol[0].has_value());
  EXPECT_FALSE(Sol[1].has_value());
  EXPECT_EQ(D.Counters[Systems.index()], 1u);
  EXPECT_EQ(D.Counters[Overflows.index()], 1u);
  EXPECT_EQ(D.Timers[Solver.index()].Spans, 1u);
}

} // namespace

TEST(CFiniteSystemTest, LargeConstantTermOverflowsInRootSearch) {
  // u' = 1000000007u + v, v' = 998244353v + u: irrational eigenvalues, so
  // the scan runs on until a candidate past ~4e9 overflows Horner.  Trial
  // division to the square root of the constant term (~10^18) needed
  // seconds to get there; the factorised divisor list must reach the same
  // overflow.
  RatMatrix M(2, 2);
  M.at(0, 0) = Rational(1000000007);
  M.at(0, 1) = Rational(1);
  M.at(1, 0) = Rational(1);
  M.at(1, 1) = Rational(998244353);
  expectOneOverflowingSolve(M);
}

TEST(CFiniteSystemTest, MostDivisorsConstantTermOverflowsInIterates) {
  // Eigenvalues 947341710 and 947506560, whose product 897612484786617600
  // has 103,680 divisors: the roots deflate cleanly and the iterates
  // overflow instead.
  RatMatrix M(2, 2);
  M.at(0, 0) = Rational(947341710);
  M.at(0, 1) = Rational(1);
  M.at(1, 1) = Rational(947506560);
  expectOneOverflowingSolve(M);
}

TEST(CFiniteSystemTest, Int64MinConstantTermOverflowsFirst) {
  // det [[0, 2^32], [2^31, 0]] = INT64_MIN would be the constant term, but
  // Faddeev-LeVerrier's last product M*N = 2^63 * I overflows first, so the
  // root search never has to negate INT64_MIN.
  RatMatrix M(2, 2);
  M.at(0, 1) = Rational(int64_t(1) << 32);
  M.at(1, 0) = Rational(int64_t(1) << 31);
  expectOneOverflowingSolve(M);
}

//===----------------------------------------------------------------------===//
// Full pipeline: classification + interpreter cross-check
//===----------------------------------------------------------------------===//

TEST(CFinitePipelineTest, MixedUpdateMatchesExecution) {
  Analyzed A = analyze("func f(n) {\n"
                       " x = 1;\n"
                       " for L1: i = 0 to n {\n"
                       " x = 2*x + i^2;\n"
                       " }\n"
                       " return x;\n"
                       "}");
  const ivclass::Classification &C = A.cls("L1", "x");
  ASSERT_TRUE(C.hasClosedForm());
  EXPECT_EQ(C.Kind, ivclass::IVKind::Geometric);
  interp::ExecutionTrace T = interp::run(*A.F, {10});
  expectFormMatchesTrace(C, A.phi("L1", "x"), T);
}

TEST(CFinitePipelineTest, ResonantPairIsCFiniteKind) {
  Analyzed A = analyze("func f(n) {\n"
                       " c0 = 1;\n"
                       " c1 = 0;\n"
                       " for L1: i = 0 to n {\n"
                       " c0 = c0 * 2;\n"
                       " c1 = 2*c1 + c0;\n"
                       " }\n"
                       " return c1;\n"
                       "}");
  const ivclass::Classification &C = A.cls("L1", "c1");
  ASSERT_TRUE(C.hasClosedForm());
  EXPECT_EQ(C.Kind, ivclass::IVKind::CFinite);
  EXPECT_TRUE(C.Form.hasPolyExponential());
  EXPECT_EQ(A.tuple("L1", "c1"), "(L1, h*2^h)");
  interp::ExecutionTrace T = interp::run(*A.F, {12});
  expectFormMatchesTrace(C, A.phi("L1", "c1"), T);
}

TEST(CFinitePipelineTest, CoupledSystemMatchesExecution) {
  Analyzed A = analyze("func f(n) {\n"
                       " u = 1;\n"
                       " v = 0;\n"
                       " for L1: i = 0 to n {\n"
                       " t = u + 2*v;\n"
                       " v = 2*u + v + i;\n"
                       " u = t;\n"
                       " }\n"
                       " return u + v;\n"
                       "}");
  interp::ExecutionTrace T = interp::run(*A.F, {8});
  for (const char *Var : {"u", "v"}) {
    const ivclass::Classification &C = A.cls("L1", Var);
    ASSERT_TRUE(C.hasClosedForm()) << Var;
    EXPECT_FALSE(C.Partial) << Var;
    expectFormMatchesTrace(C, A.phi("L1", Var), T);
  }
}

TEST(CFinitePipelineTest, NonLinearCoupledUpdateFormsNoSystem) {
  // The linear u/v pair forms one system; u*v reads two header phis at
  // once, so that update is not linear in them, no system is formed, and
  // the region stays unknown.
  const stats::Counter Systems("ivclass.system_regions");
  auto systemsIn = [&](const char *Src) {
    const stats::Frame Before = stats::captureFrame();
    Analyzed A = analyze(Src);
    const stats::Frame D = stats::captureFrame() - Before;
    return std::make_pair(std::move(A), D.Counters[Systems.index()]);
  };
  auto [Linear, LinearSystems] = systemsIn("func f(n) {\n"
                                           " u = 1;\n"
                                           " v = 2;\n"
                                           " for L1: i = 0 to n {\n"
                                           " w = u + 2*v;\n"
                                           " v = 2*u + v;\n"
                                           " u = w;\n"
                                           " }\n"
                                           " return u + v;\n"
                                           "}");
  EXPECT_EQ(LinearSystems, 1u);
  EXPECT_TRUE(Linear.cls("L1", "u").hasClosedForm());
  auto [Product, ProductSystems] = systemsIn("func f(n) {\n"
                                             " u = 1;\n"
                                             " v = 2;\n"
                                             " for L1: i = 0 to n {\n"
                                             " w = u*v + 1;\n"
                                             " v = u + v;\n"
                                             " u = w;\n"
                                             " }\n"
                                             " return u + v;\n"
                                             "}");
  EXPECT_EQ(ProductSystems, 0u);
  for (const char *Var : {"u", "v"})
    EXPECT_TRUE(Product.cls("L1", Var).isUnknown()) << Var;
}

TEST(CFinitePipelineTest, RotationPastMaxSystemSizeStaysUnknown) {
  // Five header phis rotate with an increment on the way: not a pure ring
  // (section 4.2) because of the add, and one phi more than the largest
  // system the solver takes.
  static_assert(MaxSystemSize == 4, "the rotation below has five phis");
  Analyzed A = analyze("func f(n) {\n"
                       " a = 1;\n"
                       " b = 2;\n"
                       " c = 3;\n"
                       " d = 4;\n"
                       " e = 5;\n"
                       " for L1: i = 0 to n {\n"
                       " t = a + 1;\n"
                       " a = b;\n"
                       " b = c;\n"
                       " c = d;\n"
                       " d = e;\n"
                       " e = t;\n"
                       " }\n"
                       " return a + e;\n"
                       "}");
  for (const char *Var : {"a", "b", "c", "d", "e"})
    EXPECT_TRUE(A.cls("L1", Var).isUnknown()) << Var;
}

TEST(CFinitePipelineTest, UnsolvableSCCProjectsPartialMembers) {
  Analyzed A = analyze("func f(n) {\n"
                       " px = 1;\n"
                       " ps = 0;\n"
                       " for L1: i = 0 to n {\n"
                       " pt = px + i;\n"
                       " pm = pt - px;\n"
                       " px = px * px + pm;\n"
                       " ps = ps + pm;\n"
                       " }\n"
                       " return ps;\n"
                       "}");
  // px itself stays unsolved...
  EXPECT_FALSE(A.cls("L1", "px").hasClosedForm());
  // ...but its member pm projects out exactly (partial, order-1 wrap), and
  // the downstream sum unlocks as a plain exact polynomial.
  EXPECT_EQ(A.tuple("L1", "pm"),
            "wrap-around(L1, order 1, partial (L1, 0, 1))");
  const ivclass::Classification &PS = A.cls("L1", "ps");
  ASSERT_TRUE(PS.hasClosedForm());
  EXPECT_FALSE(PS.Partial);
  EXPECT_EQ(PS.Kind, ivclass::IVKind::Polynomial);
  interp::ExecutionTrace T = interp::run(*A.F, {6});
  expectFormMatchesTrace(PS, A.phi("L1", "ps"), T);
}

TEST(CFinitePipelineTest, OverflowingSolveDegradesToUnknown) {
  // 10^9 growth overflows the solver's rational iterates; the variable
  // must end up with no closed-form claim (monotonic at best), never a
  // wrong form and never a crash.
  Analyzed A = analyze("func f(n) {\n"
                       " x = 1000000000;\n"
                       " for L1: i = 0 to n {\n"
                       " x = 1000000000*x + 1;\n"
                       " }\n"
                       " return x;\n"
                       "}");
  EXPECT_FALSE(A.cls("L1", "x").hasClosedForm());
}

//===----------------------------------------------------------------------===//
// Oracle under int64 wrap
//===----------------------------------------------------------------------===//

TEST(CFiniteOracleTest, WrappingExecutionSkipsClaimsCleanly) {
  // At n = 80 the 2^h terms wrap int64 during execution and overflow the
  // solver's rationals during claim evaluation; both paths must degrade to
  // "claim not checked" -- zero mismatches -- rather than comparing a
  // wrapped trace against a mathematical form.
  const char *Src = "func f(n) {\n"
                    " c0 = 1;\n"
                    " c1 = 0;\n"
                    " for L1: i = 0 to n {\n"
                    " c0 = c0 * 2;\n"
                    " c1 = 2*c1 + c0;\n"
                    " }\n"
                    " return c1;\n"
                    "}";
  for (int64_t N : {10, 40, 80}) {
    fuzz::OracleOptions OO;
    OO.Args = {N};
    fuzz::OracleResult R = fuzz::checkProgram(Src, OO);
    EXPECT_TRUE(R.ParseOK);
    for (const fuzz::Mismatch &M : R.Mismatches)
      ADD_FAILURE() << "n=" << N << ": " << M.str();
    if (N == 10) {
      EXPECT_GT(R.Checks.CFinite, 0u); // small n: claims actually checked
    }
  }
}
