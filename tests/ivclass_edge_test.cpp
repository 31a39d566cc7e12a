//===- tests/ivclass_edge_test.cpp - Classifier edge cases --------------------===//
//
// Situations around the boundaries of the classification lattice: negative
// and zero steps, negative geometric bases, unknown-producing operations,
// wrapped specials, report plumbing, and option behaviour.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "ivclass/Pipeline.h"
#include "ivclass/Report.h"

using namespace biv;
using namespace biv::testutil;
using ivclass::Classification;
using ivclass::IVKind;
using ivclass::MonotoneDir;

TEST(IVEdgeTest, NegativeStep) {
  Analyzed A = analyze("func f(n) {"
                       "  for L: i = n downto 1 { A[i] = i; }"
                       "  return 0;"
                       "}");
  const Classification &I = A.cls("L", "i");
  ASSERT_EQ(I.Kind, IVKind::Linear);
  EXPECT_EQ(I.Form.coeff(1), Affine(-1));
  EXPECT_EQ(I.Form.coeff(0), Affine::symbol(A.F->findArgument("n")));
}

TEST(IVEdgeTest, ZeroStepIsInvariant) {
  // x = x + 1 - 1 is an invariant recurrence: the steps cancel.  (With
  // SCCP enabled the whole variable constant-folds away instead, which is
  // equally correct; here we exercise the classifier's own path.)
  Analyzed A = analyze("func f(n) {"
                       "  x = 7;"
                       "  for L: i = 1 to n { x = x + 1 - 1; }"
                       "  return x;"
                       "}");
  const Classification &X = A.cls("L", "x");
  EXPECT_TRUE(X.isInvariant());
  EXPECT_EQ(X.Form.initialValue(), Affine(7));
}

TEST(IVEdgeTest, NegativeGeometricBase) {
  // x = -2*x: base -2 alternates sign; exact closed form.
  Analyzed A = analyze("func f(n) {"
                       "  x = 3;"
                       "  for L: i = 1 to n { x = 0 - 2 * x; }"
                       "  return x;"
                       "}");
  const Classification &X = A.cls("L", "x");
  ASSERT_EQ(X.Kind, IVKind::Geometric);
  auto It = X.Form.geoTerms().find(-2);
  ASSERT_TRUE(It != X.Form.geoTerms().end());
  EXPECT_EQ(X.Form.geoCoeff(-2), Affine(3));
  interp::ExecutionTrace T = interp::run(*A.F, {10});
  ASSERT_TRUE(T.ok());
  expectFormMatchesTrace(X, A.phi("L", "x"), T);
}

TEST(IVEdgeTest, DivisionBreaksClassification) {
  Analyzed A = analyze("func f(n) {"
                       "  x = 1000;"
                       "  for L: i = 1 to n { x = x / 2; }"
                       "  return x;"
                       "}");
  // Integer halving is not representable: must degrade, not mis-classify.
  const Classification &X = A.cls("L", "x");
  EXPECT_FALSE(X.hasClosedForm());
}

TEST(IVEdgeTest, DataDependentUpdateIsUnknown) {
  Analyzed A = analyze("func f(n) {"
                       "  x = 0;"
                       "  for L: i = 1 to n { x = x + A[i]; }"
                       "  return x;"
                       "}");
  EXPECT_EQ(A.cls("L", "x").Kind, IVKind::Unknown);
}

TEST(IVEdgeTest, MonotonicWithPolynomialIncrement) {
  // Conditionally adding the (positive) counter: still monotonic.
  Analyzed A = analyze("func f(n) {"
                       "  x = 0;"
                       "  for L: i = 1 to n {"
                       "    if (A[i] > 0) { x = x + i; }"
                       "  }"
                       "  return x;"
                       "}");
  const Classification &X = A.cls("L", "x");
  ASSERT_EQ(X.Kind, IVKind::Monotonic);
  EXPECT_EQ(X.Dir, MonotoneDir::Increasing);
  EXPECT_FALSE(X.Strict);
}

TEST(IVEdgeTest, OppositeSignIncrementsUnknown) {
  Analyzed A = analyze("func f(n) {"
                       "  x = 0;"
                       "  for L: i = 1 to n {"
                       "    if (A[i] > 0) { x = x + 1; } else { x = x - 1; }"
                       "  }"
                       "  return x;"
                       "}");
  EXPECT_EQ(A.cls("L", "x").Kind, IVKind::Unknown);
}

TEST(IVEdgeTest, WrapAroundOfMonotonic) {
  // prev trails a monotonic variable: wrap-around with monotonic inner.
  Analyzed A = analyze("func f(n) {"
                       "  k = 0; prev = 99;"
                       "  for L: i = 1 to n {"
                       "    A[prev] = i;"
                       "    prev = k;"
                       "    if (B[i] > 0) { k = k + 1; }"
                       "  }"
                       "  return k;"
                       "}");
  const Classification &P = A.cls("L", "prev");
  ASSERT_EQ(P.Kind, IVKind::WrapAround);
  ASSERT_TRUE(P.Inner);
  EXPECT_EQ(P.Inner->Kind, IVKind::Monotonic);
}

TEST(IVEdgeTest, PeriodicWithSymbolicInits) {
  // Rotation of argument values: still a periodic family (ring symbolic).
  Analyzed A = analyze("func f(n, a, b) {"
                       "  p = a; q = b; t = 0;"
                       "  for L: i = 1 to n {"
                       "    t = p; p = q; q = t;"
                       "  }"
                       "  return p;"
                       "}");
  const Classification &P = A.cls("L", "p");
  ASSERT_EQ(P.Kind, IVKind::Periodic);
  EXPECT_EQ(P.Period, 2u);
  // Ring entries are the (symbolic) arguments.
  EXPECT_FALSE(P.RingInits[0].isConstant());
}

TEST(IVEdgeTest, InfiniteLoopHasUnknownTripCount) {
  // A loop whose only exit is the function return inside it... our language
  // has no such construct; a counter-free `loop` with an unreachable break
  // condition reports Infinite.
  Analyzed A = analyze("func f() {"
                       "  x = 1;"
                       "  loop L {"
                       "    x = x + 1;"
                       "    if (x < 0) break;" // never (x grows)
                       "  }"
                       "  return x;"
                       "}");
  EXPECT_EQ(A.IA->tripCount(A.loop("L")).K,
            ivclass::TripCountInfo::Kind::Infinite);
}

TEST(IVEdgeTest, EqualityExitLoop) {
  // stay while i != n: countable when the step divides the distance.
  Analyzed A = analyze("func f() {"
                       "  i = 0;"
                       "  loop L {"
                       "    i = i + 2;"
                       "    if (i == 10) break;"
                       "  }"
                       "  return i;"
                       "}");
  const ivclass::TripCountInfo &TC = A.IA->tripCount(A.loop("L"));
  ASSERT_EQ(TC.K, ivclass::TripCountInfo::Kind::Finite);
  EXPECT_EQ(TC.Count, Affine(4)); // stays at h=0..3, exits when i==10
  interp::ExecutionTrace T = interp::run(*A.F, {});
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T.ReturnValue, 10);
}

TEST(IVEdgeTest, EqualityExitNonDivisibleIsInfinite) {
  Analyzed A = analyze("func f() {"
                       "  i = 0;"
                       "  loop L {"
                       "    i = i + 2;"
                       "    if (i == 9) break;" // parity never matches
                       "    if (i > 100) break;"
                       "  }"
                       "  return i;"
                       "}");
  // Multi-exit: the equality exit never fires; only a max trip count.
  const ivclass::TripCountInfo &TC = A.IA->tripCount(A.loop("L"));
  EXPECT_TRUE(TC.K == ivclass::TripCountInfo::Kind::Unknown ||
              TC.K == ivclass::TripCountInfo::Kind::Finite);
  interp::ExecutionTrace T = interp::run(*A.F, {});
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T.ReturnValue, 102);
}

TEST(IVEdgeTest, ReportAndCountsPlumbing) {
  ivclass::AnalyzedProgram P = ivclass::analyzeSourceOrDie(
      "func f(n) {"
      "  j = 1; w = 9; m = 0; p = 1; q = 2; t = 0;"
      "  for L: i = 1 to n {"
      "    j = j + i;"
      "    t = p; p = q; q = t;"
      "    if (A[i] > 0) { m = m + 1; }"
      "    w = i;"
      "  }"
      "  return m;"
      "}");
  ivclass::KindCounts KC = ivclass::countHeaderPhiKinds(*P.IA);
  EXPECT_EQ(KC.Linear, 1u);     // i
  EXPECT_EQ(KC.Polynomial, 1u); // j
  EXPECT_EQ(KC.Periodic, 2u);   // p, q
  EXPECT_EQ(KC.Monotonic, 1u);  // m
  EXPECT_GE(KC.WrapAround, 2u); // w, t
  EXPECT_EQ(KC.Unknown, 0u);
  std::string Rep = ivclass::report(*P.IA, &P.Info);
  EXPECT_NE(Rep.find("periodic"), std::string::npos);
  EXPECT_NE(Rep.find("monotonic"), std::string::npos);
  EXPECT_NE(Rep.find("trip count"), std::string::npos);
  // All-values mode renders strictly more lines.
  ivclass::ReportOptions RO;
  RO.AllValues = true;
  EXPECT_GT(ivclass::report(*P.IA, &P.Info, RO).size(), Rep.size());
}

TEST(IVEdgeTest, PipelineErrorPath) {
  std::vector<std::string> Errors;
  EXPECT_FALSE(
      ivclass::analyzeSource("func broken( {", Errors).has_value());
  EXPECT_FALSE(Errors.empty());
}

TEST(IVEdgeTest, WhileLoopCountsAsIV) {
  Analyzed A = analyze("func f(n) {"
                       "  x = 0;"
                       "  while W: (x < n) { x = x + 3; }"
                       "  return x;"
                       "}");
  const Classification &X = A.cls("W", "x");
  ASSERT_EQ(X.Kind, IVKind::Linear);
  EXPECT_EQ(X.Form.coeff(0), Affine(0));
  EXPECT_EQ(X.Form.coeff(1), Affine(3));
}

TEST(IVEdgeTest, SelfCancellingSwapIsPeriodicPeriod2) {
  // A 2-cycle with equal inits: still periodic structurally; the
  // dependence layer (not the classifier) refuses to exploit it.
  Analyzed A = analyze("func f(n) {"
                       "  p = 5; q = 5; t = 0;"
                       "  for L: i = 1 to n { t = p; p = q; q = t; }"
                       "  return p;"
                       "}");
  const Classification &P = A.cls("L", "p");
  ASSERT_EQ(P.Kind, IVKind::Periodic);
  EXPECT_EQ(P.RingInits[0], P.RingInits[1]);
}

TEST(IVEdgeTest, StrNestedDepthCap) {
  // Depth-limited nested printing terminates on deep chains.
  Analyzed A = analyze("func deep(n) {"
                       "  k = 0;"
                       "  for L1: a = 1 to 2 {"
                       "    for L2: b = 1 to 2 {"
                       "      for L3: c = 1 to 2 {"
                       "        for L4: d = 1 to 2 {"
                       "          for L5: e = 1 to 2 { k = k + 1; }"
                       "        }"
                       "      }"
                       "    }"
                       "  }"
                       "  return k;"
                       "}");
  ir::Instruction *K = A.phi("L5", "k");
  ASSERT_NE(K, nullptr);
  std::string S = A.IA->strNested(A.IA->classify(K, A.loop("L5")), 2);
  EXPECT_FALSE(S.empty());
  // With depth 2 the innermost expansion stops at a symbol, not at L1.
  EXPECT_EQ(S.find("(L1"), std::string::npos);
}

TEST(IVEdgeTest, SubtractionOfSameIVCancels) {
  // (i + 5) - i is the invariant 5.
  Analyzed A = analyze("func f(n) {"
                       "  for L: i = 1 to n { A[(i + 5) - i] = i; }"
                       "  return 0;"
                       "}");
  analysis::Loop *L = A.loop("L");
  const ir::Instruction *Store = nullptr;
  for (ir::BasicBlock *BB : L->blocks())
    for (const auto &I : *BB)
      if (I->opcode() == ir::Opcode::ArrayStore)
        Store = I;
  const Classification &C = A.clsOf(Store->operand(1), "L");
  ASSERT_TRUE(C.isInvariant());
  EXPECT_EQ(C.Form.initialValue(), Affine(5));
}

TEST(IVEdgeTest, HighOrderPolynomialSurvivesWideIntermediates) {
  // A degree-7 difference chain with a 1e10 base step: solving its
  // Vandermonde system goes through determinant products past 2^32 and
  // value/coefficient products past 2^63.  The 128-bit-then-reduce rational
  // arithmetic must deliver the exact (fractional-coefficient) closed form;
  // the old 64-bit intermediates silently wrapped here.
  Analyzed A = analyze("func f(n) {"
                       "  x1 = 0; x2 = 0; x3 = 0; x4 = 0;"
                       "  x5 = 0; x6 = 0; x7 = 0;"
                       "  for L: i = 1 to n {"
                       "    x1 = x1 + 10000000000;"
                       "    x2 = x2 + x1;"
                       "    x3 = x3 + x2;"
                       "    x4 = x4 + x3;"
                       "    x5 = x5 + x4;"
                       "    x6 = x6 + x5;"
                       "    x7 = x7 + x6;"
                       "  }"
                       "  return x7;"
                       "}");
  const Classification &X7 = A.cls("L", "x7");
  ASSERT_EQ(X7.Kind, IVKind::Polynomial);
  // Oracle: the closed form must reproduce execution exactly, values up to
  // ~1e14 at n=10.
  interp::ExecutionTrace T = interp::run(*A.F, {10});
  ASSERT_TRUE(T.ok()) << T.Error;
  expectFormMatchesTrace(X7, A.phi("L", "x7"), T);
}

TEST(IVEdgeTest, UnrepresentableCoefficientsDegradeNotWrap) {
  // x accumulates i*i where i steps by 1e10: the squared-step coefficient
  // (1e20) does not fit any int64 rational.  The only sound answers are a
  // weaker class or unknown -- never a wrapped "closed form".  The linear
  // IV itself is unaffected.
  Analyzed A = analyze("func f(n) {"
                       "  x = 0;"
                       "  for L: i = 0 to n by 10000000000 {"
                       "    x = x + i * i;"
                       "  }"
                       "  return x;"
                       "}");
  const Classification &I = A.cls("L", "i");
  ASSERT_EQ(I.Kind, IVKind::Linear);
  EXPECT_EQ(I.Form.coeff(1), Affine(10000000000LL));

  const Classification &X = A.cls("L", "x");
  EXPECT_NE(X.Kind, IVKind::Polynomial);
  EXPECT_FALSE(X.hasClosedForm())
      << "overflowed coefficients must not masquerade as a closed form";
}

TEST(IVEdgeTest, ValueAtTable) {
  // Classification::valueAt is the one statement of "the value on
  // iteration h" that the oracle, the materializer and the summarizer
  // share; one row per kind.
  const ivclass::ClosedForm Lin =
      ivclass::ClosedForm::linear(Affine(3), Affine(2)); // 3 + 2h

  // A closed form evaluates at h itself.
  const Classification Linear = Classification::fromForm(nullptr, Lin);
  EXPECT_EQ(Linear.valueAt(0), Affine(3));
  EXPECT_EQ(Linear.valueAt(4), Affine(11));

  // A wrap-around claims nothing inside its prefix, then follows its inner
  // class shifted by the order: phi(h) = inner(h - 2).
  const Classification Wrap = Classification::wrapAround(nullptr, 2, Linear);
  EXPECT_EQ(Wrap.valueAt(0), std::nullopt);
  EXPECT_EQ(Wrap.valueAt(1), std::nullopt);
  EXPECT_EQ(Wrap.valueAt(2), Affine(3));
  EXPECT_EQ(Wrap.valueAt(5), Affine(9));

  // A periodic member reads ring[(phase + h) mod period] through its
  // image PScale * member + POffset.
  Classification Ring = Classification::periodic(
      nullptr, 1, 3, 1, {Affine(10), Affine(20), Affine(30)});
  EXPECT_EQ(Ring.valueAt(0), Affine(20));
  EXPECT_EQ(Ring.valueAt(2), Affine(10));
  Ring.PScale = Rational(-2);
  Ring.POffset = Affine(7);
  EXPECT_EQ(Ring.valueAt(0), Affine(-33)); // -2 * 20 + 7
  EXPECT_EQ(Ring.valueAt(4), Affine(-53)); // slot (1 + 4) mod 3 = 2
  // Behind a wrap-around the image still applies to the tail.
  const Classification WrapRing = Classification::wrapAround(nullptr, 1, Ring);
  EXPECT_EQ(WrapRing.valueAt(0), std::nullopt);
  EXPECT_EQ(WrapRing.valueAt(1), Affine(-33));

  // A phase-periodic tuple evaluates PhaseForms[h mod k] at h div k.
  const Classification Phases = Classification::phasePeriodic(
      nullptr, 2,
      {Lin, ivclass::ClosedForm::linear(Affine(100), Affine(-1))});
  EXPECT_EQ(Phases.valueAt(0), Affine(3));   // phase 0, cycle 0
  EXPECT_EQ(Phases.valueAt(1), Affine(100)); // phase 1, cycle 0
  EXPECT_EQ(Phases.valueAt(4), Affine(7));   // phase 0, cycle 2
  EXPECT_EQ(Phases.valueAt(7), Affine(97));  // phase 1, cycle 3

  // Kinds that claim no value, and malformed tuples, answer nullopt.
  EXPECT_EQ(Classification::monotonic(nullptr, MonotoneDir::Increasing, true)
                .valueAt(3),
            std::nullopt);
  EXPECT_EQ(Classification::unknown().valueAt(0), std::nullopt);
  Classification ShortRing = Ring;
  ShortRing.RingInits.pop_back();
  EXPECT_EQ(ShortRing.valueAt(0), std::nullopt);
  Classification ShortPhases = Phases;
  ShortPhases.PhaseForms.pop_back();
  EXPECT_EQ(ShortPhases.valueAt(0), std::nullopt);
  Classification NoPeriod = Ring;
  NoPeriod.Period = 0;
  NoPeriod.RingInits.clear();
  EXPECT_EQ(NoPeriod.valueAt(0), std::nullopt);
}
