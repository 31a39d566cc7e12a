//===- tests/ivclass_nested_test.cpp - Sections 5.2/5.3: nested loops ---------===//
//
// Experiments E7 (Figures 7/8) and E8 (Figure 9): trip counts, materialized
// exit values, multiloop induction variables, and the triangular-loop
// quadratic that [EHLP92] found hard.  B3 pins the same machinery on nests
// of depth 1 to 8.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "WorkloadGen.h"

using namespace biv;
using namespace biv::testutil;
using ivclass::Classification;
using ivclass::IVKind;
using ivclass::TripCountInfo;

namespace {

/// Figures 7/8 verbatim: the inner loop's exit test sits between the two k
/// increments.
const char *Fig7Src = "func fig7(outer) {"
                      "  k = 0;"
                      "  for L17: t = 1 to outer {"
                      "    i = 1;"
                      "    loop L18 {"
                      "      k = k + 2;"
                      "      if (i > 100) break;"
                      "      i = i + 1;"
                      "    }"
                      "    k = k + 2;"
                      "  }"
                      "  return k;"
                      "}";

} // namespace

TEST(NestedIVTest, Figure7InnerLoop) {
  Analyzed A = analyze(Fig7Src);
  // Inner: k3 = (L18, k2, 2) with k2 symbolic; i2 = (L18, 1, 1).
  const Classification &I2 = A.cls("L18", "i");
  ASSERT_EQ(I2.Kind, IVKind::Linear);
  EXPECT_EQ(I2.Form.coeff(0), Affine(1));
  EXPECT_EQ(I2.Form.coeff(1), Affine(1));

  const Classification &K3 = A.cls("L18", "k");
  ASSERT_EQ(K3.Kind, IVKind::Linear);
  EXPECT_EQ(K3.Form.coeff(1), Affine(2));
  EXPECT_FALSE(K3.Form.coeff(0).isConstant())
      << "inner initial value is the outer loop's k";

  // Trip count: the exit converts to (L18, 100, -1), so 100 stays.
  const TripCountInfo &TC = A.IA->tripCount(A.loop("L18"));
  ASSERT_EQ(TC.K, TripCountInfo::Kind::Finite);
  EXPECT_EQ(TC.Count, Affine(100));
}

TEST(NestedIVTest, Figure8OuterLoopThroughExitValues) {
  Analyzed A = analyze(Fig7Src);
  // k increments 2*(100+1) inside the loop (the k4 = k3+2 above the exit
  // test runs 101 times) plus 2 after it: outer k2 = (L17, 0, 204).
  const Classification &K2 = A.cls("L17", "k");
  ASSERT_EQ(K2.Kind, IVKind::Linear);
  EXPECT_EQ(K2.Form.coeff(0), Affine(0));
  EXPECT_EQ(K2.Form.coeff(1), Affine(204));
  // The paper's k5 (carried value) = (L17, 204, 204).
  const Classification &K5 = A.clsOf(A.carried("L17", "k"), "L17");
  ASSERT_EQ(K5.Kind, IVKind::Linear);
  EXPECT_EQ(K5.Form.coeff(0), Affine(204));
  EXPECT_EQ(K5.Form.coeff(1), Affine(204));
  EXPECT_GE(A.IA->stats().ExitValuesMaterialized, 1u);
}

TEST(NestedIVTest, Figure8NestedTuplePrinting) {
  Analyzed A = analyze(Fig7Src);
  // k3 = (L18, (L17, 0, 204), 2): the multiloop induction variable as a
  // nested tuple, exactly the paper's section 5.3 result.
  EXPECT_EQ(A.tuple("L18", "k"), "(L18, (L17, 0, 204), 2)");
}

TEST(NestedIVTest, Figure7Oracle) {
  Analyzed A = analyze(Fig7Src);
  interp::ExecutionTrace T = interp::run(*A.F, {5}, {1u << 20});
  ASSERT_TRUE(T.ok()) << T.Error;
  // Outer k2 observed: 0, 204, 408, ...
  expectFormMatchesTrace(A.cls("L17", "k"), A.phi("L17", "k"), T);
  EXPECT_EQ(T.ReturnValue, 5 * 204);
}

TEST(NestedIVTest, Figure9TriangularLoop) {
  // The [EHLP92] example: inner trip count depends on the outer index.
  Analyzed A = analyze("func fig9(n) {"
                       "  j = 0;"
                       "  for L19: i = 1 to n {"
                       "    j = j + 1;"
                       "    for L20: k = 1 to i {"
                       "      j = j + 1;"
                       "    }"
                       "  }"
                       "  return j;"
                       "}");
  // Inner trip count is the symbolic i.
  const TripCountInfo &TC = A.IA->tripCount(A.loop("L20"));
  ASSERT_EQ(TC.K, TripCountInfo::Kind::Finite);
  EXPECT_TRUE(TC.Guarded);
  EXPECT_FALSE(TC.Count.isConstant());

  // Outer j2: the quadratic family (L19, 0, 3/2, 1/2).
  const Classification &J2 = A.cls("L19", "j");
  ASSERT_EQ(J2.Kind, IVKind::Polynomial);
  EXPECT_EQ(J2.Form.coeff(0), Affine(0));
  EXPECT_EQ(J2.Form.coeff(1), Affine(Rational(3, 2)));
  EXPECT_EQ(J2.Form.coeff(2), Affine(Rational(1, 2)));

  // Inner j4 = (L20, j3, 1) with the outer quadratic as its initial value:
  // the nested tuple of section 5.3.
  const Classification &J4 = A.cls("L20", "j");
  ASSERT_EQ(J4.Kind, IVKind::Linear);
  EXPECT_EQ(J4.Form.coeff(1), Affine(1));
  // j4's initial value is j3 = j2 + 1 = (L19, 1, 3/2, 1/2).
  EXPECT_EQ(A.tuple("L20", "j"), "(L20, (L19, 1, 3/2, 1/2), 1)");

  // Oracle: j2(h) = h(h+3)/2 on a real run.
  interp::ExecutionTrace T = interp::run(*A.F, {8});
  ASSERT_TRUE(T.ok()) << T.Error;
  expectFormMatchesTrace(J2, A.phi("L19", "j"), T);
  // Total: n increments outside + sum(i) inside = n + n(n+1)/2.
  EXPECT_EQ(T.ReturnValue, 8 + 8 * 9 / 2);
}

TEST(NestedIVTest, TripCountNumericCases) {
  // All three branches of the paper's formula.
  struct Case {
    const char *Src;
    TripCountInfo::Kind Kind;
    int64_t Count;
  };
  const Case Cases[] = {
      // i <= 0: zero-trip (for 5 to 1 never stays).
      {"func z() { s = 0; for L: i = 5 to 1 { s = s + 1; } return s; }",
       TripCountInfo::Kind::Zero, 0},
      // i > 0, s < 0: ceil(i / -s); 1..10 by 3 -> ceil(10/3) = 4.
      {"func f() { s = 0; for L: i = 1 to 10 by 3 { s = s + 1; } return s; }",
       TripCountInfo::Kind::Finite, 4},
      // i > 0, s >= 0: infinite (decreasing exit test never fires).
      {"func inf() { s = 0; i = 0;"
       "  loop L { i = i + 1; s = s - 1; if (s > 0) break; }"
       "  return s; }",
       TripCountInfo::Kind::Infinite, 0},
  };
  for (const Case &C : Cases) {
    Analyzed A = analyze(C.Src);
    const TripCountInfo &TC = A.IA->tripCount(A.loop("L"));
    EXPECT_EQ(TC.K, C.Kind) << C.Src;
    if (C.Kind == TripCountInfo::Kind::Finite) {
      EXPECT_EQ(TC.Count, Affine(C.Count)) << C.Src;
    }
    // Oracle: a finite/zero count must match the interpreter (count stay
    // decisions by running the loop).
    if (TC.isCountable()) {
      interp::ExecutionTrace T = interp::run(*A.F, {});
      ASSERT_TRUE(T.ok()) << T.Error;
    }
  }
}

TEST(NestedIVTest, TripCountMatchesExecutionSweep) {
  // Property sweep: for lo..hi by st, trip count formula vs. real runs.
  for (int64_t Lo : {-3, 0, 1, 5})
    for (int64_t Hi : {-4, 0, 3, 17})
      for (int64_t St : {1, 2, 5}) {
        std::string Src = "func f() { s = 0; for L: i = " +
                          std::to_string(Lo) + " to " + std::to_string(Hi) +
                          " by " + std::to_string(St) +
                          " { s = s + 1; } return s; }";
        Analyzed A = analyze(Src);
        const TripCountInfo &TC = A.IA->tripCount(A.loop("L"));
        interp::ExecutionTrace T = interp::run(*A.F, {});
        ASSERT_TRUE(T.ok()) << T.Error;
        ASSERT_TRUE(TC.isCountable()) << Src;
        EXPECT_EQ(TC.count(), Affine(*T.ReturnValue)) << Src;
      }
}

TEST(NestedIVTest, SymbolicTripCountForLoop) {
  Analyzed A = analyze("func f(n) { s = 0;"
                       "  for L: i = 1 to n { s = s + 1; }"
                       "  return s; }");
  const TripCountInfo &TC = A.IA->tripCount(A.loop("L"));
  ASSERT_EQ(TC.K, TripCountInfo::Kind::Finite);
  EXPECT_TRUE(TC.Guarded);
  EXPECT_EQ(TC.Count, Affine::symbol(A.F->findArgument("n")));
}

TEST(NestedIVTest, MultiExitMaxTripCount) {
  // Two exits: i > 100 and a data-dependent break; only a max count.
  Analyzed A = analyze("func f(n) { s = 0; i = 0;"
                       "  loop L {"
                       "    i = i + 1;"
                       "    if (i > 100) break;"
                       "    if (A[i] > n) break;"
                       "    s = s + 1;"
                       "  }"
                       "  return s; }");
  const TripCountInfo &TC = A.IA->tripCount(A.loop("L"));
  EXPECT_EQ(TC.K, TripCountInfo::Kind::Unknown);
  ASSERT_TRUE(TC.MaxCount.has_value());
  EXPECT_EQ(*TC.MaxCount, Affine(100));
}

TEST(NestedIVTest, ExitValueOfForLoopVariable) {
  // After `for i = 1 to 10`, uses of i see the exit value 11.
  Analyzed A = analyze("func f() {"
                       "  s = 0;"
                       "  for L: i = 1 to 10 { s = s + i; }"
                       "  return i;"
                       "}");
  interp::ExecutionTrace T = interp::run(*A.F, {});
  ASSERT_TRUE(T.ok()) << T.Error;
  EXPECT_EQ(T.ReturnValue, 11);
  // The return operand was rewritten to a constant/materialized exit value,
  // not the phi itself.
  const ir::Instruction *Ret = nullptr;
  for (const auto &BB : A.F->blocks())
    for (const auto &I : *BB)
      if (I->opcode() == ir::Opcode::Ret)
        Ret = I;
  ASSERT_NE(Ret, nullptr);
  ASSERT_EQ(Ret->numOperands(), 1u);
  EXPECT_NE(Ret->operand(0), A.phi("L", "i"));
}

TEST(NestedIVTest, TripleNestingClassifies) {
  // Three levels; the innermost initial value chains two nested tuples.
  Analyzed A = analyze("func deep(n) {"
                       "  k = 0;"
                       "  for L1: a = 1 to 4 {"
                       "    for L2: b = 1 to 5 {"
                       "      for L3: c = 1 to 6 {"
                       "        k = k + 1;"
                       "      }"
                       "    }"
                       "  }"
                       "  return k;"
                       "}");
  const Classification &K1 = A.cls("L1", "k");
  ASSERT_EQ(K1.Kind, IVKind::Linear);
  EXPECT_EQ(K1.Form.coeff(1), Affine(30));
  EXPECT_EQ(A.tuple("L3", "k"), "(L3, (L2, (L1, 0, 30), 6), 1)");
  interp::ExecutionTrace T = interp::run(*A.F, {});
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T.ReturnValue, 4 * 5 * 6);
}

TEST(NestedIVTest, DisablingMaterializationLosesOuterIV) {
  // With exit-value materialization off, the outer k is unknown (the
  // paper's "treated as unknown" fallback).
  ivclass::InductionAnalysis::Options Opts;
  Opts.MaterializeExitValues = false;
  Analyzed A = analyze(Fig7Src, /*RunSCCP=*/false, Opts);
  EXPECT_EQ(A.cls("L17", "k").Kind, IVKind::Unknown);
}

TEST(NestedIVTest, ClaimB3NestDepths) {
  // genNest(D): D countable loops of 4 trips each around k = k + 1.  The
  // nest has 2D linear families (each loop's counter and k), inner-to-outer
  // processing materializes D(D+1)/2 exit values, and the innermost k
  // prints as the full D-level nested tuple.
  const struct {
    unsigned Depth;
    unsigned ExitValues;
    const char *InnermostK;
  } Rows[] = {
      {1, 1, "(L1, 0, 1)"},
      {2, 3, "(L2, (L1, 0, 4), 1)"},
      {3, 6, "(L3, (L2, (L1, 0, 16), 4), 1)"},
      {4, 10, "(L4, (L3, (L2, (L1, 0, 64), 16), 4), 1)"},
      {6, 21,
       "(L6, (L5, (L4, (L3, (L2, (L1, 0, 1024), 256), 64), 16), 4), 1)"},
      {8, 36,
       "(L8, (L7, (L6, (L5, (L4, (L3, (L2, (L1, 0, 16384), 4096), 1024), "
       "256), 64), 16), 4), 1)"},
  };
  for (const auto &[Depth, ExitValues, InnermostK] : Rows) {
    Analyzed A = analyze(bench::genNest(Depth));
    EXPECT_EQ(A.LI->loops().size(), Depth);
    EXPECT_EQ(A.IA->stats().LinearFamilies, 2 * Depth) << Depth;
    EXPECT_EQ(A.IA->stats().ExitValuesMaterialized, ExitValues) << Depth;
    const std::string Inner = "L" + std::to_string(Depth);
    EXPECT_EQ(A.IA->strNested(A.cls(Inner, "k"), Depth + 1), InnermostK);
  }
}

TEST(NestedIVTest, ExitValueRule) {
  // InductionAnalysis::exitValue is the one statement of section 5.3's rule
  // that the materializer and the summarizer share.
  Analyzed A = analyze("func f(n) {"
                       "  a = 1; b = 2; t = 0; s = 0; c = 0;"
                       "  for L: i = 1 to 5 {"
                       "    t = a; a = b; b = t;"
                       "    s = s + 2;"
                       "    if (A[i] > 0) { c = i * 2; }"
                       "  }"
                       "  return a + s + c;"
                       "}");
  const analysis::Loop *L = A.loop("L");
  // A ring slot at the numeric count: a header phi sits above the exit
  // test, so h = tc = 5, and a runs 1, 2, 1, 2, ...
  EXPECT_EQ(A.IA->exitValue(A.phi("L", "a"), L), Affine(2));
  // s + 2 runs below the test: its last execution is h = tc - 1, 2 + 2*4.
  const ir::Instruction *SNext = A.carried("L", "s");
  ASSERT_TRUE(A.clsOf(SNext, "L").isLinear());
  EXPECT_EQ(A.IA->exitValue(SNext, L), Affine(10));
  // i * 2 has a closed form but runs only on some iterations.
  const ir::Instruction *Twice = nullptr;
  for (const ir::BasicBlock *BB : L->blocks())
    for (const ir::Instruction *I : *BB)
      if (I->opcode() == ir::Opcode::Mul)
        Twice = I;
  ASSERT_NE(Twice, nullptr);
  ASSERT_TRUE(A.clsOf(Twice, "L").isLinear());
  EXPECT_EQ(A.IA->exitValue(Twice, L), std::nullopt);

  // A symbolic count evaluates a closed form at it (the count is guarded:
  // the value holds when n is positive).
  Analyzed S = analyze("func f(n) {"
                       "  s = 0;"
                       "  for L: i = 1 to n { s = s + 2; }"
                       "  return s;"
                       "}");
  const ir::Argument *N = S.F->arguments()[0];
  EXPECT_EQ(S.IA->exitValue(S.phi("L", "s"), S.loop("L")),
            Affine::symbol(N) * Rational(2));

  // A wrap-around settles only past its prefix: one trip clears j's order
  // 1 but not k's order 2.
  Analyzed W = analyze("func f(n) {"
                       "  j = 50; k = 60;"
                       "  for L: i = 1 to 1 { k = j; j = i; }"
                       "  return j + k;"
                       "}");
  ASSERT_EQ(W.cls("L", "k").WrapOrder, 2u);
  EXPECT_EQ(W.IA->exitValue(W.phi("L", "j"), W.loop("L")), Affine(1));
  EXPECT_EQ(W.IA->exitValue(W.phi("L", "k"), W.loop("L")), std::nullopt);
}
