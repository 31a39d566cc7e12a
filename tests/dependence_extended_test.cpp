//===- tests/dependence_extended_test.cpp - Section 6's new variable classes --===//
//
// E9 (Figure 10: monotonic directions), E11 (loop L22: periodic families
// translate "=" to "!="), and the wrap-around "holds after k iterations"
// flag -- the dependence-testing payoff the paper's classification exists
// for.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "WorkloadGen.h"
#include "dependence/DependenceAnalyzer.h"

using namespace biv;
using namespace biv::testutil;
using namespace biv::dependence;

namespace {

struct DepRun {
  Analyzed A;
  std::vector<Dependence> Deps;
};

DepRun analyzeDeps(const std::string &Src) {
  DepRun R;
  R.A = analyze(Src);
  DependenceAnalyzer DA(*R.A.IA);
  R.Deps = DA.analyze();
  return R;
}

const Dependence *findDep(const DepRun &R, const std::string &ArrayName,
                          DepKind K) {
  for (const Dependence &D : R.Deps)
    if (D.Kind == K && D.Src->array()->name() == ArrayName)
      return &D;
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// E11: periodic families (loop L22)
//===----------------------------------------------------------------------===//

TEST(ExtendedDepTest, LoopL22PeriodicEqBecomesNeq) {
  // j=1; k=2; l=3; loop: A(2j) = A(2k); rotate (j,k,l).  Same periodic
  // family, distinct phases: the "=" solution of 2j == 2k translates to a
  // "!=" direction (distance == 2 (mod 3), never 0).
  DepRun R = analyzeDeps("func l22(n) {"
                         "  j = 1; k = 2; l = 3; temp = 0;"
                         "  for L22: iter = 1 to n {"
                         "    A[2 * j] = A[2 * k] + 1;"
                         "    temp = j;"
                         "    j = k;"
                         "    k = l;"
                         "    l = temp;"
                         "  }"
                         "  return j;"
                         "}");
  ASSERT_FALSE(R.Deps.empty());
  analysis::Loop *L = R.A.loop("L22");
  bool SawPeriodicRefinement = false;
  for (const Dependence &D : R.Deps) {
    if (D.Result.O == DependenceResult::Outcome::Independent ||
        D.Src == D.Dst) // a self pair's residue-0 output dep is real
      continue;
    for (const LoopDirection &LD : D.Result.Directions) {
      if (LD.L != L || !LD.ModPeriod)
        continue;
      SawPeriodicRefinement = true;
      EXPECT_EQ(*LD.ModPeriod, 3u);
      // j and k are one rotation apart: "=" is excluded.
      EXPECT_NE(*LD.ModResidue, 0u);
      EXPECT_EQ(LD.Dirs & DirEQ, 0)
          << "loop-independent dependence must be ruled out";
    }
  }
  EXPECT_TRUE(SawPeriodicRefinement);
}

TEST(ExtendedDepTest, PeriodicDynamicOracle) {
  // The modular claim checked against execution: writes via j and reads
  // via k never touch the same cell in the same iteration.
  DepRun R = analyzeDeps("func l22(n) {"
                         "  j = 1; k = 2; l = 3; temp = 0;"
                         "  for L22: iter = 1 to n {"
                         "    A[2 * j] = iter;"
                         "    B[iter] = A[2 * k];"
                         "    temp = j; j = k; k = l; l = temp;"
                         "  }"
                         "  return j;"
                         "}");
  interp::ExecutionTrace T = interp::run(*R.A.F, {9});
  ASSERT_TRUE(T.ok()) << T.Error;
  // Reconstruct per-iteration subscripts.
  const ir::Instruction *Store = nullptr, *Load = nullptr;
  for (const auto &BB : R.A.F->blocks())
    for (const auto &I : *BB) {
      if (I->opcode() == ir::Opcode::ArrayStore && I->array()->name() == "A")
        Store = I;
      if (I->opcode() == ir::Opcode::ArrayLoad && I->array()->name() == "A")
        Load = I;
    }
  ASSERT_NE(Store, nullptr);
  ASSERT_NE(Load, nullptr);
  const auto &W = T.sequenceOf(ir::cast<ir::Instruction>(Store->operand(1)));
  const auto &Rd = T.sequenceOf(ir::cast<ir::Instruction>(Load->operand(0)));
  ASSERT_EQ(W.size(), Rd.size());
  for (size_t H = 0; H < W.size(); ++H)
    EXPECT_NE(W[H], Rd[H]) << "same-iteration collision at " << H;
}

TEST(ExtendedDepTest, UnrelatedPeriodicFamiliesStayMaybe) {
  // Two independent rotations: no family relation, no refinement.
  DepRun R = analyzeDeps("func f(n) {"
                         "  j = 1; k = 2;"
                         "  p = 1; q = 2;"
                         "  t = 0;"
                         "  for L: iter = 1 to n {"
                         "    A[j] = A[p] + 1;"
                         "    t = j; j = k; k = t;"
                         "    t = p; p = q; q = t;"
                         "  }"
                         "  return j;"
                         "}");
  for (const Dependence &D : R.Deps) {
    if (D.Src == D.Dst)
      continue; // self pairs legitimately carry a residue-0 constraint
    for (const LoopDirection &LD : D.Result.Directions)
      EXPECT_FALSE(LD.ModPeriod.has_value())
          << "cross-family pairs must not claim modular distances";
  }
}

TEST(ExtendedDepTest, NonDistinctRingNoRefinement) {
  // Ring values 1,1: periodicity cannot be exploited (the paper requires
  // the compiler to check distinctness of the initial values).
  DepRun R = analyzeDeps("func f(n) {"
                         "  j = 1; k = 1; t = 0;"
                         "  for L: iter = 1 to n {"
                         "    A[j] = A[k] + 1;"
                         "    t = j; j = k; k = t;"
                         "  }"
                         "  return j;"
                         "}");
  for (const Dependence &D : R.Deps) {
    if (D.Src == D.Dst)
      continue;
    EXPECT_NE(D.Result.O, DependenceResult::Outcome::Independent);
    for (const LoopDirection &LD : D.Result.Directions)
      EXPECT_FALSE(LD.ModPeriod.has_value());
  }
}

//===----------------------------------------------------------------------===//
// E9: monotonic directions (Figure 10)
//===----------------------------------------------------------------------===//

TEST(ExtendedDepTest, Figure10StrictMonotonicEquals) {
  // k3 = k2 + i (strictly increasing inside the guard): B(k3) written and
  // read in the same iteration -> flow direction (=).
  DepRun R = analyzeDeps("func fig10(n) {"
                         "  k = 0;"
                         "  for L15: i = 1 to n {"
                         "    if (A[i] > 0) {"
                         "      k = k + 1;"
                         "      B[k] = A[i];"
                         "      E[i] = B[k];"
                         "    }"
                         "  }"
                         "  return k;"
                         "}");
  const Dependence *FlowB = findDep(R, "B", DepKind::Flow);
  ASSERT_NE(FlowB, nullptr);
  analysis::Loop *L = R.A.loop("L15");
  EXPECT_EQ(FlowB->Result.dirsFor(L), DirEQ)
      << "strictly monotonic same-value subscript: direction (=)";
}

TEST(ExtendedDepTest, Figure10NonStrictMonotonicLeq) {
  // F(k2) written, F(k4) read with k2/k4 only monotonic (k may stay
  // unchanged): flow direction (<=), anti (<).
  DepRun R = analyzeDeps("func fig10b(n) {"
                         "  k = 0;"
                         "  for L15: i = 1 to n {"
                         "    F[k] = A[i];"
                         "    if (A[i] > 0) {"
                         "      k = k + 1;"
                         "    }"
                         "    G[i] = F[k];"
                         "  }"
                         "  return k;"
                         "}");
  const Dependence *FlowF = findDep(R, "F", DepKind::Flow);
  ASSERT_NE(FlowF, nullptr);
  analysis::Loop *L = R.A.loop("L15");
  EXPECT_EQ(FlowF->Result.dirsFor(L) & DirGT, 0)
      << "monotonic subscripts: only (<=) directions survive";
  EXPECT_NE(FlowF->Result.dirsFor(L) & DirEQ, 0);
}

TEST(ExtendedDepTest, MonotonicOracle) {
  // The pack loop: statically-kept directions must cover every dynamic
  // collision of write/read pairs.
  DepRun R = analyzeDeps("func pack(n) {"
                         "  k = 0;"
                         "  for L: i = 1 to n {"
                         "    if (A[i] > 0) {"
                         "      k = k + 1;"
                         "      B[k] = A[i];"
                         "    }"
                         "  }"
                         "  return k;"
                         "}");
  // B is written through a strictly monotonic subscript: self-output dep
  // impossible beyond (=), so no output dependence record should carry LT.
  for (const Dependence &D : R.Deps)
    if (D.Kind == DepKind::Output && D.Src == D.Dst) {
      EXPECT_EQ(D.Result.dirsFor(R.A.loop("L")) & DirLT, 0)
          << "strictly monotonic writes never repeat a cell";
    }
  interp::ExecutionTrace T = interp::runWithArrays(
      *R.A.F, {8},
      {{"A",
        {{{1}, 1}, {{2}, -2}, {{3}, 3}, {{4}, -4},
         {{5}, 5}, {{6}, 6}, {{7}, -7}, {{8}, 8}}}});
  ASSERT_TRUE(T.ok()) << T.Error;
  // Dynamic: the written subscripts are pairwise distinct.
  const ir::Instruction *Store = nullptr;
  for (const auto &BB : R.A.F->blocks())
    for (const auto &I : *BB)
      if (I->opcode() == ir::Opcode::ArrayStore && I->array()->name() == "B")
        Store = I;
  ASSERT_NE(Store, nullptr);
  const auto &Seq =
      T.sequenceOf(ir::cast<ir::Instruction>(Store->operand(1)));
  std::set<int64_t> Unique(Seq.begin(), Seq.end());
  EXPECT_EQ(Unique.size(), Seq.size());
}

//===----------------------------------------------------------------------===//
// Wrap-around subscripts (section 6's peeling discussion, loop L9)
//===----------------------------------------------------------------------===//

TEST(ExtendedDepTest, WrapAroundHoldsAfterKIterations) {
  // iml = n; for i = 1 to n { A(i) = A(iml) + ...; iml = i }: after the
  // first iteration iml == i-1, so the dependence is the distance-1 flow
  // dep, valid after 1 iteration (peel to exploit).
  DepRun R = analyzeDeps("func l9(n) {"
                         "  iml = n;"
                         "  for L9: i = 1 to n {"
                         "    A[i] = A[iml] + 1;"
                         "    iml = i;"
                         "  }"
                         "  return 0;"
                         "}");
  bool SawWrapFlag = false;
  for (const Dependence &D : R.Deps)
    SawWrapFlag |= D.Result.ValidAfterIterations == 1;
  EXPECT_TRUE(SawWrapFlag)
      << "wrap-around subscript must flag the peelable prefix";
}

TEST(ExtendedDepTest, WrapAroundCollapsedNeedsNoFlag) {
  // iml = 0 fits the sequence: iml is the plain IV (L9, 0, 1), ordinary
  // distance-1 dependence, no peeling flag.
  DepRun R = analyzeDeps("func l9b(n) {"
                         "  iml = 0;"
                         "  for L9: i = 1 to n {"
                         "    A[i] = A[iml] + 1;"
                         "    iml = i;"
                         "  }"
                         "  return 0;"
                         "}");
  for (const Dependence &D : R.Deps) {
    EXPECT_EQ(D.Result.ValidAfterIterations, 0u);
    if (D.Kind == DepKind::Flow) {
      ASSERT_EQ(D.Result.Directions.size(), 1u);
      ASSERT_TRUE(D.Result.Directions[0].Distance.has_value());
      EXPECT_EQ(*D.Result.Directions[0].Distance, 1);
    }
  }
}

TEST(ExtendedDepTest, WrapAroundOfOrderTwoLagsTwoIterations) {
  // j = k; k = i: past its two-iteration prefix j(h) == i(h-2), so the
  // read of A[i] meets the write of A[j] two iterations later.
  DepRun R = analyzeDeps("func f(n) {"
                         "  k = 100; j = 50;"
                         "  for L: i = 1 to 20 {"
                         "    A[j] = A[i] + 1;"
                         "    j = k;"
                         "    k = i;"
                         "  }"
                         "}");
  const Dependence *Anti = findDep(R, "A", DepKind::Anti);
  ASSERT_NE(Anti, nullptr);
  ASSERT_EQ(Anti->Result.Directions.size(), 1u);
  EXPECT_EQ(Anti->Result.Directions[0].Dirs, DirLT);
  EXPECT_EQ(Anti->Result.Directions[0].Distance, std::optional<int64_t>(2));
  EXPECT_EQ(Anti->Result.ValidAfterIterations, 2u);
}

TEST(ExtendedDepTest, OuterWrapAroundIsInvariantInInnerLoop) {
  // j wraps in L1 and is invariant in L2: all five L2 iterations write the
  // same element, so L2 carries the output dependence; and A[i] is read one
  // L1 iteration before j takes the value i, never after.
  DepRun R = analyzeDeps("func f(n) {"
                         "  j = 50;"
                         "  for L1: i = 1 to 10 {"
                         "    for L2: k = 1 to 5 { A[j] = A[i] + 1; }"
                         "    j = i;"
                         "  }"
                         "}");
  const Dependence *Out = findDep(R, "A", DepKind::Output);
  ASSERT_NE(Out, nullptr);
  ASSERT_EQ(Out->Result.Directions.size(), 2u);
  EXPECT_EQ(Out->Result.Directions[0].Dirs, DirEQ);
  EXPECT_EQ(Out->Result.Directions[0].Distance, std::optional<int64_t>(0));
  EXPECT_EQ(Out->Result.Directions[1].Dirs, DirLT);
  const Dependence *Anti = findDep(R, "A", DepKind::Anti);
  ASSERT_NE(Anti, nullptr);
  ASSERT_EQ(Anti->Result.Directions.size(), 2u);
  EXPECT_EQ(Anti->Result.Directions[0].Dirs, DirLT);
  EXPECT_EQ(Anti->Result.Directions[0].Distance, std::optional<int64_t>(1));
  EXPECT_EQ(findDep(R, "A", DepKind::Flow), nullptr);
}

//===----------------------------------------------------------------------===//
// Precision comparison: extended classes vs. linear-only analysis
//===----------------------------------------------------------------------===//

TEST(ExtendedDepTest, StatsCountRefinements) {
  DepRun R = analyzeDeps("func mix(n) {"
                         "  j = 1; k = 2; t = 0; m = 0;"
                         "  for L: i = 1 to n {"
                         "    A[2 * j] = A[2 * k] + 1;"   // periodic pair
                         "    C[i] = C[i - 1] + 1;"        // strong SIV
                         "    if (A[i] > 0) { m = m + 1; D[m] = i; }"
                         "    t = j; j = k; k = t;"
                         "  }"
                         "  return m;"
                         "}");
  DependenceAnalyzer DA(*R.A.IA);
  std::vector<Dependence> Deps = DA.analyze();
  const DependenceStats &S = DA.stats();
  EXPECT_GT(S.PairsTested, 0u);
  EXPECT_GT(S.DirectionRefined, 0u);
  // The report must render without crashing and mention each array.
  std::string Report = DA.report(Deps);
  EXPECT_NE(Report.find("dep"), std::string::npos);
}

TEST(ExtendedDepTest, ClaimB4BatteryPrecision) {
  // genDependenceBattery cycles six reference situations (strong SIV, GCD,
  // out of bounds, wrap-around, periodic, monotonic pack).  With the
  // extended classes the analyzer proves more pairs independent and
  // assumes fewer dependences than the linear-only setting.
  struct Counts {
    unsigned Independent, Refined, Assumed;
  };
  const struct {
    unsigned Pairs;
    Counts Ext, Lin;
  } Rows[] = {{6, {7, 7, 5}, {6, 9, 6}},
              {24, {28, 28, 20}, {24, 36, 24}},
              {96, {112, 112, 80}, {96, 144, 96}}};
  for (const auto &[Pairs, Ext, Lin] : Rows) {
    Analyzed A = analyze(bench::genDependenceBattery(Pairs),
                         /*RunSCCP=*/true);
    DependenceAnalyzer::Options LinearOnly;
    LinearOnly.UseExtendedClasses = false;
    DependenceAnalyzer DAExt(*A.IA), DALin(*A.IA, LinearOnly);
    DAExt.analyze();
    DALin.analyze();
    const DependenceStats &SE = DAExt.stats(), &SL = DALin.stats();
    EXPECT_EQ(SE.Independent, Ext.Independent) << Pairs;
    EXPECT_EQ(SE.DirectionRefined, Ext.Refined) << Pairs;
    EXPECT_EQ(SE.AssumedDependences, Ext.Assumed) << Pairs;
    EXPECT_EQ(SL.Independent, Lin.Independent) << Pairs;
    EXPECT_EQ(SL.DirectionRefined, Lin.Refined) << Pairs;
    EXPECT_EQ(SL.AssumedDependences, Lin.Assumed) << Pairs;
  }
}
