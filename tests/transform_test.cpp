//===- tests/transform_test.cpp - Loop peeling and strength reduction ---------===//
//
// The two transformations the paper motivates: peeling (section 4.1's
// "standard compiler trick" for wrap-around variables) and strength
// reduction (the introduction's classical companion of IV analysis), both
// validated semantically against the interpreter.  B6 pins their payoff on
// generated workloads.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "WorkloadGen.h"
#include "dependence/DependenceAnalyzer.h"
#include "transform/LoopPeel.h"
#include "transform/StrengthReduce.h"

using namespace biv;
using namespace biv::testutil;

namespace {

const char *WrapSrc = "func l9(n) {"
                      "  iml = n;"
                      "  for L9: i = 1 to n {"
                      "    A[i] = A[iml] + 1;"
                      "    iml = i;"
                      "  }"
                      "  return 0;"
                      "}";

/// \p Chains wrap-around reads in one loop: A_k[i] = A_k[w_k] + 1 with
/// w_k = i after the read, so from the second iteration on each read trails
/// the write by one.
std::string wrapHeavySource(unsigned Chains) {
  std::string Init, Body;
  for (unsigned K = 0; K < Chains; ++K) {
    std::string W = "w" + std::to_string(K);
    Init += "  " + W + " = 90;\n";
    Body += "    A" + std::to_string(K) + "[i] = A" + std::to_string(K) +
            "[" + W + "] + 1;\n    " + W + " = i;\n";
  }
  return "func f(n) {\n" + Init + "  for L: i = 1 to 50 {\n" + Body +
         "  }\n  return 0;\n}\n";
}

/// Runs Src through lowering (+ optional peel), SSA, and analysis.
Analyzed analyzePeeled(const std::string &Src, const std::string &Loop,
                       unsigned Times) {
  Analyzed A;
  A.F = frontend::parseAndLowerOrDie(Src);
  EXPECT_EQ(transform::peelLoop(*A.F, Loop, Times), Times);
  A.Info = ssa::buildSSA(*A.F);
  ssa::verifySSAOrDie(*A.F);
  // The paper's [WZ91] step: fold the peeled iteration's arithmetic so the
  // loop phis see literal initial values (this is what lets the wrap-around
  // collapse).
  ssa::runSCCP(*A.F, /*SimplifyCFG=*/false);
  A.DT = std::make_unique<analysis::DominatorTree>(*A.F);
  A.LI = std::make_unique<analysis::LoopInfo>(*A.F, *A.DT);
  A.IA = std::make_unique<ivclass::InductionAnalysis>(*A.F, *A.DT, *A.LI);
  A.IA->run();
  return A;
}

/// Executes both functions and compares observable behaviour.
void expectSameBehaviour(
    const ir::Function &F1, const ir::Function &F2,
    const std::vector<int64_t> &Args,
    const std::map<std::string, std::map<std::vector<int64_t>, int64_t>>
        &Arrays = {}) {
  interp::ExecutionTrace T1 = interp::runWithArrays(F1, Args, Arrays);
  interp::ExecutionTrace T2 = interp::runWithArrays(F2, Args, Arrays);
  ASSERT_TRUE(T1.ok()) << T1.Error;
  ASSERT_TRUE(T2.ok()) << T2.Error;
  EXPECT_EQ(T1.ReturnValue, T2.ReturnValue);
  ASSERT_EQ(T1.Accesses.size(), T2.Accesses.size());
  for (size_t K = 0; K < T1.Accesses.size(); ++K) {
    EXPECT_EQ(T1.Accesses[K].A->name(), T2.Accesses[K].A->name());
    EXPECT_EQ(T1.Accesses[K].Indices, T2.Accesses[K].Indices);
    EXPECT_EQ(T1.Accesses[K].IsWrite, T2.Accesses[K].IsWrite);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Loop peeling
//===----------------------------------------------------------------------===//

TEST(PeelTest, PreservesSemantics) {
  auto Ref = frontend::parseAndLowerOrDie(WrapSrc);
  ssa::buildSSA(*Ref);
  Analyzed Peeled = analyzePeeled(WrapSrc, "L9", 1);
  for (int64_t N : {0, 1, 2, 7})
    expectSameBehaviour(*Ref, *Peeled.F, {N});
}

TEST(PeelTest, CollapsesWrapAroundToLinear) {
  // Before: iml is a wrap-around; after one peel its initial value fits the
  // sequence and it is the plain induction variable (L9, 1, 1).
  Analyzed Before = analyze(WrapSrc);
  EXPECT_EQ(Before.cls("L9", "iml").Kind, ivclass::IVKind::WrapAround);

  Analyzed After = analyzePeeled(WrapSrc, "L9", 1);
  const ivclass::Classification &Iml = After.cls("L9", "iml");
  ASSERT_EQ(Iml.Kind, ivclass::IVKind::Linear);
  EXPECT_EQ(Iml.Form.coeff(0), Affine(1));
  EXPECT_EQ(Iml.Form.coeff(1), Affine(1));
  // The peeled loop starts at i = 2.
  const ivclass::Classification &I = After.cls("L9", "i");
  ASSERT_EQ(I.Kind, ivclass::IVKind::Linear);
  EXPECT_EQ(I.Form.coeff(0), Affine(2));
}

TEST(PeelTest, RemovesDependencePeelFlag) {
  Analyzed After = analyzePeeled(WrapSrc, "L9", 1);
  dependence::DependenceAnalyzer DA(*After.IA);
  std::vector<dependence::Dependence> Deps = DA.analyze();
  bool SawLoopDep = false;
  for (const dependence::Dependence &D : Deps) {
    EXPECT_EQ(D.Result.ValidAfterIterations, 0u)
        << "peeled loop must not need further peeling";
    for (const dependence::LoopDirection &LD : D.Result.Directions)
      if (LD.Distance && *LD.Distance == 1)
        SawLoopDep = true;
  }
  EXPECT_TRUE(SawLoopDep) << "the settled distance-1 recurrence remains";
}

TEST(PeelTest, SecondOrderNeedsTwoPeels) {
  const char *Src = "func f(n) {"
                    "  w1 = 90; w2 = 91;"
                    "  for L: i = 1 to n {"
                    "    A[w2] = i;"
                    "    w2 = w1;"
                    "    w1 = i;"
                    "  }"
                    "  return 0;"
                    "}";
  Analyzed Base = analyze(Src);
  ASSERT_EQ(Base.cls("L", "w2").Kind, ivclass::IVKind::WrapAround);
  EXPECT_EQ(Base.cls("L", "w2").WrapOrder, 2u);

  Analyzed One = analyzePeeled(Src, "L", 1);
  EXPECT_EQ(One.cls("L", "w2").Kind, ivclass::IVKind::WrapAround)
      << "one peel only reduces the order";
  EXPECT_EQ(One.cls("L", "w2").WrapOrder, 1u);

  Analyzed Two = analyzePeeled(Src, "L", 2);
  EXPECT_EQ(Two.cls("L", "w2").Kind, ivclass::IVKind::Linear);

  auto Ref = frontend::parseAndLowerOrDie(Src);
  ssa::buildSSA(*Ref);
  for (int64_t N : {0, 1, 2, 3, 9})
    expectSameBehaviour(*Ref, *Two.F, {N});
}

TEST(PeelTest, UnknownLoopFails) {
  auto F = frontend::parseAndLowerOrDie(WrapSrc);
  EXPECT_EQ(transform::peelLoop(*F, "NOPE", 1), 0u);
}

TEST(PeelTest, RefusesSSAForm) {
  auto F = frontend::parseAndLowerOrDie(WrapSrc);
  ssa::buildSSA(*F);
  EXPECT_EQ(transform::peelLoop(*F, "L9", 1), 0u)
      << "peeling runs pre-SSA only";
}

TEST(PeelTest, ReportsActualCountOnShortfall) {
  // Requesting more peels than the loop supports must report how many
  // actually happened -- the old bool return conflated a 0-of-4 outcome
  // with success whenever any earlier call had mutated the function.
  // An SSA-form function supports zero peels, so 4 requested -> 0 done.
  auto F = frontend::parseAndLowerOrDie(WrapSrc);
  ssa::buildSSA(*F);
  EXPECT_EQ(transform::peelLoop(*F, "L9", 4), 0u)
      << "shortfall must surface as the real count, not as success";

  // A peelable loop reports exactly the requested count, and the result
  // still matches the un-peeled function observably.
  auto Ref = frontend::parseAndLowerOrDie(WrapSrc);
  ssa::buildSSA(*Ref);
  Analyzed Peeled = analyzePeeled(WrapSrc, "L9", 3);
  for (int64_t N : {0, 2, 7})
    expectSameBehaviour(*Ref, *Peeled.F, {N});
}

TEST(PeelTest, PeeledBottomTestLoop) {
  const char *Src = "func f(n) {"
                    "  s = 0; i = 0;"
                    "  loop L {"
                    "    i = i + 1;"
                    "    s = s + i;"
                    "    if (i >= n) break;"
                    "  }"
                    "  return s;"
                    "}";
  auto Ref = frontend::parseAndLowerOrDie(Src);
  ssa::buildSSA(*Ref);
  Analyzed Peeled = analyzePeeled(Src, "L", 1);
  for (int64_t N : {0, 1, 2, 5}) // note: body runs once even for n <= 0
    expectSameBehaviour(*Ref, *Peeled.F, {N});
}

TEST(PeelTest, ClaimB6PeelClearsEveryWrapFlag) {
  // Each chain's dependence holds only after one iteration until a peeled
  // iteration turns its wrap-around into a plain IV.
  for (unsigned Chains : {1u, 4u, 12u}) {
    const std::string Src = wrapHeavySource(Chains);
    auto flagged = [&Src](unsigned Peels) {
      Analyzed A = analyzePeeled(Src, "L", Peels);
      dependence::DependenceAnalyzer DA(*A.IA);
      unsigned N = 0;
      for (const dependence::Dependence &D : DA.analyze())
        N += D.Result.ValidAfterIterations > 0;
      return N;
    };
    EXPECT_EQ(flagged(0), Chains);
    EXPECT_EQ(flagged(1), 0u) << Chains;
  }
}

//===----------------------------------------------------------------------===//
// Strength reduction
//===----------------------------------------------------------------------===//

namespace {

unsigned countMuls(const ir::Function &F) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : *BB)
      N += I->opcode() == ir::Opcode::Mul;
  return N;
}

} // namespace

TEST(StrengthReduceTest, ReplacesLinearMultiplications) {
  const char *Src = "func f(n) {"
                    "  for L: i = 0 to n {"
                    "    A[8*i + 4] = i;"
                    "    B[3*i] = 2 * i;"
                    "  }"
                    "  return 0;"
                    "}";
  auto Ref = frontend::parseAndLowerOrDie(Src);
  ssa::buildSSA(*Ref);

  Analyzed A = analyze(Src);
  EXPECT_EQ(countMuls(*A.F), 3u);
  transform::StrengthReduceStats S = transform::strengthReduce(*A.IA);
  EXPECT_EQ(S.Reduced, 3u);
  EXPECT_EQ(countMuls(*A.F), 0u);
  ssa::verifySSAOrDie(*A.F);
  for (int64_t N : {0, 1, 5, 12})
    expectSameBehaviour(*Ref, *A.F, {N});
}

TEST(StrengthReduceTest, SymbolicStepReduces) {
  // A[c*i]: step c is symbolic but materializable in the preheader.
  const char *Src = "func f(n, c) {"
                    "  for L: i = 0 to n {"
                    "    A[c*i] = i;"
                    "  }"
                    "  return 0;"
                    "}";
  auto Ref = frontend::parseAndLowerOrDie(Src);
  ssa::buildSSA(*Ref);
  Analyzed A = analyze(Src);
  transform::StrengthReduceStats S = transform::strengthReduce(*A.IA);
  EXPECT_EQ(S.Reduced, 1u);
  ssa::verifySSAOrDie(*A.F);
  for (int64_t C : {2, 3, -1})
    expectSameBehaviour(*Ref, *A.F, {6, C});
}

TEST(StrengthReduceTest, LeavesNonLinearAlone) {
  const char *Src = "func f(n) {"
                    "  for L: i = 1 to n {"
                    "    A[i * i] = i;"  // polynomial: not reduced (yet)
                    "    A[i * n] = i;"  // linear with symbolic step: yes
                    "  }"
                    "  return 0;"
                    "}";
  Analyzed A = analyze(Src);
  unsigned Before = countMuls(*A.F);
  transform::StrengthReduceStats S = transform::strengthReduce(*A.IA);
  EXPECT_EQ(S.Reduced, 1u);
  EXPECT_EQ(countMuls(*A.F), Before - 1);
  ssa::verifySSAOrDie(*A.F);
}

TEST(StrengthReduceTest, ConditionalMultiplicationStillExact) {
  // A conditionally executed multiplication is replaced by an
  // unconditional recurrence with identical values on the iterations that
  // do execute it.
  const char *Src = "func f(n) {"
                    "  s = 0;"
                    "  for L: i = 1 to n {"
                    "    if (A[i] > 0) { s = s + 5*i; }"
                    "  }"
                    "  return s;"
                    "}";
  auto Ref = frontend::parseAndLowerOrDie(Src);
  ssa::buildSSA(*Ref);
  Analyzed A = analyze(Src);
  transform::StrengthReduceStats S = transform::strengthReduce(*A.IA);
  EXPECT_EQ(S.Reduced, 1u);
  ssa::verifySSAOrDie(*A.F);
  std::map<std::string, std::map<std::vector<int64_t>, int64_t>> Arrays;
  for (int64_t I = 1; I <= 9; ++I)
    Arrays["A"][{I}] = (I % 3) - 1;
  expectSameBehaviour(*Ref, *A.F, {9}, Arrays);
}

TEST(StrengthReduceTest, NestedLoopsReduceInnermost) {
  const char *Src = "func f(n) {"
                    "  for L1: i = 1 to 8 {"
                    "    for L2: j = 1 to 8 {"
                    "      A[16*i + 2*j] = i + j;"
                    "    }"
                    "  }"
                    "  return 0;"
                    "}";
  auto Ref = frontend::parseAndLowerOrDie(Src);
  ssa::buildSSA(*Ref);
  Analyzed A = analyze(Src);
  transform::StrengthReduceStats S = transform::strengthReduce(*A.IA);
  EXPECT_GE(S.Reduced, 2u);
  ssa::verifySSAOrDie(*A.F);
  expectSameBehaviour(*Ref, *A.F, {0});
}

TEST(StrengthReduceTest, ClaimB6RemovesEveryChainMultiply) {
  // Every linear multiply of a derived-IV chain goes, statically and as
  // executed at n = 64: each one becomes an add in the latch.
  auto dynMuls = [](const ir::Function &F) {
    interp::ExecutionTrace T = interp::run(F, {64});
    EXPECT_TRUE(T.ok()) << T.Error;
    uint64_t M = 0;
    for (const auto &BB : F.blocks())
      for (const auto &I : *BB)
        if (I->opcode() == ir::Opcode::Mul)
          M += T.sequenceOf(I).size();
    return M;
  };
  const struct {
    unsigned Stmts;
    unsigned Muls;
    uint64_t DynMuls;
  } Rows[] = {{30, 10, 640}, {100, 34, 2176}, {300, 101, 6464}};
  for (const auto &[Stmts, Muls, DynMuls] : Rows) {
    const std::string Src = bench::genLinearChain(Stmts);
    auto Ref = frontend::parseAndLowerOrDie(Src);
    ssa::buildSSA(*Ref);
    Analyzed A = analyze(Src, /*RunSCCP=*/true);
    EXPECT_EQ(countMuls(*A.F), Muls) << Stmts;
    EXPECT_EQ(dynMuls(*A.F), DynMuls) << Stmts;
    transform::strengthReduce(*A.IA);
    ssa::verifySSAOrDie(*A.F);
    EXPECT_EQ(countMuls(*A.F), 0u) << Stmts;
    EXPECT_EQ(dynMuls(*A.F), 0u) << Stmts;
    expectSameBehaviour(*Ref, *A.F, {64});
  }
}

//===----------------------------------------------------------------------===//
// Loop interchange legality (section 6.1's motivating transformation)
//===----------------------------------------------------------------------===//

#include "transform/Interchange.h"

namespace {

transform::InterchangeVerdict verdictFor(const char *Src) {
  static std::vector<Analyzed> Keep; // keep functions alive per test run
  Keep.push_back(analyze(Src));
  Analyzed &A = Keep.back();
  dependence::DependenceAnalyzer DA(*A.IA);
  static std::vector<std::vector<dependence::Dependence>> KeepDeps;
  KeepDeps.push_back(DA.analyze());
  return transform::canInterchange(A.loop("LO"), A.loop("LI"),
                                   KeepDeps.back());
}

} // namespace

TEST(InterchangeTest, LegalWhenDistanceIsOuterOnly) {
  // A[i][j] = A[i-1][j]: direction (<, =): interchange legal.
  EXPECT_EQ(verdictFor("func f(n) {"
                       "  for LO: i = 1 to 40 {"
                       "    for LI: j = 1 to 40 {"
                       "      A[i, j] = A[i - 1, j] + 1;"
                       "    }"
                       "  }"
                       "  return 0;"
                       "}"),
            transform::InterchangeVerdict::Legal);
}

TEST(InterchangeTest, IllegalOnCrossingDiagonal) {
  // A[i][j] = A[i-1][j+1]: direction (<, >): interchange flips it to the
  // lexicographically negative (>, <) -- illegal.
  EXPECT_EQ(verdictFor("func f(n) {"
                       "  for LO: i = 2 to 40 {"
                       "    for LI: j = 1 to 39 {"
                       "      A[i, j] = A[i - 1, j + 1] + 1;"
                       "    }"
                       "  }"
                       "  return 0;"
                       "}"),
            transform::InterchangeVerdict::IllegalDirection);
}

TEST(InterchangeTest, LegalOnAlignedDiagonal) {
  // A[i][j] = A[i-1][j-1]: direction (<, <): stays lexicographically
  // positive after interchange -- legal.
  EXPECT_EQ(verdictFor("func f(n) {"
                       "  for LO: i = 2 to 40 {"
                       "    for LI: j = 2 to 40 {"
                       "      A[i, j] = A[i - 1, j - 1] + 1;"
                       "    }"
                       "  }"
                       "  return 0;"
                       "}"),
            transform::InterchangeVerdict::Legal);
}

TEST(InterchangeTest, ShortVectorIsUnknownNotOutOfBounds) {
  // A direction vector shorter than the Directions list carries no
  // information for the missing levels; canInterchange used to index past
  // its end.  Construct the mismatched shape directly and expect the
  // conservative verdict instead of undefined behaviour.
  Analyzed A = analyze("func f(n) {"
                       "  for LO: i = 2 to 40 {"
                       "    for LI: j = 1 to 39 {"
                       "      A[i, j] = A[i - 1, j + 1] + 1;"
                       "    }"
                       "  }"
                       "  return 0;"
                       "}");
  dependence::DependenceAnalyzer DA(*A.IA);
  std::vector<dependence::Dependence> Deps = DA.analyze();
  ASSERT_EQ(transform::canInterchange(A.loop("LO"), A.loop("LI"), Deps),
            transform::InterchangeVerdict::IllegalDirection);
  bool Truncated = false;
  for (dependence::Dependence &D : Deps)
    for (std::vector<uint8_t> &V : D.Result.Vectors)
      if (V.size() > 1) {
        V.resize(1);
        Truncated = true;
      }
  ASSERT_TRUE(Truncated) << "test needs a two-level vector to truncate";
  EXPECT_EQ(transform::canInterchange(A.loop("LO"), A.loop("LI"), Deps),
            transform::InterchangeVerdict::UnknownDependence);
}

TEST(InterchangeTest, NotNestedRejected) {
  Analyzed A = analyze("func f(n) {"
                       "  for LO: i = 1 to 4 { A[i] = i; }"
                       "  for LI: j = 1 to 4 { A[j] = j; }"
                       "  return 0;"
                       "}");
  dependence::DependenceAnalyzer DA(*A.IA);
  std::vector<dependence::Dependence> Deps = DA.analyze();
  EXPECT_EQ(transform::canInterchange(A.loop("LO"), A.loop("LI"), Deps),
            transform::InterchangeVerdict::NotPerfectlyNested);
}
