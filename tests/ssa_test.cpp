//===- tests/ssa_test.cpp - SSA construction, SCCP, DCE unit tests ------------===//

#include "TestUtil.h"
#include "ssa/DeadCode.h"
#include <optional>

using namespace biv;
using namespace biv::testutil;

namespace {

std::unique_ptr<ir::Function> buildSSAOf(const std::string &Src,
                                         ssa::SSAInfo *Info = nullptr) {
  auto F = frontend::parseAndLowerOrDie(Src);
  ssa::SSAInfo I = ssa::buildSSA(*F);
  ssa::verifySSAOrDie(*F);
  if (Info)
    *Info = std::move(I);
  return F;
}

/// The constant SCCP folds \p Src 's return operand to; nullopt when the
/// return value stays unfolded.
std::optional<int64_t> foldedReturn(const std::string &Src) {
  auto F = buildSSAOf(Src);
  ssa::runSCCP(*F);
  for (const auto &BB : F->blocks())
    for (const auto &I : *BB)
      if (I->opcode() == ir::Opcode::Ret)
        if (const auto *C = ir::dyn_cast<ir::Constant>(I->operand(0)))
          return C->value();
  return std::nullopt;
}

/// What the interpreter returns for \p Src without folding.
std::optional<int64_t> interpretedReturn(const std::string &Src) {
  auto F = buildSSAOf(Src);
  interp::ExecutionTrace T = interp::run(*F, {});
  EXPECT_TRUE(T.ok()) << T.Error;
  return T.ReturnValue;
}

unsigned countPhis(const ir::Function &F) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    N += BB->phis().size();
  return N;
}

} // namespace

TEST(SSATest, NoPhiForStraightLine) {
  auto F = buildSSAOf("func f(n) { x = n; y = x + 1; x = y * 2;"
                      " return x; }");
  EXPECT_EQ(countPhis(*F), 0u);
}

TEST(SSATest, NestedIfsPlaceCascadingPhis) {
  ssa::SSAInfo Info;
  auto F = buildSSAOf("func f(a, b) {"
                      "  x = 0;"
                      "  if (a > 0) {"
                      "    if (b > 0) { x = 1; } else { x = 2; }"
                      "  }"
                      "  return x;"
                      "}",
                      &Info);
  // Inner join merges 1/2; outer join merges inner result with 0.
  EXPECT_EQ(countPhis(*F), 2u);
  EXPECT_EQ(Info.PhisPlaced, 2u);
}

TEST(SSATest, LoopPhiOperandsAreCorrect) {
  ssa::SSAInfo Info;
  auto F = buildSSAOf("func f(n) {"
                      "  s = 10;"
                      "  for L: i = 1 to n { s = s + i; }"
                      "  return s;"
                      "}",
                      &Info);
  analysis::DominatorTree DT(*F);
  analysis::LoopInfo LI(*F, DT);
  ir::Instruction *S = Info.phiFor(LI.byName("L")->header(), "s");
  ASSERT_NE(S, nullptr);
  ASSERT_EQ(S->numOperands(), 2u);
  // One operand is the constant 10 (from the preheader), the other the add.
  bool HasInit = false, HasAdd = false;
  for (ir::Value *Op : S->operands()) {
    if (const auto *C = ir::dyn_cast<ir::Constant>(Op))
      HasInit |= C->value() == 10;
    if (const auto *I = ir::dyn_cast<ir::Instruction>(Op))
      HasAdd |= I->opcode() == ir::Opcode::Add;
  }
  EXPECT_TRUE(HasInit);
  EXPECT_TRUE(HasAdd);
}

TEST(SSATest, UndefFlowsIntoUninitializedPaths) {
  auto F = buildSSAOf("func f(a) {"
                      "  if (a > 0) { x = 1; }"
                      "  x = x + 0;" // reads phi(1, undef)
                      "  return x;"
                      "}");
  bool SawUndef = false;
  for (const auto &BB : F->blocks())
    for (const auto &I : *BB)
      for (ir::Value *Op : I->operands())
        SawUndef |= ir::isa<ir::UndefValue>(Op);
  EXPECT_TRUE(SawUndef);
}

TEST(SSATest, PhiNamesFollowVariables) {
  ssa::SSAInfo Info;
  auto F = buildSSAOf("func f(n) {"
                      "  counter = 0;"
                      "  for L: i = 1 to n { counter = counter + 1; }"
                      "  return counter;"
                      "}",
                      &Info);
  analysis::DominatorTree DT(*F);
  analysis::LoopInfo LI(*F, DT);
  ir::Instruction *C = Info.phiFor(LI.byName("L")->header(), "counter");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->name().rfind("counter", 0), 0u)
      << "phi should carry the source variable's name";
}

//===----------------------------------------------------------------------===//
// SCCP
//===----------------------------------------------------------------------===//

TEST(SCCPTest, FoldsThroughPhis) {
  auto F = buildSSAOf("func f(a) {"
                      "  if (a > 0) { x = 2 + 3; } else { x = 10 / 2; }"
                      "  return x * 2;"
                      "}");
  ssa::SCCPResult R = ssa::runSCCP(*F);
  EXPECT_GE(R.FoldedInstructions, 3u); // both adds and the phi and the mul
  const ir::Instruction *Ret = nullptr;
  for (const auto &BB : F->blocks())
    for (const auto &I : *BB)
      if (I->opcode() == ir::Opcode::Ret)
        Ret = I;
  const auto *C = ir::dyn_cast<ir::Constant>(Ret->operand(0));
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->value(), 10);
}

TEST(SCCPTest, TracksOnlyExecutablePaths) {
  // The false branch would poison the phi, but SCCP proves it dead.
  auto F = buildSSAOf("func f(a) {"
                      "  if (1 < 2) { x = 7; } else { x = a; }"
                      "  return x;"
                      "}");
  ssa::SCCPResult R = ssa::runSCCP(*F, /*SimplifyCFG=*/false);
  EXPECT_GE(R.FoldedInstructions, 1u);
  const ir::Instruction *Ret = nullptr;
  for (const auto &BB : F->blocks())
    for (const auto &I : *BB)
      if (I->opcode() == ir::Opcode::Ret)
        Ret = I;
  const auto *C = ir::dyn_cast<ir::Constant>(Ret->operand(0));
  ASSERT_NE(C, nullptr) << "phi over one live edge must fold";
  EXPECT_EQ(C->value(), 7);
}

TEST(SCCPTest, LoopCarriedNonConstantStaysBottom) {
  auto F = buildSSAOf("func f(n) {"
                      "  s = 0;"
                      "  for L: i = 1 to n { s = s + 1; }"
                      "  return s;"
                      "}");
  ssa::SCCPResult R = ssa::runSCCP(*F);
  // s varies; the return operand must not fold to a constant.
  const ir::Instruction *Ret = nullptr;
  for (const auto &BB : F->blocks())
    for (const auto &I : *BB)
      if (I->opcode() == ir::Opcode::Ret)
        Ret = I;
  EXPECT_EQ(ir::dyn_cast<ir::Constant>(Ret->operand(0)), nullptr);
  (void)R;
}

TEST(SCCPTest, ConstantLoopCollapses) {
  // A loop whose exit condition folds: 'while (0 > 1)' never runs.
  auto F = buildSSAOf("func f() {"
                      "  x = 5;"
                      "  while (0 > 1) { x = 99; }"
                      "  return x;"
                      "}");
  ssa::SCCPResult R = ssa::runSCCP(*F);
  EXPECT_GE(R.SimplifiedBranches, 1u);
  interp::ExecutionTrace T = interp::run(*F, {});
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T.ReturnValue, 5);
  ssa::verifySSAOrDie(*F);
}

TEST(SCCPTest, DivByZeroNotFolded) {
  auto F = buildSSAOf("func f(a) {"
                      "  x = 1 / 0;" // must not be folded away to a constant
                      "  return a;"
                      "}");
  ssa::SCCPResult R = ssa::runSCCP(*F, /*SimplifyCFG=*/false);
  bool DivSurvives = false;
  for (const auto &BB : F->blocks())
    for (const auto &I : *BB)
      DivSurvives |= I->opcode() == ir::Opcode::Div;
  EXPECT_TRUE(DivSurvives);
  (void)R;
}

TEST(SCCPTest, ExpFolding) {
  auto F = buildSSAOf("func f() { return 2 ^ 10; }");
  ssa::runSCCP(*F);
  const ir::Instruction *Ret = nullptr;
  for (const auto &BB : F->blocks())
    for (const auto &I : *BB)
      if (I->opcode() == ir::Opcode::Ret)
        Ret = I;
  const auto *C = ir::dyn_cast<ir::Constant>(Ret->operand(0));
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->value(), 1024);
}

TEST(SCCPTest, FoldsMinByMinusOneLikeTheInterpreter) {
  // The lone overflowing quotient folds to INT64_MIN (the interpreter's
  // pinned value) instead of trapping the host.
  const std::string Src =
      "func f() { c = (0 - 9223372036854775807 - 1) / (0 - 1); return c; }";
  EXPECT_EQ(foldedReturn(Src), INT64_MIN);
  EXPECT_EQ(interpretedReturn(Src), INT64_MIN);
}

TEST(SCCPTest, FoldsWrappingArithmeticLikeTheInterpreter) {
  // Add, Sub, Mul and Neg fold with two's-complement wrap.
  const char *Min = "(0 - 9223372036854775807 - 1)";
  const std::vector<std::pair<std::string, int64_t>> Cases = {
      {"9223372036854775807 + 1", INT64_MIN},
      {std::string(Min) + " - 1", INT64_MAX},
      {"9223372036854775807 * 2", -2},
      {std::string("-") + Min, INT64_MIN},
  };
  for (const auto &[Expr, Want] : Cases) {
    const std::string Src = "func f() { return " + Expr + "; }";
    EXPECT_EQ(foldedReturn(Src), Want) << Expr;
    EXPECT_EQ(interpretedReturn(Src), Want) << Expr;
  }
}

TEST(SCCPTest, ExpOfMinimumBaseStaysUnfolded) {
  // The overflow guard takes |INT64_MIN| unsigned; any power past the
  // zeroth may overflow, so it goes to Bottom as before.
  const std::string Min = "(0 - 9223372036854775807 - 1)";
  EXPECT_EQ(foldedReturn("func f() { return " + Min + " ^ 2; }"),
            std::nullopt);
  EXPECT_EQ(foldedReturn("func f() { return " + Min + " ^ 0; }"), 1);
}

//===----------------------------------------------------------------------===//
// Dead code elimination
//===----------------------------------------------------------------------===//

TEST(DCETest, RemovesUnusedChains) {
  auto F = buildSSAOf("func f(n) {"
                      "  dead = n * 7 + 3;"
                      "  live = n + 1;"
                      "  A[live] = 1;"
                      "  return live;"
                      "}");
  size_t Before = F->instructionCount();
  unsigned Removed = ssa::removeDeadCode(*F);
  EXPECT_GE(Removed, 2u); // the mul and add feeding `dead`
  EXPECT_EQ(F->instructionCount(), Before - Removed);
  ssa::verifySSAOrDie(*F);
}

TEST(DCETest, RemovesDeadPhiCycles) {
  // The classic DCE challenge: a loop-carried variable used only by itself.
  auto F = buildSSAOf("func f(n) {"
                      "  d = 0; s = 0;"
                      "  for L: i = 1 to n {"
                      "    d = d + 1;" // dead cycle
                      "    s = s + 2;" // live (returned)
                      "  }"
                      "  return s;"
                      "}");
  ssa::removeDeadCode(*F);
  ssa::verifySSAOrDie(*F);
  // No instruction named after d remains.
  for (const auto &BB : F->blocks())
    for (const auto &I : *BB)
      EXPECT_TRUE(I->name().rfind("d", 0) != 0 || I->name().rfind("d.", 0)
                  != 0);
  interp::ExecutionTrace T = interp::run(*F, {5});
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T.ReturnValue, 10);
}

TEST(DCETest, KeepsSideEffects) {
  auto F = buildSSAOf("func f(n) {"
                      "  x = n * 2;"
                      "  A[x] = x;" // store keeps the chain alive
                      "  return 0;"
                      "}");
  unsigned Removed = ssa::removeDeadCode(*F);
  EXPECT_EQ(Removed, 0u);
}
