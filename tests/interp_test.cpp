//===- tests/interp_test.cpp - Interpreter unit tests -------------------------===//

#include "TestUtil.h"

using namespace biv;
using namespace biv::testutil;
using namespace biv::interp;

namespace {

/// Local shorthand over the shared pipeline-front helper.
std::unique_ptr<ir::Function> build(const std::string &Src) {
  return makeSSA(Src);
}

} // namespace

TEST(InterpTest, ArithmeticAndReturn) {
  auto F = build("func f(a, b) { return (a + b) * 2 - a / b; }");
  ExecutionTrace T = run(*F, {10, 3});
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T.ReturnValue, (10 + 3) * 2 - 10 / 3);
}

TEST(InterpTest, PowerOperator) {
  auto F = build("func f(a, b) { return a ^ b; }");
  ExecutionTrace T = run(*F, {3, 4});
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T.ReturnValue, 81);
}

TEST(InterpTest, NegativeExponentFails) {
  auto F = build("func f(a) { return 2 ^ a; }");
  ExecutionTrace T = run(*F, {-1});
  EXPECT_FALSE(T.ok());
  EXPECT_NE(T.Error.find("exponent"), std::string::npos);
}

TEST(InterpTest, DivisionByZeroFails) {
  auto F = build("func f(a) { return 1 / a; }");
  ExecutionTrace T = run(*F, {0});
  EXPECT_FALSE(T.ok());
  EXPECT_NE(T.Error.find("zero"), std::string::npos);
}

TEST(InterpTest, TruncatingDivision) {
  auto F = build("func f(a, b) { return a / b; }");
  EXPECT_EQ(run(*F, {7, 2}).ReturnValue, 3);
  EXPECT_EQ(run(*F, {-7, 2}).ReturnValue, -3); // C++ semantics
}

TEST(InterpTest, LoopsAndConditionals) {
  auto F = build("func f(n) {"
                 "  s = 0;"
                 "  for L: i = 1 to n {"
                 "    if (i / 2 * 2 == i) { s = s + i; }"
                 "  }"
                 "  return s;"
                 "}");
  ExecutionTrace T = run(*F, {10});
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T.ReturnValue, 2 + 4 + 6 + 8 + 10);
}

TEST(InterpTest, WhileLoop) {
  auto F = build("func f(n) {"
                 "  x = 1;"
                 "  while (x < n) { x = x * 2; }"
                 "  return x;"
                 "}");
  EXPECT_EQ(run(*F, {100}).ReturnValue, 128);
  EXPECT_EQ(run(*F, {1}).ReturnValue, 1); // zero-trip
}

TEST(InterpTest, DownToLoop) {
  auto F = build("func f() {"
                 "  s = 0;"
                 "  for L: i = 5 downto 1 { s = s * 10 + i; }"
                 "  return s;"
                 "}");
  EXPECT_EQ(run(*F, {}).ReturnValue, 54321);
}

TEST(InterpTest, ArrayReadWrite) {
  auto F = build("func f(n) {"
                 "  for L: i = 1 to n { A[i] = i * i; }"
                 "  s = 0;"
                 "  for M: i = 1 to n { s = s + A[i]; }"
                 "  return s;"
                 "}");
  ExecutionTrace T = run(*F, {4});
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T.ReturnValue, 1 + 4 + 9 + 16);
  // Access log: 4 writes then 4 reads.
  ASSERT_EQ(T.Accesses.size(), 8u);
  EXPECT_TRUE(T.Accesses[0].IsWrite);
  EXPECT_FALSE(T.Accesses[7].IsWrite);
}

TEST(InterpTest, MultiDimArrays) {
  auto F = build("func f() {"
                 "  A[2, 3] = 42;"
                 "  return A[2, 3] + A[3, 2];"
                 "}");
  ExecutionTrace T = run(*F, {});
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T.ReturnValue, 42); // unwritten cells read 0
}

TEST(InterpTest, SeededArrays) {
  auto F = build("func f() { return A[5]; }");
  ExecutionTrace T = runWithArrays(*F, {}, {{"A", {{{5}, 99}}}});
  EXPECT_EQ(T.ReturnValue, 99);
}

TEST(InterpTest, StepLimitStopsInfiniteLoop) {
  auto F = build("func f() {"
                 "  x = 0;"
                 "  loop L { x = x + 1; if (x < 0) break; }"
                 "  return x;"
                 "}");
  ExecOptions Opts;
  Opts.MaxSteps = 1000;
  ExecutionTrace T = run(*F, {}, Opts);
  EXPECT_TRUE(T.HitStepLimit);
  EXPECT_FALSE(T.ok());
}

TEST(InterpTest, HistoryRecordsPerIterationValues) {
  ssa::SSAInfo Info;
  auto F = frontend::parseAndLowerOrDie("func f(n) {"
                                        "  s = 0;"
                                        "  for L: i = 1 to n { s = s + i; }"
                                        "  return s;"
                                        "}");
  Info = ssa::buildSSA(*F);
  analysis::DominatorTree DT(*F);
  analysis::LoopInfo LI(*F, DT);
  ExecutionTrace T = run(*F, {5});
  ASSERT_TRUE(T.ok());
  ir::Instruction *SPhi = Info.phiFor(LI.byName("L")->header(), "s");
  ASSERT_NE(SPhi, nullptr);
  // s at header: 0, 1, 3, 6, 10, 15 (observed on each of 6 header visits).
  std::vector<int64_t> Expected = {0, 1, 3, 6, 10, 15};
  EXPECT_EQ(T.sequenceOf(SPhi), Expected);
}

TEST(InterpTest, PeriodicSwapReadsOldValues) {
  // The two-phase phi evaluation: a swap without a temporary in phi terms.
  ssa::SSAInfo Info;
  auto F = frontend::parseAndLowerOrDie("func f(n) {"
                                        "  a = 1; b = 2; t = 0;"
                                        "  for L: i = 1 to n {"
                                        "    t = a; a = b; b = t;"
                                        "  }"
                                        "  return a;"
                                        "}");
  Info = ssa::buildSSA(*F);
  ExecutionTrace T = run(*F, {3});
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T.ReturnValue, 2); // three swaps: a = 2
}

TEST(InterpTest, PoisonBlocksControlFlow) {
  // Using a never-assigned variable in a branch is an error...
  auto F1 = build("func f(n) {"
                  "  loop L {"
                  "    x = y + 1;" // y undefined on first iteration
                  "    y = 1;"
                  "    if (x > n) break;"
                  "  }"
                  "  return x;"
                  "}");
  ExecutionTrace T1 = run(*F1, {10});
  EXPECT_FALSE(T1.ok());
  EXPECT_NE(T1.Error.find("uninitialized"), std::string::npos);
}

TEST(InterpTest, PoisonHarmlessWhenUnused) {
  // ...but a dead phi of an uninitialized variable must not abort the run
  // (unpruned SSA creates these routinely).
  auto F = build("func f(n) {"
                 "  s = 0;"
                 "  for L1: i = 1 to n {"
                 "    t = i * 2;" // t's header phi reads undef at entry
                 "    s = s + t;"
                 "  }"
                 "  return s;"
                 "}");
  ExecutionTrace T = run(*F, {4});
  ASSERT_TRUE(T.ok()) << T.Error;
  EXPECT_EQ(T.ReturnValue, 2 + 4 + 6 + 8);
}

TEST(InterpTest, ReturnWithoutValue) {
  auto F = build("func f() { A[1] = 2; return; }");
  ExecutionTrace T = run(*F, {});
  ASSERT_TRUE(T.ok());
  EXPECT_FALSE(T.ReturnValue.has_value());
}

TEST(InterpTest, BreakLeavesLoopEarly) {
  auto F = build("func f(n) {"
                 "  s = 0;"
                 "  for L: i = 1 to 100 {"
                 "    if (i > n) break;"
                 "    s = s + 1;"
                 "  }"
                 "  return s;"
                 "}");
  EXPECT_EQ(run(*F, {7}).ReturnValue, 7);
}

//===----------------------------------------------------------------------===//
// Pinned edge-case semantics: the fuzzer's differential oracle trusts the
// interpreter, so aborts, division edge cases, and overflow must be
// *specified* behavior, not host UB.  (The language has no modulo operator;
// division is the only trapping arithmetic.)
//===----------------------------------------------------------------------===//

TEST(InterpEdgeTest, MaxStepsAbortIsNotAnError) {
  // A budget abort sets HitStepLimit, leaves Error empty, and still makes
  // ok() false -- callers can tell "ran out of budget" from "faulted".
  auto F = build("func f() {"
                 "  x = 0;"
                 "  loop L { x = x + 1; if (x < 0) break; }"
                 "  return x;"
                 "}");
  ExecOptions Opts;
  Opts.MaxSteps = 777;
  ExecutionTrace T = run(*F, {}, Opts);
  EXPECT_TRUE(T.HitStepLimit);
  EXPECT_TRUE(T.Error.empty());
  EXPECT_FALSE(T.ok());
  EXPECT_EQ(T.Steps, 777u);
  EXPECT_FALSE(T.ReturnValue.has_value());
}

TEST(InterpEdgeTest, MaxStepsAbortKeepsTracePrefix) {
  // The trace up to the abort is valid: the oracle may still read it.
  ssa::SSAInfo Info;
  auto F = makeSSA("func f() {"
                   "  x = 0;"
                   "  loop L { x = x + 1; if (x < 0) break; }"
                   "  return x;"
                   "}",
                   &Info);
  analysis::DominatorTree DT(*F);
  analysis::LoopInfo LI(*F, DT);
  ExecOptions Opts;
  Opts.MaxSteps = 1000;
  ExecutionTrace T = run(*F, {}, Opts);
  ASSERT_TRUE(T.HitStepLimit);
  ir::Instruction *XPhi = Info.phiFor(LI.byName("L")->header(), "x");
  ASSERT_NE(XPhi, nullptr);
  const std::vector<int64_t> &Seq = T.sequenceOf(XPhi);
  ASSERT_GE(Seq.size(), 3u);
  for (size_t H = 0; H < Seq.size(); ++H)
    EXPECT_EQ(Seq[H], int64_t(H));
}

TEST(InterpEdgeTest, DivisionByZeroVariants) {
  auto F = build("func f(a, b) { return a / b; }");
  ExecutionTrace T = run(*F, {0, 0});
  EXPECT_FALSE(T.ok());
  EXPECT_NE(T.Error.find("division by zero"), std::string::npos);
  EXPECT_FALSE(T.HitStepLimit) << "a fault is not a budget abort";
  // Zero numerator with nonzero divisor is fine.
  EXPECT_EQ(run(*F, {0, 5}).ReturnValue, 0);
}

TEST(InterpEdgeTest, DivisionMinByMinusOneWraps) {
  // The lone overflowing quotient wraps (two's complement) instead of
  // trapping, matching the other arithmetic ops.
  auto F = build("func f(a, b) { return a / b; }");
  ExecutionTrace T = run(*F, {INT64_MIN, -1});
  ASSERT_TRUE(T.ok()) << T.Error;
  EXPECT_EQ(T.ReturnValue, INT64_MIN);
}

TEST(InterpEdgeTest, SignedOverflowWraps) {
  // Add, Sub, Mul, and Neg all wrap as two's complement.
  auto FAdd = build("func f(a, b) { return a + b; }");
  EXPECT_EQ(run(*FAdd, {INT64_MAX, 1}).ReturnValue, INT64_MIN);
  auto FSub = build("func f(a, b) { return a - b; }");
  EXPECT_EQ(run(*FSub, {INT64_MIN, 1}).ReturnValue, INT64_MAX);
  auto FMul = build("func f(a, b) { return a * b; }");
  EXPECT_EQ(run(*FMul, {INT64_MAX, 2}).ReturnValue, -2);
  auto FNeg = build("func f(a) { return -a; }");
  EXPECT_EQ(run(*FNeg, {INT64_MIN}).ReturnValue, INT64_MIN);
}

TEST(InterpEdgeTest, ExponentOverflowWraps) {
  auto F = build("func f(a, b) { return a ^ b; }");
  // 2^63 wraps to INT64_MIN; 2^64 wraps to 0.
  EXPECT_EQ(run(*F, {2, 63}).ReturnValue, INT64_MIN);
  EXPECT_EQ(run(*F, {2, 64}).ReturnValue, 0);
  // In-range powers still exact.
  EXPECT_EQ(run(*F, {3, 5}).ReturnValue, 243);
  // Huge exponents finish at once (square-and-multiply) and follow from
  // arithmetic mod 2^64: odd units have order dividing 2^62, and
  // 3^(2^61) = 1 + 2^63.
  EXPECT_EQ(run(*F, {2, INT64_MAX}).ReturnValue, 0);
  EXPECT_EQ(run(*F, {3, int64_t(1) << 62}).ReturnValue, 1);
  EXPECT_EQ(run(*F, {3, int64_t(1) << 61}).ReturnValue, INT64_MIN + 1);
  EXPECT_EQ(run(*F, {-1, INT64_MAX}).ReturnValue, -1);
}

TEST(InterpEdgeTest, OverflowWrapInsideLoop) {
  // A geometric recurrence that overflows mid-run keeps executing with
  // wrapped values -- no abort, deterministic trace.
  auto F = build("func f(n) {"
                 "  g = 1;"
                 "  for L: i = 1 to n { g = g * 2 + 1; }"
                 "  return g;"
                 "}");
  ExecutionTrace T = run(*F, {70});
  ASSERT_TRUE(T.ok()) << T.Error;
  int64_t G = 1;
  for (int K = 0; K < 70; ++K)
    G = int64_t(uint64_t(G) * 2 + 1);
  EXPECT_EQ(T.ReturnValue, G);
}

//===----------------------------------------------------------------------===//
// Input checks that hold in every build (NDEBUG included).
//===----------------------------------------------------------------------===//

TEST(InterpEdgeTest, MissingArgumentValueFails) {
  auto F = build("func f(a, b) { return a + b; }");
  ExecutionTrace T = run(*F, {1});
  EXPECT_FALSE(T.ok());
  EXPECT_EQ(T.Error, "missing argument value");
  EXPECT_FALSE(T.ReturnValue.has_value());
  // An argument the run never reads may be left out.
  auto G = build("func f(a, b) { return a; }");
  EXPECT_EQ(run(*G, {7}).ReturnValue, 7);
}

TEST(InterpEdgeTest, SeedingUnknownArrayFails) {
  auto F = build("func f() { return A[5]; }");
  ExecutionTrace T = runWithArrays(*F, {}, {{"B", {{{5}, 99}}}});
  EXPECT_FALSE(T.ok());
  EXPECT_EQ(T.Error, "seeding unknown array B");
  EXPECT_EQ(T.Steps, 0u);
  EXPECT_FALSE(T.ReturnValue.has_value());
}

//===----------------------------------------------------------------------===//
// The value frame and trace are tables indexed by Instruction::seq().
//===----------------------------------------------------------------------===//

TEST(InterpFrameTest, InstructionAddedAfterRenumberingRuns) {
  // Materialized exit values are created after the last renumbering and
  // take a fresh seq past the dense range; they must run and be traced.
  auto F = build("func f(a) { x = a + 1; return x; }");
  const unsigned Bound = F->renumberInstructions();
  ir::Instruction *Ret = F->entry()->terminator();
  ASSERT_EQ(Ret->opcode(), ir::Opcode::Ret);
  ir::Instruction *Late = F->entry()->insertBeforeTerminator(
      F->newInstr(ir::Opcode::Mul, {Ret->operand(0), F->constant(10)}));
  Ret->setOperand(0, Late);
  EXPECT_EQ(Late->seq(), Bound);
  ExecutionTrace T = run(*F, {4});
  ASSERT_TRUE(T.ok()) << T.Error;
  EXPECT_EQ(T.ReturnValue, 50);
  EXPECT_EQ(T.sequenceOf(Late), std::vector<int64_t>{50});
}

TEST(InterpFrameTest, SequenceOfForeignInstructionIsEmpty) {
  // Two copies of one program number their instructions alike, so a
  // seq-indexed lookup alone would hand back the other copy's values.
  const char *Src = "func f(n) {"
                    "  s = 0;"
                    "  for L: i = 1 to n { s = s + i; }"
                    "  return s;"
                    "}";
  ssa::SSAInfo InfoA, InfoB;
  auto FA = makeSSA(Src, &InfoA);
  auto FB = makeSSA(Src, &InfoB);
  analysis::DominatorTree DTA(*FA), DTB(*FB);
  analysis::LoopInfo LIA(*FA, DTA), LIB(*FB, DTB);
  ir::Instruction *SA = InfoA.phiFor(LIA.byName("L")->header(), "s");
  ir::Instruction *SB = InfoB.phiFor(LIB.byName("L")->header(), "s");
  ASSERT_NE(SA, nullptr);
  ASSERT_NE(SB, nullptr);
  ASSERT_EQ(SA->seq(), SB->seq());
  ExecutionTrace T = run(*FA, {3});
  ASSERT_TRUE(T.ok()) << T.Error;
  EXPECT_EQ(T.sequenceOf(SA), (std::vector<int64_t>{0, 1, 3, 6}));
  EXPECT_TRUE(T.sequenceOf(SB).empty());
}

TEST(InterpFrameTest, ReadBeforeDefinitionFails) {
  // Make x read y, which is defined after it in the same block.
  auto F = build("func f(a) { x = a + 1; y = x * 2; return y; }");
  ir::Instruction *Ret = F->entry()->terminator();
  ASSERT_EQ(Ret->opcode(), ir::Opcode::Ret);
  auto *Y = ir::cast<ir::Instruction>(Ret->operand(0));
  auto *X = ir::cast<ir::Instruction>(Y->operand(0));
  X->setOperand(0, Y);
  ExecutionTrace T = run(*F, {1});
  EXPECT_FALSE(T.ok());
  EXPECT_EQ(T.Error, "read of value with no definition executed yet");
  EXPECT_TRUE(T.sequenceOf(X).empty());
}
