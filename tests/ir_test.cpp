//===- tests/ir_test.cpp - IR layer unit tests --------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include <gtest/gtest.h>

using namespace biv::ir;

TEST(IRTest, ConstantsAreUniqued) {
  Function F("f");
  EXPECT_EQ(F.constant(42), F.constant(42));
  EXPECT_NE(F.constant(42), F.constant(43));
  EXPECT_EQ(F.constant(42)->value(), 42);
}

TEST(IRTest, VarsAndArraysByName) {
  Function F("f");
  Var *V = F.getOrCreateVar("x");
  EXPECT_EQ(F.getOrCreateVar("x"), V);
  EXPECT_EQ(F.findVar("x"), V);
  EXPECT_EQ(F.findVar("y"), nullptr);
  Array *A = F.getOrCreateArray("A", 2);
  EXPECT_EQ(A->rank(), 2u);
  EXPECT_EQ(F.getOrCreateArray("A", 2), A);
}

TEST(IRTest, UniqueNames) {
  Function F("f");
  EXPECT_EQ(F.uniqueName("x"), "x");
  EXPECT_EQ(F.uniqueName("x"), "x.1");
  EXPECT_EQ(F.uniqueName("x"), "x.2");
  EXPECT_EQ(F.uniqueName("y"), "y");
}

TEST(IRTest, ValueCasts) {
  Function F("f");
  Value *C = F.constant(1);
  Argument *A = F.addArgument("n");
  EXPECT_TRUE(isa<Constant>(C));
  EXPECT_FALSE(isa<Argument>(C));
  EXPECT_NE(dyn_cast<Argument>(static_cast<Value *>(A)), nullptr);
  EXPECT_EQ(dyn_cast<Constant>(static_cast<Value *>(A)), nullptr);
  EXPECT_EQ(cast<Constant>(C)->value(), 1);
}

namespace {

/// Builds: entry -> (then | else) -> join -> ret.
struct Diamond {
  Function F{"diamond"};
  BasicBlock *Entry, *Then, *Else, *Join;

  Diamond() {
    Entry = F.createBlock("entry");
    Then = F.createBlock("then");
    Else = F.createBlock("else");
    Join = F.createBlock("join");
    IRBuilder B(F, Entry);
    Argument *N = F.addArgument("n");
    Instruction *Cmp = B.binary(Opcode::CmpGT, N, B.constInt(0));
    B.condBr(Cmp, Then, Else);
    B.setInsertBlock(Then);
    B.br(Join);
    B.setInsertBlock(Else);
    B.br(Join);
    B.setInsertBlock(Join);
    B.ret(N);
    F.recomputePreds();
  }
};

} // namespace

TEST(IRTest, CFGEdges) {
  Diamond D;
  EXPECT_EQ(D.Entry->successors().size(), 2u);
  EXPECT_EQ(D.Join->predecessors().size(), 2u);
  EXPECT_EQ(D.Join->successors().size(), 0u);
  EXPECT_NE(D.Entry->terminator(), nullptr);
}

TEST(IRTest, ReversePostOrder) {
  Diamond D;
  std::vector<BasicBlock *> RPO = D.F.reversePostOrder();
  ASSERT_EQ(RPO.size(), 4u);
  EXPECT_EQ(RPO.front(), D.Entry);
  EXPECT_EQ(RPO.back(), D.Join);
}

TEST(IRTest, VerifierAcceptsWellFormed) {
  Diamond D;
  EXPECT_TRUE(verify(D.F).empty());
}

TEST(IRTest, VerifierCatchesMissingTerminator) {
  Function F("bad");
  BasicBlock *BB = F.createBlock("entry");
  IRBuilder B(F, BB);
  B.add(F.constant(1), F.constant(2));
  F.recomputePreds();
  std::vector<std::string> Problems = verify(F);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("terminator"), std::string::npos);
}

TEST(IRTest, VerifierCatchesPhiPredMismatch) {
  Diamond D;
  // A phi in Join with only one incoming.
  Instruction *Phi = D.F.newInstr(Opcode::Phi, {}, "p");
  Phi->addIncoming(D.F.constant(1), D.Then);
  D.Join->insertAt(0, Phi);
  std::vector<std::string> Problems = verify(D.F);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("phi"), std::string::npos);
}

TEST(IRTest, VerifierCatchesPhiAfterNonPhi) {
  Diamond D;
  // Sneak an add before the phi inside Join.
  Instruction *Add =
      D.F.newInstr(Opcode::Add, {D.F.constant(1), D.F.constant(2)}, "x");
  D.Join->insertAt(0, Add);
  Instruction *Phi = D.F.newInstr(Opcode::Phi, {}, "p");
  Phi->addIncoming(D.F.constant(1), D.Then);
  Phi->addIncoming(D.F.constant(2), D.Else);
  D.Join->insertAt(1, Phi);
  std::vector<std::string> Problems = verify(D.F);
  bool Found = false;
  for (const std::string &P : Problems)
    Found |= P.find("phi after non-phi") != std::string::npos;
  EXPECT_TRUE(Found);
}

TEST(IRTest, VerifierCatchesBranchIntoAnotherFunction) {
  Diamond D;
  Function Other("other");
  BasicBlock *Foreign = Other.createBlock("foreign");
  IRBuilder(Other, Foreign).ret();
  // Retarget Then's branch from Join to a block Other owns.
  D.Then->terminator()->setBlock(0, Foreign);
  std::vector<std::string> Problems = verify(D.F);
  bool Found = false;
  for (const std::string &P : Problems)
    Found |= P == "block then: branch to block outside the function";
  EXPECT_TRUE(Found);
}

TEST(IRTest, RemoveUnreachableBlocks) {
  Diamond D;
  BasicBlock *Dead = D.F.createBlock("dead");
  IRBuilder B(D.F, Dead);
  B.br(D.Join); // dead -> join adds a phi-less edge
  D.F.recomputePreds();
  EXPECT_EQ(D.F.numBlocks(), 5u);
  unsigned Removed = D.F.removeUnreachableBlocks();
  EXPECT_EQ(Removed, 1u);
  EXPECT_EQ(D.F.numBlocks(), 4u);
  // Ids are dense again.
  for (size_t I = 0; I < D.F.numBlocks(); ++I)
    EXPECT_EQ(D.F.blocks()[I]->id(), I);
  EXPECT_TRUE(verify(D.F).empty());
}

TEST(IRTest, RemoveUnreachablePrunesPhiIncomings) {
  Diamond D;
  BasicBlock *Dead = D.F.createBlock("dead");
  IRBuilder B(D.F, Dead);
  B.br(D.Join);
  Instruction *Phi = D.F.newInstr(Opcode::Phi, {}, "p");
  Phi->addIncoming(D.F.constant(1), D.Then);
  Phi->addIncoming(D.F.constant(2), D.Else);
  Phi->addIncoming(D.F.constant(3), Dead);
  Instruction *P = D.Join->insertAt(0, Phi);
  D.F.recomputePreds();
  D.F.removeUnreachableBlocks();
  EXPECT_EQ(P->numOperands(), 2u);
  EXPECT_TRUE(verify(D.F).empty());
}

TEST(IRTest, ReplaceAllUsesWith) {
  Function F("f");
  BasicBlock *BB = F.createBlock("entry");
  IRBuilder B(F, BB);
  Instruction *X = B.add(F.constant(1), F.constant(2), "x");
  Instruction *Y = B.add(X, X, "y");
  B.ret(Y);
  F.replaceAllUsesWith(X, F.constant(3));
  EXPECT_EQ(Y->operand(0), F.constant(3));
  EXPECT_EQ(Y->operand(1), F.constant(3));
}

TEST(IRTest, InsertBeforeTerminatorAndTake) {
  Function F("f");
  BasicBlock *BB = F.createBlock("entry");
  IRBuilder B(F, BB);
  B.ret();
  Instruction *I =
      F.newInstr(Opcode::Add, {F.constant(1), F.constant(2)}, "x");
  Instruction *X = BB->insertBeforeTerminator(I);
  EXPECT_EQ(BB->size(), 2u);
  EXPECT_EQ(BB->instructions()[0], X);
  Instruction *Taken = BB->take(X);
  EXPECT_EQ(BB->size(), 1u);
  EXPECT_EQ(Taken->parent(), nullptr);
}

TEST(IRTest, PrinterRendersAllForms) {
  Diamond D;
  std::string S = toString(D.F);
  EXPECT_NE(S.find("func diamond(n)"), std::string::npos);
  EXPECT_NE(S.find("condbr"), std::string::npos);
  EXPECT_NE(S.find("ret n"), std::string::npos);
  EXPECT_NE(S.find("preds:"), std::string::npos);
}

TEST(IRTest, OpcodePredicates) {
  EXPECT_TRUE(isTerminator(Opcode::Ret));
  EXPECT_TRUE(isTerminator(Opcode::CondBr));
  EXPECT_FALSE(isTerminator(Opcode::Add));
  EXPECT_TRUE(isCompare(Opcode::CmpLE));
  EXPECT_FALSE(isCompare(Opcode::Sub));
  EXPECT_TRUE(isBinaryArith(Opcode::Exp));
  EXPECT_FALSE(isBinaryArith(Opcode::Phi));
  EXPECT_STREQ(opcodeName(Opcode::ArrayLoad), "aload");
}

TEST(IRTest, PhiIncomingAccessors) {
  Diamond D;
  Instruction *Phi = D.F.newInstr(Opcode::Phi, {}, "p");
  Phi->addIncoming(D.F.constant(1), D.Then);
  Phi->addIncoming(D.F.constant(2), D.Else);
  Instruction *P = D.Join->insertAt(0, Phi);
  EXPECT_EQ(P->incomingFor(D.Then), D.F.constant(1));
  EXPECT_EQ(P->incomingFor(D.Else), D.F.constant(2));
  P->removeIncoming(0);
  EXPECT_EQ(P->numOperands(), 1u);
  EXPECT_EQ(P->incomingFor(D.Else), D.F.constant(2));
}
