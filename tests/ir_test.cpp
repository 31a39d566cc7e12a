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
  // The print of a lowered function is the analysis cache's key (DESIGN.md
  // section 9): a printer edit that moves one byte of any form re-keys
  // every cache entry, so every form is pinned here byte for byte.
  Function F("forms");
  BasicBlock *Entry = F.createBlock("entry");
  BasicBlock *Header = F.createBlock("L.header");
  BasicBlock *Body = F.createBlock("L.body");
  BasicBlock *Done = F.createBlock("done");
  BasicBlock *Early = F.createBlock("early");
  Argument *N = F.addArgument("n");
  Argument *M = F.addArgument("m");
  Var *X = F.getOrCreateVar("x");
  Array *A = F.getOrCreateArray("A", 2);
  IRBuilder B(F, Entry);
  Instruction *Load = B.loadVar(X);
  B.storeVar(X, B.add(Load, B.constInt(-3), "s"));
  B.condBr(B.binary(Opcode::CmpLT, N, M), Header, Early);
  B.setInsertBlock(Header);
  Instruction *I = B.phi("i");
  Instruction *Acc = B.phi();
  B.condBr(B.binary(Opcode::CmpLE, I, N), Body, Done);
  B.setInsertBlock(Body);
  Instruction *Elt = B.arrayLoad(A, {I, B.neg(M)});
  B.arrayStore(A, {I, B.constInt(1)}, B.mul(Elt, F.undef()));
  Instruction *Next = B.add(I, B.constInt(1), "i.next");
  B.br(Header);
  I->addIncoming(B.constInt(1), Entry);
  I->addIncoming(Next, Body);
  Acc->addIncoming(F.undef(), Entry);
  Acc->addIncoming(Elt, Body);
  B.setInsertBlock(Done);
  B.ret(Acc);
  B.setInsertBlock(Early);
  B.ret();
  F.recomputePreds();
  EXPECT_EQ(toString(F), "func forms(n, m) {\n"
                        "entry:\n"
                        "  %x = loadvar @x\n"
                        "  %s = add %x, -3\n"
                        "  storevar @x, %s\n"
                        "  %t1 = cmplt n, m\n"
                        "  condbr %t1, L.header, early\n"
                        "L.header:  ; preds: entry L.body\n"
                        "  %i = phi [1, entry], [%i.next, L.body]\n"
                        "  %t3 = phi [undef, entry], [%t7, L.body]\n"
                        "  %t4 = cmple %i, n\n"
                        "  condbr %t4, L.body, done\n"
                        "L.body:  ; preds: L.header\n"
                        "  %t6 = neg m\n"
                        "  %t7 = aload A[%i, %t6]\n"
                        "  %t8 = mul %t7, undef\n"
                        "  astore A[%i, 1], %t8\n"
                        "  %i.next = add %i, 1\n"
                        "  br L.header\n"
                        "done:  ; preds: L.header\n"
                        "  ret %t3\n"
                        "early:  ; preds: entry\n"
                        "  ret\n"
                        "}\n");
  // One line, and one operand, at a time.
  Printer P(F);
  EXPECT_EQ(P.str(Acc), "%t3 = phi [undef, entry], [%t7, L.body]");
  EXPECT_EQ(P.nameOf(Elt), "%t7");
  EXPECT_EQ(P.nameOf(N), "n");
  EXPECT_EQ(P.nameOf(F.constant(-3)), "-3");
}

TEST(IRTest, PrinterNeverSpellsANameLikeATempOrUndef) {
  // The print is the cache key, so two functions must never print alike: a
  // value named like a temp and an argument named undef are quoted.  A name
  // no temp could have keeps its plain spelling.
  Function F("f");
  BasicBlock *BB = F.createBlock("entry");
  Argument *U = F.addArgument("undef");
  IRBuilder B(F, BB);
  Instruction *T0 = B.add(U, F.undef());
  Instruction *Named = B.add(T0, B.constInt(1), "t0");
  B.ret(B.add(Named, B.add(Named, U, "t01"), "t"));
  EXPECT_EQ(toString(F), "func f(undef) {\n"
                         "entry:\n"
                         "  %t0 = add \"undef\", undef\n"
                         "  %\"t0\" = add %t0, 1\n"
                         "  %t01 = add %\"t0\", \"undef\"\n"
                         "  %t = add %\"t0\", %t01\n"
                         "  ret %t\n"
                         "}\n");
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
