//===- ir/Verifier.cpp - Structural IR verification -------------------------===//

#include "ir/Verifier.h"
#include "ir/Printer.h"
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace biv::ir;

std::vector<std::string> biv::ir::verify(const Function &F) {
  std::vector<std::string> Problems;

  if (F.numBlocks() == 0) {
    Problems.push_back("function has no blocks");
    return Problems;
  }

  // This runs on every unit's hot path (twice: raw IR and post-SSA), so the
  // happy path must not allocate per instruction.  Error messages, including
  // the "block X: " prefix, are built only when a problem is found.
  auto problem = [&](const BasicBlock *BB, const char *Msg) {
    Problems.push_back("block " + std::string(BB->name()) + ": " + Msg);
  };

  // Membership test for "defined in this function": instruction sequence
  // numbers are unique within a function (monotonic allocation, dense after
  // renumbering), so a seq-indexed pointer table replaces the pointer set.
  std::vector<const Instruction *> BySeq(F.instrSeqBound(), nullptr);
  for (const BasicBlock *BB : F.blocks())
    for (const Instruction *I : *BB)
      BySeq[I->seq()] = I;
  auto defined = [&](const Value *V) {
    const auto *I = cast<Instruction>(V);
    return I->seq() < BySeq.size() && BySeq[I->seq()] == I;
  };

  // Membership test for "block of this function": a sorted table of the
  // function's block pointers, so a branch target is found by binary search
  // and never dereferenced.
  std::vector<const BasicBlock *> Blocks(F.blocks().begin(), F.blocks().end());
  std::sort(Blocks.begin(), Blocks.end());

  // Sort scratch reused across phis (allocates once, not per phi).
  std::vector<const BasicBlock *> IncomingScratch, PredScratch;

  for (const BasicBlock *BB : F.blocks()) {
    if (BB->empty()) {
      problem(BB, "is empty");
      continue;
    }
    // Exactly one terminator, at the end.
    for (size_t Idx = 0; Idx < BB->size(); ++Idx) {
      const Instruction *I = BB->instructions()[Idx];
      bool Last = Idx + 1 == BB->size();
      if (I->isTerminator() != Last)
        problem(BB, Last ? "does not end in a terminator"
                         : "terminator not at end of block");
      if (I->parent() != BB)
        problem(BB, "instruction with wrong parent link");
    }
    // Phis grouped at the top, one incoming per predecessor.
    bool SeenNonPhi = false;
    for (const Instruction *I : *BB) {
      if (!I->isPhi()) {
        SeenNonPhi = true;
        continue;
      }
      if (SeenNonPhi)
        problem(BB, "phi after non-phi instruction");
      if (I->numOperands() != I->blocks().size())
        problem(BB, "phi operand/block count mismatch");
      IncomingScratch.assign(I->blocks().begin(), I->blocks().end());
      PredScratch.assign(BB->predecessors().begin(),
                         BB->predecessors().end());
      std::sort(IncomingScratch.begin(), IncomingScratch.end());
      std::sort(PredScratch.begin(), PredScratch.end());
      if (IncomingScratch != PredScratch)
        problem(BB, "phi incoming blocks do not match predecessors");
    }
    // Operand sanity.
    for (const Instruction *I : *BB)
      for (const Value *Op : I->operands()) {
        if (!Op) {
          problem(BB, "null operand");
          continue;
        }
        if (isa<Instruction>(Op) && !defined(Op))
          problem(BB, "operand not defined in this function");
      }
    // Branch targets must be blocks of this function.
    if (const Instruction *T = BB->terminator())
      for (const BasicBlock *Succ : T->blocks())
        if (!std::binary_search(Blocks.begin(), Blocks.end(), Succ))
          problem(BB, "branch to block outside the function");
  }
  return Problems;
}

void biv::ir::verifyOrDie(const Function &F) {
  std::vector<std::string> Problems = verify(F);
  if (Problems.empty())
    return;
  std::fprintf(stderr, "IR verification failed for %s:\n", F.name().c_str());
  for (const std::string &P : Problems)
    std::fprintf(stderr, "  %s\n", P.c_str());
  std::fprintf(stderr, "%s", toString(F).c_str());
  abort();
}
