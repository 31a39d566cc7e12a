//===- ssa/SSABuilder.cpp - SSA construction ---------------------------------===//

#include "ssa/SSABuilder.h"
#include "support/Stats.h"
#include <cstdint>
#include <utility>
#include <vector>

using namespace biv;
using namespace biv::ssa;

ir::Instruction *SSAInfo::phiFor(const ir::BasicBlock *BB,
                                 std::string_view VarName) const {
  for (ir::Instruction *Phi : BB->phis())
    if (const ir::Var *V = Phi->variable())
      if (V->name() == VarName)
        return Phi;
  return nullptr;
}

namespace {

class Builder {
public:
  explicit Builder(ir::Function &F)
      : F(F), DT(F), DF(DT) {}

  SSAInfo run();

private:
  void placePhis();
  /// Renames over the dominator tree in preorder, with an explicit stack:
  /// the tree is as deep as the function is long for sibling loops.
  void rename();
  /// The part of the walk local to \p BB: its own definitions and the phi
  /// operands of its successors.
  void renameBlock(ir::BasicBlock *BB);

  ir::Value *currentDef(const ir::Var *V) {
    const uint32_t H = Head[V->id()];
    return H == NoDef ? F.undef() : StackVal[H];
  }

  /// Follows the replacement chain for a deleted LoadVar result.
  ir::Value *resolve(ir::Value *V) {
    while (const auto *I = ir::dyn_cast<ir::Instruction>(V)) {
      if (I->seq() >= RepBySeq.size())
        break;
      ir::Value *R = RepBySeq[I->seq()];
      if (!R)
        break;
      V = R;
    }
    return V;
  }

  ir::Function &F;
  analysis::DominatorTree DT;
  analysis::DominanceFrontier DF;
  SSAInfo Info;

  /// Reaching-definition stacks for every var share one pool: StackVal[E]
  /// is a definition, StackPrev[E] the previous definition of the same var,
  /// Head[var id] the top of that var's stack.  One growing pool instead of
  /// a heap vector per variable.
  static constexpr uint32_t NoDef = ~uint32_t(0);
  std::vector<ir::Value *> StackVal;
  std::vector<uint32_t> StackPrev;
  std::vector<uint32_t> Head;
  /// LoadVar replacement, indexed by Instruction::seq() (renumbered after
  /// phi placement; erasure is deferred so seqs stay dense during rename).
  std::vector<ir::Value *> RepBySeq;
  /// Undo log for the rename walk: (var id, head entry to restore).  Each
  /// frame saves a var at most once, tracked by SavedFrame stamps -- a stale
  /// stamp only costs a redundant (still correct) undo entry.
  std::vector<std::pair<uint32_t, uint32_t>> Undo;
  std::vector<unsigned> SavedFrame;
  unsigned FrameCounter = 0;

  std::vector<ir::Instruction *> ToErase;
};

SSAInfo Builder::run() {
  placePhis();
  // Give the phis seqs too; RepBySeq and the SCCP tables index off this
  // numbering until the pipeline renumbers again after erasure.
  F.renumberInstructions();
  RepBySeq.assign(F.instrSeqBound(), nullptr);
  Head.assign(F.vars().size(), NoDef);
  SavedFrame.assign(F.vars().size(), 0);
  rename();
  // Delete the now-dead variable accesses in one compaction per block (the
  // loads and stores of a big block all die at once; per-instruction erase
  // would shift the tail per call).
  if (!ToErase.empty()) {
    std::vector<uint8_t> DeadBySeq(F.instrSeqBound(), 0);
    for (ir::Instruction *I : ToErase)
      DeadBySeq[I->seq()] = 1;
    for (ir::BasicBlock *BB : F.blocks())
      BB->removeInstrsIf(
          [&](const ir::Instruction *I) { return DeadBySeq[I->seq()] != 0; });
  }
  return std::move(Info);
}

void Builder::placePhis() {
  const size_t NumVars = F.vars().size();
  const size_t NumBlocks = F.numBlocks();
  if (!NumVars || !NumBlocks)
    return;

  // Store sites per var in CSR form: for each var, the distinct blocks
  // containing a StoreVar of it, in block order.  One pass to count, one to
  // fill; consecutive stores to the same var in one block dedupe via Last.
  std::vector<uint32_t> Start(NumVars + 1, 0);
  std::vector<uint32_t> Last(NumVars, ~uint32_t(0));
  for (const ir::BasicBlock *BB : F.blocks())
    for (const ir::Instruction *I : *BB)
      if (I->opcode() == ir::Opcode::StoreVar &&
          Last[I->variable()->id()] != BB->id()) {
        Last[I->variable()->id()] = BB->id();
        ++Start[I->variable()->id() + 1];
      }
  for (size_t V = 0; V < NumVars; ++V)
    Start[V + 1] += Start[V];
  std::vector<ir::BasicBlock *> StoreBlocks(Start[NumVars]);
  std::vector<uint32_t> Fill(Start.begin(), Start.end() - 1);
  Last.assign(NumVars, ~uint32_t(0));
  for (ir::BasicBlock *BB : F.blocks())
    for (const ir::Instruction *I : *BB)
      if (I->opcode() == ir::Opcode::StoreVar &&
          Last[I->variable()->id()] != BB->id()) {
        Last[I->variable()->id()] = BB->id();
        StoreBlocks[Fill[I->variable()->id()]++] = BB;
      }

  // Iterated dominance frontier per variable, seeded by its store blocks.
  // HasStore/HasPhi are epoch stamps (one epoch per var) over block ids.
  std::vector<uint32_t> StoreStamp(NumBlocks, 0), PhiStamp(NumBlocks, 0);
  // Insertion index for the next phi per block: phis() rescans the block
  // top on every call, which is quadratic when one header collects a phi
  // per variable, so the count is tracked here instead.
  std::vector<uint32_t> NumPhis(NumBlocks, 0);
  for (ir::BasicBlock *BB : F.blocks())
    NumPhis[BB->id()] = uint32_t(BB->phis().size());
  std::vector<ir::BasicBlock *> Work;
  for (size_t VI = 0; VI < NumVars; ++VI) {
    ir::Var *V = F.vars()[VI];
    const uint32_t Epoch = uint32_t(VI) + 1;
    Work.clear();
    for (uint32_t S = Start[VI]; S < Start[VI + 1]; ++S) {
      StoreStamp[StoreBlocks[S]->id()] = Epoch;
      Work.push_back(StoreBlocks[S]);
    }
    while (!Work.empty()) {
      ir::BasicBlock *BB = Work.back();
      Work.pop_back();
      for (ir::BasicBlock *Frontier : DF.frontier(BB)) {
        if (PhiStamp[Frontier->id()] == Epoch)
          continue;
        PhiStamp[Frontier->id()] = Epoch;
        ir::Instruction *P =
            F.newInstr(ir::Opcode::Phi, {}, F.uniqueName(V->name()));
        Frontier->insertAt(NumPhis[Frontier->id()]++, P);
        P->setVariable(V);
        ++Info.PhisPlaced;
        // A phi is itself a definition; keep iterating.
        if (StoreStamp[Frontier->id()] != Epoch) {
          StoreStamp[Frontier->id()] = Epoch;
          Work.push_back(Frontier);
        }
      }
    }
  }
}

void Builder::rename() {
  struct Visit {
    ir::BasicBlock *BB;
    size_t UndoMark; // Undo depth to pop back to on the way out
    size_t NextChild;
  };
  std::vector<Visit> Stack;
  auto enter = [&](ir::BasicBlock *BB) {
    Stack.push_back({BB, Undo.size(), 0});
    renameBlock(BB);
  };
  enter(F.entry());
  while (!Stack.empty()) {
    Visit &Top = Stack.back();
    const std::vector<ir::BasicBlock *> &Kids = DT.children(Top.BB);
    if (Top.NextChild < Kids.size()) {
      enter(Kids[Top.NextChild++]);
      continue;
    }
    while (Undo.size() > Top.UndoMark) {
      auto [VarId, OldHead] = Undo.back();
      Undo.pop_back();
      Head[VarId] = OldHead;
    }
    Stack.pop_back();
  }
}

void Builder::renameBlock(ir::BasicBlock *BB) {
  const unsigned Frame = ++FrameCounter;
  auto pushDef = [&](const ir::Var *V, ir::Value *Def) {
    if (SavedFrame[V->id()] != Frame) {
      SavedFrame[V->id()] = Frame;
      Undo.emplace_back(V->id(), Head[V->id()]);
    }
    StackVal.push_back(Def);
    StackPrev.push_back(Head[V->id()]);
    Head[V->id()] = uint32_t(StackVal.size() - 1);
  };

  for (ir::Instruction *I : *BB) {
    // Rewrite operands through pending load replacements first.  Phi
    // operands are filled in by predecessors and must not be rewritten here.
    if (!I->isPhi())
      for (unsigned Idx = 0; Idx < I->numOperands(); ++Idx)
        I->setOperand(Idx, resolve(I->operand(Idx)));

    switch (I->opcode()) {
    case ir::Opcode::Phi:
      if (const ir::Var *V = I->variable())
        pushDef(V, I);
      break;
    case ir::Opcode::LoadVar:
      RepBySeq[I->seq()] = currentDef(I->variable());
      ToErase.push_back(I);
      break;
    case ir::Opcode::StoreVar:
      pushDef(I->variable(), I->operand(0));
      ToErase.push_back(I);
      break;
    default:
      break;
    }
  }

  // Fill phi operands of successors with the defs reaching this edge.
  for (ir::BasicBlock *Succ : BB->successors())
    for (ir::Instruction *Phi : Succ->phis())
      if (const ir::Var *V = Phi->variable())
        Phi->addIncoming(currentDef(V), BB);
}

} // namespace

SSAInfo biv::ssa::buildSSA(ir::Function &F) {
  static const stats::Timer SSAPhase("phase.ssa");
  static const stats::Counter NumPhisPlaced("ssa.phis_placed");
  stats::ScopedSpan Span(SSAPhase);
  F.recomputePreds();
  SSAInfo Info = Builder(F).run();
  NumPhisPlaced.bump(Info.PhisPlaced);
  return Info;
}
