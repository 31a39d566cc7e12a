//===- analysis/DominatorTree.cpp - Dominance analyses ----------------------===//

#include "analysis/DominatorTree.h"
#include "support/Stats.h"
#include <algorithm>

using namespace biv;
using namespace biv::analysis;

DominatorTree::DominatorTree(const ir::Function &F) : F(F) {
  static const stats::Timer DomTreePhase("phase.domtree");
  stats::ScopedSpan Span(DomTreePhase);
  size_t N = F.numBlocks();
  IDom.assign(N, -1);
  RPONumber.assign(N, -1);
  Children.assign(N, {});

  // Reverse post order over reachable blocks only.
  for (ir::BasicBlock *BB : F.reversePostOrder()) {
    // reversePostOrder appends unreachable blocks; detect them by checking
    // reachability: entry is RPO[0]; anything after an unreachable block is
    // unreachable too.  Simplest: recompute reachability here.
    RPO.push_back(BB);
  }
  // Trim unreachable tail: recompute reachability.
  {
    std::vector<char> Reach(N, 0);
    std::vector<ir::BasicBlock *> Work{F.entry()};
    Reach[F.entry()->id()] = 1;
    while (!Work.empty()) {
      ir::BasicBlock *BB = Work.back();
      Work.pop_back();
      for (ir::BasicBlock *S : BB->successors())
        if (!Reach[S->id()]) {
          Reach[S->id()] = 1;
          Work.push_back(S);
        }
    }
    RPO.erase(std::remove_if(RPO.begin(), RPO.end(),
                             [&](ir::BasicBlock *BB) {
                               return !Reach[BB->id()];
                             }),
              RPO.end());
  }
  for (size_t I = 0; I < RPO.size(); ++I)
    RPONumber[RPO[I]->id()] = static_cast<int>(I);

  // Cooper-Harvey-Kennedy: iterate to a fixed point, intersecting the
  // dominator sets represented by idom pointers in RPO numbering.
  std::vector<int> Doms(RPO.size(), -1); // by RPO number
  Doms[0] = 0;                           // entry dominated by itself
  auto intersect = [&](int A, int B) {
    while (A != B) {
      while (A > B)
        A = Doms[A];
      while (B > A)
        B = Doms[B];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 1; I < RPO.size(); ++I) {
      ir::BasicBlock *BB = RPO[I];
      int NewIDom = -1;
      for (ir::BasicBlock *P : BB->predecessors()) {
        int PN = RPONumber[P->id()];
        if (PN < 0 || Doms[PN] < 0)
          continue; // unreachable or not yet processed
        NewIDom = NewIDom < 0 ? PN : intersect(PN, NewIDom);
      }
      assert(NewIDom >= 0 && "reachable block with no processed preds");
      if (Doms[I] != NewIDom) {
        Doms[I] = NewIDom;
        Changed = true;
      }
    }
  }
  for (size_t I = 1; I < RPO.size(); ++I) {
    ir::BasicBlock *Parent = RPO[Doms[I]];
    IDom[RPO[I]->id()] = static_cast<int>(Parent->id());
    Children[Parent->id()].push_back(RPO[I]);
  }

  // Preorder intervals of the tree, for constant-time dominance queries.
  TreeIn.assign(N, 0);
  TreeOut.assign(N, 0);
  unsigned Clock = 0;
  std::vector<std::pair<const ir::BasicBlock *, size_t>> Stack;
  TreeIn[F.entry()->id()] = Clock++;
  Stack.push_back({F.entry(), 0});
  while (!Stack.empty()) {
    auto &[BB, NextKid] = Stack.back();
    const std::vector<ir::BasicBlock *> &Kids = Children[BB->id()];
    if (NextKid == Kids.size()) {
      TreeOut[BB->id()] = Clock;
      Stack.pop_back();
      continue;
    }
    const ir::BasicBlock *Kid = Kids[NextKid++];
    TreeIn[Kid->id()] = Clock++;
    Stack.push_back({Kid, 0});
  }
}

ir::BasicBlock *DominatorTree::idom(const ir::BasicBlock *BB) const {
  int Id = IDom[BB->id()];
  return Id < 0 ? nullptr : F.blocks()[Id];
}

bool DominatorTree::dominates(const ir::BasicBlock *A,
                              const ir::BasicBlock *B) const {
  if (!isReachable(A) || !isReachable(B))
    return false;
  return TreeIn[A->id()] <= TreeIn[B->id()] &&
         TreeIn[B->id()] < TreeOut[A->id()];
}

bool DominatorTree::properlyDominates(const ir::BasicBlock *A,
                                      const ir::BasicBlock *B) const {
  return A != B && dominates(A, B);
}

bool DominatorTree::dominates(const ir::Instruction *Def,
                              const ir::Instruction *I) const {
  const ir::BasicBlock *DefBB = Def->parent();
  const ir::BasicBlock *UseBB = I->parent();
  assert(DefBB && UseBB && "instruction without parent");
  if (DefBB != UseBB)
    return properlyDominates(DefBB, UseBB);
  if (Def == I)
    return false;
  // Same block: compare positions; phis count as defined at the top.
  if (Def->isPhi() && !I->isPhi())
    return true;
  if (!Def->isPhi() && I->isPhi())
    return false;
  for (const ir::Instruction *Inst : *DefBB) {
    if (Inst == Def)
      return true;
    if (Inst == I)
      return false;
  }
  assert(false && "instructions not found in their parent block");
  return false;
}

const std::vector<ir::BasicBlock *> &
DominatorTree::children(const ir::BasicBlock *BB) const {
  return Children[BB->id()];
}

DominanceFrontier::DominanceFrontier(const DominatorTree &DT) {
  const ir::Function &F = DT.function();
  const size_t N = F.numBlocks();
  // Accumulate per-block frontiers as head-linked chains in one pool, then
  // flatten to CSR: a handful of allocations total instead of one vector
  // per block (this sits on the per-unit SSA hot path).
  constexpr uint32_t NoEntry = ~uint32_t(0);
  std::vector<uint32_t> Head(N, NoEntry);
  std::vector<std::pair<ir::BasicBlock *, uint32_t>> Pool; // (member, prev)
  for (ir::BasicBlock *BB : DT.rpo()) {
    if (BB->predecessors().size() < 2)
      continue;
    ir::BasicBlock *IDom = DT.idom(BB);
    for (ir::BasicBlock *P : BB->predecessors())
      for (ir::BasicBlock *Runner = P; Runner && Runner != IDom;
           Runner = DT.idom(Runner)) {
        uint32_t &H = Head[Runner->id()];
        // All entries for one BB are appended consecutively, so a duplicate
        // can only be the chain head.
        if (H != NoEntry && Pool[H].first == BB)
          continue;
        Pool.push_back({BB, H});
        H = uint32_t(Pool.size() - 1);
      }
  }
  Start.assign(N + 1, 0);
  for (size_t B = 0; B < N; ++B)
    for (uint32_t E = Head[B]; E != NoEntry; E = Pool[E].second)
      ++Start[B + 1];
  for (size_t B = 0; B < N; ++B)
    Start[B + 1] += Start[B];
  Flat.resize(Pool.size());
  // Chains are LIFO; fill each segment backwards to restore append order.
  for (size_t B = 0; B < N; ++B) {
    uint32_t At = Start[B + 1];
    for (uint32_t E = Head[B]; E != NoEntry; E = Pool[E].second)
      Flat[--At] = Pool[E].first;
  }
}
