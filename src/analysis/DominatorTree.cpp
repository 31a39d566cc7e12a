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

PostDominatorTree::PostDominatorTree(const ir::Function &F) : F(F) {
  size_t N = F.numBlocks();
  IPDom.assign(N + 1, -1);
  Level.assign(N + 1, 0);
  HasNode.assign(N + 1, 0);
  const int Virtual = static_cast<int>(N);
  HasNode[Virtual] = 1;

  // Post order on the reverse CFG from the virtual exit.
  std::vector<int> RPONum(N + 1, -1);
  std::vector<ir::BasicBlock *> Order; // reverse-CFG RPO, excluding virtual
  {
    std::vector<char> Visited(N, 0);
    std::vector<ir::BasicBlock *> Post;
    // Iterative DFS over reverse edges, rooted at every exit block.
    struct Frame {
      ir::BasicBlock *BB;
      std::span<ir::BasicBlock *const> Preds;
      size_t Next = 0;
    };
    std::vector<Frame> Stack;
    // Blocks ending in Ret (no successors) are the exits.
    for (ir::BasicBlock *BB : F.blocks()) {
      if (!BB->successors().empty())
        continue;
      if (Visited[BB->id()])
        continue;
      Visited[BB->id()] = 1;
      Stack.push_back({BB, BB->predecessors()});
      while (!Stack.empty()) {
        Frame &Fr = Stack.back();
        if (Fr.Next == Fr.Preds.size()) {
          Post.push_back(Fr.BB);
          Stack.pop_back();
          continue;
        }
        ir::BasicBlock *P = Fr.Preds[Fr.Next++];
        if (!Visited[P->id()]) {
          Visited[P->id()] = 1;
          Stack.push_back({P, P->predecessors()});
        }
      }
    }
    Order.assign(Post.rbegin(), Post.rend());
  }
  RPONum[Virtual] = 0;
  for (size_t I = 0; I < Order.size(); ++I) {
    RPONum[Order[I]->id()] = static_cast<int>(I) + 1;
    HasNode[Order[I]->id()] = 1;
  }

  // CHK on the reverse graph; Doms indexed by reverse-RPO number.
  std::vector<int> Doms(Order.size() + 1, -1);
  Doms[0] = 0;
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
    for (size_t I = 0; I < Order.size(); ++I) {
      ir::BasicBlock *BB = Order[I];
      int MyNum = static_cast<int>(I) + 1;
      int NewIdom = -1;
      // Reverse-graph predecessors are CFG successors; exits also have the
      // virtual node as a predecessor.
      std::span<ir::BasicBlock *const> Succs = BB->successors();
      if (Succs.empty())
        NewIdom = 0;
      for (ir::BasicBlock *S : Succs) {
        int SN = RPONum[S->id()];
        if (SN < 0 || Doms[SN] < 0)
          continue;
        NewIdom = NewIdom < 0 ? SN : intersect(SN, NewIdom);
      }
      if (NewIdom >= 0 && Doms[MyNum] != NewIdom) {
        Doms[MyNum] = NewIdom;
        Changed = true;
      }
    }
  }

  // Translate back to block ids and compute levels.
  std::vector<int> NumToId(Order.size() + 1, Virtual);
  for (size_t I = 0; I < Order.size(); ++I)
    NumToId[I + 1] = static_cast<int>(Order[I]->id());
  for (size_t I = 0; I < Order.size(); ++I) {
    int D = Doms[I + 1];
    IPDom[Order[I]->id()] = D < 0 ? -1 : NumToId[D];
  }
  // Levels via repeated walking (graphs are small).
  for (size_t I = 0; I < Order.size(); ++I) {
    int Cur = static_cast<int>(Order[I]->id());
    int L = 0;
    while (Cur != Virtual && Cur >= 0) {
      Cur = IPDom[Cur];
      ++L;
    }
    Level[Order[I]->id()] = L;
  }
}

bool PostDominatorTree::postDominates(const ir::BasicBlock *A,
                                      const ir::BasicBlock *B) const {
  if (!HasNode[A->id()] || !HasNode[B->id()])
    return false;
  int Target = static_cast<int>(A->id());
  int Cur = static_cast<int>(B->id());
  const int Virtual = static_cast<int>(F.numBlocks());
  while (Cur >= 0 && Cur != Virtual) {
    if (Cur == Target)
      return true;
    Cur = IPDom[Cur];
  }
  return false;
}
