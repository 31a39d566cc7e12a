//===- analysis/LoopInfo.cpp - Natural loop nest ----------------------------===//

#include "analysis/LoopInfo.h"
#include "support/Stats.h"
#include <algorithm>

using namespace biv;
using namespace biv::analysis;

/// Derives the printable loop name from its header block name: "L18.header"
/// becomes "L18"; anything else is used as is.
static std::string loopNameFromHeader(const ir::BasicBlock *Header) {
  std::string_view N = Header->name();
  size_t Dot = N.rfind(".header");
  if (Dot != std::string_view::npos)
    return std::string(N.substr(0, Dot));
  return std::string(N);
}

LoopInfo::LoopInfo(const ir::Function &F, const DominatorTree &DT) : F(F) {
  static const stats::Timer LoopInfoPhase("phase.loopinfo");
  stats::ScopedSpan Span(LoopInfoPhase);
  const size_t NumBlocks = F.numBlocks();
  InnermostFor.assign(NumBlocks, nullptr);

  // Back edges grouped by header, each header's latches in RPO.
  std::vector<std::vector<ir::BasicBlock *>> LatchesOf(NumBlocks);
  for (ir::BasicBlock *BB : DT.rpo())
    for (ir::BasicBlock *Succ : BB->successors())
      if (DT.dominates(Succ, BB))
        LatchesOf[Succ->id()].push_back(BB);

  // One loop per header, headers in RPO: a loop's header dominates the
  // headers of the loops inside it, so every loop comes after the loops
  // around it.  Its body is the backward walk from the latches that stops
  // at the header.  Natural loops with distinct headers are nested or
  // disjoint, so when a walk starts, InnermostFor of its header holds the
  // innermost loop around it (the parent), and each walk overwrites the
  // entries of its blocks, leaving every block's innermost loop at the end.
  std::vector<unsigned> WalkOf(NumBlocks, 0); // 1 + index of the last walk
  std::vector<ir::BasicBlock *> Work;
  for (ir::BasicBlock *Header : DT.rpo()) {
    if (LatchesOf[Header->id()].empty())
      continue;
    auto L = std::make_unique<Loop>(Header, loopNameFromHeader(Header));
    L->Info = this;
    L->Index = Loops.size();
    L->Latches = std::move(LatchesOf[Header->id()]);
    L->Parent = InnermostFor[Header->id()];
    if (L->Parent) {
      L->Parent->SubLoops.push_back(L.get());
      L->Depth = L->Parent->Depth + 1;
    } else {
      TopLevel.push_back(L.get());
    }
    const unsigned Walk = L->Index + 1;
    auto visit = [&](ir::BasicBlock *BB) {
      if (WalkOf[BB->id()] == Walk)
        return false;
      WalkOf[BB->id()] = Walk;
      InnermostFor[BB->id()] = L.get();
      return true;
    };
    visit(Header);
    for (ir::BasicBlock *Latch : L->Latches)
      if (visit(Latch))
        Work.push_back(Latch);
    while (!Work.empty()) {
      ir::BasicBlock *BB = Work.back();
      Work.pop_back();
      for (ir::BasicBlock *P : BB->predecessors())
        if (DT.isReachable(P) && visit(P))
          Work.push_back(P);
    }
    Loops.push_back(std::move(L));
  }

  // Preorder intervals of the nest tree: subtree sizes children first, then
  // numbers parents first, each child right after its elder siblings.
  for (auto It = Loops.rbegin(); It != Loops.rend(); ++It)
    if (Loop *P = (*It)->Parent)
      P->NestSize += (*It)->NestSize;
  auto numberChildren = [](unsigned Next, const std::vector<Loop *> &Kids) {
    for (Loop *Kid : Kids) {
      Kid->Pre = Next;
      Next += Kid->NestSize;
    }
  };
  numberChildren(0, TopLevel);
  for (const auto &L : Loops)
    numberChildren(L->Pre + 1, L->SubLoops);

  // Block lists in function order: one pass hands each block to its
  // innermost loop and every loop around it.
  for (ir::BasicBlock *BB : F.blocks())
    for (Loop *L = InnermostFor[BB->id()]; L; L = L->Parent)
      L->Blocks.push_back(BB);

  for (const auto &L : Loops) {
    // Preheader: unique outside predecessor of the header.
    ir::BasicBlock *Pre = nullptr;
    bool Multiple = false;
    for (ir::BasicBlock *P : L->Header->predecessors()) {
      if (L->contains(P))
        continue;
      if (Pre)
        Multiple = true;
      Pre = P;
    }
    L->Preheader = Multiple ? nullptr : Pre;
    // Exits.
    for (ir::BasicBlock *BB : L->Blocks)
      for (ir::BasicBlock *Succ : BB->successors())
        if (!L->contains(Succ)) {
          if (std::find(L->Exiting.begin(), L->Exiting.end(), BB) ==
              L->Exiting.end())
            L->Exiting.push_back(BB);
          if (std::find(L->Exits.begin(), L->Exits.end(), Succ) ==
              L->Exits.end())
            L->Exits.push_back(Succ);
        }
  }
}

std::vector<Loop *> LoopInfo::innerToOuter() const {
  // Loops stores parents before children; reversing yields children first.
  std::vector<Loop *> Result;
  for (auto It = Loops.rbegin(); It != Loops.rend(); ++It)
    Result.push_back(It->get());
  return Result;
}

Loop *LoopInfo::byName(const std::string &Name) const {
  for (const auto &L : Loops)
    if (L->name() == Name)
      return L.get();
  return nullptr;
}
