//===- ivclass/SSAGraph.cpp - Per-loop SSA graph and Tarjan SCCs ---------------===//

#include "ivclass/SSAGraph.h"
#include <algorithm>

using namespace biv;
using namespace biv::ivclass;

SSAGraph::SSAGraph(const analysis::Loop &L, const analysis::LoopInfo &LI,
                   std::vector<unsigned> &NodeBySeq)
    : Loop(L) {
  ir::Function *F = L.header()->parent();

  // Collect the member instructions: blocks whose innermost loop is L.
  for (ir::BasicBlock *BB : L.blocks()) {
    if (LI.loopFor(BB) != &L)
      continue;
    for (ir::Instruction *I : *BB)
      Nodes.push_back(I);
  }

  // Instructions must carry valid dense numbers; number the function on
  // first contact (idempotent) or when a mutating pass left strays behind.
  bool Valid = F->instrSeqBound() > 0;
  for (const ir::Instruction *I : Nodes)
    if (!Valid || I->seq() >= F->instrSeqBound()) {
      Valid = false;
      break;
    }
  if (!Valid)
    F->renumberInstructions();

  if (NodeBySeq.size() < F->instrSeqBound())
    NodeBySeq.resize(F->instrSeqBound(), NoNode);
  for (unsigned Idx = 0; Idx < Nodes.size(); ++Idx)
    NodeBySeq[Nodes[Idx]->seq()] = Idx;

  // CSR adjacency, one pass to count and one to fill.
  const unsigned N = Nodes.size();
  EdgeOffsets.assign(N + 1, 0);
  auto memberOf = [&](const ir::Value *Op) -> unsigned {
    const auto *OpInst = ir::dyn_cast<ir::Instruction>(Op);
    if (!OpInst || OpInst->seq() >= NodeBySeq.size())
      return NoNode;
    return NodeBySeq[OpInst->seq()];
  };
  for (unsigned Idx = 0; Idx < N; ++Idx)
    for (const ir::Value *Op : Nodes[Idx]->operands())
      if (memberOf(Op) != NoNode)
        ++EdgeOffsets[Idx + 1];
  for (unsigned Idx = 0; Idx < N; ++Idx)
    EdgeOffsets[Idx + 1] += EdgeOffsets[Idx];
  Edges.resize(EdgeOffsets[N]);
  std::vector<unsigned> Fill(EdgeOffsets.begin(), EdgeOffsets.end() - 1);
  for (unsigned Idx = 0; Idx < N; ++Idx)
    for (const ir::Value *Op : Nodes[Idx]->operands()) {
      unsigned W = memberOf(Op);
      if (W != NoNode)
        Edges[Fill[Idx]++] = W;
    }
  for (const ir::Instruction *I : Nodes)
    NodeBySeq[I->seq()] = NoNode;
}

std::vector<SCR> SSAGraph::stronglyConnectedRegions() const {
  // Iterative Tarjan so deep use chains in generated benchmarks cannot
  // overflow the call stack.  All bookkeeping is flat, reserved storage;
  // the only per-region allocation is the SCR node list itself.
  const unsigned N = Nodes.size();
  constexpr unsigned None = ~0u;
  std::vector<unsigned> Index(N, None), LowLink(N, None);
  std::vector<char> OnStack(N, 0);
  std::vector<unsigned> Stack;
  Stack.reserve(N);
  std::vector<SCR> Result;
  unsigned NextIndex = 0;

  struct Frame {
    unsigned Node;
    unsigned NextEdge; // index into Edges, runs to EdgeOffsets[Node + 1]
  };
  std::vector<Frame> CallStack;
  CallStack.reserve(64);

  for (unsigned Root = 0; Root < N; ++Root) {
    if (Index[Root] != None)
      continue;
    CallStack.push_back({Root, EdgeOffsets[Root]});
    Index[Root] = LowLink[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = 1;

    while (!CallStack.empty()) {
      Frame &F = CallStack.back();
      if (F.NextEdge < EdgeOffsets[F.Node + 1]) {
        unsigned W = Edges[F.NextEdge++];
        if (Index[W] == None) {
          Index[W] = LowLink[W] = NextIndex++;
          Stack.push_back(W);
          OnStack[W] = 1;
          CallStack.push_back({W, EdgeOffsets[W]});
        } else if (OnStack[W]) {
          LowLink[F.Node] = std::min(LowLink[F.Node], Index[W]);
        }
        continue;
      }
      // Finished this node: pop an SCR if it is a root.
      unsigned V = F.Node;
      CallStack.pop_back();
      if (!CallStack.empty()) {
        unsigned Parent = CallStack.back().Node;
        LowLink[Parent] = std::min(LowLink[Parent], LowLink[V]);
      }
      if (LowLink[V] != Index[V])
        continue;
      SCR Region;
      while (true) {
        unsigned W = Stack.back();
        Stack.pop_back();
        OnStack[W] = 0;
        Region.Nodes.push_back(Nodes[W]);
        if (W == V)
          break;
      }
      if (Region.Nodes.size() > 1) {
        Region.Trivial = false;
      } else {
        // Single node: trivial unless it references itself.
        ir::Instruction *Only = Region.Nodes.front();
        Region.Trivial = true;
        for (ir::Value *Op : Only->operands())
          if (Op == Only)
            Region.Trivial = false;
      }
      Result.push_back(std::move(Region));
    }
  }
  return Result;
}
