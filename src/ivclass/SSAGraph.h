//===- ivclass/SSAGraph.h - Per-loop SSA graph and Tarjan SCCs --*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's SSA graph (section 3): when analyzing a loop, vertices are
/// the operations in that loop and edges run from each operation to its
/// source operands.  Tarjan's algorithm [Tar72] emits strongly connected
/// regions only after everything reachable from them, so "when an SCR is
/// identified, all the source operands reaching the SCR will already have
/// been visited and [classified]" -- the property the classifier exploits.
///
/// Instructions belonging to a *nested* loop are excluded from the graph;
/// operands defined there are treated as opaque (paper section 5.3), except
/// for exit values the analysis has already materialized.
///
/// Representation: nodes are keyed by Instruction::seq() (dense per-function
/// numbering) through a flat vector, and edges live in one CSR-style array
/// built once at construction, so both graph construction and Tarjan's walk
/// are allocation-free per node and touch no ordered containers.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IVCLASS_SSAGRAPH_H
#define BEYONDIV_IVCLASS_SSAGRAPH_H

#include "analysis/LoopInfo.h"
#include "ir/Function.h"
#include <vector>

namespace biv {
namespace ivclass {

/// One strongly connected region of the SSA graph.
struct SCR {
  std::vector<ir::Instruction *> Nodes;

  /// Trivial = single node without a self edge; never a recurrence.
  bool Trivial = true;
};

/// The SSA graph of one loop.
class SSAGraph {
public:
  static constexpr unsigned NoNode = ~0u;

  /// Builds the graph of \p L: all instructions whose block is in \p L but
  /// in none of L's sub-loops.  Numbers the function's instructions densely
  /// when that has not happened yet.  \p NodeBySeq is scratch indexed by
  /// Instruction::seq(), NoNode throughout on entry and again on return; the
  /// caller can share it across loops, so a graph costs its own nodes
  /// rather than the function.
  SSAGraph(const analysis::Loop &L, const analysis::LoopInfo &LI,
           std::vector<unsigned> &NodeBySeq);

  const analysis::Loop &loop() const { return Loop; }
  const std::vector<ir::Instruction *> &nodes() const { return Nodes; }

  /// Strongly connected regions in Tarjan pop order: every SCR appears
  /// after all SCRs it (transitively) reads from.
  std::vector<SCR> stronglyConnectedRegions() const;

private:
  const analysis::Loop &Loop;
  std::vector<ir::Instruction *> Nodes;
  /// CSR adjacency: successors of node i are Edges[EdgeOffsets[i] ..
  /// EdgeOffsets[i+1]).
  std::vector<unsigned> EdgeOffsets;
  std::vector<unsigned> Edges;
};

} // namespace ivclass
} // namespace biv

#endif // BEYONDIV_IVCLASS_SSAGRAPH_H
