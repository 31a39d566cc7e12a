//===- analysis/DominatorTree.h - Dominance analyses ------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree and dominance frontiers.
///
/// Implemented with the Cooper-Harvey-Kennedy iterative algorithm ("A
/// Simple, Fast Dominance Algorithm").  Dominance frontiers feed phi
/// placement in the SSA builder (the Cytron et al. construction the paper
/// builds on).  The section 5.4 strictness refinement needs no
/// post-dominators: it reads the Through sets of the recurrence paths.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_ANALYSIS_DOMINATORTREE_H
#define BEYONDIV_ANALYSIS_DOMINATORTREE_H

#include "ir/Function.h"
#include <span>
#include <vector>

namespace biv {
namespace analysis {

/// Dominator tree over the blocks of one function.  Unreachable blocks have
/// no tree node: idom() is null for them and dominates() is false either way.
class DominatorTree {
public:
  explicit DominatorTree(const ir::Function &F);

  const ir::Function &function() const { return F; }

  /// Immediate dominator; null for the entry and for unreachable blocks.
  ir::BasicBlock *idom(const ir::BasicBlock *BB) const;

  /// True when \p BB is reachable from the entry (it has a tree node).
  bool isReachable(const ir::BasicBlock *BB) const {
    return RPONumber[BB->id()] >= 0;
  }

  /// Reflexive dominance, in constant time.
  bool dominates(const ir::BasicBlock *A, const ir::BasicBlock *B) const;
  bool properlyDominates(const ir::BasicBlock *A,
                         const ir::BasicBlock *B) const;

  /// True when instruction \p Def 's value is available at \p I (same block
  /// and earlier, or defining block properly dominates; phis are treated as
  /// defined at the top of their block).
  bool dominates(const ir::Instruction *Def, const ir::Instruction *I) const;

  /// Children in the dominator tree.
  const std::vector<ir::BasicBlock *> &
  children(const ir::BasicBlock *BB) const;

  /// Blocks in reverse post order (reachable only).
  const std::vector<ir::BasicBlock *> &rpo() const { return RPO; }

private:
  const ir::Function &F;
  std::vector<int> IDom;                 // by block id; -1 = none
  std::vector<int> RPONumber;            // by block id; -1 = unreachable
  std::vector<ir::BasicBlock *> RPO;
  std::vector<std::vector<ir::BasicBlock *>> Children;
  /// By block id: preorder number in the tree, and one past the last
  /// number in its subtree; A dominates B iff B's number is in A's range.
  std::vector<unsigned> TreeIn, TreeOut;
};

/// Dominance frontiers DF(B) for every reachable block.
class DominanceFrontier {
public:
  explicit DominanceFrontier(const DominatorTree &DT);

  std::span<ir::BasicBlock *const> frontier(const ir::BasicBlock *BB) const {
    return {Flat.data() + Start[BB->id()],
            Start[BB->id() + 1] - Start[BB->id()]};
  }

private:
  /// CSR layout: Flat[Start[id] .. Start[id+1]) is block id's frontier.
  std::vector<uint32_t> Start;
  std::vector<ir::BasicBlock *> Flat;
};

} // namespace analysis
} // namespace biv

#endif // BEYONDIV_ANALYSIS_DOMINATORTREE_H
