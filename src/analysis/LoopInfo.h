//===- analysis/LoopInfo.h - Natural loop nest ------------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Natural-loop detection and the loop-nest tree.
///
/// A loop is identified by a header block that dominates one or more latch
/// blocks with back edges to it.  The induction-variable analysis processes
/// this nest "from the inner loops outward" (paper section 5.3), so LoopInfo
/// exposes an inner-to-outer traversal.
///
/// Membership costs O(1) and no per-loop set: LoopInfo keeps the innermost
/// loop of every block, and each loop a preorder interval of the nest tree,
/// so a loop contains a block iff the block's innermost loop lies in that
/// interval.  Construction is linear in the blocks and edges plus the size
/// of the blocks() lists.  Blocks unreachable from the entry belong to no
/// loop, as they have no dominator-tree node.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_ANALYSIS_LOOPINFO_H
#define BEYONDIV_ANALYSIS_LOOPINFO_H

#include "analysis/DominatorTree.h"
#include <memory>
#include <string>
#include <vector>

namespace biv {
namespace analysis {

class LoopInfo;

/// One natural loop.
class Loop {
public:
  Loop(ir::BasicBlock *Header, std::string Name)
      : Header(Header), Name(std::move(Name)) {}

  ir::BasicBlock *header() const { return Header; }

  /// Printable label, e.g. "L18" recovered from the "L18.header" block name,
  /// matching the loop names in the paper's figures.
  const std::string &name() const { return Name; }

  /// All blocks of the loop (header included), in function order.
  const std::vector<ir::BasicBlock *> &blocks() const { return Blocks; }
  /// True when \p BB is a block of this loop or of a loop nested in it.
  inline bool contains(const ir::BasicBlock *BB) const;
  bool contains(const ir::Instruction *I) const {
    return contains(I->parent());
  }
  /// True when \p Other is this loop or nested (transitively) inside it.
  bool encloses(const Loop *Other) const {
    // Unsigned wrap folds Pre <= Other->Pre into the upper-bound test.
    return Other && Other->Pre - Pre < NestSize;
  }

  /// Latch blocks (sources of back edges).  The front end produces exactly
  /// one latch per loop.
  const std::vector<ir::BasicBlock *> &latches() const { return Latches; }

  /// The unique predecessor of the header outside the loop, or null when the
  /// header has several outside predecessors.
  ir::BasicBlock *preheader() const { return Preheader; }

  /// Blocks inside the loop with a successor outside it.
  const std::vector<ir::BasicBlock *> &exitingBlocks() const {
    return Exiting;
  }
  /// Blocks outside the loop that are targets of exiting edges.
  const std::vector<ir::BasicBlock *> &exitBlocks() const { return Exits; }

  Loop *parent() const { return Parent; }
  const std::vector<Loop *> &subLoops() const { return SubLoops; }
  /// 1 for outermost loops, parent depth + 1 otherwise.
  unsigned depth() const { return Depth; }

  /// Dense position in LoopInfo::loops(); analyses key flat vectors by it
  /// instead of pointer-keyed maps.
  unsigned index() const { return Index; }

private:
  friend class LoopInfo;

  const LoopInfo *Info = nullptr;
  ir::BasicBlock *Header;
  std::string Name;
  std::vector<ir::BasicBlock *> Blocks;
  std::vector<ir::BasicBlock *> Latches;
  ir::BasicBlock *Preheader = nullptr;
  std::vector<ir::BasicBlock *> Exiting;
  std::vector<ir::BasicBlock *> Exits;
  Loop *Parent = nullptr;
  std::vector<Loop *> SubLoops;
  unsigned Depth = 1;
  unsigned Index = 0;
  /// Preorder number in the nest tree: the loops this one encloses, itself
  /// included, are numbered Pre .. Pre + NestSize - 1.
  unsigned Pre = 0;
  unsigned NestSize = 1;
};

/// The loop nest of one function.
class LoopInfo {
public:
  LoopInfo(const ir::Function &F, const DominatorTree &DT);
  // Loops point back at their LoopInfo for membership queries.
  LoopInfo(const LoopInfo &) = delete;
  LoopInfo &operator=(const LoopInfo &) = delete;

  /// All loops, every parent preceding its children.
  const std::vector<std::unique_ptr<Loop>> &loops() const { return Loops; }

  /// Outermost loops only.
  const std::vector<Loop *> &topLevel() const { return TopLevel; }

  /// Loops in inner-to-outer order (children before parents), the order the
  /// induction-variable analysis wants.
  std::vector<Loop *> innerToOuter() const;

  /// The innermost loop containing \p BB, or null (also for blocks created
  /// after this LoopInfo).
  Loop *loopFor(const ir::BasicBlock *BB) const {
    return BB->id() < InnermostFor.size() ? InnermostFor[BB->id()] : nullptr;
  }

  /// Finds a loop by printable name, or null.
  Loop *byName(const std::string &Name) const;

private:
  const ir::Function &F;
  std::vector<std::unique_ptr<Loop>> Loops;
  std::vector<Loop *> TopLevel;
  std::vector<Loop *> InnermostFor; // by block id
};

bool Loop::contains(const ir::BasicBlock *BB) const {
  return encloses(Info->loopFor(BB));
}

} // namespace analysis
} // namespace biv

#endif // BEYONDIV_ANALYSIS_LOOPINFO_H
