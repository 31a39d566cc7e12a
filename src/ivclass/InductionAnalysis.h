//===- ivclass/InductionAnalysis.h - The paper's algorithm ------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unified induction-variable classification algorithm.
///
/// Loops are processed inner to outer (section 5.3).  For each loop the SSA
/// graph is built and Tarjan's algorithm emits strongly connected regions in
/// an order that guarantees all operands of a region are classified first.
/// Trivial regions are classified by an algebra over the operand classes
/// (section 5.1); a lone loop-header phi is a wrap-around variable (4.1);
/// cycles of header phis are periodic families (4.2); every other cycle
/// through K header phis is evaluated symbolically, over every path, to
/// X' = M*X + B(h) and solved exactly (linear 3.1, polynomial/geometric
/// 4.3, and coupled c-finite systems), and a single header phi the solver
/// leaves is downgraded to monotonic (4.4).
/// Countable inner loops get their trip count (5.2) and materialized exit
/// values (5.3, Figures 7-9) so the enclosing loop sees ordinary operands.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IVCLASS_INDUCTIONANALYSIS_H
#define BEYONDIV_IVCLASS_INDUCTIONANALYSIS_H

#include "analysis/DominatorTree.h"
#include "analysis/LoopInfo.h"
#include "ivclass/Classification.h"
#include "ivclass/TripCount.h"
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

namespace biv {
namespace ivclass {

/// Classification storage for one loop.  Instructions whose innermost loop
/// is this table's loop (the hot path: the classifier's own nodes) are keyed
/// by their dense Instruction::seq() in a slot vector that every table of
/// one analysis shares -- each instruction has one innermost loop, so one
/// slot per seq serves all tables, and a table costs its entries rather than
/// the function.  Other values (constants, arguments, undef, instructions of
/// other loops) fall back to a hash map.  Entries are pooled in a deque so
/// references stay stable across inserts, and the insertion order is
/// recorded so iteration is deterministic (a pointer-keyed std::map iterated
/// in address order, which varies run to run).
class ClassTable {
public:
  /// The table of \p L (null: outside every loop) of \p LI, keeping its own
  /// instructions in \p Slots.
  ClassTable(const analysis::Loop *L, const analysis::LoopInfo &LI,
             std::vector<Classification *> &Slots)
      : L(L), LI(&LI), Slots(&Slots) {}

  /// The entry for \p V, or null when none has been recorded.
  Classification *find(const ir::Value *V);

  /// The entry for \p V, default-constructed on first touch.  \p Created
  /// tells the caller whether to fill it in.
  Classification &getOrCreate(const ir::Value *V, bool &Created);

  /// The entry for \p V, filled on first touch with its classification from
  /// outside the loop (InductionAnalysis::classifyExternal).
  const Classification &classOf(const ir::Value *V);

  /// Entries in insertion order (value, classification).
  const std::vector<std::pair<const ir::Value *, const Classification *>> &
  entries() const {
    return Entries;
  }

private:
  /// \p V as an instruction of this table's loop (not of a sub-loop), or
  /// null: the values kept in Slots.
  const ir::Instruction *ownInstruction(const ir::Value *V) const;

  const analysis::Loop *L;
  const analysis::LoopInfo *LI;
  std::vector<Classification *> *Slots;
  std::unordered_map<const ir::Value *, Classification *> Other;
  std::deque<Classification> Pool;
  std::vector<std::pair<const ir::Value *, const Classification *>> Entries;
};

/// Splits header phi \p Phi of \p L into its value from outside the loop
/// (\p Init) and its value carried around the back edge (\p Carried).
/// Fails for multi-latch headers.
bool splitHeaderPhi(const ir::Instruction *Phi, const analysis::Loop *L,
                    ir::Value *&Init, ir::Value *&Carried);

/// The initial value \p Init of a header phi of \p L as an affine: its
/// invariant form, or the opaque symbol of the value itself.
Affine headerPhiInit(const ir::Value *Init, const analysis::Loop *L);

/// Chases Copy instructions to the underlying value.
ir::Value *chaseCopies(ir::Value *V);

/// Block-visit sequences of the summarizer's probe runs over one function,
/// one per seed (Summarize.h); empty until some loop samples.
using SampleTraces = std::vector<std::vector<const ir::BasicBlock *>>;

/// Runs the paper's algorithm over a function and answers classification
/// queries per (value, loop) pair.
class InductionAnalysis {
public:
  struct Options {
    /// Insert exit-value instructions for countable inner loops so outer
    /// loops classify through them (Figures 8 and 9).  Disable to see the
    /// paper's "treated as unknown" fallback.
    bool MaterializeExitValues = true;

    /// Multi-branch loop summarization (Summarize.h): after the classifier
    /// punts on a loop, conjecture a period-k branch cycle by sampling the
    /// interpreter and prove exact per-phase closed forms.  Off by default
    /// (the --summarize pipeline flag).
    bool Summarize = false;
  };

  struct Stats {
    unsigned Regions = 0;
    unsigned LinearFamilies = 0;
    unsigned PolynomialFamilies = 0;
    unsigned GeometricFamilies = 0;
    unsigned PeriodicFamilies = 0;
    unsigned WrapArounds = 0;
    unsigned MonotonicRegions = 0;
    unsigned UnknownRegions = 0;
    unsigned ExitValuesMaterialized = 0;
  };

  /// \p F must be in SSA form with preds computed.  \p DT must be the
  /// dominator tree of \p F; the analysis inserts instructions but never
  /// changes the CFG, so \p DT stays valid throughout.
  ///
  /// Thread-safety: with MaterializeExitValues off, run() reads the IR but
  /// never writes it, so analyses of *distinct* functions may run
  /// concurrently (the batch driver relies on this).  Construction numbers
  /// the function's instructions (a write), so concurrent analyses of the
  /// same function are not supported.
  InductionAnalysis(ir::Function &F, const analysis::DominatorTree &DT,
                    const analysis::LoopInfo &LI, Options Opts);
  InductionAnalysis(ir::Function &F, const analysis::DominatorTree &DT,
                    const analysis::LoopInfo &LI);
  // The per-loop tables point into this object's shared slots.
  InductionAnalysis(const InductionAnalysis &) = delete;
  InductionAnalysis &operator=(const InductionAnalysis &) = delete;

  /// Processes every loop, inner to outer.
  void run();

  /// Classification of \p V relative to \p L.  Values defined outside \p L
  /// classify as invariants (symbols); values inside nested loops without a
  /// materialized exit value are unknown.
  const Classification &classify(const ir::Value *V, const analysis::Loop *L);

  /// Trip count computed for \p L (valid after run()).
  const TripCountInfo &tripCount(const analysis::Loop *L) const;

  /// The value instruction \p I of \p L holds when \p L exits (section
  /// 5.3): its classification at h = tc when \p I runs at or above the exit
  /// test, at h = tc - 1 when it runs below the test on every iteration.
  /// nullopt when \p L has no countable single-latch trip count, when \p I
  /// runs conditionally, when h falls inside a wrap-around prefix, and when
  /// the value needs a numeric count (a ring or phase slot, a wrap-around)
  /// but the count is symbolic.  A symbolic count is guarded, and the
  /// value assumes it is positive.  Throws RationalOverflow.  Valid once
  /// \p L 's trip count is computed.
  std::optional<Affine> exitValue(const ir::Instruction *I,
                                  const analysis::Loop *L);

  const Stats &stats() const { return S; }

  ir::Function &function() const { return F; }
  const analysis::LoopInfo &loopInfo() const { return LI; }

  /// Names affine symbols by their IR value name.
  SymbolNamer namer() const;

  /// Appends \p C with the paper's nested-tuple expansion: symbols that are
  /// themselves induction variables of enclosing loops print as tuples,
  /// e.g. "(L18, (L17, 0, 204), 2)".
  void appendNested(std::string &Out, const Classification &C,
                    unsigned Depth = 4);
  /// The rendering of appendNested as a string of its own.
  std::string strNested(const Classification &C, unsigned Depth = 4);

  /// Classification of a value used by (but not belonging to) the SSA graph
  /// of \p L: constants and values defined outside \p L are invariants;
  /// values inside a nested loop are unknown (section 5.3).
  static Classification classifyExternal(const ir::Value *V,
                                         const analysis::Loop *L);

private:
  void processLoop(const analysis::Loop *L);
  void materializeExitValues(const analysis::Loop *L);
  /// Adds operand \p Index of \p User to the use chain of the instruction
  /// it reads (nothing for other values).
  void indexUse(ir::Instruction *User, unsigned Index);

  /// Table for \p L; loops are keyed by their dense index, a null loop (the
  /// "no enclosing loop" queries) by a dedicated slot.
  ClassTable &tableFor(const analysis::Loop *L);

  ir::Function &F;
  const analysis::DominatorTree &DT;
  const analysis::LoopInfo &LI;
  Options Opts;
  Stats S;

  /// Indexed by Loop::index(); sized once at construction.  Every table,
  /// NullLoopClasses included, keeps its own instructions in ClassSlots.
  std::vector<ClassTable> ClassMap;
  std::vector<Classification *> ClassSlots;
  ClassTable NullLoopClasses;
  std::vector<std::optional<TripCountInfo>> TripCounts;
  unsigned NextFamilyId = 1;

  /// The probe traces of this run(), sampled by its first summarized loop.
  /// They describe the function as sampled, so an exit value that rewrites
  /// a use drops them, and so does the end of run().
  SampleTraces ProbeTraces;

  /// Seq-indexed scratch that the per-loop classifiers share, so a loop
  /// costs its own instructions rather than the function's.  Each is all
  /// clear between loops: SSA-graph node numbers (SSAGraph::NoNode) and
  /// membership in the region being classified.
  std::vector<unsigned> NodeBySeq;
  std::vector<char> InSCRMask;

  /// Every operand slot of the function that reads an instruction, chained
  /// per read instruction: UseHead by its seq, then UseSlot::Next.  Built by
  /// the first exit-value use search of a run() and kept current: a slot
  /// rewritten to a new value joins that value's chain, as do the operands
  /// of inserted instructions.  A rewritten slot also stays in its old
  /// chain, so a reader checks that the slot still reads the value.
  struct UseSlot {
    ir::Instruction *User;
    unsigned Index;
    uint32_t Next;
  };
  static constexpr uint32_t NoUse = ~0u;
  std::vector<uint32_t> UseHead;
  std::vector<UseSlot> UseSlots;
};

} // namespace ivclass
} // namespace biv

#endif // BEYONDIV_IVCLASS_INDUCTIONANALYSIS_H
