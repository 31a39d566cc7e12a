//===- ssa/SCCP.cpp - Sparse conditional constant propagation ----------------===//

#include "ssa/SCCP.h"
#include "support/Stats.h"
#include <cstdint>
#include <optional>
#include <vector>

using namespace biv;
using namespace biv::ssa;

namespace {

/// Three-level lattice: Top (undefined so far), Const, Bottom (overdefined).
struct LatticeVal {
  enum Level { Top, Const, Bottom } Lvl = Top;
  int64_t Val = 0;

  static LatticeVal top() { return {}; }
  static LatticeVal constant(int64_t V) { return {Const, V}; }
  static LatticeVal bottom() { return {Bottom, 0}; }

  bool isTop() const { return Lvl == Top; }
  bool isConst() const { return Lvl == Const; }
  bool isBottom() const { return Lvl == Bottom; }

  bool operator==(const LatticeVal &O) const {
    return Lvl == O.Lvl && (Lvl != Const || Val == O.Val);
  }
};

/// Folds \p Op over constants with the interpreter's two's-complement
/// semantics (Add/Sub/Mul wrap, INT64_MIN / -1 is INT64_MIN); nullopt when
/// the result must go to Bottom (division by zero, huge exponent).
std::optional<int64_t> foldBinary(ir::Opcode Op, int64_t L, int64_t R) {
  switch (Op) {
  case ir::Opcode::Add:
    return int64_t(uint64_t(L) + uint64_t(R));
  case ir::Opcode::Sub:
    return int64_t(uint64_t(L) - uint64_t(R));
  case ir::Opcode::Mul:
    return int64_t(uint64_t(L) * uint64_t(R));
  case ir::Opcode::Div:
    if (R == 0)
      return std::nullopt;
    return (L == INT64_MIN && R == -1) ? INT64_MIN : L / R;
  case ir::Opcode::Exp: {
    if (R < 0 || R > 62)
      return std::nullopt;
    const uint64_t Mag = L < 0 ? 0 - uint64_t(L) : uint64_t(L);
    const int64_t Limit = int64_t((uint64_t(1) << 62) / (Mag == 0 ? 1 : Mag));
    int64_t Result = 1;
    for (int64_t I = 0; I < R; ++I) {
      // Crude overflow guard; Bottom is always safe.
      if (Result > Limit)
        return std::nullopt;
      Result = int64_t(uint64_t(Result) * uint64_t(L));
    }
    return Result;
  }
  case ir::Opcode::CmpEQ:
    return L == R;
  case ir::Opcode::CmpNE:
    return L != R;
  case ir::Opcode::CmpLT:
    return L < R;
  case ir::Opcode::CmpLE:
    return L <= R;
  case ir::Opcode::CmpGT:
    return L > R;
  case ir::Opcode::CmpGE:
    return L >= R;
  default:
    return std::nullopt;
  }
}

/// Dense-table SCCP (DESIGN.md §11): lattice state and the def->users lists
/// are flat vectors over Instruction::seq(), executable edges are a two-bit
/// mask per source block (a terminator has at most two successors), and
/// block reachability is a byte per block id.  No pointer-keyed containers.
class SCCPSolver {
public:
  explicit SCCPSolver(ir::Function &F) : F(F) {}

  SCCPResult run(bool SimplifyCFG);

private:
  LatticeVal valueOf(const ir::Value *V) {
    if (const auto *C = ir::dyn_cast<ir::Constant>(V))
      return LatticeVal::constant(C->value());
    if (ir::isa<ir::Argument>(V))
      return LatticeVal::bottom();
    if (ir::isa<ir::UndefValue>(V))
      return LatticeVal::top();
    return State[ir::cast<ir::Instruction>(V)->seq()];
  }

  void setValue(const ir::Instruction *I, LatticeVal LV) {
    LatticeVal &Slot = State[I->seq()];
    // Values only ever move down the lattice.
    if (Slot == LV || Slot.isBottom())
      return;
    Slot = LV;
    for (uint32_t U = UserStart[I->seq()]; U < UserStart[I->seq() + 1]; ++U)
      InstWorklist.push_back(UserList[U]);
  }

  /// Marks successor slot \p Slot of \p From's terminator executable.
  void markEdge(ir::BasicBlock *From, unsigned Slot) {
    const uint8_t Bit = uint8_t(1u << Slot);
    if (EdgeMask[From->id()] & Bit)
      return;
    EdgeMask[From->id()] |= Bit;
    ir::BasicBlock *To = From->terminator()->blocks()[Slot];
    if (!Reachable[To->id()]) {
      Reachable[To->id()] = 1;
      BlockWorklist.push_back(To);
    } else {
      // Re-evaluate the phis: a new incoming edge became live.
      for (ir::Instruction *Phi : To->phis())
        InstWorklist.push_back(Phi);
    }
  }

  /// True when some executable successor slot of \p From targets \p To.
  bool edgeExecutable(const ir::BasicBlock *From,
                      const ir::BasicBlock *To) const {
    const uint8_t Mask = EdgeMask[From->id()];
    if (!Mask)
      return false;
    std::span<ir::BasicBlock *const> Succs = From->successors();
    for (unsigned Slot = 0; Slot < Succs.size(); ++Slot)
      if ((Mask & (1u << Slot)) && Succs[Slot] == To)
        return true;
    return false;
  }

  void visit(ir::Instruction *I);
  void visitBlock(ir::BasicBlock *BB);

  ir::Function &F;
  /// Lattice state per Instruction::seq().
  std::vector<LatticeVal> State;
  /// Instruction users of each instruction's value, CSR over seqs.
  std::vector<uint32_t> UserStart;
  std::vector<ir::Instruction *> UserList;
  /// Executable-successor bits per source block id (bit k = slot k).
  std::vector<uint8_t> EdgeMask;
  std::vector<uint8_t> Reachable;
  std::vector<ir::BasicBlock *> BlockWorklist;
  std::vector<ir::Instruction *> InstWorklist;
};

void SCCPSolver::visit(ir::Instruction *I) {
  if (!Reachable[I->parent()->id()])
    return;
  switch (I->opcode()) {
  case ir::Opcode::Phi: {
    // Meet over live incoming edges only.
    LatticeVal Merged = LatticeVal::top();
    for (unsigned Idx = 0; Idx < I->numOperands(); ++Idx) {
      ir::BasicBlock *In = I->blocks()[Idx];
      if (!edgeExecutable(In, I->parent()))
        continue;
      LatticeVal V = valueOf(I->operand(Idx));
      if (V.isTop())
        continue;
      if (Merged.isTop())
        Merged = V;
      else if (!(Merged == V))
        Merged = LatticeVal::bottom();
    }
    setValue(I, Merged);
    return;
  }
  case ir::Opcode::Copy:
    setValue(I, valueOf(I->operand(0)));
    return;
  case ir::Opcode::Neg: {
    LatticeVal V = valueOf(I->operand(0));
    if (V.isConst())
      setValue(I, LatticeVal::constant(int64_t(0 - uint64_t(V.Val))));
    else
      setValue(I, V);
    return;
  }
  case ir::Opcode::ArrayLoad:
    setValue(I, LatticeVal::bottom());
    return;
  case ir::Opcode::ArrayStore:
  case ir::Opcode::Ret:
    return;
  case ir::Opcode::Br:
    markEdge(I->parent(), 0);
    return;
  case ir::Opcode::CondBr: {
    LatticeVal C = valueOf(I->operand(0));
    if (C.isTop())
      return;
    if (C.isConst()) {
      markEdge(I->parent(), C.Val != 0 ? 0 : 1);
    } else {
      markEdge(I->parent(), 0);
      markEdge(I->parent(), 1);
    }
    return;
  }
  case ir::Opcode::LoadVar:
  case ir::Opcode::StoreVar:
    assert(false && "SCCP requires SSA form");
    return;
  default: {
    // Binary arithmetic and comparisons.
    assert(I->numOperands() == 2 && "expected binary operation");
    LatticeVal L = valueOf(I->operand(0));
    LatticeVal R = valueOf(I->operand(1));
    if (L.isBottom() || R.isBottom()) {
      setValue(I, LatticeVal::bottom());
      return;
    }
    if (L.isTop() || R.isTop())
      return;
    if (std::optional<int64_t> Folded = foldBinary(I->opcode(), L.Val, R.Val))
      setValue(I, LatticeVal::constant(*Folded));
    else
      setValue(I, LatticeVal::bottom());
    return;
  }
  }
}

void SCCPSolver::visitBlock(ir::BasicBlock *BB) {
  for (ir::Instruction *I : *BB)
    visit(I);
}

SCCPResult SCCPSolver::run(bool SimplifyCFG) {
  // Downstream phases renumber for themselves, so renumbering here is safe
  // and guarantees seqs are dense even after SSA's deferred erasures.
  const unsigned NumInstrs = F.renumberInstructions();
  State.assign(NumInstrs, LatticeVal::top());

  // Record users for sparse propagation: count per def, prefix-sum, fill.
  UserStart.assign(NumInstrs + 1, 0);
  for (const ir::BasicBlock *BB : F.blocks())
    for (const ir::Instruction *I : *BB)
      for (const ir::Value *Op : I->operands())
        if (const auto *Def = ir::dyn_cast<ir::Instruction>(Op))
          ++UserStart[Def->seq() + 1];
  for (unsigned S = 0; S < NumInstrs; ++S)
    UserStart[S + 1] += UserStart[S];
  UserList.resize(UserStart[NumInstrs]);
  std::vector<uint32_t> Fill(UserStart.begin(), UserStart.end() - 1);
  for (const ir::BasicBlock *BB : F.blocks())
    for (ir::Instruction *I : *BB)
      for (const ir::Value *Op : I->operands())
        if (const auto *Def = ir::dyn_cast<ir::Instruction>(Op))
          UserList[Fill[Def->seq()]++] = I;

  EdgeMask.assign(F.numBlocks(), 0);
  Reachable.assign(F.numBlocks(), 0);
  Reachable[F.entry()->id()] = 1;
  BlockWorklist.push_back(F.entry());
  while (!BlockWorklist.empty() || !InstWorklist.empty()) {
    while (!InstWorklist.empty()) {
      ir::Instruction *I = InstWorklist.back();
      InstWorklist.pop_back();
      visit(I);
    }
    if (!BlockWorklist.empty()) {
      ir::BasicBlock *BB = BlockWorklist.back();
      BlockWorklist.pop_back();
      visitBlock(BB);
    }
  }

  SCCPResult Result;
  // Replace constant instructions.
  std::vector<ir::Instruction *> Dead;
  for (ir::BasicBlock *BB : F.blocks()) {
    if (!Reachable[BB->id()])
      continue;
    for (ir::Instruction *I : *BB) {
      if (I->hasSideEffects() || I->isTerminator())
        continue;
      LatticeVal V = valueOf(I);
      if (!V.isConst())
        continue;
      F.replaceAllUsesWith(I, F.constant(V.Val));
      Dead.push_back(I);
      ++Result.FoldedInstructions;
    }
  }
  for (ir::Instruction *I : Dead)
    I->parent()->erase(I);

  if (!SimplifyCFG)
    return Result;

  // Rewrite decided conditional branches and drop the dead edges' phi
  // incomings before deleting unreachable blocks.
  for (ir::BasicBlock *BB : F.blocks()) {
    if (!Reachable[BB->id()])
      continue;
    ir::Instruction *T = BB->terminator();
    if (!T || T->opcode() != ir::Opcode::CondBr)
      continue;
    LatticeVal C = valueOf(T->operand(0));
    if (!C.isConst())
      continue;
    ir::BasicBlock *Live = T->blocks()[C.Val != 0 ? 0 : 1];
    ir::BasicBlock *DeadSucc = T->blocks()[C.Val != 0 ? 1 : 0];
    if (Live != DeadSucc)
      for (ir::Instruction *Phi : DeadSucc->phis())
        for (unsigned Idx = Phi->numOperands(); Idx-- > 0;)
          if (Phi->blocks()[Idx] == BB)
            Phi->removeIncoming(Idx);
    BB->erase(T);
    ir::Instruction *Br = F.newInstr(ir::Opcode::Br);
    Br->addBlock(Live);
    BB->append(Br);
    ++Result.SimplifiedBranches;
  }
  F.recomputePreds();
  Result.RemovedBlocks = F.removeUnreachableBlocks();
  return Result;
}

} // namespace

SCCPResult biv::ssa::runSCCP(ir::Function &F, bool SimplifyCFG) {
  static const stats::Timer SCCPPhase("phase.sccp");
  static const stats::Counter NumFolded("ssa.sccp_folded");
  stats::ScopedSpan Span(SCCPPhase);
  SCCPResult R = SCCPSolver(F).run(SimplifyCFG);
  NumFolded.bump(R.FoldedInstructions);
  return R;
}
