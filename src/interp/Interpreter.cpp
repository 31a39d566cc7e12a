//===- interp/Interpreter.cpp - Direct IR interpreter -------------------------===//

#include "interp/Interpreter.h"
#include "support/Stats.h"
#include <cassert>

using namespace biv;
using namespace biv::interp;

const std::vector<int64_t> &
ExecutionTrace::sequenceOf(const ir::Instruction *I) const {
  static const std::vector<int64_t> Empty;
  // Seqs are only unique within one function: without the owner check,
  // another function's instruction would read whatever ran under its seq.
  if (!I || !I->parent() || I->parent()->parent() != Fn ||
      I->seq() >= History.size())
    return Empty;
  return History[I->seq()];
}

namespace {

class Machine {
public:
  Machine(const ir::Function &F, const std::vector<int64_t> &Args,
          const ExecOptions &Opts)
      : F(F), Args(Args), Opts(Opts) {}

  ExecutionTrace run();

  std::map<const ir::Array *, std::map<std::vector<int64_t>, int64_t>> Memory;

private:
  /// A runtime value; Poison marks data from a never-assigned variable
  /// (unpruned SSA places phis whose first visit reads such a value).
  /// Poison flows through arithmetic but must not reach control flow,
  /// memory addressing, or the return value.
  struct Cell {
    int64_t V = 0;
    bool Poison = false;
    /// Meaningful in Frame only: the defining instruction has executed.
    bool Defined = false;
  };

  bool value(const ir::Value *V, Cell &Out) {
    if (const auto *C = ir::dyn_cast<ir::Constant>(V)) {
      Out = {C->value(), false};
      return true;
    }
    if (const auto *A = ir::dyn_cast<ir::Argument>(V)) {
      // Checked in every build; an argument the run never reads may be
      // left out.
      if (A->index() >= Args.size()) {
        fail("missing argument value");
        return false;
      }
      Out = {Args[A->index()], false};
      return true;
    }
    if (ir::isa<ir::UndefValue>(V)) {
      Out = {0, true};
      return true;
    }
    const Cell &C = Frame[ir::cast<ir::Instruction>(V)->seq()];
    if (!C.Defined) {
      fail("read of value with no definition executed yet");
      return false;
    }
    Out = C;
    return true;
  }

  /// Reads a value that must be concrete (control flow, addresses, I/O).
  bool concrete(const ir::Value *V, int64_t &Out) {
    Cell C;
    if (!value(V, C))
      return false;
    if (C.Poison) {
      fail("use of uninitialized value");
      return false;
    }
    Out = C.V;
    return true;
  }

  void define(const ir::Instruction *I, Cell V) {
    V.Defined = true;
    Frame[I->seq()] = V;
    if (Opts.TraceValues)
      Trace.History[I->seq()].push_back(V.V);
  }

  void fail(const std::string &Msg) {
    if (Trace.Error.empty())
      Trace.Error = Msg;
  }

  const ir::Function &F;
  const std::vector<int64_t> &Args;
  const ExecOptions &Opts;
  /// The value environment: one slot per Instruction::seq() of F, holding
  /// the latest value the instruction produced.  Seqs are unique within F
  /// and below instrSeqBound() from creation on, so instructions added
  /// after the last renumbering (materialized exit values) have slots too.
  std::vector<Cell> Frame;
  /// Phase-1 phi values of the current block visit, reused across visits.
  std::vector<std::pair<const ir::Instruction *, Cell>> PhiValues;
  ExecutionTrace Trace;
};

ExecutionTrace Machine::run() {
  Frame.assign(F.instrSeqBound(), Cell());
  Trace.Fn = &F;
  if (Opts.TraceValues)
    Trace.History.resize(F.instrSeqBound());

  const ir::BasicBlock *Block = F.entry();
  const ir::BasicBlock *PrevBlock = nullptr;

  while (Block) {
    if (Opts.TraceBlocks)
      Trace.Blocks.push_back(Block);
    // Phase 1: evaluate all phis against the incoming edge simultaneously,
    // so swap/rotation patterns (the paper's periodic variables) read the
    // previous iteration's values.
    PhiValues.clear();
    for (const ir::Instruction *Phi : Block->phis()) {
      assert(PrevBlock && "phi in entry block");
      Cell V;
      if (!value(Phi->incomingFor(PrevBlock), V))
        return std::move(Trace);
      PhiValues.push_back({Phi, V});
    }
    for (const auto &[Phi, V] : PhiValues) {
      define(Phi, V);
      if (++Trace.Steps >= Opts.MaxSteps) {
        Trace.HitStepLimit = true;
        return std::move(Trace);
      }
    }

    // Phase 2: straight-line execution.
    const ir::BasicBlock *Next = nullptr;
    for (const ir::Instruction *I : *Block) {
      if (I->isPhi())
        continue;
      if (++Trace.Steps >= Opts.MaxSteps) {
        Trace.HitStepLimit = true;
        return std::move(Trace);
      }
      switch (I->opcode()) {
      case ir::Opcode::Add:
      case ir::Opcode::Sub:
      case ir::Opcode::Mul:
      case ir::Opcode::Div:
      case ir::Opcode::Exp:
      case ir::Opcode::CmpEQ:
      case ir::Opcode::CmpNE:
      case ir::Opcode::CmpLT:
      case ir::Opcode::CmpLE:
      case ir::Opcode::CmpGT:
      case ir::Opcode::CmpGE: {
        Cell LC, RC;
        if (!value(I->operand(0), LC) || !value(I->operand(1), RC))
          return std::move(Trace);
        int64_t L = LC.V, R = RC.V;
        bool Poison = LC.Poison || RC.Poison;
        int64_t Out = 0;
        // Arithmetic is two's-complement: Add/Sub/Mul/Neg/Exp wrap on
        // overflow (computed in uint64 space, where wrapping is defined),
        // so the oracle's semantics are pinned rather than host UB.
        switch (I->opcode()) {
        case ir::Opcode::Add:
          Out = int64_t(uint64_t(L) + uint64_t(R));
          break;
        case ir::Opcode::Sub:
          Out = int64_t(uint64_t(L) - uint64_t(R));
          break;
        case ir::Opcode::Mul:
          Out = int64_t(uint64_t(L) * uint64_t(R));
          break;
        case ir::Opcode::Div:
          if (RC.Poison) {
            fail("division by uninitialized value");
            return std::move(Trace);
          }
          if (R == 0) {
            fail("division by zero");
            return std::move(Trace);
          }
          // The lone overflowing quotient, INT64_MIN / -1, wraps like the
          // other operations instead of trapping.
          Out = (L == INT64_MIN && R == -1) ? INT64_MIN : L / R;
          break;
        case ir::Opcode::Exp: {
          if (R < 0) {
            fail("negative exponent");
            return std::move(Trace);
          }
          // Square-and-multiply: at most 63 squarings for any exponent,
          // and the same result mod 2^64 as repeated multiplication.
          uint64_t Acc = 1, Base = uint64_t(L);
          for (uint64_t E = uint64_t(R); E; E >>= 1) {
            if (E & 1)
              Acc *= Base;
            Base *= Base;
          }
          Out = int64_t(Acc);
          break;
        }
        case ir::Opcode::CmpEQ:
          Out = L == R;
          break;
        case ir::Opcode::CmpNE:
          Out = L != R;
          break;
        case ir::Opcode::CmpLT:
          Out = L < R;
          break;
        case ir::Opcode::CmpLE:
          Out = L <= R;
          break;
        case ir::Opcode::CmpGT:
          Out = L > R;
          break;
        case ir::Opcode::CmpGE:
          Out = L >= R;
          break;
        default:
          break;
        }
        define(I, {Out, Poison});
        break;
      }
      case ir::Opcode::Neg: {
        Cell V;
        if (!value(I->operand(0), V))
          return std::move(Trace);
        define(I, {int64_t(0 - uint64_t(V.V)), V.Poison});
        break;
      }
      case ir::Opcode::Copy: {
        Cell V;
        if (!value(I->operand(0), V))
          return std::move(Trace);
        define(I, V);
        break;
      }
      case ir::Opcode::ArrayLoad: {
        std::vector<int64_t> Idx(I->numOperands());
        for (unsigned K = 0; K < I->numOperands(); ++K)
          if (!concrete(I->operand(K), Idx[K]))
            return std::move(Trace);
        auto &Cells = Memory[I->array()];
        auto It = Cells.find(Idx);
        define(I, {It == Cells.end() ? 0 : It->second, false});
        if (Opts.TraceArrays)
          Trace.Accesses.push_back(
              {I->array(), std::move(Idx), false, Trace.Steps});
        break;
      }
      case ir::Opcode::ArrayStore: {
        int64_t V;
        if (!concrete(I->operand(0), V))
          return std::move(Trace);
        std::vector<int64_t> Idx(I->numOperands() - 1);
        for (unsigned K = 1; K < I->numOperands(); ++K)
          if (!concrete(I->operand(K), Idx[K - 1]))
            return std::move(Trace);
        Memory[I->array()][Idx] = V;
        if (Opts.TraceArrays)
          Trace.Accesses.push_back(
              {I->array(), std::move(Idx), true, Trace.Steps});
        break;
      }
      case ir::Opcode::Br:
        Next = I->blocks()[0];
        break;
      case ir::Opcode::CondBr: {
        int64_t C;
        if (!concrete(I->operand(0), C))
          return std::move(Trace);
        Next = I->blocks()[C != 0 ? 0 : 1];
        break;
      }
      case ir::Opcode::Ret: {
        if (I->numOperands()) {
          int64_t V;
          if (!concrete(I->operand(0), V))
            return std::move(Trace);
          Trace.ReturnValue = V;
        }
        return std::move(Trace);
      }
      case ir::Opcode::LoadVar:
      case ir::Opcode::StoreVar:
        fail("interpreter requires SSA form (found scalar access)");
        return std::move(Trace);
      case ir::Opcode::Phi:
        break;
      }
      if (!Trace.Error.empty())
        return std::move(Trace);
    }
    PrevBlock = Block;
    Block = Next;
    if (!Block)
      fail("block fell through without terminator");
  }
  return std::move(Trace);
}

} // namespace

namespace {
const biv::stats::Timer InterpPhase("phase.interp");
const biv::stats::Counter NumRuns("interp.runs");
const biv::stats::Counter NumSteps("interp.steps");
} // namespace

ExecutionTrace biv::interp::run(const ir::Function &F,
                                const std::vector<int64_t> &Args,
                                const ExecOptions &Opts) {
  return runWithArrays(F, Args, {}, Opts);
}

ExecutionTrace biv::interp::runWithArrays(
    const ir::Function &F, const std::vector<int64_t> &Args,
    const std::map<std::string, std::map<std::vector<int64_t>, int64_t>>
        &Arrays,
    const ExecOptions &Opts) {
  Machine M(F, Args, Opts);
  for (const auto &[Name, Cells] : Arrays) {
    const ir::Array *A = F.findArray(Name);
    if (!A) { // checked in every build: nothing runs
      ExecutionTrace Rejected;
      Rejected.Error = "seeding unknown array " + Name;
      return Rejected;
    }
    for (const auto &[Idx, V] : Cells)
      M.Memory[A][Idx] = V;
  }
  stats::ScopedSpan Span(InterpPhase);
  ExecutionTrace T = M.run();
  NumRuns.bump();
  NumSteps.bump(T.Steps);
  return T;
}
