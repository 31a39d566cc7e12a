//===- interp/Interpreter.h - Direct IR interpreter -------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A direct interpreter for SSA-form functions, with full value tracing.
///
/// This is the project's ground-truth oracle: property tests and the fuzzer
/// run a loop, read the observed per-iteration sequence of each SSA value
/// out of the trace, and require the classifier's closed forms /
/// monotonicity / periodicity claims to hold on the real execution.  The
/// array-access log doubles as a dynamic dependence oracle.
///
/// Because an oracle must have *specified* semantics, every edge case is
/// pinned (and tested in interp_test.cpp):
///  - Add/Sub/Mul/Neg/Exp wrap on overflow (two's complement), including
///    INT64_MIN / -1, which wraps to INT64_MIN;
///  - division by zero stops execution with an "division by zero" error
///    (the language has no modulo operator);
///  - exceeding MaxSteps sets HitStepLimit with an *empty* Error -- a
///    budget abort is distinguishable from a semantic fault;
///  - reads of never-assigned scalars are poison: they flow through
///    arithmetic but stop execution at control flow, addressing, or return.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_INTERP_INTERPRETER_H
#define BEYONDIV_INTERP_INTERPRETER_H

#include "ir/Function.h"
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace biv {
namespace interp {

/// Limits and switches for one execution.
struct ExecOptions {
  /// Abort after this many instructions (guards accidental infinite loops).
  uint64_t MaxSteps = 1000000;
  /// Record per-instruction value histories (the classification oracle).
  bool TraceValues = true;
  /// Record the array access log (the dependence oracle).
  bool TraceArrays = true;
  /// Record the basic-block visit sequence (the branch-cycle conjecture
  /// sampler reads per-iteration paths out of it).
  bool TraceBlocks = false;
};

/// One dynamic array access.
struct ArrayAccess {
  const ir::Array *A = nullptr;
  std::vector<int64_t> Indices;
  bool IsWrite = false;
  uint64_t Time = 0; ///< Global instruction counter at the access.
};

/// Everything observed while running a function.
struct ExecutionTrace {
  /// The function that ran (null when the inputs were rejected).
  const ir::Function *Fn = nullptr;

  /// Values each instruction produced, in execution order, indexed by
  /// Instruction::seq() (read it through sequenceOf).  A loop-header phi
  /// therefore has one entry per header visit: its value on iteration
  /// h = 0, 1, ... (the last visit is the one that exits).
  std::vector<std::vector<int64_t>> History;

  /// Array access log in execution order.
  std::vector<ArrayAccess> Accesses;

  /// Basic-block visit sequence (only with TraceBlocks; entry block first).
  std::vector<const ir::BasicBlock *> Blocks;

  std::optional<int64_t> ReturnValue;
  uint64_t Steps = 0;
  bool HitStepLimit = false;
  /// Empty on success; otherwise why execution stopped (division by zero,
  /// negative exponent, read of undef...).
  std::string Error;

  bool ok() const { return Error.empty() && !HitStepLimit; }

  /// The observed sequence of \p I 's values; empty when never executed
  /// or when \p I belongs to another function than Fn.
  const std::vector<int64_t> &sequenceOf(const ir::Instruction *I) const;
};

/// Runs SSA-form \p F with the given argument values.  Array cells default
/// to zero and live for the duration of the call.  \p Args may leave out
/// arguments the run never reads; reading one stops execution with a
/// "missing argument value" error.
ExecutionTrace run(const ir::Function &F, const std::vector<int64_t> &Args,
                   const ExecOptions &Opts = ExecOptions());

/// Convenience: pre-seeds array contents before running.  Keys are indices
/// (one vector per cell); a name \p F does not declare is rejected before
/// the first step ("seeding unknown array NAME").
ExecutionTrace
runWithArrays(const ir::Function &F, const std::vector<int64_t> &Args,
              const std::map<std::string,
                             std::map<std::vector<int64_t>, int64_t>> &Arrays,
              const ExecOptions &Opts = ExecOptions());

} // namespace interp
} // namespace biv

#endif // BEYONDIV_INTERP_INTERPRETER_H
