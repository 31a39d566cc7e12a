//===- ir/Function.h - IR functions -----------------------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Function owns its blocks, arguments, scalar variables, arrays, and
/// uniqued integer constants; it is the unit every analysis runs over.
///
/// Memory architecture (DESIGN.md §11): the function owns a bump arena and a
/// string interner, and every IR object it hands out -- blocks,
/// instructions, operand lists, storage, constants, names -- lives there.
/// Destroying the Function batch-frees the whole unit; no per-node
/// deallocation ever happens.  Name-keyed lookups (vars, arrays, arguments,
/// unique-name counters) are symbol-indexed vectors over the interner's
/// dense id space instead of string-keyed maps.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IR_FUNCTION_H
#define BEYONDIV_IR_FUNCTION_H

#include "ir/BasicBlock.h"
#include "ir/Storage.h"
#include "support/Arena.h"
#include "support/StringInterner.h"
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace biv {
namespace ir {

/// A single function: the CFG plus all storage it references.
class Function {
public:
  explicit Function(std::string_view N) : Name(N) {}
  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;

  const std::string &name() const { return Name; }

  /// The unit's arena; everything reachable from this function lives here.
  support::Arena &arena() { return A; }
  const support::Arena &arena() const { return A; }

  /// The unit's interner; IR names are views into it.
  support::StringInterner &interner() { return SI; }
  const support::StringInterner &interner() const { return SI; }

  /// Creates an instruction in the arena.  It is unattached; insert it with
  /// BasicBlock::append/insertAt (IRBuilder does both steps).
  Instruction *newInstr(Opcode Op, std::initializer_list<Value *> Ops = {},
                        std::string_view N = {});
  Instruction *newInstr(Opcode Op, const std::vector<Value *> &Ops,
                        std::string_view N = {});
  Instruction *newInstr(Opcode Op, std::span<Value *const> Ops,
                        std::string_view N = {});

  /// Creates a new empty block; the first block created is the entry.
  BasicBlock *createBlock(std::string_view N);

  BasicBlock *entry() const {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front();
  }

  const support::ArenaVector<BasicBlock *> &blocks() const { return Blocks; }
  size_t numBlocks() const { return Blocks.size(); }

  /// Returns the uniqued integer constant \p V.
  Constant *constant(int64_t V);

  /// Returns the function's single undef value.
  UndefValue *undef();

  /// Adds a formal parameter.
  Argument *addArgument(std::string_view N);
  const support::ArenaVector<Argument *> &arguments() const { return Args; }
  /// Finds an argument by name, or null.
  Argument *findArgument(std::string_view N) const;

  /// Creates (or returns the existing) scalar variable named \p N.
  Var *getOrCreateVar(std::string_view N);
  Var *findVar(std::string_view N) const;
  const support::ArenaVector<Var *> &vars() const { return Vars; }

  /// Creates (or returns the existing) array named \p N of rank \p Rank.
  Array *getOrCreateArray(std::string_view N, unsigned Rank = 1);
  Array *findArray(std::string_view N) const;
  const support::ArenaVector<Array *> &arrays() const { return Arrays; }

  /// Recomputes every block's predecessor list from the terminators.  Call
  /// after building or mutating the CFG.
  void recomputePreds();

  /// Deletes blocks unreachable from the entry, prunes phi incomings from
  /// deleted blocks, renumbers block ids densely, and recomputes preds.
  /// Returns the number of blocks removed.
  unsigned removeUnreachableBlocks();

  /// Rewrites every use of \p From to \p To across the whole function
  /// (operand scan; this IR keeps no use lists).
  void replaceAllUsesWith(Value *From, Value *To);

  /// Returns blocks in reverse post order from the entry.  Unreachable
  /// blocks are appended at the end in creation order.
  std::vector<BasicBlock *> reversePostOrder() const;

  /// Total instruction count, for stats and benches.
  size_t instructionCount() const;

  /// Assigns every instruction a dense sequence number (block order, then
  /// position) and returns the count.  Analyses index flat vectors by
  /// Instruction::seq() instead of pointer-keyed maps; re-run after any IR
  /// mutation that adds or reorders instructions.  Idempotent.
  unsigned renumberInstructions();

  /// One past the largest sequence number handed out (0 when the function
  /// has never been numbered).
  unsigned instrSeqBound() const { return InstrSeqBound; }

  /// Reserves a fresh sequence number for an instruction inserted after the
  /// last renumbering (e.g. materialized exit values).
  unsigned allocateInstrSeq() { return InstrSeqBound++; }

  /// Returns a fresh name "Base" or "Base.k" not yet handed out.  The
  /// per-base next-suffix counter lives in the symbol table, so each call is
  /// O(1) -- no re-probing of already-taken spellings.  The returned view is
  /// interned (stable for the function's lifetime).
  std::string_view uniqueName(std::string_view Base);

private:
  /// Grows the symbol-indexed side tables to cover \p Sym.
  void ensureSymbolTables(support::Symbol Sym);

  support::Arena A;                 // must precede everything arena-backed
  support::StringInterner SI{A};
  std::string Name;
  support::ArenaVector<BasicBlock *> Blocks;
  support::ArenaVector<Argument *> Args;
  support::ArenaVector<Var *> Vars;
  support::ArenaVector<Array *> Arrays;

  // Symbol-indexed name tables (parallel, lazily grown to interner size).
  support::ArenaVector<Var *> VarBySym;
  support::ArenaVector<Array *> ArrayBySym;
  support::ArenaVector<Argument *> ArgBySym;
  support::ArenaVector<uint32_t> NextSuffix;

  // Open-addressed, arena-backed constant pool (power-of-two probe table).
  support::ArenaVector<Constant *> ConstSlots;
  size_t NumConsts = 0;

  UndefValue *Undef = nullptr;
  unsigned InstrSeqBound = 0;
};

} // namespace ir
} // namespace biv

#endif // BEYONDIV_IR_FUNCTION_H
