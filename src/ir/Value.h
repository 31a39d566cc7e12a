//===- ir/Value.h - IR value hierarchy --------------------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Value hierarchy: constants, function arguments, and instructions.
///
/// Everything that can appear as an operand is a Value.  The hierarchy uses
/// an explicit kind tag plus LLVM-style isa/cast/dyn_cast helpers (no RTTI,
/// no vtables): values live in their function's arena and are batch-freed
/// without running destructors (DESIGN.md §11), so the whole hierarchy is
/// trivially destructible.  Names are string_views into the owning
/// function's interner (or, for constants, into its arena) and share its
/// lifetime.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IR_VALUE_H
#define BEYONDIV_IR_VALUE_H

#include <cassert>
#include <cstdint>
#include <string_view>

namespace biv {
namespace ir {

class Function;

/// Discriminator for the Value hierarchy.
enum class ValueKind {
  Constant,
  Argument,
  Undef,
  Instruction,
};

/// Base of everything usable as an instruction operand.
class Value {
public:
  Value(const Value &) = delete;
  Value &operator=(const Value &) = delete;

  ValueKind kind() const { return Kind; }

  std::string_view name() const { return Name; }
  /// \p N must outlive this value: pass an interned view
  /// (Function::uniqueName), a literal, or another name.
  void setName(std::string_view N) { Name = N; }

protected:
  Value(ValueKind K, std::string_view N) : Kind(K), Name(N) {}
  ~Value() = default;

private:
  ValueKind Kind;
  std::string_view Name;
};

/// An integer literal (the paper's LT operator).  Uniqued per function; its
/// name is the decimal spelling, stored in the function's arena.
class Constant : public Value {
public:
  Constant(int64_t V, std::string_view Spelling)
      : Value(ValueKind::Constant, Spelling), Val(V) {}

  int64_t value() const { return Val; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Constant;
  }

private:
  int64_t Val;
};

/// A formal parameter of a Function; loop invariant by construction and
/// treated as an opaque symbol by the induction-variable analysis.
class Argument : public Value {
public:
  Argument(std::string_view N, unsigned Index)
      : Value(ValueKind::Argument, N), Index(Index) {}

  unsigned index() const { return Index; }

  static bool classof(const Value *V) {
    return V->kind() == ValueKind::Argument;
  }

private:
  unsigned Index;
};

/// The value of a variable on a path where it was never assigned.  SSA
/// renaming plugs it into phis fed by such paths.
class UndefValue : public Value {
public:
  UndefValue() : Value(ValueKind::Undef, "undef") {}

  static bool classof(const Value *V) { return V->kind() == ValueKind::Undef; }
};

/// LLVM-style checked casts over the Value hierarchy.
template <typename To, typename From> bool isa(const From *V) {
  assert(V && "isa on null value");
  return To::classof(V);
}

template <typename To, typename From> To *cast(From *V) {
  assert(isa<To>(V) && "cast to incompatible value kind");
  return static_cast<To *>(V);
}

template <typename To, typename From> const To *cast(const From *V) {
  assert(isa<To>(V) && "cast to incompatible value kind");
  return static_cast<const To *>(V);
}

template <typename To, typename From> To *dyn_cast(From *V) {
  return V && To::classof(V) ? static_cast<To *>(V) : nullptr;
}

template <typename To, typename From> const To *dyn_cast(const From *V) {
  return V && To::classof(V) ? static_cast<const To *>(V) : nullptr;
}

} // namespace ir
} // namespace biv

#endif // BEYONDIV_IR_VALUE_H
