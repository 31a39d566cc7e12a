//===- ir/Printer.h - Textual IR dump ---------------------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Human-readable IR printing, used by tests, examples, and debugging.  The
/// print of a lowered function is also the analysis cache's key (DESIGN.md
/// §9), so its bytes must stay stable.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IR_PRINTER_H
#define BEYONDIV_IR_PRINTER_H

#include "ir/Function.h"
#include <string>
#include <vector>

namespace biv {
namespace ir {

/// Renders an operand: literal constants as numbers, arguments by name,
/// instructions as %name (or a stable %tN when unnamed).  The print is the
/// cache key, so it must stay injective: a name that reads as a temp prints
/// quoted (%"t0"), and so does an argument named undef ("undef"), which
/// would otherwise read as the undef value.  Every rendering appends to a
/// caller-owned buffer; the unnamed instructions are numbered once, at
/// construction, into a table indexed by Instruction::seq().
class Printer {
public:
  explicit Printer(const Function &F);

  /// Appends the short printable name of \p V.
  void appendName(std::string &Out, const Value *V) const;

  /// Appends the one-line rendering of \p I (no trailing newline).
  void append(std::string &Out, const Instruction *I) const;

  /// Appends the full-function rendering.
  void append(std::string &Out) const;

  /// appendName and append(I) into a string of their own, for diagnostics.
  std::string nameOf(const Value *V) const;
  std::string str(const Instruction *I) const;

private:
  const Function &F;
  /// By seq: the N of an unnamed instruction's %tN, or one of the markers
  /// Named, Quoted and Unnumbered defined in Printer.cpp.
  std::vector<unsigned> Temps;
};

/// Convenience: print the whole function.
std::string toString(const Function &F);

} // namespace ir
} // namespace biv

#endif // BEYONDIV_IR_PRINTER_H
