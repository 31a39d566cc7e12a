//===- ir/Printer.cpp - Textual IR dump ------------------------------------===//

#include "ir/Printer.h"
#include <charconv>

using namespace biv::ir;

namespace {
// Temps markers for instructions that have no %tN: Named prints %name, and
// Quoted prints %"name" for a name that reads as a temp.
constexpr unsigned Named = ~0u;
constexpr unsigned Quoted = ~0u - 1;
constexpr unsigned Unnumbered = ~0u - 2;

void appendNumber(std::string &Out, unsigned N) {
  char Buf[16];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), N).ptr);
}

/// True when %Name would read as an unnamed instruction's %tN.
bool spellsTemp(std::string_view Name) {
  if (Name.size() < 2 || Name[0] != 't' || (Name[1] == '0' && Name.size() > 2))
    return false;
  return Name.find_first_not_of("0123456789", 1) == std::string_view::npos;
}
} // namespace

Printer::Printer(const Function &F)
    : F(F), Temps(F.instrSeqBound(), Unnumbered) {
  unsigned Next = 0;
  for (const BasicBlock *BB : F.blocks())
    for (const Instruction *I : *BB) {
      unsigned T = I->name().empty()      ? Next++
                   : spellsTemp(I->name()) ? Quoted
                                           : Named;
      // Function::newInstr and renumberInstructions keep every seq in a
      // block below instrSeqBound().
      if (I->seq() < Temps.size())
        Temps[I->seq()] = T;
    }
}

void Printer::appendName(std::string &Out, const Value *V) const {
  const auto *I = dyn_cast<Instruction>(V);
  if (!I) {
    // A constant's name is its decimal spelling; undef's is "undef".  An
    // argument named undef is quoted, so it never reads as the undef value.
    if (isa<Argument>(V) && V->name() == "undef")
      Out += "\"undef\"";
    else
      Out += V->name();
    return;
  }
  unsigned T = I->seq() < Temps.size() ? Temps[I->seq()] : Unnumbered;
  if (T == Unnumbered || !I->parent() || I->parent()->parent() != &F) {
    Out += "%<unknown>";
    return;
  }
  Out += '%';
  if (T == Named) {
    Out += I->name();
  } else if (T == Quoted) {
    Out += '"';
    Out += I->name();
    Out += '"';
  } else {
    Out += 't';
    appendNumber(Out, T);
  }
}

void Printer::append(std::string &Out, const Instruction *I) const {
  auto operands = [&](unsigned From) {
    for (unsigned Idx = From; Idx < I->numOperands(); ++Idx) {
      if (Idx != From)
        Out += ", ";
      appendName(Out, I->operand(Idx));
    }
  };
  switch (I->opcode()) {
  case Opcode::Phi:
    appendName(Out, I);
    Out += " = phi";
    for (unsigned Idx = 0; Idx < I->numOperands(); ++Idx) {
      Out += Idx == 0 ? " [" : ", [";
      appendName(Out, I->operand(Idx));
      Out += ", ";
      Out += I->blocks()[Idx]->name();
      Out += ']';
    }
    return;
  case Opcode::LoadVar:
    appendName(Out, I);
    Out += " = loadvar @";
    Out += I->variable()->name();
    return;
  case Opcode::StoreVar:
    Out += "storevar @";
    Out += I->variable()->name();
    Out += ", ";
    operands(0);
    return;
  case Opcode::ArrayLoad:
    appendName(Out, I);
    Out += " = aload ";
    Out += I->array()->name();
    Out += '[';
    operands(0);
    Out += ']';
    return;
  case Opcode::ArrayStore:
    Out += "astore ";
    Out += I->array()->name();
    Out += '[';
    operands(1);
    Out += "], ";
    appendName(Out, I->operand(0));
    return;
  case Opcode::Br:
    Out += "br ";
    Out += I->blocks()[0]->name();
    return;
  case Opcode::CondBr:
    Out += "condbr ";
    appendName(Out, I->operand(0));
    Out += ", ";
    Out += I->blocks()[0]->name();
    Out += ", ";
    Out += I->blocks()[1]->name();
    return;
  case Opcode::Ret:
    Out += "ret";
    if (I->numOperands()) {
      Out += ' ';
      operands(0);
    }
    return;
  default:
    appendName(Out, I);
    Out += " = ";
    Out += opcodeName(I->opcode());
    Out += ' ';
    operands(0);
    return;
  }
}

void Printer::append(std::string &Out) const {
  // About one line of two dozen bytes per instruction.
  Out.reserve(Out.size() + 24 * size_t(F.instrSeqBound()) + 32);
  Out += "func ";
  Out += F.name();
  Out += '(';
  for (const Argument *A : F.arguments()) {
    if (A->index())
      Out += ", ";
    Out += A->name();
  }
  Out += ") {\n";
  for (const BasicBlock *BB : F.blocks()) {
    Out += BB->name();
    Out += ':';
    if (!BB->predecessors().empty()) {
      Out += "  ; preds:";
      for (const BasicBlock *P : BB->predecessors()) {
        Out += ' ';
        Out += P->name();
      }
    }
    Out += '\n';
    for (const Instruction *I : *BB) {
      Out += "  ";
      append(Out, I);
      Out += '\n';
    }
  }
  Out += "}\n";
}

std::string Printer::nameOf(const Value *V) const {
  std::string Out;
  appendName(Out, V);
  return Out;
}

std::string Printer::str(const Instruction *I) const {
  std::string Out;
  append(Out, I);
  return Out;
}

std::string biv::ir::toString(const Function &F) {
  std::string Out;
  Printer(F).append(Out);
  return Out;
}
