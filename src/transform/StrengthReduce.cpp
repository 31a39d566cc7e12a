//===- transform/StrengthReduce.cpp - Strength reduction -------------------------===//

#include "transform/StrengthReduce.h"
#include "support/Stats.h"

#include "ir/AffineOrder.h"

using namespace biv;
using namespace biv::transform;

namespace {

/// Every affine symbol must be defined outside \p L (it is, by
/// construction of the classification) *and* dominate the preheader end;
/// with our single-preheader loops that is automatic, but guard anyway by
/// requiring symbols to be non-instructions or instructions outside L.
bool symbolsAvailable(const Affine &V, const analysis::Loop *L) {
  for (const auto &[Sym, Coeff] : V.terms()) {
    (void)Coeff;
    const auto *I =
        ir::dyn_cast<ir::Instruction>(static_cast<const ir::Value *>(Sym));
    if (I && L->contains(I->parent()))
      return false;
  }
  return true;
}

} // namespace

StrengthReduceStats
biv::transform::strengthReduce(ivclass::InductionAnalysis &IA) {
  static const stats::Timer TransformPhase("phase.transform");
  stats::ScopedSpan Span(TransformPhase);
  StrengthReduceStats Stats;
  ir::Function &F = IA.function();
  const analysis::LoopInfo &LI = IA.loopInfo();

  for (const analysis::Loop *L : LI.innerToOuter()) {
    if (!L->preheader() || L->latches().size() != 1)
      continue;
    ir::BasicBlock *Preheader = L->preheader();
    ir::BasicBlock *Latch = L->latches().front();

    // Collect reducible multiplications first; rewriting mutates blocks.
    std::vector<std::pair<ir::Instruction *, ivclass::ClosedForm>> Work;
    for (ir::BasicBlock *BB : L->blocks()) {
      const analysis::Loop *Innermost = LI.loopFor(BB);
      for (ir::Instruction *I : *BB) {
        if (I->opcode() != ir::Opcode::Mul)
          continue;
        std::optional<ivclass::ClosedForm> Form;
        if (Innermost == L) {
          const ivclass::Classification &C = IA.classify(I, L);
          if (C.isLinear())
            Form = C.Form;
        } else if (IA.classify(I, Innermost).isInvariant()) {
          // Inside a nested loop but invariant there: the value advances
          // only with L.  The mul itself is not a node of L's SSA graph, so
          // derive its L-form from the operands' classifications.
          const ivclass::Classification &A = IA.classify(I->operand(0), L);
          const ivclass::Classification &B = IA.classify(I->operand(1), L);
          if (A.hasClosedForm() && B.hasClosedForm())
            if (std::optional<ivclass::ClosedForm> P =
                    A.Form.mulChecked(B.Form))
              if (P->isLinear() && !P->isInvariant())
                Form = *P;
        }
        if (!Form)
          continue;
        if (!symbolsAvailable(Form->coeff(0), L) ||
            !symbolsAvailable(Form->coeff(1), L))
          continue;
        Work.push_back({I, *Form});
      }
    }

    for (auto &[Mul, Form] : Work) {
      // Materialize init and step at the end of the preheader.
      size_t PrePos = Preheader->size() - (Preheader->terminator() ? 1 : 0);
      ir::Value *Init =
          ir::materializeAffine(F, Form.coeff(0), Preheader, PrePos,
                                std::string(Mul->name()) + ".sr.init");
      if (!Init)
        continue;
      ir::Value *Step =
          ir::materializeAffine(F, Form.coeff(1), Preheader, PrePos,
                                std::string(Mul->name()) + ".sr.step");
      if (!Step)
        continue;

      // Recurrence: X = phi(init, X + step).
      ir::Instruction *Phi = L->header()->insertAt(
          L->header()->phis().size(),
          F.newInstr(ir::Opcode::Phi, {},
                     F.uniqueName(Mul->name().empty()
                                      ? std::string("sr")
                                      : std::string(Mul->name()) + ".sr")));
      ir::Instruction *Next = Latch->insertBeforeTerminator(
          F.newInstr(ir::Opcode::Add, {Phi, Step},
                     F.uniqueName(std::string(Phi->name()) + ".next")));
      // Wire the phi: one incoming per header predecessor.
      for (ir::BasicBlock *Pred : L->header()->predecessors())
        Phi->addIncoming(L->contains(Pred) ? static_cast<ir::Value *>(Next)
                                           : Init,
                         Pred);
      ++Stats.PhisInserted;

      // The multiplication's value on iteration h is exactly X(h).
      F.replaceAllUsesWith(Mul, Phi);
      Mul->parent()->erase(Mul);
      ++Stats.Reduced;
    }
  }
  F.recomputePreds();
  static const stats::Counter NumReduced("transform.strength_reduced");
  static const stats::Counter NumPhisInserted("transform.phis_inserted");
  NumReduced.bump(Stats.Reduced);
  NumPhisInserted.bump(Stats.PhisInserted);
  return Stats;
}
