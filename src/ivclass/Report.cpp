//===- ivclass/Report.cpp - Classification report -------------------------------===//

#include "ivclass/Report.h"
#include "ir/Printer.h"
#include "support/Stats.h"
#include <optional>

using namespace biv;
using namespace biv::ivclass;

namespace {
// The per-kind stats counters mirror the lattice, indexed by IVKind.
// countHeaderPhiKinds is the one accounting site (callers invoke it once
// per analyzed function: driver::analyzeUnit per unit, bivc once per run),
// so the `ivclass.kind.*` counters always equal the KindCounts the Report
// is rendered from, and the batch footer can read them back.
const stats::Counter KindCounters[] = {
    stats::Counter("ivclass.kind.unknown"),
    stats::Counter("ivclass.kind.invariant"),
    stats::Counter("ivclass.kind.linear"),
    stats::Counter("ivclass.kind.polynomial"),
    stats::Counter("ivclass.kind.geometric"),
    stats::Counter("ivclass.kind.cfinite"),
    stats::Counter("ivclass.kind.wrap_around"),
    stats::Counter("ivclass.kind.periodic"),
    stats::Counter("ivclass.kind.monotonic"),
    stats::Counter("ivclass.kind.phase_periodic"),
};
static_assert(std::size(KindCounters) == size_t(IVKind::PhasePeriodic) + 1,
              "one counter per IVKind, in enum order");
// The punt-rate numerator: header phis the analysis gave up on entirely.
// ivclass.punt / sum(ivclass.kind.*) is the tracked punt rate (see
// EXPERIMENTS.md); partial counts closed forms projected out of unsolvable
// regions, i.e. phis that would have been punts before the c-finite
// extension.
const stats::Counter KindPartial("ivclass.kind.partial");
const stats::Counter Punt("ivclass.punt");
} // namespace

std::string biv::ivclass::report(InductionAnalysis &IA,
                                 const ssa::SSAInfo *Info,
                                 const ReportOptions &Opts) {
  static const stats::Timer ReportPhase("phase.report");
  stats::ScopedSpan Span(ReportPhase);
  const analysis::LoopInfo &LI = IA.loopInfo();
  const SymbolNamer Namer = IA.namer();
  std::string Out;
  // Labels come from the source variables where there are any, so most
  // reports never need the printer's temp numbering: it is built on first
  // use.
  std::optional<ir::Printer> P;
  auto irName = [&](const ir::Instruction *I) {
    if (!P)
      P.emplace(IA.function());
    P->appendName(Out, I);
  };
  for (const auto &L : LI.loops()) {
    Out += "loop ";
    Out += L->name();
    Out += " (depth ";
    Out += std::to_string(L->depth());
    Out += "): trip count ";
    IA.tripCount(L.get()).append(Out, Namer);
    Out += '\n';
    // The rest of a line, after its label.
    auto tuple = [&](const ir::Instruction *I) {
      const Classification &C = IA.classify(I, L.get());
      Out += ": ";
      if (Opts.NestedTuples)
        IA.appendNested(Out, C);
      else
        C.append(Out, Namer);
      Out += '\n';
    };
    for (ir::Instruction *Phi : L->header()->phis()) {
      Out += "  ";
      if (const ir::Var *V = Info ? Phi->variable() : nullptr)
        Out += V->name();
      else
        irName(Phi);
      tuple(Phi);
    }
    if (Opts.AllValues)
      for (ir::BasicBlock *BB : L->blocks()) {
        if (LI.loopFor(BB) != L.get())
          continue;
        for (const ir::Instruction *I : *BB) {
          if (I->isPhi() && I->parent() == L->header())
            continue;
          if (I->isTerminator() || I->hasSideEffects())
            continue;
          Out += "  ";
          irName(I);
          tuple(I);
        }
      }
  }
  return Out;
}

KindCounts biv::ivclass::countHeaderPhiKinds(InductionAnalysis &IA) {
  KindCounts C;
  for (const auto &L : IA.loopInfo().loops())
    for (ir::Instruction *Phi : L->header()->phis()) {
      const Classification &PhiClass = IA.classify(Phi, L.get());
      if (PhiClass.Partial)
        ++C.Partial;
      kindCounter(PhiClass.Kind).bump();
      switch (PhiClass.Kind) {
      case IVKind::Linear:
        ++C.Linear;
        break;
      case IVKind::Polynomial:
        ++C.Polynomial;
        break;
      case IVKind::Geometric:
        ++C.Geometric;
        break;
      case IVKind::CFinite:
        ++C.CFinite;
        break;
      case IVKind::WrapAround:
        ++C.WrapAround;
        break;
      case IVKind::Periodic:
        ++C.Periodic;
        break;
      case IVKind::Monotonic:
        ++C.Monotonic;
        break;
      case IVKind::PhasePeriodic:
        ++C.PhasePeriodic;
        break;
      case IVKind::Invariant:
        ++C.Invariant;
        break;
      case IVKind::Unknown:
        ++C.Unknown;
        break;
      }
    }
  KindPartial.bump(C.Partial);
  Punt.bump(C.Unknown);
  return C;
}

const stats::Counter &biv::ivclass::kindCounter(IVKind K) {
  return KindCounters[size_t(K)];
}
