//===- dependence/DependenceAnalyzer.cpp - Whole-function driver ---------------===//

#include "dependence/DependenceAnalyzer.h"
#include "ir/Printer.h"
#include "support/Stats.h"
#include <set>

using namespace biv;
using namespace biv::dependence;
using ivclass::Classification;
using ivclass::IVKind;
using ivclass::MonotoneDir;

const char *biv::dependence::depKindName(DepKind K) {
  switch (K) {
  case DepKind::Flow:
    return "flow";
  case DepKind::Anti:
    return "anti";
  case DepKind::Output:
    return "output";
  }
  return "<bad>";
}

DependenceAnalyzer::DependenceAnalyzer(ivclass::InductionAnalysis &IA)
    : IA(IA) {}

DependenceAnalyzer::DependenceAnalyzer(ivclass::InductionAnalysis &IA,
                                       Options Opts)
    : IA(IA), Opts(Opts) {}

LoopBound DependenceAnalyzer::boundFor(const analysis::Loop *L) const {
  LoopBound B;
  B.L = L;
  const ivclass::TripCountInfo &TC = IA.tripCount(L);
  if (TC.isCountable() && !TC.Guarded)
    if (std::optional<Rational> C = TC.count().getConstant())
      if (C->isInteger())
        B.U = C->getInteger();
  return B;
}

namespace {

/// Restricts per-loop direction sets (outermost first) to vectors that are
/// lexicographically positive, or all-'=' when \p SrcBeforeDst.  Returns
/// false when no executable forward vector remains.  A level may keep GT
/// only when some outer level can still be LT.
bool restrictToForward(DependenceResult &R, bool SrcBeforeDst) {
  // Exact path: keep lexicographically positive vectors, plus the all-'='
  // vector when the source textually precedes the sink.
  if (!R.Vectors.empty()) {
    std::vector<std::vector<uint8_t>> Kept;
    for (const std::vector<uint8_t> &V : R.Vectors) {
      bool LexPos = false, AllEq = true;
      for (uint8_t D : V) {
        if (D == DirLT) {
          LexPos = true;
          AllEq = false;
          break;
        }
        if (D == DirGT) {
          AllEq = false;
          break;
        }
        // D == DirEQ: keep scanning.
      }
      if (LexPos || (AllEq && SrcBeforeDst))
        Kept.push_back(V);
    }
    R.Vectors = std::move(Kept);
    if (R.Vectors.empty())
      return false;
    R.projectVectors();
    return true;
  }
  // Approximate per-loop path.
  bool OuterLTPossible = false;
  for (LoopDirection &LD : R.Directions) {
    if (!OuterLTPossible)
      LD.Dirs &= uint8_t(DirLT | DirEQ);
    if (LD.Dirs == DirNone)
      return false;
    OuterLTPossible |= (LD.Dirs & DirLT) != 0;
  }
  // Either some loop can carry the dependence, or it is loop-independent
  // and needs the source to execute first.
  return OuterLTPossible || SrcBeforeDst;
}

/// Swaps source and sink: reverses directions, distances, and residues.
void reverseResult(DependenceResult &R) {
  for (LoopDirection &LD : R.Directions) {
    uint8_t D = LD.Dirs;
    LD.Dirs = uint8_t(((D & DirLT) ? DirGT : 0) | (D & DirEQ) |
                      ((D & DirGT) ? DirLT : 0));
    if (LD.Distance)
      LD.Distance = -*LD.Distance;
    if (LD.ModPeriod)
      LD.ModResidue = (*LD.ModPeriod - *LD.ModResidue) % *LD.ModPeriod;
  }
  for (std::vector<uint8_t> &V : R.Vectors)
    for (uint8_t &D : V)
      D = D == DirLT ? uint8_t(DirGT) : (D == DirGT ? uint8_t(DirLT) : D);
}

DepKind kindOf(bool SrcWrite, bool DstWrite) {
  if (SrcWrite)
    return DstWrite ? DepKind::Output : DepKind::Flow;
  return DepKind::Anti;
}

} // namespace

namespace {

const stats::Timer DependencePhase("phase.dependence");
const stats::Counter NumPairsTested("dependence.pairs_tested");
const stats::Counter NumIndependent("dependence.independent");
const stats::Counter NumAssumed("dependence.assumed");

/// Which decision algorithm proved a pair independent, keyed off the
/// DependenceResult note the deciding test recorded.
const stats::Counter &indepCounterFor(const std::string &Note) {
  static const stats::Counter Ziv("dependence.indep.ziv");
  static const stats::Counter ExactSiv("dependence.indep.exact_siv");
  static const stats::Counter Gcd("dependence.indep.gcd");
  static const stats::Counter Banerjee("dependence.indep.banerjee");
  static const stats::Counter Periodic("dependence.indep.periodic");
  static const stats::Counter Combine("dependence.indep.combine");
  if (Note.rfind("ZIV", 0) == 0)
    return Ziv;
  if (Note.rfind("exact SIV", 0) == 0)
    return ExactSiv;
  if (Note.rfind("GCD", 0) == 0)
    return Gcd;
  if (Note.rfind("Banerjee", 0) == 0)
    return Banerjee;
  if (Note.rfind("periodic", 0) == 0)
    return Periodic;
  return Combine; // cross-dimension/direction intersection proofs
}

} // namespace

std::vector<Dependence> DependenceAnalyzer::analyze() {
  stats::ScopedSpan Span(DependencePhase);
  // Gather references per array, in program order (block id, then index).
  struct ArrayRefs {
    std::vector<Reference> Refs;
    bool AnyWrite = false;
  };
  std::map<const ir::Array *, ArrayRefs> ByArray;
  const analysis::LoopInfo &LI = IA.loopInfo();
  for (const ir::BasicBlock *BB : IA.function().blocks())
    for (ir::Instruction *I : *BB) {
      bool IsWrite = I->opcode() == ir::Opcode::ArrayStore;
      if (!IsWrite && I->opcode() != ir::Opcode::ArrayLoad)
        continue;
      ArrayRefs &AR = ByArray[I->array()];
      AR.Refs.push_back({I, IsWrite, LI.loopFor(BB)});
      AR.AnyWrite |= IsWrite;
    }

  std::vector<Dependence> Result;
  for (auto &[Array, AR] : ByArray) {
    (void)Array;
    if (!AR.AnyWrite)
      continue;
    for (size_t I = 0; I < AR.Refs.size(); ++I)
      for (size_t J = I; J < AR.Refs.size(); ++J) {
        const Reference &R1 = AR.Refs[I];
        const Reference &R2 = AR.Refs[J];
        if (!R1.IsWrite && !R2.IsWrite)
          continue; // input "dependences" are not dependences
        if (I == J && !R1.IsWrite)
          continue;
        DependenceResult R = testPair(R1, R2);
        ++Stats.PairsTested;
        NumPairsTested.bump();
        if (R.O == DependenceResult::Outcome::Independent) {
          ++Stats.Independent;
          NumIndependent.bump();
          indepCounterFor(R.Note).bump();
          Dependence D;
          D.Src = R1.I;
          D.Dst = R2.I;
          D.Kind = kindOf(R1.IsWrite, R2.IsWrite);
          D.Result = std::move(R);
          Result.push_back(std::move(D));
          continue;
        }
        // Split by execution order: directions are h_src vs h_dst; the
        // forward pair keeps lexicographically positive vectors (plus the
        // loop-independent all-'=' when R1 precedes R2), the backward pair
        // gets the reversed remainder.
        bool Emitted = false;
        auto emit = [&](const Reference &S, const Reference &T,
                        DependenceResult RR, bool SrcBeforeDst) {
          if (!restrictToForward(RR, SrcBeforeDst))
            return;
          Dependence D;
          D.Src = S.I;
          D.Dst = T.I;
          D.Kind = kindOf(S.IsWrite, T.IsWrite);
          D.Result = std::move(RR);
          bool Refined = false, Exact = false;
          for (const LoopDirection &LD : D.Result.Directions) {
            Refined |= LD.Dirs != DirAll || LD.ModPeriod.has_value();
            Exact |= LD.Distance.has_value();
          }
          Stats.DirectionRefined += Refined;
          Stats.ExactDistance += Exact;
          Emitted = true;
          Result.push_back(std::move(D));
        };
        emit(R1, R2, R, /*SrcBeforeDst=*/I != J);
        if (I != J) {
          DependenceResult Rev = R;
          reverseResult(Rev);
          emit(R2, R1, std::move(Rev), /*SrcBeforeDst=*/false);
        }
        if (Emitted) {
          ++Stats.AssumedDependences;
          NumAssumed.bump();
        } else {
          ++Stats.Independent; // e.g. a self pair pinned to distance zero
          NumIndependent.bump();
          indepCounterFor(R.Note).bump();
        }
      }
  }
  return Result;
}

DependenceResult DependenceAnalyzer::testPair(const Reference &Src,
                                              const Reference &Dst) {
  // Common loops: enclose both references; outermost first.
  std::vector<LoopBound> Common, NonCommon;
  std::vector<const analysis::Loop *> SrcChain, DstChain;
  for (const analysis::Loop *L = Src.InnermostLoop; L; L = L->parent())
    SrcChain.push_back(L);
  for (const analysis::Loop *L = Dst.InnermostLoop; L; L = L->parent())
    DstChain.push_back(L);
  std::set<const analysis::Loop *> DstSet(DstChain.begin(), DstChain.end());
  for (auto It = SrcChain.rbegin(); It != SrcChain.rend(); ++It) {
    if (DstSet.count(*It))
      Common.push_back(boundFor(*It));
    else
      NonCommon.push_back(boundFor(*It));
  }
  for (const analysis::Loop *L : DstChain)
    if (!std::count_if(SrcChain.begin(), SrcChain.end(),
                       [&](const analysis::Loop *S) { return S == L; }))
      NonCommon.push_back(boundFor(L));

  // Test every dimension and combine.
  unsigned Rank = Src.I->array()->rank();
  std::vector<DependenceResult> Dims;
  for (unsigned D = 0; D < Rank; ++D) {
    const ir::Value *SrcSub =
        Src.I->operand(Src.IsWrite ? D + 1 : D); // stores carry the value
    const ir::Value *DstSub = Dst.I->operand(Dst.IsWrite ? D + 1 : D);
    Dims.push_back(
        testDimension(SrcSub, DstSub, Src, Dst, Common, NonCommon));
  }
  return combineDimensions(Dims);
}

namespace {

/// Are the ring initial values numeric and pairwise distinct (required to
/// exploit periodicity, section 4.2)?
bool distinctNumericRing(const std::vector<Affine> &Ring) {
  std::set<Rational> Seen;
  for (const Affine &A : Ring) {
    std::optional<Rational> C = A.getConstant();
    if (!C || !Seen.insert(*C).second)
      return false;
  }
  return true;
}

} // namespace

DependenceResult DependenceAnalyzer::testDimension(
    const ir::Value *SrcSub, const ir::Value *DstSub, const Reference &Src,
    const Reference &Dst, const std::vector<LoopBound> &Common,
    const std::vector<LoopBound> &NonCommon) {
  SubscriptInfo SI = classifySubscript(IA, SrcSub, Src.InnermostLoop);
  SubscriptInfo DI = classifySubscript(IA, DstSub, Dst.InnermostLoop);

  // When a subscript is invariant relative to its innermost loop, its
  // interesting class may live in an enclosing common loop (e.g. the
  // relaxation planes of section 4.2 rotate in the *outer* loop while the
  // array accesses sit in the inner sweep).  Pick the innermost enclosing
  // loop where the value is not merely invariant.
  auto effective = [&](const ir::Value *Sub,
                       ivclass::Classification C) -> ivclass::Classification {
    if (!C.isInvariant() && !C.isUnknown())
      return C;
    for (auto It = Common.rbegin(); It != Common.rend(); ++It) {
      const ivclass::Classification &C2 = IA.classify(Sub, It->L);
      if (!C2.isInvariant() && !C2.isUnknown())
        return C2;
    }
    return C;
  };
  SI.Class = effective(SrcSub, SI.Class);
  DI.Class = effective(DstSub, DI.Class);

  auto maybeAll = [&](std::string Note) {
    DependenceResult R;
    R.O = DependenceResult::Outcome::Maybe;
    for (const LoopBound &LB : Common)
      R.Directions.push_back(
          {LB.L, DirAll, std::nullopt, std::nullopt, std::nullopt});
    R.Note = std::move(Note);
    return R;
  };

  // Linear x linear: the classical tests.  A subscript linearized through
  // a wrap-around holds only after its settle order; the extended classes
  // flag that prefix, and without them such a pair stays assumed.
  const unsigned Order = std::max(SI.SettleOrder, DI.SettleOrder);
  if (SI.Linear && DI.Linear && (Order == 0 || Opts.UseExtendedClasses)) {
    DependenceResult R = testLinearPair(*SI.Linear, *DI.Linear, Common,
                                        NonCommon);
    if (Order == 0)
      return R;
    R.ValidAfterIterations = Order;
    if (R.O == DependenceResult::Outcome::Independent) {
      // Independence only proven for the settled iterations; the first
      // `Order` iterations still touch the wrapped value.
      R.O = DependenceResult::Outcome::Maybe;
      R.Note += " (wrap-around: first " + std::to_string(Order) +
                " iteration(s) unanalyzed)";
    } else {
      R.Note += " [holds after " + std::to_string(Order) +
                " iteration(s); peel to exploit]";
    }
    return R;
  }

  if (!Opts.UseExtendedClasses)
    return maybeAll("non-linear subscripts (extended classes disabled)");

  const Classification &SC = SI.Class;
  const Classification &DC = DI.Class;

  if (SC.isWrapAround() || DC.isWrapAround())
    return maybeAll("wrap-around with unsupported inner class");

  // Periodic x periodic: same family with distinct ring values means the
  // dependence distance is fixed modulo the period.
  if (SC.isPeriodic() && DC.isPeriodic()) {
    if (SC.FamilyId != DC.FamilyId || SC.PScale != DC.PScale ||
        SC.POffset != DC.POffset)
      return maybeAll("periodic: unrelated families");
    if (!distinctNumericRing(SC.RingInits))
      return maybeAll("periodic: ring values not provably distinct");
    // Values match iff (phase_src + h_src) == (phase_dst + h_dst) (mod p):
    // h_dst - h_src == phase_src - phase_dst (mod p).
    unsigned P = SC.Period;
    unsigned Residue = (SC.Phase + P - DC.Phase) % P;
    DependenceResult R = maybeAll("periodic family");
    // The modular constraint binds the loop that rotates the family.
    for (LoopDirection &LD : R.Directions)
      if (LD.L == SC.L) {
        LD.ModPeriod = P;
        LD.ModResidue = Residue;
        if (Residue != 0)
          LD.Dirs &= ~DirEQ; // the paper's "=" -> "!=" translation
      }
    return R;
  }

  // Monotonic x monotonic within one recurrence (Figure 10).
  if (SC.isMonotonic() && DC.isMonotonic() && SC.MonoFamilyId != 0 &&
      SC.MonoFamilyId == DC.MonoFamilyId) {
    DependenceResult R = maybeAll("monotonic family");
    const analysis::Loop *ML = SC.L;
    for (LoopDirection &LD : R.Directions) {
      if (LD.L != ML)
        continue;
      if (SrcSub == DstSub && SC.Strict) {
        // The same strictly monotonic value never repeats: "=" only.
        LD.Dirs = DirEQ;
        LD.Distance = 0;
      } else {
        // Equal values of a (non-strict) monotonic recurrence can only
        // occur at non-negative distance: "=" becomes "<=".
        LD.Dirs = DirLT | DirEQ;
      }
    }
    R.Note = SC.Strict ? "monotonic: strict" : "monotonic: non-strict";
    return R;
  }

  // Non-linear closed forms (geometric / c-finite): when both subscripts
  // follow the *same* exact sequence in the same loop and that sequence is
  // provably strictly monotone, equal values can only meet at equal
  // iterations -- "=" with distance 0 in that loop (the closed-form
  // counterpart of the strict-monotonic rule above).  Partial forms are
  // exact for the value they describe, so they qualify too.
  if (SC.hasClosedForm() && DC.hasClosedForm() && SC.L && SC.L == DC.L &&
      SC.Form == DC.Form &&
      // A numeric initial value plus a numeric-difference monotonicity proof
      // pins the whole sequence to fixed numbers, so it is the same sequence
      // on every iteration of any enclosing loop (a symbolic term could be
      // rebound there, breaking the equal-iteration argument).
      SC.Form.initialValue().getConstant().has_value()) {
    const bool StrictlyUp = SC.Form.provablyIncreasing();
    const bool StrictlyDown = (-SC.Form).provablyIncreasing();
    if (StrictlyUp || StrictlyDown) {
      static const stats::Counter NumClosedFormEQ("dependence.closed_form_eq");
      NumClosedFormEQ.bump();
      DependenceResult R = maybeAll("closed form: strictly monotone");
      for (LoopDirection &LD : R.Directions)
        if (LD.L == SC.L) {
          LD.Dirs = DirEQ;
          LD.Distance = 0;
        }
      return R;
    }
  }

  // Phase-periodic subscripts (the summarizer's per-phase closed forms):
  // when both references follow the same k-tuple of forms in the same loop
  // and the interleaved sequence value(h) = form[h mod k](h div k) is
  // strictly monotone across every phase boundary (including the wrap into
  // the next cycle), equal values meet only at equal iterations -- "=" with
  // distance 0, exactly like the strict closed-form rule above.
  if (SC.isPhasePeriodic() && DC.isPhasePeriodic() && SC.L && SC.L == DC.L &&
      SC.Period == DC.Period && SC.PhaseForms == DC.PhaseForms) {
    bool Numeric = true;
    for (const ivclass::ClosedForm &F : SC.PhaseForms)
      if (!F.initialValue().getConstant()) {
        Numeric = false;
        break;
      }
    if (Numeric &&
        (SC.phaseSequenceStrictly(MonotoneDir::Increasing) ||
         SC.phaseSequenceStrictly(MonotoneDir::Decreasing))) {
      static const stats::Counter NumPhasePeriodicEQ(
          "dependence.phase_periodic_eq");
      NumPhasePeriodicEQ.bump();
      DependenceResult R = maybeAll("phase-periodic: strictly monotone");
      for (LoopDirection &LD : R.Directions)
        if (LD.L == SC.L) {
          LD.Dirs = DirEQ;
          LD.Distance = 0;
        }
      return R;
    }
  }

  return maybeAll("unclassified subscript pair");
}

std::string
DependenceAnalyzer::report(const std::vector<Dependence> &Deps) const {
  ir::Printer P(IA.function());
  std::string Out;
  for (const Dependence &D : Deps) {
    Out += depKindName(D.Kind);
    Out += " dep " + P.str(D.Src) + "  ->  " + P.str(D.Dst) + "\n";
    switch (D.Result.O) {
    case DependenceResult::Outcome::Independent:
      Out += "  INDEPENDENT (" + D.Result.Note + ")\n";
      continue;
    case DependenceResult::Outcome::Dependent:
      Out += "  dependent (" + D.Result.Note + ")";
      break;
    case DependenceResult::Outcome::Maybe:
      Out += "  assumed (" + D.Result.Note + ")";
      break;
    }
    for (const LoopDirection &LD : D.Result.Directions) {
      Out += "  " + LD.L->name() + ":" + dirSetStr(LD.Dirs);
      if (LD.Distance)
        Out += " dist=" + std::to_string(*LD.Distance);
      if (LD.ModPeriod)
        Out += " dist==" + std::to_string(*LD.ModResidue) + " (mod " +
               std::to_string(*LD.ModPeriod) + ")";
    }
    if (D.Result.ValidAfterIterations)
      Out += "  after " + std::to_string(D.Result.ValidAfterIterations) +
             " iter";
    Out += "\n";
  }
  return Out;
}
