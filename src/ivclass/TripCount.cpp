//===- ivclass/TripCount.cpp - Loop trip counts --------------------------------===//

#include "ivclass/TripCount.h"
#include "support/Stats.h"

using namespace biv;
using namespace biv::ivclass;

void TripCountInfo::append(std::string &Out, const SymbolNamer &Namer) const {
  switch (K) {
  case Kind::Unknown:
    Out += "unknown";
    if (MaxCount) {
      Out += " (max ";
      MaxCount->append(Out, Namer);
      Out += ')';
    }
    return;
  case Kind::Zero:
    Out += '0';
    return;
  case Kind::Finite:
    Count.append(Out, Namer);
    if (Guarded)
      Out += " (if positive, else 0)";
    return;
  case Kind::Infinite:
    Out += "infinite";
    return;
  }
  Out += "<bad>";
}

std::string TripCountInfo::str(const SymbolNamer &Namer) const {
  std::string Out;
  append(Out, Namer);
  return Out;
}

namespace {

/// An equality-controlled exit (K = 1): the loop stays while E(h) == 0
/// (\p StayEqual) or while E(h) != 0, for the margin E(h) = I0 + S*h.
TripCountInfo equalityCount(TripCountInfo Info, bool StayEqual,
                            const Rational &I0, const Rational &S) {
  if (StayEqual) {
    // Exits at the first h with E(h) != 0.
    if (!I0.isZero())
      Info.K = TripCountInfo::Kind::Zero;
    else if (S.isZero())
      Info.K = TripCountInfo::Kind::Infinite;
    else {
      Info.K = TripCountInfo::Kind::Finite;
      Info.Count = Affine(1); // E(0)==0, E(1)!=0.
    }
    return Info;
  }
  // Stay while different: exits at the first h with E(h) == 0.
  if (S.isZero()) {
    Info.K = I0.isZero() ? TripCountInfo::Kind::Zero
                         : TripCountInfo::Kind::Infinite;
    return Info;
  }
  Rational H = -I0 / S;
  if (H.isInteger() && !H.isNegative()) {
    Info.K = TripCountInfo::Kind::Finite;
    Info.Count = Affine(H.getInteger());
  } else {
    Info.K = TripCountInfo::Kind::Infinite;
  }
  return Info;
}

/// Trip count of a single exit: the first h >= 0 at which the exit fires.
/// May throw RationalOverflow when the margin arithmetic leaves int64 (e.g.
/// bounds near INT64_MIN/MAX); the analyzeExit wrapper below degrades that
/// to Unknown.
TripCountInfo analyzeExitImpl(const analysis::Loop &L,
                              ir::BasicBlock *Exiting,
                              const ClassifyFn &Classify) {
  TripCountInfo Info;
  ir::Instruction *Term = Exiting->terminator();
  if (!Term || Term->opcode() != ir::Opcode::CondBr)
    return Info;
  auto *Cmp = ir::dyn_cast<ir::Instruction>(Term->operand(0));
  if (!Cmp || !Cmp->isCompare())
    return Info;

  // Which way stays in the loop?
  bool TrueStays = L.contains(Term->blocks()[0]);
  bool FalseStays = L.contains(Term->blocks()[1]);
  if (TrueStays == FalseStays)
    return Info; // Not really an exit (or a degenerate branch).

  // Each operand is a closed form, or a phase-periodic tuple (the
  // summarizer's per-phase forms) that it settles into after W iterations
  // of wrap-around (reset variables and rotations).  The first W
  // iterations carry no claim, so a count through W > 0 degrades from
  // exact to an upper bound below.
  Classification LC = Classify(Cmp->operand(0));
  Classification RC = Classify(Cmp->operand(1));
  unsigned LOrd = 0, ROrd = 0;
  const Classification &LS = LC.settled(LOrd);
  const Classification &RS = RC.settled(ROrd);
  const bool LPhase = LS.isPhasePeriodic();
  const bool RPhase = RS.isPhasePeriodic();
  if ((!LC.isAffineForm() && !LPhase) || (!RC.isAffineForm() && !RPhase))
    return Info;

  // Normalize the *stay* condition to a < b (integer arithmetic: a <= b is
  // a < b+1).  The table in section 5.2, folded with the stay/exit sense.
  ir::Opcode Op = Cmp->opcode();
  if (!TrueStays) {
    switch (Op) { // Negate: stay condition is the false branch.
    case ir::Opcode::CmpEQ:
      Op = ir::Opcode::CmpNE;
      break;
    case ir::Opcode::CmpNE:
      Op = ir::Opcode::CmpEQ;
      break;
    case ir::Opcode::CmpLT:
      Op = ir::Opcode::CmpGE;
      break;
    case ir::Opcode::CmpLE:
      Op = ir::Opcode::CmpGT;
      break;
    case ir::Opcode::CmpGT:
      Op = ir::Opcode::CmpLE;
      break;
    case ir::Opcode::CmpGE:
      Op = ir::Opcode::CmpLT;
      break;
    default:
      return Info;
    }
  }
  const bool Equality = Op == ir::Opcode::CmpEQ || Op == ir::Opcode::CmpNE;

  Info.ExitBranch = Term;
  Info.ExitingBlock = Exiting;

  // Both sides become forms in the cycle index c at h = W + K*c + p, one
  // pair per phase p.  A phase tuple sets K to its period (ordering
  // compares only, tuples of this loop that agree on K and W); two closed
  // forms are K = 1, W = 0, where atLinear(1, 0) is the identity.
  unsigned K = 1, W = 0;
  if (LPhase || RPhase) {
    K = LPhase ? LS.Period : RS.Period;
    W = LPhase ? LOrd : ROrd;
    if (Equality || K < 2 ||
        (LPhase && RPhase && (LS.Period != RS.Period || LOrd != ROrd)) ||
        (LPhase && LS.L != &L) || (RPhase && RS.L != &L))
      return Info;
  }
  const ClosedForm One = ClosedForm::constant(Affine(1));
  std::vector<std::pair<ClosedForm, ClosedForm>> Ops; // per phase, in c
  std::optional<Rational> Best; // first failing h - W across phases
  for (unsigned P = 0; P < K; ++P) {
    std::optional<ClosedForm> AP =
        LPhase ? std::optional<ClosedForm>(LS.PhaseForms[P])
               : LC.Form.atLinear(int64_t(K), int64_t(W + P));
    std::optional<ClosedForm> BP =
        RPhase ? std::optional<ClosedForm>(RS.PhaseForms[P])
               : RC.Form.atLinear(int64_t(K), int64_t(W + P));
    if (!AP || !BP)
      return Info;
    // The margin E: "stay iff E(c) > 0" for orderings, and b - a (zero iff
    // equal) for EQ/NE.
    ClosedForm E;
    switch (Op) {
    case ir::Opcode::CmpEQ:
    case ir::Opcode::CmpNE:
    case ir::Opcode::CmpLT: // a < b
      E = *BP - *AP;
      break;
    case ir::Opcode::CmpLE: // a <= b  ==  a < b+1
      // Subtract before adding the 1: b+1 overflows for b == INT64_MAX (the
      // classic `downto`/`to` boundary loops) even when the margin is small.
      E = *BP - *AP + One;
      break;
    case ir::Opcode::CmpGT: // a > b  ==  b < a
      E = *AP - *BP;
      break;
    case ir::Opcode::CmpGE: // a >= b  ==  b < a+1
      E = *AP - *BP + One;
      break;
    default:
      return Info;
    }
    if (!E.isLinear())
      return Info;
    std::optional<Rational> IC = E.coeff(0).getConstant();
    std::optional<Rational> S = E.coeff(1).getConstant();
    if (Equality)
      return IC && S ? equalityCount(Info, Op == ir::Opcode::CmpEQ, *IC, *S)
                     : Info;
    if (!IC || (!S && K > 1)) {
      // Symbolic initial margin: only the unit-step case divides exactly
      // (ceil(i/1) == i); this covers every `for v = lo to hi` loop.
      if (K == 1 && !IC && S && *S == Rational(-1)) {
        Info.K = TripCountInfo::Kind::Finite;
        Info.Count = E.coeff(0);
        Info.Guarded = true;
      }
      return Info;
    }
    // Stay at h = W + K*c + P iff E(c) > 0; c_P = first failing cycle.
    std::optional<int64_t> CP;
    if (!IC->isPositive())
      CP = 0; // fails before the first stay, whatever the step
    else if (!S)
      return Info; // a symbolic step may never shrink the margin
    else if (S->isNegative())
      CP = (*IC / -*S).ceil();
    if (CP) {
      Rational H = Rational(int64_t(K)) * Rational(*CP) + Rational(int64_t(P));
      if (!Best || H < *Best)
        Best = H;
    }
    Ops.emplace_back(std::move(*AP), std::move(*BP));
  }
  if (!Best) {
    // No margin ever fails: a closed-form exit never fires; a phase tuple's
    // is only possibly infinite.
    if (K == 1)
      Info.K = TripCountInfo::Kind::Infinite;
    return Info;
  }
  // Wrap guard: the count reasons over Z, but execution wraps in two's-
  // complement int64.  If an operand overflows before the deciding
  // iteration (e.g. `i < INT64_MAX` from INT64_MAX-5 stepping by 2 jumps
  // past the bound and wraps negative, staying in the loop), the exact
  // count is a lie about the machine.  Evaluating each phase form at cycle
  // 0 and at the cycle where the exit fires (the next cycle for a phase
  // tuple) bounds every operand's trajectory (|base| >= 1 for every
  // geometric term, so magnitudes peak at the endpoints); an overflow
  // throws and the wrapper reports Unknown instead.
  const int64_t CEnd =
      K == 1 ? Best->getInteger() : Best->getInteger() / int64_t(K) + 1;
  for (const auto &[A, B] : Ops) {
    (void)A.evaluateAt(0);
    (void)B.evaluateAt(0);
    (void)A.evaluateAt(CEnd);
    (void)B.evaluateAt(CEnd);
  }
  if (W > 0) {
    // The wrapped warmup is unverified: the loop exits no later than
    // W + Best, possibly earlier.
    Info.MaxCount = Affine(Rational(int64_t(W)) + *Best);
  } else if (Best->isZero()) {
    Info.K = TripCountInfo::Kind::Zero;
  } else {
    Info.K = TripCountInfo::Kind::Finite;
    Info.Count = Affine(*Best);
  }
  return Info;
}

/// analyzeExitImpl with overflow containment: margins built from bounds
/// near INT64_MIN/MAX (the `(hi - lo)` subtraction, the `<=` +1 rewrite,
/// the final-value evaluation) throw RationalOverflow; an uncountable exit
/// is Unknown, never a wrapped number.
TripCountInfo analyzeExit(const analysis::Loop &L, ir::BasicBlock *Exiting,
                          const ClassifyFn &Classify) {
  static const stats::Counter NumOverflows("ivclass.tripcount.overflow");
  try {
    return analyzeExitImpl(L, Exiting, Classify);
  } catch (const RationalOverflow &) {
    NumOverflows.bump();
    return TripCountInfo();
  }
}

} // namespace

TripCountInfo biv::ivclass::computeTripCount(const analysis::Loop &L,
                                             const ClassifyFn &Classify) {
  const std::vector<ir::BasicBlock *> &Exiting = L.exitingBlocks();
  if (Exiting.empty())
    return TripCountInfo(); // No exit: unknown (runs forever or via return).

  if (Exiting.size() == 1)
    return analyzeExit(L, Exiting[0], Classify);

  // Multiple exits: the true count is the minimum over all exits.  Numeric
  // finite counts combine exactly; otherwise report an upper bound.
  TripCountInfo Combined;
  std::optional<Affine> Min;
  bool AllNumeric = true;
  for (ir::BasicBlock *BB : Exiting) {
    TripCountInfo One = analyzeExit(L, BB, Classify);
    if (One.K == TripCountInfo::Kind::Zero) {
      // Some exit fires before the first stay: the whole loop trips zero
      // times regardless of the others.
      return One;
    }
    if (One.K == TripCountInfo::Kind::Infinite)
      continue; // Never fires; other exits decide.
    if (One.K != TripCountInfo::Kind::Finite) {
      AllNumeric = false;
      // An Unknown exit that still carries an upper bound (a wrapped
      // phase-periodic count) tightens the combined bound: the loop exits
      // no later than the earliest bound over its exits.
      if (One.K == TripCountInfo::Kind::Unknown && One.MaxCount &&
          One.MaxCount->isConstant()) {
        if (!Min || (Min->isConstant() &&
                     *One.MaxCount->getConstant() < *Min->getConstant()))
          Min = *One.MaxCount;
      }
      continue;
    }
    if (One.Guarded || !One.Count.isConstant())
      AllNumeric = false;
    if (!Min) {
      Min = One.Count;
    } else if (Min->isConstant() && One.Count.isConstant()) {
      if (*One.Count.getConstant() < *Min->getConstant())
        Min = One.Count;
    } else {
      AllNumeric = false;
    }
  }
  if (Min && AllNumeric) {
    Combined.K = TripCountInfo::Kind::Finite;
    Combined.Count = *Min;
  } else if (Min) {
    Combined.K = TripCountInfo::Kind::Unknown;
    Combined.MaxCount = *Min;
  }
  return Combined;
}
