//===- ivclass/InductionAnalysis.cpp - The paper's algorithm -------------------===//

#include "ivclass/InductionAnalysis.h"
#include "ivclass/RecurrenceSolver.h"
#include "ivclass/SSAGraph.h"
#include "ivclass/Summarize.h"
#include "ir/AffineOrder.h"
#include "support/Stats.h"
#include <algorithm>
#include <optional>
#include <set>
#include <unordered_set>

using namespace biv;
using namespace biv::ivclass;

//===----------------------------------------------------------------------===//
// ClassTable
//===----------------------------------------------------------------------===//

const ir::Instruction *ClassTable::ownInstruction(const ir::Value *V) const {
  const auto *I = ir::dyn_cast<ir::Instruction>(V);
  return I && I->parent() && LI->loopFor(I->parent()) == L ? I : nullptr;
}

Classification *ClassTable::find(const ir::Value *V) {
  if (const ir::Instruction *I = ownInstruction(V))
    return I->seq() < Slots->size() ? (*Slots)[I->seq()] : nullptr;
  auto It = Other.find(V);
  return It != Other.end() ? It->second : nullptr;
}

Classification &ClassTable::getOrCreate(const ir::Value *V, bool &Created) {
  Created = false;
  Classification **Slot;
  if (const ir::Instruction *I = ownInstruction(V)) {
    const unsigned Seq = I->seq();
    if (Seq >= Slots->size())
      Slots->resize(std::max<size_t>(Seq + 1, Slots->size() * 2), nullptr);
    Slot = &(*Slots)[Seq];
  } else {
    Slot = &Other[V];
  }
  if (!*Slot) {
    Pool.emplace_back();
    *Slot = &Pool.back();
    Entries.push_back({V, *Slot});
    Created = true;
  }
  return **Slot;
}

namespace {

/// A symbolic value during SCR evaluation: A * X + B(h), where X is the
/// value of the region's loop-header phi on the current iteration.
/// Through records which SCR nodes this path's value passed through; it
/// feeds the paper's per-member strictness argument (Figure 10: "if the k3
/// assignment occurs more than once, it must assign a larger value each
/// time").
struct LinTerm {
  Rational A;
  ClosedForm B;
  std::set<const ir::Instruction *> Through;

  bool operator==(const LinTerm &O) const { return A == O.A && B == O.B; }
};

/// The set of possible symbolic values of a node (one per control path
/// through the loop body); nullopt = not expressible.
using SymSet = std::vector<LinTerm>;

/// Classifies one loop.  Owned state is per-loop; long-lived results land in
/// the analysis' ClassMap.
class LoopClassifier {
public:
  /// \p NodeBySeq and \p InSCRMask are the analysis' shared seq-indexed
  /// scratch, all clear on entry and again once this classifier is gone.
  LoopClassifier(InductionAnalysis &IA, const analysis::Loop *L,
                 ClassTable &Map, const InductionAnalysis::Options &Opts,
                 unsigned &FamilyId, InductionAnalysis::Stats &S,
                 std::vector<unsigned> &NodeBySeq,
                 std::vector<char> &InSCRMask)
      : IA(IA), L(L), G(*L, IA.loopInfo(), NodeBySeq), Map(Map), Opts(Opts),
        NextFamilyId(FamilyId), S(S), InSCRMask(InSCRMask) {
    // The graph construction numbered the function if needed; the SCR
    // membership mask is keyed by those sequence numbers.
    const unsigned SeqBound = L->header()->parent()->instrSeqBound();
    if (InSCRMask.size() < SeqBound)
      InSCRMask.resize(SeqBound, 0);
    // Arrays written inside the loop (for the array-load invariance rule).
    for (ir::BasicBlock *BB : L->blocks())
      for (const auto &I : *BB)
        if (I->opcode() == ir::Opcode::ArrayStore)
          StoredArrays.insert(I->array());
  }

  ~LoopClassifier() {
    // A region that overflowed skipped its own reset; its marks last until
    // the end of this loop, as with a per-loop mask.
    for (const ir::Instruction *N : G.nodes())
      InSCRMask[N->seq()] = 0;
  }

  void run() {
    static const stats::Counter NumSCCs("ivclass.sccs_visited");
    static const stats::Counter NumOverflows("ivclass.classify.overflow");
    for (const SCR &Region : G.stronglyConnectedRegions()) {
      ++S.Regions;
      NumSCCs.bump();
      try {
        if (Region.Trivial)
          classifyTrivial(Region.Nodes.front());
        else
          classifyRegion(Region);
      } catch (const RationalOverflow &) {
        // Exact arithmetic left int64 somewhere in this region's algebra.
        // Classifications are per-region, so degrade just this region to
        // unknown (overwriting any partial result) and keep going; later
        // regions see "unknown" operands, the defined fallback.
        NumOverflows.bump();
        for (ir::Instruction *I : Region.Nodes)
          setClass(I, Classification::unknown());
        ++S.UnknownRegions;
      }
    }
  }

private:
  const Classification &classOf(const ir::Value *V) {
    bool Created = false;
    Classification &C = Map.getOrCreate(V, Created);
    if (Created)
      C = IA.classifyExternal(V, L);
    return C;
  }

  void setClass(const ir::Instruction *I, Classification C) {
    bool Created = false;
    Map.getOrCreate(I, Created) = std::move(C);
  }

  bool inSCR(const ir::Instruction *I) const {
    return I->seq() < InSCRMask.size() && InSCRMask[I->seq()];
  }

  //===------------------------------------------------------------------===//
  // Trivial regions
  //===------------------------------------------------------------------===//

  void classifyTrivial(ir::Instruction *I) {
    if (I->isPhi()) {
      if (I->parent() == L->header())
        setClass(I, classifyHeaderPhi(I));
      else
        setClass(I, classifyMergePhi(I));
      return;
    }
    setClass(I, classifyOperation(I));
  }

  /// A loop-header phi alone in its region: a wrap-around variable
  /// (section 4.1), re-classified as an induction variable when the initial
  /// value fits the carried sequence.
  Classification classifyHeaderPhi(ir::Instruction *Phi) {
    ir::Value *Init = nullptr, *Carried = nullptr;
    if (!splitHeaderPhi(Phi, Init, Carried))
      return Classification::unknown();
    const Classification &CC = classOf(Carried);

    if (CC.hasClosedForm()) {
      // phi(h) = carried(h-1); does the initial value fit the sequence?
      std::optional<ClosedForm> Shifted = CC.Form.shifted(-1);
      Classification InitC = IA.classifyExternal(Init, L);
      if (Shifted && InitC.isInvariant() &&
          Shifted->evaluateAt(0) == InitC.Form.initialValue())
        return Classification::fromForm(L, *Shifted);
      ++S.WrapArounds;
      return Classification::wrapAround(L, 1, CC);
    }
    if (CC.isWrapAround()) {
      ++S.WrapArounds;
      return Classification::wrapAround(L, CC.WrapOrder + 1, *CC.Inner);
    }
    if (CC.isPeriodic() || CC.isMonotonic()) {
      ++S.WrapArounds;
      return Classification::wrapAround(L, 1, CC);
    }
    return Classification::unknown();
  }

  /// Merge-point phi outside any recurrence: classifiable only when every
  /// live-in path carries the same closed form.
  Classification classifyMergePhi(ir::Instruction *Phi) {
    std::optional<ClosedForm> Common;
    for (ir::Value *Op : Phi->operands()) {
      const Classification &C = classOf(Op);
      if (!C.hasClosedForm())
        return Classification::unknown();
      if (!Common)
        Common = C.Form;
      else if (*Common != C.Form)
        return Classification::unknown();
    }
    if (!Common)
      return Classification::unknown();
    return Classification::fromForm(L, *Common);
  }

  //===------------------------------------------------------------------===//
  // Operation algebra (section 5.1)
  //===------------------------------------------------------------------===//

  Classification classifyOperation(ir::Instruction *I) {
    switch (I->opcode()) {
    case ir::Opcode::Copy:
      return classOf(I->operand(0));
    case ir::Opcode::Neg:
      return negateClass(classOf(I->operand(0)));
    case ir::Opcode::Add:
      return addClasses(classOf(I->operand(0)), classOf(I->operand(1)));
    case ir::Opcode::Sub:
      return addClasses(classOf(I->operand(0)),
                        negateClass(classOf(I->operand(1))));
    case ir::Opcode::Mul:
      return mulClasses(I, classOf(I->operand(0)), classOf(I->operand(1)));
    case ir::Opcode::Div:
      if (classOf(I->operand(0)).isInvariant() &&
          classOf(I->operand(1)).isInvariant())
        return Classification::invariant(Affine::symbol(I));
      return Classification::unknown();
    case ir::Opcode::Exp:
      return expClasses(I, classOf(I->operand(0)), classOf(I->operand(1)));
    case ir::Opcode::ArrayLoad: {
      // The paper's indexed-load rule: invariant address and no stores to
      // the array inside the loop make the load invariant.
      if (StoredArrays.count(I->array()))
        return Classification::unknown();
      for (ir::Value *Op : I->operands())
        if (!classOf(Op).isInvariant())
          return Classification::unknown();
      return Classification::invariant(Affine::symbol(I));
    }
    case ir::Opcode::CmpEQ:
    case ir::Opcode::CmpNE:
    case ir::Opcode::CmpLT:
    case ir::Opcode::CmpLE:
    case ir::Opcode::CmpGT:
    case ir::Opcode::CmpGE:
      // A comparison of invariants is an invariant 0/1 value (used by
      // nested-loop bounds); anything else is not tracked.
      if (classOf(I->operand(0)).isInvariant() &&
          classOf(I->operand(1)).isInvariant())
        return Classification::invariant(Affine::symbol(I));
      return Classification::unknown();
    default:
      return Classification::unknown();
    }
  }

  Classification negateClass(const Classification &C) {
    switch (C.Kind) {
    case IVKind::Invariant:
    case IVKind::Linear:
    case IVKind::Polynomial:
    case IVKind::Geometric:
    case IVKind::CFinite:
      return Classification::fromForm(L, -C.Form);
    case IVKind::Monotonic: {
      Classification R = Classification::monotonic(
          C.L,
          C.Dir == MonotoneDir::Increasing ? MonotoneDir::Decreasing
                                           : MonotoneDir::Increasing,
          C.Strict);
      R.MonoFamilyId = C.MonoFamilyId;
      return R;
    }
    case IVKind::Periodic: {
      Classification R = C;
      R.PScale = -R.PScale;
      R.POffset = -R.POffset;
      return R;
    }
    case IVKind::WrapAround: {
      Classification Inner = negateClass(*C.Inner);
      if (Inner.isUnknown())
        return Classification::unknown();
      return Classification::wrapAround(C.L, C.WrapOrder, std::move(Inner));
    }
    case IVKind::PhasePeriodic:
      // Summaries are attached to header phis after classification and
      // do not flow through the expression algebra.
    case IVKind::Unknown:
      return Classification::unknown();
    }
    return Classification::unknown();
  }

  Classification addClasses(const Classification &C1,
                            const Classification &C2) {
    // Exact closed forms add exactly.
    if (C1.hasClosedForm() && C2.hasClosedForm())
      return Classification::fromForm(L, C1.Form + C2.Form);
    // Order so special classes come first.
    const Classification &A = C1.hasClosedForm() ? C2 : C1;
    const Classification &B = C1.hasClosedForm() ? C1 : C2;
    if (A.isMonotonic()) {
      if (B.hasClosedForm()) {
        // monotonic + form that moves the same way stays monotonic.
        bool Inc = A.Dir == MonotoneDir::Increasing;
        const ClosedForm &F = Inc ? B.Form : -B.Form;
        if (F.provablyNonDecreasing()) {
          Classification R = Classification::monotonic(
              A.L ? A.L : L, A.Dir, A.Strict || F.provablyIncreasing());
          // An invariant offset keeps the underlying recurrence's identity.
          if (B.isInvariant())
            R.MonoFamilyId = A.MonoFamilyId;
          return R;
        }
        return Classification::unknown();
      }
      if (B.isMonotonic() && A.Dir == B.Dir) {
        Classification R = Classification::monotonic(A.L ? A.L : L, A.Dir,
                                                     A.Strict || B.Strict);
        if (A.MonoFamilyId == B.MonoFamilyId)
          R.MonoFamilyId = A.MonoFamilyId;
        return R;
      }
      return Classification::unknown();
    }
    if (A.isPeriodic() && B.isInvariant()) {
      Classification R = A;
      R.POffset += B.Form.initialValue();
      return R;
    }
    if (A.isWrapAround() && B.isInvariant()) {
      Classification Inner = addClasses(*A.Inner, B);
      if (Inner.isUnknown())
        return Classification::unknown();
      return Classification::wrapAround(A.L, A.WrapOrder, std::move(Inner));
    }
    return Classification::unknown();
  }

  Classification mulClasses(ir::Instruction *I, const Classification &C1,
                            const Classification &C2) {
    if (C1.hasClosedForm() && C2.hasClosedForm()) {
      if (std::optional<ClosedForm> P = C1.Form.mulChecked(C2.Form))
        return Classification::fromForm(L, *P);
      // All operands invariant but symbol products are not affine: the
      // result is still a loop invariant, as an opaque symbol.
      if (C1.isInvariant() && C2.isInvariant())
        return Classification::invariant(Affine::symbol(I));
      // The paper's section 5.1 fallback: a product like (2^i+i)*(3^i-2^i)
      // may still be monotonic.
      if (C1.Form.provablyNonNegative() && C2.Form.provablyNonNegative() &&
          C1.Form.provablyNonDecreasing() && C2.Form.provablyNonDecreasing())
        return Classification::monotonic(L, MonotoneDir::Increasing, false);
      return Classification::unknown();
    }
    // Scale the special classes by a numeric invariant.
    const Classification &A = C1.hasClosedForm() ? C2 : C1;
    const Classification &B = C1.hasClosedForm() ? C1 : C2;
    std::optional<Rational> Scale =
        B.isInvariant() ? B.Form.initialValue().getConstant() : std::nullopt;
    if (!Scale)
      return Classification::unknown();
    if (Scale->isZero())
      return Classification::invariant(Affine(0));
    if (A.isMonotonic()) {
      MonotoneDir D = A.Dir;
      if (Scale->isNegative())
        D = D == MonotoneDir::Increasing ? MonotoneDir::Decreasing
                                         : MonotoneDir::Increasing;
      Classification R = Classification::monotonic(A.L ? A.L : L, D,
                                                   A.Strict);
      R.MonoFamilyId = A.MonoFamilyId;
      return R;
    }
    if (A.isPeriodic()) {
      Classification R = A;
      R.PScale *= *Scale;
      R.POffset *= *Scale;
      return R;
    }
    if (A.isWrapAround()) {
      Classification Inner = mulClasses(I, *A.Inner, B);
      if (Inner.isUnknown())
        return Classification::unknown();
      return Classification::wrapAround(A.L, A.WrapOrder, std::move(Inner));
    }
    return Classification::unknown();
  }

  /// c ^ e: geometric when the base is a numeric invariant and the exponent
  /// a linear IV with numeric coefficients (2^i with i = (L,0,1) becomes the
  /// exponential 1*2^h... for i0=0).
  Classification expClasses(ir::Instruction *I, const Classification &Base,
                            const Classification &Exp) {
    if (Base.isInvariant() && Exp.isInvariant())
      return Classification::invariant(Affine::symbol(I));
    // Closed-form base raised to a small numeric constant exponent: i^2 is
    // repeated multiplication, exactly matching the interpreter.
    if (Base.hasClosedForm() && Exp.isInvariant()) {
      std::optional<Rational> K = Exp.Form.initialValue().getConstant();
      if (!K || !K->isInteger() || K->getInteger() < 0 ||
          K->getInteger() > 4)
        return Classification::unknown();
      try {
        ClosedForm Acc = ClosedForm::constant(Affine(1));
        for (int64_t J = 0; J < K->getInteger(); ++J) {
          std::optional<ClosedForm> P = Acc.mulChecked(Base.Form);
          if (!P)
            return Classification::unknown();
          Acc = std::move(*P);
        }
        return Classification::fromForm(L, Acc);
      } catch (const RationalOverflow &) {
        return Classification::unknown();
      }
    }
    if (!Base.isInvariant() || !Exp.isLinear() || !Exp.Form.isLinear())
      return Classification::unknown();
    std::optional<Rational> C = Base.Form.initialValue().getConstant();
    std::optional<Rational> I0 = Exp.Form.coeff(0).getConstant();
    std::optional<Rational> St = Exp.Form.coeff(1).getConstant();
    if (!C || !I0 || !St)
      return Classification::unknown();
    if (!C->isInteger() || !I0->isInteger() || !St->isInteger())
      return Classification::unknown();
    int64_t CB = C->getInteger(), E0 = I0->getInteger(),
            SI = St->getInteger();
    // Keep the folded constants small enough for exact 64-bit rationals.
    if (CB == 0 || CB > 8 || CB < -8 || E0 < 0 || E0 > 20 || SI < 0 ||
        SI > 20)
      return Classification::unknown();
    // c^(i0 + s*h) = c^i0 * (c^s)^h.
    Rational GeoBase = Rational(CB).pow(SI);
    Rational Coeff = Rational(CB).pow(E0);
    if (!GeoBase.isInteger())
      return Classification::unknown();
    if (GeoBase.isOne())
      return Classification::invariant(Affine(Coeff));
    std::map<int64_t, Affine> Geo;
    Geo[GeoBase.getInteger()] = Affine(Coeff);
    return Classification::fromForm(L, ClosedForm::make({}, std::move(Geo)));
  }

  //===------------------------------------------------------------------===//
  // Nontrivial regions
  //===------------------------------------------------------------------===//

  /// Splits a header phi into (init from outside, carried from inside).
  /// Fails for multi-latch headers.
  bool splitHeaderPhi(ir::Instruction *Phi, ir::Value *&Init,
                      ir::Value *&Carried) {
    Init = Carried = nullptr;
    for (unsigned Idx = 0; Idx < Phi->numOperands(); ++Idx) {
      if (L->contains(Phi->blocks()[Idx])) {
        if (Carried)
          return false;
        Carried = Phi->operand(Idx);
      } else {
        if (Init)
          return false;
        Init = Phi->operand(Idx);
      }
    }
    return Init && Carried;
  }

  void classifyRegion(const SCR &Region) {
    for (const ir::Instruction *N : Region.Nodes)
      InSCRMask[N->seq()] = 1;
    classifyRegionImpl(Region);
    for (const ir::Instruction *N : Region.Nodes)
      InSCRMask[N->seq()] = 0;
  }

  void classifyRegionImpl(const SCR &Region) {
    std::vector<ir::Instruction *> HeaderPhis;
    bool OnlyPhisAndCopies = true;
    for (ir::Instruction *N : Region.Nodes) {
      if (N->isPhi() && N->parent() == L->header())
        HeaderPhis.push_back(N);
      else if (N->opcode() != ir::Opcode::Copy)
        OnlyPhisAndCopies = N->isPhi() ? OnlyPhisAndCopies : false;
    }

    if (HeaderPhis.empty()) {
      markAllUnknown(Region);
      return;
    }

    // Section 4.2: >= 2 header phis, no arithmetic, no other phis -> a
    // family of periodic variables rotating around the ring.
    if (HeaderPhis.size() >= 2 && OnlyPhisAndCopies &&
        onlyHeaderPhis(Region, HeaderPhis))
      if (classifyPeriodic(Region, HeaderPhis))
        return;

    if (HeaderPhis.size() == 1) {
      classifySingleHeader(Region, HeaderPhis.front());
      return;
    }

    // Several mutually recurrent header phis with arithmetic: a coupled
    // constant-coefficient system (the c-finite extension).
    if (classifySystem(Region, HeaderPhis))
      return;
    markAllUnknown(Region);
  }

  bool onlyHeaderPhis(const SCR &Region,
                      const std::vector<ir::Instruction *> &HeaderPhis) {
    size_t NonCopy = 0;
    for (ir::Instruction *N : Region.Nodes)
      if (N->opcode() != ir::Opcode::Copy)
        ++NonCopy;
    return NonCopy == HeaderPhis.size();
  }

  /// Chases Copy instructions to the underlying value.
  ir::Value *chaseCopies(ir::Value *V) {
    while (auto *I = ir::dyn_cast<ir::Instruction>(V)) {
      if (I->opcode() != ir::Opcode::Copy)
        break;
      V = I->operand(0);
    }
    return V;
  }

  bool classifyPeriodic(const SCR &Region,
                        const std::vector<ir::Instruction *> &HeaderPhis) {
    const unsigned P = HeaderPhis.size();
    // Follow the carried chain from a canonical start; it must visit every
    // header phi exactly once and return.
    std::vector<ir::Instruction *> Ring;
    std::map<const ir::Instruction *, unsigned> PhaseOf;
    ir::Instruction *Cur = HeaderPhis.front();
    for (unsigned Step = 0; Step < P; ++Step) {
      if (PhaseOf.count(Cur))
        return false;
      PhaseOf[Cur] = Step;
      Ring.push_back(Cur);
      ir::Value *Init = nullptr, *Carried = nullptr;
      if (!splitHeaderPhi(Cur, Init, Carried))
        return false;
      auto *Next = ir::dyn_cast<ir::Instruction>(chaseCopies(Carried));
      if (!Next || !inSCR(Next) || !Next->isPhi())
        return false;
      Cur = Next;
    }
    if (Cur != HeaderPhis.front())
      return false;

    // Ring of initial values: member at phase d has value Ring[(d+h) mod P].
    std::vector<Affine> Inits;
    for (ir::Instruction *Phi : Ring) {
      ir::Value *Init = nullptr, *Carried = nullptr;
      splitHeaderPhi(Phi, Init, Carried);
      Classification IC = IA.classifyExternal(Init, L);
      Inits.push_back(IC.isInvariant() ? IC.Form.initialValue()
                                       : Affine::symbol(Init));
    }
    unsigned FamilyId = NextFamilyId++;
    ++S.PeriodicFamilies;
    for (unsigned D = 0; D < P; ++D)
      setClass(Ring[D],
               Classification::periodic(L, FamilyId, P, D, Inits));
    // Copies take the class of their source phi.
    for (ir::Instruction *N : Region.Nodes)
      if (N->opcode() == ir::Opcode::Copy) {
        auto *Src = ir::dyn_cast<ir::Instruction>(chaseCopies(N));
        auto It = PhaseOf.find(Src);
        if (It != PhaseOf.end())
          setClass(N, Classification::periodic(L, FamilyId, P, It->second,
                                               Inits));
        else
          setClass(N, Classification::unknown());
      }
    return true;
  }

  //===------------------------------------------------------------------===//
  // Single-header-phi regions: symbolic evaluation + recurrence solving
  //===------------------------------------------------------------------===//

  using EvalMemo =
      std::unordered_map<const ir::Instruction *, std::optional<SymSet>>;

  std::optional<SymSet> evalValue(ir::Value *V, ir::Instruction *H,
                                  EvalMemo &Memo) {
    if (V == H)
      return SymSet{{Rational(1), ClosedForm(), {}}};
    auto *I = ir::dyn_cast<ir::Instruction>(V);
    if (I && inSCR(I))
      return evalInst(I, H, Memo);
    const Classification &C = classOf(V);
    if (C.hasClosedForm())
      return SymSet{{Rational(0), C.Form, {}}};
    return std::nullopt;
  }

  std::optional<SymSet> evalInst(ir::Instruction *I, ir::Instruction *H,
                                 EvalMemo &Memo) {
    auto It = Memo.find(I);
    if (It != Memo.end())
      return It->second;
    // Break accidental cycles defensively (a cycle not through H would be a
    // malformed graph); mark failure first, overwrite on success.
    Memo[I] = std::nullopt;

    auto combine2 = [&](auto &&Fn) -> std::optional<SymSet> {
      std::optional<SymSet> LHS = evalValue(I->operand(0), H, Memo);
      std::optional<SymSet> RHS = evalValue(I->operand(1), H, Memo);
      if (!LHS || !RHS)
        return std::nullopt;
      SymSet Out;
      for (const LinTerm &X : *LHS)
        for (const LinTerm &Y : *RHS) {
          std::optional<LinTerm> T = Fn(X, Y);
          if (!T)
            return std::nullopt;
          T->Through = X.Through;
          T->Through.insert(Y.Through.begin(), Y.Through.end());
          addTerm(Out, std::move(*T));
        }
      if (Out.size() > Opts.MaxSymbolicPaths)
        return std::nullopt;
      return Out;
    };

    std::optional<SymSet> Result;
    switch (I->opcode()) {
    case ir::Opcode::Phi: {
      SymSet Out;
      bool OK = true;
      for (ir::Value *Op : I->operands()) {
        std::optional<SymSet> OpSet = evalValue(Op, H, Memo);
        if (!OpSet) {
          OK = false;
          break;
        }
        for (LinTerm &T : *OpSet)
          addTerm(Out, std::move(T));
      }
      if (OK && Out.size() <= Opts.MaxSymbolicPaths)
        Result = std::move(Out);
      break;
    }
    case ir::Opcode::Copy: {
      Result = evalValue(I->operand(0), H, Memo);
      break;
    }
    case ir::Opcode::Neg: {
      std::optional<SymSet> Sub = evalValue(I->operand(0), H, Memo);
      if (Sub) {
        SymSet Out;
        for (const LinTerm &T : *Sub)
          addTerm(Out, {-T.A, -T.B, T.Through});
        Result = std::move(Out);
      }
      break;
    }
    case ir::Opcode::Add:
      Result = combine2([](const LinTerm &X, const LinTerm &Y)
                            -> std::optional<LinTerm> {
        return LinTerm{X.A + Y.A, X.B + Y.B, {}};
      });
      break;
    case ir::Opcode::Sub:
      Result = combine2([](const LinTerm &X, const LinTerm &Y)
                            -> std::optional<LinTerm> {
        return LinTerm{X.A - Y.A, X.B - Y.B, {}};
      });
      break;
    case ir::Opcode::Mul:
      Result = combine2([](const LinTerm &X, const LinTerm &Y)
                            -> std::optional<LinTerm> {
        // (A1*X + B1) * (A2*X + B2): linear in X only when one side is free
        // of X; the scaling side must be a numeric invariant when the other
        // side still references X.
        auto scaled = [](const LinTerm &Var, const LinTerm &Const)
            -> std::optional<LinTerm> {
          std::optional<Rational> C =
              Const.B.isInvariant()
                  ? Const.B.initialValue().getConstant()
                  : std::nullopt;
          if (!C)
            return std::nullopt;
          return LinTerm{Var.A * *C, Var.B * *C, {}};
        };
        if (X.A.isZero() && Y.A.isZero()) {
          std::optional<ClosedForm> P = X.B.mulChecked(Y.B);
          if (!P)
            return std::nullopt;
          return LinTerm{Rational(0), *P, {}};
        }
        if (Y.A.isZero())
          return scaled(X, Y);
        if (X.A.isZero())
          return scaled(Y, X);
        return std::nullopt;
      });
      break;
    default:
      // Div, Exp, loads, compares inside a recurrence are out of scope.
      break;
    }
    if (Result)
      for (LinTerm &T : *Result)
        T.Through.insert(I);
    Memo[I] = Result;
    return Result;
  }

  static void addTerm(SymSet &Set, LinTerm T) {
    for (LinTerm &E : Set)
      if (E == T) {
        // Same symbolic value via another path: union the node sets (a
        // larger Through only weakens strictness claims -- conservative).
        E.Through.insert(T.Through.begin(), T.Through.end());
        return;
      }
    Set.push_back(std::move(T));
  }

  void classifySingleHeader(const SCR &Region, ir::Instruction *H) {
    ir::Value *InitV = nullptr, *CarriedV = nullptr;
    if (!splitHeaderPhi(H, InitV, CarriedV)) {
      markAllUnknown(Region);
      return;
    }
    Classification InitC = IA.classifyExternal(InitV, L);
    Affine Init = InitC.isInvariant() ? InitC.Form.initialValue()
                                      : Affine::symbol(InitV);

    EvalMemo Memo;
    Memo.reserve(Region.Nodes.size() * 2);
    std::optional<SymSet> Carried = evalValue(CarriedV, H, Memo);
    if (!Carried || Carried->empty()) {
      // The carried update itself is inexpressible (e.g. X' = X*X + m), but
      // members of the region whose value is free of the header phi are
      // still exact: project the solvable sub-recurrence out.
      markAllUnknown(Region);
      sweepPartialMembers(Region, H, Memo, /*Partial=*/true);
      return;
    }

    if (Carried->size() == 1) {
      const LinTerm &T = Carried->front();
      std::optional<ClosedForm> HForm = solveLinearRecurrence(T.A, T.B, Init);
      if (HForm) {
        noteFamily(*HForm);
        setClass(H, Classification::fromForm(L, *HForm));
        // Family members: M = A*X + B over the solved X.
        for (ir::Instruction *N : Region.Nodes) {
          if (N == H)
            continue;
          auto MIt = Memo.find(N);
          if (MIt == Memo.end() || !MIt->second ||
              MIt->second->size() != 1) {
            setClass(N, Classification::unknown());
            continue;
          }
          const LinTerm &M = MIt->second->front();
          setClass(N, Classification::fromForm(L, *HForm * M.A + M.B));
        }
        return;
      }
      if (T.A.isZero()) {
        // X' = B(h) forgets its past each iteration but the initial value
        // does not fit the shifted sequence (the solver handles the case
        // where it does): a first-order wrap-around into B, phi(h) = B(h-1)
        // for h >= 1.
        ++S.WrapArounds;
        setClass(H, Classification::wrapAround(
                        L, 1, Classification::fromForm(L, T.B)));
        for (ir::Instruction *N : Region.Nodes)
          if (N != H)
            setClass(N, Classification::unknown());
        // Members free of the phi are exact for every h (not projections of
        // an unsolved region -- the region head is classified).
        sweepPartialMembers(Region, H, Memo, /*Partial=*/false);
        return;
      }
    }
    // Multiple paths or an unsolvable recurrence: monotonic analysis
    // (section 4.4) over every possible per-iteration effect, then recover
    // exact forms for phi-free members.
    classifyMonotonic(Region, H, Init, *Carried);
    sweepPartialMembers(Region, H, Memo, /*Partial=*/true);
  }

  /// Overwrites region members whose symbolic value has a zero coefficient
  /// on the header phi with their exact closed form.  \p Partial marks forms
  /// projected out of a region whose own update stayed unsolved.
  void sweepPartialMembers(const SCR &Region, const ir::Instruction *H,
                           const EvalMemo &Memo, bool Partial) {
    static const stats::Counter NumPartialMembers("ivclass.partial_members");
    for (ir::Instruction *N : Region.Nodes) {
      if (N == H)
        continue;
      auto It = Memo.find(N);
      if (It == Memo.end() || !It->second || It->second->size() != 1)
        continue;
      const LinTerm &T = It->second->front();
      if (!T.A.isZero())
        continue;
      Classification C = Classification::fromForm(L, T.B);
      C.Partial = Partial;
      setClass(N, C);
      if (Partial)
        NumPartialMembers.bump();
    }
  }

  //===------------------------------------------------------------------===//
  // Coupled systems: several header phis updated linearly in each other
  //===------------------------------------------------------------------===//

  /// A value linear in the region's header-phi vector:
  /// sum_j A[j] * X_j + B.  The single-path counterpart of LinTerm for
  /// systems (control-flow merges inside the region are out of scope; the
  /// monotonic machinery does not apply to vectors anyway).
  struct VecTerm {
    std::vector<Rational> A;
    ClosedForm B;
  };
  using VecMemo =
      std::unordered_map<const ir::Instruction *, std::optional<VecTerm>>;
  using PhiIndexMap = std::map<const ir::Instruction *, unsigned>;

  std::optional<VecTerm> evalVecValue(ir::Value *V, const PhiIndexMap &PhiIdx,
                                      VecMemo &Memo) {
    const unsigned K = unsigned(PhiIdx.size());
    if (auto *I = ir::dyn_cast<ir::Instruction>(V)) {
      auto PIt = PhiIdx.find(I);
      if (PIt != PhiIdx.end()) {
        VecTerm T{std::vector<Rational>(K), ClosedForm()};
        T.A[PIt->second] = Rational(1);
        return T;
      }
      if (inSCR(I))
        return evalVecInst(I, PhiIdx, Memo);
    }
    const Classification &C = classOf(V);
    if (C.hasClosedForm())
      return VecTerm{std::vector<Rational>(K), C.Form};
    return std::nullopt;
  }

  std::optional<VecTerm> evalVecInst(ir::Instruction *I,
                                     const PhiIndexMap &PhiIdx,
                                     VecMemo &Memo) {
    auto It = Memo.find(I);
    if (It != Memo.end())
      return It->second;
    Memo[I] = std::nullopt;

    auto isFree = [](const VecTerm &T) {
      for (const Rational &R : T.A)
        if (!R.isZero())
          return false;
      return true;
    };
    auto combine2 = [&](auto &&Fn) -> std::optional<VecTerm> {
      std::optional<VecTerm> X = evalVecValue(I->operand(0), PhiIdx, Memo);
      std::optional<VecTerm> Y = evalVecValue(I->operand(1), PhiIdx, Memo);
      if (!X || !Y)
        return std::nullopt;
      return Fn(*X, *Y);
    };

    std::optional<VecTerm> Result;
    switch (I->opcode()) {
    case ir::Opcode::Copy:
      Result = evalVecValue(I->operand(0), PhiIdx, Memo);
      break;
    case ir::Opcode::Neg: {
      std::optional<VecTerm> Sub = evalVecValue(I->operand(0), PhiIdx, Memo);
      if (Sub) {
        for (Rational &R : Sub->A)
          R = -R;
        Sub->B = -Sub->B;
        Result = std::move(Sub);
      }
      break;
    }
    case ir::Opcode::Add:
      Result = combine2([](VecTerm &X, VecTerm &Y) -> std::optional<VecTerm> {
        for (size_t J = 0; J < X.A.size(); ++J)
          X.A[J] = X.A[J] + Y.A[J];
        X.B = X.B + Y.B;
        return std::move(X);
      });
      break;
    case ir::Opcode::Sub:
      Result = combine2([](VecTerm &X, VecTerm &Y) -> std::optional<VecTerm> {
        for (size_t J = 0; J < X.A.size(); ++J)
          X.A[J] = X.A[J] - Y.A[J];
        X.B = X.B - Y.B;
        return std::move(X);
      });
      break;
    case ir::Opcode::Mul:
      Result = combine2(
          [&](VecTerm &X, VecTerm &Y) -> std::optional<VecTerm> {
            auto scaled = [](VecTerm &Var,
                             const VecTerm &Const) -> std::optional<VecTerm> {
              std::optional<Rational> C =
                  Const.B.isInvariant()
                      ? Const.B.initialValue().getConstant()
                      : std::nullopt;
              if (!C)
                return std::nullopt;
              for (Rational &R : Var.A)
                R = R * *C;
              Var.B = Var.B * *C;
              return std::move(Var);
            };
            if (isFree(X) && isFree(Y)) {
              std::optional<ClosedForm> P = X.B.mulChecked(Y.B);
              if (!P)
                return std::nullopt;
              return VecTerm{std::vector<Rational>(X.A.size()),
                             std::move(*P)};
            }
            if (isFree(Y))
              return scaled(X, Y);
            if (isFree(X))
              return scaled(Y, X);
            return std::nullopt;
          });
      break;
    default:
      // Phis inside the region (per-path values) and non-linear ops are out
      // of scope for the system evaluator.
      break;
    }
    Memo[I] = Result;
    return Result;
  }

  /// Classifies a region with K >= 2 header phis as the coupled system
  /// X(h+1) = M * X(h) + B(h).  Components whose solution exists become
  /// closed forms; when only some do, they are marked Partial.  Returns
  /// false when the region does not even evaluate to a linear system (the
  /// caller falls back to unknown).
  bool classifySystem(const SCR &Region,
                      const std::vector<ir::Instruction *> &HeaderPhis) {
    static const stats::Counter NumSystemRegions("ivclass.system_regions");
    const unsigned K = unsigned(HeaderPhis.size());
    if (K > 4)
      return false;
    PhiIndexMap PhiIdx;
    for (unsigned I = 0; I < K; ++I)
      PhiIdx[HeaderPhis[I]] = I;

    RatMatrix M(K, K);
    std::vector<ClosedForm> B(K);
    std::vector<Affine> Init(K);
    VecMemo Memo;
    Memo.reserve(Region.Nodes.size() * 2);
    bool Evaluated = true;
    for (unsigned I = 0; I < K && Evaluated; ++I) {
      ir::Value *InitV = nullptr, *CarriedV = nullptr;
      if (!splitHeaderPhi(HeaderPhis[I], InitV, CarriedV)) {
        Evaluated = false;
        break;
      }
      Classification InitC = IA.classifyExternal(InitV, L);
      Init[I] = InitC.isInvariant() ? InitC.Form.initialValue()
                                    : Affine::symbol(InitV);
      std::optional<VecTerm> T = evalVecValue(CarriedV, PhiIdx, Memo);
      if (!T) {
        Evaluated = false;
        break;
      }
      for (unsigned J = 0; J < K; ++J)
        M.at(I, J) = T->A[J];
      B[I] = std::move(T->B);
    }

    unsigned Solved = 0;
    std::vector<std::optional<ClosedForm>> Sol;
    if (Evaluated) {
      NumSystemRegions.bump();
      Sol = solveLinearSystem(M, B, Init);
      for (const std::optional<ClosedForm> &SF : Sol)
        Solved += SF.has_value();
    }
    if (!Solved) {
      // Nothing solved (or the update is not linear): the region stays
      // unknown, but phi-free members evaluated along the way are exact --
      // project them out.
      markAllUnknown(Region);
      sweepPartialMembersVec(Region, PhiIdx, Memo, Sol);
      return true;
    }
    const bool PartialSolve = Solved < K;

    for (unsigned I = 0; I < K; ++I) {
      if (Sol[I]) {
        noteFamily(*Sol[I]);
        Classification C = Classification::fromForm(L, *Sol[I]);
        C.Partial = PartialSolve;
        setClass(HeaderPhis[I], C);
      } else {
        setClass(HeaderPhis[I], Classification::unknown());
      }
    }
    // Members: exact whenever every component they depend on solved.
    for (ir::Instruction *N : Region.Nodes) {
      if (PhiIdx.count(N))
        continue;
      std::optional<ClosedForm> Form = memberForm(N, Memo, Sol);
      if (Form) {
        Classification C = Classification::fromForm(L, *Form);
        C.Partial = PartialSolve;
        setClass(N, C);
      } else {
        setClass(N, Classification::unknown());
      }
    }
    return true;
  }

  /// Closed form of a system-region member from its memoized VecTerm:
  /// sum_j A[j] * Sol[j] + B, defined when every component with a nonzero
  /// coefficient solved.
  std::optional<ClosedForm>
  memberForm(const ir::Instruction *N, const VecMemo &Memo,
             const std::vector<std::optional<ClosedForm>> &Sol) {
    auto It = Memo.find(N);
    if (It == Memo.end() || !It->second)
      return std::nullopt;
    const VecTerm &T = *It->second;
    ClosedForm Form = T.B;
    for (size_t J = 0; J < T.A.size(); ++J) {
      if (T.A[J].isZero())
        continue;
      if (J >= Sol.size() || !Sol[J])
        return std::nullopt;
      Form = Form + *Sol[J] * T.A[J];
    }
    return Form;
  }

  /// The system-evaluator counterpart of sweepPartialMembers: after an
  /// unsolved system region is marked unknown, members free of every header
  /// phi keep their exact form, flagged Partial.
  void sweepPartialMembersVec(
      const SCR &Region, const PhiIndexMap &PhiIdx, const VecMemo &Memo,
      const std::vector<std::optional<ClosedForm>> &Sol) {
    static const stats::Counter NumPartialMembers("ivclass.partial_members");
    for (ir::Instruction *N : Region.Nodes) {
      if (PhiIdx.count(N))
        continue;
      std::optional<ClosedForm> Form = memberForm(N, Memo, Sol);
      if (!Form)
        continue;
      Classification C = Classification::fromForm(L, *Form);
      C.Partial = true;
      setClass(N, C);
      NumPartialMembers.bump();
    }
  }

  /// Is every per-iteration effect whose path runs through \p N a strict
  /// move in direction \p Inc?  The paper's Figure 10 argument: when the
  /// node executes, the loop-header value must strictly advance before it
  /// can execute again.
  static bool strictThrough(const ir::Instruction *N, const SymSet &Carried,
                            const Affine &Init, bool Inc) {
    bool Any = false;
    for (const LinTerm &T : Carried) {
      if (!T.Through.count(N))
        continue;
      Any = true;
      MonoProof P = Inc ? proveIncreasing(T.A, T.B, Init)
                        : proveIncreasing(T.A, -T.B, -Init);
      if (!P.Strict)
        return false;
    }
    return Any;
  }

  void noteFamily(const ClosedForm &Form) {
    if (Form.hasExponential())
      ++S.GeometricFamilies;
    else if (Form.isLinear())
      ++S.LinearFamilies;
    else
      ++S.PolynomialFamilies;
  }

  /// Does X' = A*X + B always move up (or always down)?  Conservative,
  /// numeric-only proofs, section 4.4 (including the paper's multiply rule
  /// "such as 2*i+i as long as the initial value of i is known").
  struct MonoProof {
    bool NonDecreasing = false;
    bool Strict = false;
  };
  static MonoProof proveIncreasing(const Rational &A, const ClosedForm &B,
                                   const Affine &Init) {
    MonoProof P;
    if (A.isOne()) {
      P.NonDecreasing = B.provablyNonNegative();
      if (P.NonDecreasing) {
        std::optional<Rational> B0 = B.evaluateAt(0).getConstant();
        P.Strict = B0 && B0->isPositive();
      }
      return P;
    }
    std::optional<Rational> I0 = Init.getConstant();
    if (A > Rational(1) && I0 && !I0->isNegative() &&
        B.provablyNonNegative()) {
      P.NonDecreasing = true;
      std::optional<Rational> B0 = B.evaluateAt(0).getConstant();
      P.Strict = I0->isPositive() || (B0 && B0->isPositive());
    }
    return P;
  }

  void classifyMonotonic(const SCR &Region, ir::Instruction *H,
                         const Affine &Init, const SymSet &Carried) {
    bool AllIncNonDec = true, AllIncStrict = true;
    bool AllDecNonInc = true, AllDecStrict = true;
    for (const LinTerm &T : Carried) {
      MonoProof Up = proveIncreasing(T.A, T.B, Init);
      MonoProof Down = proveIncreasing(T.A, -T.B, -Init);
      AllIncNonDec &= Up.NonDecreasing;
      AllIncStrict &= Up.Strict;
      AllDecNonInc &= Down.NonDecreasing;
      AllDecStrict &= Down.Strict;
    }
    Classification C;
    if (AllIncNonDec)
      C = Classification::monotonic(L, MonotoneDir::Increasing, AllIncStrict);
    else if (AllDecNonInc)
      C = Classification::monotonic(L, MonotoneDir::Decreasing, AllDecStrict);
    else {
      markAllUnknown(Region);
      return;
    }
    C.MonoFamilyId = NextFamilyId++;
    ++S.MonotonicRegions;
    bool Inc = C.Dir == MonotoneDir::Increasing;
    for (ir::Instruction *N : Region.Nodes) {
      Classification NC = C;
      // Per-member strictness (Figure 10): a node executes only on paths
      // that pass through it; if all of those strictly advance the header
      // value, the node's observed sequence is strict even when the region
      // as a whole is not.
      if (!NC.Strict && N != H && strictThrough(N, Carried, Init, Inc))
        NC.Strict = true;
      setClass(N, NC);
    }
  }

  void markAllUnknown(const SCR &Region) {
    ++S.UnknownRegions;
    for (ir::Instruction *N : Region.Nodes)
      setClass(N, Classification::unknown());
  }

  InductionAnalysis &IA;
  const analysis::Loop *L;
  SSAGraph G;
  ClassTable &Map;
  const InductionAnalysis::Options &Opts;
  unsigned &NextFamilyId;
  InductionAnalysis::Stats &S;
  std::unordered_set<const ir::Array *> StoredArrays;
  /// Instruction::seq() -> membership in the SCR currently being classified.
  std::vector<char> &InSCRMask;
};

} // namespace

//===----------------------------------------------------------------------===//
// InductionAnalysis
//===----------------------------------------------------------------------===//

InductionAnalysis::InductionAnalysis(ir::Function &F,
                                     const analysis::DominatorTree &DT,
                                     const analysis::LoopInfo &LI,
                                     Options Opts)
    : F(F), DT(DT), LI(LI), Opts(Opts),
      NullLoopClasses(nullptr, LI, ClassSlots) {
  // Dense numbering backs every per-loop table and the SSA graphs; doing it
  // here (cheap, idempotent) also repairs numbering after mutating passes.
  F.renumberInstructions();
  ClassSlots.assign(F.instrSeqBound(), nullptr);
  ClassMap.reserve(LI.loops().size());
  for (const auto &L : LI.loops())
    ClassMap.emplace_back(L.get(), LI, ClassSlots);
  TripCounts.resize(LI.loops().size());
}

ClassTable &InductionAnalysis::tableFor(const analysis::Loop *L) {
  if (!L)
    return NullLoopClasses;
  assert(L->index() < ClassMap.size() && "loop not from this LoopInfo");
  return ClassMap[L->index()];
}

InductionAnalysis::InductionAnalysis(ir::Function &F,
                                     const analysis::DominatorTree &DT,
                                     const analysis::LoopInfo &LI)
    : InductionAnalysis(F, DT, LI, Options()) {}

void InductionAnalysis::run() {
  static const stats::Timer ClassifyPhase("phase.classify");
  stats::ScopedSpan Span(ClassifyPhase);
  for (const analysis::Loop *L : LI.innerToOuter())
    processLoop(L);
  ProbeTraces.clear();
  UseHead = {};
  UseSlots = {};
}

void InductionAnalysis::processLoop(const analysis::Loop *L) {
  LoopClassifier(*this, L, tableFor(L), Opts, NextFamilyId, S, NodeBySeq,
                 InSCRMask)
      .run();

  // Second chance for punted multi-branch loops: runs after the classifier
  // (it consumes sibling classifications) and before the trip count (which
  // consumes the upgraded forms).
  if (Opts.Summarize)
    summarizeLoop(*this, L, tableFor(L), ProbeTraces);

  TripCountInfo TC = computeTripCount(
      *L, [&](const ir::Value *V) -> Classification {
        return classify(V, L);
      });
  TripCounts[L->index()] = TC;
  if (Opts.MaterializeExitValues)
    materializeExitValues(L, TC);
}

const Classification &InductionAnalysis::classify(const ir::Value *V,
                                                  const analysis::Loop *L) {
  bool Created = false;
  Classification &C = tableFor(L).getOrCreate(V, Created);
  if (Created)
    C = classifyExternal(V, L);
  return C;
}

const TripCountInfo &
InductionAnalysis::tripCount(const analysis::Loop *L) const {
  assert(L->index() < TripCounts.size() && TripCounts[L->index()] &&
         "trip count queried before run()");
  return *TripCounts[L->index()];
}

Classification
InductionAnalysis::classifyExternal(const ir::Value *V,
                                    const analysis::Loop *L) const {
  if (const auto *C = ir::dyn_cast<ir::Constant>(V))
    return Classification::invariant(Affine(C->value()));
  if (ir::isa<ir::Argument>(V))
    return Classification::invariant(Affine::symbol(V));
  if (ir::isa<ir::UndefValue>(V))
    return Classification::unknown();
  const auto *I = ir::cast<ir::Instruction>(V);
  if (!L || !L->contains(I->parent()))
    return Classification::invariant(Affine::symbol(V));
  // Defined inside the loop (in a nested loop whose exit value was not
  // materialized): the paper's "treated as unknown".
  return Classification::unknown();
}

SymbolNamer InductionAnalysis::namer() const {
  return [](SymbolRef S) -> std::string {
    const auto *V = static_cast<const ir::Value *>(S);
    return V->name().empty() ? std::string("<tmp>")
                             : std::string(V->name());
  };
}

std::string InductionAnalysis::strNested(const Classification &C,
                                         unsigned Depth) {
  SymbolNamer N = [this, Depth](SymbolRef S) -> std::string {
    const auto *V = static_cast<const ir::Value *>(S);
    if (Depth > 0)
      if (const auto *I = ir::dyn_cast<ir::Instruction>(V))
        if (const analysis::Loop *VL = LI.loopFor(I->parent())) {
          const Classification &IC = classify(I, VL);
          if (IC.hasClosedForm() && !IC.isInvariant())
            return strNested(IC, Depth - 1);
        }
    return V->name().empty() ? std::string("<tmp>")
                             : std::string(V->name());
  };
  return C.str(N);
}

//===----------------------------------------------------------------------===//
// Exit values (section 5.3)
//===----------------------------------------------------------------------===//

ir::Value *InductionAnalysis::materializeAffine(const Affine &V,
                                                ir::BasicBlock *BB,
                                                const std::string &Name) {
  if (!V.constantPart().isInteger())
    return nullptr;
  for (const auto &[Sym, Coeff] : V.terms())
    if (!Coeff.isInteger())
      return nullptr;

  // Insert at the top of the block (after its phis) so existing uses of the
  // replaced value later in the same block stay dominated.
  size_t InsertPos = BB->phis().size();
  // newInstr hands out a fresh seq, so the enclosing loops' dense numbering
  // stays valid for the materialized instructions.
  auto emit = [&](ir::Instruction *I) {
    BB->insertAt(InsertPos++, I);
    for (unsigned Idx = 0; Idx < I->numOperands(); ++Idx)
      indexUse(I, Idx);
    return I;
  };
  ir::Value *Acc = nullptr;
  // Emission order must be stable across runs and worker threads (terms()
  // iterates in pointer order); see ir/AffineOrder.h.
  for (const auto &[Sym, Coeff] : ir::orderedTerms(V)) {
    auto *SymV = const_cast<ir::Value *>(Sym);
    ir::Value *Term = SymV;
    if (!Coeff.isOne())
      Term = emit(
          F.newInstr(ir::Opcode::Mul, {F.constant(Coeff.getInteger()), SymV}));
    Acc = Acc ? emit(F.newInstr(ir::Opcode::Add, {Acc, Term})) : Term;
  }
  int64_t C0 = V.constantPart().getInteger();
  if (!Acc)
    return F.constant(C0);
  if (C0 != 0)
    Acc = emit(F.newInstr(ir::Opcode::Add, {Acc, F.constant(C0)}));
  if (auto *AI = ir::dyn_cast<ir::Instruction>(Acc))
    if (AI->name().empty())
      AI->setName(F.uniqueName(Name));
  return Acc;
}

void InductionAnalysis::indexUse(ir::Instruction *User, unsigned Index) {
  const auto *Def = ir::dyn_cast<ir::Instruction>(User->operand(Index));
  if (!Def)
    return;
  if (Def->seq() >= UseHead.size())
    UseHead.resize(std::max<size_t>(Def->seq() + 1, UseHead.size() * 2),
                   NoUse);
  UseSlots.push_back({User, Index, UseHead[Def->seq()]});
  UseHead[Def->seq()] = UseSlots.size() - 1;
}

void InductionAnalysis::materializeExitValues(const analysis::Loop *L,
                                              const TripCountInfo &TC) {
  static const stats::Timer MaterializePhase("phase.materialize");
  stats::ScopedSpan Span(MaterializePhase);
  if (!TC.isCountable() || !TC.ExitBranch || L->latches().size() != 1)
    return;
  ir::BasicBlock *ExitBB = nullptr;
  for (ir::BasicBlock *Succ : TC.ExitBranch->blocks())
    if (!L->contains(Succ))
      ExitBB = Succ;
  if (!ExitBB)
    return;
  ir::BasicBlock *Latch = L->latches().front();
  const ir::BasicBlock *Exiting = TC.ExitingBlock;
  const Affine TCA = TC.count();
  std::optional<int64_t> TCNum;
  if (std::optional<Rational> C = TCA.getConstant())
    if (C->isInteger())
      TCNum = C->getInteger();

  // Candidates: this loop's classified instructions with closed forms
  // (including loop-internal invariants, which the enclosing loop cannot
  // see through otherwise), plus wrap-arounds whose inner class has a
  // closed form -- those follow inner(h - order) once h >= order, so a
  // numeric trip count past the settle point yields an exact exit value.
  // Periodic ring members and summarized phase-periodic tuples also have
  // exact exit values when the trip count is numeric: the last execution's
  // ring slot (or branch phase) is pinned by h mod period.
  // Copy the list first; materialization mutates the block contents.
  struct Candidate {
    const ir::Instruction *I;
    const Classification *C; // resolved past wrap-around chains
    unsigned MinH;           // wrap-around settle point; C is in h - MinH
  };
  std::vector<Candidate> Candidates;
  for (const auto &[V, C] : tableFor(L).entries()) {
    const auto *I = ir::dyn_cast<ir::Instruction>(V);
    if (!I || !L->contains(I->parent()))
      continue;
    unsigned Order = 0;
    const Classification *W = C;
    while (W->isWrapAround() && W->Inner) {
      Order += W->WrapOrder;
      W = W->Inner.get();
    }
    if (W->hasClosedForm() ||
        (W->isPeriodic() && W->Period >= 2 &&
         W->RingInits.size() == W->Period) ||
        (W->isPhasePeriodic() && W->Period >= 2 &&
         W->PhaseForms.size() == W->Period))
      Candidates.push_back({I, W, Order});
  }

  for (const auto &[V, Cls, MinH] : Candidates) {
    // Where does the final execution land relative to the exit test?
    // Values above the test run once more than values below (section 5.2).
    int64_t Extra;
    if (V->parent() == Exiting ||
        DT.properlyDominates(V->parent(), Exiting))
      Extra = 0; // executes on the exiting visit: h = tc
    else if (DT.dominates(V->parent(), Latch))
      Extra = -1; // last full iteration: h = tc - 1
    else
      continue; // conditionally executed; no single exit value

    // Exit value as an affine expression over values live at the exit.
    // Evaluation over exact rationals can overflow int64 (e.g. a geometric
    // 2^h form past h = 62); the machine value wrapped there, so a
    // materialized exact constant would *change* behavior -- skip the
    // candidate instead.
    std::optional<Affine> EV;
    try {
      if (TCNum) {
        int64_t H = *TCNum + Extra;
        if (H < 0)
          continue; // the value never executed
        if (H < int64_t(MinH))
          continue; // still inside the wrap-around prefix
        const int64_t HS = H - int64_t(MinH);
        if (Cls->hasClosedForm())
          EV = Cls->Form.evaluateAt(HS);
        else if (Cls->isPeriodic())
          EV = Cls->RingInits[(Cls->Phase + uint64_t(HS)) % Cls->Period] *
                   Cls->PScale +
               Cls->POffset;
        else
          EV = Cls->PhaseForms[uint64_t(HS) % Cls->Period].evaluateAt(
              HS / int64_t(Cls->Period));
      } else if (MinH == 0 && Cls->hasClosedForm()) {
        Affine At = Extra == 0 ? TCA : TCA + Affine(-1);
        EV = Cls->Form.evaluateAtAffine(At);
      } else {
        // A symbolic count cannot prove h >= the settle point, and a ring
        // or phase slot needs h mod period, so it needs a numeric count.
        continue;
      }
    } catch (const RationalOverflow &) {
      static const stats::Counter NumOverflows(
          "ivclass.materialize.overflow");
      NumOverflows.bump();
      continue;
    }
    if (!EV)
      continue;

    // Find uses outside the loop; phi uses count by their incoming edge.
    // The first search of a run() indexes every operand slot.
    if (UseHead.empty()) {
      UseHead.assign(F.instrSeqBound(), NoUse);
      for (const auto &BB : F.blocks())
        for (ir::Instruction *U : *BB)
          for (unsigned Idx = 0; Idx < U->numOperands(); ++Idx)
            indexUse(U, Idx);
    }
    struct Use {
      ir::Instruction *User;
      unsigned Index;
    };
    std::vector<Use> Uses;
    for (uint32_t Slot = V->seq() < UseHead.size() ? UseHead[V->seq()] : NoUse;
         Slot != NoUse; Slot = UseSlots[Slot].Next) {
      const UseSlot &U = UseSlots[Slot];
      if (U.User->operand(U.Index) != V)
        continue; // rewritten since it was indexed
      const ir::BasicBlock *Where =
          U.User->isPhi() ? U.User->blocks()[U.Index] : U.User->parent();
      if (L->contains(Where))
        continue;
      if (Where != ExitBB && !DT.properlyDominates(ExitBB, Where))
        continue;
      Uses.push_back({U.User, U.Index});
    }
    if (Uses.empty())
      continue;

    ir::Value *Mat =
        materializeAffine(*EV, ExitBB, std::string(V->name()) + ".exit");
    if (!Mat)
      continue;
    for (const Use &U : Uses) {
      U.User->setOperand(U.Index, Mat);
      indexUse(U.User, U.Index);
    }
    ProbeTraces.clear(); // the function changed: later loops sample again
    ++S.ExitValuesMaterialized;
    static const stats::Counter NumExitValues("ivclass.exit_values_materialized");
    NumExitValues.bump();
  }
}
