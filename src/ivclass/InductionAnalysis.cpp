//===- ivclass/InductionAnalysis.cpp - The paper's algorithm -------------------===//

#include "ivclass/InductionAnalysis.h"
#include "ivclass/RecurrenceSolver.h"
#include "ivclass/SSAGraph.h"
#include "ivclass/Summarize.h"
#include "ivclass/VecForm.h"
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

const Classification &ClassTable::classOf(const ir::Value *V) {
  bool Created = false;
  Classification &C = getOrCreate(V, Created);
  if (Created)
    C = InductionAnalysis::classifyExternal(V, L);
  return C;
}

//===----------------------------------------------------------------------===//
// Header phis
//===----------------------------------------------------------------------===//

bool biv::ivclass::splitHeaderPhi(const ir::Instruction *Phi,
                                  const analysis::Loop *L, ir::Value *&Init,
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

Affine biv::ivclass::headerPhiInit(const ir::Value *Init,
                                   const analysis::Loop *L) {
  Classification IC = InductionAnalysis::classifyExternal(Init, L);
  return IC.isInvariant() ? IC.Form.initialValue() : Affine::symbol(Init);
}

ir::Value *biv::ivclass::chaseCopies(ir::Value *V) {
  while (auto *I = ir::dyn_cast<ir::Instruction>(V)) {
    if (I->opcode() != ir::Opcode::Copy)
      break;
    V = I->operand(0);
  }
  return V;
}

namespace {

/// Cap on the number of distinct path values tracked per node during SCR
/// evaluation (paths through nested conditionals).
constexpr size_t MaxSymbolicPaths = 64;

/// One control path's value of a node during SCR evaluation: a VecForm over
/// X, the values of the region's loop-header phis on the current iteration.
/// Through records which SCR nodes the path passed through; it feeds the
/// paper's per-member strictness argument (Figure 10: "if the k3 assignment
/// occurs more than once, it must assign a larger value each time").
struct PathForm {
  VecForm F;
  std::set<const ir::Instruction *> Through;
};

/// The distinct values of a node, one per control path through the loop
/// body.
using PathSet = std::vector<PathForm>;

/// Classifies one loop.  Owned state is per-loop; long-lived results land in
/// the analysis' ClassMap.
class LoopClassifier {
public:
  /// \p NodeBySeq and \p InSCRMask are the analysis' shared seq-indexed
  /// scratch, all clear on entry and again once this classifier is gone.
  LoopClassifier(InductionAnalysis &IA, const analysis::Loop *L,
                 ClassTable &Map, unsigned &FamilyId,
                 InductionAnalysis::Stats &S, std::vector<unsigned> &NodeBySeq,
                 std::vector<char> &InSCRMask)
      : IA(IA), L(L), G(*L, IA.loopInfo(), NodeBySeq), Map(Map),
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
    if (!splitHeaderPhi(Phi, L, Init, Carried))
      return Classification::unknown();
    const Classification &CC = Map.classOf(Carried);

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
      const Classification &C = Map.classOf(Op);
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
      return Map.classOf(I->operand(0));
    case ir::Opcode::Neg:
      return negateClass(Map.classOf(I->operand(0)));
    case ir::Opcode::Add:
      return addClasses(Map.classOf(I->operand(0)), Map.classOf(I->operand(1)));
    case ir::Opcode::Sub:
      return addClasses(Map.classOf(I->operand(0)),
                        negateClass(Map.classOf(I->operand(1))));
    case ir::Opcode::Mul:
      return mulClasses(I, Map.classOf(I->operand(0)),
                        Map.classOf(I->operand(1)));
    case ir::Opcode::Div:
      if (Map.classOf(I->operand(0)).isInvariant() &&
          Map.classOf(I->operand(1)).isInvariant())
        return Classification::invariant(Affine::symbol(I));
      return Classification::unknown();
    case ir::Opcode::Exp:
      return expClasses(I, Map.classOf(I->operand(0)),
                        Map.classOf(I->operand(1)));
    case ir::Opcode::ArrayLoad: {
      // The paper's indexed-load rule: invariant address and no stores to
      // the array inside the loop make the load invariant.
      if (StoredArrays.count(I->array()))
        return Classification::unknown();
      for (ir::Value *Op : I->operands())
        if (!Map.classOf(Op).isInvariant())
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
      if (Map.classOf(I->operand(0)).isInvariant() &&
          Map.classOf(I->operand(1)).isInvariant())
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

    classifyRecurrence(Region, HeaderPhis);
  }

  bool onlyHeaderPhis(const SCR &Region,
                      const std::vector<ir::Instruction *> &HeaderPhis) {
    size_t NonCopy = 0;
    for (ir::Instruction *N : Region.Nodes)
      if (N->opcode() != ir::Opcode::Copy)
        ++NonCopy;
    return NonCopy == HeaderPhis.size();
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
      if (!splitHeaderPhi(Cur, L, Init, Carried))
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
      splitHeaderPhi(Phi, L, Init, Carried);
      Inits.push_back(headerPhiInit(Init, L));
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
  // Recurrence regions: path-set evaluation + recurrence solving
  //===------------------------------------------------------------------===//

  /// The paths of \p V, or null when \p V is not linear in X: a header
  /// phi's unit, a region node's evaluation, or one X-free path for a value
  /// from outside the region.  Memoized; the entry exists, empty, while the
  /// node's operands are evaluated, so a malformed cycle (one not through a
  /// header phi) reads null.
  const PathSet *evalValue(ir::Value *V) {
    auto *I = ir::dyn_cast<ir::Instruction>(V);
    const bool InRegion = I && inSCR(I);
    if (InRegion)
      for (size_t J = 0; J < Eval.HeaderPhis->size(); ++J)
        if ((*Eval.HeaderPhis)[J] == I)
          return &Eval.Units[J];
    auto [It, New] = Eval.Memo.try_emplace(V);
    std::optional<PathSet> &Slot = It->second;
    if (New && InRegion) {
      Slot = evalPaths(I);
      if (Slot)
        for (PathForm &P : *Slot)
          P.Through.insert(I);
    } else if (New) {
      const Classification &C = Map.classOf(V);
      if (C.hasClosedForm())
        Slot = PathSet{{{Coeffs(Eval.HeaderPhis->size()), C.Form}, {}}};
    }
    return Slot ? &*Slot : nullptr;
  }

  /// The paths of \p I from its operands' paths: a merge phi unites them,
  /// and every other opcode applies VecForm's rule to each operand path (or
  /// pair of them).  nullopt past MaxSymbolicPaths.
  std::optional<PathSet> evalPaths(ir::Instruction *I) {
    const ir::Opcode Op = I->opcode();
    PathSet Out;
    if (Op == ir::Opcode::Phi) {
      for (ir::Value *V : I->operands()) {
        const PathSet *Paths = evalValue(V);
        if (!Paths)
          return std::nullopt;
        for (const PathForm &P : *Paths)
          addPath(Out, P);
      }
    } else if (Op == ir::Opcode::Copy || Op == ir::Opcode::Neg) {
      const PathSet *Paths = evalValue(I->operand(0));
      if (!Paths)
        return std::nullopt;
      Out = *Paths;
      if (Op == ir::Opcode::Neg)
        for (PathForm &P : Out)
          negVecForm(P.F);
    } else if (Op == ir::Opcode::Add || Op == ir::Opcode::Sub ||
               Op == ir::Opcode::Mul) {
      const PathSet *Xs = evalValue(I->operand(0));
      const PathSet *Ys = evalValue(I->operand(1));
      if (!Xs || !Ys)
        return std::nullopt;
      for (const PathForm &X : *Xs)
        for (const PathForm &Y : *Ys) {
          std::optional<VecForm> F = combineVecForms(Op, X.F, Y.F);
          if (!F)
            return std::nullopt;
          PathForm P{std::move(*F), X.Through};
          P.Through.insert(Y.Through.begin(), Y.Through.end());
          addPath(Out, std::move(P));
        }
    } else {
      // Div, Exp, loads, compares inside a recurrence are out of scope.
      return std::nullopt;
    }
    if (Out.size() > MaxSymbolicPaths)
      return std::nullopt;
    return Out;
  }

  static void addPath(PathSet &Set, PathForm P) {
    for (PathForm &E : Set)
      if (E.F == P.F) {
        // Same value via another path: union the node sets (a larger
        // Through only weakens strictness claims -- conservative).
        E.Through.insert(P.Through.begin(), P.Through.end());
        return;
      }
    Set.push_back(std::move(P));
  }

  /// Classifies a region with K >= 1 header phis X.  Each carried value is
  /// evaluated over every path; when each is one path, the region is the
  /// system X(h+1) = M * X(h) + B(h), solved exactly.  Components whose
  /// solution exists become closed forms, marked Partial when only some do,
  /// and members follow from their own forms over X.  A single header phi
  /// the solver leaves gets the paper's other outcomes: a wrap-around when
  /// its update forgets X, else the monotonic class (section 4.4).
  void classifyRecurrence(const SCR &Region,
                          const std::vector<ir::Instruction *> &HeaderPhis) {
    static const stats::Counter NumSystemRegions("ivclass.system_regions");
    const unsigned K = unsigned(HeaderPhis.size());
    if (K > MaxSystemSize) {
      markAllUnknown(Region);
      return;
    }
    Eval.reset(HeaderPhis, Region.Nodes.size());
    const PathSet *Carried[MaxSystemSize] = {};
    bool OnePath = true;
    for (unsigned I = 0; I < K; ++I) {
      ir::Value *InitV = nullptr, *CarriedV = nullptr;
      if (splitHeaderPhi(HeaderPhis[I], L, InitV, CarriedV)) {
        Eval.Init[I] = headerPhiInit(InitV, L);
        Carried[I] = evalValue(CarriedV);
      }
      if (!Carried[I] || Carried[I]->empty()) {
        // An update is inexpressible (e.g. X' = X*X + m), but members free
        // of X are still exact: project them out.
        markAllUnknown(Region);
        sweepPartialMembers(Region, {}, /*Partial=*/true);
        return;
      }
      OnePath = OnePath && Carried[I]->size() == 1;
    }

    std::vector<std::optional<ClosedForm>> Sol;
    if (OnePath) {
      RatMatrix M(K, K);
      for (unsigned I = 0; I < K; ++I) {
        const VecForm &T = Carried[I]->front().F;
        for (unsigned J = 0; J < K; ++J)
          M.at(I, J) = T.A[J];
        Eval.B[I] = T.B;
      }
      if (K >= 2)
        NumSystemRegions.bump();
      Sol = solveLinearSystem(M, Eval.B, Eval.Init);
      unsigned Solved = 0;
      for (const std::optional<ClosedForm> &SF : Sol)
        Solved += SF.has_value();
      if (Solved) {
        classifySolved(Region, HeaderPhis, Sol, Solved < K);
        return;
      }
    }

    ir::Instruction *H = HeaderPhis.front();
    const VecForm &Update = Carried[0]->front().F;
    if (K == 1 && OnePath && Update.freeOfX()) {
      // X' = B(h) forgets its past each iteration but the initial value
      // does not fit the shifted sequence (the solver handles the case
      // where it does): a first-order wrap-around into B, phi(h) = B(h-1)
      // for h >= 1.
      ++S.WrapArounds;
      setClass(H, Classification::wrapAround(
                      L, 1, Classification::fromForm(L, Update.B)));
      for (ir::Instruction *N : Region.Nodes)
        if (N != H)
          setClass(N, Classification::unknown());
      // Members free of the phi are exact for every h (not projections of
      // an unsolved region -- the region head is classified).
      sweepPartialMembers(Region, Sol, /*Partial=*/false);
      return;
    }
    if (K == 1)
      // Several paths or an unsolvable update: monotonic analysis over
      // every possible per-iteration effect.
      classifyMonotonic(Region, H, Eval.Init[0], *Carried[0]);
    else
      markAllUnknown(Region);
    sweepPartialMembers(Region, Sol, /*Partial=*/true);
  }

  /// Sets the solved family: each header phi with a solution Sol[j], and
  /// each member whose form reads only solved components.  \p PartialSolve
  /// marks every claim of a region some component of which stayed unsolved.
  void classifySolved(const SCR &Region,
                      const std::vector<ir::Instruction *> &HeaderPhis,
                      const std::vector<std::optional<ClosedForm>> &Sol,
                      bool PartialSolve) {
    for (size_t I = 0; I < HeaderPhis.size(); ++I) {
      if (!Sol[I]) {
        setClass(HeaderPhis[I], Classification::unknown());
        continue;
      }
      noteFamily(*Sol[I]);
      setForm(HeaderPhis[I], *Sol[I], PartialSolve);
    }
    for (ir::Instruction *N : Region.Nodes) {
      if (N->isPhi() && N->parent() == L->header())
        continue;
      if (std::optional<ClosedForm> Form = memberForm(N, Sol))
        setForm(N, std::move(*Form), PartialSolve);
      else
        setClass(N, Classification::unknown());
    }
  }

  void setForm(const ir::Instruction *I, ClosedForm Form, bool Partial) {
    bool Created = false;
    Classification &C = Map.getOrCreate(I, Created);
    C = Classification::fromForm(L, std::move(Form));
    C.Partial = Partial;
  }

  /// Closed form of region member \p N from its memoized paths: one path's
  /// B + sum_j A[j] * Sol[j], defined when every component with a nonzero
  /// coefficient solved.  Header phis have no entry.
  std::optional<ClosedForm>
  memberForm(const ir::Instruction *N,
             const std::vector<std::optional<ClosedForm>> &Sol) {
    auto It = Eval.Memo.find(N);
    if (It == Eval.Memo.end() || !It->second || It->second->size() != 1)
      return std::nullopt;
    const VecForm &T = It->second->front().F;
    std::optional<ClosedForm> Form;
    for (size_t J = 0; J < T.A.size(); ++J) {
      if (T.A[J].isZero())
        continue;
      if (J >= Sol.size() || !Sol[J])
        return std::nullopt;
      Form = (Form ? *Form : T.B) + *Sol[J] * T.A[J];
    }
    if (Form)
      return Form;
    return T.B;
  }

  /// Overwrites region members whose form needs no unsolved component with
  /// their exact closed form.  \p Partial marks forms projected out of a
  /// region whose own update stayed unsolved.
  void sweepPartialMembers(const SCR &Region,
                           const std::vector<std::optional<ClosedForm>> &Sol,
                           bool Partial) {
    static const stats::Counter NumPartialMembers("ivclass.partial_members");
    for (ir::Instruction *N : Region.Nodes) {
      std::optional<ClosedForm> Form = memberForm(N, Sol);
      if (!Form)
        continue;
      setForm(N, std::move(*Form), Partial);
      if (Partial)
        NumPartialMembers.bump();
    }
  }

  /// Is every per-iteration effect whose path runs through \p N a strict
  /// move in direction \p Inc?  The paper's Figure 10 argument: when the
  /// node executes, the loop-header value must strictly advance before it
  /// can execute again.
  static bool strictThrough(const ir::Instruction *N, const PathSet &Carried,
                            const Affine &Init, bool Inc) {
    bool Any = false;
    for (const PathForm &T : Carried) {
      if (!T.Through.count(N))
        continue;
      Any = true;
      MonoProof P = Inc ? proveIncreasing(T.F.A[0], T.F.B, Init)
                        : proveIncreasing(T.F.A[0], -T.F.B, -Init);
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

  /// The monotonic class of a one-header region over every path \p
  /// Carried of its update X' = A*X + B.
  void classifyMonotonic(const SCR &Region, ir::Instruction *H,
                         const Affine &Init, const PathSet &Carried) {
    bool AllIncNonDec = true, AllIncStrict = true;
    bool AllDecNonInc = true, AllDecStrict = true;
    for (const PathForm &T : Carried) {
      MonoProof Up = proveIncreasing(T.F.A[0], T.F.B, Init);
      MonoProof Down = proveIncreasing(T.F.A[0], -T.F.B, -Init);
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
  unsigned &NextFamilyId;
  InductionAnalysis::Stats &S;
  std::unordered_set<const ir::Array *> StoredArrays;

  /// The recurrence region being evaluated: its header phis X, every
  /// node's path set over them, memoized with the values the region reads,
  /// and the solver's initial values and forcings.  Reset for each region
  /// and kept across the loop's regions, which reuse its buffers.
  struct RegionEval {
    void reset(const std::vector<ir::Instruction *> &Phis, size_t Nodes) {
      const size_t K = Phis.size();
      HeaderPhis = &Phis;
      Memo.clear();
      Memo.reserve(Nodes * 2);
      for (size_t J = 0; J < K; ++J) {
        Units[J].assign(1, PathForm{{Coeffs(K), ClosedForm()}, {}});
        Units[J][0].F.A[J] = Rational(1);
      }
      Init.assign(K, Affine());
      B.resize(K);
    }

    const std::vector<ir::Instruction *> *HeaderPhis = nullptr;
    /// nullopt = not linear in X (also the provisional entry that breaks a
    /// malformed cycle).  Entries stay in place across inserts, so
    /// evaluation hands out pointers into them.
    std::unordered_map<const ir::Value *, std::optional<PathSet>> Memo;
    /// Units[j]: X_j itself.
    PathSet Units[MaxSystemSize];
    std::vector<Affine> Init;
    std::vector<ClosedForm> B;
  };
  RegionEval Eval;
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
  LoopClassifier(*this, L, tableFor(L), NextFamilyId, S, NodeBySeq, InSCRMask)
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
    materializeExitValues(L);
}

const Classification &InductionAnalysis::classify(const ir::Value *V,
                                                  const analysis::Loop *L) {
  return tableFor(L).classOf(V);
}

const TripCountInfo &
InductionAnalysis::tripCount(const analysis::Loop *L) const {
  assert(L->index() < TripCounts.size() && TripCounts[L->index()] &&
         "trip count queried before run()");
  return *TripCounts[L->index()];
}

Classification
InductionAnalysis::classifyExternal(const ir::Value *V,
                                    const analysis::Loop *L) {
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

namespace {
/// A symbol's report name: its IR value's name, or <tmp> when unnamed.
void appendValueName(std::string &Out, SymbolRef S) {
  std::string_view Name = static_cast<const ir::Value *>(S)->name();
  Out += Name.empty() ? std::string_view("<tmp>") : Name;
}
} // namespace

SymbolNamer InductionAnalysis::namer() const { return appendValueName; }

void InductionAnalysis::appendNested(std::string &Out,
                                     const Classification &C,
                                     unsigned Depth) {
  C.append(Out, [this, Depth](std::string &Out, SymbolRef S) {
    if (Depth > 0)
      if (const auto *I =
              ir::dyn_cast<ir::Instruction>(static_cast<const ir::Value *>(S)))
        if (const analysis::Loop *VL = LI.loopFor(I->parent())) {
          const Classification &IC = classify(I, VL);
          if (IC.hasClosedForm() && !IC.isInvariant())
            return appendNested(Out, IC, Depth - 1);
        }
    appendValueName(Out, S);
  });
}

std::string InductionAnalysis::strNested(const Classification &C,
                                         unsigned Depth) {
  std::string Out;
  appendNested(Out, C, Depth);
  return Out;
}

//===----------------------------------------------------------------------===//
// Exit values (section 5.3)
//===----------------------------------------------------------------------===//

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

std::optional<Affine> InductionAnalysis::exitValue(const ir::Instruction *I,
                                                  const analysis::Loop *L) {
  const TripCountInfo &TC = tripCount(L);
  if (!TC.isCountable() || !TC.ExitBranch || L->latches().size() != 1)
    return std::nullopt;
  // Where does the final execution land relative to the exit test?  Values
  // above the test run once more than values below (section 5.2).
  int64_t Extra;
  if (I->parent() == TC.ExitingBlock ||
      DT.properlyDominates(I->parent(), TC.ExitingBlock))
    Extra = 0; // executes on the exiting visit: h = tc
  else if (DT.dominates(I->parent(), L->latches().front()))
    Extra = -1; // last full iteration: h = tc - 1
  else
    return std::nullopt; // conditionally executed; no single exit value
  const Classification &C = classify(I, L);
  const Affine TCA = TC.count();
  if (std::optional<Rational> N = TCA.getConstant(); N && N->isInteger())
    return C.valueAt(N->getInteger() + Extra);
  // A symbolic count cannot prove h >= a wrap-around's settle point, and a
  // ring or phase slot needs h mod period, so only a bare closed form
  // evaluates at it.
  if (!C.hasClosedForm())
    return std::nullopt;
  return C.Form.evaluateAtAffine(Extra == 0 ? TCA : TCA + Affine(-1));
}

void InductionAnalysis::materializeExitValues(const analysis::Loop *L) {
  static const stats::Timer MaterializePhase("phase.materialize");
  stats::ScopedSpan Span(MaterializePhase);
  const TripCountInfo &TC = tripCount(L);
  if (!TC.ExitBranch)
    return;
  ir::BasicBlock *ExitBB = nullptr;
  for (ir::BasicBlock *Succ : TC.ExitBranch->blocks())
    if (!L->contains(Succ))
      ExitBB = Succ;
  if (!ExitBB)
    return;

  // Candidates: this loop's classified instructions, loop-internal
  // invariants included (the enclosing loop cannot see through them
  // otherwise).  Copy the list first; materialization mutates the block
  // contents.
  std::vector<const ir::Instruction *> Candidates;
  for (const auto &[V, C] : tableFor(L).entries()) {
    const auto *I = ir::dyn_cast<ir::Instruction>(V);
    if (I && L->contains(I->parent()) && !C->isUnknown())
      Candidates.push_back(I);
  }

  for (const ir::Instruction *V : Candidates) {
    // Evaluation over exact rationals can overflow int64 (e.g. a geometric
    // 2^h form past h = 62); the machine value wrapped there, so a
    // materialized exact constant would *change* behavior -- skip the
    // candidate instead.
    std::optional<Affine> EV;
    try {
      EV = exitValue(V, L);
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

    // Insert at the top of the exit block (after its phis) so existing
    // uses later in the block stay dominated.  newInstr hands out a fresh
    // seq, so the enclosing loops' dense numbering stays valid for the new
    // instructions; their operands join the user index.
    size_t Pos = ExitBB->phis().size();
    const size_t First = Pos;
    ir::Value *Mat = ir::materializeAffine(F, *EV, ExitBB, Pos,
                                           std::string(V->name()) + ".exit");
    if (!Mat)
      continue;
    for (size_t At = First; At < Pos; ++At) {
      ir::Instruction *New = ExitBB->begin()[At];
      for (unsigned Idx = 0; Idx < New->numOperands(); ++Idx)
        indexUse(New, Idx);
    }
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
