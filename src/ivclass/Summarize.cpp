//===- ivclass/Summarize.cpp - Multi-branch loop summarization -----------------===//

#include "ivclass/Summarize.h"
#include "ivclass/RecurrenceSolver.h"
#include "ivclass/VecForm.h"
#include "interp/Interpreter.h"
#include "support/Stats.h"
#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

using namespace biv;
using namespace biv::ivclass;

namespace {

const stats::Counter NumAttempted("ivclass.summarize.attempted");
const stats::Counter NumConjectured("ivclass.summarize.conjectured");
const stats::Counter NumProved("ivclass.summarize.proved");
const stats::Counter NumDisproved("ivclass.summarize.disproved");
const stats::Counter NumPhis("ivclass.summarize.phis");
const stats::Counter NumOverflow("ivclass.summarize.overflow");
const stats::Counter NumFailPrep("ivclass.summarize.fail.prep");
const stats::Counter NumFailOblig("ivclass.summarize.fail.oblig");
const stats::Counter NumFailEmpty("ivclass.summarize.fail.empty");
const stats::Counter NumFailSolve("ivclass.summarize.fail.solve");
const stats::Counter NumFailBranch("ivclass.summarize.fail.branch");
const stats::Timer SummarizePhase("phase.summarize");
const stats::Timer SamplePhase("phase.summarize.sample");
const stats::Timer ProvePhase("phase.summarize.prove");

/// Seed values fed to the probe runs; every function argument receives the
/// same seed within one run (SummarizeSampleCount runs total).
constexpr int64_t SampleSeeds[SummarizeSampleCount] = {3, 7, 12};

class Summarizer {
public:
  Summarizer(InductionAnalysis &IA, const analysis::Loop *L, ClassTable &Map,
             SampleTraces &Traces)
      : IA(IA), L(L), Map(Map), Traces(Traces), Header(L->header()) {}

  void run() {
    // Single-latch loops only: multiple latches break the one-init-one-
    // carried phi split.  Loops with subloops are fine -- the sampled paths
    // keep just the directly-contained blocks, and any phi whose value
    // chain crosses into a subloop drops out of the proved subset on its
    // own (its evaluation leaves the path).
    if (L->latches().size() != 1)
      return;
    if (!collectUnknowns())
      return;
    NumAttempted.bump();
    if (!conjecture())
      return;
    NumConjectured.bump();
    if (!prove()) {
      (Overflowed ? NumOverflow : NumDisproved).bump();
      if (!Overflowed && FailWhy)
        FailWhy->bump();
      return;
    }
    NumProved.bump();
    commit();
  }

private:
  /// One visited direct block, paired with the block that *actually*
  /// preceded it in the trace.  Across a subloop the predecessor is the
  /// inner exit block, not the previous direct block -- join phis must
  /// resolve through the edge execution really took (the skip edge would
  /// silently yield the wrong value), and the mismatch also marks where
  /// the path crossed a subloop.  The header's predecessor is null: its
  /// phis are the recurrence unknowns, never resolved through an edge.
  struct Step {
    const ir::BasicBlock *B = nullptr;
    const ir::BasicBlock *Pred = nullptr;
    bool operator==(const Step &O) const {
      return B == O.B && Pred == O.Pred;
    }
    bool operator!=(const Step &O) const { return !(*this == O); }
  };
  using Path = std::vector<Step>;

  struct Obligation {
    ir::Opcode Cmp = ir::Opcode::CmpNE;
    /// Condition operands as phase forms; nullopt when the condition is not
    /// symbolically evaluable (a load, a division) -- such a branch can
    /// still be *irrelevant*: provably the same transfer either way.
    std::optional<VecForm> LHS, RHS;
    bool TakenTrue = false;
    size_t BlockIdx = 0; ///< Position of the branching block in its path.
    /// The successor the sample actually took (for a branch into a subloop
    /// this is the inner side, not the next direct block).
    const ir::BasicBlock *Taken = nullptr;
  };

  /// The symbolic evaluation of one cycle's phase paths: each in-loop
  /// branch's obligation and each unknown's transfer, phase by phase, or
  /// how the evaluation failed.
  struct CycleEval {
    unsigned K = 0; ///< Phases evaluated; attempt phase p reads p mod K.
    /// Why the paths cannot be evaluated (a fail.* counter), or null.
    const stats::Counter *Fail = nullptr;
    bool Overflowed = false;   ///< Evaluation threw RationalOverflow.
    bool UnpinnedRing = false; ///< Read a ring slot this K does not pin.
    /// Obligations[p]: phase p's in-loop branches, in path order.
    std::vector<std::vector<Obligation>> Obligations;
    /// Row[i][p]: transfer of X_i on phase p; nullopt when not linear.
    std::vector<std::vector<std::optional<VecForm>>> Row;
    /// Per unknown: a transfer on every phase (Complete), the unknowns
    /// those transfers reference (Reads), and the unknowns whose transfers
    /// reference it (ReadBy).
    std::vector<bool> Complete;
    std::vector<std::vector<unsigned>> Reads, ReadBy;
  };

  //===------------------------------------------------------------------===//
  // Eligibility
  //===------------------------------------------------------------------===//

  bool collectUnknowns() {
    for (ir::Instruction *Phi : Header->phis()) {
      Classification *C = Map.find(Phi);
      if (!C || !C->isUnknown())
        continue;
      ir::Value *Init = nullptr, *Carried = nullptr;
      if (!splitHeaderPhi(Phi, L, Init, Carried))
        continue; // irregular phi: stays Unknown, the rest may still prove
      IndexOf[Phi] = unsigned(Unknowns.size());
      Unknowns.push_back(Phi);
    }
    return !Unknowns.empty();
  }

  static unsigned count(const std::vector<bool> &S) {
    unsigned N = 0;
    for (bool B : S)
      N += B;
    return N;
  }

  //===------------------------------------------------------------------===//
  // Sampling and conjecture
  //===------------------------------------------------------------------===//

  /// Slices the block-visit sequence of one probe run into completed
  /// iteration paths, grouped by loop activation.  An iteration path runs
  /// [header .. latch] keeping only the blocks *directly* in L -- subloop
  /// blocks are filtered out, so an outer loop's path is its own control
  /// skeleton with each inner activation collapsed to nothing.  The final
  /// (exiting or truncated) iteration of an activation is dropped -- the
  /// conjecture is about completed cycles.
  void collectActivations(const std::vector<const ir::BasicBlock *> &Blocks,
                          std::vector<std::vector<Path>> &Acts) const {
    const analysis::LoopInfo &LI = IA.loopInfo();
    std::vector<Path> *Cur = nullptr;
    Path Iter;
    bool InIter = false;
    const ir::BasicBlock *PrevInL = nullptr;
    auto closeIter = [&](bool Completed) {
      if (InIter && Completed && Cur)
        Cur->push_back(Iter);
      Iter.clear();
      InIter = false;
    };
    for (const ir::BasicBlock *B : Blocks) {
      if (!L->contains(B)) {
        // Left the loop: the in-flight iteration exited, not completed.
        closeIter(false);
        Cur = nullptr;
        PrevInL = nullptr;
        continue;
      }
      if (LI.loopFor(B) != L) {
        PrevInL = B; // subloop block: not part of L's own path
        continue;
      }
      if (B == Header) {
        closeIter(true); // reaching the header again completes the previous
        if (!Cur) {
          Acts.emplace_back();
          Cur = &Acts.back();
        }
        InIter = true;
      }
      if (InIter)
        Iter.push_back({B, B == Header ? nullptr : PrevInL});
      PrevInL = B;
    }
    closeIter(false); // a truncated tail never counts
  }

  bool conjecture() {
    stats::ScopedSpan Span(SamplePhase);
    if (Traces.empty()) {
      // The runs sample the whole function, so every loop of the analysis
      // run slices the same traces until the IR changes under them.
      const ir::Function &F = IA.function();
      for (int64_t Seed : SampleSeeds) {
        interp::ExecOptions EO;
        EO.MaxSteps = SummarizeSampleSteps;
        EO.TraceValues = false;
        EO.TraceArrays = false;
        EO.TraceBlocks = true;
        std::vector<int64_t> Args(F.arguments().size(), Seed);
        Traces.push_back(std::move(interp::run(F, Args, EO).Blocks));
      }
    }
    std::vector<std::vector<Path>> Acts;
    // Errored or budget-truncated runs still contribute the iterations they
    // completed (the partial tail was dropped above).
    for (const std::vector<const ir::BasicBlock *> &Blocks : Traces)
      collectActivations(Blocks, Acts);

    size_t Total = 0, Longest = 0;
    for (const auto &A : Acts) {
      Total += A.size();
      Longest = std::max(Longest, A.size());
    }
    if (Total < 2)
      return false;

    for (unsigned Cand = 1; Cand <= SummarizeMaxPeriod; ++Cand) {
      // Demand at least one full cycle plus a wrap-around repeat; shorter
      // evidence cannot distinguish a cycle from a coincidence.
      if (Longest < Cand + 1)
        break;
      bool OK = true;
      for (const auto &A : Acts)
        for (size_t H = Cand; H < A.size() && OK; ++H)
          if (A[H] != A[H % Cand])
            OK = false;
      if (!OK)
        continue;
      BaseK = Cand;
      for (const auto &A : Acts)
        if (A.size() >= BaseK) {
          BasePaths.assign(A.begin(), A.begin() + BaseK);
          return true;
        }
      return false;
    }
    return false;
  }

  /// The attempt sweep.  A path cycle of length k is also a path cycle of
  /// any multiple, and several recurrence shapes only become solvable at
  /// the right multiple: periodic-family forcings (s = s + a with a in a
  /// period-q ring) resolve to per-phase constants once q divides the
  /// cycle, and a ring crossing a subloop reaches the outer cycle as a
  /// permutation of the unknowns whose matrix has complex eigenvalues until
  /// some power composes back to the identity (p0->p1->p2 over 3 cycles).
  /// Sweep every multiple of the observed period and keep whichever attempt
  /// rescues the most phis (ties to the shortest cycle for the cheaper
  /// report).
  bool prove() {
    stats::ScopedSpan Span(ProvePhase);
    auto attempt = [&](unsigned Cand) {
      try {
        return tryProve(Cand);
      } catch (const RationalOverflow &) {
        Overflowed = true; // degrade this attempt only
        return false;
      }
    };
    bool Proved = false;
    Attempt Best;
    unsigned BestCount = 0;
    for (unsigned Cand = BaseK; Cand <= SummarizeMaxPeriod; Cand += BaseK) {
      if (!attempt(Cand))
        continue;
      if (const unsigned C = count(Result.InS); !Proved || C > BestCount) {
        Best = Result; // tryProve overwrites Result
        BestCount = C;
        Proved = true;
      }
      if (BestCount == Unknowns.size())
        break; // nothing left for a longer cycle to rescue
    }
    if (Proved)
      Result = Best;
    return Proved;
  }

  /// One proof attempt at period \p Cand (a multiple of the observed path
  /// period): takes the phase transfers and obligations of the evaluation
  /// in force, then iterates subset selection and branch-relevance analysis
  /// until a provable subset of the unknowns survives (or none does).  On
  /// success Result holds the subset and its solved phase forms.
  bool tryProve(unsigned Cand) {
    K = Cand;
    Result = Attempt();
    Result.K = K;
    // Phase p of this cycle follows base path p mod BaseK, so the base
    // evaluation answers for every multiple, phase p read as p mod BaseK --
    // unless it met a ring slot that only a multiple pins (headerPhiValue):
    // then each attempt evaluates its own K phases.
    if (K == BaseK) {
      Ev = evaluate();
      EvaluateEachK = Ev.UnpinnedRing;
    } else if (EvaluateEachK) {
      Ev = evaluate();
    }
    if (Ev.Overflowed) {
      Overflowed = true;
      return false;
    }
    if (Ev.Fail) {
      FailWhy = Ev.Fail;
      return false;
    }
    return proveSubset();
  }

  //===------------------------------------------------------------------===//
  // Symbolic path evaluation
  //===------------------------------------------------------------------===//

  struct PhaseCtx {
    /// On-path predecessor per path block (null for the header); doubles as
    /// the path membership set.
    std::unordered_map<const ir::BasicBlock *, const ir::BasicBlock *> PredOf;
    std::unordered_map<const ir::Instruction *, std::optional<VecForm>> Memo;
    /// Set when a ring slot read here is not pinned at this K.
    bool UnpinnedRing = false;
  };

  /// Evaluates the current attempt's K phase paths: every obligation, then
  /// every transfer, then the read lists close() walks.  A failure or a
  /// RationalOverflow is recorded, not returned.
  CycleEval evaluate() {
    CycleEval E;
    E.K = K;
    std::vector<PhaseCtx> Phases(K);
    try {
      if (!preparePhases(Phases))
        E.Fail = &NumFailPrep;
      else if (!collectObligations(Phases, E))
        E.Fail = &NumFailOblig;
      else
        evalTransfers(Phases, E);
    } catch (const RationalOverflow &) {
      E.Overflowed = true;
    }
    for (const PhaseCtx &Ctx : Phases)
      E.UnpinnedRing = E.UnpinnedRing || Ctx.UnpinnedRing;
    if (!E.Fail && !E.Overflowed)
      indexReads(E);
    return E;
  }

  bool preparePhases(std::vector<PhaseCtx> &Phases) const {
    for (unsigned P = 0; P < K; ++P) {
      const Path &PB = BasePaths[P % BaseK];
      if (PB.empty() || PB.front().B != Header)
        return false;
      for (const Step &S : PB) {
        // A repeated block would mean a cycle not through the header.
        if (!Phases[P].PredOf.emplace(S.B, S.Pred).second)
          return false;
      }
    }
    return true;
  }

  VecForm invariant(ClosedForm B) const {
    return VecForm{Coeffs(Unknowns.size()), std::move(B)};
  }

  /// Value of classified header phi \p Phi on iterations h === P (mod K).
  /// The one value that depends on K rather than on the path alone.
  std::optional<VecForm> headerPhiValue(const ir::Instruction *Phi,
                                        PhaseCtx &Ctx, unsigned P) {
    const Classification &C = Map.classOf(Phi);
    if (C.hasClosedForm())
      return invariant(C.Form);
    if (C.isPeriodic() && C.Period >= 2 && C.RingInits.size() == C.Period) {
      if (K % C.Period != 0) {
        Ctx.UnpinnedRing = true; // a multiple of K may pin it
        return std::nullopt;
      }
      // The family period divides the cycle, so the ring slot is pinned:
      // every iteration h === P (mod K) holds the value of iteration P.
      return invariant(ClosedForm::constant(*C.valueAt(P)));
    }
    return std::nullopt;
  }

  std::optional<VecForm> evalValue(ir::Value *V, PhaseCtx &Ctx, unsigned P) {
    if (const auto *C = ir::dyn_cast<ir::Constant>(V))
      return invariant(ClosedForm::constant(Affine(C->value())));
    if (ir::isa<ir::Argument>(V))
      return invariant(ClosedForm::constant(Affine::symbol(V)));
    auto *I = ir::dyn_cast<ir::Instruction>(V);
    if (!I)
      return std::nullopt; // undef
    auto It = IndexOf.find(I);
    if (It != IndexOf.end()) {
      VecForm VF = invariant(ClosedForm());
      VF.A[It->second] = Rational(1);
      return VF;
    }
    if (I->isPhi() && I->parent() == Header)
      return headerPhiValue(I, Ctx, P);
    if (!L->contains(I->parent()))
      return invariant(ClosedForm::constant(Affine::symbol(I)));
    if (!Ctx.PredOf.count(I->parent())) {
      // In the loop but off this phase's path: a value defined inside a
      // subloop the path crossed still has an exact value -- the exit
      // value of the activation that just completed.
      if (IA.loopInfo().loopFor(I->parent()) != L)
        return subloopExitValue(I, Ctx, P);
      return std::nullopt;
    }
    return evalInst(I, Ctx, P);
  }

  /// Exit value of \p I -- defined inside a subloop of L -- as a phase
  /// form: InductionAnalysis::exitValue over the subloop, with every
  /// subloop-invariant symbol of the result (the inner inits and bounds,
  /// which may be outer-phase values or even members of X) re-evaluated in
  /// the phase context.  Only sound when this phase's path actually crossed
  /// that subloop: the value read is the activation that just completed,
  /// whose entry state is this iteration's.
  std::optional<VecForm> subloopExitValue(ir::Instruction *I, PhaseCtx &Ctx,
                                          unsigned P) {
    auto It = Ctx.Memo.find(I);
    if (It != Ctx.Memo.end())
      return It->second;
    Ctx.Memo[I] = std::nullopt;

    const analysis::LoopInfo &LI = IA.loopInfo();
    const analysis::Loop *Child = LI.loopFor(I->parent());
    while (Child && Child->parent() != L)
      Child = Child->parent();
    if (!Child)
      return std::nullopt;
    // A gap predecessor inside Child marks the crossing.
    bool Crossed = false;
    for (const auto &[B, Pred] : Ctx.PredOf)
      if (Pred && Child->contains(Pred)) {
        Crossed = true;
        break;
      }
    if (!Crossed)
      return std::nullopt;

    std::optional<Affine> EV = IA.exitValue(I, Child);
    if (!EV)
      return std::nullopt;

    // The symbols of the exit value are subloop invariants, re-evaluated in
    // this phase's context.
    VecForm Out = invariant(ClosedForm::constant(Affine(EV->constantPart())));
    for (const auto &[Sym, Coeff] : EV->terms()) {
      auto *SymV = const_cast<ir::Value *>(static_cast<const ir::Value *>(Sym));
      std::optional<VecForm> SV = evalValue(SymV, Ctx, P);
      if (!SV)
        return std::nullopt;
      for (size_t J = 0; J < Out.A.size(); ++J)
        Out.A[J] = Out.A[J] + SV->A[J] * Coeff;
      Out.B = Out.B + SV->B * Coeff;
    }
    Ctx.Memo[I] = Out;
    return Out;
  }

  std::optional<VecForm> evalInst(ir::Instruction *I, PhaseCtx &Ctx,
                                  unsigned P) {
    auto It = Ctx.Memo.find(I);
    if (It != Ctx.Memo.end())
      return It->second;
    // Defensive cycle break (a cycle not through a header phi would be a
    // malformed graph): record failure first, overwrite on success.
    Ctx.Memo[I] = std::nullopt;

    std::optional<VecForm> R;
    if (I->isPhi()) {
      // Body merge: resolved by the path's incoming edge.
      if (const ir::BasicBlock *Pred = Ctx.PredOf.at(I->parent()))
        R = evalValue(I->incomingFor(Pred), Ctx, P);
    } else {
      // Div, Exp, loads, compares inside the update are out of scope.
      R = applyVecOp(I, [&](ir::Value *V) { return evalValue(V, Ctx, P); });
    }
    Ctx.Memo[I] = R;
    return R;
  }

  //===------------------------------------------------------------------===//
  // Proof obligations
  //===------------------------------------------------------------------===//

  bool collectObligations(std::vector<PhaseCtx> &Phases, CycleEval &E) {
    const analysis::LoopInfo &LI = IA.loopInfo();
    E.Obligations.resize(K);
    for (unsigned P = 0; P < K; ++P) {
      const Path &PB = BasePaths[P % BaseK];
      for (size_t J = 0; J < PB.size(); ++J) {
        const ir::BasicBlock *Target =
            J + 1 < PB.size() ? PB[J + 1].B : Header;
        // A trace predecessor that is not the previous direct block means
        // control crossed a subloop between the two: the sampled edge out
        // of this block led inward, whatever the next direct block is.
        const bool Gap = J + 1 < PB.size() && PB[J + 1].Pred != PB[J].B;
        const ir::Instruction *T = PB[J].B->terminator();
        if (!T)
          return false;
        if (T->opcode() == ir::Opcode::Br)
          continue; // single successor, taken by construction
        if (T->opcode() != ir::Opcode::CondBr)
          return false;
        ir::BasicBlock *S0 = T->blocks()[0], *S1 = T->blocks()[1];
        const bool In0 = L->contains(S0), In1 = L->contains(S1);
        if (!In0 || !In1) {
          // An exit test: a completed iteration follows the stay side by
          // definition, so no invariance proof is needed (the per-phase
          // claim is conditional on the iteration happening at all).
          if (Gap || (In0 ? S0 : S1) != Target)
            return false;
          continue;
        }
        Obligation O;
        if (Gap) {
          // The sampled side is the one that enters a subloop of L.
          const bool Inner0 = LI.loopFor(S0) != L;
          const bool Inner1 = LI.loopFor(S1) != L;
          if (Inner0 == Inner1)
            return false;
          O.Taken = Inner0 ? S0 : S1;
        } else {
          if (Target != S0 && Target != S1)
            return false;
          O.Taken = Target;
        }
        O.TakenTrue = O.Taken == S0;
        O.BlockIdx = J;
        ir::Value *Cond = chaseCopies(T->operand(0));
        const auto *CI = ir::dyn_cast<ir::Instruction>(Cond);
        if (CI && CI->isCompare()) {
          O.Cmp = CI->opcode();
          O.LHS = evalValue(CI->operand(0), Phases[P], P);
          O.RHS = evalValue(CI->operand(1), Phases[P], P);
        } else {
          // A non-compare condition branches on value != 0.
          O.Cmp = ir::Opcode::CmpNE;
          O.LHS = evalValue(Cond, Phases[P], P);
          O.RHS = invariant(ClosedForm());
        }
        if (!O.LHS || !O.RHS)
          O.LHS = O.RHS = std::nullopt; // unevaluable, not unprovable-yet
        E.Obligations[P].push_back(std::move(O));
      }
    }
    return true;
  }

  //===------------------------------------------------------------------===//
  // Composition, solving, and discharge
  //===------------------------------------------------------------------===//

  /// Transfers of every unknown on every phase: Row[i][p] is nullopt when
  /// unknown i's carried value is not linear over X on phase p's path.
  void evalTransfers(std::vector<PhaseCtx> &Phases, CycleEval &E) {
    const unsigned N = unsigned(Unknowns.size());
    E.Row.assign(N, std::vector<std::optional<VecForm>>(K));
    for (unsigned P = 0; P < K; ++P)
      for (unsigned I = 0; I < N; ++I) {
        ir::Value *Init = nullptr, *Carried = nullptr;
        splitHeaderPhi(Unknowns[I], L, Init, Carried);
        E.Row[I][P] = evalValue(Carried, Phases[P], P);
      }
  }

  /// Fills the dependency lists close() walks: an unknown is Complete when
  /// it has a transfer on every phase, Reads lists the unknowns those
  /// transfers reference, and ReadBy inverts Reads.
  void indexReads(CycleEval &E) const {
    const unsigned N = unsigned(Unknowns.size());
    E.Complete.assign(N, true);
    E.Reads.assign(N, {});
    E.ReadBy.assign(N, {});
    std::vector<unsigned> Seen(N, ~0u); // Seen[j] == i: j already in Reads[i]
    for (unsigned I = 0; I < N; ++I)
      for (unsigned P = 0; P < E.K; ++P) {
        if (!E.Row[I][P]) {
          E.Complete[I] = false;
          break;
        }
        for (unsigned J = 0; J < N; ++J)
          if (!E.Row[I][P]->A[J].isZero() && Seen[J] != I) {
            Seen[J] = I;
            E.Reads[I].push_back(J);
            E.ReadBy[J].push_back(I);
          }
      }
  }

  /// Transfer of unknown \p I on phase \p P of the current attempt.
  const std::optional<VecForm> &row(unsigned I, unsigned P) const {
    return Ev.Row[I][P % Ev.K];
  }

  /// Shrinks \p S to its largest closed subset: every member has a transfer
  /// on every phase, and those transfers reference only members.  A phi
  /// coupled to a nonlinear one (ps += f(px) with px' = px*px) drops out
  /// here instead of sinking the whole loop.  Dropping a member can only
  /// break the members that read it, so a worklist over ReadBy reaches the
  /// greatest fixpoint without rescanning the rows.
  void close(std::vector<bool> &S) const {
    const unsigned N = unsigned(Unknowns.size());
    std::vector<unsigned> Work;
    auto drop = [&](unsigned I) {
      S[I] = false;
      Work.push_back(I);
    };
    for (unsigned I = 0; I < N; ++I) {
      if (!S[I])
        continue;
      bool OK = Ev.Complete[I];
      for (size_t R = 0; R < Ev.Reads[I].size() && OK; ++R)
        OK = S[Ev.Reads[I][R]];
      if (!OK)
        drop(I);
    }
    while (!Work.empty()) {
      const unsigned J = Work.back();
      Work.pop_back();
      for (unsigned I : Ev.ReadBy[J])
        if (S[I])
          drop(I);
    }
  }

  /// Composes and solves the cycle recurrence restricted to \p S.  On
  /// success fills Result.PF for members of S.  On failure sets \p FailVar
  /// for the members the solver could not close (the caller drops them and
  /// retries); a failure naming no variable is unrecoverable.
  bool solveSubset(const std::vector<bool> &S, std::vector<bool> &FailVar) {
    FailVar.assign(S.size(), false);

    // Every matrix and vector below is indexed by position in Vars, the
    // members of S in index order.  A closed subset's transfers read only
    // members, so every entry left out is a zero: leaving them out changes
    // no sum, no product and no overflow.
    std::vector<unsigned> Vars;
    for (unsigned I = 0; I < S.size(); ++I)
      if (S[I])
        Vars.push_back(I);
    const unsigned N = unsigned(Vars.size());

    // Per-phase transfers restricted to S.
    std::vector<RatMatrix> M;
    std::vector<std::vector<ClosedForm>> B;
    bool Failed = false;
    for (unsigned P = 0; P < K; ++P) {
      RatMatrix MP(N, N);
      std::vector<ClosedForm> BP(N);
      for (unsigned I = 0; I < N; ++I) {
        const VecForm &VF = *row(Vars[I], P);
        for (unsigned J = 0; J < N; ++J)
          MP.at(I, J) = VF.A[Vars[J]];
        BP[I] = VF.B;
      }
      M.push_back(std::move(MP));
      B.push_back(std::move(BP));
    }

    // Accumulate X(K*c + p) = Pfx[p] * Y(c) + D[p](c) across the cycle,
    // where Y(c) = X(K*c) and the per-phase forcings are time-stretched
    // into the cycle domain: b_p at iteration K*c + p is b_p.atLinear(K, p)
    // at cycle c.
    std::vector<RatMatrix> Pfx{RatMatrix::identity(N)};
    std::vector<std::vector<ClosedForm>> D{std::vector<ClosedForm>(N)};
    for (unsigned P = 0; P < K; ++P) {
      Pfx.push_back(M[P] * Pfx[P]);
      std::vector<ClosedForm> DN(N);
      for (unsigned I = 0; I < N; ++I) {
        std::optional<ClosedForm> Str = B[P][I].atLinear(int64_t(K), P);
        if (!Str) {
          FailVar[Vars[I]] = true;
          Failed = true;
          continue;
        }
        ClosedForm Acc = std::move(*Str);
        for (unsigned J = 0; J < N; ++J)
          if (!M[P].at(I, J).isZero()) // a zero term adds nothing
            Acc = Acc + D[P][J] * M[P].at(I, J);
        DN[I] = std::move(Acc);
      }
      D.push_back(std::move(DN));
    }
    if (Failed)
      return false;

    // The composed whole-cycle recurrence Y(c+1) = A*Y(c) + F(c).
    std::vector<Affine> Inits(N);
    for (unsigned I = 0; I < N; ++I) {
      ir::Value *Init = nullptr, *Carried = nullptr;
      splitHeaderPhi(Unknowns[Vars[I]], L, Init, Carried);
      Inits[I] = headerPhiInit(Init, L);
    }
    // Stashed for the early-cycle obligation checks (c < Result.Shift is
    // outside the solved forms' domain, so those cycles replay concretely).
    EarlyVars = Vars;
    EarlyM = M;
    EarlyB = B;
    EarlyInit = Inits;

    // A reset variable -- one overwritten along the cycle with values that
    // read no unknown (the flag idiom of multi-branch loops) -- makes A
    // singular, which the closed-form solver rejects outright.  Peel such
    // rows first: a zero row means Y_i(c) = F_i(c-1) verbatim, valid once
    // the cycle index clears the peel.  Substitute the peeled solutions
    // into the rows still coupled, advance the time origin one cycle per
    // round (a row that read only reset variables goes zero next round),
    // and solve the survivors from the advanced origin.  commit() realigns
    // the first Shift cycles with a wrap-around of order K*Shift.
    RatMatrix A = Pfx[K];
    std::vector<ClosedForm> F = D[K];
    std::vector<Affine> Origin = Inits;
    std::vector<bool> Active(N, true);
    std::vector<std::optional<ClosedForm>> Sol(N);
    unsigned T = 0;
    while (true) {
      std::vector<unsigned> Reset;
      for (unsigned I = 0; I < N; ++I) {
        if (!Active[I])
          continue;
        bool Zero = true;
        for (unsigned J = 0; J < N && Zero; ++J)
          if (!A.at(I, J).isZero())
            Zero = false;
        if (Zero)
          Reset.push_back(I);
      }
      if (Reset.empty())
        break;
      // Values one cycle later seed the advanced origin.
      std::vector<Affine> Next(N);
      for (unsigned I = 0; I < N; ++I) {
        if (!Active[I])
          continue;
        Affine V = F[I].evaluateAt(int64_t(T));
        for (unsigned J = 0; J < N; ++J)
          if (!A.at(I, J).isZero())
            V += Origin[J] * A.at(I, J);
        Next[I] = std::move(V);
      }
      for (unsigned I : Reset) {
        std::optional<ClosedForm> SI = F[I].shifted(-1);
        if (!SI) {
          FailVar[Vars[I]] = true;
          Failed = true;
        } else {
          Sol[I] = std::move(*SI);
        }
        Active[I] = false;
      }
      if (Failed)
        return false;
      for (unsigned I = 0; I < N; ++I) {
        if (!Active[I])
          continue;
        for (unsigned J : Reset)
          if (!A.at(I, J).isZero()) {
            F[I] = F[I] + *Sol[J] * A.at(I, J);
            A.at(I, J) = Rational(0);
          }
      }
      Origin = std::move(Next);
      ++T;
    }

    // Follower peel -- the dual of the reset peel.  A variable whose
    // *column* is zero among the active rows (its own diagonal included)
    // is read by nothing that remains: it cannot influence the coupled
    // core, yet its presence makes the matrix singular, which the solver
    // rejects outright.  The scratch variable of a rotation is the
    // canonical case (tmp = p0; p0 = p1; p1 = p2; p2 = tmp composes over
    // the cycle to tmp' = f(ring) with no reads of tmp).  Peel followers
    // before the core solve and back-substitute from the solved forms
    // afterwards; each level of substitution shifts the domain one cycle,
    // which the commit-time wrap-around prefix absorbs.
    std::vector<unsigned> Follow; // removal order
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (unsigned I = 0; I < N && !Changed; ++I) {
        if (!Active[I])
          continue;
        bool ColZero = true;
        for (unsigned J = 0; J < N && ColZero; ++J)
          if (Active[J] && !A.at(J, I).isZero())
            ColZero = false;
        if (!ColZero)
          continue;
        Follow.push_back(I);
        Active[I] = false;
        Changed = true; // re-scan: removing I may zero another column
      }
    }

    if (count(Active)) {
      // Split the still-coupled remainder into connected components of the
      // dependency graph and solve each one separately as Z(m) = Y(m + T):
      // same matrix block, forcing and origin advanced by T cycles.  The
      // coupling is usually sparse -- a rotation family and a geometric
      // accumulator share no variables -- and solving them jointly is not
      // just wasteful, it is lossy twice over: the solver's size bound sees
      // the sum of the block sizes, and its symbolic iterates are shared,
      // so one huge-eigenvalue scalar overflows the arithmetic and nulls
      // out every other component's solution with it.
      std::vector<unsigned> Comp(N, ~0u);
      std::vector<std::vector<unsigned>> Comps;
      for (unsigned I = 0; I < N; ++I) {
        if (!Active[I] || Comp[I] != ~0u)
          continue;
        std::vector<unsigned> Members{I};
        Comp[I] = unsigned(Comps.size());
        for (size_t Q = 0; Q < Members.size(); ++Q) {
          const unsigned U = Members[Q];
          for (unsigned J = 0; J < N; ++J) {
            if (!Active[J] || Comp[J] != ~0u)
              continue;
            if (!A.at(U, J).isZero() || !A.at(J, U).isZero()) {
              Comp[J] = Comp[I];
              Members.push_back(J);
            }
          }
        }
        Comps.push_back(std::move(Members));
      }
      for (const std::vector<unsigned> &Idx : Comps) {
        const unsigned NA = unsigned(Idx.size());
        // The closure cap (SummarizeMaxVars) is wider than the solver's
        // bound; when a single component is still too big, defer its
        // highest-indexed variable and let the caller's dead-set loop
        // retry without it rather than failing wholesale.
        if (NA > MaxSystemSize) {
          FailVar[Vars[Idx.back()]] = true;
          Failed = true;
          continue;
        }
        RatMatrix AS(NA, NA);
        std::vector<ClosedForm> G(NA);
        std::vector<Affine> ZInit(NA);
        bool Bad = false;
        for (unsigned I = 0; I < NA; ++I) {
          for (unsigned J = 0; J < NA; ++J)
            AS.at(I, J) = A.at(Idx[I], Idx[J]);
          std::optional<ClosedForm> GI = T ? F[Idx[I]].shifted(int64_t(T))
                                           : std::optional<ClosedForm>(F[Idx[I]]);
          if (!GI) {
            FailVar[Vars[Idx[I]]] = true;
            Failed = Bad = true;
            continue;
          }
          G[I] = std::move(*GI);
          ZInit[I] = Origin[Idx[I]];
        }
        if (Bad)
          continue;
        std::vector<std::optional<ClosedForm>> Z =
            solveLinearSystem(AS, G, ZInit);
        for (unsigned I = 0; I < NA; ++I) {
          std::optional<ClosedForm> SI;
          if (Z[I])
            SI = T ? Z[I]->shifted(-int64_t(T)) : Z[I];
          if (!SI) {
            FailVar[Vars[Idx[I]]] = true;
            Failed = true;
            continue;
          }
          Sol[Idx[I]] = std::move(SI);
        }
      }
      if (Failed)
        return false;
    }

    // Back-substitute followers in reverse removal order: a follower's row
    // reads only core variables and later-removed followers (anything that
    // read it was removed earlier), so its solution is one cycle of the
    // recurrence applied to already-solved forms.  Y_I(c) = (A*Y + F)_I at
    // c-1, which is only guaranteed once every referenced solution's own
    // domain cleared -- one cycle later than the deepest dependency.  A
    // concrete point-check often discharges that cycle: if the form already
    // reproduces the origin state at cycle T, its domain extends down to T
    // and the commit-time wrap prefix stays as short as the peel alone
    // requires (the rotation scratch variable always passes this check).
    std::vector<unsigned> ValidFrom(N, T);
    unsigned MaxValid = T;
    for (size_t Fi = Follow.size(); Fi-- > 0;) {
      const unsigned I = Follow[Fi];
      ClosedForm Acc = F[I];
      bool OK = true;
      unsigned VF = T + 1;
      for (unsigned J = 0; J < N && OK; ++J)
        if (!A.at(I, J).isZero()) {
          if (!Sol[J])
            OK = false;
          else {
            Acc = Acc + *Sol[J] * A.at(I, J);
            VF = std::max(VF, ValidFrom[J] + 1);
          }
        }
      std::optional<ClosedForm> SI;
      if (OK)
        SI = Acc.shifted(-1);
      if (!SI) {
        FailVar[Vars[I]] = true;
        Failed = true;
        continue;
      }
      if (VF == T + 1) {
        try {
          if (SI->evaluateAt(int64_t(T)) == Origin[I])
            VF = T;
        } catch (const RationalOverflow &) {
          // keep the conservative domain
        }
      }
      ValidFrom[I] = VF;
      MaxValid = std::max(MaxValid, VF);
      Sol[I] = std::move(*SI);
    }
    if (Failed)
      return false;

    Result.Shift = MaxValid;
    Result.PF.assign(S.size(), std::vector<ClosedForm>(K));
    for (unsigned P = 0; P < K; ++P)
      for (unsigned I = 0; I < N; ++I) {
        ClosedForm Acc = D[P][I];
        for (unsigned J = 0; J < N; ++J)
          if (!Pfx[P].at(I, J).isZero())
            Acc = Acc + *Sol[J] * Pfx[P].at(I, J);
        Result.PF[Vars[I]][P] = std::move(Acc);
      }
    return true;
  }

  /// True when every unknown-phi coefficient the condition reads is inside
  /// \p S (otherwise its value depends on a phi we are not summarizing).
  bool condCoeffsWithin(const Obligation &O,
                        const std::vector<bool> &S) const {
    for (const VecForm *VF : {&*O.LHS, &*O.RHS})
      for (size_t J = 0; J < VF->A.size(); ++J)
        if (!VF->A[J].isZero() && !S[J])
          return false;
    return true;
  }

  /// Branch-relevance analysis for an obligation that could not be proved
  /// phase-constant: walks the branch's *other* arm to the rejoin point,
  /// re-evaluates the phase transfer of every member of \p S along that
  /// alternative path, and reports which members' transfers differ.  An
  /// all-false result means the branch cannot steer any summarized value
  /// (both arms produce the same update), so the obligation is vacuous.
  /// nullopt: the alternative arm exits the loop, branches again, or
  /// re-enters the path upstream -- relevance unknown, proof must fail.
  std::optional<std::vector<bool>> armDiffVars(const Obligation &O,
                                               unsigned Phase,
                                               const std::vector<bool> &S) {
    const analysis::LoopInfo &LI = IA.loopInfo();
    const Path &PB = BasePaths[Phase % BaseK];
    const ir::Instruction *T = PB[O.BlockIdx].B->terminator();
    const ir::BasicBlock *Other =
        O.Taken == T->blocks()[0] ? T->blocks()[1] : T->blocks()[0];

    std::unordered_map<const ir::BasicBlock *, size_t> Pos;
    for (size_t J = 0; J < PB.size(); ++J)
      Pos[PB[J].B] = J;

    // Walk the other arm to its rejoin point on the sampled path.
    std::vector<const ir::BasicBlock *> Seg;
    const ir::BasicBlock *Cur = Other;
    size_t Rejoin = PB.size(), Steps = 0;
    while (true) {
      if (Cur == Header)
        break; // the arm runs straight to the backedge
      auto It = Pos.find(Cur);
      if (It != Pos.end()) {
        if (It->second <= O.BlockIdx)
          return std::nullopt; // rejoins upstream: not a diamond
        Rejoin = It->second;
        break;
      }
      if (!L->contains(Cur) || LI.loopFor(Cur) != L)
        return std::nullopt; // the arm exits or enters a subloop
      Seg.push_back(Cur);
      if (++Steps > 64)
        return std::nullopt;
      const ir::Instruction *BT = Cur->terminator();
      if (!BT || BT->opcode() != ir::Opcode::Br)
        return std::nullopt; // nested control flow in the arm
      Cur = BT->blocks()[0];
    }

    // Alternative-path context: the shared prefix and suffix keep their
    // sampled trace predecessors; the arm itself and the rejoin block take
    // the walked edges.
    PhaseCtx Ctx;
    for (size_t J = 0; J <= O.BlockIdx; ++J)
      if (!Ctx.PredOf.emplace(PB[J].B, PB[J].Pred).second)
        return std::nullopt;
    const ir::BasicBlock *Prev = PB[O.BlockIdx].B;
    for (const ir::BasicBlock *B : Seg) {
      if (!Ctx.PredOf.emplace(B, Prev).second)
        return std::nullopt;
      Prev = B;
    }
    if (Rejoin < PB.size()) {
      if (!Ctx.PredOf.emplace(PB[Rejoin].B, Prev).second)
        return std::nullopt;
      for (size_t J = Rejoin + 1; J < PB.size(); ++J)
        if (!Ctx.PredOf.emplace(PB[J].B, PB[J].Pred).second)
          return std::nullopt;
    }

    std::vector<bool> Diff(Unknowns.size(), false);
    for (unsigned I = 0; I < unsigned(Unknowns.size()); ++I) {
      if (!S[I])
        continue;
      ir::Value *Init = nullptr, *Carried = nullptr;
      splitHeaderPhi(Unknowns[I], L, Init, Carried);
      std::optional<VecForm> VF = evalValue(Carried, Ctx, Phase);
      const std::optional<VecForm> &Ref = row(I, Phase);
      Diff[I] = !VF || !Ref || VF->A != Ref->A || !(VF->B == Ref->B);
    }
    return Diff;
  }

  /// The subset-refinement loop: solve the closed subset, discharge every
  /// obligation (by proof or by irrelevance), and shrink the subset by the
  /// variables a steering branch actually touches until a fixpoint.
  bool proveSubset() {
    const unsigned N = unsigned(Unknowns.size());
    // Vars proven hopeless (solver failure, branch-steered): never retried.
    // The working set S is re-derived from the survivors each round, so a
    // var squeezed out by the size cap gets its turn once a capped-in var
    // dies -- the cap defers, it does not condemn.
    std::vector<bool> Dead(N, false);
    while (true) {
      std::vector<bool> S(N);
      for (unsigned I = 0; I < N; ++I)
        S[I] = !Dead[I];
      close(S);
      // Deterministic cap: drop the highest-index members, re-close.
      while (count(S) > SummarizeMaxVars) {
        for (unsigned I = N; I-- > 0;)
          if (S[I]) {
            S[I] = false;
            break;
          }
        close(S);
      }
      if (count(S) == 0) {
        FailWhy = &NumFailEmpty;
        return false;
      }

      std::vector<bool> FailVar;
      if (!solveSubset(S, FailVar)) {
        bool Any = false;
        for (unsigned J = 0; J < N; ++J)
          if (FailVar[J] && S[J] && !Dead[J]) {
            Dead[J] = true;
            Any = true;
          }
        if (!Any) {
          FailWhy = &NumFailSolve;
          return false;
        }
        continue;
      }
      bool NeedShrink = false, Fail = false;
      std::vector<bool> Shrink(N, false);
      for (unsigned P = 0; P < K && !Fail; ++P)
        for (const Obligation &O : Ev.Obligations[P % Ev.K]) {
          if (O.LHS && condCoeffsWithin(O, S) && checkObligation(O, P))
            continue;
          std::optional<std::vector<bool>> Diff = armDiffVars(O, P, S);
          if (!Diff) {
            Fail = true;
            break;
          }
          for (unsigned J = 0; J < N; ++J)
            if ((*Diff)[J]) {
              Shrink[J] = true;
              NeedShrink = true;
            }
          // No S-var differs between the arms: vacuous for this subset.
        }
      if (Fail) {
        FailWhy = &NumFailBranch;
        return false;
      }
      if (!NeedShrink) {
        Result.InS = S;
        return true;
      }
      bool Progress = false;
      for (unsigned J = 0; J < N; ++J)
        if (Shrink[J] && !Dead[J]) {
          Dead[J] = true;
          Progress = true;
        }
      if (!Progress) {
        FailWhy = &NumFailBranch;
        return false;
      }
    }
  }

  /// The value of \p VF on iterations h = K*c + P, as a form in c: the
  /// unknown-phi coefficients substitute the solved phase forms.
  std::optional<ClosedForm> obligationValue(const VecForm &VF, unsigned P) {
    std::optional<ClosedForm> Str = VF.B.atLinear(int64_t(K), P);
    if (!Str)
      return std::nullopt;
    ClosedForm Acc = std::move(*Str);
    for (size_t I = 0; I < VF.A.size(); ++I)
      if (!VF.A[I].isZero())
        Acc = Acc + Result.PF[I][P] * VF.A[I];
    return Acc;
  }

  /// Does `lhs Cmp rhs` hold (branch taken as sampled) given the integer
  /// difference sequence \p Dlt = lhs - rhs over all h >= 0?
  static bool cmpHolds(ir::Opcode Cmp, bool W, const ClosedForm &Dlt) {
    const ClosedForm One = ClosedForm::constant(Affine(1));
    auto GE0 = [](const ClosedForm &F) { return F.provablyNonNegative(); };
    // Integer sequences: a < b  <=>  b - a - 1 >= 0, etc.
    switch (Cmp) {
    case ir::Opcode::CmpLT:
      return W ? GE0(-Dlt - One) : GE0(Dlt);
    case ir::Opcode::CmpLE:
      return W ? GE0(-Dlt) : GE0(Dlt - One);
    case ir::Opcode::CmpGT:
      return W ? GE0(Dlt - One) : GE0(-Dlt);
    case ir::Opcode::CmpGE:
      return W ? GE0(Dlt) : GE0(-Dlt - One);
    case ir::Opcode::CmpEQ:
      return W ? Dlt.isZero() : (GE0(Dlt - One) || GE0(-Dlt - One));
    case ir::Opcode::CmpNE:
      return W ? (GE0(Dlt - One) || GE0(-Dlt - One)) : Dlt.isZero();
    default:
      return false;
    }
  }

  /// Concrete replay of the obligation of phase \p Phase at the
  /// (pre-shift) cycle \p Cyc: iterates the restricted per-phase transfer
  /// maps from the real inits up to iteration h = K*Cyc + Phase, then tests
  /// the comparison on exact affine values.  Only members of the solved
  /// subset move, and the obligation reads no other unknown
  /// (condCoeffsWithin).
  bool earlyObligationHolds(const Obligation &O, unsigned Phase,
                            unsigned Cyc) {
    const unsigned N = unsigned(EarlyVars.size());
    std::vector<Affine> X = EarlyInit;
    const int64_t HT = int64_t(K) * Cyc + Phase;
    for (int64_t H = 0; H < HT; ++H) {
      const unsigned P = unsigned(H % int64_t(K));
      std::vector<Affine> NX(N);
      for (unsigned I = 0; I < N; ++I) {
        Affine V = EarlyB[P][I].evaluateAt(H);
        for (unsigned J = 0; J < N; ++J)
          if (!EarlyM[P].at(I, J).isZero())
            V += X[J] * EarlyM[P].at(I, J);
        NX[I] = std::move(V);
      }
      X = std::move(NX);
    }
    auto val = [&](const VecForm &VF) {
      Affine V = VF.B.evaluateAt(HT);
      for (unsigned I = 0; I < N; ++I)
        if (!VF.A[EarlyVars[I]].isZero())
          V += X[I] * VF.A[EarlyVars[I]];
      return V;
    };
    const ClosedForm Dlt =
        ClosedForm::constant(val(*O.LHS) - val(*O.RHS));
    return cmpHolds(O.Cmp, O.TakenTrue, Dlt);
  }

  /// Proves obligation \p O of phase \p Phase from the solved phase forms.
  bool checkObligation(const Obligation &O, unsigned Phase) {
    std::optional<ClosedForm> LHS = obligationValue(*O.LHS, Phase);
    std::optional<ClosedForm> RHS = obligationValue(*O.RHS, Phase);
    if (!LHS || !RHS)
      return false;
    ClosedForm Dlt = *LHS - *RHS;
    if (Result.Shift) {
      // The solved forms only cover cycles c >= Shift: prove that domain by
      // shifting, and replay the peeled-off prefix cycles concretely.
      std::optional<ClosedForm> Sh = Dlt.shifted(int64_t(Result.Shift));
      if (!Sh)
        return false;
      Dlt = std::move(*Sh);
      for (unsigned Cyc = 0; Cyc < Result.Shift; ++Cyc)
        if (!earlyObligationHolds(O, Phase, Cyc))
          return false;
    }
    return cmpHolds(O.Cmp, O.TakenTrue, Dlt);
  }

  void commit() {
    for (size_t I = 0; I < Unknowns.size(); ++I) {
      if (!Result.InS[I])
        continue; // outside the proved subset: stays Unknown
      std::vector<ClosedForm> PF = Result.PF[I];
      if (Result.Shift) {
        // The forms cover cycles c >= Shift; rebase them to start at 0 and
        // let a wrap-around of order K*Shift carry the peeled prefix (its
        // first K*Shift values follow the sampled iterations verbatim).
        // Rebasing composes the forms' coefficients (shifted() goes through
        // Affine arithmetic), so near-INT64 constants can overflow here even
        // though the proof itself fit -- degrade that variable to Unknown
        // rather than letting the exception escape the analysis.
        bool OK = true;
        try {
          for (ClosedForm &F : PF) {
            std::optional<ClosedForm> Sh = F.shifted(int64_t(Result.Shift));
            if (!Sh) {
              OK = false;
              break;
            }
            F = std::move(*Sh);
          }
        } catch (const RationalOverflow &) {
          NumOverflow.bump();
          OK = false;
        }
        if (!OK)
          continue; // stays Unknown; the rest of the subset still commits
      }
      Classification C = Result.K == 1
                             ? Classification::fromForm(L, PF[0])
                             : Classification::phasePeriodic(L, Result.K, PF);
      if (Result.Shift)
        C = Classification::wrapAround(L, Result.K * Result.Shift,
                                       std::move(C));
      bool Created = false;
      Map.getOrCreate(Unknowns[I], Created) = std::move(C);
      NumPhis.bump();
    }
  }

  InductionAnalysis &IA;
  const analysis::Loop *L;
  ClassTable &Map;
  SampleTraces &Traces;
  const ir::BasicBlock *Header;

  /// The vector X: unknown header phis in block order.
  std::vector<ir::Instruction *> Unknowns;
  std::unordered_map<const ir::Instruction *, unsigned> IndexOf;

  unsigned BaseK = 0;          ///< Observed path-cycle period.
  std::vector<Path> BasePaths; ///< One observed path per base phase.
  unsigned K = 0;              ///< Period of the current proof attempt.
  CycleEval Ev;                ///< The evaluation the current attempt reads.
  bool EvaluateEachK = false;  ///< The base evaluation met an unpinned ring.

  /// One proof attempt's outcome: the proved subset and, for its members,
  /// PF[i][p] -- the closed form of X_i on iterations h = K*c + p, in c.
  struct Attempt {
    unsigned K = 0;
    /// Cycles peeled while eliminating reset variables: PF[i][p] is only
    /// valid for cycle indices c >= Shift; commit() wraps accordingly and
    /// checkObligation() replays the first Shift cycles concretely.
    unsigned Shift = 0;
    std::vector<bool> InS;
    std::vector<std::vector<ClosedForm>> PF;
  };
  Attempt Result;
  /// Restricted per-phase transfers of the last successful solve, kept for
  /// the concrete early-cycle obligation replay, over the subset EarlyVars.
  std::vector<unsigned> EarlyVars;
  std::vector<RatMatrix> EarlyM;
  std::vector<std::vector<ClosedForm>> EarlyB;
  std::vector<Affine> EarlyInit;
  const stats::Counter *FailWhy = nullptr;
  bool Overflowed = false; ///< Some attempt hit RationalOverflow.
};

} // namespace

void biv::ivclass::summarizeLoop(InductionAnalysis &IA,
                                 const analysis::Loop *L, ClassTable &Map,
                                 SampleTraces &Traces) {
  stats::ScopedSpan Span(SummarizePhase);
  Summarizer(IA, L, Map, Traces).run();
}
