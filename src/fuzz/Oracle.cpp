//===- fuzz/Oracle.cpp - Differential interpreter oracle ----------------------===//

#include "fuzz/Oracle.h"
#include "support/Stats.h"
#include "baseline/ClassicalIV.h"
#include "frontend/Lowering.h"
#include "interp/Interpreter.h"
#include "ivclass/Pipeline.h"
#include "ssa/SSABuilder.h"
#include "ssa/SSAVerifier.h"
#include "support/Lcg.h"
#include <span>
#include <sstream>

using namespace biv;
using namespace biv::fuzz;

std::string Mismatch::str() const {
  std::string S = Check + " mismatch";
  if (!Loop.empty())
    S += " in " + Loop;
  if (!Value.empty())
    S += " on " + Value;
  S += ": claimed " + Claim + "; observed " + Observed;
  return S;
}

namespace {

/// Step budget per execution.
constexpr uint64_t MaxSteps = 4u << 20;

/// Value claims are statements over mathematical integers, while execution
/// wraps in two's-complement int64.  Once an observed sequence leaves this
/// magnitude bound the two may legitimately diverge (a geometric update
/// doubling past 2^63), so its value claims are skipped without counting.
/// Structural checks (behavior, trip count, baseline) stay unguarded.
constexpr int64_t ClaimValueBound = int64_t(1) << 31;

bool exceedsClaimBound(const std::vector<int64_t> &Seq) {
  for (int64_t V : Seq)
    if (V > ClaimValueBound || V < -ClaimValueBound)
      return true;
  return false;
}

/// A claim whose exact evaluation left int64 on this run: symbols bound to
/// wrapped runtime values make it unfalsifiable here, like a wrapped
/// sequence.
void noteOverflowSkip() {
  static const stats::Counter NumOverflowSkips("fuzz.check.overflow_skips");
  NumOverflowSkips.bump();
}

/// Renders the first elements of an observed sequence.
std::string renderSeq(std::span<const int64_t> Seq, size_t Limit = 12) {
  std::ostringstream OS;
  OS << "[";
  for (size_t K = 0; K < Seq.size() && K < Limit; ++K)
    OS << (K ? ", " : "") << Seq[K];
  if (Seq.size() > Limit)
    OS << ", ... (" << Seq.size() << " values)";
  OS << "]";
  return OS.str();
}

/// Binds affine symbols to runtime values: arguments to the run's argument
/// vector, loop-external instructions to their observed value when they
/// executed exactly once (so the binding is unambiguous).
class SymbolEnv {
public:
  SymbolEnv(const ir::Function &F, const std::vector<int64_t> &Args,
            const interp::ExecutionTrace &Trace)
      : Trace(Trace) {
    for (const ir::Argument *A : F.arguments())
      ArgValues[A] = Args[A->index()];
  }

  /// Evaluates \p V; nullopt when a symbol has no unambiguous binding or
  /// the result is not an integer.
  std::optional<int64_t> eval(const Affine &V) const {
    Rational R = V.constantPart();
    for (const auto &[Sym, Coeff] : V.terms()) {
      const auto *Val = static_cast<const ir::Value *>(Sym);
      auto It = ArgValues.find(Val);
      if (It != ArgValues.end()) {
        R += Coeff * Rational(It->second);
        continue;
      }
      const auto *I = ir::dyn_cast<ir::Instruction>(Val);
      if (!I)
        return std::nullopt;
      const std::vector<int64_t> &Seq = Trace.sequenceOf(I);
      if (Seq.size() != 1)
        return std::nullopt;
      R += Coeff * Rational(Seq[0]);
    }
    if (!R.isInteger())
      return std::nullopt;
    return R.getInteger();
  }

private:
  const interp::ExecutionTrace &Trace;
  std::map<const ir::Value *, int64_t> ArgValues;
};

/// One oracle run's working state.
class OracleRun {
public:
  OracleRun(const std::string &Source, const OracleOptions &Opts)
      : Source(Source), Opts(Opts) {}

  OracleResult run();

private:
  void mismatch(std::string Check, std::string Loop, std::string Value,
                std::string Claim, std::string Observed) {
    Result.Mismatches.push_back({std::move(Check), std::move(Loop),
                                 std::move(Value), std::move(Claim),
                                 std::move(Observed)});
  }

  void checkBehavior(const interp::ExecutionTrace &Ref,
                     const interp::ExecutionTrace &Post);
  void checkLoopClaims(ivclass::InductionAnalysis &IA,
                       const analysis::Loop *L,
                       const interp::ExecutionTrace &Post,
                       const SymbolEnv &Env);
  void checkValues(ivclass::InductionAnalysis &IA,
                   const ivclass::Classification &C, const char *Check,
                   unsigned &Count, const std::string &LoopName,
                   const std::string &Name, const std::vector<int64_t> &Seq,
                   const SymbolEnv &Env, int64_t Skew = 0);
  void checkMonotonic(const ivclass::Classification &C,
                      const std::string &LoopName, const std::string &Name,
                      std::span<const int64_t> Seq);
  void checkMemberClaims(ivclass::InductionAnalysis &IA,
                         const analysis::DominatorTree &DT,
                         const analysis::Loop *L,
                         const interp::ExecutionTrace &Post,
                         const SymbolEnv &Env);
  void checkTripCount(ivclass::InductionAnalysis &IA,
                      const analysis::Loop *L,
                      const interp::ExecutionTrace &Post,
                      const SymbolEnv &Env);
  void checkBaseline(ivclass::InductionAnalysis &IA, const analysis::Loop *L);

  const std::string &Source;
  const OracleOptions &Opts;
  OracleResult Result;
};

OracleResult OracleRun::run() {
  // Reference build: parse -> SSA only, no analysis-side IR mutation.
  std::vector<std::string> Errors;
  std::unique_ptr<ir::Function> FRef =
      frontend::parseAndLower(Source, Errors);
  if (!FRef) {
    Result.ParseOK = false;
    Result.FrontendErrors = std::move(Errors);
    return std::move(Result);
  }
  ssa::buildSSA(*FRef);

  // Argument vector sized to the function, padded deterministically.
  std::vector<int64_t> Args = Opts.Args;
  if (Args.size() < FRef->arguments().size())
    Args.resize(FRef->arguments().size(), Args.empty() ? 6 : Args.back());

  // Seed array A, when the program declares one, with mixed signs so
  // conditional paths both execute.
  std::map<std::string, std::map<std::vector<int64_t>, int64_t>> Arrays;
  if (FRef->findArray("A")) {
    Lcg R(Opts.ArraySeed * 77 + 1);
    for (int64_t I = -32; I <= 64; ++I)
      Arrays["A"][{I}] = R.range(-5, 8);
  }

  interp::ExecOptions EO;
  EO.MaxSteps = MaxSteps;
  interp::ExecutionTrace Ref = interp::runWithArrays(*FRef, Args, Arrays, EO);
  if (!Ref.ok()) {
    mismatch("execution", "", "",
             "program executes within budget",
             Ref.HitStepLimit ? "step limit hit" : Ref.Error);
    return std::move(Result);
  }

  // Analyzed build: the full pipeline, with every IR mutation on (SCCP
  // folding plus exit-value materialization) and every stage verified --
  // exactly what the paper's client transformations would consume.  No
  // kinds are counted here: the campaign's punt rate comes from the batch
  // passes alone.
  ivclass::PipelineOptions PO;
  PO.Analysis.Summarize = Opts.Summarize;
  std::optional<ivclass::AnalyzedProgram> P =
      ivclass::analyzeSource(Source, Errors, PO);
  if (!P) {
    Result.ParseOK = false;
    Result.FrontendErrors = std::move(Errors);
    return std::move(Result);
  }
  ir::Function &F = *P->F;
  ivclass::InductionAnalysis &IA = *P->IA;
  ssa::verifySSAOrDie(F);

  interp::ExecutionTrace Post = interp::runWithArrays(F, Args, Arrays, EO);
  if (!Post.ok()) {
    mismatch("execution", "", "",
             "analyzed program executes within budget",
             Post.HitStepLimit ? "step limit hit" : Post.Error);
    return std::move(Result);
  }

  checkBehavior(Ref, Post);

  SymbolEnv Env(F, Args, Post);
  for (const auto &L : P->LI->loops()) {
    if (L->depth() == 1) {
      checkLoopClaims(IA, L.get(), Post, Env);
      checkMemberClaims(IA, *P->DT, L.get(), Post, Env);
      checkTripCount(IA, L.get(), Post, Env);
    }
    checkBaseline(IA, L.get());
  }
  return std::move(Result);
}

void OracleRun::checkBehavior(const interp::ExecutionTrace &Ref,
                              const interp::ExecutionTrace &Post) {
  ++Result.Checks.Behavior;
  if (Ref.ReturnValue != Post.ReturnValue) {
    mismatch("behavior", "", "", "analysis preserves the return value",
             "ref returned " +
                 (Ref.ReturnValue ? std::to_string(*Ref.ReturnValue)
                                  : std::string("void")) +
                 ", analyzed returned " +
                 (Post.ReturnValue ? std::to_string(*Post.ReturnValue)
                                   : std::string("void")));
    return;
  }
  if (Ref.Accesses.size() != Post.Accesses.size()) {
    mismatch("behavior", "", "", "analysis preserves the array access log",
             std::to_string(Ref.Accesses.size()) + " accesses vs " +
                 std::to_string(Post.Accesses.size()));
    return;
  }
  for (size_t K = 0; K < Ref.Accesses.size(); ++K) {
    const interp::ArrayAccess &A = Ref.Accesses[K];
    const interp::ArrayAccess &B = Post.Accesses[K];
    if (A.A->name() != B.A->name() || A.Indices != B.Indices ||
        A.IsWrite != B.IsWrite) {
      mismatch("behavior", "", std::string(A.A->name()),
               "analysis preserves the array access log",
               "access #" + std::to_string(K) + " differs");
      return;
    }
  }
}

void OracleRun::checkLoopClaims(ivclass::InductionAnalysis &IA,
                                const analysis::Loop *L,
                                const interp::ExecutionTrace &Post,
                                const SymbolEnv &Env) {
  for (ir::Instruction *Phi : L->header()->phis()) {
    const ivclass::Classification &C = IA.classify(Phi, L);
    const std::vector<int64_t> &Seq = Post.sequenceOf(Phi);
    if (Seq.size() < 2 || exceedsClaimBound(Seq))
      continue;
    const std::string Name(Phi->name());
    CheckCounts &N = Result.Checks;
    unsigned Order = 0;
    const ivclass::Classification &Settled = C.settled(Order);
    if (Settled.isMonotonic()) {
      // Only the tail past a wrap-around prefix is claimed to move one way.
      if (Seq.size() >= Order + 2)
        checkMonotonic(Settled, L->name(), Name,
                       std::span<const int64_t>(Seq).subspan(Order));
    } else if (C.hasClosedForm()) {
      // The c-finite extension (polynomial coefficients on exponential
      // terms) counts as its own category so campaigns can assert it keeps
      // firing.
      checkValues(IA, C, "closed-form",
                  C.Form.hasPolyExponential() ? N.CFinite : N.ClosedForm,
                  L->name(), Name, Seq, Env,
                  C.isLinear() ? Opts.InjectLinearSkew : 0);
    } else if (C.isWrapAround()) {
      checkValues(IA, C, "wrap-around", N.WrapAround, L->name(), Name, Seq,
                  Env);
    } else if (C.isPeriodic()) {
      checkValues(IA, C, "periodic", N.Periodic, L->name(), Name, Seq, Env);
    } else if (C.isPhasePeriodic()) {
      checkValues(IA, C, "phase-periodic", N.PhasePeriodic, L->name(), Name,
                  Seq, Env);
    }
  }
}

void OracleRun::checkValues(ivclass::InductionAnalysis &IA,
                            const ivclass::Classification &C,
                            const char *Check, unsigned &Count,
                            const std::string &LoopName,
                            const std::string &Name,
                            const std::vector<int64_t> &Seq,
                            const SymbolEnv &Env, int64_t Skew) {
  // Every observed value must be the claimed one, valueAt(h) with symbols
  // bound to their runtime values; a wrap-around prefix claims nothing.
  // An unbound symbol or a non-integer value makes the claim uncheckable on
  // this run, and so does exact evaluation leaving int64.
  bool Checked = false;
  try {
    for (size_t H = 0; H < Seq.size(); ++H) {
      std::optional<Affine> V = C.valueAt(int64_t(H));
      if (!V)
        continue;
      std::optional<int64_t> Expected = Env.eval(*V);
      if (!Expected)
        return;
      *Expected += Skew * int64_t(H);
      Checked = true;
      if (*Expected != Seq[H]) {
        mismatch(Check, LoopName, Name, IA.strNested(C),
                 renderSeq(Seq) + " (value " + std::to_string(Seq[H]) +
                     " at h=" + std::to_string(H) + ", claim gives " +
                     std::to_string(*Expected) + ")");
        return;
      }
    }
  } catch (const RationalOverflow &) {
    noteOverflowSkip();
    return;
  }
  Count += Checked;
}

void OracleRun::checkMemberClaims(ivclass::InductionAnalysis &IA,
                                  const analysis::DominatorTree &DT,
                                  const analysis::Loop *L,
                                  const interp::ExecutionTrace &Post,
                                  const SymbolEnv &Env) {
  // Claims about non-phi region members whose exact form was projected out
  // of an unsolvable region (the Partial flag).  A member's history aligns
  // with the iteration counter only when its block runs on every iteration,
  // so require the block to dominate the (unique) latch; iterations execute
  // in order, so the observed sequence is then exactly member(0), member(1),
  // ... whatever its length (the final header visit may or may not reach
  // the block).
  if (L->latches().size() != 1 || L->header()->phis().empty())
    return;
  const ir::BasicBlock *Latch = L->latches().front();
  if (Post.sequenceOf(L->header()->phis()[0]).size() < 2)
    return;
  const analysis::LoopInfo &LI = IA.loopInfo();
  for (ir::BasicBlock *BB : L->blocks()) {
    if (LI.loopFor(BB) != L || !DT.dominates(BB, Latch))
      continue;
    for (const ir::Instruction *I : *BB) {
      if (I->isPhi() || I->isTerminator() || I->hasSideEffects())
        continue;
      const ivclass::Classification &C = IA.classify(I, L);
      if (!C.Partial || !C.hasClosedForm())
        continue;
      const std::vector<int64_t> &Seq = Post.sequenceOf(I);
      if (Seq.empty() || exceedsClaimBound(Seq))
        continue;
      checkValues(IA, C, "partial", Result.Checks.Partial, L->name(),
                  std::string(I->name()), Seq, Env);
    }
  }
}

void OracleRun::checkMonotonic(const ivclass::Classification &C,
                               const std::string &LoopName,
                               const std::string &Name,
                               std::span<const int64_t> Seq) {
  const char *DirName =
      C.Dir == ivclass::MonotoneDir::Increasing ? "increasing" : "decreasing";
  for (size_t K = 1; K < Seq.size(); ++K) {
    int64_t Prev = Seq[K - 1], Cur = Seq[K];
    bool OK = C.Dir == ivclass::MonotoneDir::Increasing
                  ? (C.Strict ? Prev < Cur : Prev <= Cur)
                  : (C.Strict ? Prev > Cur : Prev >= Cur);
    if (!OK) {
      mismatch("monotonic", LoopName, Name,
               std::string(C.Strict ? "strictly " : "") + DirName,
               renderSeq(Seq) + " (" + std::to_string(Prev) + " -> " +
                   std::to_string(Cur) + " at h=" + std::to_string(K) + ")");
      return;
    }
  }
  ++Result.Checks.Monotonic;
}

void OracleRun::checkTripCount(ivclass::InductionAnalysis &IA,
                               const analysis::Loop *L,
                               const interp::ExecutionTrace &Post,
                               const SymbolEnv &Env) {
  const ivclass::TripCountInfo &TC = IA.tripCount(L);
  ir::Instruction *AnyPhi =
      L->header()->phis().empty() ? nullptr : L->header()->phis()[0];
  if (!AnyPhi)
    return;
  int64_t Visits = int64_t(Post.sequenceOf(AnyPhi).size());
  if (Visits == 0)
    return; // loop never entered on this run

  try {
  if (TC.isCountable()) {
    std::optional<int64_t> Count = Env.eval(TC.count());
    if (!Count)
      return;
    // The trip count is the number of stay decisions; header phis are
    // evaluated tc + 1 times.  A guarded symbolic count only holds when
    // positive (otherwise the real count is zero).
    int64_t Expected = (TC.Guarded && *Count < 0) ? 0 : *Count;
    ++Result.Checks.TripCount;
    if (Visits != Expected + 1)
      mismatch("trip-count", L->name(), "",
               TC.str(IA.namer()) + " (expecting " +
                   std::to_string(Expected + 1) + " header visits)",
               std::to_string(Visits) + " header visits");
  } else if (TC.MaxCount) {
    std::optional<int64_t> Max = Env.eval(*TC.MaxCount);
    if (!Max)
      return;
    ++Result.Checks.TripCount;
    if (Visits - 1 > *Max)
      mismatch("trip-count", L->name(), "",
               "max trip count " + std::to_string(*Max),
               std::to_string(Visits - 1) + " observed stays");
  }
  } catch (const RationalOverflow &) {
    // Symbolic counts evaluated over wrapped runtime bindings can leave
    // int64 rationals.
    noteOverflowSkip();
  }
}

void OracleRun::checkBaseline(ivclass::InductionAnalysis &IA,
                              const analysis::Loop *L) {
  baseline::ClassicalResult CR = baseline::runClassicalIV(*L);
  for (const auto &[V, IV] : CR.IVs) {
    (void)IV;
    // Compare only at L's own nesting level.  The classical phase-2 sweep
    // covers inner-loop blocks too (and exit-value materialization plants
    // per-outer-iteration recurrences there), where its per-iteration-of-L
    // view and the region-based unified classification legitimately
    // disagree in scope, not in fact.
    const auto *I = ir::dyn_cast<ir::Instruction>(V);
    if (I) {
      bool InSubloop = false;
      for (const analysis::Loop *Sub : L->subLoops())
        if (Sub->contains(I->parent())) {
          InSubloop = true;
          break;
        }
      if (InSubloop)
        continue;
    }
    ++Result.Checks.Baseline;
    const ivclass::Classification &C = IA.classify(V, L);
    if (!C.isLinear() && !C.isInvariant())
      mismatch("baseline", L->name(), std::string(V->name()),
               "unified analysis subsumes classical IVs",
               std::string("classical found a linear IV, unified says ") +
                   ivclass::ivKindName(C.Kind));
  }
}

} // namespace

OracleResult biv::fuzz::checkProgram(const std::string &Source,
                                     const OracleOptions &Opts) {
  static const stats::Timer OraclePhase("phase.oracle");
  static const stats::Counter NumPrograms("fuzz.programs_checked");
  static const stats::Counter NumMismatches("fuzz.mismatches");
  static const stats::Counter FireClosedForm("fuzz.check.closed_form");
  static const stats::Counter FireCFinite("fuzz.check.cfinite");
  static const stats::Counter FirePartial("fuzz.check.partial");
  static const stats::Counter FireWrapAround("fuzz.check.wrap_around");
  static const stats::Counter FirePeriodic("fuzz.check.periodic");
  static const stats::Counter FireMonotonic("fuzz.check.monotonic");
  static const stats::Counter FirePhasePeriodic("fuzz.check.phase_periodic");
  static const stats::Counter FireTripCount("fuzz.check.trip_count");
  static const stats::Counter FireBehavior("fuzz.check.behavior");
  static const stats::Counter FireBaseline("fuzz.check.baseline");
  stats::ScopedSpan Span(OraclePhase);
  OracleResult R = OracleRun(Source, Opts).run();
  NumPrograms.bump();
  NumMismatches.bump(R.Mismatches.size());
  FireClosedForm.bump(R.Checks.ClosedForm);
  FireCFinite.bump(R.Checks.CFinite);
  FirePartial.bump(R.Checks.Partial);
  FireWrapAround.bump(R.Checks.WrapAround);
  FirePeriodic.bump(R.Checks.Periodic);
  FireMonotonic.bump(R.Checks.Monotonic);
  FirePhasePeriodic.bump(R.Checks.PhasePeriodic);
  FireTripCount.bump(R.Checks.TripCount);
  FireBehavior.bump(R.Checks.Behavior);
  FireBaseline.bump(R.Checks.Baseline);
  return R;
}
