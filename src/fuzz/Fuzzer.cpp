//===- fuzz/Fuzzer.cpp - Differential fuzzing campaign driver -----------------===//

#include "fuzz/Fuzzer.h"
#include "cache/AnalysisCache.h"
#include "driver/BatchAnalyzer.h"
#include "driver/ThreadPool.h"
#include "fuzz/Minimizer.h"
#include "support/Lcg.h"
#include "support/Stats.h"
#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>

using namespace biv;
using namespace biv::fuzz;

namespace {

/// The minimizer predicate: a candidate still fails when it parses and the
/// oracle reports at least one mismatch of the same category as the
/// original finding (so minimization cannot drift onto an unrelated
/// failure, e.g. an execution fault introduced by dropping an initializer).
bool stillFails(const std::string &Candidate, const OracleOptions &Opts,
                const std::string &Category) {
  OracleResult R = checkProgram(Candidate, Opts);
  if (!R.ParseOK)
    return false;
  for (const Mismatch &M : R.Mismatches)
    if (M.Check == Category)
      return true;
  return false;
}

/// Cache oracle over \p Corpus: a run that populates an in-memory cache and
/// a run served entirely from it must both render exactly like a run with
/// no cache at all.  On divergence fills \p Detail and returns false.
bool cacheColdWarmIdentical(const std::vector<driver::SourceInput> &Corpus,
                            bool Summarize, std::string &Detail) {
  driver::BatchOptions BO;
  BO.Report.AllValues = true;
  BO.Summarize = Summarize;
  std::string Plain = driver::analyzeBatch(Corpus, BO).renderText();
  cache::AnalysisCache Cache; // in-memory: never opened, never saved
  BO.Cache = &Cache;
  std::string Cold = driver::analyzeBatch(Corpus, BO).renderText();
  std::string Warm = driver::analyzeBatch(Corpus, BO).renderText();
  if (Plain != Cold) {
    Detail = "cold-cache report differs from no-cache report";
    return false;
  }
  if (Cold != Warm) {
    Detail = "warm-cache report differs from cold-cache report";
    return false;
  }
  return true;
}

/// One program's check, waiting for its in-order commit.
struct Checked {
  OracleResult R;
  /// The per-program cache oracle ran; CacheDiffers when its reports
  /// diverged (R.Mismatches then carries a "cache" finding).
  bool CacheRan = false;
  bool CacheDiffers = false;
  /// Pooled schedule only: the stats the check left on its worker's frame.
  stats::Frame StatsDelta;
};

/// The check of one program: the interpreter oracle, then the per-program
/// cache oracle on the sampled subset.  Both schedules run this function.
Checked checkOne(const driver::SourceInput &Program, uint64_t ProgramSeed,
                 const FuzzOptions &Opts) {
  Checked C;
  OracleOptions OO = Opts.Oracle;
  OO.ArraySeed = ProgramSeed;
  C.R = checkProgram(Program.Text, OO);

  // Randomly flip the cache on for ~1/8 of programs (always with
  // --cache-oracle): cold and warm runs through an in-memory cache must
  // be byte-identical to a cache-free run.  The flip derives from the
  // program seed, so a failure replays from (Seed, i) like any other.
  if (C.R.ParseOK &&
      (Opts.CacheOracleAlways || ((ProgramSeed >> 4) & 7) == 0)) {
    C.CacheRan = true;
    std::string Detail;
    if (!cacheColdWarmIdentical({Program}, Opts.Oracle.Summarize, Detail)) {
      C.CacheDiffers = true;
      Mismatch M;
      M.Check = "cache";
      M.Claim = "cache hit reproduces the analysis byte-for-byte";
      M.Observed = Detail;
      C.R.Mismatches.push_back(std::move(M));
    }
  }
  return C;
}

/// Adds one program's check to \p Result; programs commit in index order.
/// Returns false once the campaign has reached Opts.MaxFailures.
bool commit(FuzzResult &Result, Checked &C, uint64_t ProgramSeed,
            const std::string &Source, const FuzzOptions &Opts) {
  ++Result.Programs;
  Result.Checks += C.R.Checks;
  if (C.CacheRan) {
    ++Result.CacheOracleRuns;
    Result.CacheChecked = true;
    if (C.CacheDiffers)
      Result.CacheDeterministic = false;
  }
  if (C.R.clean())
    return true;

  FuzzFailure F;
  F.ProgramSeed = ProgramSeed;
  F.Source = Source;
  if (!C.R.ParseOK) {
    // The generator must only emit frontend-clean programs; surface a
    // rejection as a failure of the fuzzer itself.
    Mismatch M;
    M.Check = "generator";
    M.Claim = "generated program parses and lowers";
    M.Observed = C.R.FrontendErrors.empty() ? std::string("rejected")
                                            : C.R.FrontendErrors.front();
    F.Mismatches.push_back(std::move(M));
  } else {
    F.Mismatches = std::move(C.R.Mismatches);
  }
  Result.Failures.push_back(std::move(F));
  return Result.Failures.size() < Opts.MaxFailures;
}

/// Shrinks \p F's program while the oracle still reports a mismatch of the
/// category it first failed with.
void minimize(FuzzFailure &F, const FuzzOptions &Opts) {
  // Generator rejections do not parse, and "cache" findings cannot drive
  // the minimizer (its predicate replays the interpreter oracle, which
  // knows nothing of the cache).
  const std::string Category = F.Mismatches.front().Check;
  if (Category == "generator" || Category == "cache")
    return;
  OracleOptions OO = Opts.Oracle;
  OO.ArraySeed = F.ProgramSeed;
  MinimizeResult MR = minimizeProgram(F.Source, [&](const std::string &C) {
    return stillFails(C, OO, Category);
  });
  F.MinimizedSource = MR.Source;
  F.MinimizedStatements = MR.Statements;
  F.MinimizedMismatches = checkProgram(MR.Source, OO).Mismatches;
}

} // namespace

FuzzResult biv::fuzz::runFuzz(const FuzzOptions &Opts) {
  // Every program is generated up front, so the -j1 reference below can
  // render the corpus while the programs are being checked.
  std::vector<uint64_t> Seeds;
  std::vector<driver::SourceInput> Corpus;
  Seeds.reserve(Opts.Count);
  Corpus.reserve(Opts.Count);
  Lcg SeedStream(Opts.Seed);
  for (unsigned I = 0; I < Opts.Count; ++I) {
    Seeds.push_back(SeedStream.next());
    Corpus.push_back(
        {"fuzz" + std::to_string(I), generateProgram(Seeds.back(), Opts.Gen)});
  }

  FuzzResult Result;
  // Structural diff: the batch driver must render the fuzzed corpus
  // byte-identically no matter how many workers analyze it.
  const bool BatchDiff = Opts.BatchJobs > 1 && !Corpus.empty();
  driver::BatchOptions BO;
  BO.Report.AllValues = true;
  BO.Summarize = Opts.Oracle.Summarize;
  BO.Jobs = 1;
  std::string Serial;

  if (!BatchDiff) {
    // Serial schedule: each check runs on the calling thread, so its stats
    // land in the caller's frame directly.
    for (unsigned I = 0; I < Opts.Count; ++I) {
      Checked C = checkOne(Corpus[I], Seeds[I], Opts);
      if (!commit(Result, C, Seeds[I], Corpus[I].Text, Opts))
        break;
    }
  } else {
    // Pooled schedule: BatchJobs workers take programs in index order and
    // commit them in program order, so a check waits for commit only
    // behind the few programs still running before it.  A worker's stats
    // go to its own frame; each committed program's delta is folded, and
    // the sum joins the caller's frame once the pool has drained.  Checks
    // of programs past a MaxFailures stop are dropped, stats included.
    std::mutex CommitM; // guards Result, Waiting, NextCommit and Folded
    std::vector<std::unique_ptr<Checked>> Waiting(Opts.Count);
    unsigned NextCommit = 0;
    stats::Frame Folded;
    std::atomic<unsigned> NextProgram{0};
    std::atomic<bool> Stopped{false};
    auto Work = [&] {
      while (!Stopped) {
        unsigned I = NextProgram++;
        if (I >= Opts.Count)
          return;
        stats::Frame Before = stats::captureFrame();
        auto C = std::make_unique<Checked>(checkOne(Corpus[I], Seeds[I], Opts));
        C->StatsDelta = stats::captureFrame() - Before;
        std::lock_guard<std::mutex> L(CommitM);
        Waiting[I] = std::move(C);
        while (!Stopped && NextCommit < Opts.Count && Waiting[NextCommit]) {
          std::unique_ptr<Checked> D = std::move(Waiting[NextCommit]);
          Folded += D->StatsDelta;
          if (!commit(Result, *D, Seeds[NextCommit], Corpus[NextCommit].Text,
                      Opts))
            Stopped = true;
          ++NextCommit;
        }
      }
    };
    driver::ThreadPool Pool(Opts.BatchJobs);
    for (unsigned W = 0; W < Pool.threadCount(); ++W)
      Pool.submit(Work);

    // The -j1 reference renders on this thread beside the checks.
    stats::Frame BeforeSerial = stats::captureFrame();
    Serial = driver::analyzeBatch(Corpus, BO).renderText();
    Pool.wait();
    if (Result.Programs < Corpus.size()) {
      // A stop cut the corpus: drop the reference's stats and render the
      // committed prefix instead.  Only failing campaigns pay for this.
      stats::threadFrame() = BeforeSerial;
      Corpus.resize(Result.Programs);
      Serial = driver::analyzeBatch(Corpus, BO).renderText();
    }
    stats::threadFrame() += Folded;
  }

  if (Opts.Minimize)
    for (FuzzFailure &F : Result.Failures)
      minimize(F, Opts);

  if (BatchDiff) {
    BO.Jobs = Opts.BatchJobs;
    std::string Parallel = driver::analyzeBatch(Corpus, BO).renderText();
    Result.BatchChecked = true;
    Result.BatchDeterministic = Serial == Parallel;

    // Corpus-level cache oracle under concurrency: prime an in-memory
    // cache with half the corpus, then run the whole corpus twice with
    // -jN workers probing it.  The mixed hit/miss run and the fully warm
    // run must both match the cache-free rendering above.
    cache::AnalysisCache Cache;
    BO.Cache = &Cache;
    std::vector<driver::SourceInput> Prefix(
        Corpus.begin(), Corpus.begin() + Corpus.size() / 2);
    if (!Prefix.empty())
      driver::analyzeBatch(Prefix, BO);
    std::string Mixed = driver::analyzeBatch(Corpus, BO).renderText();
    std::string Warm = driver::analyzeBatch(Corpus, BO).renderText();
    Result.CacheChecked = true;
    if (Mixed != Parallel || Warm != Parallel)
      Result.CacheDeterministic = false;
  }
  return Result;
}

std::string FuzzResult::renderText() const {
  std::ostringstream OS;
  OS << "fuzz: " << Programs << " program(s), " << Checks.total()
     << " claims checked (closed-form " << Checks.ClosedForm
     << ", cfinite " << Checks.CFinite << ", partial " << Checks.Partial
     << ", wrap-around " << Checks.WrapAround << ", periodic "
     << Checks.Periodic << ", monotonic " << Checks.Monotonic
     << ", phase-periodic " << Checks.PhasePeriodic
     << ", trip-count " << Checks.TripCount << ", behavior "
     << Checks.Behavior << ", baseline " << Checks.Baseline << ")\n";
  if (BatchChecked)
    OS << "fuzz: batch -j1 vs -jN report "
       << (BatchDeterministic ? "byte-identical" : "DIFFERS") << "\n";
  if (CacheChecked)
    OS << "fuzz: cache cold/warm reports "
       << (CacheDeterministic ? "byte-identical" : "DIFFER") << " ("
       << CacheOracleRuns << " per-program oracle run(s))\n";

  for (size_t K = 0; K < Failures.size(); ++K) {
    const FuzzFailure &F = Failures[K];
    OS << "\n=== failure " << K + 1 << " (seed " << F.ProgramSeed
       << ") ===\n";
    for (const Mismatch &M : F.Mismatches)
      OS << "  " << M.str() << "\n";
    if (!F.MinimizedSource.empty()) {
      OS << "  minimized to " << F.MinimizedStatements
         << " statement(s):\n";
      std::istringstream In(F.MinimizedSource);
      std::string Line;
      while (std::getline(In, Line))
        OS << "    | " << Line << "\n";
      for (const Mismatch &M : F.MinimizedMismatches)
        OS << "  " << M.str() << "\n";
    } else {
      std::istringstream In(F.Source);
      std::string Line;
      while (std::getline(In, Line))
        OS << "    | " << Line << "\n";
    }
  }
  OS << (ok() ? "fuzz: OK\n" : "fuzz: FAILURES FOUND\n");
  return OS.str();
}
