//===- perfbench/FuzzWorkload.cpp - The `fuzz-summarize` workload ---------===//
//
// `bivc --fuzz 100 --seed 1 --summarize`: a differential campaign with
// multi-branch summarization on and minimization off, run whole (runFuzz
// with BatchJobs = N: the generate + oracle loop plus the corpus-level
// -j1/-jN and cache diffs) and as the oracle loop alone (BatchJobs = 1).
// Throughput is the campaign size over the steady (10th-percentile) wall
// time of the run's repetitions.
//
// The program set is fixed; --seed does not change it.  About 1% of
// generated programs cost the summarizer up to ~1000x the median and
// dominate a campaign, so a campaign's cost depends on exactly which
// programs it draws: across seeds, 400-program campaigns vary by 2.5x, far
// beyond what a run of this length can average out.
//
// The traced run replays the campaign step by step -- generateProgram,
// checkProgram, the per-program cache oracle and the corpus analyzeBatch
// diffs -- because runFuzz itself drops the stats of work done on its pool
// threads.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Workloads.h"
#include "cache/AnalysisCache.h"
#include "fuzz/Fuzzer.h"
#include <algorithm>
#include <stdexcept>

using namespace biv;
using namespace perfbench;

namespace {

constexpr uint64_t FullSeed = 1;
constexpr unsigned FullPrograms = 100;
/// Share of the measuring time spent on oracle-only campaigns.
constexpr double OracleShare = 0.35;
/// Digest bits of the campaign's batch diffs (RunSCCP | Classify |
/// AllValues | NestedTuples | Summarize).
constexpr uint64_t FuzzBits = 1 | 4 | 8 | 16 | 32;

fuzz::FuzzOptions campaignOptions(uint64_t Seed, unsigned Count,
                                  unsigned BatchJobs) {
  fuzz::FuzzOptions FO;
  FO.Count = Count;
  FO.Seed = Seed;
  FO.Minimize = false;
  FO.BatchJobs = BatchJobs;
  FO.Oracle.Summarize = true;
  return FO;
}

class FuzzWorkload : public Workload {
public:
  explicit FuzzWorkload(const RunConfig &C) : Cfg(C) {}

  void setup() override {
    // runFuzz generates its own inputs, so duplicates among the fixed
    // campaign's programs are counted rather than removed.
    UniqueCorpus C(FuzzBits);
    Lcg S(FullSeed);
    for (unsigned I = 0; I < FullPrograms; ++I)
      C.add("fuzz" + std::to_string(I),
            fuzz::generateProgram(S.next(), fuzz::GenOptions()));
    Distinct = C.Units.size();
    fuzz::FuzzResult Warm =
        fuzz::runFuzz(campaignOptions(FullSeed, 4, Cfg.Jobs));
    if (!Warm.ok())
      throw std::runtime_error("warm-up campaign failed");
  }

  void run(RunResult &R) override;
  std::string traceExtra() const override {
    return "\"slowest_units\": " + Slowest;
  }

private:
  /// Runs the campaign once, checks it, and returns its wall time.
  double campaign(RunResult &R, unsigned BatchJobs) {
    Clock::time_point T0 = Clock::now();
    fuzz::FuzzResult F =
        fuzz::runFuzz(campaignOptions(FullSeed, FullPrograms, BatchJobs));
    double Wall = secondsSince(T0);
    R.Attempted += FullPrograms;
    R.Failed += F.Failures.size() + (F.ok() ? 0 : 1);
    R.check(F.ok() && F.Programs == FullPrograms,
            "fuzz campaign is clean (BatchJobs=" + std::to_string(BatchJobs) +
                ")");
    R.check(BatchJobs == 1 || F.BatchChecked,
            "campaign diffs batch -j1 against -jN");
    return Wall;
  }

  void tracedReplay(RunResult &R, double UntracedS);

  RunConfig Cfg;
  size_t Distinct = 0;
  std::string Slowest = "[]";
};

void FuzzWorkload::run(RunResult &R) {
  const double Budget = Cfg.Trace ? Cfg.Seconds / 2 : Cfg.Seconds;
  std::vector<double> Oracle, Full;
  double OracleS = 0.0, FullS = 0.0;
  // The -j1 corpus pass runs on this thread, so the thread's frame delta
  // over one full campaign carries the corpus's classification verdicts.
  stats::StatsSnapshot FullStats;
  // Both kinds interleave, so each sees the whole window's machine state.
  Clock::time_point T0 = Clock::now();
  while (Full.size() < 2 || Oracle.size() < 3 || secondsSince(T0) < Budget) {
    R.betweenRounds();
    if (OracleS < OracleShare * (OracleS + FullS)) {
      Oracle.push_back(campaign(R, 1));
      OracleS += Oracle.back();
      continue;
    }
    stats::Frame Before = stats::captureFrame();
    Full.push_back(campaign(R, Cfg.Jobs));
    FullS += Full.back();
    if (Full.size() == 1) {
      FullStats = stats::snapshotFrame(stats::captureFrame() - Before);
      R.notePeakRss();
    }
  }
  double FullRate = FullPrograms / steadyTime(Full);
  double OracleRate = FullPrograms / steadyTime(Oracle);
  R.EndToEnd["throughput_per_s"] = FullRate;
  R.EndToEnd["serial_throughput_per_s"] = OracleRate;
  R.EndToEnd["punt_rate"] = puntRate(FullStats);
  R.line("fuzz: campaign of %u programs (seed %llu, %zu distinct), run %zu "
         "times with BatchJobs=%u and %zu times with BatchJobs=1",
         FullPrograms, (unsigned long long)FullSeed, Distinct, Full.size(),
         Cfg.Jobs, Oracle.size());
  R.line("fuzz_programs_per_s: %.3f programs/s (campaign median %.3f s, "
         "slowest %.3f s)",
         FullRate, median(Full), quantile(Full, 1.0));
  R.line("fuzz_oracle_programs_per_s: %.2f programs/s (BatchJobs=1, campaign "
         "median %.4f s)",
         OracleRate, median(Oracle));
  R.line("punt_rate: %.6f (ivclass.punt %llu in the full campaign)",
         puntRate(FullStats),
         (unsigned long long)counter(FullStats, "ivclass.punt"));
  if (Cfg.Trace)
    tracedReplay(R, steadyTime(Full));
}

/// What the step-by-step replay of the fixed campaign produced.
struct Replay {
  /// Frame deltas of the checkProgram calls.
  stats::StatsSnapshot Oracle;
  /// The corpus-level passes, in runFuzz's order.
  driver::BatchResult J1, JN, Primed, Mixed, Warm;
};

/// Replays runFuzz's steps for the fixed campaign one call at a time, each
/// under its own span, with the same checks.
Replay replayCampaign(RunResult &R, unsigned Jobs) {
  Replay Out;
  Span Camp("campaign", FullSeed);
  std::vector<driver::SourceInput> Corpus;
  Lcg SeedStream(FullSeed);
  for (unsigned I = 0; I < FullPrograms; ++I) {
    uint64_t ProgramSeed = SeedStream.next();
    std::string Source;
    {
      Span S("generateProgram", ProgramSeed);
      Source = fuzz::generateProgram(ProgramSeed, fuzz::GenOptions());
    }
    Corpus.push_back({"fuzz" + std::to_string(I), Source});
    fuzz::OracleOptions OO;
    OO.Summarize = true;
    OO.ArraySeed = ProgramSeed;
    stats::Frame Before = stats::captureFrame();
    fuzz::OracleResult OR;
    {
      Span S("checkProgram", ProgramSeed);
      OR = fuzz::checkProgram(Source, OO);
    }
    Out.Oracle.merge(stats::snapshotFrame(stats::captureFrame() - Before));
    R.check(OR.clean(), "traced oracle run is clean");
    // runFuzz's per-program cache oracle fires on the same program subset.
    if (OR.ParseOK && ((ProgramSeed >> 4) & 7) == 0) {
      Span S("cacheOracle", ProgramSeed);
      driver::BatchOptions BO;
      BO.Report.AllValues = true;
      BO.Summarize = true;
      std::string Plain =
          driver::analyzeBatch({Corpus.back()}, BO).renderText();
      cache::AnalysisCache Cache;
      BO.Cache = &Cache;
      std::string Cold = driver::analyzeBatch({Corpus.back()}, BO).renderText();
      std::string Warm = driver::analyzeBatch({Corpus.back()}, BO).renderText();
      R.check(Plain == Cold && Cold == Warm,
              "per-program cache oracle is byte-identical");
    }
  }

  Span Checks("corpusChecks", FullSeed);
  driver::BatchOptions BO;
  BO.Report.AllValues = true;
  BO.Summarize = true;
  auto Pass = [&](const char *Name,
                  const std::vector<driver::SourceInput> &Units) {
    Span S(Name);
    return driver::analyzeBatch(Units, BO);
  };
  Out.J1 = Pass("analyzeBatch.j1", Corpus);
  BO.Jobs = Jobs;
  Out.JN = Pass("analyzeBatch.jN", Corpus);
  std::string Reference = Out.JN.renderText();
  R.check(Out.J1.renderText() == Reference,
          "traced corpus -j1 and -jN reports are byte-identical");
  cache::AnalysisCache Cache;
  BO.Cache = &Cache;
  Out.Primed = Pass("analyzeBatch.prefix",
                    std::vector<driver::SourceInput>(
                        Corpus.begin(), Corpus.begin() + Corpus.size() / 2));
  Out.Mixed = Pass("analyzeBatch.mixed", Corpus);
  Out.Warm = Pass("analyzeBatch.warm", Corpus);
  R.check(Out.Mixed.renderText() == Reference &&
              Out.Warm.renderText() == Reference,
          "traced corpus cache diffs are byte-identical");
  return Out;
}

void FuzzWorkload::tracedReplay(RunResult &R, double UntracedS) {
  Tracer::get().setEnabled(true);
  Clock::time_point T0 = Clock::now();
  stats::Frame Base = stats::captureFrame();
  Replay Rp = replayCampaign(R, Cfg.Jobs);
  double TracedS = secondsSince(T0);
  Tracer::get().setEnabled(false);

  // Work done on this thread (oracle, per-program cache oracle, -j1 corpus
  // pass) plus the merged stats of the pool-thread corpus passes.
  stats::StatsSnapshot All;
  All.merge(stats::snapshotFrame(stats::captureFrame() - Base));
  for (const driver::BatchResult *B : {&Rp.JN, &Rp.Primed, &Rp.Mixed, &Rp.Warm})
    All.merge(stats::snapshotFrame(B->MergedStats));
  const stats::StatsSnapshot &Oracle = Rp.Oracle;
  stats::StatsSnapshot S1 = stats::snapshotFrame(Rp.J1.MergedStats);
  stats::StatsSnapshot SN = stats::snapshotFrame(Rp.JN.MergedStats);
  std::vector<UnitCost> Costs;
  double UnitMaxMs = 0.0;
  for (const driver::UnitResult &U : Rp.J1.Units) {
    Costs.push_back({U.Name, stats::snapshotFrame(U.StatsDelta)});
    UnitMaxMs =
        std::max(UnitMaxMs,
                 double(timerNs(Costs.back().Stats, "phase.summarize")) / 1e6);
  }

  // Per-instruction costs are over the -j1 corpus pass.
  const double Instrs = double(Rp.J1.TotalInstructions);
  auto PerInstr = [&](const char *Timer) {
    return double(timerNs(S1, Timer)) / Instrs;
  };
  R.PerLayer["frontend.parse_ns_per_instr"] = PerInstr("phase.parse");
  R.PerLayer["ssa.build_ns_per_instr"] = PerInstr("phase.ssa");
  R.PerLayer["ssa.sccp_ns_per_instr"] = PerInstr("phase.sccp");
  R.PerLayer["analysis.domtree_ns_per_instr"] = PerInstr("phase.domtree");
  R.PerLayer["analysis.loopinfo_ns_per_instr"] = PerInstr("phase.loopinfo");
  R.PerLayer["ivclass.classify_self_ns_per_instr"] =
      double(timerNs(S1, "phase.classify") - timerNs(S1, "phase.summarize")) /
      Instrs;
  R.PerLayer["ivclass.classify_cpu_jN_over_j1"] =
      double(timerNs(SN, "phase.classify")) /
      double(timerNs(S1, "phase.classify"));
  R.PerLayer["ivclass.sccs_visited"] =
      double(counter(S1, "ivclass.sccs_visited"));
  R.PerLayer["ivclass.summarize_ms"] =
      double(timerNs(All, "phase.summarize")) / 1e6;
  R.PerLayer["ivclass.summarize_unit_max_ms"] = UnitMaxMs;
  uint64_t Attempted = counter(S1, "ivclass.summarize.attempted");
  R.PerLayer["ivclass.summarize.proved_per_attempted"] =
      Attempted ? double(counter(S1, "ivclass.summarize.proved")) /
                      double(Attempted)
                : 0.0;
  R.PerLayer["ivclass.solver.systems"] =
      double(counter(S1, "ivclass.solver.system"));
  const double JNWallNs = double(Tracer::get().totalNs("analyzeBatch.jN"));
  R.PerLayer["driver.speedup_jN"] =
      double(Tracer::get().totalNs("analyzeBatch.j1")) / JNWallNs;
  uint64_t BusyNs = 0;
  for (const char *P : TopPhases)
    BusyNs += timerNs(SN, P);
  R.PerLayer["driver.busy_ratio"] = double(BusyNs) / (JNWallNs * Cfg.Jobs);
  uint64_t Steps = counter(All, "interp.steps");
  R.PerLayer["interp.ns_per_step"] =
      Steps ? double(timerNs(All, "phase.interp")) / double(Steps) : 0.0;
  // Summarization samples with the interpreter inside phase.classify; the
  // -j1 corpus pass over the same programs measures that share, so only the
  // oracle's own executions are subtracted as interpreter time.
  double OracleSelf = double(timerNs(Oracle, "phase.oracle"));
  for (const char *P : TopPhases)
    OracleSelf -= double(timerNs(Oracle, P));
  OracleSelf -= double(timerNs(Oracle, "phase.interp")) -
                double(timerNs(S1, "phase.interp"));
  R.PerLayer["fuzz.oracle_self_ms"] = std::max(0.0, OracleSelf) / 1e6;
  R.PerLayer["fuzz.corpus_checks_ms"] =
      double(Tracer::get().totalNs("corpusChecks")) / 1e6;
  R.PerLayer["inputs.distinct_units"] = double(Distinct);
  R.PerLayer["trace.overhead_ratio"] = TracedS / UntracedS;
  Slowest = reportSlowest(R, std::move(Costs), 5);
}

} // namespace

std::unique_ptr<Workload> perfbench::makeFuzzWorkload(const RunConfig &C) {
  return std::make_unique<FuzzWorkload>(C);
}
