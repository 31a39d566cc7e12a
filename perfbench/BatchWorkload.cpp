//===- perfbench/BatchWorkload.cpp - The `batch` workload -----------------===//
//
// What `bivc --batch` users get: analyzeBatch over a corpus of distinct
// functions with reports rendered, summarization off and no cache, once at
// -j1 and once at -jN per round.  Throughput is corpus units over the steady
// (10th-percentile) pass time; both passes must render byte-identically.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Workloads.h"
#include "cache/AnalysisCache.h"
#include "fuzz/Oracle.h"
#include "ivclass/Pipeline.h"
#include "ivclass/Report.h"
#include <functional>

using namespace biv;
using namespace perfbench;

namespace {

/// Distinct functions in the corpus.
constexpr size_t CorpusUnits = 2000;
/// Untraced and traced passes of the traced run's per-unit loop.
constexpr int UnitLoopPasses = 3;
/// Corpus units re-checked by the interpreter oracle after timing.
constexpr size_t OracleUnits = 32;
/// Digest bits of `bivc --batch`'s defaults (RunSCCP | Classify |
/// NestedTuples).
constexpr uint64_t BatchBits = 1 | 4 | 16;

/// Runs a seeded sample of \p Units through fuzz::checkProgram, the
/// independent interpreter oracle; every sampled unit must come back clean.
void oracleSample(RunResult &R, const std::vector<driver::SourceInput> &Units,
                  uint64_t Seed) {
  Lcg Pick(Seed * 0x2545f4914f6cdd1dull + 5);
  for (size_t I = 0; I < OracleUnits; ++I) {
    const driver::SourceInput &U =
        Units[size_t(Pick.range(0, int64_t(Units.size()) - 1))];
    fuzz::OracleOptions OO;
    OO.ArraySeed = Pick.next();
    fuzz::OracleResult OR = fuzz::checkProgram(U.Text, OO);
    ++R.Attempted;
    R.Failed += !OR.clean();
    R.check(OR.clean(), "interpreter oracle agrees on " + U.Name +
                            (OR.Mismatches.empty()
                                 ? std::string()
                                 : ": " + OR.Mismatches.front().str()));
  }
}

struct Pass {
  double WallS = 0.0;
  driver::BatchResult Result;
  std::string Report;
};

class BatchWorkload : public Workload {
public:
  explicit BatchWorkload(const RunConfig &C) : Cfg(C) {}

  void setup() override {
    UniqueCorpus C(BatchBits);
    Lcg R(Cfg.Seed * 0x9e3779b97f4a7c15ull + 11);
    fillShapes(C, R, CorpusUnits, "u");
    Sources = std::move(C.Units);
    Duplicates = C.duplicates();
    // Warm the pool, the stats registry and the allocator before timing.
    std::vector<driver::SourceInput> Head(Sources.begin(),
                                          Sources.begin() + 64);
    analyze(Head, 1);
    analyze(Head, Cfg.Jobs);
  }

  void run(RunResult &R) override;
  std::string traceExtra() const override {
    return "\"slowest_units\": " + Slowest;
  }

private:
  Pass analyze(const std::vector<driver::SourceInput> &Units,
               unsigned Jobs) const {
    driver::BatchOptions BO;
    BO.Jobs = Jobs;
    Pass P;
    Clock::time_point T0 = Clock::now();
    P.Result = driver::analyzeBatch(Units, BO);
    P.Report = P.Result.renderText();
    P.WallS = secondsSince(T0);
    return P;
  }

  /// One round: a -j1 pass then a -jN pass over the whole corpus, checked.
  void round(RunResult &R, Pass &J1, Pass &JN) {
    {
      Span S("analyzeBatch.j1");
      J1 = analyze(Sources, 1);
    }
    {
      Span S("analyzeBatch.jN");
      JN = analyze(Sources, Cfg.Jobs);
    }
    R.Attempted += J1.Result.Units.size() + JN.Result.Units.size();
    R.Failed += J1.Result.Failed + JN.Result.Failed;
    R.check(J1.Result.Failed == 0 && JN.Result.Failed == 0,
            "every batch unit analyzes");
    if (J1.Report != JN.Report) {
      R.Failed += JN.Result.Units.size();
      R.check(false, "-j1 and -jN batch reports are byte-identical");
    }
    if (ReferenceReport.empty())
      ReferenceReport = J1.Report;
    else
      R.check(J1.Report == ReferenceReport,
              "batch report is identical in every round");
  }

  /// Rounds for \p Seconds (at least three), handing each round's passes
  /// to \p Each.
  void measure(RunResult &R, double Seconds,
               const std::function<void(const Pass &, const Pass &)> &Each) {
    Clock::time_point T0 = Clock::now();
    for (size_t N = 0; N < 3 || secondsSince(T0) < Seconds; ++N) {
      Pass J1, JN;
      round(R, J1, JN);
      Each(J1, JN);
      if (N == 2)
        R.notePeakRss();
      R.betweenRounds();
    }
  }

  /// parseSource, analyzeParsed and report over every unit, each call under
  /// its own span while tracing is on; returns the wall time.
  double unitLoop(RunResult &R) const;
  void tracedLayers(RunResult &R);

  RunConfig Cfg;
  std::vector<driver::SourceInput> Sources;
  uint64_t Duplicates = 0;
  std::string ReferenceReport;
  std::string Slowest = "[]";
};

void BatchWorkload::run(RunResult &R) {
  std::vector<double> J1Walls, JNWalls;
  stats::StatsSnapshot J1Stats;
  size_t Instrs = 0;
  measure(R, Cfg.Trace ? Cfg.Seconds / 2 : Cfg.Seconds,
          [&](const Pass &J1, const Pass &JN) {
            J1Walls.push_back(J1.WallS);
            JNWalls.push_back(JN.WallS);
            if (J1Walls.size() == 1) {
              J1Stats = stats::snapshotFrame(J1.Result.MergedStats);
              Instrs = J1.Result.TotalInstructions;
            }
          });
  const double Units = double(Sources.size());
  double J1Rate = Units / steadyTime(J1Walls);
  double JNRate = Units / steadyTime(JNWalls);

  R.EndToEnd["throughput_per_s"] = JNRate;
  R.EndToEnd["serial_throughput_per_s"] = J1Rate;
  R.EndToEnd["punt_rate"] = puntRate(J1Stats);
  R.line("batch: %zu distinct units (%llu duplicate candidates dropped), "
         "%zu instructions, %zu rounds, -j%u",
         Sources.size(), (unsigned long long)Duplicates, Instrs,
         J1Walls.size(), Cfg.Jobs);
  R.line("batch_j1_units_per_s: %.1f units/s (p10 of %zu passes; pass "
         "median %.4f s, slowest %.4f s)",
         J1Rate, J1Walls.size(), median(J1Walls), quantile(J1Walls, 1.0));
  R.line("batch_jN_units_per_s: %.1f units/s (p10 of %zu passes, N=%u; pass "
         "median %.4f s, slowest %.4f s)",
         JNRate, JNWalls.size(), Cfg.Jobs, median(JNWalls),
         quantile(JNWalls, 1.0));
  R.line("punt_rate: %.6f (ivclass.punt %llu)", puntRate(J1Stats),
         (unsigned long long)counter(J1Stats, "ivclass.punt"));
  R.line("report_digest: %016llx (%zu bytes)",
         (unsigned long long)cache::fnv1a(ReferenceReport),
         ReferenceReport.size());
  oracleSample(R, Sources, Cfg.Seed);

  if (Cfg.Trace)
    tracedLayers(R);
}

double BatchWorkload::unitLoop(RunResult &R) const {
  Clock::time_point T0 = Clock::now();
  for (size_t I = 0; I < Sources.size(); ++I) {
    Span U("unit", I);
    std::vector<std::string> Errors;
    std::optional<ivclass::AnalyzedProgram> P;
    {
      Span S("parseSource", I);
      P = ivclass::parseSource(Sources[I].Text, Errors);
    }
    R.check(P.has_value(), "unit parses: " + Sources[I].Name);
    if (!P)
      continue;
    ivclass::PipelineOptions PO;
    PO.VerifyEach = false;
    PO.Analysis.MaterializeExitValues = false;
    {
      Span S("analyzeParsed", I);
      ivclass::analyzeParsed(*P, PO);
    }
    Span S("report", I);
    ivclass::report(*P->IA, &P->Info);
  }
  return secondsSince(T0);
}

void BatchWorkload::tracedLayers(RunResult &R) {
  // Heap allocations of one whole -j1 pass; it runs on this thread.
  uint64_t Allocs0 = threadHeapAllocs();
  analyze(Sources, 1);
  R.PerLayer["ivclass.heap_allocs_per_unit"] =
      double(threadHeapAllocs() - Allocs0) / double(Sources.size());

  Tracer::get().setEnabled(true);
  std::vector<double> J1Walls, JNWalls, CpuRatio, Busy;
  stats::StatsSnapshot S1;
  double Instrs = 0.0;
  std::vector<UnitCost> Costs;
  measure(R, Cfg.Seconds / 2, [&](const Pass &J1, const Pass &JN) {
    J1Walls.push_back(J1.WallS);
    JNWalls.push_back(JN.WallS);
    stats::StatsSnapshot One = stats::snapshotFrame(J1.Result.MergedStats);
    stats::StatsSnapshot SN = stats::snapshotFrame(JN.Result.MergedStats);
    CpuRatio.push_back(double(timerNs(SN, "phase.classify")) /
                       double(timerNs(One, "phase.classify")));
    uint64_t BusyNs = 0;
    for (const char *P : TopPhases)
      BusyNs += timerNs(SN, P);
    Busy.push_back(double(BusyNs) / (1e9 * JN.WallS * double(Cfg.Jobs)));
    if (Costs.empty()) {
      S1 = One;
      Instrs = double(J1.Result.TotalInstructions);
      for (const driver::UnitResult &U : J1.Result.Units)
        Costs.push_back({U.Name, stats::snapshotFrame(U.StatsDelta)});
    }
  });

  Tracer::get().setEnabled(false);

  // The front and back halves one call at a time, so the report step gets
  // a span of its own.  The loop runs alternately without and with spans;
  // its fastest passes give trace.overhead_ratio.
  std::vector<double> Plain, Traced;
  for (int Pass = 0; Pass < 2 * UnitLoopPasses; ++Pass) {
    const bool On = Pass % 2 == 1;
    Tracer::get().setEnabled(On);
    (On ? Traced : Plain).push_back(unitLoop(R));
  }
  Tracer::get().setEnabled(false);

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
  R.PerLayer["ivclass.classify_cpu_jN_over_j1"] = median(CpuRatio);
  R.PerLayer["ivclass.report_ns_per_unit"] =
      double(Tracer::get().totalNs("report")) /
      double(Sources.size() * UnitLoopPasses);
  R.PerLayer["ivclass.sccs_visited"] =
      double(counter(S1, "ivclass.sccs_visited"));
  R.PerLayer["ivclass.solver.systems"] =
      double(counter(S1, "ivclass.solver.system"));
  R.PerLayer["driver.speedup_jN"] = steadyTime(J1Walls) / steadyTime(JNWalls);
  R.PerLayer["driver.busy_ratio"] = median(Busy);
  R.PerLayer["inputs.distinct_units"] = double(Sources.size());
  R.PerLayer["trace.overhead_ratio"] =
      quantile(Traced, 0.0) / quantile(Plain, 0.0);
  Slowest = reportSlowest(R, std::move(Costs), 5);
}

} // namespace

std::unique_ptr<Workload> perfbench::makeBatchWorkload(const RunConfig &C) {
  return std::make_unique<BatchWorkload>(C);
}
