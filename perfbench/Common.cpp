//===- perfbench/Common.cpp - Shared benchmark plumbing -------------------===//

#include "Common.h"
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sched.h>
#include <sys/resource.h>

using namespace biv;
using namespace perfbench;

//===----------------------------------------------------------------------===//
// Metric catalogue (mirrors BENCHMARK.json)
//===----------------------------------------------------------------------===//

const std::vector<MetricSpec> perfbench::EndToEndMetrics = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"punt_rate", "ratio"},
    {"throughput_per_s", "1/s"},
    {"serial_throughput_per_s", "1/s"},
};

const std::vector<MetricSpec> perfbench::PerLayerMetrics = {
    {"frontend.parse_ns_per_instr", "ns/instr"},
    {"ssa.build_ns_per_instr", "ns/instr"},
    {"ssa.sccp_ns_per_instr", "ns/instr"},
    {"analysis.domtree_ns_per_instr", "ns/instr"},
    {"analysis.loopinfo_ns_per_instr", "ns/instr"},
    {"ivclass.classify_self_ns_per_instr", "ns/instr"},
    {"ivclass.classify_cpu_jN_over_j1", "ratio"},
    {"ivclass.report_ns_per_unit", "ns/unit"},
    {"ivclass.heap_allocs_per_unit", "count/unit"},
    {"ivclass.sccs_visited", "count"},
    {"ivclass.summarize_ms", "ms"},
    {"ivclass.summarize_unit_max_ms", "ms"},
    {"ivclass.summarize.proved_per_attempted", "ratio"},
    {"ivclass.solver.systems", "count"},
    {"driver.speedup_jN", "ratio"},
    {"driver.busy_ratio", "ratio"},
    {"cache.hit_ratio", "ratio"},
    {"cache.probe_us", "us"},
    {"cache.file_bytes", "bytes"},
    {"server.latency_p50_us", "us"},
    {"server.latency_p99_us", "us"},
    {"server.queue_depth_p99", "count"},
    {"server.client_hit_p50_ms", "ms"},
    {"server.client_hit_p99_ms", "ms"},
    {"server.client_miss_p50_ms", "ms"},
    {"server.client_miss_p99_ms", "ms"},
    {"server.client_hit_samples", "count"},
    {"server.client_miss_samples", "count"},
    {"interp.ns_per_step", "ns/step"},
    {"fuzz.oracle_self_ms", "ms"},
    {"fuzz.corpus_checks_ms", "ms"},
    {"inputs.distinct_units", "count"},
    {"trace.overhead_ratio", "ratio"},
};

const std::vector<const char *> perfbench::TopPhases = {
    "phase.parse",    "phase.ssa",      "phase.sccp",
    "phase.domtree",  "phase.loopinfo", "phase.classify",
};

//===----------------------------------------------------------------------===//
// RunResult
//===----------------------------------------------------------------------===//

void RunResult::check(bool Ok, const std::string &What) {
  if (Ok)
    return;
  Correct = false;
  Lines.push_back("CHECK FAILED: " + What);
}

void RunResult::notePeakRss() {
  EndToEnd.emplace("peak_rss_mb", peakRssMiB());
}

void RunResult::line(const char *Fmt, ...) {
  char Buf[1024];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  Lines.push_back(Buf);
}

//===----------------------------------------------------------------------===//
// Statistics and machine facts
//===----------------------------------------------------------------------===//

double perfbench::median(std::vector<double> V) { return quantile(V, 0.5); }

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(Q * double(V.size()));
  return V[std::min(Rank, V.size() - 1)];
}

double perfbench::peakRssMiB() {
  struct rusage U;
  if (::getrusage(RUSAGE_SELF, &U) != 0)
    return 0.0;
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

unsigned perfbench::usableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (::sched_getaffinity(0, sizeof(Set), &Set) == 0) {
    int N = CPU_COUNT(&Set);
    if (N > 0)
      return unsigned(N);
  }
  return 1;
}

//===----------------------------------------------------------------------===//
// Stats snapshots
//===----------------------------------------------------------------------===//

uint64_t perfbench::counter(const stats::StatsSnapshot &S, const char *Name) {
  auto It = S.Counters.find(Name);
  return It == S.Counters.end() ? 0 : It->second;
}

uint64_t perfbench::timerNs(const stats::StatsSnapshot &S, const char *Name) {
  auto It = S.Timers.find(Name);
  return It == S.Timers.end() ? 0 : It->second.Ns;
}

uint64_t perfbench::timerSpans(const stats::StatsSnapshot &S,
                               const char *Name) {
  auto It = S.Timers.find(Name);
  return It == S.Timers.end() ? 0 : It->second.Spans;
}

stats::StatsSnapshot perfbench::delta(const stats::StatsSnapshot &After,
                                      const stats::StatsSnapshot &Before) {
  stats::StatsSnapshot D = After;
  for (const auto &[Name, V] : Before.Counters)
    D.Counters[Name] -= V;
  for (const auto &[Name, V] : Before.Timers) {
    D.Timers[Name].Ns -= V.Ns;
    D.Timers[Name].Spans -= V.Spans;
  }
  for (const auto &[Name, V] : Before.Hists) {
    stats::HistValue &H = D.Hists[Name];
    H.Count -= V.Count;
    H.Sum -= V.Sum;
    H.Buckets.resize(std::max(H.Buckets.size(), V.Buckets.size()));
    for (size_t B = 0; B < V.Buckets.size(); ++B)
      H.Buckets[B] -= V.Buckets[B];
  }
  return D;
}

double perfbench::puntRate(const stats::StatsSnapshot &S) {
  uint64_t Verdicts = 0;
  for (const auto &[Name, V] : S.Counters)
    if (Name.rfind("ivclass.kind.", 0) == 0 && Name != "ivclass.kind.partial")
      Verdicts += V;
  return Verdicts ? double(counter(S, "ivclass.punt")) / double(Verdicts)
                  : 0.0;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {
/// Open spans of the calling thread, innermost last.
thread_local std::vector<uint32_t> OpenSpans;
} // namespace

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

uint32_t Tracer::open(const char *Name, uint64_t Tag, uint32_t Parent) {
  if (Parent == 0 && !OpenSpans.empty())
    Parent = OpenSpans.back();
  uint64_t Start = nowNs();
  uint32_t Id;
  {
    std::lock_guard<std::mutex> Lock(M);
    Id = uint32_t(Spans.size() + 1);
    Spans.push_back({Name, Start, Start, Id, Parent, Tag});
  }
  OpenSpans.push_back(Id);
  return Id;
}

void Tracer::close(uint32_t Id) {
  uint64_t End = nowNs();
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> Lock(M);
  Spans[Id - 1].EndNs = End;
}

std::map<std::string, Tracer::NameSummary> Tracer::summarize() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::vector<const SpanRecord *>> Children(Spans.size() + 1);
  for (const SpanRecord &S : Spans)
    if (S.Parent)
      Children[S.Parent].push_back(&S);
  std::map<std::string, NameSummary> Out;
  for (const SpanRecord &S : Spans) {
    // Children may run on other threads (client calls under a round) and
    // overlap, so the covered part is the union of their intervals.
    std::vector<std::pair<uint64_t, uint64_t>> Iv;
    for (const SpanRecord *C : Children[S.Id])
      Iv.push_back({std::max(C->StartNs, S.StartNs),
                    std::min(C->EndNs, S.EndNs)});
    std::sort(Iv.begin(), Iv.end());
    uint64_t Covered = 0, Reach = S.StartNs;
    for (auto [Lo, Hi] : Iv) {
      Lo = std::max(Lo, Reach);
      if (Hi > Lo) {
        Covered += Hi - Lo;
        Reach = Hi;
      }
    }
    NameSummary &N = Out[S.Name];
    uint64_t Dur = S.EndNs - S.StartNs;
    ++N.Count;
    N.TotalNs += Dur;
    N.SelfNs += Dur - std::min(Dur, Covered);
  }
  return Out;
}

uint64_t Tracer::totalNs(const char *Name) const {
  std::lock_guard<std::mutex> Lock(M);
  uint64_t Total = 0;
  for (const SpanRecord &S : Spans)
    if (std::string_view(S.Name) == Name)
      Total += S.EndNs - S.StartNs;
  return Total;
}

bool Tracer::write(const std::string &Path, const std::string &Extra) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  std::map<std::string, NameSummary> Sum = summarize();
  Out << "{" << Extra << ",\n\"summary\": {";
  bool First = true;
  for (const auto &[Name, N] : Sum) {
    Out << (First ? "\n" : ",\n") << "  \"" << Name << "\": {\"count\": "
        << N.Count << ", \"total_ns\": " << N.TotalNs
        << ", \"self_ns\": " << N.SelfNs << "}";
    First = false;
  }
  Out << "},\n\"spans\": [";
  std::lock_guard<std::mutex> Lock(M);
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    Out << (I ? ",\n" : "\n") << "[\"" << S.Name << "\", "
        << S.StartNs - Base << ", " << S.EndNs - Base << ", " << S.Id << ", "
        << S.Parent << ", " << S.Tag << "]";
  }
  Out << "]}\n";
  return bool(Out);
}

//===----------------------------------------------------------------------===//
// Slowest units
//===----------------------------------------------------------------------===//

std::string perfbench::reportSlowest(RunResult &R, std::vector<UnitCost> Units,
                                     size_t N) {
  std::sort(Units.begin(), Units.end(),
            [](const UnitCost &A, const UnitCost &B) {
              return timerNs(A.Stats, "phase.classify") >
                     timerNs(B.Stats, "phase.classify");
            });
  Units.resize(std::min(N, Units.size()));
  std::string Json = "[";
  R.line("slowest units by phase.classify (ms):");
  for (size_t I = 0; I < Units.size(); ++I) {
    const UnitCost &U = Units[I];
    std::string Text = "  " + U.Name + ":";
    Json += std::string(I ? ", " : "") + "{\"unit\": \"" + U.Name + "\"";
    std::vector<const char *> Phases = TopPhases;
    Phases.push_back("phase.summarize");
    for (const char *P : Phases) {
      double Ms = double(timerNs(U.Stats, P)) / 1e6;
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf), " %s=%.3f", P + 6, Ms);
      Text += Buf;
      std::snprintf(Buf, sizeof(Buf), ", \"%s_ms\": %.6f", P + 6, Ms);
      Json += Buf;
    }
    Json += ", \"solver_systems\": " +
            std::to_string(counter(U.Stats, "ivclass.solver.system")) + "}";
    R.Lines.push_back(Text);
  }
  return Json + "]";
}
