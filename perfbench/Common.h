//===- perfbench/Common.h - Shared benchmark plumbing -----------*- C++ -*-===//
//
// Part of the BeyondIV benchmark: metric records, clocks, robust statistics,
// stats-snapshot helpers, the in-memory span tracer, and the per-thread heap
// allocation counter.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "support/Stats.h"
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line settings of one benchmark run.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Directory the traced run writes its span file into.
  std::string OutDir;
  /// Source revision handed in by the launcher (the git revision, or
  /// "unknown" outside a git checkout), recorded with every result.
  std::string Revision;
  /// Worker / client count: the machine's usable CPU count.
  unsigned Jobs = 1;
  /// Set up once, print the seconds it took, and stop.
  bool SetupOnly = false;
};

/// Everything one run reports.  Metric values are keyed by the names the
/// benchmark manifest lists; a per-layer metric a workload never touches
/// stays absent and is reported as 0.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> EndToEnd;
  std::map<std::string, double> PerLayer;
  /// Human-readable lines printed ahead of the JSON result.
  std::vector<std::string> Lines;
  /// Untimed work to do between timed rounds (cold setup samples).
  std::function<void()> BetweenRounds;

  /// Records a failed output check: the run stays reportable but is no
  /// longer correct, and the benchmark exits non-zero.
  void check(bool Ok, const std::string &What);
  /// Records peak_rss_mb once the workload has done a fixed amount of work
  /// (later calls keep the first reading).  Fragmentation creeps up with
  /// every extra round, so a peak read at the end of the window would grow
  /// with speed rather than with memory use.
  void notePeakRss();
  void line(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Workloads call this between timed rounds.
  void betweenRounds() {
    if (BetweenRounds)
      BetweenRounds();
  }
};

/// The end-to-end metrics every workload reports, with their units.
struct MetricSpec {
  const char *Name;
  const char *Unit;
};
extern const std::vector<MetricSpec> EndToEndMetrics;
extern const std::vector<MetricSpec> PerLayerMetrics;

//===----------------------------------------------------------------------===//
// Clocks and statistics
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count());
}

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Median of \p V (0 for an empty vector).
double median(std::vector<double> V);

/// Nearest-rank quantile of \p V, \p Q in [0, 1] (0 for an empty vector).
double quantile(std::vector<double> V, double Q);

/// The wall time a throughput is computed from: the 10th percentile of a
/// run's repeated passes over the same input.  On a shared machine,
/// interference only ever slows a pass and its level drifts over tens of
/// seconds, so the fast end of the distribution repeats from run to run far
/// better than the median does.
inline double steadyTime(const std::vector<double> &Walls) {
  return quantile(Walls, 0.1);
}

/// Peak resident set size of this process, in MiB.
double peakRssMiB();

/// Usable CPUs (the affinity mask, like `nproc`).
unsigned usableCpus();

//===----------------------------------------------------------------------===//
// Stats-snapshot helpers (name-based, so cell layout changes do not matter)
//===----------------------------------------------------------------------===//

uint64_t counter(const biv::stats::StatsSnapshot &S, const char *Name);
uint64_t timerNs(const biv::stats::StatsSnapshot &S, const char *Name);
uint64_t timerSpans(const biv::stats::StatsSnapshot &S, const char *Name);

/// `After - Before`, cell by cell (histogram buckets included).
biv::stats::StatsSnapshot delta(const biv::stats::StatsSnapshot &After,
                                const biv::stats::StatsSnapshot &Before);

/// Header-phi verdicts the analysis gave up on, over all verdicts:
/// `ivclass.punt / sum(ivclass.kind.*)`.
double puntRate(const biv::stats::StatsSnapshot &S);

/// The pipeline's top-level phase timers (the per-unit breakdown shown for
/// slow units and summed for busy time).
extern const std::vector<const char *> TopPhases;

//===----------------------------------------------------------------------===//
// Heap-allocation counter
//===----------------------------------------------------------------------===//

/// `operator new` calls made by the calling thread so far.  The benchmark
/// binary replaces the global allocation functions to count them; the cell
/// is thread-local so the count never contends between workers.
uint64_t threadHeapAllocs();

//===----------------------------------------------------------------------===//
// Span tracer
//===----------------------------------------------------------------------===//

/// One closed span.  Ids start at 1; Parent 0 means a root span.
struct SpanRecord {
  const char *Name;
  uint64_t StartNs;
  uint64_t EndNs;
  uint32_t Id;
  uint32_t Parent;
  /// The unit, program or request the span belongs to.
  uint64_t Tag;
};

/// In-memory span store.  Spans are recorded only while enabled and are
/// written out once, when the run ends.
class Tracer {
public:
  static Tracer &get();

  void setEnabled(bool On) { Enabled.store(On); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Opens a span; its parent is the innermost open span of the calling
  /// thread unless \p Parent names one explicitly.
  uint32_t open(const char *Name, uint64_t Tag, uint32_t Parent);
  void close(uint32_t Id);

  /// Per-name count, inclusive time and self time (inclusive time minus
  /// the time covered by child spans).
  struct NameSummary {
    uint64_t Count = 0;
    uint64_t TotalNs = 0;
    uint64_t SelfNs = 0;
  };
  std::map<std::string, NameSummary> summarize() const;

  /// Sum of the inclusive durations of spans named \p Name.
  uint64_t totalNs(const char *Name) const;

  /// Writes every span plus \p Extra (a JSON object body) to \p Path.
  bool write(const std::string &Path, const std::string &Extra) const;

private:
  std::atomic<bool> Enabled{false};
  mutable std::mutex M;
  std::vector<SpanRecord> Spans;
};

/// RAII span; a no-op while tracing is disabled.
class Span {
public:
  Span(const char *Name, uint64_t Tag = 0, uint32_t Parent = 0)
      : Id(Tracer::get().enabled() ? Tracer::get().open(Name, Tag, Parent)
                                   : 0) {}
  ~Span() {
    if (Id)
      Tracer::get().close(Id);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  uint32_t id() const { return Id; }

private:
  uint32_t Id;
};

/// A per-unit phase breakdown for the slowest-units table.
struct UnitCost {
  std::string Name;
  biv::stats::StatsSnapshot Stats;
};

/// Prints (and returns as JSON) the \p N units with the largest
/// `phase.classify` time, each with its top-level phase breakdown.
std::string reportSlowest(RunResult &R, std::vector<UnitCost> Units,
                          size_t N);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
