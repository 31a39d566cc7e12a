//===- driver/BatchAnalyzer.h - Parallel batch analysis ---------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch-analysis engine behind `bivc --batch -jN`: shards a set of
/// sources (whole files, split into top-level functions) across a
/// work-stealing thread pool and runs the full pipeline -- parse, SSA, SCCP,
/// induction-variable classification -- on each unit independently.
///
/// Per-loop summarization is embarrassingly parallel across functions
/// because every unit owns its IR, dominator tree, loop nest, and analysis
/// arena outright; nothing is shared but immutable options.  Results are
/// committed into a pre-sized slot per unit and rendered in input order, so
/// the merged report is byte-identical no matter how many workers ran or how
/// the scheduler interleaved them.
///
/// analyzeUnit() is the one per-unit path: the batch driver and the
/// analysis daemon both run it, and one-shot `bivc` takes its options from
/// the same AnalysisOptions, which is what keeps report bytes and cache
/// entries identical across the three.
///
/// By default batch mode keeps InductionAnalysis side-effect-free on the IR
/// (MaterializeExitValues off) and skips re-verification, matching the
/// throughput configuration the benchmarks measure.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_DRIVER_BATCHANALYZER_H
#define BEYONDIV_DRIVER_BATCHANALYZER_H

#include "cache/AnalysisCache.h"
#include "ivclass/Pipeline.h"
#include "ivclass/Report.h"
#include "support/Stats.h"
#include <functional>
#include <string>
#include <vector>

namespace biv {
namespace driver {

/// One named source text (a file, or one function split out of a file).
struct SourceInput {
  std::string Name;
  std::string Text;
};

/// The switches that change what a unit's analysis produces.  Batch,
/// daemon and one-shot runs all hold them in this one type, and
/// toBits()/fromBits() are the only code that knows their bit positions:
/// the bits key the analysis cache and travel in daemon requests.
struct AnalysisOptions {
  /// Wegman-Zadeck constant propagation before classification.
  bool RunSCCP = true;
  /// Exit-value materialization mutates the IR; keeping it off makes run()
  /// read-only, which batch mode requires only per-unit but benches rely on.
  /// One-shot runs (and so `bivc --connect`) turn it on.
  bool MaterializeExitValues = false;
  /// Render a classification report per unit (off for pure throughput runs).
  bool Classify = true;
  /// Multi-branch loop summarization (`--summarize`): sample, conjecture,
  /// and prove per-phase closed forms for punted loops.
  bool Summarize = false;
  ivclass::ReportOptions Report;

  /// RunSCCP | MaterializeExitValues << 1 | Classify << 2 |
  /// Report.AllValues << 3 | Report.NestedTuples << 4 | Summarize << 5.
  uint64_t toBits() const;
  /// Decodes \p Bits into \p Out.  Returns false, with \p Error naming the
  /// offending bits, when a bit outside the six defined ones is set.
  static bool fromBits(uint64_t Bits, AnalysisOptions &Out,
                       std::string &Error);
  /// The pipeline switches these options select.  Post-SCCP SSA
  /// re-verification stays off: it cannot change what a unit produces.
  ivclass::PipelineOptions pipeline() const;
};

/// Batch switches: the analysis options plus scheduling and caching.
struct BatchOptions : AnalysisOptions {
  /// Worker threads; 1 analyzes serially on the calling thread, 0 picks the
  /// hardware concurrency.
  unsigned Jobs = 1;
  /// Content-addressed result cache (`bivc --batch --cache FILE`), or null
  /// to analyze every unit.  Workers probe it concurrently after parsing
  /// (lookup is const); misses are inserted by the driver thread in input
  /// order once the pool drains, so the cache file bytes are deterministic
  /// for any Jobs value.  Failed units are never cached.
  cache::AnalysisCache *Cache = nullptr;
  /// Test-only: runs at the top of every unit, before its pipeline.  Lets
  /// tests inject a throwing task and assert the batch neither deadlocks
  /// nor drops the unit silently.
  std::function<void(const SourceInput &)> PerUnitHook;
};

/// What one unit produced.
struct UnitResult {
  std::string Name;
  bool OK = false;
  std::vector<std::string> Errors;
  std::string ReportText;
  size_t Instructions = 0;
  size_t Loops = 0;
  /// Observability delta for this unit alone, filled by analyzeBatch: the
  /// worker thread's stats frame captured before and after the unit,
  /// subtracted.  Its counters are the unit's only tally of kinds and
  /// regions; the batch footer sums them.
  stats::Frame StatsDelta;
  /// On a cache miss, the entry analyzeUnit built and its digest (0 when
  /// there is nothing to insert).  analyzeUnit never inserts: each caller
  /// does, under its own policy.
  uint64_t MissDigest = 0;
  cache::CacheEntry MissEntry;
};

/// Everything a batch run produced, in input order.
struct BatchResult {
  std::vector<UnitResult> Units;
  size_t TotalInstructions = 0; ///< over OK units
  size_t TotalLoops = 0;        ///< over OK units
  unsigned Failed = 0;
  /// Program-wide stats: per-unit deltas merged in input order.  Counter
  /// values (and span counts) are independent of Jobs; only span durations
  /// vary run to run.
  stats::Frame MergedStats;

  /// Merged human-readable report: per-unit sections in input order plus a
  /// summary footer, whose kind and region counts are the OK units' counter
  /// deltas.  Deterministic across thread counts.
  std::string renderText() const;
};

/// Splits a file that may hold several top-level `func` declarations into
/// one SourceInput per function ("name:funcname").  A file without a `func`
/// keyword comes back unchanged (the parser will diagnose it).
std::vector<SourceInput> splitFunctions(const SourceInput &File);

/// Analyzes one unit's source text: parse; with \p Cache, digest the
/// canonical IR under Opts.toBits() and probe, and on a miss probe once more
/// after adopting what other processes saved to the cache file; then
/// analyze, count header-phi kinds, and render the report.  A hit replays
/// the entry's counters instead.  Parse errors come back in Errors;
/// exceptions propagate to the caller.
UnitResult analyzeUnit(const std::string &Source, const AnalysisOptions &Opts,
                       cache::AnalysisCache *Cache);

/// Analyzes every unit of \p Sources (files are split into functions first)
/// with \p Opts.Jobs workers.
BatchResult analyzeBatch(const std::vector<SourceInput> &Sources,
                         const BatchOptions &Opts = BatchOptions());

} // namespace driver
} // namespace biv

#endif // BEYONDIV_DRIVER_BATCHANALYZER_H
