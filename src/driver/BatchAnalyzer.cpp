//===- driver/BatchAnalyzer.cpp - Parallel batch analysis ----------------------===//

#include "driver/BatchAnalyzer.h"
#include "driver/ThreadPool.h"
#include "ir/Printer.h"
#include <cctype>
#include <cstdio>

using namespace biv;
using namespace biv::driver;

//===----------------------------------------------------------------------===//
// Analysis options
//===----------------------------------------------------------------------===//

namespace {
// Cache digests and daemon requests carry these bits, so a defined bit
// never changes meaning.
constexpr uint64_t RunSCCPBit = 1 << 0;
constexpr uint64_t MaterializeBit = 1 << 1;
constexpr uint64_t ClassifyBit = 1 << 2;
constexpr uint64_t AllValuesBit = 1 << 3;
constexpr uint64_t NestedTuplesBit = 1 << 4;
constexpr uint64_t SummarizeBit = 1 << 5;
constexpr uint64_t DefinedBits = (1 << 6) - 1;
} // namespace

uint64_t AnalysisOptions::toBits() const {
  return (RunSCCP ? RunSCCPBit : 0) |
         (MaterializeExitValues ? MaterializeBit : 0) |
         (Classify ? ClassifyBit : 0) |
         (Report.AllValues ? AllValuesBit : 0) |
         (Report.NestedTuples ? NestedTuplesBit : 0) |
         (Summarize ? SummarizeBit : 0);
}

bool AnalysisOptions::fromBits(uint64_t Bits, AnalysisOptions &Out,
                               std::string &Error) {
  if (uint64_t Unknown = Bits & ~DefinedBits) {
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), "unknown option bits 0x%llx",
                  static_cast<unsigned long long>(Unknown));
    Error = Buf;
    return false;
  }
  Out.RunSCCP = Bits & RunSCCPBit;
  Out.MaterializeExitValues = Bits & MaterializeBit;
  Out.Classify = Bits & ClassifyBit;
  Out.Report.AllValues = Bits & AllValuesBit;
  Out.Report.NestedTuples = Bits & NestedTuplesBit;
  Out.Summarize = Bits & SummarizeBit;
  return true;
}

ivclass::PipelineOptions AnalysisOptions::pipeline() const {
  ivclass::PipelineOptions PO;
  PO.RunSCCP = RunSCCP;
  PO.VerifyEach = false;
  PO.Analysis.MaterializeExitValues = MaterializeExitValues;
  PO.Analysis.Summarize = Summarize;
  return PO;
}

//===----------------------------------------------------------------------===//
// Function splitting
//===----------------------------------------------------------------------===//

std::vector<SourceInput>
biv::driver::splitFunctions(const SourceInput &File) {
  const std::string &T = File.Text;
  std::vector<SourceInput> Units;
  size_t UnitStart = std::string::npos;
  std::string UnitName;

  auto flush = [&](size_t End) {
    if (UnitStart == std::string::npos)
      return;
    Units.push_back({File.Name + ":" + UnitName,
                     T.substr(UnitStart, End - UnitStart)});
    UnitStart = std::string::npos;
  };

  int Depth = 0;
  for (size_t I = 0; I < T.size(); ++I) {
    char C = T[I];
    if (C == '#') { // comment to end of line
      while (I < T.size() && T[I] != '\n')
        ++I;
      continue;
    }
    if (C == '{') {
      ++Depth;
      continue;
    }
    if (C == '}') {
      --Depth;
      continue;
    }
    // A top-level `func` keyword starts the next unit.
    if (Depth == 0 && C == 'f' && T.compare(I, 4, "func") == 0 &&
        (I == 0 || (!std::isalnum(unsigned(T[I - 1])) && T[I - 1] != '_')) &&
        I + 4 < T.size() && std::isspace(unsigned(T[I + 4]))) {
      flush(I);
      UnitStart = I;
      size_t P = I + 4;
      while (P < T.size() && std::isspace(unsigned(T[P])))
        ++P;
      UnitName.clear();
      while (P < T.size() &&
             (std::isalnum(unsigned(T[P])) || T[P] == '_'))
        UnitName += T[P++];
      I += 3;
    }
  }
  flush(T.size());

  if (Units.empty())
    return {File}; // no `func` at all; let the parser diagnose it
  if (Units.size() == 1)
    Units.front().Name = File.Name; // common case: one function per file
  return Units;
}

//===----------------------------------------------------------------------===//
// Unit analysis
//===----------------------------------------------------------------------===//

UnitResult biv::driver::analyzeUnit(const std::string &Source,
                                    const AnalysisOptions &Opts,
                                    cache::AnalysisCache *Cache) {
  static const stats::Counter NumHits("cache.hit");
  static const stats::Counter NumMisses("cache.miss");
  static const stats::Counter NumBytes("cache.bytes");
  static const stats::Timer CacheTimer("phase.cache");

  UnitResult U;
  std::optional<ivclass::AnalyzedProgram> P =
      ivclass::parseSource(Source, U.Errors);
  if (!P)
    return U;

  uint64_t Digest = 0;
  stats::Frame PostProbe;
  if (Cache) {
    const cache::CacheEntry *CE = nullptr;
    {
      stats::ScopedSpan Span(CacheTimer);
      Digest = cache::unitDigest(ir::toString(*P->F), Opts.toBits());
      CE = Cache->lookup(Digest);
      if (!CE && Cache->refreshIfChanged())
        // Another process (a fleet sibling, a concurrent batch run) may
        // have saved this digest since our view was mapped; one cheap stat
        // per miss buys cross-process warmth.
        CE = Cache->lookup(Digest);
    }
    if (CE) {
      NumHits.bump();
      NumBytes.bump(CE->ReportText.size());
      // Replay the stored unit's analysis-phase counters so merged
      // counters stay corpus-shaped on a warm run.  Timers are *not*
      // replayed: phase spans must reflect work that actually ran
      // (that is how --stats-json proves the skip).
      for (const auto &[Name, V] : CE->Counters)
        stats::bumpNamedCounter(Name, V);
      U.OK = true;
      U.ReportText = CE->ReportText;
      U.Instructions = size_t(CE->Instructions);
      U.Loops = size_t(CE->Loops);
      return U;
    }
    NumMisses.bump();
    // Capture after parse + probe: the entry stores only analysis-phase
    // counter deltas, because a hit still parses (to hash) and those
    // frontend counters fire live.
    PostProbe = stats::captureFrame();
  }

  ivclass::analyzeParsed(*P, Opts.pipeline());
  ivclass::countHeaderPhiKinds(*P->IA);
  U.OK = true;
  U.Instructions = P->F->instructionCount();
  U.Loops = P->LI->loops().size();
  if (Opts.Classify)
    U.ReportText = ivclass::report(*P->IA, &P->Info, Opts.Report);
  if (Cache) {
    U.MissDigest = Digest;
    U.MissEntry.ReportText = U.ReportText;
    U.MissEntry.Instructions = U.Instructions;
    U.MissEntry.Loops = U.Loops;
    U.MissEntry.Counters =
        stats::snapshotFrame(stats::captureFrame() - PostProbe).Counters;
  }
  return U;
}

//===----------------------------------------------------------------------===//
// Batch driver
//===----------------------------------------------------------------------===//

BatchResult biv::driver::analyzeBatch(const std::vector<SourceInput> &Sources,
                                      const BatchOptions &Opts) {
  // Shard: files -> functions.  Each function is one unit of work.
  std::vector<SourceInput> Units;
  Units.reserve(Sources.size());
  for (const SourceInput &S : Sources)
    for (SourceInput &U : splitFunctions(S))
      Units.push_back(std::move(U));

  BatchResult R;
  R.Units.resize(Units.size());

  // Each unit owns its whole pipeline; slots are disjoint, so workers never
  // contend on anything but the queue.
  auto runUnit = [&](size_t I) {
    UnitResult &U = R.Units[I];
    // Delta the worker thread's stats frame around this unit so the batch
    // can merge per-unit contributions in input order, independent of which
    // thread ran what.
    stats::Frame Before = stats::captureFrame();
    try {
      if (Opts.PerUnitHook)
        Opts.PerUnitHook(Units[I]);
      U = analyzeUnit(Units[I].Text, Opts, Opts.Cache);
    } catch (const std::exception &E) {
      // A throwing unit must fail loudly but locally: its siblings finish,
      // the batch reports which unit died, and the driver exits non-zero.
      U.Errors.push_back(std::string("internal error: ") + E.what());
    }
    U.Name = Units[I].Name;
    U.StatsDelta = stats::captureFrame() - Before;
  };

  if (Opts.Jobs == 1) {
    for (size_t I = 0; I < Units.size(); ++I)
      runUnit(I);
  } else {
    ThreadPool Pool(Opts.Jobs);
    for (size_t I = 0; I < Units.size(); ++I)
      Pool.submit([&runUnit, I] { runUnit(I); });
    Pool.wait();
  }

  for (UnitResult &U : R.Units) {
    // Misses land in input order, so the cache file bytes are
    // deterministic for any Jobs value.
    if (U.MissDigest != 0)
      Opts.Cache->insert(U.MissDigest, std::move(U.MissEntry));
    if (U.OK) {
      R.TotalInstructions += U.Instructions;
      R.TotalLoops += U.Loops;
    } else {
      ++R.Failed;
    }
    // Merge every unit's delta (including failed units, whose frontend
    // diagnostics still count) in input order: element-wise addition is
    // commutative, so the merged frame is identical for any Jobs value.
    R.MergedStats += U.StatsDelta;
  }
  return R;
}

std::string BatchResult::renderText() const {
  std::string Out;
  for (const UnitResult &U : Units) {
    // Summary-only runs leave ReportText empty; a bare section header for
    // every healthy unit would just be noise, so only failures show.
    if (U.OK && U.ReportText.empty())
      continue;
    Out += ";; === " + U.Name + " ===\n";
    if (!U.OK) {
      for (const std::string &E : U.Errors)
        Out += ";; error: " + E + "\n";
      continue;
    }
    Out += U.ReportText;
  }

  // The footer reads the OK units' counter deltas: the counters are bumped
  // where the analysis decides, so they are the one per-unit tally.
  auto okTotal = [this](const stats::Counter &C) {
    uint64_t N = 0;
    for (const UnitResult &U : Units)
      if (U.OK)
        N += U.StatsDelta.Counters[C.index()];
    return std::to_string(N);
  };
  // Every header-phi kind, in lattice order.
  static const ivclass::IVKind FooterKinds[] = {
      ivclass::IVKind::Linear,        ivclass::IVKind::Polynomial,
      ivclass::IVKind::Geometric,     ivclass::IVKind::CFinite,
      ivclass::IVKind::WrapAround,    ivclass::IVKind::Periodic,
      ivclass::IVKind::Monotonic,     ivclass::IVKind::PhasePeriodic,
      ivclass::IVKind::Invariant,     ivclass::IVKind::Unknown};
  static const stats::Counter Regions("ivclass.sccs_visited");
  static const stats::Counter ExitValues("ivclass.exit_values_materialized");

  Out += ";; === batch summary ===\n";
  Out += ";; units: " + std::to_string(Units.size()) + " (failed " +
         std::to_string(Failed) + "), instructions: " +
         std::to_string(TotalInstructions) + ", loops: " +
         std::to_string(TotalLoops) + "\n";
  Out += ";; header-phi kinds:";
  for (ivclass::IVKind K : FooterKinds)
    Out += std::string(K == FooterKinds[0] ? " " : ", ") +
           ivclass::ivKindName(K) + " " + okTotal(ivclass::kindCounter(K));
  Out += "\n;; regions: " + okTotal(Regions) +
         ", exit values materialized: " + okTotal(ExitValues) + "\n";
  return Out;
}
