//===- fuzz/Fuzzer.h - Differential fuzzing campaign driver -----*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a whole campaign: generate N seeded programs, run the differential
/// oracle on each, diff `--batch -j1` against `-jN` output over the fuzzed
/// corpus (byte identity), and delta-minimize every failure before
/// reporting.  This is the engine behind `bivc --fuzz N --seed S` and the
/// `fuzz_test` ctest smoke.
///
/// With BatchJobs > 1 the programs are checked on a pool of BatchJobs
/// workers while the calling thread renders the `-j1` reference.  Workers
/// take programs in index order, and results commit in program order: the
/// campaign, its report and its stop point match the serial loop's at any
/// worker count.  Each committed check's stats delta is folded into the
/// calling thread's frame, so that frame counts every oracle run, as it
/// does when the checks run inline.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_FUZZ_FUZZER_H
#define BEYONDIV_FUZZ_FUZZER_H

#include "fuzz/Oracle.h"
#include "fuzz/ProgramGen.h"
#include <cstdint>
#include <string>
#include <vector>

namespace biv {
namespace fuzz {

struct FuzzOptions {
  /// Programs to generate and check.
  unsigned Count = 500;
  /// Campaign seed; program i runs under an LCG stream derived from
  /// (Seed, i), so any failure replays from (Seed, i) alone.
  uint64_t Seed = 1;
  /// Delta-minimize failures before reporting.
  bool Minimize = false;
  /// Stop after this many failing programs.  The stop is exact on either
  /// schedule: checks the pool ran past it are dropped, stats included,
  /// and the batch diffs cover only the programs before it.
  unsigned MaxFailures = 10;
  /// Campaign workers: the pool that checks the programs, and the worker
  /// count diffed against -j1 in the batch determinism check.  0 or 1
  /// checks every program on the calling thread and skips the diff.
  unsigned BatchJobs = 8;
  /// Run the per-program cache oracle (cold + warm analysis through an
  /// in-memory AnalysisCache, reports diffed byte-for-byte) on *every*
  /// program.  Off: a random ~1/8 subset, chosen per program seed, still
  /// exercises it, so the flip replays deterministically.
  bool CacheOracleAlways = false;

  GenOptions Gen;
  OracleOptions Oracle;
};

/// One failing program, minimized when requested.
struct FuzzFailure {
  uint64_t ProgramSeed = 0;
  std::string Source;
  std::vector<Mismatch> Mismatches;
  /// Filled when FuzzOptions::Minimize is set.
  std::string MinimizedSource;
  unsigned MinimizedStatements = 0;
  std::vector<Mismatch> MinimizedMismatches;
};

struct FuzzResult {
  unsigned Programs = 0;
  CheckCounts Checks;
  std::vector<FuzzFailure> Failures;

  /// Batch determinism diff over the fuzzed corpus.
  bool BatchChecked = false;
  bool BatchDeterministic = true;

  /// Cache cold/warm byte-identity: per-program oracle runs plus one
  /// corpus-level no-cache vs mixed (half-primed) vs fully-warm diff.
  bool CacheChecked = false;
  bool CacheDeterministic = true;
  unsigned CacheOracleRuns = 0;

  bool ok() const {
    return Failures.empty() && BatchDeterministic && CacheDeterministic;
  }

  /// Human-readable campaign report (the `bivc --fuzz` output).
  std::string renderText() const;
};

/// Runs one campaign.
FuzzResult runFuzz(const FuzzOptions &Opts = {});

} // namespace fuzz
} // namespace biv

#endif // BEYONDIV_FUZZ_FUZZER_H
