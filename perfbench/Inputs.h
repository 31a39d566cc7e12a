//===- perfbench/Inputs.h - Seeded, deduplicated workload inputs -*- C++ -*-===//
//
// Part of the BeyondIV benchmark.  Generates loop-language functions in the
// four shapes of bench/WorkloadGen.h -- derived-IV chains, mixed-class
// loops, loop nests and dependence batteries -- from a seed, and keeps only
// units whose canonical IR digest has not been seen before, so no unit is
// analyzed (or served) twice as if it were new.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "driver/BatchAnalyzer.h"
#include "support/Lcg.h"
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// Collects units, keeping only those whose canonical-IR digest it has not
/// seen yet.
class UniqueCorpus {
public:
  explicit UniqueCorpus(uint64_t OptsBits) : Bits(OptsBits) {}

  /// Adds \p Source unless a unit with the same digest is already here.
  void add(const std::string &Name, const std::string &Source);
  /// Generated candidates rejected as duplicates.
  uint64_t duplicates() const { return Dups; }

  std::vector<biv::driver::SourceInput> Units;

private:
  uint64_t Bits;
  std::set<uint64_t> Seen;
  uint64_t Dups = 0;
};

/// Draws shape units from \p R into \p C until it holds \p Count units,
/// cycling through the four shapes, plus with \p Squaring a fifth: a loop
/// the analysis gives up on even with exit values materialized (the four
/// shapes then classify fully).
void fillShapes(UniqueCorpus &C, biv::Lcg &R, size_t Count,
                const std::string &Prefix, bool Squaring = false);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
