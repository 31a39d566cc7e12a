//===- perfbench/Workloads.h - The benchmark's workloads --------*- C++ -*-===//
//
// Part of the BeyondIV benchmark.  Each workload drives the program through
// its public API only:
//
//   batch           driver::analyzeBatch over a deduplicated shape corpus,
//                   reports rendered, at -j1 and at -jN (N = usable CPUs);
//   fuzz-summarize  fuzz::runFuzz campaigns with multi-branch summarization,
//                   with BatchJobs = 1 (the oracle loop alone) and = N;
//   serve-mixed     an in-process server::Server with a cache file, driven
//                   by closed-loop server::call clients: 1 in 4 requests is
//                   a never-seen source, the rest repeat primed sources.
//
// setup() builds every input from the seed and starts what the workload
// needs; it also runs alone in fresh processes, so its cold cost can be
// reported as a median.  run() measures for the configured seconds and checks every
// output.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"
#include <memory>

namespace perfbench {

class Workload {
public:
  virtual ~Workload() = default;
  /// Generates inputs, starts services and warms them.
  virtual void setup() = 0;
  /// Measures and checks.  In a traced run, fills the per-layer metrics.
  virtual void run(RunResult &R) = 0;
  /// Extra JSON members for the trace file (the slowest-units table).
  virtual std::string traceExtra() const { return "\"slowest_units\": []"; }
};

std::unique_ptr<Workload> makeBatchWorkload(const RunConfig &C);
std::unique_ptr<Workload> makeFuzzWorkload(const RunConfig &C);
std::unique_ptr<Workload> makeServeWorkload(const RunConfig &C);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
