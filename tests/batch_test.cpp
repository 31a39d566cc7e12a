//===- tests/batch_test.cpp - Batch driver, thread pool, workload RNG ---------===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
// Covers the parallel batch-analysis subsystem: the ThreadPool's lifecycle
// and error paths, function splitting, the analysis option bits, and the
// load-bearing determinism guarantee -- a parallel batch run renders
// byte-identically to a serial one over a generated corpus.  Also pins that
// a warm cached run skips classification.
//
//===----------------------------------------------------------------------===//

#include "WorkloadGen.h"
#include "driver/BatchAnalyzer.h"
#include "driver/ThreadPool.h"
#include "ivclass/Pipeline.h"
#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <gtest/gtest.h>
#include <sstream>
#include <stdexcept>

using namespace biv;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, ConstructDestructEmpty) {
  // Shutdown with an empty queue must not hang or crash.
  driver::ThreadPool Pool(4);
  EXPECT_EQ(Pool.threadCount(), 4u);
}

TEST(ThreadPoolTest, ZeroPicksHardwareConcurrency) {
  driver::ThreadPool Pool(0);
  EXPECT_GE(Pool.threadCount(), 1u);
  EXPECT_EQ(Pool.threadCount(), driver::ThreadPool::defaultThreadCount());
}

TEST(ThreadPoolTest, RunsEveryTask) {
  driver::ThreadPool Pool(4);
  std::atomic<long> Sum{0};
  for (int I = 1; I <= 1000; ++I)
    Pool.submit([&Sum, I] { Sum.fetch_add(I, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Sum.load(), 1000L * 1001 / 2);
}

TEST(ThreadPoolTest, QueuedTasksRunInSubmissionOrder) {
  // One worker held busy while six tasks queue behind it: it must run them
  // oldest first, as a daemon answers a burst of requests.
  driver::ThreadPool Pool(1);
  std::promise<void> Started, Release;
  std::shared_future<void> Gate = Release.get_future().share();
  Pool.submit([&Started, Gate] {
    Started.set_value();
    Gate.wait();
  });
  Started.get_future().wait();
  std::vector<int> Order;
  for (int I = 1; I <= 6; ++I)
    Pool.submit([&Order, I] { Order.push_back(I); });
  Release.set_value();
  Pool.wait();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(ThreadPoolTest, WaitPropagatesFirstException) {
  driver::ThreadPool Pool(2);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 16; ++I)
    Pool.submit([&Ran, I] {
      Ran.fetch_add(1);
      if (I == 5)
        throw std::runtime_error("unit 5 failed");
    });
  EXPECT_THROW(Pool.wait(), std::runtime_error);
  // The failure drained the queue rather than aborting siblings.
  EXPECT_EQ(Ran.load(), 16);
  // And the pool stays usable afterwards.
  Pool.submit([&Ran] { Ran.fetch_add(1); });
  EXPECT_NO_THROW(Pool.wait());
  EXPECT_EQ(Ran.load(), 17);
}

//===----------------------------------------------------------------------===//
// splitFunctions
//===----------------------------------------------------------------------===//

TEST(BatchTest, SplitsTopLevelFunctions) {
  driver::SourceInput File{
      "two.biv",
      "# leading comment with the word func in it\n"
      "func first(n) {\n  s = 0;\n  for L1: i = 1 to n { s = s + 1; }\n"
      "  return s;\n}\n"
      "func second(n) {\n  return n;\n}\n"};
  std::vector<driver::SourceInput> Units = driver::splitFunctions(File);
  ASSERT_EQ(Units.size(), 2u);
  EXPECT_EQ(Units[0].Name, "two.biv:first");
  EXPECT_EQ(Units[1].Name, "two.biv:second");
}

TEST(BatchTest, SingleFunctionKeepsFileName) {
  driver::SourceInput File{"one.biv", "func only(n) {\n  return n;\n}\n"};
  std::vector<driver::SourceInput> Units = driver::splitFunctions(File);
  ASSERT_EQ(Units.size(), 1u);
  EXPECT_EQ(Units[0].Name, "one.biv");
}

//===----------------------------------------------------------------------===//
// AnalysisOptions bits
//===----------------------------------------------------------------------===//

TEST(AnalysisOptionsTest, BitsRoundTripAndUndefinedBitsAreRefused) {
  std::string Err;
  for (uint64_t Bits = 0; Bits < 64; ++Bits) {
    driver::AnalysisOptions AO;
    ASSERT_TRUE(driver::AnalysisOptions::fromBits(Bits, AO, Err)) << Bits;
    EXPECT_EQ(AO.toBits(), Bits);
  }
  // The batch defaults: RunSCCP | Classify | NestedTuples.
  EXPECT_EQ(driver::BatchOptions().toBits(), 1u | 4u | 16u);
  driver::AnalysisOptions AO;
  for (uint64_t Bits : {uint64_t(64), uint64_t(23) | (uint64_t(1) << 40)}) {
    EXPECT_FALSE(driver::AnalysisOptions::fromBits(Bits, AO, Err)) << Bits;
    EXPECT_NE(Err.find("unknown option bits"), std::string::npos) << Err;
  }
}

//===----------------------------------------------------------------------===//
// Batch determinism
//===----------------------------------------------------------------------===//

TEST(BatchTest, ParallelMatchesSerialByteForByte) {
  // A corpus spanning every generator shape; at 8 workers on any scheduler
  // the rendered report and aggregates must match the serial run exactly.
  std::vector<bench::CorpusUnit> Corpus = bench::genCorpus(48, /*Seed=*/99);
  std::vector<driver::SourceInput> Sources;
  for (const bench::CorpusUnit &U : Corpus)
    Sources.push_back({U.Name, U.Text});

  driver::BatchOptions Serial;
  Serial.Jobs = 1;
  driver::BatchOptions Parallel = Serial;
  Parallel.Jobs = 8;

  driver::BatchResult RS = driver::analyzeBatch(Sources, Serial);
  driver::BatchResult RP = driver::analyzeBatch(Sources, Parallel);

  EXPECT_EQ(RS.Failed, 0u);
  EXPECT_EQ(RP.Failed, 0u);
  ASSERT_EQ(RS.Units.size(), RP.Units.size());
  EXPECT_EQ(RS.TotalInstructions, RP.TotalInstructions);
  EXPECT_EQ(RS.TotalLoops, RP.TotalLoops);
  EXPECT_EQ(RS.renderText(), RP.renderText());
}

TEST(BatchTest, CFiniteCorpusParallelByteIdentical) {
  // Exponential-polynomial rendering must not depend on worker count: the
  // coefficient polynomials on geometric bases, symbolic coefficients
  // (built in different interner orders per thread), and partial-member
  // projections all have to render byte-identically at -j1 and -j8.
  const char *Shapes[] = {
      // Symbolic 2^h coefficient a+b whose symbols arrive in both orders.
      "func s%d(n) {\n a = n + 1;\n b = n + 2;\n x = a;\n"
      " for L1: i = 0 to 6 {\n x = 2*x + b;\n }\n return x;\n}",
      "func t%d(n) {\n b = n + 2;\n a = n + 1;\n x = b;\n"
      " for L1: i = 0 to 6 {\n x = 2*x + a;\n }\n return x;\n}",
      // Two bases (2^h from g, 3^h from the carry) in one form.
      "func u%d(n) {\n g = 1;\n y = 1;\n for L1: i = 0 to 6 {\n"
      " g = g * 2;\n y = 3*y + g;\n }\n return y;\n}",
      // Resonance: h*2^h coefficient polynomial.
      "func v%d(n) {\n c0 = 1;\n c1 = 0;\n for L1: i = 0 to n {\n"
      " c0 = c0 * 2;\n c1 = 2*c1 + c0;\n }\n return c1;\n}",
      // Coupled system, eigenvalues {3, -1}.
      "func w%d(n) {\n u = 1;\n v = 0;\n for L1: i = 0 to n {\n"
      " t = u + 2*v;\n v = 2*u + v + i;\n u = t;\n }\n return u + v;\n}",
      // Unsolvable SCC with a partial projection.
      "func p%d(n) {\n px = 1;\n ps = 0;\n for L1: i = 0 to n {\n"
      " pt = px + i;\n pm = pt - px;\n px = px * px + pm;\n"
      " ps = ps + pm;\n }\n return ps;\n}",
  };
  std::vector<driver::SourceInput> Sources;
  for (int Copy = 0; Copy < 4; ++Copy)
    for (const char *Shape : Shapes) {
      char Buf[512];
      std::snprintf(Buf, sizeof(Buf), Shape, Copy);
      Sources.push_back(
          {"cf" + std::to_string(Sources.size()), std::string(Buf)});
    }

  driver::BatchOptions Serial;
  Serial.Jobs = 1;
  Serial.Report.AllValues = true;
  driver::BatchOptions Parallel = Serial;
  Parallel.Jobs = 8;

  driver::BatchResult RS = driver::analyzeBatch(Sources, Serial);
  driver::BatchResult RP = driver::analyzeBatch(Sources, Parallel);
  EXPECT_EQ(RS.Failed, 0u);
  EXPECT_EQ(RP.Failed, 0u);
  EXPECT_EQ(RS.renderText(), RP.renderText());
}

TEST(BatchTest, FooterKindsAddUpToTheKindCounters) {
  std::vector<driver::SourceInput> Sources;
  for (const auto &E : std::filesystem::directory_iterator(BIV_CORPUS_DIR)) {
    const std::string Name = E.path().filename().string();
    if (Name.rfind("cfinite_", 0) != 0 || E.path().extension() != ".biv")
      continue;
    std::ifstream In(E.path());
    std::stringstream Text;
    Text << In.rdbuf();
    Sources.push_back({Name, Text.str()});
  }
  ASSERT_FALSE(Sources.empty());
  driver::BatchResult R = driver::analyzeBatch(Sources);
  ASSERT_EQ(R.Failed, 0u);

  // Sum the "label N" fields of the footer's kinds line.
  const std::string Text = R.renderText();
  const std::string Tag = ";; header-phi kinds: ";
  size_t At = Text.find(Tag);
  ASSERT_NE(At, std::string::npos) << Text;
  At += Tag.size();
  std::stringstream Line(Text.substr(At, Text.find('\n', At) - At));
  uint64_t FooterSum = 0;
  for (std::string Field; std::getline(Line, Field, ',');)
    FooterSum += std::stoull(Field.substr(Field.rfind(' ') + 1));

  // Partial phis are also counted under their closed-form kind.
  uint64_t CounterSum = 0;
  for (const auto &[Name, V] : stats::snapshotFrame(R.MergedStats).Counters)
    if (Name.rfind("ivclass.kind.", 0) == 0 && Name != "ivclass.kind.partial")
      CounterSum += V;
  EXPECT_GT(CounterSum, 0u);
  EXPECT_EQ(FooterSum, CounterSum) << Text;
}

TEST(BatchTest, FailedUnitDoesNotAbortSiblings) {
  std::vector<driver::SourceInput> Sources = {
      {"good1", "func a(n) {\n  s = 0;\n  for L1: i = 1 to n { s = s + 1; }\n"
                "  return s;\n}\n"},
      {"bad", "func b(n) { syntax error here }\n"},
      {"good2", "func c(n) {\n  return n;\n}\n"}};
  driver::BatchOptions BO;
  BO.Jobs = 4;
  driver::BatchResult R = driver::analyzeBatch(Sources, BO);
  ASSERT_EQ(R.Units.size(), 3u);
  EXPECT_EQ(R.Failed, 1u);
  EXPECT_TRUE(R.Units[0].OK);
  EXPECT_FALSE(R.Units[1].OK);
  EXPECT_TRUE(R.Units[2].OK);
  EXPECT_FALSE(R.Units[1].Errors.empty());
}

TEST(BatchTest, ThrowingUnitFailsBatchWithoutDeadlock) {
  // A worker exception used to either deadlock wait() or vanish with the
  // unit silently analyzed as OK.  Now: the batch completes, exactly the
  // offending unit is failed with a diagnostic naming the cause, and its
  // siblings are unaffected.
  std::vector<driver::SourceInput> Sources;
  for (int I = 0; I < 12; ++I)
    Sources.push_back({"u" + std::to_string(I),
                       "func f(n) {\n  s = 0;\n"
                       "  for L1: i = 1 to n { s = s + 1; }\n"
                       "  return s;\n}\n"});
  driver::BatchOptions BO;
  BO.Jobs = 4;
  BO.PerUnitHook = [](const driver::SourceInput &U) {
    if (U.Name == "u7")
      throw std::runtime_error("injected fault");
  };
  driver::BatchResult R = driver::analyzeBatch(Sources, BO);
  ASSERT_EQ(R.Units.size(), 12u);
  EXPECT_EQ(R.Failed, 1u);
  for (const driver::UnitResult &U : R.Units) {
    if (U.Name == "u7") {
      EXPECT_FALSE(U.OK);
      ASSERT_FALSE(U.Errors.empty());
      EXPECT_NE(U.Errors[0].find("internal error"), std::string::npos);
      EXPECT_NE(U.Errors[0].find("injected fault"), std::string::npos);
    } else {
      EXPECT_TRUE(U.OK) << U.Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// Analysis cache through the batch driver
//===----------------------------------------------------------------------===//

TEST(BatchCacheTest, WarmRunIsByteIdenticalAndFullyHit) {
  std::vector<bench::CorpusUnit> Corpus = bench::genCorpus(24, /*Seed=*/7);
  std::vector<driver::SourceInput> Sources;
  for (const bench::CorpusUnit &U : Corpus)
    Sources.push_back({U.Name, U.Text});

  cache::AnalysisCache Cache; // in-memory: open()/save() not needed
  driver::BatchOptions BO;
  BO.Jobs = 4;
  BO.Report.AllValues = true;
  BO.Cache = &Cache;

  driver::BatchResult Cold = driver::analyzeBatch(Sources, BO);
  EXPECT_EQ(Cold.Failed, 0u);
  // Content addressing dedups generator collisions: at most one entry per
  // distinct IR, at least one per distinct program shape.
  size_t ColdEntries = Cache.pendingCount();
  EXPECT_GT(ColdEntries, 0u);
  EXPECT_LE(ColdEntries, Sources.size());

  driver::BatchResult Warm = driver::analyzeBatch(Sources, BO);
  EXPECT_EQ(Warm.renderText(), Cold.renderText());
  // Nothing new to cache on the second pass: every unit hit.
  EXPECT_EQ(Cache.pendingCount(), ColdEntries);

  // A hit replays the unit's counters but never classifies or renders: the
  // warm run opens no phase.classify or phase.report span at all, where the
  // cold run rendered one report per unit.
  stats::StatsSnapshot ColdStats = stats::snapshotFrame(Cold.MergedStats);
  stats::StatsSnapshot WarmStats = stats::snapshotFrame(Warm.MergedStats);
  EXPECT_GT(ColdStats.Timers["phase.classify"].Spans, 0u);
  EXPECT_EQ(ColdStats.Timers["phase.report"].Spans, Cold.Units.size());
  EXPECT_EQ(WarmStats.Counters["cache.hit"], Sources.size());
  EXPECT_EQ(WarmStats.Timers.count("phase.classify"), 0u);
  EXPECT_EQ(WarmStats.Timers.count("phase.report"), 0u);

  // And the cached result equals a cache-less analysis.
  driver::BatchOptions Plain = BO;
  Plain.Cache = nullptr;
  EXPECT_EQ(driver::analyzeBatch(Sources, Plain).renderText(),
            Cold.renderText());
}

TEST(BatchCacheTest, OptionChangesMissInsteadOfCrossContaminating) {
  std::vector<driver::SourceInput> Sources = {
      {"f", "func f(n) {\n  s = 0;\n  for L1: i = 1 to n { s = s + i; }\n"
            "  return s;\n}\n"}};
  cache::AnalysisCache Cache;

  driver::BatchOptions Terse;
  Terse.Jobs = 1;
  Terse.Report.AllValues = false;
  Terse.Cache = &Cache;
  std::string TerseText = driver::analyzeBatch(Sources, Terse).renderText();
  EXPECT_EQ(Cache.pendingCount(), 1u);

  // Same IR, different report options: must be a second entry, and the
  // verbose report must not come back in terse clothing (or vice versa).
  driver::BatchOptions Verbose = Terse;
  Verbose.Report.AllValues = true;
  std::string VerboseText =
      driver::analyzeBatch(Sources, Verbose).renderText();
  EXPECT_EQ(Cache.pendingCount(), 2u);
  EXPECT_NE(VerboseText, TerseText);

  // Both configurations now replay from the cache, each its own bytes.
  EXPECT_EQ(driver::analyzeBatch(Sources, Terse).renderText(), TerseText);
  EXPECT_EQ(driver::analyzeBatch(Sources, Verbose).renderText(), VerboseText);
  EXPECT_EQ(Cache.pendingCount(), 2u);
}

TEST(BatchCacheTest, ValueNamedLikeATempKeysItsOwnEntry) {
  // A's phi of the variable t0 and B's unnamed temp for u = n + 1 share the
  // spelling t0; the cache key must still tell the two functions apart, so
  // B is never served A's report.
  std::vector<driver::SourceInput> A = {
      {"f", "func f(n) { s = 0; t0 = n + 1;\n"
            "  for L: i = 1 to n { t0 = t0 + 2; s = s + t0; }\n"
            "  return s + t0; }\n"}};
  std::vector<driver::SourceInput> B = {
      {"f", "func f(n) { s = 0; u = n + 1; t0 = u;\n"
            "  for L: i = 1 to n { t0 = u + 2; s = s + t0; }\n"
            "  return s + t0; }\n"}};
  driver::BatchOptions BO;
  BO.Jobs = 1;
  const std::string Uncached = driver::analyzeBatch(B, BO).renderText();
  EXPECT_NE(Uncached, driver::analyzeBatch(A, BO).renderText());

  cache::AnalysisCache Cache;
  BO.Cache = &Cache;
  driver::analyzeBatch(A, BO);
  EXPECT_EQ(driver::analyzeBatch(B, BO).renderText(), Uncached);
  EXPECT_EQ(Cache.pendingCount(), 2u);
}

TEST(BatchCacheTest, FailedUnitsAreNeverCached) {
  std::vector<driver::SourceInput> Sources = {
      {"bad", "func b(n) { not a program }\n"}};
  cache::AnalysisCache Cache;
  driver::BatchOptions BO;
  BO.Jobs = 1;
  BO.Cache = &Cache;
  driver::BatchResult R = driver::analyzeBatch(Sources, BO);
  EXPECT_EQ(R.Failed, 1u);
  EXPECT_EQ(Cache.pendingCount(), 0u);
}

} // namespace
