//===- tests/summarize_test.cpp - Multi-branch loop summarization -------------===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
// Coverage for the summarizer (beyond the paper): the sample-conjecture-
// prove split on branch cycles, per-phase closed forms up to
// SummarizeMaxPeriod, the disproved-conjecture fallback to Unknown,
// RationalOverflow degradation to "no claim", rotation idioms that cross a
// subloop, probe runs shared by the loops of one analysis run, and the
// result cache under the --summarize option bit (cold / warm /
// stale-salt).  Every claimed per-phase form is re-verified
// value-by-value against the interpreter.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "cache/AnalysisCache.h"
#include "driver/BatchAnalyzer.h"
#include "ivclass/Summarize.h"
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

using namespace biv;
using namespace biv::ivclass;
using namespace biv::testutil;

namespace {

InductionAnalysis::Options summarizeOpts() {
  InductionAnalysis::Options O;
  O.Summarize = true;
  return O;
}

/// How much the named counter grew on this thread while \p Fn ran.
template <typename FnT> uint64_t counterDelta(const char *Name, FnT &&Fn) {
  const stats::Counter C(Name);
  const stats::Frame Before = stats::captureFrame();
  Fn();
  return (stats::captureFrame() - Before).Counters[C.index()];
}

/// Re-verifies a summarized classification against an execution trace.
/// Accepts a phase-periodic form, optionally under a chain of wrap-arounds
/// (the shape the summarizer commits for reset variables and rotations):
/// for every header visit h past the accumulated wrap order W, the value
/// must equal PhaseForms[(h-W) mod Period] evaluated at cycle (h-W) / Period.
void expectPhasePeriodicTrace(const Classification &C,
                              const ir::Instruction *Phi,
                              const interp::ExecutionTrace &Trace) {
  const Classification *W = &C;
  uint64_t Order = 0;
  while (W->isWrapAround() && W->Inner) {
    Order += W->WrapOrder;
    W = W->Inner.get();
  }
  ASSERT_TRUE(W->isPhasePeriodic());
  ASSERT_GE(W->Period, 2u);
  ASSERT_EQ(W->PhaseForms.size(), W->Period);
  const std::vector<int64_t> &Seq = Trace.sequenceOf(Phi);
  ASSERT_GT(Seq.size(), Order) << "trace too short to reach the claim";
  for (uint64_t H = Order; H < Seq.size(); ++H) {
    const uint64_t HS = H - Order;
    int64_t Expected = evalAffine(
        W->PhaseForms[HS % W->Period].evaluateAt(int64_t(HS / W->Period)), {});
    EXPECT_EQ(Expected, Seq[H]) << "phase form diverges at h=" << H;
  }
}

//===----------------------------------------------------------------------===//
// Conjecture/proof split and per-phase closed forms
//===----------------------------------------------------------------------===//

const char *FlipFlopSrc = R"(
func f(n) {
  t = 0; z = 0;
  for L: i = 1 to n {
    if (t == 0) { z = z + 5; t = 1; }
    else { z = z - 2; t = 0; }
  }
  return z;
}
)";

TEST(SummarizeTest, OffByDefaultLeavesMultiBranchUnknown) {
  // The classifier alone punts on a per-path update ("Multiple paths or an
  // unsolvable recurrence"); summarization is strictly opt-in.
  Analyzed A = analyze(FlipFlopSrc, /*RunSCCP=*/true);
  EXPECT_TRUE(A.cls("L", "z").isUnknown());
  EXPECT_TRUE(A.cls("L", "t").isUnknown());
}

TEST(SummarizeTest, FlipFlopProvesPeriodTwoForms) {
  Analyzed A = analyze(FlipFlopSrc, /*RunSCCP=*/true, summarizeOpts());
  // The toggle resets every iteration (zero matrix row), so it lands as a
  // wrap-around whose order covers one full cycle, with the per-phase
  // constants inside; the accumulator gains +3 per 2-cycle.
  EXPECT_EQ(A.tuple("L", "t"),
            "wrap-around(L, order 2, phase-periodic(L, period 2, [0 ; 1]))");
  EXPECT_EQ(A.tuple("L", "z"),
            "wrap-around(L, order 2, "
            "phase-periodic(L, period 2, [3 + 3*h ; 8 + 3*h]))");
  interp::ExecutionTrace T = interp::run(*A.F, {9});
  expectPhasePeriodicTrace(A.cls("L", "z"), A.phi("L", "z"), T);
  expectPhasePeriodicTrace(A.cls("L", "t"), A.phi("L", "t"), T);
}

TEST(SummarizeTest, ThreeArmSelectorProvesPeriodThreeForms) {
  // A mod-3 selector with mixed-sign arms: the accumulator is not even
  // monotonic, so nothing short of the per-phase proof can claim it.
  Analyzed A = analyze(R"(
func g(n) {
  c = 0; z = 0;
  for L: i = 1 to n {
    if (c == 0) { z = z + 1; c = 1; }
    else { if (c == 1) { z = z - 3; c = 2; } else { z = z + 7; c = 0; } }
  }
  return z;
}
)",
                       /*RunSCCP=*/true, summarizeOpts());
  EXPECT_EQ(A.tuple("L", "c"),
            "wrap-around(L, order 3, phase-periodic(L, period 3, [0 ; 1 ; 2]))");
  EXPECT_EQ(A.tuple("L", "z"),
            "wrap-around(L, order 3, "
            "phase-periodic(L, period 3, [5 + 5*h ; 6 + 5*h ; 3 + 5*h]))");
  interp::ExecutionTrace T = interp::run(*A.F, {11});
  expectPhasePeriodicTrace(A.cls("L", "z"), A.phi("L", "z"), T);
}

TEST(SummarizeTest, PeriodBeyondMaxStaysUnknown) {
  // A mod-7 selector cycles its paths with period 7 > SummarizeMaxPeriod:
  // the conjecture must reject it, leaving the classifier's verdict alone.
  static_assert(SummarizeMaxPeriod < 7,
                "test assumes period 7 is out of range");
  Analyzed A = analyze(R"(
func h(n) {
  c = 0; z = 0;
  for L: i = 1 to n {
    if (c == 6) { c = 0; z = z + 1; } else { c = c + 1; z = z - 1; }
  }
  return z;
}
)",
                       /*RunSCCP=*/true, summarizeOpts());
  EXPECT_TRUE(A.cls("L", "c").isUnknown());
  EXPECT_TRUE(A.cls("L", "z").isUnknown());
}

//===----------------------------------------------------------------------===//
// Disproved conjecture and overflow degradation
//===----------------------------------------------------------------------===//

TEST(SummarizeTest, UnprovableBranchFallsBackToUnknown) {
  // All three sample runs (n = 3, 7, 12) take the n < 100 arm, so the
  // sampled paths look like a period-1 cycle -- but the condition is not
  // provably phase-constant for symbolic n, and the arms update z
  // differently.  The conjecture must be disproved, not believed.
  Analyzed A = analyze(R"(
func d(n) {
  z = 0; w = 0;
  for L: i = 1 to n {
    if (n < 100) { z = z + 1; w = w + 2; } else { z = z - 2; w = w + 1; }
  }
  return z + w;
}
)",
                       /*RunSCCP=*/true, summarizeOpts());
  EXPECT_TRUE(A.cls("L", "z").isUnknown());
  // w rises along both arms; the plain classifier already claims monotone,
  // and summarization never touches non-Unknown phis.
  EXPECT_TRUE(A.cls("L", "w").isMonotonic());
}

TEST(SummarizeTest, RationalOverflowDegradesToNoClaim) {
  // Each input squares 3037000500, which exceeds int64: every attempt must
  // degrade to "no claim" (never a wrong claim, never a crash), and the
  // loop counts as one overflow.  The toggle rides in the same system, so
  // it degrades with the throwing attempt.
  const char *Sources[] = {
      // Composing the two phase transfers throws.
      R"(
func o(n) {
  t = 0; z = 1;
  for L: i = 1 to n {
    if (t == 0) { z = z * 3037000500; t = 1; }
    else { z = 0 - z * 3037000500; t = 0; }
  }
  return z;
}
)",
      // Evaluating phase 0's transfer throws, so the K = 2 evaluation
      // records the overflow and the K = 4 and K = 6 attempts that replay
      // it must fail the same way.
      R"(
func o(n) {
  t = 0; z = 1;
  for L: i = 1 to n {
    if (t == 0) { w = z * 3037000500; z = w * 3037000500; t = 1; }
    else { z = z + 1; t = 0; }
  }
  return z;
}
)"};
  for (const char *Src : Sources) {
    Analyzed A;
    const uint64_t Overflows =
        counterDelta("ivclass.summarize.overflow", [&] {
          A = analyze(Src, /*RunSCCP=*/true, summarizeOpts());
        });
    EXPECT_EQ(Overflows, 1u) << Src;
    EXPECT_TRUE(A.cls("L", "z").isUnknown()) << Src;
    EXPECT_TRUE(A.cls("L", "t").isUnknown()) << Src;
  }
}

//===----------------------------------------------------------------------===//
// Probe-run reuse across the loops of one analysis run
//===----------------------------------------------------------------------===//

TEST(SummarizeTest, SiblingLoopsShareOneSampling) {
  // Nothing is materialized (a phase-periodic exit value needs a numeric
  // trip count), so the function never changes between the two loops and
  // the second one slices the first one's traces.
  const char *Src = R"(
func f(n) {
  t = 0; z = 0;
  for L1: i = 1 to n {
    if (t == 0) { z = z + 5; t = 1; } else { z = z - 2; t = 0; }
  }
  u = 0; y = 0;
  for L2: j = 1 to n {
    if (u == 0) { y = y + 3; u = 1; } else { y = y - 1; u = 0; }
  }
  return z + y;
}
)";
  Analyzed A;
  const uint64_t Runs = counterDelta("interp.runs", [&] {
    A = analyze(Src, /*RunSCCP=*/true, summarizeOpts());
  });
  EXPECT_EQ(Runs, SummarizeSampleCount);
  EXPECT_EQ(A.tuple("L1", "z"),
            "wrap-around(L1, order 2, "
            "phase-periodic(L1, period 2, [3 + 3*h ; 8 + 3*h]))");
  EXPECT_EQ(A.tuple("L2", "y"),
            "wrap-around(L2, order 2, "
            "phase-periodic(L2, period 2, [2 + 2*h ; 5 + 2*h]))");
}

TEST(SummarizeTest, MaterializedExitValueForcesResampling) {
  // Numeric trip counts and uses after the loops: whichever loop is
  // summarized first gets its exit value materialized, which rewrites a use
  // after it, so the other loop samples the changed function again.
  const char *Src = R"(
func f(n) {
  t = 0; z = 0;
  for L1: i = 1 to 10 {
    if (t == 0) { z = z + 5; t = 1; } else { z = z - 2; t = 0; }
  }
  u = 0; y = 0;
  for L2: j = 1 to 9 {
    if (u == 0) { y = y + 3; u = 1; } else { y = y - 1; u = 0; }
  }
  return z + y;
}
)";
  Analyzed A;
  const uint64_t Runs = counterDelta("interp.runs", [&] {
    A = analyze(Src, /*RunSCCP=*/true, summarizeOpts());
  });
  EXPECT_EQ(Runs, 2 * SummarizeSampleCount);
  EXPECT_EQ(A.tuple("L1", "z"),
            "wrap-around(L1, order 2, "
            "phase-periodic(L1, period 2, [3 + 3*h ; 8 + 3*h]))");
  EXPECT_EQ(A.tuple("L2", "y"),
            "wrap-around(L2, order 2, "
            "phase-periodic(L2, period 2, [2 + 2*h ; 5 + 2*h]))");
}

//===----------------------------------------------------------------------===//
// Rotation across a subloop
//===----------------------------------------------------------------------===//

TEST(SummarizeTest, RotationAcrossSubloopProvesAtPeriodMultiple) {
  // The inner loop rotates the ring symbolically (periodic with the outer
  // phis as inits), so each outer iteration permutes the unknowns.  The
  // permutation matrix has complex eigenvalues at the observed period 1;
  // only the K = 3 multiple composes it back to the identity, which is
  // exactly what the attempt sweep is for.  Exit-value materialization is
  // off (the batch/bench profile): with it on, the classical ring detector
  // claims these phis first and the summarizer never sees them.
  InductionAnalysis::Options Opts = summarizeOpts();
  Opts.MaterializeExitValues = false;
  Analyzed A = analyze(R"(
func f(n) {
  p0 = 3; p1 = 8; p2 = 11; tmp = 0; s = 0;
  for L: i = 1 to 6 {
    for M: j = 1 to 7 { tmp = p0; p0 = p1; p1 = p2; p2 = tmp; }
    s = s + p0;
  }
  return s;
}
)",
                       /*RunSCCP=*/true, Opts);
  EXPECT_EQ(A.tuple("L", "p0"),
            "wrap-around(L, order 3, "
            "phase-periodic(L, period 3, [3 ; 8 ; 11]))");
  EXPECT_EQ(A.tuple("L", "p1"),
            "wrap-around(L, order 3, "
            "phase-periodic(L, period 3, [8 ; 11 ; 3]))");
  EXPECT_EQ(A.tuple("L", "p2"),
            "wrap-around(L, order 3, "
            "phase-periodic(L, period 3, [11 ; 3 ; 8]))");
  interp::ExecutionTrace T = interp::run(*A.F, {});
  expectPhasePeriodicTrace(A.cls("L", "p0"), A.phi("L", "p0"), T);
  expectPhasePeriodicTrace(A.cls("L", "p1"), A.phi("L", "p1"), T);
  expectPhasePeriodicTrace(A.cls("L", "p2"), A.phi("L", "p2"), T);
  // The inner ring itself reports symbolically against the outer phis.
  EXPECT_EQ(A.tuple("M", "p0"),
            "periodic(M, period 3, phase 1, inits [p2.1, p0.1, p1.1])");
}

//===----------------------------------------------------------------------===//
// Cache interaction: cold / warm / stale salt under the --summarize bit
//===----------------------------------------------------------------------===//

struct TempPath {
  std::string Path;
  explicit TempPath(const std::string &Name)
      : Path((std::filesystem::path(::testing::TempDir()) / Name).string()) {
    std::filesystem::remove(Path);
  }
  ~TempPath() { std::filesystem::remove(Path); }
};

driver::BatchOptions cachedOpts(cache::AnalysisCache *C, bool Summarize) {
  driver::BatchOptions BO;
  BO.Jobs = 1;
  BO.Summarize = Summarize;
  BO.Cache = C;
  return BO;
}

TEST(SummarizeCacheTest, ColdWarmIdenticalAndKeyedOnSummarizeBit) {
  std::vector<driver::SourceInput> Sources{{"flipflop.biv", FlipFlopSrc}};
  TempPath P("summarize_cache.bin");
  std::string Err;

  std::string Cold, Warm, Off;
  {
    cache::AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    Cold = driver::analyzeBatch(Sources, cachedOpts(&C, true)).renderText();
    ASSERT_TRUE(C.save(Err)) << Err;
  }
  {
    cache::AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    Warm = driver::analyzeBatch(Sources, cachedOpts(&C, true)).renderText();
    // The summarize option bit is part of the cache key: a non-summarize
    // run over the same unit must not be served the summarized report.
    Off = driver::analyzeBatch(Sources, cachedOpts(&C, false)).renderText();
  }
  EXPECT_EQ(Cold, Warm) << "warm --summarize run must render byte-identically";
  EXPECT_NE(Cold, Off) << "summarize bit must partition the cache key";
  // The kinds footer names every kind unconditionally; pin the per-variable
  // report lines instead.
  EXPECT_NE(Cold.find("t: wrap-around"), std::string::npos);
  EXPECT_NE(Off.find("t: unknown"), std::string::npos);
}

TEST(SummarizeCacheTest, StaleSaltDiscardsAndRecomputesIdentically) {
  std::vector<driver::SourceInput> Sources{{"flipflop.biv", FlipFlopSrc}};
  TempPath P("summarize_cache_salt.bin");
  std::string Err;

  std::string Cold;
  {
    cache::AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    Cold = driver::analyzeBatch(Sources, cachedOpts(&C, true)).renderText();
    ASSERT_TRUE(C.save(Err)) << Err;
  }

  // Corrupt the salt field (third u64 of the header): the file must read
  // as a stale cache from an older analysis version.
  {
    std::fstream F(P.Path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.good());
    uint64_t Bogus = cache::AnalysisVersionSalt + 1000;
    F.seekp(16);
    F.write(reinterpret_cast<const char *>(&Bogus), sizeof(Bogus));
  }

  cache::AnalysisCache C;
  ASSERT_TRUE(C.open(P.Path, Err)) << Err;
  EXPECT_TRUE(C.invalidated());
  std::string Recomputed =
      driver::analyzeBatch(Sources, cachedOpts(&C, true)).renderText();
  EXPECT_EQ(Cold, Recomputed)
      << "a discarded stale cache must recompute to the same report";
}

} // namespace
