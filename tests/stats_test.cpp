//===- tests/stats_test.cpp - Observability layer units -----------------------===//
//
// Covers the support/Stats registry end to end: name interning, thread-local
// frames and delta capture, scoped-span nesting, cross-thread merge
// associativity, the schema-v1 JSON golden rendering, and the pipeline-level
// guarantee that the per-kind counters agree with the Report's own counts.
//
//===----------------------------------------------------------------------===//

#include "driver/BatchAnalyzer.h"
#include "ivclass/Pipeline.h"
#include "ivclass/Report.h"
#include "support/Stats.h"
#include <gtest/gtest.h>
#include <thread>

using namespace biv;

namespace {

// The thread-local frame is process-wide and grows monotonically, so every
// test works on before/after deltas rather than absolute cell values.
stats::Frame deltaOf(const stats::Frame &Before) {
  return stats::captureFrame() - Before;
}

//===----------------------------------------------------------------------===//
// Registration
//===----------------------------------------------------------------------===//

TEST(StatsTest, RegistrationDeduplicatesBySpelling) {
  stats::Counter A("test.dedup.counter");
  stats::Counter B("test.dedup.counter");
  stats::Counter C("test.dedup.other");
  EXPECT_EQ(A.index(), B.index());
  EXPECT_NE(A.index(), C.index());

  stats::Timer TA("test.dedup.timer");
  stats::Timer TB("test.dedup.timer");
  EXPECT_EQ(TA.index(), TB.index());
}

TEST(StatsTest, BumpIsVisibleInDelta) {
  stats::Counter C("test.bump.counter");
  stats::Frame Before = stats::captureFrame();
  C.bump();
  C.bump(41);
  stats::Frame D = deltaOf(Before);
  EXPECT_EQ(D.Counters[C.index()], 42u);

  stats::StatsSnapshot S = stats::snapshotFrame(D);
  EXPECT_EQ(S.Counters.at("test.bump.counter"), 42u);
}

TEST(StatsTest, SnapshotDropsZeroCells) {
  stats::Counter C("test.zero.counter");
  (void)C;
  stats::Frame Before = stats::captureFrame();
  stats::StatsSnapshot S = stats::snapshotFrame(deltaOf(Before));
  EXPECT_EQ(S.Counters.count("test.zero.counter"), 0u);
}

//===----------------------------------------------------------------------===//
// Scoped spans
//===----------------------------------------------------------------------===//

TEST(StatsTest, ScopedSpansNest) {
  stats::Timer Outer("test.span.outer");
  stats::Timer Inner("test.span.inner");
  stats::Frame Before = stats::captureFrame();
  {
    stats::ScopedSpan SO(Outer);
    {
      stats::ScopedSpan SI(Inner);
    }
    {
      stats::ScopedSpan SI(Inner);
    }
  }
  stats::Frame D = deltaOf(Before);
  EXPECT_EQ(D.Timers[Outer.index()].Spans, 1u);
  EXPECT_EQ(D.Timers[Inner.index()].Spans, 2u);
  // Each level accrues its own inclusive time, so the outer span's duration
  // must cover both inner spans.
  EXPECT_GE(D.Timers[Outer.index()].Ns, D.Timers[Inner.index()].Ns);
}

TEST(StatsTest, ReentrantSpansOnSameTimerAccumulate) {
  stats::Timer T("test.span.reentrant");
  stats::Frame Before = stats::captureFrame();
  {
    stats::ScopedSpan A(T);
    stats::ScopedSpan B(T); // same timer, nested: both spans count
  }
  EXPECT_EQ(deltaOf(Before).Timers[T.index()].Spans, 2u);
}

//===----------------------------------------------------------------------===//
// Cross-thread merge
//===----------------------------------------------------------------------===//

TEST(StatsTest, CrossThreadMergeIsOrderIndependent) {
  stats::Counter C("test.merge.counter");
  stats::Timer T("test.merge.timer");

  // Each worker starts with a fresh (zero) thread-local frame, so its final
  // frame is its own delta.
  constexpr unsigned N = 4;
  stats::Frame Deltas[N];
  std::vector<std::thread> Workers;
  for (unsigned I = 0; I < N; ++I)
    Workers.emplace_back([&, I] {
      for (unsigned K = 0; K <= I; ++K) {
        stats::ScopedSpan Span(T);
        C.bump(I + 1);
      }
      Deltas[I] = stats::captureFrame();
    });
  for (std::thread &W : Workers)
    W.join();

  stats::Frame Fwd, Rev;
  for (unsigned I = 0; I < N; ++I)
    Fwd += Deltas[I];
  for (unsigned I = N; I-- > 0;)
    Rev += Deltas[I];

  // 1*1 + 2*2 + 3*3 + 4*4 bumps of size I+1 each.
  EXPECT_EQ(Fwd.Counters[C.index()], 30u);
  EXPECT_EQ(Fwd.Counters[C.index()], Rev.Counters[C.index()]);
  EXPECT_EQ(Fwd.Timers[T.index()].Spans, 10u);
  EXPECT_EQ(Fwd.Timers[T.index()].Ns, Rev.Timers[T.index()].Ns);
  EXPECT_EQ(stats::snapshotFrame(Fwd).fingerprint(),
            stats::snapshotFrame(Rev).fingerprint());
}

TEST(StatsTest, SnapshotMergeMatchesFrameMerge) {
  stats::Counter C("test.merge2.counter");
  stats::Frame Before = stats::captureFrame();
  C.bump(5);
  stats::Frame D1 = deltaOf(Before);
  Before = stats::captureFrame();
  C.bump(7);
  stats::Frame D2 = deltaOf(Before);

  stats::StatsSnapshot Sum = stats::snapshotFrame(D1);
  Sum.merge(stats::snapshotFrame(D2));
  stats::Frame F = D1;
  F += D2;
  EXPECT_EQ(Sum.fingerprint(), stats::snapshotFrame(F).fingerprint());
  EXPECT_EQ(Sum.Counters.at("test.merge2.counter"), 12u);
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

TEST(StatsTest, JsonSchemaGolden) {
  // Built by hand so the golden string is exact: keys sorted, "v": 1 first,
  // timers carry spans and ns.
  stats::StatsSnapshot S;
  S.Counters["b.two"] = 2;
  S.Counters["a.one"] = 1;
  S.Timers["t.z"] = {3, 4500};
  S.Timers["t.a"] = {1, 10};
  EXPECT_EQ(S.renderJson(),
            "{\n"
            "  \"v\": 1,\n"
            "  \"counters\": {\n"
            "    \"a.one\": 1,\n"
            "    \"b.two\": 2\n"
            "  },\n"
            "  \"timers\": {\n"
            "    \"t.a\": {\"spans\": 1, \"ns\": 10},\n"
            "    \"t.z\": {\"spans\": 3, \"ns\": 4500}\n"
            "  }\n"
            "}");
}

TEST(StatsTest, JsonEmptySnapshot) {
  stats::StatsSnapshot S;
  EXPECT_EQ(S.renderJson(), "{\n"
                            "  \"v\": 1,\n"
                            "  \"counters\": {},\n"
                            "  \"timers\": {}\n"
                            "}");
}

TEST(StatsTest, JsonIndentPrefixesEveryLine) {
  stats::StatsSnapshot S;
  S.Counters["x"] = 1;
  std::string J = S.renderJson("  ");
  EXPECT_EQ(J.rfind("  {", 0), 0u);
  EXPECT_NE(J.find("\n      \"x\": 1"), std::string::npos);
  EXPECT_EQ(J.back(), '}');
}

TEST(StatsTest, FingerprintExcludesDurations) {
  stats::StatsSnapshot A, B;
  A.Counters["c"] = 3;
  B.Counters["c"] = 3;
  A.Timers["t"] = {2, 111};
  B.Timers["t"] = {2, 999999}; // same spans, different ns
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  B.Timers["t"].Spans = 3;
  EXPECT_NE(A.fingerprint(), B.fingerprint());
}

//===----------------------------------------------------------------------===//
// Histograms (the serving path's latency/queue-depth cells)
//===----------------------------------------------------------------------===//

TEST(StatsTest, HistogramObserveBucketsByLog2) {
  stats::Histogram H("test.hist.obs");
  stats::Frame Before = stats::captureFrame();
  H.observe(0);    // bucket 0: the value 0
  H.observe(1);    // bucket 1: [1, 1]
  H.observe(2);    // bucket 2: [2, 3]
  H.observe(3);    // bucket 2
  H.observe(1000); // bucket 10: [512, 1023]
  stats::StatsSnapshot S = stats::snapshotFrame(deltaOf(Before));
  const stats::HistValue &V = S.Hists.at("test.hist.obs");
  EXPECT_EQ(V.Count, 5u);
  EXPECT_EQ(V.Sum, 1006u);
  EXPECT_EQ(V.Buckets[0], 1u);
  EXPECT_EQ(V.Buckets[1], 1u);
  EXPECT_EQ(V.Buckets[2], 2u);
  EXPECT_EQ(V.Buckets[10], 1u);

  EXPECT_EQ(V.quantileUpperBound(0.5), 1u);
  EXPECT_EQ(V.quantileUpperBound(0.99), 3u);
  EXPECT_EQ(V.quantileUpperBound(1.0), 1023u);
}

TEST(StatsTest, HistogramWithoutObservationsStaysOutOfSnapshot) {
  stats::Histogram H("test.hist.silent");
  (void)H;
  stats::Frame Before = stats::captureFrame();
  stats::StatsSnapshot S = stats::snapshotFrame(deltaOf(Before));
  EXPECT_EQ(S.Hists.count("test.hist.silent"), 0u);
}

TEST(StatsTest, HistogramJsonGoldenAndSchemaPreserved) {
  // Runs that record histogram data get a third "hists" key with trailing
  // zero buckets trimmed; runs that never observe one keep the original
  // two-key schema byte-for-byte (JsonEmptySnapshot covers that side).
  stats::StatsSnapshot S;
  S.Counters["c"] = 1;
  stats::HistValue H;
  H.Count = 3;
  H.Sum = 7;
  H.Buckets = {1, 2, 0, 0};
  S.Hists["h.lat"] = H;
  EXPECT_EQ(S.renderJson(),
            "{\n"
            "  \"v\": 1,\n"
            "  \"counters\": {\n"
            "    \"c\": 1\n"
            "  },\n"
            "  \"timers\": {},\n"
            "  \"hists\": {\n"
            "    \"h.lat\": {\"count\": 3, \"sum\": 7, \"buckets\": [1, 2]}\n"
            "  }\n"
            "}");
}

TEST(StatsTest, HistogramMergeAndFingerprint) {
  stats::StatsSnapshot A, B;
  stats::HistValue H1;
  H1.Count = 2;
  H1.Sum = 10;
  H1.Buckets = {1, 1};
  stats::HistValue H2;
  H2.Count = 1;
  H2.Sum = 100;
  H2.Buckets = {0, 0, 0, 1};
  A.Hists["h"] = H1;
  B.Hists["h"] = H2;
  A.merge(B);
  EXPECT_EQ(A.Hists["h"].Count, 3u);
  EXPECT_EQ(A.Hists["h"].Sum, 110u);
  ASSERT_GE(A.Hists["h"].Buckets.size(), 4u);
  EXPECT_EQ(A.Hists["h"].Buckets[0], 1u);
  EXPECT_EQ(A.Hists["h"].Buckets[3], 1u);

  // Durations and bucket shapes are wall-clock artifacts; only the
  // observation count participates in the determinism fingerprint.
  stats::StatsSnapshot X, Y;
  stats::HistValue HX = H1, HY = H1;
  HY.Sum = 999;
  HY.Buckets = {2};
  X.Hists["h"] = HX;
  Y.Hists["h"] = HY;
  EXPECT_EQ(X.fingerprint(), Y.fingerprint());
  HY.Count = 5;
  Y.Hists["h"] = HY;
  EXPECT_NE(X.fingerprint(), Y.fingerprint());
}

//===----------------------------------------------------------------------===//
// Pipeline-level: counters agree with the Report
//===----------------------------------------------------------------------===//

const char *LinearChain = R"(
func linear_chain(n) {
  j = n;
  s = 0;
  for L7: x = 1 to 12 {
    i = j + 3;
    j = i + 2;
    s = s + j;
  }
  return s;
}
)";

const char *FlipFlop = R"(
func flipflop(n) {
  a = 1;
  b = 2;
  t = 0;
  s = 0;
  for L: i = 1 to n {
    t = a;
    a = b;
    b = t;
    s = s + a;
  }
  return s;
}
)";

/// Runs the pipeline on \p Source and checks that the ivclass.kind.*
/// counter deltas equal the Report's own KindCounts.
void expectKindCountersMatchReport(const char *Source) {
  stats::Counter Linear("ivclass.kind.linear");
  stats::Counter Polynomial("ivclass.kind.polynomial");
  stats::Counter Geometric("ivclass.kind.geometric");
  stats::Counter WrapAround("ivclass.kind.wrap_around");
  stats::Counter Periodic("ivclass.kind.periodic");
  stats::Counter Monotonic("ivclass.kind.monotonic");
  stats::Counter Invariant("ivclass.kind.invariant");
  stats::Counter Unknown("ivclass.kind.unknown");

  stats::Frame Before = stats::captureFrame();
  std::vector<std::string> Errors;
  std::optional<ivclass::AnalyzedProgram> P =
      ivclass::analyzeSource(Source, Errors);
  ASSERT_TRUE(P) << (Errors.empty() ? "" : Errors.front());
  ivclass::KindCounts K = ivclass::countHeaderPhiKinds(*P->IA);
  stats::Frame D = deltaOf(Before);

  EXPECT_EQ(D.Counters[Linear.index()], K.Linear);
  EXPECT_EQ(D.Counters[Polynomial.index()], K.Polynomial);
  EXPECT_EQ(D.Counters[Geometric.index()], K.Geometric);
  EXPECT_EQ(D.Counters[WrapAround.index()], K.WrapAround);
  EXPECT_EQ(D.Counters[Periodic.index()], K.Periodic);
  EXPECT_EQ(D.Counters[Monotonic.index()], K.Monotonic);
  EXPECT_EQ(D.Counters[Invariant.index()], K.Invariant);
  EXPECT_EQ(D.Counters[Unknown.index()], K.Unknown);
  EXPECT_GT(K.classified() + K.Unknown, 0u) << "program has no header phis";
}

TEST(StatsPipelineTest, KindCountersMatchReportLinearChain) {
  expectKindCountersMatchReport(LinearChain);
}

TEST(StatsPipelineTest, KindCountersMatchReportFlipFlop) {
  expectKindCountersMatchReport(FlipFlop);
}

TEST(StatsPipelineTest, PhaseTimersFireOncePerStage) {
  stats::Timer Parse("phase.parse");
  stats::Timer SSA("phase.ssa");
  stats::Timer Classify("phase.classify");

  stats::Frame Before = stats::captureFrame();
  std::vector<std::string> Errors;
  ASSERT_TRUE(ivclass::analyzeSource(LinearChain, Errors));
  stats::Frame D = deltaOf(Before);

  EXPECT_EQ(D.Timers[Parse.index()].Spans, 1u);
  EXPECT_EQ(D.Timers[SSA.index()].Spans, 1u);
  EXPECT_EQ(D.Timers[Classify.index()].Spans, 1u);
  EXPECT_GT(D.Timers[Classify.index()].Ns, 0u);
}

//===----------------------------------------------------------------------===//
// Batch: worker count cannot change the merged snapshot
//===----------------------------------------------------------------------===//

TEST(StatsBatchTest, MergedSnapshotIdenticalAcrossThreadCounts) {
  std::vector<driver::SourceInput> Sources = {
      {"linear_chain.biv", LinearChain},
      {"flipflop.biv", FlipFlop},
      {"bad.biv", "func broken( {"}, // failed units still merge diagnostics
  };
  driver::BatchOptions BO;
  BO.Jobs = 1;
  driver::BatchResult R1 = driver::analyzeBatch(Sources, BO);
  BO.Jobs = 8;
  driver::BatchResult R8 = driver::analyzeBatch(Sources, BO);

  ASSERT_EQ(R1.Units.size(), R8.Units.size());
  EXPECT_EQ(stats::snapshotFrame(R1.MergedStats).fingerprint(),
            stats::snapshotFrame(R8.MergedStats).fingerprint());
  for (size_t I = 0; I < R1.Units.size(); ++I)
    EXPECT_EQ(stats::snapshotFrame(R1.Units[I].StatsDelta).fingerprint(),
              stats::snapshotFrame(R8.Units[I].StatsDelta).fingerprint())
        << "unit " << R1.Units[I].Name;

  // The batch footer reads the merged kind counters back.
  stats::Counter Linear("ivclass.kind.linear");
  EXPECT_NE(R1.renderText().find(
                "header-phi kinds: linear " +
                std::to_string(R1.MergedStats.Counters[Linear.index()]) +
                ","),
            std::string::npos)
      << R1.renderText();
}

} // namespace
