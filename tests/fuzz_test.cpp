//===- tests/fuzz_test.cpp - Differential fuzzing smoke tests ----------------===//
//
// Tier-1 gate for the fuzzing subsystem: a bounded seeded campaign (500
// programs, once without and once with the summarizer) must come back with
// zero oracle mismatches, every check category exercised, and byte-identical
// batch output across worker counts.
// The minimizer is demonstrated end to end through the test-only
// fault-injection hook.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/Minimizer.h"
#include "fuzz/Oracle.h"
#include "fuzz/ProgramGen.h"
#include "support/Stats.h"
#include <sstream>

using namespace biv;
using namespace biv::fuzz;

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

TEST(FuzzGenTest, Deterministic) {
  for (uint64_t Seed : {1u, 7u, 42u, 1234u})
    EXPECT_EQ(generateProgram(Seed), generateProgram(Seed));
  // Different seeds produce different programs (not a tautology, but any
  // collision here means the seed is not reaching the grammar).
  EXPECT_NE(generateProgram(1), generateProgram(2));
}

TEST(FuzzGenTest, EveryProgramParsesAndLowers) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    std::string Src = generateProgram(Seed);
    std::vector<std::string> Errors;
    auto F = frontend::parseAndLower(Src, Errors);
    ASSERT_NE(F, nullptr) << "seed " << Seed << " failed:\n"
                          << Src << "\nfirst error: "
                          << (Errors.empty() ? "<none>" : Errors[0]);
  }
}

TEST(FuzzGenTest, OneStatementPerLineForMinimizer) {
  // The minimizer deletes whole lines; a line holding two statements would
  // silently coarsen its granularity.
  std::string Src = generateProgram(11);
  std::istringstream In(Src);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Semis = 0;
    for (char C : Line)
      Semis += C == ';';
    EXPECT_LE(Semis, 1u) << "line with multiple statements: " << Line;
  }
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

TEST(FuzzOracleTest, CleanOnPaperShapes) {
  // One program per claim family; each must verify cleanly AND bump its
  // check counter (a zero counter means the oracle silently skipped it).
  struct Case {
    const char *Name;
    const char *Src;
    unsigned CheckCounts::*Counter;
  };
  const Case Cases[] = {
      {"linear",
       "func f(n) {\n s = 0;\n for L: i = 1 to n { s = s + 2; }\n"
       " return s;\n}",
       &CheckCounts::ClosedForm},
      {"wrap-around",
       // j's init (99) must NOT sit on i's extrapolated line, or the
       // classifier rightly collapses the wrap-around to plain linear.
       "func f(n) {\n i = 1;\n j = 99;\n loop L {\n j = i;\n i = i + 1;\n"
       " if (i > n) break;\n }\n return j;\n}",
       &CheckCounts::WrapAround},
      {"periodic",
       "func f(n) {\n a = 1;\n b = 2;\n t = 0;\n"
       " for L: i = 1 to n {\n t = a;\n a = b;\n b = t;\n }\n return a;\n}",
       &CheckCounts::Periodic},
      {"monotonic",
       "func f(n) {\n m = 0;\n for L: i = 1 to n {\n"
       " if (A[i] > 0) { m = m + i; }\n }\n return m;\n}",
       &CheckCounts::Monotonic},
      {"trip-count",
       // Unstrided symbolic bound: countable as a guarded "-1 + n" count.
       // (Strided symbolic counts need a division the solver doesn't do.)
       "func f(n) {\n s = 0;\n for L: i = 2 to n { s = s + i; }\n"
       " return s;\n}",
       &CheckCounts::TripCount},
      {"cfinite",
       // Resonant pair: c1's closed form carries the h*2^h term, so its
       // checks land in the disjoint CFinite bucket.
       "func f(n) {\n c0 = 1;\n c1 = 0;\n for L: i = 1 to n {\n"
       " c0 = c0 * 2;\n c1 = 2*c1 + c0;\n }\n return c1;\n}",
       &CheckCounts::CFinite},
      {"partial",
       // px' = px*px + pm is unsolvable, but the member pm projects out as
       // an exact partial form the member-claim oracle can verify.
       "func f(n) {\n px = 1;\n ps = 0;\n for L: i = 1 to n {\n"
       " pt = px + i;\n pm = pt - px;\n px = px * px + pm;\n"
       " ps = ps + pm;\n }\n return ps;\n}",
       &CheckCounts::Partial},
  };
  for (const Case &C : Cases) {
    OracleOptions OO;
    OO.Args = {9};
    OracleResult R = checkProgram(C.Src, OO);
    EXPECT_TRUE(R.ParseOK) << C.Name;
    for (const Mismatch &M : R.Mismatches)
      ADD_FAILURE() << C.Name << ": " << M.str();
    EXPECT_GT(R.Checks.*(C.Counter), 0u)
        << C.Name << ": its oracle category was never exercised";
  }
}

TEST(FuzzOracleTest, WrapAroundTailGoesThroughPeriodicImage) {
  // w holds 2*a + 1 of the previous iteration: a wrap-around into the
  // affine image of a periodic member, running 0, 3, 5, 3, 5, ...  Its
  // tail must be checked through the image, not against the bare ring.
  OracleResult R = checkProgram(
      "func wrapscaled(n) { a = 1; b = 2; t = 0; w = 0;\n"
      "  for L: i = 1 to n { w = 2 * a + 1; t = a; a = b; b = t; }"
      " return w; }");
  EXPECT_TRUE(R.ParseOK);
  for (const Mismatch &M : R.Mismatches)
    ADD_FAILURE() << M.str();
  EXPECT_EQ(R.Checks.WrapAround, 2u) << "t and w";
}

TEST(FuzzOracleTest, InjectedSkewIsDetected) {
  // The fault-injection hook makes a *correct* linear claim look wrong;
  // the oracle must catch it and report claim vs. observed.
  OracleOptions OO;
  OO.InjectLinearSkew = 1;
  OracleResult R = checkProgram("func f(n) {\n"
                                " s = 0;\n"
                                " for L: i = 1 to n { s = s + 3; }\n"
                                " return s;\n"
                                "}",
                                OO);
  ASSERT_TRUE(R.ParseOK);
  ASSERT_FALSE(R.Mismatches.empty());
  EXPECT_EQ(R.Mismatches[0].Check, "closed-form");
  EXPECT_FALSE(R.Mismatches[0].Claim.empty());
  EXPECT_FALSE(R.Mismatches[0].Observed.empty());
}

TEST(FuzzOracleTest, ParseFailureIsNotAMismatch) {
  OracleResult R = checkProgram("func f( {");
  EXPECT_FALSE(R.ParseOK);
  EXPECT_TRUE(R.Mismatches.empty());
  EXPECT_FALSE(R.FrontendErrors.empty());
}

//===----------------------------------------------------------------------===//
// Minimizer
//===----------------------------------------------------------------------===//

TEST(FuzzMinimizerTest, ShrinksToRelevantLines) {
  const std::string Src = "func f(n) {\n"
                          " a = 1;\n"
                          " b = 2;\n"
                          " c = a + b;\n"
                          " s = 0;\n"
                          " for L: i = 1 to n {\n"
                          " s = s + 7;\n"
                          " c = c * 2;\n"
                          " }\n"
                          " return s;\n"
                          "}\n";
  // Failure := "program parses and still contains the s = s + 7 update".
  StillFailing Pred = [](const std::string &Candidate) {
    if (countStatements(Candidate) == 0)
      return false;
    return Candidate.find("s = s + 7") != std::string::npos;
  };
  ASSERT_TRUE(Pred(Src));
  MinimizeResult R = minimizeProgram(Src, Pred);
  EXPECT_TRUE(Pred(R.Source));
  // a/b/c lines and the return are deletable; the loop wrapper may or may
  // not survive depending on which subsets parse, but the result must be
  // 1-minimal and far smaller than the input.
  EXPECT_LE(R.Statements, 3u) << R.Source;
  EXPECT_GT(R.Probes, 0u);
}

TEST(FuzzMinimizerTest, ProbesCountRealPredicateRuns) {
  // Probes must equal the number of times the predicate actually ran:
  // chunks whose lines were already dropped are skipped without a probe,
  // and the final re-verification is charged like any other run.
  const std::string Src = "func f(n) {\n"
                          " a = 1;\n"
                          " b = 2;\n"
                          " s = 0;\n"
                          " s = s + 7;\n"
                          " return s;\n"
                          "}\n";
  unsigned Calls = 0;
  StillFailing Pred = [&Calls](const std::string &Candidate) {
    ++Calls;
    if (countStatements(Candidate) == 0)
      return false;
    return Candidate.find("s = s + 7") != std::string::npos;
  };
  ASSERT_TRUE(Pred(Src));
  Calls = 0;
  MinimizeResult R = minimizeProgram(Src, Pred);
  EXPECT_EQ(R.Probes, Calls);
  EXPECT_TRUE(R.Parses);
  EXPECT_TRUE(Pred(R.Source));
}

TEST(FuzzMinimizerTest, UnparseableReproIsDistinguished) {
  // A failure that lives in the *frontend* minimizes to something that
  // does not parse; Parses tells that apart from a parseable program that
  // happens to have zero statements (both report Statements == 0).
  const std::string Src = "this is not a program\n"
                          "XYZZY trigger line\n"
                          "more filler\n";
  StillFailing Pred = [](const std::string &Candidate) {
    return Candidate.find("XYZZY") != std::string::npos;
  };
  MinimizeResult R = minimizeProgram(Src, Pred);
  EXPECT_TRUE(Pred(R.Source));
  EXPECT_FALSE(R.Parses);
  EXPECT_EQ(R.Statements, 0u);
}

TEST(FuzzMinimizerTest, ReVerifyFallsBackToOriginal) {
  // A predicate that goes quiet mid-run (here: accepts exactly one probe)
  // can trick ddmin's bookkeeping into keeping a candidate that no longer
  // fails.  The final re-verification must catch that and hand back the
  // original known repro instead of a non-failing "minimized" one.
  const std::string Src = "func f(n) {\n"
                          " a = 1;\n"
                          " b = 2;\n"
                          " return a;\n"
                          "}\n";
  unsigned Calls = 0;
  StillFailing Pred = [&Calls](const std::string &) {
    return Calls++ < 1;
  };
  MinimizeResult R = minimizeProgram(Src, Pred);
  EXPECT_EQ(R.Source, Src) << "re-verify must reject the stale candidate";
  EXPECT_TRUE(R.Parses);
  EXPECT_EQ(R.Probes, Calls);
}

TEST(FuzzMinimizerTest, CountStatements) {
  EXPECT_EQ(countStatements("func f() { return 1; }"), 1u);
  EXPECT_EQ(countStatements("func f(n) {"
                            "  s = 0;"
                            "  for L: i = 1 to n { s = s + i; }"
                            "  return s;"
                            "}"),
            4u); // assign, for, inner assign, return
  EXPECT_EQ(countStatements("not a program"), 0u);
}

//===----------------------------------------------------------------------===//
// Campaign smoke (the tier-1 acceptance gate)
//===----------------------------------------------------------------------===//

namespace {

/// Runs the 500-program seed-1 smoke campaign and checks that it comes back
/// clean, with -j1 vs -j8 batch output over the whole fuzzed corpus
/// byte-identical.
FuzzResult runCleanSmoke(bool Summarize) {
  FuzzOptions FO;
  FO.Count = 500;
  FO.Seed = 1;
  FO.BatchJobs = 8;
  FO.Oracle.Summarize = Summarize;
  stats::Frame Before = stats::captureFrame();
  FuzzResult R = runFuzz(FO);
  stats::Frame Delta = stats::captureFrame() - Before;

  EXPECT_EQ(R.Programs, 500u);
  // The pool checks the programs on its workers; every check's stats must
  // still reach the calling thread's frame.
  static const stats::Counter Checked("fuzz.programs_checked");
  static const stats::Timer Oracle("phase.oracle");
  EXPECT_EQ(Delta.Counters[Checked.index()], 500u);
  EXPECT_EQ(Delta.Timers[Oracle.index()].Spans, 500u);
  for (const FuzzFailure &F : R.Failures)
    for (const Mismatch &M : F.Mismatches)
      ADD_FAILURE() << "seed " << F.ProgramSeed << ": " << M.str() << "\n"
                    << F.Source;
  EXPECT_TRUE(R.Failures.empty());
  EXPECT_TRUE(R.BatchChecked);
  EXPECT_TRUE(R.BatchDeterministic);
  return R;
}

} // namespace

TEST(FuzzCampaignTest, Smoke500ProgramsCleanAndDeterministic) {
  FuzzResult R = runCleanSmoke(/*Summarize=*/false);

  // Every oracle category fired: the grammar keeps reaching all claim
  // families.  (If a generator change trips one of these, the grammar lost
  // a recurrence shape -- fix the generator, don't relax the bound.)
  EXPECT_GT(R.Checks.ClosedForm, 0u);
  EXPECT_GT(R.Checks.CFinite, 0u);
  EXPECT_GT(R.Checks.Partial, 0u);
  EXPECT_GT(R.Checks.WrapAround, 0u);
  EXPECT_GT(R.Checks.Periodic, 0u);
  EXPECT_GT(R.Checks.Monotonic, 0u);
  EXPECT_GT(R.Checks.TripCount, 0u);
  EXPECT_GT(R.Checks.Behavior, 0u);
  EXPECT_GT(R.Checks.Baseline, 0u);
}

TEST(FuzzCampaignTest, Smoke500SummarizeProgramsCleanAndDeterministic) {
  // The same campaign with the summarizer on, so the coupled-system solver
  // and the phase-periodic oracle meet random programs in every tier-1 run.
  FuzzResult R = runCleanSmoke(/*Summarize=*/true);
  EXPECT_TRUE(R.CacheDeterministic);
  EXPECT_GT(R.Checks.PhasePeriodic, 0u);
}

TEST(FuzzCampaignTest, InjectedFailureMinimizesToAtMostFiveStatements) {
  // Acceptance demo: a deliberately skewed oracle turns correct linear
  // classifications into mismatches; the campaign must catch one, shrink it
  // to <= 5 statements, and carry the offending claim + observed sequence.
  FuzzOptions FO;
  FO.Count = 40;
  FO.Seed = 7;
  FO.Minimize = true;
  FO.MaxFailures = 1;
  FO.BatchJobs = 0;
  FO.Oracle.InjectLinearSkew = 2;
  static const stats::Counter Checked("fuzz.programs_checked");
  stats::Frame Before = stats::captureFrame();
  FuzzResult R = runFuzz(FO);
  uint64_t SerialChecked =
      (stats::captureFrame() - Before).Counters[Checked.index()];

  ASSERT_FALSE(R.Failures.empty());
  const FuzzFailure &F = R.Failures[0];
  ASSERT_FALSE(F.Mismatches.empty());
  EXPECT_FALSE(F.MinimizedSource.empty());
  EXPECT_LE(F.MinimizedStatements, 5u) << F.MinimizedSource;
  ASSERT_FALSE(F.MinimizedMismatches.empty());
  const Mismatch &M = F.MinimizedMismatches[0];
  EXPECT_EQ(M.Check, "closed-form");
  EXPECT_FALSE(M.Claim.empty());
  EXPECT_FALSE(M.Observed.empty());
  // The campaign report renders the reduced program and the claim diff.
  std::string Text = R.renderText();
  EXPECT_NE(Text.find("FAILURES"), std::string::npos);
  EXPECT_NE(Text.find(M.Check), std::string::npos);

  // The pool stops where the serial loop stops: the same programs, the same
  // failure and repro, and the same oracle runs on the calling thread (the
  // checks it ran past the stop are dropped).  Its batch diff covers the
  // committed programs only, so it stays byte-identical.
  FO.BatchJobs = 8;
  Before = stats::captureFrame();
  FuzzResult P = runFuzz(FO);
  EXPECT_EQ((stats::captureFrame() - Before).Counters[Checked.index()],
            SerialChecked);
  EXPECT_EQ(P.Programs, R.Programs);
  ASSERT_EQ(P.Failures.size(), 1u);
  EXPECT_EQ(P.Failures[0].ProgramSeed, F.ProgramSeed);
  EXPECT_EQ(P.Failures[0].MinimizedSource, F.MinimizedSource);
  EXPECT_TRUE(P.BatchChecked);
  EXPECT_TRUE(P.BatchDeterministic);
}

TEST(FuzzCampaignTest, CampaignIsReproducible) {
  FuzzOptions FO;
  FO.Count = 25;
  FO.Seed = 99;
  FO.BatchJobs = 0;
  FuzzResult A = runFuzz(FO);
  FuzzResult B = runFuzz(FO);
  EXPECT_EQ(A.renderText(), B.renderText());
  EXPECT_EQ(A.Checks.total(), B.Checks.total());

  // Any pool size runs the same campaign as the serial loop.
  FO.BatchJobs = 2;
  FuzzResult Two = runFuzz(FO);
  FO.BatchJobs = 8;
  FuzzResult Eight = runFuzz(FO);
  EXPECT_EQ(Two.renderText(), Eight.renderText());
  for (const FuzzResult *Pooled : {&Two, &Eight}) {
    EXPECT_EQ(Pooled->Programs, A.Programs);
    EXPECT_EQ(Pooled->Checks, A.Checks);
    EXPECT_EQ(Pooled->CacheOracleRuns, A.CacheOracleRuns);
    EXPECT_TRUE(Pooled->ok());
  }
}

TEST(FuzzMinimizerTest, MultiBranchReproSurvivesMinimization) {
  // A summarizer repro: the failure lives in the interplay of the phase
  // flag, both branch arms, and the break -- ddmin must keep the whole
  // diamond (dropping one arm kills the phase cycle) while stripping the
  // unrelated statements around it.  The predicate re-runs the analysis:
  // "the summarizer still proves a phase-periodic tuple for z behind a
  // wrap-around prefix", exactly the claim an oracle mismatch would have
  // been reported against.
  const std::string Src = "func f(n) {\n"
                          " junk1 = 17;\n"
                          " junk2 = junk1 * 3;\n"
                          " t = 0;\n"
                          " z = 0;\n"
                          " acc = 0;\n"
                          " for L: i = 1 to 40 {\n"
                          " junk2 = junk2 + 1;\n"
                          " if (t == 0) {\n"
                          " z = z + 5;\n"
                          " t = 1;\n"
                          " } else {\n"
                          " z = z - 2;\n"
                          " t = 0;\n"
                          " }\n"
                          " acc = acc + junk2;\n"
                          " }\n"
                          " return z;\n"
                          "}\n";
  StillFailing Pred = [](const std::string &Candidate) {
    using namespace biv::testutil;
    if (countStatements(Candidate) == 0)
      return false;
    // Pre-validate: ddmin slices can drop a definition a later use still
    // references; analyze() would abort on those, so weed them out with
    // the non-fatal front end first.
    {
      std::vector<std::string> Errors;
      if (!frontend::parseAndLower(Candidate, Errors))
        return false;
    }
    try {
      ivclass::InductionAnalysis::Options Opts;
      Opts.Summarize = true;
      Analyzed A = analyze(Candidate, /*RunSCCP=*/true, Opts);
      const analysis::Loop *L = nullptr;
      for (const auto &Lp : A.LI->loops())
        if (!Lp->parent())
          L = Lp.get();
      if (!L)
        return false;
      for (ir::Instruction *Phi : L->header()->phis()) {
        const ivclass::Classification &C = A.IA->classify(Phi, L);
        const ivclass::Classification *W = &C;
        while (W->isWrapAround() && W->Inner)
          W = W->Inner.get();
        // The repro's claim is about the accumulator: a period-2 tuple
        // whose phase forms actually grow with the cycle index.  (The
        // bare flip-flop flag also summarizes at period 2, but with
        // invariant phases -- it must not satisfy the predicate alone.)
        if (W->isPhasePeriodic() && W->Period == 2 &&
            !W->PhaseForms.empty() && !W->PhaseForms[0].isInvariant())
          return true;
      }
    } catch (...) {
      return false;
    }
    return false;
  };
  ASSERT_TRUE(Pred(Src));
  MinimizeResult R = minimizeProgram(Src, Pred);
  // The original predicate still fails (holds) on the minimized program...
  EXPECT_TRUE(Pred(R.Source));
  EXPECT_TRUE(R.Parses);
  // ...and the diamond survived whole: both arm updates are still there,
  // while the junk tracker and the accumulator are gone.
  EXPECT_NE(R.Source.find("z = z + 5"), std::string::npos) << R.Source;
  EXPECT_NE(R.Source.find("z = z - 2"), std::string::npos) << R.Source;
  EXPECT_EQ(R.Source.find("junk1"), std::string::npos) << R.Source;
  EXPECT_EQ(R.Source.find("acc"), std::string::npos) << R.Source;
  // 1-minimal core: flag init, z init, the loop, the diamond (two arm
  // bodies, two flag flips), and nothing else.
  EXPECT_LE(R.Statements, 9u) << R.Source;
}
