//===- tests/corpus_test.cpp - Regression corpus golden tests ----------------===//
//
// Every `.biv` file under tests/corpus/ is (a) run through the differential
// oracle, which must come back clean, and (b) analyzed and diffed against
// its `.expect` golden report.  Minimized fuzzer finds land here as
// one-file-plus-golden PRs.
//
// Regenerate goldens after an intentional classifier change with:
//   BIV_UPDATE_EXPECT=1 ./corpus_test
//
//===----------------------------------------------------------------------===//

#include "driver/BatchAnalyzer.h"
#include "fuzz/Oracle.h"
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using namespace biv;

namespace {

std::string slurp(const fs::path &P) {
  std::ifstream In(P);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::vector<fs::path> corpusFiles() {
  std::vector<fs::path> Files;
  for (const auto &E : fs::directory_iterator(BIV_CORPUS_DIR))
    if (E.path().extension() == ".biv")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::string analyzeReport(const std::string &Name, const std::string &Text) {
  driver::BatchOptions BO;
  BO.Jobs = 1;
  BO.Report.AllValues = true;
  BO.Summarize = true;
  driver::BatchResult R = driver::analyzeBatch({{Name, Text}}, BO);
  std::string Out;
  for (const driver::UnitResult &U : R.Units) {
    for (const std::string &E : U.Errors)
      Out += "error: " + E + "\n";
    Out += U.ReportText;
  }
  return Out;
}

} // namespace

TEST(CorpusTest, DirectoryIsNotEmpty) {
  EXPECT_FALSE(corpusFiles().empty())
      << "no .biv files under " << BIV_CORPUS_DIR;
}

TEST(CorpusTest, OracleCleanOnEveryProgram) {
  for (const fs::path &P : corpusFiles()) {
    std::string Src = slurp(P);
    fuzz::OracleOptions OO;
    OO.Summarize = true;
    fuzz::OracleResult R = fuzz::checkProgram(Src, OO);
    EXPECT_TRUE(R.ParseOK) << P.filename();
    for (const fuzz::Mismatch &M : R.Mismatches)
      ADD_FAILURE() << P.filename().string() << ": " << M.str();
  }
}

TEST(CorpusTest, ReportsMatchGoldens) {
  const bool Update = std::getenv("BIV_UPDATE_EXPECT") != nullptr;
  for (const fs::path &P : corpusFiles()) {
    std::string Report = analyzeReport(P.stem().string(), slurp(P));
    fs::path Golden = P;
    Golden.replace_extension(".expect");
    if (Update) {
      std::ofstream Out(Golden);
      Out << Report;
      continue;
    }
    ASSERT_TRUE(fs::exists(Golden))
        << "missing golden " << Golden.filename()
        << " (run with BIV_UPDATE_EXPECT=1 to create)";
    EXPECT_EQ(Report, slurp(Golden)) << P.filename();
  }
}

TEST(CorpusTest, CachedReportsMatchGoldensColdWarmAndStale) {
  // The whole corpus, three times over one on-disk cache file: a cold run
  // (every unit a miss) and a warm run (every unit a hit) must both equal
  // the committed goldens, and a salt bump must invalidate everything while
  // still reproducing the goldens from scratch.  Golden comparisons are
  // skipped while BIV_UPDATE_EXPECT regenerates them, but the cold-vs-warm
  // byte identity holds either way.
  const bool Update = std::getenv("BIV_UPDATE_EXPECT") != nullptr;

  fs::path CachePath =
      fs::path(::testing::TempDir()) / "corpus_golden.cache";
  fs::remove(CachePath);
  std::string Err;

  // A file with several functions splits into one unit per function;
  // its golden is the concatenation of their reports, in order.
  std::vector<driver::SourceInput> Sources;
  std::vector<size_t> UnitsPerFile;
  size_t NumUnits = 0;
  for (const fs::path &P : corpusFiles()) {
    Sources.push_back({P.stem().string(), slurp(P)});
    UnitsPerFile.push_back(driver::splitFunctions(Sources.back()).size());
    NumUnits += UnitsPerFile.back();
  }

  auto runWithCache = [&](cache::AnalysisCache &C) {
    driver::BatchOptions BO;
    BO.Jobs = 1;
    BO.Report.AllValues = true;
    BO.Summarize = true;
    BO.Cache = &C;
    return driver::analyzeBatch(Sources, BO);
  };
  auto checkGoldens = [&](const driver::BatchResult &R, const char *Pass) {
    ASSERT_EQ(R.Units.size(), NumUnits);
    if (Update)
      return;
    auto U = R.Units.begin();
    for (size_t F = 0; F < Sources.size(); ++F) {
      std::string Report;
      for (size_t K = 0; K < UnitsPerFile[F]; ++K, ++U) {
        for (const std::string &E : U->Errors)
          Report += "error: " + E + "\n";
        Report += U->ReportText;
      }
      fs::path Golden =
          fs::path(BIV_CORPUS_DIR) / (Sources[F].Name + ".expect");
      ASSERT_TRUE(fs::exists(Golden)) << Golden;
      EXPECT_EQ(Report, slurp(Golden)) << Pass << ": " << Sources[F].Name;
    }
  };

  // Cold: nothing on disk yet, every unit analyzed and appended.
  {
    cache::AnalysisCache C;
    ASSERT_TRUE(C.open(CachePath.string(), Err)) << Err;
    EXPECT_EQ(C.entryCount(), 0u);
    driver::BatchResult R = runWithCache(C);
    checkGoldens(R, "cold");
    ASSERT_TRUE(C.save(Err)) << Err;
  }

  // Warm: one read serves the whole corpus; reports still golden.
  {
    cache::AnalysisCache C;
    ASSERT_TRUE(C.open(CachePath.string(), Err)) << Err;
    EXPECT_FALSE(C.invalidated());
    EXPECT_GT(C.entryCount(), 0u);
    driver::BatchResult R = runWithCache(C);
    checkGoldens(R, "warm");
    EXPECT_EQ(C.pendingCount(), 0u) << "a warm corpus pass missed";
  }

  // Stale: rewrite the salt u64 at header offset 16 to the pre-c-finite
  // value, turning the file into exactly what a cache written before the
  // lattice extension looks like.  The cache discards itself and
  // re-analysis still matches.
  {
    std::fstream F(CachePath,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.is_open());
    F.seekp(16);
    uint64_t Stale = 1; // AnalysisVersionSalt before the c-finite bump
    static_assert(cache::AnalysisVersionSalt != 1,
                  "pre-extension salt must differ from the current salt");
    F.write(reinterpret_cast<const char *>(&Stale), sizeof Stale);
    ASSERT_TRUE(F.good());
  }
  {
    cache::AnalysisCache C;
    ASSERT_TRUE(C.open(CachePath.string(), Err)) << Err;
    EXPECT_TRUE(C.invalidated());
    EXPECT_EQ(C.entryCount(), 0u);
    driver::BatchResult R = runWithCache(C);
    checkGoldens(R, "stale");
    EXPECT_EQ(C.pendingCount(), NumUnits);
  }

  fs::remove(CachePath);
}
