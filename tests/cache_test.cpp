//===- tests/cache_test.cpp - Content-addressed analysis cache -----------===//
//
// Unit tests for cache/AnalysisCache: digesting, payload round trips, the
// append-only file format, and -- most importantly -- every way a cache file
// can be stale or damaged.  The invariant under test throughout: the cache
// may forget, but it may never lie (serve bytes for the wrong key) and
// never crash on hostile input.
//
//===----------------------------------------------------------------------===//

#include "cache/AnalysisCache.h"
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

using namespace biv;
using namespace biv::cache;

namespace {

/// A per-test scratch path that is removed on destruction.
struct TempPath {
  std::string Path;
  explicit TempPath(const std::string &Name)
      : Path((std::filesystem::path(::testing::TempDir()) / Name).string()) {
    std::filesystem::remove(Path);
  }
  ~TempPath() { std::filesystem::remove(Path); }
};

CacheEntry sampleEntry(const std::string &Report) {
  CacheEntry E;
  E.ReportText = Report;
  E.Instructions = 42;
  E.Loops = 2;
  E.Counters = {{"ivclass.kind.linear", 2}, {"ivclass.kind.polynomial", 1}};
  return E;
}

/// Overwrites the u64 at byte \p Offset of \p Path.
void patchU64(const std::string &Path, uint64_t Offset, uint64_t V) {
  std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(F.is_open());
  F.seekp(static_cast<std::streamoff>(Offset));
  F.write(reinterpret_cast<const char *>(&V), sizeof V);
  ASSERT_TRUE(F.good());
}

/// A reader maps a 200-entry cache; the file's tail is then damaged, and a
/// third instance writes a new file with one entry in its place.  Exits 0
/// when the reader still serves the entry at the end of its mapping.
[[noreturn]] void lookUpPastARewrite(const std::string &Path) {
  std::string Err;
  uint64_t Last = 0;
  {
    AnalysisCache Writer;
    if (!Writer.open(Path, Err))
      std::exit(2);
    for (int I = 0; I < 200; ++I) {
      uint64_t D = unitDigest("func " + std::to_string(I), 0);
      Writer.insert(D, sampleEntry(std::string(500, char('a' + I % 26))));
      Last = std::max(Last, D); // records lie in digest order
    }
    if (!Writer.save(Err))
      std::exit(2);
  }
  AnalysisCache Reader;
  if (!Reader.open(Path, Err))
    std::exit(3);
  patchU64(Path, std::filesystem::file_size(Path) - 8, 0);
  AnalysisCache Rewriter;
  if (!Rewriter.open(Path, Err) || !Rewriter.invalidated())
    std::exit(4);
  Rewriter.insert(unitDigest("fresh", 0), sampleEntry("fresh"));
  if (!Rewriter.save(Err))
    std::exit(5);
  const CacheEntry *E = Reader.lookup(Last);
  std::exit(E && E->ReportText.size() == 500 ? 0 : 6);
}

} // namespace

TEST(CacheDigestTest, Fnv1aNeverZeroAndSeedSensitive) {
  EXPECT_NE(fnv1a(""), 0u);
  EXPECT_NE(fnv1a("x"), 0u);
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abc", /*Seed=*/1));
  // Deterministic across calls.
  EXPECT_EQ(fnv1a("stable"), fnv1a("stable"));
}

TEST(CacheDigestTest, UnitDigestSeparatesContentAndOptions) {
  const std::string IR = "func f:\n  entry:\n    ret 0\n";
  // Same inputs, same key; any input change, a different key.  An
  // options-bit flip must miss even with identical IR -- report bytes
  // depend on those switches.
  EXPECT_EQ(unitDigest(IR, 5), unitDigest(IR, 5));
  EXPECT_NE(unitDigest(IR, 5), unitDigest(IR, 4));
  EXPECT_NE(unitDigest(IR, 5), unitDigest(IR + " ", 5));
  EXPECT_NE(unitDigest(IR, 5), 0u);
}

TEST(CacheEntryTest, SerializeRoundTripsEverything) {
  CacheEntry E = sampleEntry("report body\nwith two lines\n");
  std::string Bytes = E.serialize();

  CacheEntry D;
  ASSERT_TRUE(D.deserialize(Bytes));
  EXPECT_EQ(D.ReportText, E.ReportText);
  EXPECT_EQ(D.Instructions, E.Instructions);
  EXPECT_EQ(D.Loops, E.Loops);
  EXPECT_EQ(D.Counters, E.Counters);
}

TEST(CacheEntryTest, DeserializeRejectsMalformedBytes) {
  std::string Bytes = sampleEntry("r").serialize();

  CacheEntry D;
  // Truncation anywhere must fail cleanly, not read out of bounds.
  for (size_t Cut : {size_t(0), size_t(4), Bytes.size() / 2, Bytes.size() - 1})
    EXPECT_FALSE(D.deserialize(Bytes.substr(0, Cut))) << "cut at " << Cut;
  // Trailing garbage is as malformed as a missing tail: length fields must
  // account for every byte.
  EXPECT_FALSE(D.deserialize(Bytes + "x"));
  EXPECT_TRUE(D.deserialize(Bytes));
}

TEST(AnalysisCacheTest, MissingFileOpensEmpty) {
  TempPath P("cache_missing.bin");
  AnalysisCache C;
  std::string Err;
  ASSERT_TRUE(C.open(P.Path, Err)) << Err;
  EXPECT_FALSE(C.invalidated());
  EXPECT_EQ(C.entryCount(), 0u);
  EXPECT_EQ(C.lookup(fnv1a("anything")), nullptr);
}

TEST(AnalysisCacheTest, InsertLookupSaveReopen) {
  TempPath P("cache_roundtrip.bin");
  uint64_t D1 = unitDigest("func a", 0), D2 = unitDigest("func b", 0);

  {
    AnalysisCache C;
    std::string Err;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    C.insert(D1, sampleEntry("report A"));
    C.insert(D2, sampleEntry("report B"));
    EXPECT_EQ(C.pendingCount(), 2u);
    // Pending entries are visible before save.
    ASSERT_NE(C.lookup(D1), nullptr);
    EXPECT_EQ(C.lookup(D1)->ReportText, "report A");
    ASSERT_TRUE(C.save(Err)) << Err;
    EXPECT_EQ(C.pendingCount(), 0u);
  }

  AnalysisCache C2;
  std::string Err;
  ASSERT_TRUE(C2.open(P.Path, Err)) << Err;
  EXPECT_FALSE(C2.invalidated());
  EXPECT_EQ(C2.entryCount(), 2u);
  ASSERT_NE(C2.lookup(D1), nullptr);
  ASSERT_NE(C2.lookup(D2), nullptr);
  EXPECT_EQ(C2.lookup(D1)->ReportText, "report A");
  EXPECT_EQ(C2.lookup(D2)->ReportText, "report B");
  EXPECT_EQ(C2.lookup(D2)->Counters, sampleEntry("x").Counters);
  EXPECT_EQ(C2.lookup(unitDigest("func c", 0)), nullptr);
}

TEST(AnalysisCacheTest, AppendPreservesExistingEntries) {
  TempPath P("cache_append.bin");
  uint64_t D1 = unitDigest("func a", 0), D2 = unitDigest("func b", 0);
  std::string Err;

  {
    AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    C.insert(D1, sampleEntry("first"));
    ASSERT_TRUE(C.save(Err)) << Err;
  }
  uintmax_t SizeAfterFirst = std::filesystem::file_size(P.Path);
  {
    // A warm run that discovers one new unit: appends, never rewrites.
    AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    EXPECT_EQ(C.entryCount(), 1u);
    C.insert(D2, sampleEntry("second"));
    ASSERT_TRUE(C.save(Err)) << Err;
  }
  EXPECT_GT(std::filesystem::file_size(P.Path), SizeAfterFirst);
  {
    AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    EXPECT_EQ(C.entryCount(), 2u);
    ASSERT_NE(C.lookup(D1), nullptr);
    EXPECT_EQ(C.lookup(D1)->ReportText, "first");
    ASSERT_NE(C.lookup(D2), nullptr);
    EXPECT_EQ(C.lookup(D2)->ReportText, "second");
  }
}

TEST(AnalysisCacheTest, SaveWithNothingPendingIsANoOp) {
  TempPath P("cache_noop.bin");
  std::string Err;
  {
    AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    C.insert(unitDigest("f", 0), sampleEntry("r"));
    ASSERT_TRUE(C.save(Err)) << Err;
  }
  auto Before = std::filesystem::last_write_time(P.Path);
  uintmax_t Size = std::filesystem::file_size(P.Path);
  {
    AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    ASSERT_TRUE(C.save(Err)) << Err; // fully warm run: no writes at all
  }
  EXPECT_EQ(std::filesystem::file_size(P.Path), Size);
  EXPECT_EQ(std::filesystem::last_write_time(P.Path), Before);
}

TEST(AnalysisCacheTest, DuplicateInsertKeepsFirst) {
  AnalysisCache C; // never opened: pure in-memory use is supported
  uint64_t D = unitDigest("f", 0);
  C.insert(D, sampleEntry("first"));
  C.insert(D, sampleEntry("shadowed"));
  EXPECT_EQ(C.pendingCount(), 1u);
  ASSERT_NE(C.lookup(D), nullptr);
  EXPECT_EQ(C.lookup(D)->ReportText, "first");
}

TEST(AnalysisCacheTest, StaleSaltInvalidatesWholesale) {
  TempPath P("cache_stale_salt.bin");
  uint64_t D = unitDigest("f", 0);
  std::string Err;
  {
    AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    C.insert(D, sampleEntry("old analysis"));
    ASSERT_TRUE(C.save(Err)) << Err;
  }
  // Simulate an analysis-semantics bump: the salt u64 lives at header
  // offset 16 (after magic and format).
  patchU64(P.Path, 16, AnalysisVersionSalt + 1);

  AnalysisCache C;
  ASSERT_TRUE(C.open(P.Path, Err)) << Err; // stale is not an I/O error
  EXPECT_TRUE(C.invalidated());
  EXPECT_EQ(C.entryCount(), 0u);
  EXPECT_EQ(C.lookup(D), nullptr);

  // The rebuilt cache must be loadable again.
  C.insert(D, sampleEntry("new analysis"));
  ASSERT_TRUE(C.save(Err)) << Err;
  AnalysisCache C2;
  ASSERT_TRUE(C2.open(P.Path, Err)) << Err;
  EXPECT_FALSE(C2.invalidated());
  ASSERT_NE(C2.lookup(D), nullptr);
  EXPECT_EQ(C2.lookup(D)->ReportText, "new analysis");
}

TEST(AnalysisCacheTest, DamagedFilesInvalidateNotCrash) {
  uint64_t D = unitDigest("f", 0);
  std::string Err;

  // A valid file to mutilate, regenerated per scenario.
  auto makeValid = [&](const std::string &Path) {
    std::filesystem::remove(Path);
    AnalysisCache C;
    ASSERT_TRUE(C.open(Path, Err)) << Err;
    C.insert(D, sampleEntry("payload"));
    ASSERT_TRUE(C.save(Err)) << Err;
  };

  TempPath P("cache_damage.bin");

  // Truncated mid-log: the tail footer is gone.
  makeValid(P.Path);
  std::filesystem::resize_file(P.Path,
                               std::filesystem::file_size(P.Path) - 9);
  {
    AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    EXPECT_TRUE(C.invalidated());
    EXPECT_EQ(C.entryCount(), 0u);
  }

  // Bad leading magic.
  makeValid(P.Path);
  patchU64(P.Path, 0, 0xdeadbeefull);
  {
    AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    EXPECT_TRUE(C.invalidated());
  }

  // Future format revision, and format 2, whose entries still carried the
  // kind and region tallies.
  for (uint64_t Format : {CacheFormatVersion + 1, uint64_t(2)}) {
    makeValid(P.Path);
    patchU64(P.Path, 8, Format);
    AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    EXPECT_TRUE(C.invalidated()) << "format " << Format;
  }

  // Shorter than even a header.
  makeValid(P.Path);
  std::filesystem::resize_file(P.Path, 7);
  {
    AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    EXPECT_TRUE(C.invalidated());
    // And a save from the invalidated state rewrites a loadable file.
    C.insert(D, sampleEntry("rebuilt"));
    ASSERT_TRUE(C.save(Err)) << Err;
  }
  {
    AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    EXPECT_FALSE(C.invalidated());
    ASSERT_NE(C.lookup(D), nullptr);
    EXPECT_EQ(C.lookup(D)->ReportText, "rebuilt");
  }
}

TEST(AnalysisCacheTest, RewriteLeavesALiveReadersMappingWhole) {
  // A save that finds nothing valid on disk writes a new image.  Written in
  // place and truncated, the old inode would shrink under a reader that
  // still maps it, and its next lookup past the new end would die with
  // SIGBUS; run in a child process so that fails this test, not the suite.
  TempPath P("cache_rewrite_reader.bin");
  EXPECT_EXIT(lookUpPastARewrite(P.Path), ::testing::ExitedWithCode(0), "");
}

TEST(AnalysisCacheTest, UnwritablePathFailsLoudly) {
  // Persisting to a path that cannot be written must produce an error
  // string, not a silent success.
  AnalysisCache C;
  std::string Err;
  ASSERT_TRUE(
      C.open("/nonexistent-biv-dir/sub/cache.bin", Err)); // missing = empty
  C.insert(unitDigest("f", 0), sampleEntry("r"));
  EXPECT_FALSE(C.save(Err));
  EXPECT_NE(Err.find("cache"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Multi-writer world: generations, refresh, compaction, racing appenders.
// The invariant stays the same -- forget or retry cleanly, never serve a
// corrupt hit -- but now the damage comes from concurrent processes, not
// just a mutilated file.
//===----------------------------------------------------------------------===//

TEST(AnalysisCacheTest, GenerationAdvancesPerSave) {
  TempPath P("cache_generation.bin");
  std::string Err;
  AnalysisCache C;
  ASSERT_TRUE(C.open(P.Path, Err)) << Err;
  EXPECT_EQ(C.generation(), 0u); // no valid file yet
  C.insert(unitDigest("a", 0), sampleEntry("a"));
  ASSERT_TRUE(C.save(Err)) << Err;
  EXPECT_EQ(C.generation(), 1u);
  C.insert(unitDigest("b", 0), sampleEntry("b"));
  ASSERT_TRUE(C.save(Err)) << Err;
  EXPECT_EQ(C.generation(), 2u);

  // A fresh open reads the generation out of the tail.
  AnalysisCache C2;
  ASSERT_TRUE(C2.open(P.Path, Err)) << Err;
  EXPECT_EQ(C2.generation(), 2u);
}

TEST(AnalysisCacheTest, RefreshIfChangedAdoptsAnotherWritersAppend) {
  TempPath P("cache_refresh.bin");
  std::string Err;
  uint64_t D1 = unitDigest("a", 0), D2 = unitDigest("b", 0);

  AnalysisCache Reader, Writer;
  ASSERT_TRUE(Reader.open(P.Path, Err)) << Err;
  ASSERT_TRUE(Writer.open(P.Path, Err)) << Err;

  Writer.insert(D1, sampleEntry("from writer"));
  ASSERT_TRUE(Writer.save(Err)) << Err;

  // The reader's mapped view predates the save; one refresh adopts it.
  EXPECT_EQ(Reader.lookup(D1), nullptr);
  EXPECT_TRUE(Reader.refreshIfChanged());
  ASSERT_NE(Reader.lookup(D1), nullptr);
  EXPECT_EQ(Reader.lookup(D1)->ReportText, "from writer");
  // Nothing moved since: refresh is a cheap no.
  EXPECT_FALSE(Reader.refreshIfChanged());

  // The reader's own pending work survives a refresh.
  Reader.insert(D2, sampleEntry("from reader"));
  Writer.insert(unitDigest("c", 0), sampleEntry("more"));
  ASSERT_TRUE(Writer.save(Err)) << Err;
  EXPECT_TRUE(Reader.refreshIfChanged());
  ASSERT_NE(Reader.lookup(D2), nullptr);
  EXPECT_EQ(Reader.lookup(D2)->ReportText, "from reader");
}

TEST(AnalysisCacheTest, RacingAppendersBothLand) {
  // Two instances (two open file descriptions, so a real flock contest --
  // same shape as two worker processes) append different entries without
  // coordinating.  Both saves must succeed and the union must be on disk.
  TempPath P("cache_race.bin");
  std::string Err;
  uint64_t DA = unitDigest("a", 0), DB = unitDigest("b", 0);

  AnalysisCache A, B;
  ASSERT_TRUE(A.open(P.Path, Err)) << Err;
  ASSERT_TRUE(B.open(P.Path, Err)) << Err;
  A.insert(DA, sampleEntry("A's entry"));
  B.insert(DB, sampleEntry("B's entry"));
  ASSERT_TRUE(A.save(Err)) << Err;
  // B's loaded view (generation 0) is now stale; its save must merge, not
  // clobber A's append.
  ASSERT_TRUE(B.save(Err)) << Err;
  EXPECT_EQ(B.generation(), 2u);

  AnalysisCache C;
  ASSERT_TRUE(C.open(P.Path, Err)) << Err;
  EXPECT_EQ(C.entryCount(), 2u);
  ASSERT_NE(C.lookup(DA), nullptr);
  EXPECT_EQ(C.lookup(DA)->ReportText, "A's entry");
  ASSERT_NE(C.lookup(DB), nullptr);
  EXPECT_EQ(C.lookup(DB)->ReportText, "B's entry");

  // And the duplicate-digest race: both discover the same unit.  First
  // writer wins; the second's save drops its now-redundant copy.
  AnalysisCache X, Y;
  ASSERT_TRUE(X.open(P.Path, Err)) << Err;
  ASSERT_TRUE(Y.open(P.Path, Err)) << Err;
  uint64_t DD = unitDigest("dup", 0);
  X.insert(DD, sampleEntry("first copy"));
  Y.insert(DD, sampleEntry("second copy"));
  ASSERT_TRUE(X.save(Err)) << Err;
  ASSERT_TRUE(Y.save(Err)) << Err;
  AnalysisCache Z;
  ASSERT_TRUE(Z.open(P.Path, Err)) << Err;
  EXPECT_EQ(Z.entryCount(), 3u);
  ASSERT_NE(Z.lookup(DD), nullptr);
  EXPECT_EQ(Z.lookup(DD)->ReportText, "first copy");
}

TEST(AnalysisCacheTest, CompactionEvictsColdEntriesAndBoundsTheFile) {
  TempPath P("cache_compact.bin");
  std::string Err;
  auto digestOf = [](int I) {
    return unitDigest("func " + std::to_string(I), 0);
  };

  {
    AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    for (int I = 0; I < 12; ++I)
      C.insert(digestOf(I), sampleEntry("report for function " +
                                        std::to_string(I)));
    ASSERT_TRUE(C.save(Err)) << Err;
    EXPECT_EQ(C.compactions(), 0u); // unbounded: no cap, no compaction
  }
  uintmax_t Unbounded = std::filesystem::file_size(P.Path);

  constexpr uint64_t Cap = 2048;
  ASSERT_GT(Unbounded, Cap) << "test premise: 12 entries exceed the cap";
  uint64_t HotA = digestOf(7), HotB = digestOf(3);
  {
    AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    C.setMaxBytes(Cap);
    // Recency is per-process: touch two survivors-to-be, then trigger a
    // compacting save with one fresh insert (the most recent of all).
    ASSERT_NE(C.lookup(HotA), nullptr);
    ASSERT_NE(C.lookup(HotB), nullptr);
    C.insert(digestOf(100), sampleEntry("the newest entry"));
    ASSERT_TRUE(C.save(Err)) << Err;
    EXPECT_EQ(C.compactions(), 1u);
    // The compacted view keeps serving in-process.
    ASSERT_NE(C.lookup(digestOf(100)), nullptr);
  }
  EXPECT_LE(std::filesystem::file_size(P.Path), Cap);

  // Survivors are the most recently used; the untouched tail is gone.
  AnalysisCache C2;
  ASSERT_TRUE(C2.open(P.Path, Err)) << Err;
  EXPECT_FALSE(C2.invalidated());
  ASSERT_NE(C2.lookup(digestOf(100)), nullptr);
  EXPECT_EQ(C2.lookup(digestOf(100))->ReportText, "the newest entry");
  ASSERT_NE(C2.lookup(HotA), nullptr);
  ASSERT_NE(C2.lookup(HotB), nullptr);
  EXPECT_LT(C2.entryCount(), 12u);

  // Repeated capped saves never push the file back over the cap.
  C2.setMaxBytes(Cap);
  for (int I = 200; I < 212; ++I) {
    C2.insert(digestOf(I), sampleEntry("refill " + std::to_string(I)));
    ASSERT_TRUE(C2.save(Err)) << Err;
    EXPECT_LE(std::filesystem::file_size(P.Path), Cap);
  }
}

TEST(AnalysisCacheTest, StaleGenerationAfterCompactionSwap) {
  // A live reader whose mmap snapshot predates a compaction swap must (a)
  // keep serving its own consistent snapshot, (b) detect the swap via
  // refreshIfChanged, and (c) merge -- not clobber -- on its next save.
  TempPath P("cache_swap.bin");
  std::string Err;
  auto digestOf = [](int I) {
    return unitDigest("func " + std::to_string(I), 0);
  };

  {
    AnalysisCache Seed;
    ASSERT_TRUE(Seed.open(P.Path, Err)) << Err;
    // Enough entries that one more pushes the file past the 2048-byte cap.
    for (int I = 0; I < 20; ++I)
      Seed.insert(digestOf(I), sampleEntry("seed " + std::to_string(I)));
    ASSERT_TRUE(Seed.save(Err)) << Err;
  }

  AnalysisCache Reader;
  ASSERT_TRUE(Reader.open(P.Path, Err)) << Err;
  uint64_t GenBefore = Reader.generation();

  {
    AnalysisCache Compactor;
    ASSERT_TRUE(Compactor.open(P.Path, Err)) << Err;
    Compactor.setMaxBytes(2048);
    Compactor.insert(digestOf(50), sampleEntry("tipping point"));
    ASSERT_TRUE(Compactor.save(Err)) << Err;
    ASSERT_EQ(Compactor.compactions(), 1u);
  }

  // (a) The reader's old snapshot still serves -- the swapped-out inode
  // stays alive under its mapping.
  ASSERT_NE(Reader.lookup(digestOf(0)), nullptr);
  // (b) The swap is visible.
  EXPECT_TRUE(Reader.refreshIfChanged());
  EXPECT_GT(Reader.generation(), GenBefore);
  // (c) New work saved from the reader merges into the compacted file.
  Reader.insert(digestOf(60), sampleEntry("post-swap entry"));
  ASSERT_TRUE(Reader.save(Err)) << Err;
  AnalysisCache Check;
  ASSERT_TRUE(Check.open(P.Path, Err)) << Err;
  ASSERT_NE(Check.lookup(digestOf(60)), nullptr);
  ASSERT_NE(Check.lookup(digestOf(50)), nullptr);
}

TEST(AnalysisCacheTest, TornAppendDegradesToInvalidationOrRetry) {
  // A writer killed mid-append leaves header + partial record and no valid
  // tail.  Openers must invalidate wholesale; live readers must skip the
  // torn state (clean retry), not adopt it; the next save must rebuild.
  TempPath P("cache_torn.bin");
  std::string Err;
  // A fresh save lays records out in digest order, so give "intact" (the
  // record the tear must spare) whichever digest sorts first.
  uint64_t D = std::min(unitDigest("f", 0), unitDigest("g", 0));
  uint64_t D2 = std::max(unitDigest("f", 0), unitDigest("g", 0));
  {
    AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    C.insert(D, sampleEntry("intact"));
    C.insert(D2, sampleEntry("also intact"));
    ASSERT_TRUE(C.save(Err)) << Err;
  }

  AnalysisCache Reader;
  ASSERT_TRUE(Reader.open(P.Path, Err)) << Err;

  // Tear the file mid-record (inside the second entry's bytes): the first
  // record spans [24, 24 + 16 + |entry|), so cut a little past its end.
  // Computing the offset from the record's real length keeps the tear on
  // the second record no matter how CacheEntry's layout evolves.
  uintmax_t Rec1End = 24 + 16 + sampleEntry("intact").serialize().size();
  ASSERT_GT(std::filesystem::file_size(P.Path), Rec1End + 16);
  std::filesystem::resize_file(P.Path, Rec1End + 10);

  // The live reader: refresh sees a change but refuses the torn image and
  // keeps serving its intact snapshot.
  EXPECT_FALSE(Reader.refreshIfChanged());
  ASSERT_NE(Reader.lookup(D), nullptr);
  EXPECT_EQ(Reader.lookup(D)->ReportText, "intact");

  // A fresh opener: wholesale invalidation, then a clean rebuild.
  {
    AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    EXPECT_TRUE(C.invalidated());
    EXPECT_EQ(C.entryCount(), 0u);
    C.insert(D, sampleEntry("rebuilt"));
    ASSERT_TRUE(C.save(Err)) << Err;
  }
  AnalysisCache C2;
  ASSERT_TRUE(C2.open(P.Path, Err)) << Err;
  EXPECT_FALSE(C2.invalidated());
  ASSERT_NE(C2.lookup(D), nullptr);
  EXPECT_EQ(C2.lookup(D)->ReportText, "rebuilt");

  // The reader eventually adopts the rebuilt (valid) image.
  EXPECT_TRUE(Reader.refreshIfChanged());
  ASSERT_NE(Reader.lookup(D), nullptr);
}

TEST(AnalysisCacheTest, CorruptPayloadUnderLazyProbeNeverServesALie) {
  // Structural validation happens at open; payloads deserialize on first
  // lookup.  A payload whose bytes rotted between the two must miss -- and
  // take the whole disk index with it -- never return garbage.
  TempPath P("cache_lazy_corrupt.bin");
  std::string Err;
  uint64_t D1 = unitDigest("a", 0);
  {
    AnalysisCache C;
    ASSERT_TRUE(C.open(P.Path, Err)) << Err;
    C.insert(D1, sampleEntry("to be corrupted"));
    ASSERT_TRUE(C.save(Err)) << Err;
  }
  // The single record starts right after the 24-byte header; its payload
  // starts 16 bytes later with the ReportText length u64.  Blow that up:
  // the frame stays structurally valid, the payload does not.
  patchU64(P.Path, 24 + 16, uint64_t(1) << 40);

  AnalysisCache C;
  ASSERT_TRUE(C.open(P.Path, Err)) << Err;
  EXPECT_FALSE(C.invalidated()) << "structure is intact at open";
  EXPECT_EQ(C.entryCount(), 1u);
  EXPECT_EQ(C.lookup(D1), nullptr) << "corrupt payload must miss";
  EXPECT_TRUE(C.invalidated());
  EXPECT_EQ(C.lookup(D1), nullptr) << "and stay missing";
}
