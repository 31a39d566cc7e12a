//===- cache/AnalysisCache.h - Content-addressed analysis cache -*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent, content-addressed cache of per-function analysis results,
/// the scaling lever behind `bivc --batch --cache FILE` and the daemon's
/// shared warm cache: re-analyzing a mostly-unchanged corpus only pays for
/// the units whose content changed.
///
/// Keying (DESIGN.md §9).  The key is a 64-bit FNV-1a digest of
///  - the *lowered function's canonical IR print* (so formatting and
///    comments never miss, and textually different sources that lower to
///    the same IR share an entry),
///  - an analysis-version salt (`AnalysisVersionSalt`, bumped whenever
///    ivclass / dependence / transform code changes what the analysis
///    *means* -- a stale-salt file is discarded wholesale on load), and
///  - an options fingerprint (driver::AnalysisOptions::toBits(): SCCP,
///    exit-value materialization, classification on/off, all-values,
///    nested tuples, multi-branch summarization).
///
/// Values are the per-function payload driver::analyzeUnit builds: the
/// rendered report, instruction/loop totals, and the unit's *analysis-phase
/// counter deltas* (captured after the frontend, so a warm run -- which
/// still parses in order to hash -- can replay them without double
/// counting).  The counters carry the per-kind and per-region tallies.
/// Wolfe's algorithm is deterministic and non-iterative per function, which
/// is what makes a hit byte-identical to a recomputation (the fuzz oracle's
/// cache mode checks exactly that).
///
/// File format (v3): a single append-only log with an index footer, so a
/// warm run does one open + one mmap, not N file opens.
///
///   [magic u64][format u64][salt u64]                   header
///   ([digest u64][len u64][payload len bytes])*         entry log
///   [capacity u64]([digest u64][offset u64])*           open-addressed index
///   [index_off u64][count u64][generation u64][magic2 u64]  tail
///
/// Appending rewrites only the footer region (new entries land where the
/// old index began); entry bytes, once written, are never touched, and the
/// file never shrinks.  Every whole-image write (the first save, the
/// rewrite of a stale or damaged file, a compaction) goes to a temp file
/// that is fsynced and renamed into place, so no save rewrites or
/// truncates a file another process may have mapped -- the invariant that
/// makes concurrently-mapped readers safe.  The
/// *generation* counter in the tail advances on every successful save, so
/// a process whose in-memory view was loaded at generation G can tell that
/// the file moved under it (another appender, or a compaction swap) and
/// merge instead of clobbering.  All integers are host-endian -- the cache
/// is a local artifact, not an interchange format.  Any structural damage
/// (bad magic, stale salt or format, truncation, out-of-range offsets)
/// invalidates the whole file: the cache reopens empty and the next save
/// replaces it, trading re-analysis for never serving a corrupt entry.
///
/// Cross-process safety (DESIGN.md §13).  Many processes may share one
/// cache file:
///
///  - *Probes are mmap read-mostly.*  open() maps the file read-only and
///    parses just the index; entry payloads deserialize lazily on first
///    lookup.  Because the entry log is append-only, bytes below our
///    loaded index offset never change, and a compaction swap replaces the
///    whole inode -- a live mapping keeps reading its own consistent
///    snapshot either way.
///  - *The appender takes an advisory flock.*  save() locks the file
///    (re-opening when a compaction renamed a new inode into place),
///    re-reads the on-disk generation, and when the file advanced past its
///    loaded view it merges: adopt the disk's entries, drop pending
///    inserts that now exist, append only what is still new.  Two
///    processes racing the lock both land their entries.
///  - *Compaction bounds the file.*  With a byte cap configured
///    (setMaxBytes / `--cache-max-bytes`), a save whose result would
///    exceed the cap writes the whole-image temp file with only the most
///    recently used entries that fit (LRU-ish: recency is tracked per
///    process at lookup/insert), with the generation advanced.  Readers
///    detect the swap via refreshIfChanged() (inode/size/generation
///    comparison).
///  - *One mapper.*  open(), refreshIfChanged() and every save map the file
///    through mapFile(); a save adopts the index it built, without
///    re-parsing.
///
/// Thread-safety within a process: many concurrent readers, one writer.
/// lookup() takes a shared lock (upgrading briefly to materialize a disk
/// entry) and insert()/open()/save() an exclusive one.  Returned entry
/// pointers stay valid after the lock drops: entries live in a node-based
/// map whose nodes are never erased while the cache is open (open()
/// rebuilds the map, but only before any worker runs; runtime
/// invalidation only forgets the *disk index*, never materialized nodes).
/// The batch driver still collects misses per unit slot and inserts them
/// in input order after the pool drains -- not for safety, but to keep the
/// file bytes deterministic for any -jN; the server inserts in completion
/// order and documents that its file bytes are not.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_CACHE_ANALYSISCACHE_H
#define BEYONDIV_CACHE_ANALYSISCACHE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <sys/types.h>
#include <vector>

namespace biv {
namespace cache {

/// Bump whenever ivclass / dependence / transform semantics change (new
/// classification kinds, different closed forms, report format edits...):
/// every existing cache file becomes stale at once.  tools/check_docs.sh
/// cross-checks this constant against the value DESIGN.md documents.
inline constexpr uint64_t AnalysisVersionSalt = 5;

/// On-disk format revision (layout and keying, not analysis semantics).  v2
/// added the generation counter to the tail footer (fleet-shared caches); v3
/// dropped the per-kind and InductionAnalysis::Stats tallies from the entry
/// payload, which the counter deltas already carry; v4 keys entries by an
/// injective IR print (a value named like a temp, and an argument named
/// undef, are quoted), so no entry keyed by the old, ambiguous print is
/// served.
inline constexpr uint64_t CacheFormatVersion = 4;

/// 64-bit FNV-1a over \p Data, continuing from \p Seed (the offset basis by
/// default).  Never returns 0 -- 0 marks an empty index slot.
uint64_t fnv1a(const std::string &Data,
               uint64_t Seed = 0xcbf29ce484222325ull);

/// The cache key for one unit: canonical IR print x salt x the pipeline
/// options that change result bytes (driver::AnalysisOptions::toBits()).
uint64_t unitDigest(const std::string &CanonicalIR, uint64_t OptsBits);

/// The cached payload for one function (everything a batch UnitResult
/// carries besides its name and live stats frame).
struct CacheEntry {
  std::string ReportText;
  uint64_t Instructions = 0;
  uint64_t Loops = 0;
  /// The unit's analysis-phase counter deltas by name (frontend counters
  /// excluded: a hit re-parses, so those fire live).  Replayed into the
  /// worker's frame on hit, keeping merged counters corpus-shaped whether
  /// the work ran or was served.
  std::map<std::string, uint64_t> Counters;

  std::string serialize() const;
  /// Returns false (leaving *this partially filled) on malformed bytes.
  bool deserialize(const std::string &Bytes);
};

class AnalysisCache {
public:
  AnalysisCache() = default;
  ~AnalysisCache();
  AnalysisCache(const AnalysisCache &) = delete;
  AnalysisCache &operator=(const AnalysisCache &) = delete;

  /// Binds the cache to \p Path, maps it, and parses the index (entry
  /// payloads stay on disk until looked up).  A missing file is an empty
  /// cache (first cold run); a file with a stale salt/format or any
  /// structural damage is discarded and reported via invalidated().
  /// Returns false only for real I/O errors (unreadable existing file),
  /// with \p Error filled.
  bool open(const std::string &Path, std::string &Error);

  /// Caps the on-disk file size: a save() whose result would exceed
  /// \p Bytes compacts, keeping the most recently used entries that fit.
  /// 0 (the default) means unbounded.
  void setMaxBytes(uint64_t Bytes);

  /// The entry for \p Digest, or null.  Pending (inserted, unsaved) entries
  /// are visible; on-disk entries materialize from the mapping on first
  /// use.  Safe to call from many threads, concurrently with insert(); the
  /// returned pointer stays valid until the next open().  A disk entry
  /// whose payload fails to deserialize invalidates the disk index
  /// wholesale and misses -- the cache may forget, never lie.
  const CacheEntry *lookup(uint64_t Digest);

  /// Records \p E under \p Digest, to be appended by the next save().
  /// Duplicate digests keep the first entry (content-addressed: same key,
  /// same bytes).  Takes the exclusive lock, so concurrent inserts and
  /// lookups are safe; insertion *order* is whatever the callers make it.
  void insert(uint64_t Digest, CacheEntry E);

  /// Appends pending entries and rewrites the index footer (or writes a
  /// whole new image after invalidation) under an advisory flock,
  /// merging with any progress other processes made since open(), and
  /// compacting when the result would exceed the byte cap.  Returns false
  /// with \p Error set when the path cannot be written -- callers must
  /// treat that as a hard error, not a silent success.  No-op when nothing
  /// is pending, the file is intact, and no compaction is due.
  bool save(std::string &Error);

  /// Cheap cross-process staleness probe: stats the path and, when another
  /// process appended or compacted since our view was loaded, re-maps and
  /// adopts the new index (pending inserts and already-materialized
  /// entries are kept).  Returns true when the view changed.  A torn or
  /// damaged on-disk state is skipped (retry later), not adopted.
  bool refreshIfChanged();

  /// Distinct digests this cache can currently serve (disk index plus
  /// in-memory inserts).
  size_t entryCount() const;
  size_t pendingCount() const {
    std::shared_lock<std::shared_mutex> Lock(M);
    return PendingLog.size();
  }
  /// True when open() found a file it had to discard (stale salt, damage)
  /// or a lazy probe hit a corrupt payload.
  bool invalidated() const {
    std::shared_lock<std::shared_mutex> Lock(M);
    return Invalidated;
  }
  /// The on-disk generation our view was loaded from (0 = no valid file).
  uint64_t generation() const {
    std::shared_lock<std::shared_mutex> Lock(M);
    return Generation;
  }
  /// Compactions the byte cap forced in this process over the file's
  /// lifetime.
  uint64_t compactions() const {
    std::shared_lock<std::shared_mutex> Lock(M);
    return NumCompactions;
  }

private:
  struct ParsedImage;
  struct Mapping;
  enum class MapStatus { Mapped, Missing, Unreadable, Unmappable, Damaged };
  static bool parseImage(const char *Data, size_t Size, ParsedImage &Img);
  /// The one mapper: maps the regular file open on \p Fd read-only with
  /// its index, parsed from the bytes or, for an image this process just
  /// wrote, \p Known.  Damaged: too short, or failing to parse.
  static MapStatus mapFile(int Fd, const ParsedImage *Known, Mapping &Out);
  /// mapFile on \p P opened read-only (Missing when it does not exist).
  static MapStatus mapPath(const std::string &P, Mapping &Out);
  /// Makes \p Map the current view; caller holds the exclusive lock.
  void adoptLocked(Mapping &Map);
  void discardDiskLocked();
  void unmapLocked();
  uint64_t accessOf(uint64_t Digest) const;
  void touch(uint64_t Digest);

  std::string Path;
  /// Readers (lookup, counts) shared; open/insert/save exclusive.
  mutable std::shared_mutex M;
  /// digest -> entry: pending inserts plus disk entries materialized by
  /// lookup().  Node-based map; nodes are never erased while open.
  std::map<uint64_t, CacheEntry> Entries;
  /// digest -> absolute file offset of the entry record in the current
  /// mapping, mirroring the on-disk index.
  std::map<uint64_t, uint64_t> DiskOffsets;
  /// Serialized records not yet on disk, in insertion order (so the file
  /// bytes are deterministic for any worker count).
  std::vector<std::pair<uint64_t, std::string>> PendingLog;
  /// Bytes of valid header + entry log on disk (new entries append here,
  /// overwriting the old footer); 0 = no valid file, save() writes a whole
  /// new image.
  uint64_t DiskLogEnd = 0;
  uint64_t Generation = 0;   ///< tail generation of our loaded view
  uint64_t MaxBytes = 0;     ///< 0 = unbounded
  uint64_t NumCompactions = 0;
  bool Invalidated = false;  ///< disk content was discarded

  /// Read-only mapping of the file as of the last open/refresh/save.
  const char *MapBase = nullptr;
  size_t MapLen = 0;
  dev_t MapDev = 0;
  ino_t MapIno = 0;

  /// LRU-ish recency: per-digest access stamps, bumped on hit and insert.
  /// Own mutex so shared-lock readers can stamp without the big lock.
  mutable std::mutex AccessM;
  std::map<uint64_t, uint64_t> AccessSeq;
  uint64_t AccessClock = 0;
};

} // namespace cache
} // namespace biv

#endif // BEYONDIV_CACHE_ANALYSISCACHE_H
