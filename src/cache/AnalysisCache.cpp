//===- cache/AnalysisCache.cpp - Content-addressed analysis cache --------------===//

#include "cache/AnalysisCache.h"
#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <mutex>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace biv;
using namespace biv::cache;

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

uint64_t biv::cache::fnv1a(const std::string &Data, uint64_t Seed) {
  uint64_t H = Seed;
  for (unsigned char C : Data) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  // 0 marks an empty index slot; remap the (astronomically unlikely) zero
  // digest to an arbitrary nonzero constant.
  return H ? H : 0x9e3779b97f4a7c15ull;
}

uint64_t biv::cache::unitDigest(const std::string &CanonicalIR,
                                uint64_t OptsBits) {
  // The salt also lives in the file header (wholesale invalidation on load);
  // folding it into the digest as well means even a hand-spliced entry from
  // an old cache cannot be served.
  std::string Pre = "biv-cache fmt " + std::to_string(CacheFormatVersion) +
                    " salt " + std::to_string(AnalysisVersionSalt) +
                    " opts " + std::to_string(OptsBits) + "\n";
  return fnv1a(CanonicalIR, fnv1a(Pre));
}

//===----------------------------------------------------------------------===//
// Entry (de)serialization
//===----------------------------------------------------------------------===//

namespace {

constexpr uint64_t Magic1 = 0x6269762d63616368ull; // "biv-cach"
constexpr uint64_t Magic2 = 0x6863616325646e65ull; // "end%cach"
constexpr size_t HeaderBytes = 24;
// [index_off][count][generation][magic2] -- v2 grew the tail by the
// generation word; the header is frozen (salt at offset 16, format at 8).
constexpr size_t TailBytes = 32;
constexpr size_t RecordHeaderBytes = 16; // [digest][len]

void putU64(std::string &Out, uint64_t V) {
  Out.append(reinterpret_cast<const char *>(&V), sizeof(V));
}

bool getU64(const char *Data, size_t Size, size_t &Pos, uint64_t &V) {
  if (Pos + sizeof(V) > Size)
    return false;
  std::memcpy(&V, Data + Pos, sizeof(V));
  Pos += sizeof(V);
  return true;
}

bool getU64(const std::string &In, size_t &Pos, uint64_t &V) {
  return getU64(In.data(), In.size(), Pos, V);
}

bool getBytes(const std::string &In, size_t &Pos, size_t Len,
              std::string &V) {
  if (Pos + Len > In.size() || Pos + Len < Pos)
    return false;
  V.assign(In.data() + Pos, Len);
  Pos += Len;
  return true;
}

} // namespace

std::string CacheEntry::serialize() const {
  std::string Out;
  putU64(Out, ReportText.size());
  Out += ReportText;
  putU64(Out, Instructions);
  putU64(Out, Loops);
  putU64(Out, Counters.size());
  for (const auto &[Name, V] : Counters) { // std::map: sorted, so stable.
    putU64(Out, Name.size());
    Out += Name;
    putU64(Out, V);
  }
  return Out;
}

bool CacheEntry::deserialize(const std::string &Bytes) {
  size_t Pos = 0;
  uint64_t Len = 0;
  if (!getU64(Bytes, Pos, Len) || !getBytes(Bytes, Pos, size_t(Len),
                                            ReportText))
    return false;
  if (!getU64(Bytes, Pos, Instructions) || !getU64(Bytes, Pos, Loops))
    return false;
  uint64_t NumCounters = 0;
  if (!getU64(Bytes, Pos, NumCounters))
    return false;
  Counters.clear();
  for (uint64_t I = 0; I < NumCounters; ++I) {
    uint64_t NameLen = 0, V = 0;
    std::string Name;
    if (!getU64(Bytes, Pos, NameLen) ||
        !getBytes(Bytes, Pos, size_t(NameLen), Name) ||
        !getU64(Bytes, Pos, V))
      return false;
    Counters[Name] = V;
  }
  return Pos == Bytes.size();
}

//===----------------------------------------------------------------------===//
// Image parsing (structural validation, payloads stay lazy)
//===----------------------------------------------------------------------===//

struct AnalysisCache::ParsedImage {
  uint64_t IndexOff = 0;   // header + entry log end
  uint64_t Generation = 0;
  std::map<uint64_t, uint64_t> Offsets; // digest -> record offset
};

/// Validates the header, tail, index, and every record *frame* (digest echo
/// and length bounds) of a cache image without deserializing payloads.
/// Returns false on any structural damage.
bool AnalysisCache::parseImage(const char *Data, size_t Size,
                               ParsedImage &Img) {
  if (Size < HeaderBytes + TailBytes)
    return false;
  size_t Pos = 0;
  uint64_t M1 = 0, Fmt = 0, Salt = 0;
  getU64(Data, Size, Pos, M1);
  getU64(Data, Size, Pos, Fmt);
  getU64(Data, Size, Pos, Salt);
  if (M1 != Magic1 || Fmt != CacheFormatVersion ||
      Salt != AnalysisVersionSalt)
    return false;

  size_t TailPos = Size - TailBytes;
  uint64_t IndexOff = 0, Count = 0, Gen = 0, M2 = 0;
  getU64(Data, Size, TailPos, IndexOff);
  getU64(Data, Size, TailPos, Count);
  getU64(Data, Size, TailPos, Gen);
  getU64(Data, Size, TailPos, M2);
  if (M2 != Magic2 || Gen == 0 || IndexOff < HeaderBytes ||
      IndexOff + 8 > Size - TailBytes)
    return false;

  size_t IdxPos = size_t(IndexOff);
  uint64_t Capacity = 0;
  getU64(Data, Size, IdxPos, Capacity);
  // The index + tail must end the file exactly.
  if (Capacity > (Size / 16) ||
      IdxPos + Capacity * 16 + TailBytes != Size)
    return false;

  uint64_t Seen = 0;
  for (uint64_t Slot = 0; Slot < Capacity; ++Slot) {
    uint64_t Digest = 0, Off = 0;
    getU64(Data, Size, IdxPos, Digest);
    getU64(Data, Size, IdxPos, Off);
    if (Digest == 0)
      continue;
    ++Seen;
    size_t RecPos = size_t(Off);
    uint64_t RecDigest = 0, RecLen = 0;
    if (Off < HeaderBytes || Off >= IndexOff ||
        !getU64(Data, Size, RecPos, RecDigest) || RecDigest != Digest ||
        !getU64(Data, Size, RecPos, RecLen) || RecLen > IndexOff - RecPos)
      return false;
    if (!Img.Offsets.emplace(Digest, Off).second)
      return false; // Duplicate digest: the index is corrupt.
  }
  if (Seen != Count)
    return false;

  Img.IndexOff = IndexOff;
  Img.Generation = Gen;
  return true;
}

namespace {

/// Serialized byte size of a complete image holding \p N records of
/// \p RecordBytes total (frames included): header + log + index + tail.
uint64_t imageBytes(size_t N, uint64_t RecordBytes) {
  uint64_t Capacity = 8;
  while (Capacity < uint64_t(N) * 2)
    Capacity *= 2;
  return HeaderBytes + RecordBytes + 8 + Capacity * 16 + TailBytes;
}

/// Builds the pow2 open-addressed index (<50% load) + tail for the given
/// offset table.
std::string buildFooter(const std::map<uint64_t, uint64_t> &Offsets,
                        uint64_t LogEnd, uint64_t Generation) {
  uint64_t Capacity = 8;
  while (Capacity < Offsets.size() * 2)
    Capacity *= 2;
  std::vector<std::pair<uint64_t, uint64_t>> Slots(size_t(Capacity), {0, 0});
  for (const auto &[Digest, Off] : Offsets) {
    uint64_t Slot = Digest & (Capacity - 1);
    while (Slots[size_t(Slot)].first != 0)
      Slot = (Slot + 1) & (Capacity - 1);
    Slots[size_t(Slot)] = {Digest, Off};
  }
  std::string Footer;
  putU64(Footer, Capacity);
  for (const auto &[Digest, Off] : Slots) {
    putU64(Footer, Digest);
    putU64(Footer, Off);
  }
  putU64(Footer, LogEnd);         // index_off
  putU64(Footer, Offsets.size()); // count
  putU64(Footer, Generation);
  putU64(Footer, Magic2);
  return Footer;
}

/// One entry record of the log: [digest][len][payload].
std::string frameRecord(uint64_t Digest, const CacheEntry &E) {
  std::string Payload = E.serialize();
  std::string Record;
  putU64(Record, Digest);
  putU64(Record, Payload.size());
  return Record + Payload;
}

bool writeAllAt(int Fd, uint64_t Off, const char *Buf, size_t Len) {
  size_t Done = 0;
  while (Done < Len) {
    ssize_t N = ::pwrite(Fd, Buf + Done, Len - Done, off_t(Off + Done));
    if (N > 0) {
      Done += size_t(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    return false;
  }
  return true;
}

bool readWholeFile(int Fd, uint64_t Size, std::string &Out) {
  Out.resize(size_t(Size));
  size_t Done = 0;
  while (Done < Size) {
    ssize_t N = ::pread(Fd, Out.data() + Done, size_t(Size) - Done,
                        off_t(Done));
    if (N > 0) {
      Done += size_t(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    return false; // Short file or hard error: caller treats as damage.
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Cache lifecycle
//===----------------------------------------------------------------------===//

AnalysisCache::~AnalysisCache() {
  std::unique_lock<std::shared_mutex> Lock(M);
  unmapLocked();
}

void AnalysisCache::unmapLocked() {
  if (MapBase) {
    ::munmap(const_cast<char *>(MapBase), MapLen);
    MapBase = nullptr;
    MapLen = 0;
    MapDev = 0;
    MapIno = 0;
  }
}

void AnalysisCache::setMaxBytes(uint64_t Bytes) {
  std::unique_lock<std::shared_mutex> Lock(M);
  MaxBytes = Bytes;
}

void AnalysisCache::touch(uint64_t Digest) {
  std::lock_guard<std::mutex> G(AccessM);
  AccessSeq[Digest] = ++AccessClock;
}

uint64_t AnalysisCache::accessOf(uint64_t Digest) const {
  std::lock_guard<std::mutex> G(AccessM);
  auto It = AccessSeq.find(Digest);
  return It == AccessSeq.end() ? 0 : It->second;
}

/// A read-only mapping of a cache file and the index it holds.
struct AnalysisCache::Mapping {
  const char *Base = nullptr;
  size_t Len = 0;
  dev_t Dev = 0;
  ino_t Ino = 0;
  ParsedImage Img;
};

AnalysisCache::MapStatus AnalysisCache::mapFile(int Fd,
                                                const ParsedImage *Known,
                                                Mapping &Out) {
  struct stat St;
  if (::fstat(Fd, &St) != 0 || !S_ISREG(St.st_mode))
    return MapStatus::Unreadable;
  if (uint64_t(St.st_size) < HeaderBytes + TailBytes)
    return MapStatus::Damaged; // Too short to be a cache, zero-length too.
  void *Base = ::mmap(nullptr, size_t(St.st_size), PROT_READ, MAP_SHARED,
                      Fd, 0);
  if (Base == MAP_FAILED)
    return MapStatus::Unmappable;
  Out.Base = static_cast<const char *>(Base);
  Out.Len = size_t(St.st_size);
  Out.Dev = St.st_dev;
  Out.Ino = St.st_ino;
  if (Known) {
    Out.Img = *Known;
    return MapStatus::Mapped;
  }
  if (parseImage(Out.Base, Out.Len, Out.Img))
    return MapStatus::Mapped;
  ::munmap(Base, Out.Len);
  return MapStatus::Damaged;
}

AnalysisCache::MapStatus AnalysisCache::mapPath(const std::string &P,
                                                Mapping &Out) {
  int Fd = ::open(P.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return errno == ENOENT ? MapStatus::Missing : MapStatus::Unreadable;
  MapStatus Status = mapFile(Fd, nullptr, Out);
  ::close(Fd); // The mapping keeps the file alive.
  return Status;
}

void AnalysisCache::adoptLocked(Mapping &Map) {
  // Caller holds the exclusive lock; the mapping becomes ours.
  // Materialized entries and pending inserts are kept -- content-addressing
  // makes any overlap byte-identical.
  unmapLocked();
  MapBase = Map.Base;
  MapLen = Map.Len;
  MapDev = Map.Dev;
  MapIno = Map.Ino;
  DiskOffsets = std::move(Map.Img.Offsets);
  DiskLogEnd = Map.Img.IndexOff;
  Generation = Map.Img.Generation;
}

void AnalysisCache::discardDiskLocked() {
  // Forget the on-disk index but keep every node in Entries: lookup()
  // pointers handed out earlier must stay valid until the next open().
  DiskOffsets.clear();
  DiskLogEnd = 0;
  Generation = 0;
  Invalidated = true;
}

bool AnalysisCache::open(const std::string &P, std::string &Error) {
  std::unique_lock<std::shared_mutex> Lock(M);
  Path = P;
  Entries.clear();
  DiskOffsets.clear();
  PendingLog.clear();
  DiskLogEnd = 0;
  Generation = 0;
  Invalidated = false;
  unmapLocked();
  {
    std::lock_guard<std::mutex> G(AccessM);
    AccessSeq.clear();
  }

  Mapping Map;
  switch (mapPath(Path, Map)) {
  case MapStatus::Mapped:
    adoptLocked(Map);
    return true;
  case MapStatus::Missing:
    return true; // First run: empty cache, created by save().
  case MapStatus::Damaged:
    Invalidated = true;
    return true;
  case MapStatus::Unreadable:
    Error = "cannot read cache file '" + Path + "'";
    return false;
  case MapStatus::Unmappable:
    break;
  }
  Error = "cannot map cache file '" + Path + "'";
  return false;
}

const CacheEntry *AnalysisCache::lookup(uint64_t Digest) {
  {
    std::shared_lock<std::shared_mutex> Lock(M);
    auto It = Entries.find(Digest);
    if (It != Entries.end()) {
      // The pointer outlives the lock: map nodes are stable and entries
      // are never erased while the cache is open.
      touch(Digest);
      return &It->second;
    }
    if (!DiskOffsets.count(Digest))
      return nullptr;
  }

  // Materialize from the mapping under the exclusive lock.
  std::unique_lock<std::shared_mutex> Lock(M);
  auto It = Entries.find(Digest);
  if (It != Entries.end()) { // Raced another materializer.
    touch(Digest);
    return &It->second;
  }
  auto OffIt = DiskOffsets.find(Digest);
  if (OffIt == DiskOffsets.end())
    return nullptr; // Invalidated (or refreshed away) while we upgraded.
  size_t Pos = size_t(OffIt->second);
  uint64_t RecDigest = 0, RecLen = 0;
  std::string Payload;
  CacheEntry E;
  // The frame was bounds-checked at parse time; the payload is validated
  // here, on first use.  Any mismatch means the file lied: drop the whole
  // disk index rather than risk another entry.
  if (!getU64(MapBase, MapLen, Pos, RecDigest) || RecDigest != Digest ||
      !getU64(MapBase, MapLen, Pos, RecLen) || Pos + RecLen > MapLen) {
    discardDiskLocked();
    return nullptr;
  }
  Payload.assign(MapBase + Pos, size_t(RecLen));
  if (!E.deserialize(Payload)) {
    discardDiskLocked();
    return nullptr;
  }
  auto [NewIt, Inserted] = Entries.emplace(Digest, std::move(E));
  (void)Inserted;
  touch(Digest);
  return &NewIt->second;
}

void AnalysisCache::insert(uint64_t Digest, CacheEntry E) {
  // Serialize outside the lock; writers contend only on the map touch.
  std::string Record = frameRecord(Digest, E);
  std::unique_lock<std::shared_mutex> Lock(M);
  if (Entries.count(Digest))
    return; // Content-addressed: same key, same bytes.
  if (DiskOffsets.count(Digest)) {
    // Already on disk (another process landed it, or ours pre-refresh):
    // nothing to append, and lookup() will materialize the disk copy.
    return;
  }
  PendingLog.emplace_back(Digest, std::move(Record));
  Entries.emplace(Digest, std::move(E));
  touch(Digest);
}

size_t AnalysisCache::entryCount() const {
  std::shared_lock<std::shared_mutex> Lock(M);
  size_t N = DiskOffsets.size();
  for (const auto &[Digest, E] : Entries)
    if (!DiskOffsets.count(Digest))
      ++N;
  return N;
}

bool AnalysisCache::refreshIfChanged() {
  struct stat St;
  {
    std::shared_lock<std::shared_mutex> Lock(M);
    if (Path.empty())
      return false;
    if (::stat(Path.c_str(), &St) != 0)
      return false; // Gone or unreadable: keep our snapshot.
    if (MapBase && St.st_dev == MapDev && St.st_ino == MapIno &&
        uint64_t(St.st_size) == MapLen)
      return false; // Unchanged.
  }

  // Map and validate the new image before touching shared state, so a torn
  // concurrent append is skipped, not adopted.
  Mapping Map;
  if (mapPath(Path, Map) != MapStatus::Mapped)
    return false;

  std::unique_lock<std::shared_mutex> Lock(M);
  if (Map.Img.Generation == Generation && Map.Img.IndexOff == DiskLogEnd &&
      Map.Dev == MapDev && Map.Ino == MapIno) {
    ::munmap(const_cast<char *>(Map.Base), Map.Len);
    return false; // Raced a concurrent refresh to the same view.
  }
  adoptLocked(Map);
  return true;
}

//===----------------------------------------------------------------------===//
// Save: flock'd append, merge-on-conflict, compaction under the byte cap
//===----------------------------------------------------------------------===//

bool AnalysisCache::save(std::string &Error) {
  std::unique_lock<std::shared_mutex> Lock(M);
  if (Path.empty()) {
    Error = "cache not opened";
    return false;
  }
  // No-op fast path: nothing to contribute and the on-disk file is intact
  // and under the cap (append-only growth means our loaded size bounds it
  // from our side; another process pushing it over will compact on *its*
  // save).  Must not touch the file at all -- callers rely on mtime/size
  // staying put.
  if (PendingLog.empty() && DiskLogEnd != 0 &&
      (MaxBytes == 0 || MapLen <= MaxBytes))
    return true;

  // --- Acquire the appender lock, chasing compaction renames. -------------
  int Fd = -1;
  struct stat FdSt;
  for (int Attempt = 0; Attempt < 10; ++Attempt) {
    Fd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (Fd < 0) {
      Error = "cannot write cache file '" + Path + "': " +
              std::strerror(errno);
      return false;
    }
    while (::flock(Fd, LOCK_EX) != 0) {
      if (errno != EINTR) {
        ::close(Fd);
        Error = "cannot lock cache file '" + Path + "': " +
                std::strerror(errno);
        return false;
      }
    }
    // A compactor may have renamed a fresh inode over the path while we
    // waited; our lock would then guard a dead file.  Re-check identity.
    struct stat PathSt;
    if (::fstat(Fd, &FdSt) == 0 && ::stat(Path.c_str(), &PathSt) == 0 &&
        FdSt.st_dev == PathSt.st_dev && FdSt.st_ino == PathSt.st_ino)
      break;
    ::close(Fd); // Releases the lock; retry on the new inode.
    Fd = -1;
  }
  if (Fd < 0) {
    Error = "cannot lock cache file '" + Path + "' (compaction storm)";
    return false;
  }

  // --- Re-read the locked file and merge any cross-process progress. ------
  std::string Disk;
  ParsedImage DiskImg;
  bool DiskValid = false;
  if (uint64_t(FdSt.st_size) >= HeaderBytes + TailBytes &&
      readWholeFile(Fd, uint64_t(FdSt.st_size), Disk))
    DiskValid = parseImage(Disk.data(), Disk.size(), DiskImg);

  if (DiskValid) {
    if (DiskImg.Generation != Generation || DiskImg.IndexOff != DiskLogEnd) {
      // Another appender (or a compaction) advanced the file: adopt the
      // disk truth.  Entries materialized from our old mapping stay valid
      // (content-addressed), and pending inserts the disk already has are
      // dropped below.
      DiskOffsets = DiskImg.Offsets;
      DiskLogEnd = DiskImg.IndexOff;
      Generation = DiskImg.Generation;
    }
  } else {
    // Empty (just created), stale or damaged: write a whole new image from
    // everything this process knows.  Entries never materialized are lost
    // -- wholesale invalidation, never a corrupt hit.
    if (FdSt.st_size != 0)
      Invalidated = true;
    DiskOffsets.clear();
    DiskLogEnd = 0;
    Generation = 0;
    Disk.clear();
  }

  // --- Lay out the records to append. -------------------------------------
  // A fresh image re-serializes every in-memory entry.
  std::vector<std::pair<uint64_t, std::string>> Append;
  if (DiskLogEnd == 0) {
    for (const auto &[Digest, E] : Entries)
      Append.emplace_back(Digest, frameRecord(Digest, E));
  } else {
    for (auto &[Digest, Record] : PendingLog)
      if (!DiskOffsets.count(Digest))
        Append.emplace_back(Digest, Record);
  }

  uint64_t LogEnd = DiskLogEnd ? DiskLogEnd : HeaderBytes;
  std::map<uint64_t, uint64_t> NewOffsets = DiskOffsets;
  for (const auto &[Digest, Record] : Append) {
    NewOffsets[Digest] = LogEnd;
    LogEnd += Record.size();
  }
  const uint64_t NewGen = Generation + 1;
  std::string Footer = buildFooter(NewOffsets, LogEnd, NewGen);
  const bool Compact = MaxBytes != 0 && LogEnd + Footer.size() > MaxBytes;

  auto Fail = [&](const char *What) {
    ::close(Fd);
    Error = std::string(What) + " cache file '" + Path + "': " +
            std::strerror(errno);
    return false;
  };
  // Maps the file just written, open on \p WFd, as the new view with the
  // index this save built (no re-parse).
  auto adoptWritten = [&](int WFd, ParsedImage Known) {
    Mapping Map;
    if (mapFile(WFd, &Known, Map) != MapStatus::Mapped) {
      // We wrote it; failing to map our own file is a hard error.
      Error = "cannot map cache file '" + Path + "'";
      return false;
    }
    adoptLocked(Map);
    PendingLog.clear();
    Invalidated = false;
    return true;
  };

  if (DiskLogEnd != 0 && !Compact) {
    // --- Plain append: records from DiskLogEnd, then the new footer.  The
    // file only grows, and bytes below DiskLogEnd never change, so a reader
    // mapping the old size keeps a consistent snapshot.
    std::string NewLog;
    for (const auto &[Digest, Record] : Append)
      NewLog += Record;
    if (!writeAllAt(Fd, DiskLogEnd, NewLog.data(), NewLog.size()) ||
        !writeAllAt(Fd, LogEnd, Footer.data(), Footer.size()))
      return Fail("cannot write");
    // Map through a second, unlocked file description, opened while the
    // lock still pins the path to this inode: a mapping keeps its file
    // description alive, and a flock with it.
    int RFd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
    bool OK = adoptWritten(RFd, {LogEnd, NewGen, std::move(NewOffsets)});
    if (RFd >= 0)
      ::close(RFd);
    ::close(Fd);
    return OK;
  }

  // --- Whole image: the first save, the rewrite of a stale or damaged file,
  // or a compaction.  Written to a temp file, fsynced and renamed into
  // place: a live reader keeps its old inode whole (an in-place rewrite
  // would truncate it under the reader's mapping), and the new inode and
  // generation flag the swap for refreshIfChanged().  A compaction keeps
  // the most recently used records that fit under the cap.
  struct Record {
    uint64_t Digest;
    const char *Bytes;
    uint64_t Len;
  };
  std::vector<Record> Keep;
  for (const auto &[Digest, Off] : DiskOffsets) {
    size_t Pos = size_t(Off) + 8; // skip digest, read len
    uint64_t RecLen = 0;
    getU64(Disk.data(), Disk.size(), Pos, RecLen);
    Keep.push_back({Digest, Disk.data() + Off, RecordHeaderBytes + RecLen});
  }
  for (const auto &[Digest, Bytes] : Append)
    Keep.push_back({Digest, Bytes.data(), Bytes.size()});
  if (Compact) {
    std::vector<std::pair<uint64_t, Record>> Cands; // (access, record)
    for (const Record &R : Keep)
      Cands.emplace_back(accessOf(R.Digest), R);
    // Most recently used first; ties (never touched) by digest for
    // determinism.
    std::sort(Cands.begin(), Cands.end(), [](const auto &A, const auto &B) {
      if (A.first != B.first)
        return A.first > B.first;
      return A.second.Digest < B.second.Digest;
    });
    Keep.clear();
    uint64_t KeptBytes = 0;
    for (const auto &[Access, R] : Cands) {
      if (imageBytes(Keep.size() + 1, KeptBytes + R.Len) > MaxBytes)
        continue; // Doesn't fit; a smaller, colder entry later still might.
      Keep.push_back(R);
      KeptBytes += R.Len;
    }
  }
  // Records in digest order: the on-disk order is a cache artifact; keep
  // it canonical.
  std::sort(Keep.begin(), Keep.end(), [](const Record &A, const Record &B) {
    return A.Digest < B.Digest;
  });
  std::string Image;
  putU64(Image, Magic1);
  putU64(Image, CacheFormatVersion);
  putU64(Image, AnalysisVersionSalt);
  ParsedImage Kept;
  for (const Record &R : Keep) {
    Kept.Offsets[R.Digest] = Image.size();
    Image.append(R.Bytes, size_t(R.Len));
  }
  Kept.IndexOff = Image.size();
  Kept.Generation = NewGen;
  Image += buildFooter(Kept.Offsets, Kept.IndexOff, NewGen);

  std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
  int TFd = ::open(Tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (TFd < 0)
    return Fail("cannot write");
  if (!writeAllAt(TFd, 0, Image.data(), Image.size()) ||
      ::fsync(TFd) != 0) {
    ::close(TFd);
    ::unlink(Tmp.c_str());
    return Fail("cannot write");
  }
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    ::close(TFd);
    ::unlink(Tmp.c_str());
    return Fail("cannot replace");
  }
  ::close(Fd); // Releases the flock held on the now-unlinked inode.
  NumCompactions += Compact;
  // Entries evicted from disk stay usable in memory (node stability) but
  // will re-append on a future save only if re-inserted; PendingLog is
  // spent either way.
  bool OK = adoptWritten(TFd, std::move(Kept));
  ::close(TFd);
  return OK;
}
