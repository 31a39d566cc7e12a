//===- tools/bivc.cpp - BeyondIV command-line driver ---------------------------===//
//
// The project's compiler-driver face: parse a loop-language file, run the
// pipeline, and print whatever the flags ask for.
//
//   bivc FILE [options] [-- args...]
//     --ir               print the SSA-form IR
//     --classify         print the classification report (default)
//     --all-values       classify every value, not just header phis
//     --deps             print the dependence report
//     --trip-counts      print per-loop trip counts
//     --peel=LOOP[:N]    peel N (1-1024, default 1) iterations off LOOP first
//     --strength-reduce  run strength reduction and print the IR after
//     --no-sccp          skip constant propagation
//     --run              interpret the program with the given integer args
//
//   Observability (any mode):
//     --stats            print the counter/phase-timer table to stderr
//     --stats-json FILE  write the schema-v1 stats JSON to FILE; in batch
//                        mode the file holds one snapshot per unit plus the
//                        merged aggregate
//   Counters and span counts are deterministic (identical for -j1 and -j8);
//   only span durations (ns) vary run to run.  In fuzz mode the snapshot
//   covers the calling thread: the -j1 reference pass and the minimizer
//   run there, and the oracle checks run on pool workers whose per-program
//   deltas are folded in, in program order.  The -jN determinism probes
//   run on worker threads whose frames are deliberately not folded in.
//
//   bivc --batch [-jN] FILES...
//     Parallel batch analysis: every file is split into top-level functions
//     and the whole set is sharded across N workers (default 1, at most 256;
//     -j0 picks the hardware concurrency).  Prints the merged classification
//     report in input order -- byte-identical for every N -- plus a summary.
//     --summary          suppress per-unit reports, print the summary only
//     --materialize      enable exit-value materialization per unit
//     --all-values / --no-sccp apply per unit as in single-file mode
//     --cache FILE       content-addressed analysis cache: units whose
//                        lowered IR (and result-shaping options) match a
//                        cached entry are served from FILE byte-identically;
//                        misses are appended.  A stale or damaged FILE is
//                        rebuilt from scratch.  cache.hit / cache.miss /
//                        cache.bytes counters and the phase.cache timer
//                        surface through --stats / --stats-json.
//
//   bivc --serve SOCKET [-jN] [--admit N] [--cache FILE]
//        [--workers N] [--serve-tcp HOST:PORT] [--cache-max-bytes N]
//     Persistent analysis daemon on a unix-domain socket: each connection
//     carries one length-prefixed request (source text + option bits) and
//     receives the same report bytes the one-shot CLI would print.  All
//     requests share one warm analysis cache (--cache) and one worker pool
//     (-jN, default hardware concurrency).  At most --admit requests
//     (default 64) are queued-or-running; the next is answered
//     `overloaded`.  SIGTERM/SIGINT stop accepting, finish every admitted
//     request, save the cache, and exit.  --stats/--stats-json on the
//     daemon report server-lifetime counters plus per-request latency and
//     queue-depth histograms.
//       --workers N          pre-fork N worker processes sharing the
//                            listening socket(s); a supervisor respawns
//                            dead workers with backoff (stats stay
//                            per-worker)
//       --serve-tcp H:P      additional TCP frontend, same protocol
//                            (connect with `tcp:HOST:PORT`)
//       --cache-max-bytes N  compact the cache file (LRU-ish eviction,
//                            atomic rename) whenever a save would push it
//                            past N bytes
//
//   bivc --connect ENDPOINT FILE [--deadline-ms N]
//   bivc --connect ENDPOINT --server-stats
//     ENDPOINT is a unix socket path, or tcp:HOST:PORT for a --serve-tcp
//     frontend.
//     Blocking client for the daemon: sends FILE (honouring --all-values,
//     --no-sccp, --summarize) and prints the server's report, or fetches
//     the daemon's merged stats snapshot as JSON.  A non-ok status
//     (overloaded, deadline_exceeded, shutting_down, analysis errors) goes
//     to stderr with exit status 1.  --deadline-ms bounds how long the
//     request may sit in the daemon's queue before it is abandoned.
//
//   bivc --fuzz N [--seed S] [--minimize] [--cache-oracle]
//     Differential fuzzing: generate N (1 to 10 000 000; a bare --fuzz means
//     500) random programs from the 64-bit seed S, check every classifier
//     claim against the interpreter oracle, diff batch -j1 against -j8
//     byte-for-byte, and (with --minimize) delta-debug any mismatching
//     program down to a minimal statement list.  The programs are checked
//     on 8 pool workers while the -j1 pass renders beside them; results
//     commit in program order, so the output is the same as a serial
//     run's.  Exit status 0 iff no mismatch was found.
//     --cache-oracle additionally runs every program cold and warm through
//     an in-memory analysis cache and fails on any report divergence (a
//     random subset of programs exercises the same check even without the
//     flag).
//
//===----------------------------------------------------------------------===//

#include "cache/AnalysisCache.h"
#include "dependence/DependenceAnalyzer.h"
#include "driver/BatchAnalyzer.h"
#include "frontend/Lowering.h"
#include "fuzz/Fuzzer.h"
#include "interp/Interpreter.h"
#include "ir/Printer.h"
#include "ivclass/Pipeline.h"
#include "ivclass/Report.h"
#include "server/Client.h"
#include "server/Fleet.h"
#include "server/Server.h"
#include "ssa/SSABuilder.h"
#include "ssa/SSAVerifier.h"
#include "support/Stats.h"
#include "transform/LoopPeel.h"
#include "transform/StrengthReduce.h"
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace biv;

namespace {

struct CliOptions {
  std::string File;
  bool PrintIR = false;
  bool Classify = false;
  bool AllValues = false;
  bool Deps = false;
  bool TripCounts = false;
  bool StrengthReduce = false;
  bool RunSCCP = true;
  bool Summarize = false;
  bool Run = false;
  std::string PeelLoop;
  unsigned PeelTimes = 1;
  std::vector<int64_t> RunArgs;

  // Batch mode.
  bool Batch = false;
  unsigned Jobs = 1;
  bool SummaryOnly = false;
  bool Materialize = false;
  std::string CacheFile;
  std::vector<std::string> BatchFiles;

  // Serve / connect modes.
  std::string ServeSocket;
  std::string ConnectSocket;
  size_t AdmitLimit = 64;
  bool AdmitSet = false;
  bool JobsSet = false;
  uint64_t DeadlineMs = 0;
  bool ServerStats = false;
  unsigned Workers = server::DefaultWorkers;
  bool WorkersSet = false;
  std::string ServeTcp;
  uint64_t CacheMaxBytes = server::DefaultCacheMaxBytes;
  bool CacheMaxSet = false;

  // Fuzz mode.
  bool Fuzz = false;
  unsigned FuzzCount = 500;
  uint64_t FuzzSeed = 1;
  bool FuzzMinimize = false;
  bool FuzzCacheOracle = false;

  // Observability (any mode).
  bool Stats = false;
  std::string StatsJson;

  bool statsRequested() const { return Stats || !StatsJson.empty(); }
};

int usage() {
  std::fprintf(stderr,
               "usage: bivc FILE [--ir] [--classify] [--all-values] "
               "[--deps] [--trip-counts]\n"
               "            [--peel=LOOP[:N]] [--strength-reduce] "
               "[--no-sccp] [--summarize] [--run] [-- args...]\n"
               "       bivc --batch [-jN] [--summary] [--materialize] "
               "[--summarize] [--cache FILE] FILES...\n"
               "       bivc --serve SOCKET [-jN] [--admit N] "
               "[--cache FILE] [--workers N]\n"
               "            [--serve-tcp HOST:PORT] [--cache-max-bytes N]\n"
               "       bivc --connect ENDPOINT FILE [--deadline-ms N] | "
               "--connect ENDPOINT --server-stats\n"
               "            (ENDPOINT: unix socket path or tcp:HOST:PORT)\n"
               "       bivc --fuzz N [--seed S] [--minimize] "
               "[--cache-oracle]\n"
               "       any mode: [--stats] [--stats-json FILE]\n");
  return 2;
}

/// Strict bounded parse for every numeric flag (thread and fork counts,
/// admission counters, deadline ns conversion, fuzz counts and seeds, peel
/// counts): the whole string must be decimal digits -- `-3` or `12x` never
/// silently wraps through strtoul -- and the value must land in
/// [\p Min, \p Max].  Diagnoses and returns false otherwise, matching the
/// unknown-flag hard-error policy.
bool parseBounded(const char *Flag, const std::string &Text, uint64_t Min,
                  uint64_t Max, uint64_t &Out) {
  if (Text.empty() ||
      Text.find_first_not_of("0123456789") != std::string::npos) {
    std::fprintf(stderr, "bivc: %s requires a %s integer, got '%s'\n", Flag,
                 Min == 0 ? "non-negative" : "positive", Text.c_str());
    return false;
  }
  uint64_t V = 0;
  for (char C : Text) {
    unsigned D = unsigned(C - '0');
    if (V > (UINT64_MAX - D) / 10) {
      std::fprintf(stderr, "bivc: %s value '%s' is out of range\n", Flag,
                   Text.c_str());
      return false;
    }
    V = V * 10 + D;
  }
  if (V < Min || V > Max) {
    std::fprintf(stderr,
                 "bivc: %s value %llu is out of range [%llu, %llu]\n",
                 Flag, (unsigned long long)V, (unsigned long long)Min,
                 (unsigned long long)Max);
    return false;
  }
  Out = V;
  return true;
}

/// The value of `--flag X` / `--flag=X`, advancing \p I for the two-token
/// form.  Empty when there is no value.
std::string flagValue(const std::string &A, size_t FlagLen, int &I,
                      int Argc, char **Argv) {
  if (A.size() > FlagLen && A[FlagLen] == '=')
    return A.substr(FlagLen + 1);
  if (I + 1 < Argc)
    return Argv[++I];
  return std::string();
}

bool parseArgs(int Argc, char **Argv, CliOptions &O) {
  bool AfterDashes = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (AfterDashes) {
      O.RunArgs.push_back(std::strtoll(A.c_str(), nullptr, 10));
      continue;
    }
    if (A == "--") {
      AfterDashes = true;
    } else if (A == "--batch") {
      O.Batch = true;
    } else if (A == "--fuzz" || A.rfind("--fuzz=", 0) == 0) {
      O.Fuzz = true;
      // A bare --fuzz keeps the default count; a next token that starts
      // with a digit is the count.
      const bool HasCount =
          A.size() > 6 ||
          (I + 1 < Argc && std::isdigit((unsigned char)Argv[I + 1][0]));
      if (HasCount) {
        uint64_t V = 0;
        if (!parseBounded("--fuzz", flagValue(A, 6, I, Argc, Argv), 1,
                          10000000, V))
          return false;
        O.FuzzCount = unsigned(V);
      }
    } else if (A == "--seed" || A.rfind("--seed=", 0) == 0) {
      if (!parseBounded("--seed", flagValue(A, 6, I, Argc, Argv), 0,
                        UINT64_MAX, O.FuzzSeed))
        return false;
    } else if (A == "--minimize") {
      O.FuzzMinimize = true;
    } else if (A == "--cache-oracle") {
      O.FuzzCacheOracle = true;
    } else if (A == "--cache" || A.rfind("--cache=", 0) == 0) {
      if (A.size() > 7 && A[7] == '=')
        O.CacheFile = A.substr(8);
      else if (I + 1 < Argc)
        O.CacheFile = Argv[++I];
      if (O.CacheFile.empty()) {
        std::fprintf(stderr, "bivc: --cache requires a file name\n");
        return false;
      }
    } else if (A == "--serve" || A.rfind("--serve=", 0) == 0) {
      if (A.rfind("--serve=", 0) == 0)
        O.ServeSocket = A.substr(8);
      else if (I + 1 < Argc)
        O.ServeSocket = Argv[++I];
      if (O.ServeSocket.empty()) {
        std::fprintf(stderr, "bivc: --serve requires a socket path\n");
        return false;
      }
    } else if (A == "--connect" || A.rfind("--connect=", 0) == 0) {
      if (A.rfind("--connect=", 0) == 0)
        O.ConnectSocket = A.substr(10);
      else if (I + 1 < Argc)
        O.ConnectSocket = Argv[++I];
      if (O.ConnectSocket.empty()) {
        std::fprintf(stderr, "bivc: --connect requires a socket path\n");
        return false;
      }
    } else if (A == "--admit" || A.rfind("--admit=", 0) == 0) {
      // The limit seeds admission counters; an unchecked strtoul would let
      // `--admit=-3` wrap to effectively-unbounded admission.
      uint64_t V = 0;
      if (!parseBounded("--admit", flagValue(A, 7, I, Argc, Argv), 1,
                        1u << 20, V))
        return false;
      O.AdmitLimit = size_t(V);
      O.AdmitSet = true;
    } else if (A == "--deadline-ms" || A.rfind("--deadline-ms=", 0) == 0) {
      // Bounded so the server's ms -> ns conversion cannot overflow:
      // anything past INT64_MAX/1e6 ms would wrap into the past and
      // deadline-expire every request (or never).
      if (!parseBounded("--deadline-ms", flagValue(A, 13, I, Argc, Argv),
                        1, uint64_t(INT64_MAX) / 1000000u, O.DeadlineMs))
        return false;
    } else if (A == "--workers" || A.rfind("--workers=", 0) == 0) {
      uint64_t V = 0;
      if (!parseBounded("--workers", flagValue(A, 9, I, Argc, Argv), 1,
                        server::MaxWorkers, V))
        return false;
      O.Workers = unsigned(V);
      O.WorkersSet = true;
    } else if (A == "--cache-max-bytes" ||
               A.rfind("--cache-max-bytes=", 0) == 0) {
      // Below ~4KB not even an empty cache image fits; treat it as the
      // typo it is rather than thrash compaction forever.
      if (!parseBounded("--cache-max-bytes",
                        flagValue(A, 17, I, Argc, Argv), 4096, UINT64_MAX,
                        O.CacheMaxBytes))
        return false;
      O.CacheMaxSet = true;
    } else if (A == "--serve-tcp" || A.rfind("--serve-tcp=", 0) == 0) {
      O.ServeTcp = flagValue(A, 11, I, Argc, Argv);
      if (O.ServeTcp.empty()) {
        std::fprintf(stderr, "bivc: --serve-tcp requires HOST:PORT\n");
        return false;
      }
    } else if (A == "--server-stats") {
      O.ServerStats = true;
    } else if (A == "--summary") {
      O.SummaryOnly = true;
    } else if (A == "--materialize") {
      O.Materialize = true;
    } else if ((A.rfind("-j", 0) == 0 && A != "-j") ||
               A.rfind("--jobs=", 0) == 0) {
      // Bounded before any pool exists: 0 picks the hardware concurrency.
      const bool Short = A[1] == 'j';
      uint64_t V = 0;
      if (!parseBounded(Short ? "-j" : "--jobs", A.substr(Short ? 2 : 7), 0,
                        256, V))
        return false;
      O.Jobs = unsigned(V);
      O.JobsSet = true;
    } else if (A == "--ir") {
      O.PrintIR = true;
    } else if (A == "--classify") {
      O.Classify = true;
    } else if (A == "--all-values") {
      O.AllValues = O.Classify = true;
    } else if (A == "--deps") {
      O.Deps = true;
    } else if (A == "--trip-counts") {
      O.TripCounts = true;
    } else if (A == "--strength-reduce") {
      O.StrengthReduce = true;
    } else if (A == "--no-sccp") {
      O.RunSCCP = false;
    } else if (A == "--summarize") {
      O.Summarize = true;
    } else if (A == "--run") {
      O.Run = true;
    } else if (A == "--stats") {
      O.Stats = true;
    } else if (A == "--stats-json" || A.rfind("--stats-json=", 0) == 0) {
      if (A.size() > 12 && A[12] == '=')
        O.StatsJson = A.substr(13);
      else if (I + 1 < Argc)
        O.StatsJson = Argv[++I];
      if (O.StatsJson.empty()) {
        std::fprintf(stderr, "bivc: --stats-json requires a file name\n");
        return false;
      }
    } else if (A.rfind("--peel=", 0) == 0) {
      std::string Spec = A.substr(7);
      size_t Colon = Spec.find(':');
      if (Colon == std::string::npos) {
        O.PeelLoop = Spec;
      } else {
        O.PeelLoop = Spec.substr(0, Colon);
        uint64_t V = 0;
        if (!parseBounded("--peel", Spec.substr(Colon + 1), 1, 1024, V))
          return false;
        O.PeelTimes = unsigned(V);
      }
    } else if (!A.empty() && A[0] == '-') {
      // Anything else that looks like a flag -- `--whatever`, `-z`, a bare
      // `-j` -- is a hard error, never silently a file name.
      std::fprintf(stderr, "bivc: unknown option %s\n", A.c_str());
      return false;
    } else if (O.Batch) {
      O.BatchFiles.push_back(A);
    } else if (O.File.empty()) {
      O.File = A;
    } else {
      return false;
    }
  }
  if (!O.CacheFile.empty() && !O.Batch && O.ServeSocket.empty()) {
    std::fprintf(stderr,
                 "bivc: --cache only applies to --batch and --serve modes\n");
    return false;
  }
  if (!O.ServeSocket.empty()) {
    if (O.Batch || O.Fuzz || !O.ConnectSocket.empty() || !O.File.empty()) {
      std::fprintf(stderr,
                   "bivc: --serve takes no input files and excludes the "
                   "other modes\n");
      return false;
    }
    if (O.CacheMaxSet && O.CacheFile.empty()) {
      std::fprintf(stderr,
                   "bivc: --cache-max-bytes requires --cache FILE\n");
      return false;
    }
    return true;
  }
  if (O.AdmitSet) {
    std::fprintf(stderr, "bivc: --admit only applies to --serve mode\n");
    return false;
  }
  if (O.WorkersSet || !O.ServeTcp.empty() || O.CacheMaxSet) {
    std::fprintf(stderr, "bivc: --workers, --serve-tcp, and "
                         "--cache-max-bytes only apply to --serve mode\n");
    return false;
  }
  if (!O.ConnectSocket.empty()) {
    if (O.Batch || O.Fuzz)
      return false;
    if (O.PrintIR || O.Deps || O.TripCounts || O.Run || O.StrengthReduce ||
        !O.PeelLoop.empty()) {
      std::fprintf(stderr,
                   "bivc: --connect serves classification reports only\n");
      return false;
    }
    if (O.ServerStats)
      return O.File.empty();
    if (O.File.empty()) {
      std::fprintf(stderr,
                   "bivc: --connect requires a FILE (or --server-stats)\n");
      return false;
    }
    O.Classify = true;
    return true;
  }
  if (O.DeadlineMs != 0 || O.ServerStats) {
    std::fprintf(stderr, "bivc: --deadline-ms and --server-stats only "
                         "apply to --connect mode\n");
    return false;
  }
  if (O.Fuzz)
    return O.File.empty() && !O.Batch;
  if (O.Batch)
    return !O.BatchFiles.empty();
  if (O.File.empty())
    return false;
  if (!O.PrintIR && !O.Deps && !O.TripCounts && !O.Run &&
      !O.StrengthReduce)
    O.Classify = true;
  return true;
}

/// Renders \p S to the surfaces the flags asked for: human table on stderr
/// (--stats), schema-v1 JSON file (--stats-json).  \p BatchJson, when
/// non-empty, replaces the single-snapshot JSON body (batch mode embeds
/// per-unit snapshots).  Returns false when the JSON file cannot be written.
bool writeStatsOutputs(const CliOptions &O, const stats::StatsSnapshot &S,
                       const std::string &BatchJson = std::string()) {
  if (O.Stats) {
    std::string T = S.renderTable();
    std::fwrite(T.data(), 1, T.size(), stderr);
  }
  if (!O.StatsJson.empty()) {
    std::ofstream Out(O.StatsJson);
    if (!Out) {
      std::fprintf(stderr, "bivc: cannot write %s\n", O.StatsJson.c_str());
      return false;
    }
    Out << (BatchJson.empty() ? S.renderJson() : BatchJson) << "\n";
    // Opening can succeed where writing does not (full disk, /dev/full, a
    // vanished directory): flush and re-check, or a truncated stats file
    // would pass for a successful run.
    Out.flush();
    if (!Out) {
      std::fprintf(stderr, "bivc: error writing %s\n", O.StatsJson.c_str());
      return false;
    }
  }
  return true;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (unsigned(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", unsigned(C));
      Out += Buf;
      continue;
    }
    Out += C;
  }
  return Out;
}

int runFuzzMode(const CliOptions &O) {
  fuzz::FuzzOptions FO;
  FO.Count = O.FuzzCount;
  FO.Seed = O.FuzzSeed;
  FO.Minimize = O.FuzzMinimize;
  FO.CacheOracleAlways = O.FuzzCacheOracle;
  FO.Oracle.Summarize = O.Summarize;
  fuzz::FuzzResult R = fuzz::runFuzz(FO);
  std::string Text = R.renderText();
  std::fwrite(Text.data(), 1, Text.size(), stdout);
  if (O.statsRequested() &&
      !writeStatsOutputs(O, stats::snapshotFrame(stats::captureFrame())))
    return 1;
  return R.ok() ? 0 : 1;
}

int runBatch(const CliOptions &O) {
  std::vector<driver::SourceInput> Sources;
  Sources.reserve(O.BatchFiles.size());
  for (const std::string &Path : O.BatchFiles) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "bivc: cannot open %s\n", Path.c_str());
      return 1;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    Sources.push_back({Path, Buf.str()});
  }

  driver::BatchOptions BO;
  BO.Jobs = O.Jobs;
  BO.RunSCCP = O.RunSCCP;
  BO.MaterializeExitValues = O.Materialize;
  BO.Classify = !O.SummaryOnly;
  BO.Summarize = O.Summarize;
  BO.Report.AllValues = O.AllValues;

  cache::AnalysisCache Cache;
  if (!O.CacheFile.empty()) {
    std::string Err;
    if (!Cache.open(O.CacheFile, Err)) {
      std::fprintf(stderr, "bivc: %s\n", Err.c_str());
      return 1;
    }
    if (Cache.invalidated())
      std::fprintf(stderr,
                   "bivc: cache %s is stale or damaged; rebuilding it\n",
                   O.CacheFile.c_str());
    BO.Cache = &Cache;
  }

  driver::BatchResult R = driver::analyzeBatch(Sources, BO);
  std::string Text = R.renderText();
  std::fwrite(Text.data(), 1, Text.size(), stdout);

  if (!O.CacheFile.empty()) {
    std::string Err;
    if (!Cache.save(Err)) {
      // A cache that silently fails to persist would re-analyze forever
      // while claiming warm runs; fail the whole invocation instead.
      std::fprintf(stderr, "bivc: %s\n", Err.c_str());
      return 1;
    }
  }

  if (O.statsRequested()) {
    stats::StatsSnapshot Merged = stats::snapshotFrame(R.MergedStats);
    // Batch JSON: one snapshot per unit (input order) plus the aggregate.
    std::string Json;
    if (!O.StatsJson.empty()) {
      Json = "{\n  \"v\": 1,\n  \"units\": [";
      for (size_t I = 0; I < R.Units.size(); ++I) {
        const driver::UnitResult &U = R.Units[I];
        Json += I ? ",\n" : "\n";
        Json += "    {\"name\": \"" + jsonEscape(U.Name) + "\", \"stats\":\n";
        Json += stats::snapshotFrame(U.StatsDelta).renderJson("      ");
        Json += "}";
      }
      Json += "\n  ],\n  \"aggregate\":\n";
      Json += Merged.renderJson("    ");
      Json += "\n}";
    }
    if (!writeStatsOutputs(O, Merged, Json))
      return 1;
  }
  return R.Failed == 0 ? 0 : 1;
}

int runServe(const CliOptions &O) {
  server::ServerOptions SO;
  // Unlike batch mode a daemon defaults to the hardware concurrency: the
  // whole point is amortizing one process over many concurrent clients.
  SO.Threads = O.JobsSet ? O.Jobs : 0;
  SO.AdmitLimit = O.AdmitLimit;
  SO.CachePath = O.CacheFile;
  SO.CacheMaxBytes = O.CacheMaxBytes;
  // Fault injection for the soak harness only; see ServerOptions.
  if (const char *Tok = std::getenv("BIV_SERVE_CRASH_TOKEN"))
    SO.CrashToken = Tok;

  if (O.Workers > 1) {
    // Fleet mode: fork first, thread later.  The supervisor owns the
    // bound sockets and the socket file; stats remain per-worker, so the
    // daemon-side --stats surfaces are not available here.
    if (O.statsRequested())
      std::fprintf(stderr,
                   "bivc: --stats/--stats-json are per-worker; the fleet "
                   "supervisor has none to report\n");
    server::FleetOptions FO;
    FO.SocketPath = O.ServeSocket;
    FO.TcpSpec = O.ServeTcp;
    FO.Workers = O.Workers;
    FO.Worker = SO;
    std::fprintf(stderr,
                 "bivc: fleet of %u workers on %s (admit limit %zu per "
                 "worker); SIGTERM drains\n",
                 O.Workers, O.ServeSocket.c_str(), SO.AdmitLimit);
    return server::runFleet(FO);
  }

  SO.TcpSpec = O.ServeTcp;
  server::Server S(O.ServeSocket, SO);
  std::string Err;
  if (!S.start(Err)) {
    std::fprintf(stderr, "bivc: %s\n", Err.c_str());
    return 1;
  }
  S.installSignalHandlers();
  if (S.tcpPort() != 0)
    std::fprintf(stderr, "bivc: serving on tcp port %d\n", S.tcpPort());
  std::fprintf(stderr,
               "bivc: serving on %s (admit limit %zu); SIGTERM drains\n",
               O.ServeSocket.c_str(), SO.AdmitLimit);
  S.waitForShutdown();
  int Rc = 0;
  if (!S.drain(Err)) {
    std::fprintf(stderr, "bivc: %s\n", Err.c_str());
    Rc = 1;
  }
  if (O.statsRequested() && !writeStatsOutputs(O, S.statsSnapshot()))
    Rc = 1;
  return Rc;
}

/// The analysis options of a one-shot run.  Exit values are always
/// materialized (--batch defaults that off instead) and tuples nested.
/// --connect sends these same options, which is what makes a served report
/// byte-identical to `bivc FILE`.
driver::AnalysisOptions oneShotOptions(const CliOptions &O) {
  driver::AnalysisOptions AO;
  AO.RunSCCP = O.RunSCCP;
  AO.MaterializeExitValues = true;
  AO.Classify = O.Classify;
  AO.Summarize = O.Summarize;
  AO.Report.AllValues = O.AllValues;
  return AO;
}

int runConnect(const CliOptions &O) {
  server::Request Q;
  if (O.ServerStats) {
    Q.Kind = server::RequestKind::Stats;
  } else {
    std::ifstream In(O.File);
    if (!In) {
      std::fprintf(stderr, "bivc: cannot open %s\n", O.File.c_str());
      return 1;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    Q.Kind = server::RequestKind::Analyze;
    Q.Source = Buf.str();
    Q.OptsBits = oneShotOptions(O).toBits();
    Q.DeadlineMs = O.DeadlineMs;
  }
  server::Response R;
  std::string Err;
  if (!server::call(O.ConnectSocket, Q, R, Err)) {
    std::fprintf(stderr, "bivc: %s\n", Err.c_str());
    return 1;
  }
  if (R.S != server::Status::Ok) {
    std::fprintf(stderr, "bivc: server: %s%s%s\n", server::statusName(R.S),
                 R.Body.empty() ? "" : ": ", R.Body.c_str());
    return 1;
  }
  std::fwrite(R.Body.data(), 1, R.Body.size(), stdout);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions O;
  if (!parseArgs(Argc, Argv, O))
    return usage();

  if (!O.ServeSocket.empty())
    return runServe(O);
  if (!O.ConnectSocket.empty())
    return runConnect(O);
  if (O.Fuzz)
    return runFuzzMode(O);
  if (O.Batch)
    return runBatch(O);

  std::ifstream In(O.File);
  if (!In) {
    std::fprintf(stderr, "bivc: cannot open %s\n", O.File.c_str());
    return 1;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();

  std::vector<std::string> Errors;
  ivclass::AnalyzedProgram P;
  P.F = frontend::parseAndLower(Buf.str(), Errors);
  if (!P.F) {
    for (const std::string &E : Errors)
      std::fprintf(stderr, "bivc: %s\n", E.c_str());
    // Diagnostics are themselves counted; a failing parse still reports.
    if (O.statsRequested())
      writeStatsOutputs(O, stats::snapshotFrame(stats::captureFrame()));
    return 1;
  }

  if (!O.PeelLoop.empty()) {
    unsigned Peeled = transform::peelLoop(*P.F, O.PeelLoop, O.PeelTimes);
    if (Peeled < O.PeelTimes) {
      // Partial success is still a failure of the request, but the IR now
      // really carries Peeled copies -- say so instead of pretending
      // nothing happened.
      std::fprintf(stderr,
                   "bivc: peeled only %u of %u requested iteration(s) of "
                   "loop '%s'\n",
                   Peeled, O.PeelTimes, O.PeelLoop.c_str());
      return 1;
    }
    std::printf(";; peeled %u iteration(s) of %s\n", Peeled,
                O.PeelLoop.c_str());
  }

  // Peeling rewrites the lowered IR, so the front half is spelled out here;
  // the analysis half is the pipeline's, under oneShotOptions.
  P.Info = ssa::buildSSA(*P.F);
  ssa::verifySSAOrDie(*P.F);
  const driver::AnalysisOptions AO = oneShotOptions(O);
  ivclass::analyzeParsed(P, AO.pipeline());
  ivclass::InductionAnalysis &IA = *P.IA;

  if (O.StrengthReduce) {
    transform::StrengthReduceStats S = transform::strengthReduce(IA);
    std::printf(";; strength reduction: %u multiplication(s) replaced\n",
                S.Reduced);
    ssa::verifySSAOrDie(*P.F);
    O.PrintIR = true;
  }

  if (O.PrintIR)
    std::printf("%s\n", ir::toString(*P.F).c_str());

  if (O.Classify)
    std::printf("%s", ivclass::report(IA, &P.Info, AO.Report).c_str());

  if (O.TripCounts)
    for (const auto &L : P.LI->loops())
      std::printf("trip count of %s: %s\n", L->name().c_str(),
                  IA.tripCount(L.get()).str(IA.namer()).c_str());

  if (O.Deps) {
    dependence::DependenceAnalyzer DA(IA);
    std::vector<dependence::Dependence> Deps = DA.analyze();
    std::printf("%s", DA.report(Deps).c_str());
  }

  if (O.Run) {
    interp::ExecutionTrace T = interp::run(*P.F, O.RunArgs);
    if (!T.ok()) {
      std::fprintf(stderr, "bivc: execution failed: %s\n", T.Error.c_str());
      return 1;
    }
    if (T.ReturnValue)
      std::printf("returned %lld (in %llu steps)\n",
                  static_cast<long long>(*T.ReturnValue),
                  static_cast<unsigned long long>(T.Steps));
    else
      std::printf("returned void (in %llu steps)\n",
                  static_cast<unsigned long long>(T.Steps));
  }

  if (O.statsRequested()) {
    // The per-kind counters fire in countHeaderPhiKinds (the one canonical
    // accounting site); driver::analyzeUnit calls it per unit, single mode
    // here.
    ivclass::countHeaderPhiKinds(IA);
    if (!writeStatsOutputs(O, stats::snapshotFrame(stats::captureFrame())))
      return 1;
  }
  return 0;
}
