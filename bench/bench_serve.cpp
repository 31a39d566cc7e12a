//===- bench/bench_serve.cpp - B8: daemon round-trip throughput ---------------===//
//
// Drives an in-process `bivc --serve` daemon end-to-end over a unix-domain
// socket: a seeded corpus is pushed through concurrent blocking clients
// twice -- once cold (every request a cache miss) and once warm (every
// request served from the shared cache) -- and the record is wall-clock
// throughput for both passes plus the daemon's own request-latency
// histogram quantiles.  Socket framing, admission, scheduling, and the
// shared-cache lock are all on the measured path.
//
//   bench_serve [--functions=N] [--clients=N] [--jobs=N] [--quick]
//               [--json=PATH] [--fleet=N]
//
// With --fleet=N the daemon is instead a real pre-forked fleet (a
// supervisor child running runFleet with N workers, each a full process)
// and the record is aggregate client-side throughput plus p50/p99
// latency, including an overload pass that offers 4x the client
// concurrency.  Latency is measured at the client because fleet stats are
// per-worker (see server/Fleet.h).
//
// Like bench_batch and bench_cache this is a plain binary; the JSON
// fragment it writes is merged into BENCH_SCALING.json under the "serve"
// (or, for --fleet, "serve_fleet") key by bench/run_benchmarks.sh.
//
//===----------------------------------------------------------------------===//

#include "WorkloadGen.h"
#include "driver/BatchAnalyzer.h"
#include "server/Client.h"
#include "server/Fleet.h"
#include "server/Server.h"
#include "support/Stats.h"
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace biv;

namespace {

// The one-shot CLI's default options, as `bivc --connect` sends them: the
// batch defaults with exit values materialized.
const uint64_t DefaultBits = [] {
  driver::AnalysisOptions AO;
  AO.MaterializeExitValues = true;
  return AO.toBits();
}();

struct PassResult {
  double WallMs = 0.0;
  uint64_t Ok = 0;
  uint64_t Failed = 0;
};

/// Pushes every source through the daemon once, sharded over Clients
/// concurrent blocking connections.
PassResult runPass(const std::string &Socket,
                   const std::vector<std::string> &Sources,
                   unsigned Clients) {
  std::atomic<size_t> Next{0};
  std::atomic<uint64_t> Ok{0}, Failed{0};
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&] {
      for (;;) {
        size_t I = Next.fetch_add(1);
        if (I >= Sources.size())
          return;
        server::Request Q;
        Q.OptsBits = DefaultBits;
        Q.Source = Sources[I];
        server::Response R;
        std::string Err;
        if (server::call(Socket, Q, R, Err) &&
            R.S == server::Status::Ok)
          Ok.fetch_add(1);
        else
          Failed.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  auto T1 = std::chrono::steady_clock::now();
  PassResult P;
  P.WallMs = std::chrono::duration<double, std::milli>(T1 - T0).count();
  P.Ok = Ok.load();
  P.Failed = Failed.load();
  return P;
}

// A fleet pass additionally measures per-request latency at the client:
// fleet workers are separate processes with separate stats, so the client
// side is the only place an aggregate distribution exists.
struct FleetPass {
  double WallMs = 0.0;
  uint64_t Ok = 0;
  uint64_t Overloaded = 0;
  uint64_t Failed = 0;
  std::vector<uint64_t> LatNs;
};

FleetPass runFleetPass(const std::string &Socket,
                       const std::vector<std::string> &Sources,
                       unsigned Clients) {
  std::atomic<size_t> Next{0};
  std::mutex Merge;
  FleetPass P;
  P.LatNs.reserve(Sources.size());
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&] {
      std::vector<uint64_t> Local;
      uint64_t Ok = 0, Over = 0, Failed = 0;
      for (;;) {
        size_t I = Next.fetch_add(1);
        if (I >= Sources.size())
          break;
        server::Request Q;
        Q.OptsBits = DefaultBits;
        Q.Source = Sources[I];
        server::Response R;
        std::string Err;
        auto S0 = std::chrono::steady_clock::now();
        bool Sent = server::call(Socket, Q, R, Err);
        auto S1 = std::chrono::steady_clock::now();
        if (Sent && R.S == server::Status::Ok) {
          ++Ok;
          Local.push_back(uint64_t(
              std::chrono::duration_cast<std::chrono::nanoseconds>(S1 - S0)
                  .count()));
        } else if (Sent && R.S == server::Status::Overloaded) {
          ++Over; // explicit backpressure, not a lifecycle failure
        } else {
          ++Failed;
        }
      }
      std::lock_guard<std::mutex> Lock(Merge);
      P.Ok += Ok;
      P.Overloaded += Over;
      P.Failed += Failed;
      P.LatNs.insert(P.LatNs.end(), Local.begin(), Local.end());
    });
  for (std::thread &T : Threads)
    T.join();
  auto T1 = std::chrono::steady_clock::now();
  P.WallMs = std::chrono::duration<double, std::milli>(T1 - T0).count();
  std::sort(P.LatNs.begin(), P.LatNs.end());
  return P;
}

uint64_t quantile(const std::vector<uint64_t> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  size_t I = size_t(Q * double(Sorted.size() - 1));
  return Sorted[std::min(I, Sorted.size() - 1)];
}

/// The --fleet=N path: fork a supervisor child running a real pre-forked
/// fleet, drive it cold / warm / overloaded from this process, SIGTERM it,
/// and require a clean drain.  Returns the process exit code.
int runFleetBench(unsigned Workers, unsigned Functions, unsigned Clients,
                  unsigned Jobs, const std::string &JsonPath) {
  std::vector<bench::CorpusUnit> Corpus = bench::genCorpus(Functions);
  std::vector<std::string> Sources;
  Sources.reserve(Corpus.size());
  for (const bench::CorpusUnit &U : Corpus)
    Sources.push_back(U.Text);

  std::string Dir = (std::filesystem::temp_directory_path() /
                     ("biv_bench_fleet_" + std::to_string(::getpid())))
                        .string();
  std::filesystem::create_directories(Dir);
  const std::string Socket = Dir + "/fleet.sock";
  const std::string CachePath = Dir + "/fleet.cache";
  const uint64_t CacheCap = 128 * 1024;

  // Fork strictly before any client thread exists (runFleet requires a
  // single-threaded process on entry).
  pid_t Sup = ::fork();
  if (Sup < 0) {
    std::perror("bench_serve: fork");
    return 1;
  }
  if (Sup == 0) {
    server::FleetOptions FO;
    FO.SocketPath = Socket;
    FO.Workers = Workers;
    FO.Worker.Threads = Jobs;
    FO.Worker.AdmitLimit = 4096; // measure queueing, not rejection
    FO.Worker.CachePath = CachePath;
    FO.Worker.CacheMaxBytes = CacheCap;
    ::_exit(server::runFleet(FO));
  }

  // Readiness: the supervisor binds before forking workers, but a worker
  // must be accepting before the clock starts.
  bool Ready = false;
  for (int I = 0; I < 200 && !Ready; ++I) {
    server::Request Q;
    Q.Kind = server::RequestKind::Stats;
    server::Response R;
    std::string Err;
    Ready = server::call(Socket, Q, R, Err);
    if (!Ready)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!Ready) {
    std::fprintf(stderr, "bench_serve: fleet never became ready\n");
    ::kill(Sup, SIGKILL);
    return 1;
  }

  std::printf("# B8f: fleet round-trip throughput (%u workers, "
              "%u functions, %u clients, -j%u per worker)\n",
              Workers, Functions, Clients, Jobs);
  FleetPass Cold = runFleetPass(Socket, Sources, Clients);
  FleetPass Warm = runFleetPass(Socket, Sources, Clients);
  // Overload: 4x the client concurrency against the same corpus.  Service
  // concurrency is Workers x Jobs, so this queues hard; the p99 under this
  // pass is the number an operator sizing a fleet wants.
  unsigned OverClients = Clients * 4;
  FleetPass Over = runFleetPass(Socket, Sources, OverClients);

  ::kill(Sup, SIGTERM);
  int Status = 0;
  ::waitpid(Sup, &Status, 0);
  int SupExit =
      WIFEXITED(Status) ? WEXITSTATUS(Status) : 128 + WTERMSIG(Status);

  std::error_code EC;
  uint64_t CacheBytes = uint64_t(std::filesystem::file_size(CachePath, EC));
  if (EC)
    CacheBytes = 0;

  auto Rps = [&](const FleetPass &P) {
    return P.WallMs > 0 ? 1000.0 * double(P.Ok) / P.WallMs : 0.0;
  };
  std::printf("%10s %12s %14s %12s %12s\n", "pass", "wall_ms",
              "requests_per_s", "p50_ns", "p99_ns");
  std::printf("%10s %12.2f %14.0f %12llu %12llu\n", "cold", Cold.WallMs,
              Rps(Cold), (unsigned long long)quantile(Cold.LatNs, 0.5),
              (unsigned long long)quantile(Cold.LatNs, 0.99));
  std::printf("%10s %12.2f %14.0f %12llu %12llu\n", "warm", Warm.WallMs,
              Rps(Warm), (unsigned long long)quantile(Warm.LatNs, 0.5),
              (unsigned long long)quantile(Warm.LatNs, 0.99));
  std::printf("%10s %12.2f %14.0f %12llu %12llu\n", "overload", Over.WallMs,
              Rps(Over), (unsigned long long)quantile(Over.LatNs, 0.5),
              (unsigned long long)quantile(Over.LatNs, 0.99));
  std::printf("# overloaded replies %llu, cache %llu/%llu bytes, "
              "supervisor exit %d\n",
              (unsigned long long)Over.Overloaded,
              (unsigned long long)CacheBytes, (unsigned long long)CacheCap,
              SupExit);

  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    if (!Out) {
      std::fprintf(stderr, "bench_serve: cannot write %s\n",
                   JsonPath.c_str());
      return 1;
    }
    char Buf[1024];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\n"
        "  \"workers\": %u,\n  \"functions\": %u,\n  \"clients\": %u,\n"
        "  \"jobs\": %u,\n"
        "  \"cold_ms\": %.2f,\n  \"warm_ms\": %.2f,\n"
        "  \"cold_rps\": %.0f,\n  \"warm_rps\": %.0f,\n"
        "  \"warm_p50_ns\": %llu,\n  \"warm_p99_ns\": %llu,\n"
        "  \"overload_clients\": %u,\n  \"overload_rps\": %.0f,\n"
        "  \"overload_p50_ns\": %llu,\n  \"overload_p99_ns\": %llu,\n"
        "  \"overloaded\": %llu,\n"
        "  \"cache_max_bytes\": %llu,\n  \"cache_file_bytes\": %llu,\n"
        "  \"supervisor_exit\": %d\n}\n",
        Workers, Functions, Clients, Jobs, Cold.WallMs, Warm.WallMs,
        Rps(Cold), Rps(Warm),
        (unsigned long long)quantile(Warm.LatNs, 0.5),
        (unsigned long long)quantile(Warm.LatNs, 0.99), OverClients,
        Rps(Over), (unsigned long long)quantile(Over.LatNs, 0.5),
        (unsigned long long)quantile(Over.LatNs, 0.99),
        (unsigned long long)Over.Overloaded, (unsigned long long)CacheCap,
        (unsigned long long)CacheBytes, SupExit);
    Out << Buf;
    Out.flush();
    if (!Out) {
      std::fprintf(stderr, "bench_serve: error writing %s\n",
                   JsonPath.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", JsonPath.c_str());
  }

  std::filesystem::remove_all(Dir, EC);
  // Acceptance: every request answered (overload replies are answers), the
  // bounded cache honored its cap, and the fleet drained cleanly.
  if (Cold.Failed || Warm.Failed || Over.Failed || SupExit != 0 ||
      CacheBytes > CacheCap) {
    std::fprintf(stderr,
                 "bench_serve: fleet lifecycle violation (failed "
                 "%llu/%llu/%llu, cache %llu > %llu, exit %d)\n",
                 (unsigned long long)Cold.Failed,
                 (unsigned long long)Warm.Failed,
                 (unsigned long long)Over.Failed,
                 (unsigned long long)CacheBytes,
                 (unsigned long long)CacheCap, SupExit);
    return 1;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Functions = 1000;
  unsigned Clients = 8;
  unsigned Jobs = 0; // hardware concurrency, the daemon default
  unsigned Fleet = 0; // 0 = in-process daemon; N = pre-forked fleet of N
  std::string JsonPath;
  bool Quick = false;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strncmp(A, "--functions=", 12) == 0)
      Functions = unsigned(std::strtoul(A + 12, nullptr, 10));
    else if (std::strncmp(A, "--clients=", 10) == 0)
      Clients = unsigned(std::strtoul(A + 10, nullptr, 10));
    else if (std::strncmp(A, "--jobs=", 7) == 0)
      Jobs = unsigned(std::strtoul(A + 7, nullptr, 10));
    else if (std::strncmp(A, "--fleet=", 8) == 0)
      Fleet = unsigned(std::strtoul(A + 8, nullptr, 10));
    else if (std::strncmp(A, "--json=", 7) == 0)
      JsonPath = A + 7;
    else if (std::strcmp(A, "--quick") == 0)
      Quick = true;
    else {
      std::fprintf(stderr,
                   "usage: bench_serve [--functions=N] [--clients=N] "
                   "[--jobs=N] [--fleet=N] [--quick] [--json=PATH]\n");
      return 2;
    }
  }
  if (Quick) {
    Functions = std::min(Functions, 64u);
    Clients = std::min(Clients, 4u);
  }
  if (Fleet > 0)
    return runFleetBench(Fleet, Functions, Clients, Jobs, JsonPath);

  std::vector<bench::CorpusUnit> Corpus = bench::genCorpus(Functions);
  std::vector<std::string> Sources;
  Sources.reserve(Corpus.size());
  for (const bench::CorpusUnit &U : Corpus)
    Sources.push_back(U.Text);

  std::string Dir = (std::filesystem::temp_directory_path() /
                     ("biv_bench_serve_" + std::to_string(::getpid())))
                        .string();
  std::filesystem::create_directories(Dir);

  server::ServerOptions SO;
  SO.Threads = Jobs;
  SO.AdmitLimit = 4096; // measure throughput, not rejection
  SO.CachePath = Dir + "/serve.cache";
  server::Server S(Dir + "/serve.sock", SO);
  std::string Err;
  if (!S.start(Err)) {
    std::fprintf(stderr, "bench_serve: %s\n", Err.c_str());
    return 1;
  }

  std::printf("# B8: daemon round-trip throughput (%u functions, "
              "%u clients, -j%u)\n",
              Functions, Clients, Jobs);
  PassResult Cold = runPass(S.socketPath(), Sources, Clients);
  PassResult Warm = runPass(S.socketPath(), Sources, Clients);

  stats::StatsSnapshot Snap = S.statsSnapshot();
  uint64_t Hits = Snap.Counters.count("cache.hit")
                      ? Snap.Counters.at("cache.hit")
                      : 0;
  uint64_t Overloaded = Snap.Counters.count("serve.overloaded")
                            ? Snap.Counters.at("serve.overloaded")
                            : 0;
  uint64_t P50 = 0, P99 = 0;
  if (Snap.Hists.count("serve.latency_ns")) {
    const stats::HistValue &H = Snap.Hists.at("serve.latency_ns");
    P50 = H.quantileUpperBound(0.5);
    P99 = H.quantileUpperBound(0.99);
  }
  bool DrainOk = S.drain(Err);
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  if (!DrainOk) {
    std::fprintf(stderr, "bench_serve: %s\n", Err.c_str());
    return 1;
  }

  double ColdRps = Cold.WallMs > 0 ? 1000.0 * Functions / Cold.WallMs : 0.0;
  double WarmRps = Warm.WallMs > 0 ? 1000.0 * Functions / Warm.WallMs : 0.0;
  std::printf("%10s %12s %14s\n", "pass", "wall_ms", "requests_per_s");
  std::printf("%10s %12.2f %14.0f\n", "cold", Cold.WallMs, ColdRps);
  std::printf("%10s %12.2f %14.0f\n", "warm", Warm.WallMs, WarmRps);
  std::printf("# latency p50 <= %llu ns, p99 <= %llu ns, warm hits "
              "%llu/%u, overloaded %llu\n",
              (unsigned long long)P50, (unsigned long long)P99,
              (unsigned long long)Hits, Functions,
              (unsigned long long)Overloaded);

  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    if (!Out) {
      std::fprintf(stderr, "bench_serve: cannot write %s\n",
                   JsonPath.c_str());
      return 1;
    }
    char Buf[512];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\n"
        "  \"functions\": %u,\n  \"clients\": %u,\n  \"jobs\": %u,\n"
        "  \"cold_ms\": %.2f,\n  \"warm_ms\": %.2f,\n"
        "  \"cold_rps\": %.0f,\n  \"warm_rps\": %.0f,\n"
        "  \"latency_p50_ns_le\": %llu,\n"
        "  \"latency_p99_ns_le\": %llu,\n"
        "  \"warm_hit_rate\": %.4f,\n  \"overloaded\": %llu\n}\n",
        Functions, Clients, Jobs, Cold.WallMs, Warm.WallMs, ColdRps,
        WarmRps, (unsigned long long)P50, (unsigned long long)P99,
        Functions ? double(Hits) / double(Functions) : 0.0,
        (unsigned long long)Overloaded);
    Out << Buf;
    Out.flush();
    if (!Out) {
      std::fprintf(stderr, "bench_serve: error writing %s\n",
                   JsonPath.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", JsonPath.c_str());
  }

  // The daemon's contract doubles as the bench's acceptance check: every
  // request answered, none lost, and the warm pass fully cache-served.
  // (Hits can exceed Functions: the generator may emit duplicate sources,
  // which already hit during the cold pass.)
  if (Cold.Failed || Warm.Failed || Hits < Functions) {
    std::fprintf(stderr,
                 "bench_serve: lifecycle violation (failed %llu/%llu, "
                 "warm hits %llu/%u)\n",
                 (unsigned long long)Cold.Failed,
                 (unsigned long long)Warm.Failed,
                 (unsigned long long)Hits, Functions);
    return 1;
  }
  return 0;
}
