//===- perfbench/ServeWorkload.cpp - The `serve-mixed` workload -----------===//
//
// An in-process analysis daemon with a cache file, driven by a closed loop
// of blocking clients (callers that each wait for their reply, like
// `bivc --connect` from a build at -jN).  Traffic comes in blocks of four
// requests: one never-seen source (a cache miss: parse, analyze, insert, and
// the periodic flock'd save) and three repeats of sources primed during
// setup (hits: parse + SSA to hash, then lookup).  Block b's sources and
// miss position derive from (seed, b) alone, so every round sends the same
// requests and the hit share is exactly 3/4.
//
// Sources cycle through the bench shapes plus a self-squaring loop: with
// exit values materialized, as `bivc --connect` asks, the bench shapes alone
// classify fully and punt_rate would read 0.
//
// A round sends every block once through a fresh server and cache file;
// rounds alternate between N clients and one client.  Every reply is
// compared with the batch driver's report for the same source, rendered
// during setup.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Workloads.h"
#include "server/Client.h"
#include "server/Server.h"
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <unistd.h>

using namespace biv;
using namespace perfbench;

namespace {

constexpr size_t HitSources = 256;
/// Never-seen sources per round; a round sends 4x this many requests.  Short
/// rounds give each run enough of them for a steady fast-end round time.
constexpr size_t Blocks = 512;
/// `bivc --connect`'s digest bits (RunSCCP | Materialize | Classify |
/// NestedTuples).
constexpr uint64_t ServeBits = 1 | 2 | 4 | 16;

/// What one round observed.
struct Round {
  unsigned Clients = 0;
  double WallS = 0.0;
  std::vector<double> HitMs, MissMs;
  uint64_t Sent = 0, Failed = 0, Mismatched = 0, ClientHits = 0;
  stats::StatsSnapshot Server; ///< server stats delta over the round
  uint64_t CacheFileBytes = 0;
};

class ServeWorkload : public Workload {
public:
  explicit ServeWorkload(const RunConfig &C)
      : Cfg(C), Dir("serve-" + std::to_string(::getpid())) {}
  ~ServeWorkload() override {
    try {
      stopServer();
    } catch (const std::exception &E) {
      std::fprintf(stderr, "perfbench: %s\n", E.what());
    }
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }

  void setup() override {
    stopServer();
    UniqueCorpus C(ServeBits);
    Lcg R(Cfg.Seed * 0x9e3779b97f4a7c15ull + 17);
    fillShapes(C, R, HitSources + Blocks, "s", /*Squaring=*/true);
    Sources = std::move(C.Units);

    // Reference replies: the batch driver's -j1 reports under the same bits.
    driver::BatchOptions BO;
    BO.Jobs = 1;
    BO.MaterializeExitValues = true;
    Reference = driver::analyzeBatch(Sources, BO);
    if (Reference.Failed != 0)
      throw std::runtime_error("reference analysis failed");

    // The request plan and the instruction counts it parses / analyzes.
    Plan.assign(Blocks * 4, 0);
    ParsedInstrs = MissInstrs = 0;
    for (size_t B = 0; B < Blocks; ++B) {
      Lcg BR(Cfg.Seed * 0x2545f4914f6cdd1dull + B + 1);
      int64_t MissAt = BR.range(0, 3);
      for (int64_t J = 0; J < 4; ++J) {
        size_t Src = J == MissAt ? HitSources + B
                                 : size_t(BR.range(0, HitSources - 1));
        Plan[B * 4 + size_t(J)] = Src;
        ParsedInstrs += Reference.Units[Src].Instructions;
        if (J == MissAt)
          MissInstrs += Reference.Units[Src].Instructions;
      }
    }
    startServer();
  }

  void run(RunResult &R) override;
  std::string traceExtra() const override {
    return "\"slowest_units\": " + Slowest;
  }

private:
  /// Starts a fresh server on an empty cache file and primes the hit
  /// sources through it, N clients at a time.
  void startServer() {
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
    std::filesystem::create_directories(Dir);
    server::ServerOptions SO;
    SO.Threads = Cfg.Jobs;
    SO.CachePath = Dir + "/serve.cache";
    Srv = std::make_unique<server::Server>(Dir + "/s.sock", SO);
    std::string Err;
    if (!Srv->start(Err))
      throw std::runtime_error("server start failed: " + Err);
    std::atomic<size_t> Next{0};
    std::atomic<bool> Primed{true};
    std::vector<std::thread> Clients;
    for (unsigned C = 0; C < Cfg.Jobs; ++C)
      Clients.emplace_back([&] {
        for (size_t I; (I = Next.fetch_add(1)) < HitSources;)
          if (!send(I).second)
            Primed = false;
      });
    for (std::thread &T : Clients)
      T.join();
    if (!Primed)
      throw std::runtime_error("priming request failed");
  }

  /// Drains the server; returns the cache file size it left behind.
  uint64_t stopServer() {
    if (!Srv)
      return 0;
    Srv->requestShutdown();
    std::string Err;
    bool Ok = Srv->drain(Err);
    Srv.reset();
    if (!Ok)
      throw std::runtime_error("server drain failed: " + Err);
    std::error_code EC;
    uint64_t Bytes =
        uint64_t(std::filesystem::file_size(Dir + "/serve.cache", EC));
    return EC ? 0 : Bytes;
  }

  /// One request for source \p Src: (transport and status ok, reply bytes
  /// equal the reference).
  std::pair<bool, bool> send(size_t Src) const {
    server::Request Q;
    Q.OptsBits = ServeBits;
    Q.Source = Sources[Src].Text;
    server::Response Resp;
    std::string Err;
    bool Ok = server::call(Srv->socketPath(), Q, Resp, Err) &&
              Resp.S == server::Status::Ok;
    return {Ok, Ok && Resp.Body == Reference.Units[Src].ReportText};
  }

  Round round(unsigned Clients);
  void check(RunResult &R, const Round &Rd);

  RunConfig Cfg;
  std::string Dir;
  std::vector<driver::SourceInput> Sources;
  driver::BatchResult Reference;
  std::vector<size_t> Plan;
  uint64_t ParsedInstrs = 0, MissInstrs = 0;
  std::unique_ptr<server::Server> Srv;
  std::string Slowest = "[]";
};

/// Sends every block through the running server with \p Clients closed-loop
/// clients, then replaces the server with a fresh one (untimed) so the next
/// round's never-seen sources miss again.
Round ServeWorkload::round(unsigned Clients) {
  Round Rd;
  Rd.Clients = Clients;
  stats::StatsSnapshot Before = Srv->statsSnapshot();
  std::atomic<size_t> NextBlock{0};
  std::vector<Round> PerClient(Clients);
  Span RoundSpan("round", Clients);
  const uint32_t Parent = RoundSpan.id();
  Clock::time_point T0 = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      Round &Mine = PerClient[C];
      for (size_t B; (B = NextBlock.fetch_add(1)) < Blocks;)
        for (size_t J = 0; J < 4; ++J) {
          size_t Src = Plan[B * 4 + J];
          bool Miss = Src >= HitSources;
          Clock::time_point S0 = Clock::now();
          std::pair<bool, bool> Got;
          {
            Span S("server.call", B * 4 + J, Parent);
            Got = send(Src);
          }
          double Ms = secondsSince(S0) * 1e3;
          ++Mine.Sent;
          Mine.Failed += !Got.first;
          Mine.Mismatched += Got.first && !Got.second;
          Mine.ClientHits += !Miss;
          (Miss ? Mine.MissMs : Mine.HitMs).push_back(Ms);
        }
    });
  for (std::thread &T : Threads)
    T.join();
  Rd.WallS = secondsSince(T0);
  Rd.Server = delta(Srv->statsSnapshot(), Before);
  for (const Round &P : PerClient) {
    Rd.Sent += P.Sent;
    Rd.Failed += P.Failed;
    Rd.Mismatched += P.Mismatched;
    Rd.ClientHits += P.ClientHits;
    Rd.HitMs.insert(Rd.HitMs.end(), P.HitMs.begin(), P.HitMs.end());
    Rd.MissMs.insert(Rd.MissMs.end(), P.MissMs.begin(), P.MissMs.end());
  }
  Rd.CacheFileBytes = stopServer();
  startServer();
  return Rd;
}

void ServeWorkload::check(RunResult &R, const Round &Rd) {
  R.Attempted += Rd.Sent;
  R.Failed += Rd.Failed + Rd.Mismatched;
  R.check(Rd.Sent == Blocks * 4, "every planned request was sent");
  R.check(Rd.Failed == 0, "every request is answered Ok");
  R.check(Rd.Mismatched == 0,
          "every served reply matches the batch report byte for byte");
  uint64_t Hits = counter(Rd.Server, "cache.hit");
  uint64_t Misses = counter(Rd.Server, "cache.miss");
  R.check(Hits == Rd.ClientHits && Misses == Rd.Sent - Rd.ClientHits,
          "server cache hits/misses equal the client's repeat count (" +
              std::to_string(Hits) + "/" + std::to_string(Misses) + " vs " +
              std::to_string(Rd.ClientHits) + ")");
}

void ServeWorkload::run(RunResult &R) {
  std::vector<Round> Untraced, Traced;
  auto measure = [&](std::vector<Round> &Out, double Budget) {
    Clock::time_point T0 = Clock::now();
    while (Out.size() < 4 || secondsSince(T0) < Budget) {
      Out.push_back(round(Cfg.Jobs));
      check(R, Out.back());
      R.betweenRounds();
      Out.push_back(round(1));
      check(R, Out.back());
      R.betweenRounds();
      if (Out.size() == 4)
        R.notePeakRss();
    }
  };
  measure(Untraced, Cfg.Trace ? Cfg.Seconds / 2 : Cfg.Seconds);

  // Every round sends the same requests, so round wall times compare.
  std::vector<double> Walls, SerialWalls, HitMs, MissMs;
  uint64_t Hits = 0, Misses = 0;
  for (const Round &Rd : Untraced) {
    if (Rd.Clients == 1)
      SerialWalls.push_back(Rd.WallS);
    if (Rd.Clients == Cfg.Jobs) {
      Walls.push_back(Rd.WallS);
      HitMs.insert(HitMs.end(), Rd.HitMs.begin(), Rd.HitMs.end());
      MissMs.insert(MissMs.end(), Rd.MissMs.begin(), Rd.MissMs.end());
    }
    Hits += counter(Rd.Server, "cache.hit");
    Misses += counter(Rd.Server, "cache.miss");
  }
  const double Requests = double(Blocks * 4);
  const double Rps = Requests / steadyTime(Walls);
  const double SerialRps = Requests / steadyTime(SerialWalls);
  double HitRatio = double(Hits) / double(Hits + Misses);
  R.check(HitRatio == 0.75, "cache hit ratio equals the repeat share 3/4");
  R.EndToEnd["throughput_per_s"] = Rps;
  R.EndToEnd["serial_throughput_per_s"] = SerialRps;
  R.EndToEnd["punt_rate"] = puntRate(Untraced.front().Server);
  R.line("serve: %zu hit sources, %zu miss sources per round (all distinct "
         "by digest), %zu rounds, %u clients / 1 client, %u server threads",
         HitSources, Blocks, Untraced.size(), Cfg.Jobs, Cfg.Jobs);
  R.line("serve_rps: %.1f requests/s (%u clients, p10 round time of %zu "
         "rounds; round median %.4f s)",
         Rps, Cfg.Jobs, Walls.size(), median(Walls));
  R.line("serve_1client_rps: %.1f requests/s (p10 round time of %zu rounds; "
         "round median %.4f s)",
         SerialRps, SerialWalls.size(), median(SerialWalls));
  R.line("serve_hit_p50_ms: %.4f ms, serve_hit_p99_ms: %.4f ms (%zu samples)",
         quantile(HitMs, 0.5), quantile(HitMs, 0.99), HitMs.size());
  R.line("serve_miss_p50_ms: %.4f ms, serve_miss_p99_ms: %.4f ms (%zu "
         "samples)",
         quantile(MissMs, 0.5), quantile(MissMs, 0.99), MissMs.size());
  R.line("punt_rate: %.6f (ivclass.punt %llu in the first round)",
         puntRate(Untraced.front().Server),
         (unsigned long long)counter(Untraced.front().Server, "ivclass.punt"));
  R.line("cache.hit_ratio: %.6f (%llu hits, %llu misses, server-side deltas "
         "over the timed rounds)",
         HitRatio, (unsigned long long)Hits, (unsigned long long)Misses);

  if (!Cfg.Trace)
    return;
  Tracer::get().setEnabled(true);
  measure(Traced, Cfg.Seconds / 2);
  Tracer::get().setEnabled(false);

  std::vector<double> TracedWalls;
  stats::StatsSnapshot Full;
  for (const Round &Rd : Traced)
    if (Rd.Clients == Cfg.Jobs) {
      TracedWalls.push_back(Rd.WallS);
      Full.merge(Rd.Server);
    }
  const double NRounds = double(TracedWalls.size());
  auto PerParsed = [&](const char *T) {
    return double(timerNs(Full, T)) / (double(ParsedInstrs) * NRounds);
  };
  auto PerMissed = [&](const char *T) {
    return double(timerNs(Full, T)) / (double(MissInstrs) * NRounds);
  };
  R.PerLayer["frontend.parse_ns_per_instr"] = PerParsed("phase.parse");
  R.PerLayer["ssa.build_ns_per_instr"] = PerParsed("phase.ssa");
  R.PerLayer["ssa.sccp_ns_per_instr"] = PerMissed("phase.sccp");
  R.PerLayer["analysis.domtree_ns_per_instr"] = PerMissed("phase.domtree");
  R.PerLayer["analysis.loopinfo_ns_per_instr"] = PerMissed("phase.loopinfo");
  R.PerLayer["ivclass.classify_self_ns_per_instr"] =
      double(timerNs(Full, "phase.classify") -
             timerNs(Full, "phase.summarize")) /
      (double(MissInstrs) * NRounds);
  R.PerLayer["ivclass.sccs_visited"] =
      double(counter(Full, "ivclass.sccs_visited")) / NRounds;
  R.PerLayer["ivclass.solver.systems"] =
      double(counter(Full, "ivclass.solver.system")) / NRounds;
  R.PerLayer["cache.hit_ratio"] = HitRatio;
  R.PerLayer["cache.probe_us"] = double(timerNs(Full, "phase.cache")) /
                                 double(timerSpans(Full, "phase.cache")) /
                                 1e3;
  R.PerLayer["cache.file_bytes"] = double(Traced.back().CacheFileBytes);
  const stats::HistValue &Lat = Full.Hists["serve.latency_ns"];
  R.PerLayer["server.latency_p50_us"] =
      double(Lat.quantileUpperBound(0.5)) / 1e3;
  R.PerLayer["server.latency_p99_us"] =
      double(Lat.quantileUpperBound(0.99)) / 1e3;
  R.PerLayer["server.queue_depth_p99"] =
      double(Full.Hists["serve.queue_depth"].quantileUpperBound(0.99));
  R.PerLayer["server.client_hit_p50_ms"] = quantile(HitMs, 0.5);
  R.PerLayer["server.client_hit_p99_ms"] = quantile(HitMs, 0.99);
  R.PerLayer["server.client_miss_p50_ms"] = quantile(MissMs, 0.5);
  R.PerLayer["server.client_miss_p99_ms"] = quantile(MissMs, 0.99);
  R.PerLayer["server.client_hit_samples"] = double(HitMs.size());
  R.PerLayer["server.client_miss_samples"] = double(MissMs.size());
  R.PerLayer["inputs.distinct_units"] = double(Sources.size());
  R.PerLayer["trace.overhead_ratio"] =
      steadyTime(TracedWalls) / steadyTime(Walls);

  std::vector<UnitCost> Costs;
  for (const driver::UnitResult &U : Reference.Units)
    Costs.push_back({U.Name, stats::snapshotFrame(U.StatsDelta)});
  Slowest = reportSlowest(R, std::move(Costs), 5);
}

} // namespace

std::unique_ptr<Workload> perfbench::makeServeWorkload(const RunConfig &C) {
  return std::make_unique<ServeWorkload>(C);
}
