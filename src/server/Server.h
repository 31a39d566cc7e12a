//===- server/Server.h - Persistent analysis daemon -------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis-as-a-service daemon behind `bivc --serve SOCKET`: a
/// unix-domain socket front end that amortizes process startup over many
/// requests, shares one warm AnalysisCache across all of them, and
/// schedules the actual pipeline work onto the existing driver::ThreadPool.
///
/// Lifecycle invariants (the point of the exercise -- this is the same
/// shape as an inference front end):
///
///  - No accepted request is ever silently dropped.  Every connection the
///    accept loop takes gets exactly one response frame: a report, an
///    analysis error, `overloaded`, `deadline_exceeded`, or (for
///    connections still in the kernel backlog when shutdown starts)
///    `shutting_down`.
///  - Admission is bounded.  At most AdmitLimit analyze requests may be
///    queued-or-running; the next one is answered `overloaded` immediately
///    instead of growing an unbounded buffer.
///  - Deadlines are enforced at dispatch.  A request whose deadline expired
///    while it sat in the queue is answered `deadline_exceeded` without
///    paying for the analysis.
///  - A crashing request fails alone.  Worker-side exceptions become an
///    `analysis_error` response on that one connection; the daemon and its
///    siblings keep serving.
///  - SIGTERM drains.  The accept loop stops taking connections, every
///    already-admitted request runs to completion and is answered, the
///    shared cache is saved, and only then does the process exit.
///
/// Observability: the server merges every request's stats-frame delta into
/// one server-lifetime frame (per-request latency and queue-depth-at-
/// admission histograms included, via the support/Stats histogram cells),
/// so `--stats`/`--stats-json` on the daemon and the Stats request kind
/// both see cache traffic and tail latency.  DESIGN.md section 10 has the
/// full protocol and semantics.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_SERVER_SERVER_H
#define BEYONDIV_SERVER_SERVER_H

#include "cache/AnalysisCache.h"
#include "driver/BatchAnalyzer.h"
#include "driver/ThreadPool.h"
#include "server/Protocol.h"
#include "support/Stats.h"
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace biv {
namespace server {

struct ServerOptions {
  /// Worker threads for the analysis pool; 0 = hardware concurrency.
  unsigned Threads = 0;
  /// Max analyze requests admitted (queued + running) at once; the next
  /// one is answered Overloaded.
  size_t AdmitLimit = 64;
  /// Persistent shared cache path; empty = serve without one.  Opened at
  /// start() (unwritable/unreadable is a hard start error, matching
  /// `--cache`) and saved during drain.
  std::string CachePath;
  /// Byte cap for the cache file (`--cache-max-bytes`); a save that would
  /// exceed it compacts, evicting least-recently-used entries.  0 =
  /// unbounded.
  uint64_t CacheMaxBytes = 0;
  /// Flush cadence: once this many misses are pending in memory, the next
  /// one saves the cache mid-flight (so fleet siblings can warm from it
  /// and a crash loses at most this much work), in addition to the final
  /// save at drain.
  size_t CacheFlushEvery = 64;
  /// Optional TCP frontend, "HOST:PORT" (`--serve-tcp`; port 0 lets the
  /// kernel pick -- see tcpPort()).  Served alongside the unix socket,
  /// same protocol, same lifecycle.
  std::string TcpSpec;
  /// Fleet mode: already-bound listening sockets inherited from the
  /// parent.  When non-empty, start() adopts these instead of binding
  /// (SocketPath/TcpSpec are the parent's business), and drain() leaves
  /// the socket file alone -- the supervisor owns it.
  std::vector<int> AdoptedFds;
  /// Test-only: requests whose source contains this token kill the worker
  /// process (`_exit`) between accept and reply, simulating a mid-request
  /// crash for the fleet soak.  Wired from BIV_SERVE_CRASH_TOKEN; never
  /// set in production paths.
  std::string CrashToken;
  /// Test-only: runs on the worker just before each analyze request's
  /// pipeline, letting tests hold workers to fill the admission queue
  /// deterministically.  Never set in production paths.
  std::function<void(const Request &)> TestHookBeforeAnalyze;
};

class Server {
public:
  /// Binds to nothing yet; start() does the socket work.
  Server(std::string SocketPath, ServerOptions Opts = ServerOptions());
  /// Stops accepting, drains, and cleans up if the caller never did.
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Opens the cache (if configured), binds + listens on the socket path
  /// (an existing stale socket file is replaced), and spawns the accept
  /// loop.  False with \p Error set on any failure.
  bool start(std::string &Error);

  /// Initiates drain: stop accepting, finish every admitted request.
  /// Async-signal-safe (one write to a pipe) -- this is the SIGTERM hook.
  /// Idempotent.
  void requestShutdown();

  /// Blocks until the accept loop exits and all admitted requests are
  /// answered, then saves the cache.  Returns false with \p Error set when
  /// the cache cannot be persisted (the daemon's exit status must not claim
  /// warm runs it silently threw away).
  bool drain(std::string &Error);

  /// Blocks the calling thread until a shutdown has been requested (via
  /// signal or requestShutdown()) and the accept loop has exited; the
  /// caller then runs drain() to finish in-flight work and clean up.  This
  /// is the daemon main loop's "sleep until SIGTERM".
  void waitForShutdown();

  /// Installs SIGTERM + SIGINT handlers that requestShutdown() this
  /// instance.  Call at most once, from the thread that owns the server.
  void installSignalHandlers();

  /// Merged server-lifetime stats: every finished request's frame delta
  /// plus the accept loop's own counters.  Safe to call concurrently with
  /// serving (this is what the Stats request kind returns as JSON).
  stats::StatsSnapshot statsSnapshot() const;

  const std::string &socketPath() const { return SocketPath; }
  /// The bound TCP port when a TcpSpec was given (resolves port 0 to the
  /// kernel's pick); 0 when there is no TCP frontend.
  int tcpPort() const { return TcpListenPort; }

private:
  void acceptLoop();
  /// Reads and dispatches one connection on the accept thread; \p Base is
  /// the accept thread's stats-fold cursor (folded before any reply this
  /// thread sends itself).
  void handleConnection(int Fd, stats::Frame &Base);
  void serveAnalyze(int Fd, Request Q, const driver::AnalysisOptions &AO,
                    std::chrono::steady_clock::time_point Accepted);
  /// driver::analyzeUnit plus the daemon's cache policy: insert on
  /// completion, flush on a cadence.
  Response analyze(const std::string &Source,
                   const driver::AnalysisOptions &AO);
  void reply(int Fd, const Response &R);
  /// Folds the calling thread's frame progress since \p Base into the
  /// server-lifetime frame and advances \p Base.
  void mergeThreadDelta(stats::Frame &Base);

  std::string SocketPath;
  ServerOptions Opts;

  /// All listening sockets (unix, maybe TCP, or the fleet's adopted fds);
  /// the accept loop polls them all.
  std::vector<int> ListenFds;
  /// Whether we bound the unix socket ourselves (and so must unlink its
  /// file at drain); false in fleet-worker mode.
  bool OwnSocketFile = false;
  int TcpListenPort = 0;
  int WakeFd[2] = {-1, -1}; ///< self-pipe: [0] polled, [1] written by
                            ///< requestShutdown / signal handler
  std::thread AcceptThread;
  std::unique_ptr<driver::ThreadPool> Pool;

  cache::AnalysisCache Cache;
  bool HaveCache = false;
  /// Serializes mid-flight cache flushes (try-lock: a worker that finds a
  /// flush already running just skips -- the cadence is advisory).
  std::mutex FlushM;

  std::atomic<size_t> Admitted{0}; ///< analyze requests queued + running
  std::atomic<bool> ShuttingDown{false};
  std::atomic<bool> Started{false};
  std::atomic<bool> Drained{false};

  /// Server-lifetime stats frame; every thread folds its deltas in here.
  mutable std::mutex StatsM;
  stats::Frame Lifetime;
};

} // namespace server
} // namespace biv

#endif // BEYONDIV_SERVER_SERVER_H
