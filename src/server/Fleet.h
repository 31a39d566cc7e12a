//===- server/Fleet.h - Pre-forked multi-worker serving ---------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fleet mode for `bivc --serve`: a listener process binds the socket(s),
/// pre-forks N workers that inherit the listening fds and accept() in the
/// worker (the kernel load-balances the backlog across them), and then
/// supervises -- a worker that dies is respawned with exponential backoff,
/// SIGTERM drains the whole fleet, and the exit status aggregates the
/// workers'.  DESIGN.md section 13 has the architecture.
///
/// Division of labor (the Cyclebite pipeline-of-tools shape: a thin
/// coordinator over single-purpose workers):
///
///  - The *listener/supervisor* owns the socket file and the bound fds.
///    It never accepts, parses, or analyzes -- after the fork loop it only
///    waits on signals, so a worker crash can never take it down.
///  - Each *worker* is a full single-process Server (admission control,
///    deadline checks, stats, cache) whose only difference is that it
///    adopts inherited fds instead of binding its own.  Worker processes
///    share the analysis cache file through the cross-process protocol in
///    cache/AnalysisCache.h (flock'd appends, generation counter, mmap
///    snapshots), so a function analyzed by one worker warms all of them
///    at the next flush/refresh.
///
/// Forking happens strictly before any worker thread exists: runFleet()
/// forks first and each child constructs its Server (and thread pool)
/// afterwards, so no lock or condition variable is ever duplicated in a
/// locked state.
///
/// Caveat an operator must know: per-request *stats* stay per-worker.  A
/// Stats request is answered by whichever worker accepted it; fleet-wide
/// aggregation is the monitoring system's job (scrape each worker, or
/// measure at the client).
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_SERVER_FLEET_H
#define BEYONDIV_SERVER_FLEET_H

#include "server/Server.h"
#include <string>

namespace biv {
namespace server {

/// Default `--workers`: one process, i.e. exactly the PR 5 daemon.  The
/// fleet machinery only engages when asked.  tools/check_docs.sh
/// cross-checks this constant against the README.
inline constexpr unsigned DefaultWorkers = 1;
/// Upper bound on `--workers`: past this, fork storms and cache-lock
/// convoys cost more than they buy on any plausible host.
inline constexpr unsigned MaxWorkers = 64;
/// Default `--cache-max-bytes`: 0 = unbounded (the pre-fleet behavior;
/// opting into compaction is an operator decision).  Cross-checked by
/// tools/check_docs.sh against the README.
inline constexpr uint64_t DefaultCacheMaxBytes = 0;

struct FleetOptions {
  /// Unix socket path; empty = TCP only (TcpSpec must then be set).
  std::string SocketPath;
  /// Optional TCP frontend, "HOST:PORT" (port 0 picks a free port).
  std::string TcpSpec;
  unsigned Workers = DefaultWorkers;
  /// Per-worker server options (cache path, admit limit, threads...).
  /// AdoptedFds is overwritten per worker.
  ServerOptions Worker;
};

/// Binds + listens on an AF_UNIX socket at \p Path (a stale socket file is
/// replaced).  Returns the fd, or -1 with \p Error set.
int listenUnix(const std::string &Path, std::string &Error);

/// Binds + listens on a TCP socket for \p Spec ("HOST:PORT"; port 0 lets
/// the kernel pick).  Returns the fd, or -1 with \p Error set.
int listenTcp(const std::string &Spec, std::string &Error);

/// The local port of a bound TCP socket (tests bind port 0 and need the
/// real one).  0 on failure.
int boundTcpPort(int Fd);

/// Binds the sockets, pre-forks FO.Workers worker processes, and
/// supervises until SIGTERM/SIGINT: dead workers respawn with exponential
/// backoff (100ms doubling to 5s; the clock resets once a worker survives
/// its first 10s), a drain signal is forwarded to every worker and waited
/// out, and the socket file is removed last.  Returns the process exit
/// code: 0 when every worker drained cleanly, 1 otherwise.  Must be called
/// before any threads exist in this process.
int runFleet(const FleetOptions &FO);

} // namespace server
} // namespace biv

#endif // BEYONDIV_SERVER_FLEET_H
