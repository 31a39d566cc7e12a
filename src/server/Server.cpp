//===- server/Server.cpp - Persistent analysis daemon --------------------------===//

#include "server/Server.h"
#include "server/Fleet.h"
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace biv;
using namespace biv::server;

namespace {

/// Seconds a connection may dawdle delivering its request frame before the
/// read times out (guards the accept loop against stalled clients).
constexpr time_t ReadTimeoutSec = 10;

// Request-lifecycle accounting.  Counters are thread-local frame cells like
// everywhere else; each server thread folds its deltas into the lifetime
// frame, so the Stats request kind and the daemon's own --stats see one
// merged view.
const stats::Counter NumAccepted("serve.accepted");
const stats::Counter NumCompleted("serve.completed");
const stats::Counter NumAnalysisErrors("serve.analysis_errors");
const stats::Counter NumBadRequests("serve.bad_requests");
const stats::Counter NumOverloaded("serve.overloaded");
const stats::Counter NumDeadlineExceeded("serve.deadline_exceeded");
const stats::Counter NumRefusedAtShutdown("serve.refused_at_shutdown");
const stats::Counter NumStatsRequests("serve.stats_requests");
const stats::Counter NumReplyFailures("serve.reply_failures");
const stats::Histogram LatencyHist("serve.latency_ns");
const stats::Histogram QueueDepthHist("serve.queue_depth");

/// The instance SIGTERM/SIGINT drain; handlers may only poke something
/// async-signal-safe, which requestShutdown() is (atomic store + pipe
/// write).
std::atomic<Server *> GSignalServer{nullptr};

extern "C" void bivServeTermHandler(int) {
  if (Server *S = GSignalServer.load())
    S->requestShutdown();
}

void closeFd(int &Fd) {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

} // namespace

Server::Server(std::string Path, ServerOptions O)
    : SocketPath(std::move(Path)), Opts(std::move(O)) {}

Server::~Server() {
  std::string Err;
  (void)drain(Err);
  if (GSignalServer.load() == this)
    GSignalServer.store(nullptr);
}

bool Server::start(std::string &Error) {
  if (Started.load()) {
    Error = "server already started";
    return false;
  }
  // A client that disconnects mid-reply must surface as EPIPE on the
  // write, not SIGPIPE to the process: one vanished client must never
  // kill a daemon holding everyone else's connections.  (writeAll also
  // sends with MSG_NOSIGNAL; this covers any other stray write.)
  ::signal(SIGPIPE, SIG_IGN);

  if (!Opts.CachePath.empty()) {
    if (!Cache.open(Opts.CachePath, Error))
      return false;
    if (Cache.invalidated())
      std::fprintf(stderr,
                   "bivc: cache %s is stale or damaged; rebuilding it\n",
                   Opts.CachePath.c_str());
    Cache.setMaxBytes(Opts.CacheMaxBytes);
    HaveCache = true;
  }

  if (!Opts.AdoptedFds.empty()) {
    // Fleet worker: the parent bound everything; we only accept.
    ListenFds = Opts.AdoptedFds;
    OwnSocketFile = false;
  } else {
    if (SocketPath.empty() && Opts.TcpSpec.empty()) {
      Error = "server has no endpoint to listen on";
      return false;
    }
    if (!SocketPath.empty()) {
      int Fd = listenUnix(SocketPath, Error);
      if (Fd < 0)
        return false;
      ListenFds.push_back(Fd);
      OwnSocketFile = true;
    }
    if (!Opts.TcpSpec.empty()) {
      int Fd = listenTcp(Opts.TcpSpec, Error);
      if (Fd < 0) {
        for (int F : ListenFds)
          ::close(F);
        ListenFds.clear();
        return false;
      }
      ListenFds.push_back(Fd);
    }
  }
  for (int Fd : ListenFds) {
    // Non-blocking listen sockets: the accept loop multiplexes them with
    // the shutdown pipe via poll, and drains the backlog without blocking
    // when the drain begins.
    ::fcntl(Fd, F_SETFL, O_NONBLOCK);
    if (boundTcpPort(Fd) != 0)
      TcpListenPort = boundTcpPort(Fd);
  }

  if (::pipe(WakeFd) != 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    for (int &Fd : ListenFds)
      closeFd(Fd);
    ListenFds.clear();
    return false;
  }
  ::fcntl(WakeFd[1], F_SETFL, O_NONBLOCK); // signal handler must not block

  Pool = std::make_unique<driver::ThreadPool>(Opts.Threads);
  Started.store(true);
  AcceptThread = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::requestShutdown() {
  ShuttingDown.store(true);
  if (WakeFd[1] >= 0) {
    char C = 1;
    // The pipe being full means a wake-up is already pending; either way
    // the accept loop will see it.
    [[maybe_unused]] ssize_t N = ::write(WakeFd[1], &C, 1);
  }
}

void Server::installSignalHandlers() {
  GSignalServer.store(this);
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = bivServeTermHandler;
  sigemptyset(&SA.sa_mask);
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
}

void Server::waitForShutdown() {
  // The accept loop only exits once ShuttingDown is observed, so joining
  // it is exactly "sleep until someone asks us to stop".
  if (AcceptThread.joinable())
    AcceptThread.join();
}

bool Server::drain(std::string &Error) {
  if (!Started.load() || Drained.exchange(true))
    return true;
  requestShutdown();
  if (AcceptThread.joinable())
    AcceptThread.join();
  // Every admitted request is still in the pool (or already answered);
  // wait() blocks until each one has written its response.  Tasks catch
  // their own exceptions, so nothing rethrows here.
  Pool->wait();
  for (int &Fd : ListenFds)
    closeFd(Fd);
  ListenFds.clear();
  // In fleet-worker mode the supervisor owns the socket file; removing it
  // here would cut off every sibling still accepting on it.
  if (OwnSocketFile && !SocketPath.empty())
    ::unlink(SocketPath.c_str());
  closeFd(WakeFd[0]);
  closeFd(WakeFd[1]);
  if (HaveCache && !Cache.save(Error))
    return false;
  return true;
}

void Server::mergeThreadDelta(stats::Frame &Base) {
  stats::Frame Now = stats::captureFrame();
  stats::Frame Delta = Now - Base;
  Base = Now;
  std::lock_guard<std::mutex> Lock(StatsM);
  Lifetime += Delta;
}

stats::StatsSnapshot Server::statsSnapshot() const {
  std::lock_guard<std::mutex> Lock(StatsM);
  return stats::snapshotFrame(Lifetime);
}

void Server::acceptLoop() {
  stats::Frame Base = stats::captureFrame();
  std::vector<pollfd> Fds;
  for (int Fd : ListenFds)
    Fds.push_back({Fd, POLLIN, 0});
  Fds.push_back({WakeFd[0], POLLIN, 0});
  const size_t Wake = Fds.size() - 1;
  bool Draining = false;
  while (!Draining) {
    for (pollfd &P : Fds)
      P.revents = 0;
    if (::poll(Fds.data(), nfds_t(Fds.size()), -1) < 0) {
      if (errno == EINTR)
        continue;
      break; // poll on our own fds cannot fail transiently otherwise
    }
    if (Fds[Wake].revents != 0 || ShuttingDown.load()) {
      Draining = true;
      break;
    }
    for (size_t I = 0; I < Wake && !Draining; ++I) {
      if (Fds[I].revents == 0)
        continue;
      for (;;) {
        int Fd = ::accept(Fds[I].fd, nullptr, nullptr);
        if (Fd < 0) {
          if (errno == EINTR)
            continue;
          break; // EAGAIN: backlog empty (or a fleet sibling won the
                 // race for it), back to poll
        }
        handleConnection(Fd, Base);
        mergeThreadDelta(Base);
        if (ShuttingDown.load()) {
          Draining = true;
          break;
        }
      }
    }
  }
  // Connections that reached the kernel backlog but were never taken must
  // not be silently dropped either: answer each with shutting_down.  (In
  // fleet mode the backlog is shared; whatever this worker wins here, it
  // answers.)
  for (size_t I = 0; I < Wake; ++I) {
    for (;;) {
      int Fd = ::accept(Fds[I].fd, nullptr, nullptr);
      if (Fd < 0) {
        if (errno == EINTR)
          continue;
        break;
      }
      NumRefusedAtShutdown.bump();
      reply(Fd, Response{Status::ShuttingDown, "server is draining"});
      ::close(Fd);
    }
  }
  mergeThreadDelta(Base);
}

void Server::handleConnection(int Fd, stats::Frame &Base) {
  NumAccepted.bump();
  timeval TV{};
  TV.tv_sec = ReadTimeoutSec;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));

  // Replies sent from this thread fold the stats delta first, mirroring
  // the workers: a client holding its answer must find its own request in
  // a follow-up stats query, whichever thread replied.
  std::string Payload, Err;
  Request Q;
  driver::AnalysisOptions AO;
  // Undefined option bits are a malformed request like any other, refused
  // before admission: such a request never takes a slot or a cache entry.
  if (!readFrame(Fd, Payload, Err) || !Q.decode(Payload, Err) ||
      (Q.Kind == RequestKind::Analyze &&
       !driver::AnalysisOptions::fromBits(Q.OptsBits, AO, Err))) {
    NumBadRequests.bump();
    mergeThreadDelta(Base);
    reply(Fd, Response{Status::BadRequest, Err});
    ::close(Fd);
    return;
  }

  if (Q.Kind == RequestKind::Stats) {
    // Served inline on the accept thread: always answerable, even when
    // every worker is busy -- that is exactly when you want stats.
    NumStatsRequests.bump();
    mergeThreadDelta(Base);
    stats::StatsSnapshot S = statsSnapshot();
    reply(Fd, Response{Status::Ok, S.renderJson()});
    ::close(Fd);
    return;
  }

  // Admission control.  The depth histogram sees every arrival (including
  // the rejected ones): the tail of this distribution is the backpressure
  // signal.
  size_t Depth = Admitted.load();
  QueueDepthHist.observe(Depth);
  if (Depth >= Opts.AdmitLimit) {
    NumOverloaded.bump();
    mergeThreadDelta(Base);
    reply(Fd, Response{Status::Overloaded,
                       "admission queue full (" +
                           std::to_string(Opts.AdmitLimit) + " in flight)"});
    ::close(Fd);
    return;
  }
  Admitted.fetch_add(1);
  std::chrono::steady_clock::time_point Accepted =
      std::chrono::steady_clock::now();
  auto Shared = std::make_shared<Request>(std::move(Q));
  Pool->submit([this, Fd, Shared, AO, Accepted] {
    serveAnalyze(Fd, std::move(*Shared), AO, Accepted);
  });
}

void Server::serveAnalyze(int Fd, Request Q,
                          const driver::AnalysisOptions &AO,
                          std::chrono::steady_clock::time_point Accepted) {
  stats::Frame Base = stats::captureFrame();
  Response R;
  auto Elapsed = [&Accepted] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - Accepted)
        .count();
  };
  // Fault injection for the fleet soak: die the way a real worker bug
  // would -- request read, no reply written -- so the client sees a peer
  // close (not a hang) and the supervisor sees a death to respawn.
  if (!Opts.CrashToken.empty() &&
      Q.Source.find(Opts.CrashToken) != std::string::npos)
    ::_exit(86);
  if (Q.DeadlineMs != 0 &&
      uint64_t(Elapsed()) > Q.DeadlineMs * 1000000ull) {
    NumDeadlineExceeded.bump();
    R.S = Status::DeadlineExceeded;
    R.Body = "deadline of " + std::to_string(Q.DeadlineMs) +
             "ms expired while queued";
  } else {
    // A crashing request fails alone: any escaped exception becomes an
    // analysis_error response on this one connection, and the daemon (and
    // the pool: nothing propagates into wait()) keeps serving.
    try {
      if (Opts.TestHookBeforeAnalyze)
        Opts.TestHookBeforeAnalyze(Q);
      R = analyze(Q.Source, AO);
    } catch (const std::exception &E) {
      NumAnalysisErrors.bump();
      R.S = Status::AnalysisError;
      R.Body = std::string("internal error: ") + E.what();
    } catch (...) {
      NumAnalysisErrors.bump();
      R.S = Status::AnalysisError;
      R.Body = "internal error (non-standard exception)";
    }
  }
  if (R.S == Status::Ok)
    NumCompleted.bump();
  LatencyHist.observe(uint64_t(Elapsed()));
  // Fold this request's stats before replying, so a client that got its
  // answer and then asks for stats is guaranteed to see its own request.
  mergeThreadDelta(Base);
  reply(Fd, R);
  ::close(Fd);
  // The reply itself can fail (client died: EPIPE/ECONNRESET).  That
  // counter bumps after the fold above; fold again or the next request's
  // fresh capture would re-baseline it away and it could never be seen.
  mergeThreadDelta(Base);
  Admitted.fetch_sub(1);
}

Response Server::analyze(const std::string &Source,
                         const driver::AnalysisOptions &AO) {
  // The batch driver's unit path under the request's options: that is
  // what makes a served response byte-identical to the one-shot CLI and
  // lets the daemon share cache files with --batch --cache runs.
  driver::UnitResult U =
      driver::analyzeUnit(Source, AO, HaveCache ? &Cache : nullptr);
  Response R;
  if (!U.OK) {
    NumAnalysisErrors.bump();
    R.S = Status::AnalysisError;
    for (const std::string &E : U.Errors) {
      R.Body += E;
      R.Body += '\n';
    }
    return R;
  }
  R.Body = std::move(U.ReportText);
  if (U.MissDigest != 0) {
    // Completion-order insertion: entries are content-addressed, so
    // concurrent misses for the same digest keep the first copy and the
    // bytes of any one entry are deterministic even though the file-level
    // order is not (unlike --batch, which commits in input order).
    Cache.insert(U.MissDigest, std::move(U.MissEntry));
    // Flush cadence: land accumulated misses on disk so fleet siblings
    // can warm from them and a crash loses bounded work.  try_lock keeps
    // workers from convoying behind one flush; whoever loses just keeps
    // serving and the cadence catches up.
    if (Cache.pendingCount() >= Opts.CacheFlushEvery) {
      std::unique_lock<std::mutex> FL(FlushM, std::try_to_lock);
      if (FL.owns_lock()) {
        std::string Err;
        if (!Cache.save(Err))
          std::fprintf(stderr, "bivc: cache flush failed: %s\n",
                       Err.c_str());
      }
    }
  }
  return R;
}

void Server::reply(int Fd, const Response &R) {
  std::string Err;
  if (!writeFrame(Fd, R.encode(), Err)) {
    // The client vanished; its request was not dropped by *us*, but the
    // failure must still be visible somewhere.
    NumReplyFailures.bump();
  }
}
