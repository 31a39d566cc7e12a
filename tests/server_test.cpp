//===- tests/server_test.cpp - Analysis daemon lifecycle ----------------------===//
//
// The `bivc --serve` acceptance surface, in-process against a real unix
// socket: byte-identical responses, warm shared cache, bounded admission
// with explicit overload replies, per-request deadlines, crash isolation,
// and the drain-on-shutdown guarantee that no accepted request is ever
// silently dropped.  tools/serve_soak.sh repeats the same checks against
// the installed binary under ThreadSanitizer.
//
//===----------------------------------------------------------------------===//

#include "driver/BatchAnalyzer.h"
#include "ivclass/Pipeline.h"
#include "ivclass/Report.h"
#include "server/Client.h"
#include "server/Server.h"
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <mutex>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace biv;
using namespace biv::server;

namespace {

// The one-shot CLI's default options, as `bivc --connect` sends them: the
// batch defaults with exit values materialized.
const uint64_t DefaultBits = [] {
  driver::AnalysisOptions AO;
  AO.MaterializeExitValues = true;
  return AO.toBits();
}();

std::string tempDir() {
  static int Seq = 0;
  std::string D = (std::filesystem::temp_directory_path() /
                   ("biv_server_test_" + std::to_string(::getpid()) + "_" +
                    std::to_string(Seq++)))
                      .string();
  std::filesystem::create_directories(D);
  return D;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// What the one-shot CLI would print for Source under the default flags
/// (parse, SSA, SCCP, analysis, classification report).
std::string oneShotReport(const std::string &Source) {
  ivclass::PipelineOptions PO;
  PO.VerifyEach = false;
  std::vector<std::string> Errors;
  std::optional<ivclass::AnalyzedProgram> P =
      ivclass::analyzeSource(Source, Errors, PO);
  EXPECT_TRUE(P.has_value());
  if (!P)
    return std::string();
  return ivclass::report(*P->IA, &P->Info, ivclass::ReportOptions());
}

Response callOk(const std::string &Socket, const std::string &Source,
                uint64_t DeadlineMs = 0) {
  Request Q;
  Q.Kind = RequestKind::Analyze;
  Q.OptsBits = DefaultBits;
  Q.Source = Source;
  Q.DeadlineMs = DeadlineMs;
  Response R;
  std::string Err;
  EXPECT_TRUE(call(Socket, Q, R, Err)) << Err;
  return R;
}

const char *SimpleSrc = "func f(n) {"
                        "  s = 0;"
                        "  for L: i = 1 to n { s = s + i; }"
                        "  return s;"
                        "}";

} // namespace

TEST(ServerTest, ByteIdenticalToOneShotForCorpus) {
  std::string Dir = tempDir();
  Server S(Dir + "/d.sock", ServerOptions());
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  unsigned Checked = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(
           BIV_CORPUS_DIR)) {
    if (Entry.path().extension() != ".biv")
      continue;
    std::string Source = readFile(Entry.path().string());
    Response R = callOk(S.socketPath(), Source);
    ASSERT_EQ(R.S, Status::Ok) << Entry.path() << ": " << R.Body;
    EXPECT_EQ(R.Body, oneShotReport(Source)) << Entry.path();
    ++Checked;
  }
  EXPECT_GE(Checked, 5u) << "corpus should hold several programs";
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, WarmCacheServesRepeatsWithoutClassifying) {
  std::string Dir = tempDir();
  ServerOptions SO;
  SO.CachePath = Dir + "/d.cache";
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  Response Cold = callOk(S.socketPath(), SimpleSrc);
  ASSERT_EQ(Cold.S, Status::Ok) << Cold.Body;
  stats::StatsSnapshot After1 = S.statsSnapshot();

  Response Warm = callOk(S.socketPath(), SimpleSrc);
  ASSERT_EQ(Warm.S, Status::Ok) << Warm.Body;
  EXPECT_EQ(Warm.Body, Cold.Body) << "hit must be byte-identical";
  stats::StatsSnapshot After2 = S.statsSnapshot();

  EXPECT_EQ(After1.Counters.count("cache.hit"), 0u);
  EXPECT_EQ(After1.Counters.at("cache.miss"), 1u);
  EXPECT_EQ(After2.Counters.at("cache.hit"), 1u) << "hit counter must rise";
  EXPECT_EQ(After2.Counters.at("cache.miss"), 1u);
  // Classification really was skipped on the hit: the phase timer's span
  // count did not move between the two requests (hits replay counters but
  // never timers).
  EXPECT_EQ(After2.Timers.at("phase.classify").Spans,
            After1.Timers.at("phase.classify").Spans);
  // The request latency histogram saw both requests.
  EXPECT_EQ(After2.Hists.at("serve.latency_ns").Count, 2u);

  ASSERT_TRUE(S.drain(Err)) << Err;
  // The daemon persisted the shared cache on drain.
  EXPECT_TRUE(std::filesystem::exists(SO.CachePath));
}

TEST(ServerTest, OverloadedPastAdmissionBoundWhileEarlierComplete) {
  std::string Dir = tempDir();
  std::mutex M;
  std::condition_variable CV;
  bool Release = false;
  unsigned Held = 0;

  ServerOptions SO;
  SO.Threads = 2;
  SO.AdmitLimit = 2;
  SO.TestHookBeforeAnalyze = [&](const Request &) {
    std::unique_lock<std::mutex> Lock(M);
    ++Held;
    CV.notify_all();
    CV.wait(Lock, [&] { return Release; });
  };
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // Fill the admission bound with two requests parked in the test hook.
  std::vector<std::thread> Clients;
  std::vector<Response> Rs(2);
  for (int I = 0; I < 2; ++I)
    Clients.emplace_back([&, I] { Rs[I] = callOk(S.socketPath(), SimpleSrc); });
  {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return Held == 2; });
  }

  // The third arrival must get an explicit overloaded reply immediately.
  Response Over = callOk(S.socketPath(), SimpleSrc);
  EXPECT_EQ(Over.S, Status::Overloaded);
  EXPECT_NE(Over.Body.find("admission queue full"), std::string::npos)
      << Over.Body;

  // Release the held workers; the earlier requests still complete.
  {
    std::lock_guard<std::mutex> Lock(M);
    Release = true;
  }
  CV.notify_all();
  for (std::thread &T : Clients)
    T.join();
  for (const Response &R : Rs)
    EXPECT_EQ(R.S, Status::Ok) << R.Body;

  stats::StatsSnapshot Snap = S.statsSnapshot();
  EXPECT_EQ(Snap.Counters.at("serve.overloaded"), 1u);
  EXPECT_EQ(Snap.Counters.at("serve.completed"), 2u);
  // Queue-depth histogram saw every arrival, including the rejected one.
  EXPECT_EQ(Snap.Hists.at("serve.queue_depth").Count, 3u);
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, SigtermDrainsEveryAdmittedRequest) {
  std::string Dir = tempDir();
  std::mutex M;
  std::condition_variable CV;
  bool Release = false;
  unsigned Held = 0;

  ServerOptions SO;
  SO.Threads = 4;
  SO.TestHookBeforeAnalyze = [&](const Request &) {
    std::unique_lock<std::mutex> Lock(M);
    ++Held;
    CV.notify_all();
    CV.wait(Lock, [&] { return Release; });
  };
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  S.installSignalHandlers();

  constexpr unsigned N = 4;
  std::vector<std::thread> Clients;
  std::vector<Response> Rs(N);
  for (unsigned I = 0; I < N; ++I)
    Clients.emplace_back([&, I] { Rs[I] = callOk(S.socketPath(), SimpleSrc); });
  {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return Held == N; });
  }

  // SIGTERM arrives while all N requests are in flight...
  ASSERT_EQ(::raise(SIGTERM), 0);
  {
    std::lock_guard<std::mutex> Lock(M);
    Release = true;
  }
  CV.notify_all();
  S.waitForShutdown();
  ASSERT_TRUE(S.drain(Err)) << Err;

  // ...and every one of them was answered before the daemon exited.
  for (std::thread &T : Clients)
    T.join();
  for (const Response &R : Rs)
    EXPECT_EQ(R.S, Status::Ok) << R.Body;
  EXPECT_EQ(S.statsSnapshot().Counters.at("serve.completed"),
            uint64_t(N));
  // The socket file is gone: no client can half-connect to a dead daemon.
  EXPECT_FALSE(std::filesystem::exists(S.socketPath()));
}

TEST(ServerTest, CrashingRequestFailsAloneDaemonKeepsServing) {
  std::string Dir = tempDir();
  ServerOptions SO;
  SO.TestHookBeforeAnalyze = [](const Request &Q) {
    if (Q.Source.find("BOOM") != std::string::npos)
      throw std::runtime_error("injected worker crash");
  };
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  Response Crash = callOk(S.socketPath(), "// BOOM\nfunc f() { return 1; }");
  EXPECT_EQ(Crash.S, Status::AnalysisError);
  EXPECT_NE(Crash.Body.find("injected worker crash"), std::string::npos)
      << Crash.Body;

  // The daemon and its pool survived: the next request is served normally.
  Response After = callOk(S.socketPath(), SimpleSrc);
  EXPECT_EQ(After.S, Status::Ok) << After.Body;
  EXPECT_EQ(After.Body, oneShotReport(SimpleSrc));
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, ParseDiagnosticsComeBackAsAnalysisError) {
  std::string Dir = tempDir();
  Server S(Dir + "/d.sock", ServerOptions());
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  Response R = callOk(S.socketPath(), "func broken( {");
  EXPECT_EQ(R.S, Status::AnalysisError);
  EXPECT_FALSE(R.Body.empty());
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, DeadlineExpiredWhileQueuedIsNotAnalyzed) {
  std::string Dir = tempDir();
  std::mutex M;
  std::condition_variable CV;
  bool Release = false;
  bool HoldArrived = false;

  ServerOptions SO;
  SO.Threads = 1; // one worker, so the second request must queue
  SO.TestHookBeforeAnalyze = [&](const Request &Q) {
    if (Q.Source.find("HOLD") == std::string::npos)
      return;
    std::unique_lock<std::mutex> Lock(M);
    HoldArrived = true;
    CV.notify_all();
    CV.wait(Lock, [&] { return Release; });
  };
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  std::thread Blocker([&] {
    callOk(S.socketPath(), std::string("// HOLD\n") + SimpleSrc);
  });
  {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return HoldArrived; });
  }

  // This request's 1ms deadline expires while it waits for the worker.
  std::thread Expired([&] {
    Response R = callOk(S.socketPath(), SimpleSrc, /*DeadlineMs=*/1);
    EXPECT_EQ(R.S, Status::DeadlineExceeded) << R.Body;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  {
    std::lock_guard<std::mutex> Lock(M);
    Release = true;
  }
  CV.notify_all();
  Blocker.join();
  Expired.join();

  stats::StatsSnapshot Snap = S.statsSnapshot();
  EXPECT_EQ(Snap.Counters.at("serve.deadline_exceeded"), 1u);
  // The expired request never reached the pipeline: exactly one parse ran.
  EXPECT_EQ(Snap.Timers.at("phase.parse").Spans, 1u);
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, StatsRequestKindReturnsServerJson) {
  std::string Dir = tempDir();
  Server S(Dir + "/d.sock", ServerOptions());
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  Response First = callOk(S.socketPath(), SimpleSrc);
  ASSERT_EQ(First.S, Status::Ok) << First.Body;

  Request Q;
  Q.Kind = RequestKind::Stats;
  Response R;
  ASSERT_TRUE(call(S.socketPath(), Q, R, Err)) << Err;
  EXPECT_EQ(R.S, Status::Ok);
  // A worker folds its delta before replying, so a client that got its
  // answer is guaranteed to see its own request in a follow-up stats call.
  EXPECT_NE(R.Body.find("\"serve.completed\": 1"), std::string::npos)
      << R.Body;
  EXPECT_NE(R.Body.find("\"serve.latency_ns\""), std::string::npos)
      << R.Body;
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, MalformedFrameGetsBadRequest) {
  std::string Dir = tempDir();
  Server S(Dir + "/d.sock", ServerOptions());
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // Hand-roll a frame whose payload is garbage (wrong magic).
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::string Path = S.socketPath();
  ASSERT_LT(Path.size(), sizeof(Addr.sun_path));
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);
  ASSERT_TRUE(writeFrame(Fd, "garbage payload", Err)) << Err;
  std::string Payload;
  ASSERT_TRUE(readFrame(Fd, Payload, Err)) << Err;
  Response R;
  ASSERT_TRUE(R.decode(Payload, Err)) << Err;
  EXPECT_EQ(R.S, Status::BadRequest);
  ::close(Fd);
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, UndefinedOptionBitsGetBadRequestBeforeAdmission) {
  std::string Dir = tempDir();
  ServerOptions SO;
  SO.CachePath = Dir + "/d.cache";
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  Request Q;
  Q.OptsBits = DefaultBits | 64;
  Q.Source = SimpleSrc;
  Response R;
  ASSERT_TRUE(call(S.socketPath(), Q, R, Err)) << Err;
  EXPECT_EQ(R.S, Status::BadRequest);
  EXPECT_NE(R.Body.find("unknown option bits 0x40"), std::string::npos)
      << R.Body;

  // Refused on the accept thread: no admission slot, no parse, no probe.
  stats::StatsSnapshot Snap = S.statsSnapshot();
  EXPECT_EQ(Snap.Counters.at("serve.bad_requests"), 1u);
  EXPECT_EQ(Snap.Hists.count("serve.queue_depth"), 0u);
  EXPECT_EQ(Snap.Counters.count("cache.miss"), 0u);
  ASSERT_TRUE(S.drain(Err)) << Err;

  // And no cache entry.
  cache::AnalysisCache C;
  ASSERT_TRUE(C.open(SO.CachePath, Err)) << Err;
  EXPECT_EQ(C.entryCount(), 0u);
}

TEST(ServerTest, ClientGoneBeforeReplyIsAConnectionErrorNotACrash) {
  // A client that dies between sending its request and reading the reply
  // used to take the whole daemon down with SIGPIPE.  Now the write fails
  // as a per-connection error (counted), and the daemon keeps serving.
  std::string Dir = tempDir();
  std::mutex M;
  std::condition_variable CV;
  bool Parked = false, Release = false;

  ServerOptions SO;
  // One worker: the same thread that hits the dead socket serves the
  // follow-up request, folding the failure counter where stats can see it.
  SO.Threads = 1;
  SO.TestHookBeforeAnalyze = [&](const Request &) {
    std::unique_lock<std::mutex> Lock(M);
    Parked = true;
    CV.notify_all();
    CV.wait(Lock, [&] { return Release; });
  };
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  // Raw connection: send a valid request, then vanish before the reply.
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::string Path = S.socketPath();
  ASSERT_LT(Path.size(), sizeof(Addr.sun_path));
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0);
  Request Q;
  Q.Kind = RequestKind::Analyze;
  Q.OptsBits = DefaultBits;
  Q.Source = SimpleSrc;
  ASSERT_TRUE(writeFrame(Fd, Q.encode(), Err)) << Err;
  // Wait until the worker holds the request, then kill the client side --
  // the reply is now guaranteed to hit a closed socket.
  {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return Parked; });
  }
  ::close(Fd);
  {
    std::lock_guard<std::mutex> Lock(M);
    Release = true;
  }
  CV.notify_all();

  // The daemon survived and still serves; the failed reply was counted.
  Response After = callOk(S.socketPath(), SimpleSrc);
  EXPECT_EQ(After.S, Status::Ok) << After.Body;
  EXPECT_EQ(After.Body, oneShotReport(SimpleSrc));
  stats::StatsSnapshot Snap = S.statsSnapshot();
  EXPECT_EQ(Snap.Counters.at("serve.reply_failures"), 1u);
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, NearMaxFrameSurvivesTinySendBufferAndNonblocking) {
  // writeFrame must loop through short writes.  Force the worst case: a
  // non-blocking sender with a minimal kernel send buffer pushing a frame
  // close to the 16MB cap through a socketpair while the reader drains.
  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  int Tiny = 4096; // the kernel clamps to its floor; still far below 16MB
  ASSERT_EQ(::setsockopt(Sp[0], SOL_SOCKET, SO_SNDBUF, &Tiny, sizeof(Tiny)),
            0);
  ASSERT_EQ(::setsockopt(Sp[1], SOL_SOCKET, SO_RCVBUF, &Tiny, sizeof(Tiny)),
            0);
  int Flags = ::fcntl(Sp[0], F_GETFL, 0);
  ASSERT_GE(Flags, 0);
  ASSERT_EQ(::fcntl(Sp[0], F_SETFL, Flags | O_NONBLOCK), 0);

  std::string Payload(MaxFrameBytes - 64, '\0');
  for (size_t I = 0; I < Payload.size(); ++I)
    Payload[I] = char('a' + I % 23);

  std::string ReadErr;
  std::string Got;
  std::thread Reader([&] {
    if (!readFrame(Sp[1], Got, ReadErr))
      Got.clear();
  });
  std::string WriteErr;
  EXPECT_TRUE(writeFrame(Sp[0], Payload, WriteErr)) << WriteErr;
  Reader.join();
  EXPECT_TRUE(ReadErr.empty()) << ReadErr;
  EXPECT_EQ(Got.size(), Payload.size());
  EXPECT_EQ(Got, Payload) << "short writes must not reorder or drop bytes";
  ::close(Sp[0]);
  ::close(Sp[1]);
}

TEST(ServerTest, TcpFrontendServesByteIdenticalReports) {
  std::string Dir = tempDir();
  ServerOptions SO;
  SO.TcpSpec = "127.0.0.1:0"; // port 0: kernel picks, tcpPort() reports
  SO.CachePath = Dir + "/d.cache";
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  ASSERT_GT(S.tcpPort(), 0);

  std::string TcpEndpoint =
      "tcp:127.0.0.1:" + std::to_string(S.tcpPort());
  Response OverTcp = callOk(TcpEndpoint, SimpleSrc);
  ASSERT_EQ(OverTcp.S, Status::Ok) << OverTcp.Body;
  EXPECT_EQ(OverTcp.Body, oneShotReport(SimpleSrc));

  // Both frontends serve the same daemon: the unix path answers too, and
  // the TCP request warmed the shared cache for it.
  Response OverUnix = callOk(S.socketPath(), SimpleSrc);
  ASSERT_EQ(OverUnix.S, Status::Ok) << OverUnix.Body;
  EXPECT_EQ(OverUnix.Body, OverTcp.Body);
  EXPECT_EQ(S.statsSnapshot().Counters.at("cache.hit"), 1u);
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, PeriodicFlushPersistsCacheWithoutDrain) {
  // Fleet workers can die at any time; the cache must reach disk on a
  // cadence, not only at drain.  With the cadence at 1 the very first
  // miss is durable before the client even sees its reply.
  std::string Dir = tempDir();
  ServerOptions SO;
  SO.CachePath = Dir + "/d.cache";
  SO.CacheFlushEvery = 1;
  Server S(Dir + "/d.sock", SO);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;

  Response R = callOk(S.socketPath(), SimpleSrc);
  ASSERT_EQ(R.S, Status::Ok) << R.Body;
  EXPECT_TRUE(std::filesystem::exists(SO.CachePath))
      << "cache must be flushed before the reply, not only at drain";

  // A second daemon sharing the file serves the entry as a warm hit.
  Server S2(Dir + "/d2.sock", SO);
  ASSERT_TRUE(S2.start(Err)) << Err;
  Response Warm = callOk(S2.socketPath(), SimpleSrc);
  ASSERT_EQ(Warm.S, Status::Ok) << Warm.Body;
  EXPECT_EQ(Warm.Body, R.Body);
  EXPECT_EQ(S2.statsSnapshot().Counters.at("cache.hit"), 1u);
  ASSERT_TRUE(S2.drain(Err)) << Err;
  ASSERT_TRUE(S.drain(Err)) << Err;
}

TEST(ServerTest, ConnectionsAfterDrainAreRefusedPolitely) {
  std::string Dir = tempDir();
  Server S(Dir + "/d.sock", ServerOptions());
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  Response R = callOk(S.socketPath(), SimpleSrc);
  ASSERT_EQ(R.S, Status::Ok);
  ASSERT_TRUE(S.drain(Err)) << Err;

  // The socket is unlinked; a late client gets a connect error rather
  // than a hang.
  Request Q;
  Q.Source = SimpleSrc;
  Q.OptsBits = DefaultBits;
  Response Late;
  EXPECT_FALSE(call(S.socketPath(), Q, Late, Err));
}
