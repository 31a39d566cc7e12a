//===- perfbench/main.cpp - Benchmark entry point --------------------------===//
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--revision REV]
//
// Sets the workload up, measures it for S seconds, checks its outputs, and
// prints human-readable lines followed by one JSON line: the end-to-end
// metrics, or with --trace 1 the per-layer metrics (and a span file in DIR).
// setup_s is the median of cold setups, the run's own and more in fresh
// processes spread over the window.  Exits 1 when an output check failed, 2
// on a usage or setup error.
//
//   perfbench --setup-only 1 --workload NAME --seed N --seconds S
//
// sets the workload up once and prints the seconds it took.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fcntl.h>
#include <csignal>
#include <spawn.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

/// Cold setups an untraced run times besides its own, each in a fresh
/// process.
constexpr size_t ColdSetupSamples = 8;

bool parseArgs(int Argc, char **Argv, RunConfig &C) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    const char *Flag = Argv[I], *Val = Argv[I + 1];
    if (!std::strcmp(Flag, "--workload"))
      C.Workload = Val;
    else if (!std::strcmp(Flag, "--seed"))
      C.Seed = std::strtoull(Val, nullptr, 10);
    else if (!std::strcmp(Flag, "--seconds"))
      C.Seconds = std::strtod(Val, nullptr);
    else if (!std::strcmp(Flag, "--trace"))
      C.Trace = std::strcmp(Val, "0") != 0;
    else if (!std::strcmp(Flag, "--out-dir"))
      C.OutDir = Val;
    else if (!std::strcmp(Flag, "--revision"))
      C.Revision = Val;
    else if (!std::strcmp(Flag, "--setup-only"))
      C.SetupOnly = std::strcmp(Val, "0") != 0;
    else
      return false;
  }
  return Argc % 2 == 1 && !C.Workload.empty() && C.Seconds > 0;
}

/// Times one cold setup of the workload in a fresh process (this binary
/// re-run with --setup-only), so that it pays the first-use costs -- first
/// thread-pool start, allocator growth, server start -- that a setup
/// repeated in one process would pay only once.  Returns a negative value
/// when the setup failed.
double coldSetupSeconds(const RunConfig &Cfg) {
  const std::string Seed = std::to_string(Cfg.Seed);
  const char *Args[] = {"perfbench", "--setup-only", "1", "--workload",
                        Cfg.Workload.c_str(), "--seed", Seed.c_str(),
                        "--seconds", "1", nullptr};
  int Fd[2];
  if (::pipe2(Fd, O_CLOEXEC) != 0)
    return -1.0;
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Fd[1], STDOUT_FILENO);
  pid_t Pid;
  int Err = ::posix_spawn(&Pid, "/proc/self/exe", &Actions, nullptr,
                          const_cast<char *const *>(Args), environ);
  posix_spawn_file_actions_destroy(&Actions);
  ::close(Fd[1]);
  double S = -1.0;
  if (Err == 0) {
    std::string Out;
    char Buf[64];
    for (ssize_t N; (N = ::read(Fd[0], Buf, sizeof(Buf))) > 0;)
      Out.append(Buf, size_t(N));
    int Status = 0;
    if (::waitpid(Pid, &Status, 0) == Pid && WIFEXITED(Status) &&
        WEXITSTATUS(Status) == 0)
      S = std::strtod(Out.c_str(), nullptr);
  }
  ::close(Fd[0]);
  return S > 0.0 ? S : -1.0;
}

/// Takes ColdSetupSamples cold setups spread evenly over the measuring
/// window, so that a burst of interference on a shared machine slows a few
/// of them rather than all.  Workloads call RunResult::betweenRounds()
/// between timed rounds, so a setup never overlaps a measurement.
class SetupSampler {
public:
  explicit SetupSampler(const RunConfig &C) : Cfg(C), T0(Clock::now()) {}

  /// Takes the samples that are due by now, or with \p All every one left.
  void takeDue(bool All) {
    while (Samples.size() < ColdSetupSamples &&
           (All || secondsSince(T0) >= Cfg.Seconds *
                                           (double(Samples.size()) + 0.5) /
                                           ColdSetupSamples)) {
      double S = coldSetupSeconds(Cfg);
      if (S < 0.0)
        throw std::runtime_error("setup failed in a fresh process");
      Samples.push_back(S);
    }
  }

  std::vector<double> Samples;

private:
  const RunConfig &Cfg;
  Clock::time_point T0;
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0.0; // 0/0 where a layer did no work at all
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  if (!parseArgs(Argc, Argv, Cfg)) {
    std::fprintf(stderr, "usage: perfbench --workload batch|fuzz-summarize|"
                         "serve-mixed --seed N --seconds S --trace 0|1 "
                         "[--out-dir DIR] [--revision REV]\n");
    return 2;
  }
  Cfg.Jobs = usableCpus();

  std::unique_ptr<Workload> W;
  if (Cfg.Workload == "batch")
    W = makeBatchWorkload(Cfg);
  else if (Cfg.Workload == "fuzz-summarize")
    W = makeFuzzWorkload(Cfg);
  else if (Cfg.Workload == "serve-mixed")
    W = makeServeWorkload(Cfg);
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 Cfg.Workload.c_str());
    return 2;
  }

  // A setup process dies with the run that started it.
  if (Cfg.SetupOnly && ::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0)
    return 2;

  RunResult R;
  std::vector<double> SetupS;
  try {
    Clock::time_point T0 = Clock::now();
    W->setup();
    SetupS.push_back(secondsSince(T0));
    if (Cfg.SetupOnly) {
      std::printf("%.9f\n", SetupS.back());
      return 0;
    }
    SetupSampler Sampler(Cfg);
    if (!Cfg.Trace)
      R.BetweenRounds = [&] { Sampler.takeDue(false); };
    W->run(R);
    if (!Cfg.Trace)
      Sampler.takeDue(true);
    SetupS.insert(SetupS.end(), Sampler.Samples.begin(),
                  Sampler.Samples.end());
    R.BetweenRounds = nullptr;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 2;
  }
  R.EndToEnd["setup_s"] = median(SetupS);
  R.notePeakRss();

  const bool Release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
  std::string Machine = "{\"workload\": \"" + Cfg.Workload +
                        "\", \"seed\": " + std::to_string(Cfg.Seed) +
                        ", \"nproc\": " + std::to_string(Cfg.Jobs) +
                        ", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                        "\", \"compiler\": \"" __VERSION__
                        "\", \"revision\": \"" + Cfg.Revision + "\"}";
  std::printf("machine: %s\n", Machine.c_str());
  if (!Release)
    std::printf("WARNING: not a Release build; timings are not comparable\n");
  std::printf("setup_s: %.4f s (median of %zu cold setups, each in a fresh "
              "process, spread over the run; min %.4f s, max %.4f s)\n",
              median(SetupS), SetupS.size(), quantile(SetupS, 0.0),
              quantile(SetupS, 1.0));
  std::printf("peak_rss_mb: %.1f MiB (after a fixed amount of work; %.1f MiB "
              "at the end)\n",
              R.EndToEnd["peak_rss_mb"], peakRssMiB());
  std::printf("failed_ratio: %.6f (%llu of %llu attempted)\n",
              R.Attempted ? double(R.Failed) / double(R.Attempted) : 0.0,
              (unsigned long long)R.Failed, (unsigned long long)R.Attempted);
  for (const std::string &L : R.Lines)
    std::printf("%s\n", L.c_str());

  if (Cfg.Trace && !Cfg.OutDir.empty()) {
    std::string Path = Cfg.OutDir + "/trace-" + Cfg.Workload + "-seed" +
                       std::to_string(Cfg.Seed) + ".json";
    if (!Tracer::get().write(Path, "\"machine\": " + Machine + ",\n" +
                                       W->traceExtra()))
      R.check(false, "trace file is written: " + Path);
    else
      std::printf("trace: %s\n", Path.c_str());
    for (const auto &[Name, N] : Tracer::get().summarize())
      std::printf("span %-22s count %8llu total %10.3f ms self %10.3f ms\n",
                  Name.c_str(), (unsigned long long)N.Count,
                  double(N.TotalNs) / 1e6, double(N.SelfNs) / 1e6);
  }

  const std::vector<MetricSpec> &Specs =
      Cfg.Trace ? PerLayerMetrics : EndToEndMetrics;
  const std::map<std::string, double> &Values =
      Cfg.Trace ? R.PerLayer : R.EndToEnd;
  std::string Json = "{\"correct\": " + std::string(R.Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Specs.size(); ++I) {
    auto It = Values.find(Specs[I].Name);
    double V = It == Values.end() ? 0.0 : It->second;
    Json += std::string(I ? ", " : "") + "\"" + Specs[I].Name +
            "\": {\"value\": " + jsonNumber(V) + ", \"unit\": \"" +
            Specs[I].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return R.Correct ? 0 : 1;
}
