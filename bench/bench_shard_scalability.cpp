//===- bench_shard_scalability.cpp - Shard-tier throughput and resilience --===//
//
// Measures the crash-tolerant shard tier across worker counts and the
// two ways a worker session opens: repeated inference runs are farmed to
// 1/2/4 workers over the anek-shard-v2 protocol, once to local `--worker`
// children on socketpairs and once to persistent `workerd` daemons over
// Unix-domain sockets. For each (transport, workers) cell the bench
// records sustained throughput (runs per second) for a clean pass and
// for a chaos pass in which every run loses one worker mid-shard — a
// SIGKILL on a local child, a hard RST on a remote session. The respawn
// rate (re-dispatches per dispatch) quantifies what crash tolerance
// costs; the reconnect rate (session reopens per dispatch) shows how
// often slots had to open a fresh session. Comparing the remote
// column's clean throughput against local shows what the daemon's
// resident-program cache buys: a local child parses the program once
// per session, a remote session hits the Init digest (DESIGN.md,
// "Sharded execution and failure model").
//
// The bench re-execs itself as its own worker (the hidden --worker
// mode) and as its own daemons (--workerd). Writes
// bench_shard_scalability.json with one record per cell.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "corpus/ExampleSources.h"
#include "infer/AnekInfer.h"
#include "lang/Sema.h"
#include "shard/ShardCoordinator.h"
#include "shard/ShardWorker.h"
#include "shard/WorkerDaemon.h"
#include "support/FaultInject.h"
#include "support/Metrics.h"
#include "support/Socket.h"
#include "support/Subprocess.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace anek;

namespace {

struct Sample {
  const char *Transport = "local";
  unsigned Workers = 0;
  unsigned Rounds = 0;
  double CleanSeconds = 0.0;
  double ChaosSeconds = 0.0;
  ShardStats Chaos; ///< Accumulated over the chaos pass.

  double cleanRunsPerSec() const {
    return CleanSeconds > 0.0 ? Rounds / CleanSeconds : 0.0;
  }
  double chaosRunsPerSec() const {
    return ChaosSeconds > 0.0 ? Rounds / ChaosSeconds : 0.0;
  }
  double respawnRate() const {
    return Chaos.ShardsDispatched
               ? static_cast<double>(Chaos.Redispatches) /
                     Chaos.ShardsDispatched
               : 0.0;
  }
  double reconnectRate() const {
    return Chaos.ShardsDispatched
               ? static_cast<double>(Chaos.Reconnects) /
                     Chaos.ShardsDispatched
               : 0.0;
  }
};

/// One sharded inference run; returns the engine-merged shard stats.
/// With endpoints the coordinator opens remote sessions; without, it
/// spawns local workers.
ShardStats runOnce(const std::string &Source, unsigned Workers,
                   const std::vector<std::string> &Endpoints) {
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  if (!Prog) {
    std::fprintf(stderr, "bench_shard_scalability: parse failed:\n%s\n",
                 Diags.str().c_str());
    std::exit(1);
  }
  InferOptions Opts;
  Opts.Parallelism = 1;
  shard::CoordinatorOptions Co;
  Co.Workers = Workers;
  Co.Endpoints = Endpoints;
  Co.ConnectTimeoutSeconds = 2.0;
  Co.Retry.BaseDelaySeconds = 0.001;
  Co.Retry.MaxDelaySeconds = 0.005;
  shard::ShardCoordinator Coordinator(*Prog, Source, Opts, Co);
  Opts.ShardExec = &Coordinator;
  InferResult Result = runAnekInfer(*Prog, Opts);
  if (!Result.Aborted.isOk()) {
    std::fprintf(stderr, "bench_shard_scalability: run aborted: %s\n",
                 Result.Aborted.str().c_str());
    std::exit(1);
  }
  return Result.Shard;
}

void accumulate(ShardStats &Into, const ShardStats &S) {
  Into.WavesRemote += S.WavesRemote;
  Into.WavesDegraded += S.WavesDegraded;
  Into.ShardsDispatched += S.ShardsDispatched;
  Into.RemoteDispatches += S.RemoteDispatches;
  Into.Redispatches += S.Redispatches;
  Into.Reconnects += S.Reconnects;
  Into.WorkersLost += S.WorkersLost;
  Into.WorkersSpawned += S.WorkersSpawned;
  Into.ShardsQuarantined += S.ShardsQuarantined;
}

Sample sweepOnce(const std::string &Source, unsigned Workers,
                 unsigned Rounds,
                 const std::vector<std::string> &Endpoints) {
  Sample S;
  S.Transport = Endpoints.empty() ? "local" : "remote";
  S.Workers = Workers;
  S.Rounds = Rounds;

  Timer CleanClock;
  for (unsigned R = 0; R < Rounds; ++R)
    runOnce(Source, Workers, Endpoints);
  S.CleanSeconds = CleanClock.seconds();

  Timer ChaosClock;
  for (unsigned R = 0; R < Rounds; ++R) {
    // On a local session this SIGKILLs the worker mid-shard; on a remote
    // one it resets the session with a hard RST — the daemon survives,
    // the slot reconnects.
    faults::ScopedFault Crash(FaultKind::WorkerCrash, "", 1);
    accumulate(S.Chaos, runOnce(Source, Workers, Endpoints));
  }
  S.ChaosSeconds = ChaosClock.seconds();
  return S;
}

/// One spawned `--workerd` daemon and the endpoint it serves.
struct DaemonProc {
  subprocess::ChildProcess Proc;
  std::string Address;
};

/// Polls the endpoint with short connects until the daemon accepts.
bool waitDaemonReady(const std::string &Address, double TimeoutSeconds) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(TimeoutSeconds);
  for (;;) {
    Expected<int> Fd = sock::connectTo(Address, 0.25);
    if (Fd) {
      ::close(*Fd);
      return true;
    }
    if (std::chrono::steady_clock::now() >= Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

bool spawnDaemon(DaemonProc &D) {
  D.Proc = subprocess::ChildProcess();
  std::vector<std::string> Argv = {
      subprocess::selfExePath("bench_shard_scalability"), "--workerd",
      "--listen", D.Address};
  if (Status S = D.Proc.spawn(Argv); !S) {
    std::fprintf(stderr, "bench_shard_scalability: cannot spawn daemon: %s\n",
                 S.str().c_str());
    return false;
  }
  if (!waitDaemonReady(D.Address, 10.0)) {
    std::fprintf(stderr,
                 "bench_shard_scalability: daemon on %s never became ready\n",
                 D.Address.c_str());
    return false;
  }
  return true;
}

/// The distributed-telemetry overhead measurement: collection-off and
/// collection-on rounds interleaved (so machine drift hits both sides
/// equally), compared by median. With collection on, every dispatch also
/// ships a Telemetry frame and the coordinator merges it — the whole
/// cross-worker pipeline is in the measured path. The gate: collection
/// must cost at most 5% of median run time, or observability has started
/// perturbing what it observes.
struct OverheadSample {
  double OffMedianSeconds = 0.0;
  double OnMedianSeconds = 0.0;
  double ratio() const {
    return OffMedianSeconds > 0.0 ? OnMedianSeconds / OffMedianSeconds : 0.0;
  }
};

OverheadSample measureTelemetryOverhead(const std::string &Source,
                                        unsigned Workers, unsigned Rounds) {
  const std::vector<std::string> NoEndpoints;
  std::vector<double> Off, On;
  for (unsigned R = 0; R < Rounds; ++R) {
    {
      Timer T;
      runOnce(Source, Workers, NoEndpoints);
      Off.push_back(T.seconds());
    }
    telemetry::setTraceLevel(telemetry::TraceLevel::Phase);
    {
      Timer T;
      runOnce(Source, Workers, NoEndpoints);
      On.push_back(T.seconds());
    }
    // Drain the collected round so buffers never grow across rounds.
    telemetry::setTraceLevel(telemetry::TraceLevel::Off);
    telemetry::resetTrace();
    telemetry::resetMetricsForTest();
  }
  auto Median = [](std::vector<double> V) {
    std::sort(V.begin(), V.end());
    return V[V.size() / 2];
  };
  OverheadSample O;
  O.OffMedianSeconds = Median(Off);
  O.OnMedianSeconds = Median(On);
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  // The coordinators in this bench re-exec this binary as their local
  // workers, and the remote sweep re-execs it as its daemons.
  if (Argc > 1 && std::strcmp(Argv[1], "--worker") == 0)
    return shard::runWorkerLoop();
  if (Argc > 1 && std::strcmp(Argv[1], "--workerd") == 0) {
    shard::WorkerDaemonOptions Opts;
    for (int I = 2; I + 1 < Argc; I += 2)
      if (std::strcmp(Argv[I], "--listen") == 0)
        Opts.ListenAddress = Argv[I + 1];
    if (Opts.ListenAddress.empty()) {
      std::fputs("bench_shard_scalability: --workerd needs --listen ADDR\n",
                 stderr);
      return 2;
    }
    return shard::runWorkerDaemon(Opts);
  }

  BenchTelemetry Telemetry("shard_scalability");
  const unsigned Rounds = 20;
  const std::string Source = iteratorApiSource() + spreadsheetSource();

  // A private daemon fleet for the remote rows, on Unix sockets so the
  // bench never depends on a free TCP port.
  char Dir[] = "/tmp/anek-bench-net-XXXXXX";
  if (!::mkdtemp(Dir)) {
    std::perror("bench_shard_scalability: mkdtemp");
    return 1;
  }
  std::vector<DaemonProc> Fleet(2);
  std::vector<std::string> Endpoints;
  for (unsigned K = 0; K != Fleet.size(); ++K) {
    Fleet[K].Address =
        std::string("unix:") + Dir + "/d" + std::to_string(K) + ".sock";
    if (!spawnDaemon(Fleet[K]))
      return 1;
    Endpoints.push_back(Fleet[K].Address);
  }

  std::puts(
      "Shard-tier scalability: transport x worker processes vs throughput");
  rule();
  std::printf("%9s %7s %7s | %12s %12s | %10s %7s %8s %8s\n", "transport",
              "workers", "rounds", "clean run/s", "chaos run/s", "dispatches",
              "lost", "respawn", "reconn");
  rule();

  const std::vector<std::string> NoEndpoints;
  const std::vector<std::string> *Transports[] = {&NoEndpoints, &Endpoints};
  std::vector<Sample> Samples;
  for (const std::vector<std::string> *Eps : Transports) {
    for (unsigned Workers : {1u, 2u, 4u}) {
      // Warm-up amortizes first-touch costs (example sources, fork/exec
      // page-ins, the daemons' Init-digest misses) out of the measured
      // sweep.
      if (Workers == 1)
        sweepOnce(Source, Workers, 2, *Eps);
      Sample S = sweepOnce(Source, Workers, Rounds, *Eps);
      Samples.push_back(S);
      std::printf("%9s %7u %7u | %12.1f %12.1f | %10u %7u %8.3f %8.3f\n",
                  S.Transport, S.Workers, S.Rounds, S.cleanRunsPerSec(),
                  S.chaosRunsPerSec(), S.Chaos.ShardsDispatched,
                  S.Chaos.WorkersLost, S.respawnRate(), S.reconnectRate());
    }
  }
  rule();

  for (DaemonProc &D : Fleet) {
    D.Proc.kill(SIGTERM);
    D.Proc.wait();
    ::unlink(D.Address.substr(5).c_str());
  }
  ::rmdir(Dir);

  const OverheadSample Overhead =
      measureTelemetryOverhead(Source, /*Workers=*/2, Rounds);
  const double OverheadPct = (Overhead.ratio() - 1.0) * 100.0;
  const bool GateOk = Overhead.ratio() <= 1.05;
  std::printf("\nTelemetry overhead (workers=2, interleaved off/on "
              "rounds, medians)\n");
  std::printf("  off %.4fs   on %.4fs   overhead %+.1f%%   gate <=+5%% "
              "[%s]\n",
              Overhead.OffMedianSeconds, Overhead.OnMedianSeconds,
              OverheadPct, GateOk ? "ok" : "EXCEEDED");

  std::ofstream Json("bench_shard_scalability.json");
  Json << "{\n  \"bench\": \"shard_scalability\",\n"
       << "  \"rounds\": " << Rounds << ",\n"
       << "  \"sweep\": [\n";
  for (size_t I = 0; I < Samples.size(); ++I) {
    const Sample &S = Samples[I];
    Json << "    {\"transport\": \"" << S.Transport << "\""
         << ", \"workers\": " << S.Workers
         << ", \"clean_runs_per_sec\": " << S.cleanRunsPerSec()
         << ", \"chaos_runs_per_sec\": " << S.chaosRunsPerSec()
         << ", \"dispatches\": " << S.Chaos.ShardsDispatched
         << ", \"remote_dispatches\": " << S.Chaos.RemoteDispatches
         << ", \"redispatches\": " << S.Chaos.Redispatches
         << ", \"reconnects\": " << S.Chaos.Reconnects
         << ", \"workers_spawned\": " << S.Chaos.WorkersSpawned
         << ", \"workers_lost\": " << S.Chaos.WorkersLost
         << ", \"respawn_rate\": " << S.respawnRate()
         << ", \"reconnect_rate\": " << S.reconnectRate() << "}"
         << (I + 1 < Samples.size() ? "," : "") << "\n";
  }
  Json << "  ],\n"
       << "  \"telemetry_overhead\": {\"off_median_s\": "
       << Overhead.OffMedianSeconds
       << ", \"on_median_s\": " << Overhead.OnMedianSeconds
       << ", \"ratio\": " << Overhead.ratio()
       << ", \"gate_ok\": " << (GateOk ? "true" : "false") << "}\n"
       << "}\n";
  std::puts("Sweep written to bench_shard_scalability.json");
  if (!GateOk) {
    std::fprintf(stderr,
                 "bench_shard_scalability: telemetry overhead %.1f%% "
                 "exceeds the 5%% gate\n",
                 OverheadPct);
    return 1;
  }
  return 0;
}
