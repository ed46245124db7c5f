//===- anek_soak.cpp - Chaos-soak driver for the serving layer -------------===//
//
// Part of the ANEK reproduction. See README.md.
//
// Usage:
//   anek_soak [--mode serve|worker-chaos|net-chaos] [--requests N]
//             [--workers N] [--daemons N] [--seed N] [--fault-rate F]
//             [--queue-cap N] [--min-dispatches N] [--out FILE]
//
// Mode "serve" (the default) drives N batch requests over the built-in
// examples with randomized, request-scoped faults and checks the serving
// invariants (see src/serve/Soak.h). --out writes the per-request JSONL
// stream for inspection.
//
// Mode "worker-chaos" drives N sharded inference runs under randomized
// worker chaos — real SIGKILLed worker processes, blackholed sessions and
// corrupted result frames — and checks the shard tier's invariants (see
// src/shard/ShardSoak.h): every shard reaches exactly one terminal state,
// no summary is lost, and every run's output is byte-identical to the
// in-process -j1 baseline. --min-dispatches asserts the soak actually
// exercised the tier at scale. The tool re-execs itself as its own shard
// worker (the hidden --worker mode).
//
// Mode "net-chaos" runs the same invariants over remote sessions: it
// spawns --daemons persistent worker daemons (re-exec'd as the hidden
// --workerd mode) on Unix sockets in a private temp directory, points
// every round's coordinator at them, draws chaos from the network fault
// vocabulary — injected connection refusals, mid-frame resets, read
// stalls, handshake version skew, RST session kills — and SIGKILLs and
// respawns a real daemon every few rounds. Output must stay
// byte-identical to -j1 through all of it; a soak that never reaches a
// daemon is itself a violation.
//
// Exit codes: 0 = every invariant held, 1 = violations (printed to
// stderr), 2 = usage error, 3 = crash (the soak's no-crash invariant
// failed by definition).
//
//===----------------------------------------------------------------------===//

#include "serve/Soak.h"
#include "shard/ShardSoak.h"
#include "shard/ShardWorker.h"
#include "shard/WorkerDaemon.h"
#include "support/FaultInject.h"
#include "support/Socket.h"
#include "support/Subprocess.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace anek;

namespace {

int runServeSoak(const serve::SoakConfig &Cfg, const std::string &OutPath) {
  serve::SoakReport Report = serve::runSoak(Cfg);

  if (!OutPath.empty()) {
    std::ofstream Out(OutPath);
    if (!Out) {
      std::fprintf(stderr, "anek_soak: cannot write '%s'\n", OutPath.c_str());
      return 2;
    }
    for (const serve::BatchResult &Res : Report.Results)
      Out << Res.jsonLine() << '\n';
  }

  std::fprintf(stderr,
               "anek_soak: %zu request(s): %u ok, %u degraded, %u failed, "
               "%u timeout, %u shed; %zu violation(s)\n",
               Report.Results.size(),
               Report.StateCounts[static_cast<unsigned>(
                   serve::TerminalState::Ok)],
               Report.StateCounts[static_cast<unsigned>(
                   serve::TerminalState::Degraded)],
               Report.StateCounts[static_cast<unsigned>(
                   serve::TerminalState::Failed)],
               Report.StateCounts[static_cast<unsigned>(
                   serve::TerminalState::Timeout)],
               Report.StateCounts[static_cast<unsigned>(
                   serve::TerminalState::Shed)],
               Report.Violations.size());
  for (const std::string &V : Report.Violations)
    std::fprintf(stderr, "anek_soak: violation: %s\n", V.c_str());
  return Report.passed() ? 0 : 1;
}

int runWorkerChaosSoak(const shard::ShardSoakConfig &Cfg,
                       const char *ModeName) {
  shard::ShardSoakReport Report = shard::runShardSoak(Cfg);
  std::fprintf(stderr,
               "anek_soak: %s: %u round(s) (%u with chaos): "
               "%u wave(s) remote, %u degraded; %u dispatch(es) "
               "(%u remote), %u re-dispatch(es); %u worker(s) spawned, "
               "%u lost; %u reconnect(s); %u shard(s) quarantined; "
               "%zu violation(s)\n",
               ModeName, Report.Rounds, Report.FaultedRounds,
               Report.Totals.WavesRemote, Report.Totals.WavesDegraded,
               Report.Totals.ShardsDispatched,
               Report.Totals.RemoteDispatches, Report.Totals.Redispatches,
               Report.Totals.WorkersSpawned, Report.Totals.WorkersLost,
               Report.Totals.Reconnects, Report.Totals.ShardsQuarantined,
               Report.Violations.size());
  for (const std::string &V : Report.Violations)
    std::fprintf(stderr, "anek_soak: violation: %s\n", V.c_str());
  return Report.passed() ? 0 : 1;
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
  std::vector<std::string> Argv = {subprocess::selfExePath("anek_soak"),
                                   "--workerd", "--listen", D.Address};
  if (Status S = D.Proc.spawn(Argv); !S) {
    std::fprintf(stderr, "anek_soak: cannot spawn daemon: %s\n",
                 S.str().c_str());
    return false;
  }
  if (!waitDaemonReady(D.Address, 10.0)) {
    std::fprintf(stderr, "anek_soak: daemon on %s never became ready\n",
                 D.Address.c_str());
    return false;
  }
  return true;
}

int runNetChaosSoak(shard::ShardSoakConfig Cfg, unsigned NumDaemons) {
  char Dir[] = "/tmp/anek-net-soak-XXXXXX";
  if (!::mkdtemp(Dir)) {
    std::perror("anek_soak: mkdtemp");
    return 3;
  }
  std::vector<DaemonProc> Fleet(NumDaemons);
  for (unsigned K = 0; K != NumDaemons; ++K) {
    Fleet[K].Address =
        std::string("unix:") + Dir + "/d" + std::to_string(K) + ".sock";
    if (!spawnDaemon(Fleet[K]))
      return 3;
    Cfg.Endpoints.push_back(Fleet[K].Address);
  }
  Cfg.NetChaos = true;
  // Real process chaos on top of the injected network faults: every few
  // rounds SIGKILL one daemon — its sessions die with it — and respawn it
  // on the same socket, so the soak sees refused connects, then a clean
  // reconnect to a fresh pid holding nothing resident.
  Cfg.BetweenRounds = [&Fleet](unsigned Round) {
    if (Round == 0 || Round % 5 != 0)
      return;
    DaemonProc &D = Fleet[(Round / 5) % Fleet.size()];
    D.Proc.kill(SIGKILL);
    D.Proc.wait();
    // A failed respawn is survivable: the endpoint just stays refused and
    // those rounds' shards quarantine to in-process execution.
    (void)spawnDaemon(D);
  };
  int Exit = runWorkerChaosSoak(Cfg, "net-chaos");
  Cfg.BetweenRounds = nullptr;
  for (DaemonProc &D : Fleet) {
    D.Proc.kill(SIGTERM);
    D.Proc.wait();
    ::unlink(D.Address.substr(5).c_str());
  }
  ::rmdir(Dir);
  return Exit;
}

int runSoakTool(int Argc, char **Argv) {
  serve::SoakConfig Cfg;
  std::string OutPath;
  std::string Mode = "serve";
  unsigned MinDispatches = 0;
  unsigned Daemons = 2;
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  for (size_t I = 0; I < Args.size(); ++I) {
    auto Next = [&](const char *Flag) -> const std::string * {
      if (Args[I] != Flag)
        return nullptr;
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr, "anek_soak: %s needs a value\n", Flag);
        return nullptr;
      }
      return &Args[++I];
    };
    if (const std::string *V = Next("--mode")) {
      Mode = *V;
    } else if (const std::string *V = Next("--requests")) {
      Cfg.Requests = static_cast<unsigned>(std::strtoul(V->c_str(), nullptr, 10));
    } else if (const std::string *V = Next("--workers")) {
      Cfg.Workers = static_cast<unsigned>(std::strtoul(V->c_str(), nullptr, 10));
    } else if (const std::string *V = Next("--seed")) {
      Cfg.Seed = std::strtoull(V->c_str(), nullptr, 10);
    } else if (const std::string *V = Next("--fault-rate")) {
      Cfg.FaultRate = std::strtod(V->c_str(), nullptr);
    } else if (const std::string *V = Next("--queue-cap")) {
      Cfg.QueueCap = std::strtoul(V->c_str(), nullptr, 10);
    } else if (const std::string *V = Next("--min-dispatches")) {
      MinDispatches =
          static_cast<unsigned>(std::strtoul(V->c_str(), nullptr, 10));
    } else if (const std::string *V = Next("--daemons")) {
      Daemons = static_cast<unsigned>(std::strtoul(V->c_str(), nullptr, 10));
    } else if (const std::string *V = Next("--out")) {
      OutPath = *V;
    } else {
      std::fprintf(stderr, "anek_soak: unknown argument '%s'\n",
                   Args[I].c_str());
      return 2;
    }
  }
  if (Cfg.Requests == 0 || Cfg.Workers == 0 || Cfg.FaultRate < 0.0 ||
      Cfg.FaultRate > 1.0) {
    std::fputs("anek_soak: want --requests >= 1, --workers >= 1, "
               "--fault-rate in [0,1]\n",
               stderr);
    return 2;
  }
  if (Mode == "serve")
    return runServeSoak(Cfg, OutPath);
  if (Mode == "worker-chaos" || Mode == "net-chaos") {
    shard::ShardSoakConfig ShardCfg;
    ShardCfg.Rounds = Cfg.Requests;
    ShardCfg.Workers = Cfg.Workers;
    ShardCfg.Seed = Cfg.Seed;
    ShardCfg.FaultRate = Cfg.FaultRate;
    ShardCfg.MinDispatches = MinDispatches;
    if (Mode == "worker-chaos")
      return runWorkerChaosSoak(ShardCfg, "worker-chaos");
    if (Daemons == 0) {
      std::fputs("anek_soak: want --daemons >= 1\n", stderr);
      return 2;
    }
    // Stall rounds each burn one heartbeat window; keep it short so the
    // soak's wall-clock stays dominated by real dispatches.
    ShardCfg.HeartbeatTimeoutSeconds = 1.0;
    return runNetChaosSoak(ShardCfg, Daemons);
  }
  std::fprintf(
      stderr,
      "anek_soak: unknown mode '%s' (want serve|worker-chaos|net-chaos)\n",
      Mode.c_str());
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  // The worker-chaos soak's shard coordinators re-exec this binary as
  // their worker processes; the net-chaos soak re-execs it as its worker
  // daemons.
  if (Argc > 1 && std::strcmp(Argv[1], "--worker") == 0)
    return shard::runWorkerLoop();
  if (Argc > 1 && std::strcmp(Argv[1], "--workerd") == 0) {
    shard::WorkerDaemonOptions Opts;
    for (int I = 2; I + 1 < Argc; I += 2)
      if (std::strcmp(Argv[I], "--listen") == 0)
        Opts.ListenAddress = Argv[I + 1];
    if (Opts.ListenAddress.empty()) {
      std::fputs("anek_soak: --workerd needs --listen ADDR\n", stderr);
      return 2;
    }
    return shard::runWorkerDaemon(Opts);
  }
  try {
    return runSoakTool(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "anek_soak: internal error: %s\n", E.what());
    return 3;
  } catch (...) {
    std::fputs("anek_soak: internal error: unknown exception\n", stderr);
    return 3;
  }
}
