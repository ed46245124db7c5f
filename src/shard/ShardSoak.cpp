//===- ShardSoak.cpp - Worker-chaos soak for the shard tier -----------------===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#include "shard/ShardSoak.h"

#include "corpus/ExampleSources.h"
#include "lang/PrettyPrinter.h"
#include "lang/Sema.h"
#include "shard/ShardCoordinator.h"
#include "support/FaultInject.h"
#include "support/Format.h"

#include <memory>

using namespace anek;
using namespace anek::shard;

namespace {

/// splitmix64: the soak's chaos source. Deterministic in the seed, so a
/// failing round is re-runnable by seed alone.
uint64_t mix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

struct ExampleCase {
  const char *Name;
  std::string Source;
};

/// In-process `-j1` ground truth for one example: the exact bytes `anek
/// infer` would print before its stats trailer.
std::string computeBaseline(const std::string &Source, uint64_t Seed,
                            std::string &Error) {
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  if (!Prog) {
    Error = "baseline parse failed: " + Diags.str();
    return std::string();
  }
  InferOptions Opts;
  Opts.Parallelism = 1;
  Opts.Seed = Seed;
  InferResult Inference = runAnekInfer(*Prog, Opts, &Diags);
  PrintOptions POpts;
  POpts.SpecFor = [&](const MethodDecl &M) { return *Inference.specFor(&M); };
  return printProgram(*Prog, POpts);
}

} // namespace

ShardSoakReport shard::runShardSoak(const ShardSoakConfig &Cfg) {
  ShardSoakReport Report;
  auto Violate = [&](std::string Message) {
    Report.Violations.push_back(std::move(Message));
  };

  ExampleCase Examples[] = {
      {"spreadsheet", iteratorApiSource() + spreadsheetSource()},
      {"file", fileProtocolSource()},
      {"field", fieldExampleSource()},
  };
  std::string Baselines[3];
  for (unsigned E = 0; E != 3; ++E) {
    std::string Error;
    Baselines[E] = computeBaseline(Examples[E].Source, Cfg.Seed, Error);
    if (!Error.empty()) {
      Violate(formatStr("example %s: %s", Examples[E].Name, Error.c_str()));
      return Report;
    }
  }

  for (unsigned Round = 0; Round != Cfg.Rounds; ++Round) {
    ++Report.Rounds;
    const ExampleCase &Ex = Examples[Round % 3];

    // Real process chaos first: the driver's hook may SIGKILL and respawn
    // daemons here, so the round starts against a world that just changed
    // under it.
    if (Cfg.BetweenRounds)
      Cfg.BetweenRounds(Round);

    // Seeded chaos for this round: maybe nothing, else one or two fault
    // kinds with small fire budgets — enough to force re-dispatches and,
    // every few rounds, a quarantine. Net mode draws refusals, mid-frame
    // resets, stalls, handshake skew and session kills instead of the
    // worker-chaos kinds.
    faults::reset();
    uint64_t Roll = mix(Cfg.Seed * 1000003ULL + Round);
    bool Faulted =
        static_cast<double>(Roll >> 11) * (1.0 / 9007199254740992.0) <
        Cfg.FaultRate;
    std::string Spec;
    if (Faulted) {
      ++Report.FaultedRounds;
      if (Cfg.NetChaos) {
        switch (mix(Roll) % 7) {
        case 0:
          Spec = "net-refuse*1";
          break;
        case 1:
          Spec = formatStr("net-reset-midframe*%u",
                           1 + unsigned(mix(Roll + 1) % 2));
          break;
        case 2:
          Spec = "net-stall*1";
          break;
        case 3:
          Spec = "net-handshake-skew*1";
          break;
        case 4:
          // On a remote session worker-crash kills the *session* with a
          // hard RST — the daemon survives and the slot reconnects.
          Spec = formatStr("worker-crash*%u",
                           1 + unsigned(mix(Roll + 2) % 2));
          break;
        case 5:
          Spec = "net-refuse*2,net-reset-midframe*1";
          break;
        case 6:
          Spec = "wire-corrupt*1";
          break;
        }
      } else {
        switch (mix(Roll) % 5) {
        case 0:
          Spec = "worker-crash*1";
          break;
        case 1:
          Spec =
              formatStr("worker-crash*%u", 2 + unsigned(mix(Roll + 1) % 3));
          break;
        case 2:
          Spec = "worker-hang*1";
          break;
        case 3:
          Spec =
              formatStr("wire-corrupt*%u", 1 + unsigned(mix(Roll + 2) % 2));
          break;
        case 4:
          Spec = "worker-crash*2,wire-corrupt*1";
          break;
        }
      }
      if (Status S = faults::activateSpec(Spec); !S) {
        Violate(formatStr("round %u: bad chaos spec '%s': %s", Round,
                          Spec.c_str(), S.str().c_str()));
        continue;
      }
    }

    DiagnosticEngine Diags;
    std::unique_ptr<Program> Prog = parseAndAnalyze(Ex.Source, Diags);
    if (!Prog) {
      Violate(formatStr("round %u: parse failed", Round));
      faults::reset();
      continue;
    }
    InferOptions Opts;
    Opts.Parallelism = 1;
    Opts.Seed = Cfg.Seed;
    CoordinatorOptions CoOpts;
    CoOpts.Workers = Cfg.Workers;
    CoOpts.HeartbeatTimeoutSeconds = Cfg.HeartbeatTimeoutSeconds;
    CoOpts.WorkerArgv = Cfg.WorkerArgv;
    CoOpts.Endpoints = Cfg.Endpoints;
    // A refused connect to a freshly killed daemon must not burn seconds
    // of soak wall-clock before the slot retries.
    CoOpts.ConnectTimeoutSeconds = 2.0;
    CoOpts.Retry.Seed = Cfg.Seed;
    ShardCoordinator Coordinator(*Prog, Ex.Source, Opts, CoOpts);
    Opts.ShardExec = &Coordinator;

    InferResult Inference = runAnekInfer(*Prog, Opts, &Diags);
    faults::reset();

    if (!Inference.Aborted.isOk()) {
      Violate(formatStr("round %u (%s%s%s): run aborted: %s", Round, Ex.Name,
                        Faulted ? ", chaos " : "", Spec.c_str(),
                        Inference.Aborted.str().c_str()));
      continue;
    }
    PrintOptions POpts;
    POpts.SpecFor = [&](const MethodDecl &M) {
      return *Inference.specFor(&M);
    };
    std::string Output = printProgram(*Prog, POpts);
    if (Output != Baselines[Round % 3])
      Violate(formatStr("round %u (%s%s%s): output diverged from the -j1 "
                        "baseline",
                        Round, Ex.Name, Faulted ? ", chaos " : "",
                        Spec.c_str()));

    // Terminal accounting per shard: dispatches resolve into served
    // results, re-dispatches, or quarantines — and the books must agree.
    ShardStats S = Inference.Shard;
    if (S.WavesRemote == 0 && S.WavesDegraded == 0)
      Violate(formatStr("round %u: no wave reached the executor", Round));
    if (S.Redispatches > S.WorkersLost)
      Violate(formatStr("round %u: %u re-dispatches but only %u losses",
                        Round, S.Redispatches, S.WorkersLost));
    if (S.ShardsQuarantined != 0 && S.WorkersLost < S.ShardsQuarantined)
      Violate(formatStr("round %u: quarantine without matching losses",
                        Round));
    // The BetweenRounds hook kills processes outside the fault registry,
    // so an unfaulted round can legitimately lose workers then.
    if (!Faulted && !Cfg.BetweenRounds && S.WorkersLost != 0)
      Violate(formatStr("round %u: %u workers lost with no chaos armed",
                        Round, S.WorkersLost));
    Report.Totals.WavesRemote += S.WavesRemote;
    Report.Totals.WavesDegraded += S.WavesDegraded;
    Report.Totals.ShardsDispatched += S.ShardsDispatched;
    Report.Totals.RemoteDispatches += S.RemoteDispatches;
    Report.Totals.Redispatches += S.Redispatches;
    Report.Totals.Reconnects += S.Reconnects;
    Report.Totals.WorkersLost += S.WorkersLost;
    Report.Totals.WorkersSpawned += S.WorkersSpawned;
    Report.Totals.ShardsQuarantined += S.ShardsQuarantined;
  }

  if (Cfg.MinDispatches != 0 &&
      Report.Totals.ShardsDispatched < Cfg.MinDispatches)
    Violate(formatStr("soak made %u shard dispatches, need >= %u for a "
                      "meaningful exercise",
                      Report.Totals.ShardsDispatched, Cfg.MinDispatches));
  // A net soak that never reached a daemon exercised nothing but the
  // in-process fallback — that is a broken harness, not a passing soak.
  if (!Cfg.Endpoints.empty() && Report.Totals.RemoteDispatches == 0)
    Violate("net soak made no remote dispatches — every round fell "
            "straight to in-process execution");
  return Report;
}
