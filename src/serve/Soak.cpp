//===- Soak.cpp - Chaos-soak harness for the serving layer ------------------===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#include "serve/Soak.h"

#include "infer/AnekInfer.h"
#include "lang/PrettyPrinter.h"
#include "lang/Sema.h"
#include "serve/BatchRunner.h"
#include "serve/Manifest.h"
#include "support/FaultInject.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <stdexcept>

using namespace anek;
using namespace anek::serve;

namespace {

/// Which chaos a faulted request gets. Each mode has a contracted
/// terminal state the report checks for.
enum class ChaosMode : unsigned {
  SolveFail,  ///< solve-fail on one method -> degraded
  MemSpike,   ///< mem-spike + tight budget -> failed (mem-budget)
  TinyDeadline, ///< 1ns deadline -> timeout
  QueueFull,  ///< queue-full -> shed
  NumModes,
};

/// Sequential ground truth for one example, computed in-process with the
/// same seed the batch uses.
struct Baseline {
  std::string Input;  ///< "example:NAME"
  std::string Method; ///< A qualified method name (solve-fail target).
  std::string Output; ///< printProgram with inferred specs.
  bool Degraded = false;
};

Baseline computeBaseline(const std::string &Name, uint64_t Seed) {
  Baseline B;
  B.Input = "example:" + Name;
  BatchRequest Probe;
  Probe.Input = B.Input;
  std::string Source, Error;
  if (!loadRequestSource(Probe, Source, Error))
    throw std::runtime_error("soak baseline: " + Error);
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  if (!Prog)
    throw std::runtime_error("soak baseline: example '" + Name +
                             "' does not parse");
  if (Prog->methodsWithBodies().empty())
    throw std::runtime_error("soak baseline: example '" + Name +
                             "' has no method bodies");
  B.Method = Prog->methodsWithBodies().front()->qualifiedName();
  InferOptions Opts;
  Opts.Parallelism = 1;
  Opts.Seed = Seed;
  InferResult Inference = runAnekInfer(*Prog, Opts);
  PrintOptions PrintOpts;
  PrintOpts.SpecFor = [&](const MethodDecl &M) {
    return *Inference.specFor(&M);
  };
  B.Output = printProgram(*Prog, PrintOpts);
  B.Degraded = Inference.MethodsFailed || Inference.FallbackSolves;
  return B;
}

} // namespace

SoakReport anek::serve::runSoak(const SoakConfig &Cfg) {
  const char *ExampleNames[] = {"spreadsheet", "file", "field"};
  std::vector<Baseline> Baselines;
  for (const char *Name : ExampleNames)
    Baselines.push_back(computeBaseline(Name, Cfg.Seed));

  // Chaos assignment, reproducible from the seed alone. SplitMix64
  // rather than std::uniform_*_distribution: the standard distributions
  // are not pinned across library implementations, and the soak contract
  // is that one seed names one chaos plan everywhere.
  Rng Gen(Cfg.Seed);

  struct Plan {
    unsigned Example = 0;
    bool Faulted = false;
    ChaosMode Mode = ChaosMode::SolveFail;
  };
  std::vector<Plan> Plans(Cfg.Requests);
  std::vector<BatchRequest> Requests(Cfg.Requests);
  for (unsigned I = 0; I < Cfg.Requests; ++I) {
    Plan &P = Plans[I];
    P.Example = static_cast<unsigned>(Gen.below(Baselines.size()));
    P.Faulted = Gen.flip(Cfg.FaultRate);
    if (P.Faulted)
      P.Mode = static_cast<ChaosMode>(
          Gen.below(static_cast<uint64_t>(ChaosMode::NumModes)));

    BatchRequest &R = Requests[I];
    R.Index = I;
    R.Id = formatStr("soak%u", I);
    R.Input = Baselines[P.Example].Input;
    if (!P.Faulted)
      continue;
    switch (P.Mode) {
    case ChaosMode::SolveFail:
      R.FaultSpec =
          "solve-fail:" + R.Id + "/" + Baselines[P.Example].Method;
      break;
    case ChaosMode::MemSpike:
      R.FaultSpec = "mem-spike:" + R.Id;
      R.MemBudgetBytes = 1LL << 20;
      break;
    case ChaosMode::TinyDeadline:
      R.DeadlineSeconds = 1e-9;
      break;
    case ChaosMode::QueueFull:
      R.FaultSpec = "queue-full:" + R.Id;
      break;
    case ChaosMode::NumModes:
      break;
    }
  }

  BatchOptions Opts;
  Opts.Workers = Cfg.Workers;
  Opts.QueueCap = Cfg.QueueCap;
  Opts.Seed = Cfg.Seed;
  BatchRunner Runner(Opts);

  SoakReport Report;
  Report.Results = Runner.run(std::move(Requests));

  auto Violate = [&](unsigned Index, const std::string &What) {
    Report.Violations.push_back(formatStr("soak%u: %s", Index, What.c_str()));
  };

  if (Report.Results.size() != Cfg.Requests)
    Report.Violations.push_back(formatStr(
        "expected %u results, got %zu", Cfg.Requests, Report.Results.size()));

  for (unsigned I = 0; I < Report.Results.size() && I < Cfg.Requests; ++I) {
    const BatchResult &Res = Report.Results[I];
    const Plan &P = Plans[I];
    const Baseline &B = Baselines[P.Example];
    Report.StateCounts[static_cast<unsigned>(Res.State)]++;
    if (Res.Id != formatStr("soak%u", I)) {
      Violate(I, "result misordered: got id '" + Res.Id + "'");
      continue;
    }
    TerminalState CleanState =
        B.Degraded ? TerminalState::Degraded : TerminalState::Ok;
    auto Expect = [&](TerminalState Want, const char *Why) {
      if (Res.State != Want)
        Violate(I, formatStr("expected %s (%s), got %s (%s)",
                             terminalStateName(Want), Why,
                             terminalStateName(Res.State),
                             Res.Reason.c_str()));
    };
    if (!P.Faulted) {
      Expect(CleanState, "no fault");
      if (Res.Attempts != 1)
        Violate(I, formatStr("clean request took %u attempts", Res.Attempts));
      if (Res.State == CleanState && Res.Output != B.Output)
        Violate(I, "output differs from sequential baseline");
      continue;
    }
    switch (P.Mode) {
    case ChaosMode::SolveFail:
      Expect(TerminalState::Degraded, "solve-fail isolates the method");
      break;
    case ChaosMode::MemSpike:
      Expect(TerminalState::Failed, "mem-spike blows the budget");
      if (Res.State == TerminalState::Failed &&
          Res.Reason.find("mem-budget") == std::string::npos)
        Violate(I, "failure reason lacks mem-budget: " + Res.Reason);
      break;
    case ChaosMode::TinyDeadline:
      Expect(TerminalState::Timeout, "1ns deadline");
      break;
    case ChaosMode::QueueFull:
      Expect(TerminalState::Shed, "queue-full fault");
      break;
    case ChaosMode::NumModes:
      break;
    }
  }
  return Report;
}
