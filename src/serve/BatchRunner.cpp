//===- BatchRunner.cpp - Resource-governed batch execution ------------------===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#include "serve/BatchRunner.h"

#include "infer/AnekInfer.h"
#include "lang/PrettyPrinter.h"
#include "lang/Sema.h"
#include "serve/Manifest.h"
#include "serve/RequestQueue.h"
#include "support/FaultInject.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

using namespace anek;
using namespace anek::serve;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Terminal state for an attempt that ended with error \p S (after the
/// retry loop declined to go again).
TerminalState stateForFailure(const Status &S) {
  return S.code() == ErrorCode::DeadlineExceeded ? TerminalState::Timeout
                                                 : TerminalState::Failed;
}

void countTerminal(const BatchResult &Res) {
  if (telemetry::enabled(telemetry::TraceLevel::Phase))
    telemetry::counter(std::string("serve.state.") +
                       terminalStateName(Res.State))
        .add(1);
}

/// Renders the slow-request span tree: every complete span the serving
/// thread recorded inside the request's execution window, indented by
/// nesting depth. Spans running on pool threads belong to other tids
/// and are deliberately absent — the dump answers "where did *this*
/// thread's time go", and the full cross-thread picture lives in the
/// trace file.
std::string renderSlowRequest(const BatchResult &Res, double Threshold,
                              unsigned Tid, int64_t FromUs, int64_t ToUs) {
  std::string Out =
      formatStr("slow-request id=%s state=%s seconds=%.3f threshold=%.3f",
                Res.Id.c_str(), terminalStateName(Res.State), Res.Seconds,
                Threshold);
  size_t Spans = 0;
  for (const telemetry::EventRecord &E : telemetry::snapshotEvents()) {
    if (E.Tid != Tid || E.Phase != 'X' || E.TsUs < FromUs || E.TsUs > ToUs)
      continue;
    ++Spans;
    Out += "\n  " + std::string(E.Depth * 2, ' ') + E.Name;
    Out += formatStr(" %.3fms", static_cast<double>(E.DurUs) / 1000.0);
    if (!E.Args.empty())
      Out += " {" + E.Args + "}";
  }
  if (Spans == 0)
    Out += "\n  (no spans recorded — run with --trace-level to populate)";
  return Out;
}

} // namespace

BatchRunner::BatchRunner(BatchOptions Opts) : Opts(std::move(Opts)) {
  if (this->Opts.Workers == 0)
    this->Opts.Workers = 1;
}

void BatchRunner::requestDrain() { Drain.store(true, std::memory_order_release); }

bool BatchRunner::drainRequested() const {
  if (Drain.load(std::memory_order_acquire))
    return true;
  return Opts.DrainSignal && *Opts.DrainSignal != 0;
}

Status BatchRunner::runAttempt(const BatchRequest &R, ThreadPool *SharedPool,
                               BatchResult &Res) {
  // The transient-solve control point sits before any real work, so a
  // retried attempt re-runs the whole request (load, parse, solve).
  if (faults::anyActive() &&
      faults::consumeFire(FaultKind::TransientSolve, R.Id))
    return faults::injectedError(FaultKind::TransientSolve, R.Id);

  std::string Source, LoadError;
  if (!loadRequestSource(R, Source, LoadError))
    return Status::error(ErrorCode::InvalidArgument, LoadError);

  // Per-request governor: a cancel token, armed with the memory budget
  // here and with the wall-clock deadline below. Inference observes both
  // at wave boundaries; a blown budget is a failed request, not an OOM.
  CancelToken Token;
  memtrack::MemCharge Charge;
  double DeadlineSeconds = R.DeadlineSeconds >= 0.0
                               ? R.DeadlineSeconds
                               : Opts.DefaultDeadlineSeconds;
  long long MemBudget = R.MemBudgetBytes >= 0 ? R.MemBudgetBytes
                                              : Opts.DefaultMemBudgetBytes;
  Charge.bind(MemBudget, &Token);
  memtrack::MemScope Scope(&Charge);
  if (faults::anyActive() && faults::active(FaultKind::MemSpike, R.Id))
    Charge.spike(1LL << 40);

  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  if (!Prog) {
    Res.PeakBytes = std::max(Res.PeakBytes, Charge.peak());
    return Status::error(ErrorCode::InvalidArgument, Diags.str());
  }

  unsigned Jobs = R.Jobs ? R.Jobs : Opts.DefaultJobs;
  InferOptions InferOpts;
  InferOpts.Parallelism = Jobs ? Jobs : 0;
  InferOpts.Pool = Jobs != 1 ? SharedPool : nullptr;
  InferOpts.Cancel = &Token;
  InferOpts.Memory = &Charge;
  InferOpts.FaultScope = R.Id;
  InferOpts.Seed = Opts.Seed;
  if (DeadlineSeconds > 0.0) {
    InferOpts.RunBudget = Deadline::afterSeconds(DeadlineSeconds);
    InferOpts.SolveBudgetSeconds = DeadlineSeconds;
  }

  // Cache-tier wiring: resolve the request's directory through the
  // driver-injected provider. The provider owns the cache instances
  // (one per directory, shared across requests and attempts); the engine
  // gates itself off when this request is deadlined (a per-solve budget
  // makes results timing-dependent) or a result-perturbing fault is
  // armed, so wiring it unconditionally here is safe.
  const std::string &CacheDir =
      R.CacheDir.empty() ? Opts.DefaultCacheDir : R.CacheDir;
  if (Opts.Cache && !CacheDir.empty())
    InferOpts.Cache = Opts.Cache(CacheDir);

  InferResult Inference = runAnekInfer(*Prog, InferOpts, &Diags);
  Res.PeakBytes = std::max(Res.PeakBytes, Charge.peak());
  // Cache traffic accumulates across attempts (a retried attempt's hits
  // are real work saved) and is reported even for failed requests.
  Res.CacheHits += Inference.Cache.Hits;
  Res.CacheMisses += Inference.Cache.Misses;
  if (!Inference.Aborted.isOk())
    return Inference.Aborted;

  PrintOptions PrintOpts;
  PrintOpts.SpecFor = [&](const MethodDecl &M) {
    return *Inference.specFor(&M);
  };
  Res.Output = printProgram(*Prog, PrintOpts);
  Res.SpecCount = Inference.inferredAnnotationCount();
  // A run that fell back to another solver or isolated a failed method
  // still produced output, but not the output a clean run would have.
  std::string Reason;
  if (Inference.MethodsFailed || Inference.FallbackSolves)
    Reason = formatStr("%u method(s) failed, %u fallback solve(s)",
                       Inference.MethodsFailed, Inference.FallbackSolves);
  if (!Reason.empty()) {
    Res.State = TerminalState::Degraded;
    Res.Reason = std::move(Reason);
  } else {
    Res.State = TerminalState::Ok;
    Res.Reason.clear();
  }
  return Status::ok();
}

BatchResult BatchRunner::processOne(const BatchRequest &R,
                                    ThreadPool *SharedPool) {
  BatchResult Res;
  Res.Index = R.Index;
  Res.Id = R.Id;
  Res.Input = R.Input;
  Res.QueueSeconds = secondsSince(R.AdmitTime);

  RetryPolicy Policy;
  Policy.MaxAttempts = Opts.MaxAttempts ? Opts.MaxAttempts : 1;
  Policy.BaseDelaySeconds = Opts.RetryBaseDelaySeconds;
  Policy.MaxDelaySeconds = Opts.RetryMaxDelaySeconds;
  Policy.Seed = Opts.Seed;

  auto Start = std::chrono::steady_clock::now();
  const int64_t StartUs = telemetry::nowUs();
  const unsigned Tid = telemetry::currentThreadId();
  for (;;) {
    ++Res.Attempts;
    Status Attempt = runAttempt(R, SharedPool, Res);
    if (Attempt.isOk())
      break; // runAttempt set ok/degraded.
    if (Policy.shouldRetry(Attempt, Res.Attempts) && !drainRequested()) {
      if (telemetry::enabled(telemetry::TraceLevel::Phase))
        telemetry::counter("serve.retries").add(1);
      double Delay = Policy.delaySeconds(R.Id, Res.Attempts + 1);
      if (Delay > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(Delay));
      continue;
    }
    Res.State = stateForFailure(Attempt);
    Res.Reason = Attempt.str();
    Res.Output.clear();
    Res.SpecCount = 0;
    break;
  }
  Res.Seconds = secondsSince(Start);
  if (Opts.SlowRequestSeconds > 0.0 &&
      Res.Seconds >= Opts.SlowRequestSeconds) {
    if (telemetry::enabled(telemetry::TraceLevel::Phase))
      telemetry::counter("serve.slow_requests").add(1);
    std::string Dump = renderSlowRequest(Res, Opts.SlowRequestSeconds, Tid,
                                         StartUs, telemetry::nowUs());
    if (Opts.SlowLog)
      Opts.SlowLog(Dump);
    else
      std::fprintf(stderr, "%s\n", Dump.c_str());
  }
  return Res;
}

std::vector<BatchResult> BatchRunner::run(std::vector<BatchRequest> Requests) {
  // Re-index so results order matches offer order even when the caller
  // built requests by hand.
  for (size_t I = 0; I < Requests.size(); ++I)
    Requests[I].Index = static_cast<unsigned>(I);

  // Activate per-request fault specs up front: a spec names its own
  // request id in its filters, so activation order cannot leak between
  // requests. A malformed spec fails its request before admission.
  std::map<unsigned, std::string> BadSpecs;
  for (const BatchRequest &R : Requests)
    if (!R.FaultSpec.empty())
      if (Status S = faults::activateSpec(R.FaultSpec); !S)
        BadSpecs[R.Index] = S.str();

  // One shared inference pool serves every request that asked for
  // intra-request parallelism. Serving workers are plain threads, never
  // pool workers, so parallelFor from a request cannot deadlock the pool.
  std::unique_ptr<ThreadPool> OwnedPool;
  bool NeedPool = std::any_of(Requests.begin(), Requests.end(),
                              [&](const BatchRequest &R) {
                                unsigned Jobs =
                                    R.Jobs ? R.Jobs : Opts.DefaultJobs;
                                return Jobs != 1;
                              });
  if (NeedPool)
    OwnedPool = std::make_unique<ThreadPool>(Opts.PoolThreads);

  std::vector<BatchResult> Results(Requests.size());
  std::mutex EmitMutex;
  auto Emit = [&](BatchResult Res) {
    countTerminal(Res);
    std::lock_guard<std::mutex> Lock(EmitMutex);
    unsigned Index = Res.Index;
    Results[Index] = std::move(Res);
    if (Opts.Sink)
      Opts.Sink(Results[Index]);
  };

  RequestQueue Queue(Opts.QueueCap);
  std::vector<std::thread> Workers;
  Workers.reserve(Opts.Workers);
  for (unsigned W = 0; W < Opts.Workers; ++W)
    Workers.emplace_back([&] {
      while (std::optional<BatchRequest> R = Queue.pop()) {
        BatchResult Res;
        // The terminal-state contract holds even for bugs: an exception
        // escaping a request is that request's failure, not the batch's.
        try {
          Res = processOne(*R, OwnedPool.get());
        } catch (const std::exception &E) {
          Res = BatchResult();
          Res.Index = R->Index;
          Res.Id = R->Id;
          Res.Input = R->Input;
          Res.State = TerminalState::Failed;
          Res.Attempts = std::max(Res.Attempts, 1u);
          Res.Reason = std::string("internal error: ") + E.what();
        }
        Emit(std::move(Res));
      }
    });

  // Admission (producer side) runs on the calling thread. Blocking
  // admission backpressures on a full queue; ShedWhenFull floods instead.
  for (BatchRequest &R : Requests) {
    R.AdmitTime = std::chrono::steady_clock::now();
    // Captured before admit() — admit takes the request by value, so R is
    // moved-from whether or not it was admitted.
    unsigned Index = R.Index;
    std::string Id = R.Id;
    std::string Input = R.Input;
    auto Terminal = [&](TerminalState State, std::string Reason) {
      BatchResult Res;
      Res.Index = Index;
      Res.Id = Id;
      Res.Input = Input;
      Res.State = State;
      Res.Reason = std::move(Reason);
      Emit(std::move(Res));
    };
    if (auto It = BadSpecs.find(Index); It != BadSpecs.end()) {
      Terminal(TerminalState::Failed, It->second);
      continue;
    }
    if (drainRequested()) {
      Queue.close();
      Terminal(TerminalState::Shed, "drain");
      continue;
    }
    if (Queue.admit(std::move(R), !Opts.ShedWhenFull) ==
        RequestQueue::Admission::Shed)
      Terminal(TerminalState::Shed,
               drainRequested() ? "drain" : "queue-full");
  }

  Queue.close();
  for (std::thread &W : Workers)
    W.join();
  return Results;
}
