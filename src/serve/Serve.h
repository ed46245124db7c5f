//===- Serve.h - Batch serving layer: requests and results -------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Core types of the resource-governed serving layer (DESIGN.md, "Serving
/// model"): a BatchRequest describes one inference request (an input plus
/// per-request resource overrides), a BatchResult is its outcome. The
/// terminal-state contract is the load-bearing invariant: every admitted
/// or offered request ends in exactly one of
///
///   ok        inference completed, no degradation
///   degraded  inference completed, but methods failed in isolation or
///             fallback solvers were used
///   failed    the request cannot produce specs (bad input or fault
///             spec, mem-budget, internal error)
///   timeout   the per-request deadline cancelled the run at a wave
///             boundary
///   shed      admission control rejected the request (queue full, or a
///             drain was requested before it started)
///
/// and exactly one JSONL line (schema `anek-batch-v1`) reports it.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SERVE_SERVE_H
#define ANEK_SERVE_SERVE_H

#include <chrono>
#include <string>

namespace anek {
namespace serve {

/// The five terminal states of the serving contract.
enum class TerminalState { Ok, Degraded, Failed, Timeout, Shed };
constexpr unsigned NumTerminalStates = 5;

/// Renders "ok" / "degraded" / "failed" / "timeout" / "shed".
const char *terminalStateName(TerminalState State);

/// One inference request. Manifest lines parse into this; tests and the
/// soak harness construct it directly (optionally with inline Source).
struct BatchRequest {
  /// Position in the offered stream; results are returned in this order.
  unsigned Index = 0;
  /// Stable identifier; "req<Index>" when the manifest names none. Fault
  /// filters key off it.
  std::string Id;
  /// "example:NAME" (built-in corpus example) or an .mjava path.
  std::string Input;
  /// Inline source text; when non-empty, Input is only a display name.
  std::string Source;
  /// Wave-job parallelism for this request: 0 = batch default, 1 = solve
  /// inline on the serving worker, N > 1 = use the shared inference pool.
  unsigned Jobs = 0;
  /// Wall-clock deadline in seconds; < 0 = batch default, 0 = unlimited.
  double DeadlineSeconds = -1.0;
  /// Peak-memory budget in bytes; < 0 = batch default, 0 = unlimited.
  long long MemBudgetBytes = -1;
  /// Fault spec activated for the whole run (the author scopes filters to
  /// this request, e.g. "mem-spike:req7").
  std::string FaultSpec;
  /// Summary-cache directory for this request; empty = batch default
  /// (which also defaults to empty = no caching). Effective only when the
  /// batch was wired with a CacheProvider (the driver's job — see
  /// BatchOptions), and only for undeadlined requests: a per-request
  /// deadline implies a per-solve budget, under which the engine disables
  /// caching (timing-dependent results must not be replayed).
  std::string CacheDir;
  /// When the request entered admission (set by BatchRunner::run just
  /// before it offers the request to the queue); a worker's dequeue time
  /// minus this is the request's queue wait.
  std::chrono::steady_clock::time_point AdmitTime{};
};

/// Terminal outcome of one request.
struct BatchResult {
  unsigned Index = 0;
  std::string Id;
  std::string Input;
  TerminalState State = TerminalState::Failed;
  /// 1 when a worker ran the request; 0 when it was shed or failed before
  /// admission (a malformed fault spec). Inference is deterministic, so a
  /// request runs at most once.
  unsigned Attempts = 0;
  /// Why the request ended in a non-ok state; empty for ok.
  std::string Reason;
  /// The printed program with inferred specs — the same bytes `anek
  /// infer` prints before its stats trailer. Set for ok/degraded only.
  std::string Output;
  /// Methods that received a non-empty inferred spec.
  unsigned SpecCount = 0;
  /// Wall-clock seconds of the run (queue wait excluded).
  double Seconds = 0.0;
  /// Seconds the request waited in the queue before a worker picked it
  /// up (0 for shed requests — they never reach a worker). QueueSeconds
  /// + Seconds is the request's total latency, the quantity the
  /// throughput bench reports p50/p99 over per queue cap.
  double QueueSeconds = 0.0;
  /// Peak-memory watermark observed by the governor, in bytes.
  long long PeakBytes = 0;
  /// Summary-cache hits and misses of this request's run (both 0
  /// when the request ran uncached). A warm re-run of an unchanged input
  /// shows hits == solves and misses == 0, which is how `anek report`
  /// computes the batch's cache hit rate.
  unsigned CacheHits = 0;
  unsigned CacheMisses = 0;

  /// One `anek-batch-v1` JSONL line (no trailing newline).
  std::string jsonLine() const;
};

} // namespace serve
} // namespace anek

#endif // ANEK_SERVE_SERVE_H
