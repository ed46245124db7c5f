//===- Soak.h - Chaos-soak harness for the serving layer ---------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chaos-soak harness (DESIGN.md, "Serving model"): drives hundreds
/// of batch requests over the built-in examples with randomized,
/// site-filtered faults, and checks the serving invariants —
///
///  - every offered request reaches a terminal state (no lost requests,
///    no crash);
///  - each injected fault produces exactly its contracted terminal state
///    (solve-fail degrades, mem-spike fails on the memory budget, a tiny
///    deadline times out, queue-full sheds);
///  - non-faulted requests are byte-identical to a sequential baseline
///    computed in-process with the same seed;
///  - a faulted request never perturbs its neighbors (every fault filter
///    is scoped to one request id).
///
/// The fault assignment is drawn from a seeded RNG, so a soak run is
/// reproducible: same seed, same chaos, same expected outcomes.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SERVE_SOAK_H
#define ANEK_SERVE_SOAK_H

#include "serve/Serve.h"

#include <cstdint>
#include <string>
#include <vector>

namespace anek {
namespace serve {

struct SoakConfig {
  /// Requests to drive through the batch.
  unsigned Requests = 500;
  /// Serving workers (requests in flight concurrently).
  unsigned Workers = 4;
  /// Seeds both the chaos assignment and the batch's solver seeds.
  uint64_t Seed = 1;
  /// Fraction of requests that get a fault, in [0, 1].
  double FaultRate = 0.4;
  /// RequestQueue capacity for the run.
  size_t QueueCap = 64;
};

struct SoakReport {
  /// Terminal results, ordered by request index.
  std::vector<BatchResult> Results;
  /// Human-readable invariant violations; empty = soak passed.
  std::vector<std::string> Violations;
  /// Result count per terminal state, indexed by TerminalState.
  unsigned StateCounts[NumTerminalStates] = {};

  bool passed() const { return Violations.empty(); }
};

/// Runs one soak. Never throws for a request-level failure (that would
/// itself be an invariant violation); propagates only harness bugs.
SoakReport runSoak(const SoakConfig &Cfg);

} // namespace serve
} // namespace anek

#endif // ANEK_SERVE_SOAK_H
