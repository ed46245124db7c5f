//===- ShardSoak.h - Worker-chaos soak for the shard tier --------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker-chaos soak (DESIGN.md, "Sharded execution and failure
/// model"): repeated sharded inference runs over the built-in examples
/// under randomized — but seeded, hence reproducible — worker chaos
/// (crashes, hangs, corrupted result frames, in combination), checking
/// the tier's invariants. With Endpoints configured the same harness
/// soaks remote sessions against live `anek workerd` daemons, and
/// NetChaos draws from the network fault vocabulary instead — injected
/// connection refusals, mid-frame resets, read stalls, handshake version
/// skew — while the BetweenRounds hook lets the driver kill and respawn
/// real daemons under the soak. The invariants checked:
///
///  - every run completes with exactly one terminal accounting per shard
///    (served, re-dispatched then served, or quarantined — never lost);
///  - the driver-visible output is byte-identical to an in-process `-j1`
///    baseline on *every* round, faulted or not;
///  - loss bookkeeping is coherent (re-dispatches and quarantines are
///    bounded by observed worker losses).
///
/// The harness owns the process-global fault registry while it runs
/// (activations are scoped per round and reset after); do not run it
/// concurrently with other fault-injection users.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SHARD_SHARDSOAK_H
#define ANEK_SHARD_SHARDSOAK_H

#include "infer/AnekInfer.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace anek {
namespace shard {

struct ShardSoakConfig {
  /// Sharded inference runs to drive (each over one built-in example).
  unsigned Rounds = 25;
  /// Worker processes per run (= max shards per wave).
  unsigned Workers = 4;
  /// Seeds the chaos assignment and the solver seeds.
  uint64_t Seed = 1;
  /// Fraction of rounds that get chaos, in [0, 1].
  double FaultRate = 0.6;
  /// Heartbeat deadline per run; kept small so hang rounds converge fast.
  double HeartbeatTimeoutSeconds = 2.0;
  /// Minimum total shard dispatches for the soak to count as a real
  /// exercise; fewer is a violation. 0 disables the check.
  unsigned MinDispatches = 0;
  /// Local worker command line; empty means {<self-exe>, "--worker"}
  /// (the soak drivers handle --worker themselves; tests point this at
  /// `anek`). Unused under Endpoints.
  std::vector<std::string> WorkerArgv;
  /// Remote `anek workerd` endpoints; non-empty runs every round over
  /// remote sessions (slot k uses Endpoints[k % size]; a shard that keeps
  /// losing them quarantines to in-process execution).
  std::vector<std::string> Endpoints;
  /// Draw round chaos from the network fault vocabulary (net-refuse,
  /// net-reset-midframe, net-stall, net-handshake-skew, plus remote
  /// session kills) instead of the worker-chaos kinds.
  bool NetChaos = false;
  /// Called at the top of each round before chaos is armed; soak drivers
  /// use it to SIGKILL and respawn real daemon processes mid-soak.
  std::function<void(unsigned Round)> BetweenRounds;
};

struct ShardSoakReport {
  unsigned Rounds = 0;
  /// Rounds that ran with at least one fault armed.
  unsigned FaultedRounds = 0;
  /// Coordinator + engine counters summed over all rounds.
  ShardStats Totals;
  /// Human-readable invariant violations; empty = soak passed.
  std::vector<std::string> Violations;

  bool passed() const { return Violations.empty(); }
};

/// Runs one worker-chaos soak. Never throws for a round-level failure
/// (that is a violation by definition); propagates only harness bugs.
ShardSoakReport runShardSoak(const ShardSoakConfig &Cfg);

} // namespace shard
} // namespace anek

#endif // ANEK_SHARD_SHARDSOAK_H
