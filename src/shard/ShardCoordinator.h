//===- ShardCoordinator.h - Crash-tolerant shard dispatch --------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator side of the sharded execution tier (DESIGN.md,
/// "Sharded execution and failure model"). A ShardCoordinator implements
/// the engine's WaveShardExecutor contract by partitioning each wave into
/// contiguous shards and farming them to a pool of worker sessions over
/// the anek-shard-v2 framed protocol — each a WorkerSession
/// (WorkerSession.h): a remote `anek workerd` daemon when endpoints are
/// configured, a local `anek --worker` child on a socketpair otherwise.
///
/// Failure is first-class, not exceptional:
///
///  - *crash*: the worker's stream hits EOF or reset (or the Task write
///    fails); the session is dropped, the shard re-dispatched.
///  - *hang*: no frame — heartbeat included — arrives within the
///    heartbeat deadline; the session is torn down and re-dispatched.
///  - *corrupt*: a frame fails its magic/version/length/checksum
///    validation; the session is recycled (its stream can no longer be
///    trusted) and the shard re-dispatched.
///  - *refusal / reset / handshake skew*: a session cannot even be
///    established; classified exactly like a loss.
///
/// All of these classify as ErrorCode::WorkerLost — transient by
/// contract — and re-dispatch backs off under the serving layer's
/// RetryPolicy jitter. The ladder has two rungs: the slot's worker
/// session, then in-process execution. A shard dispatch that loses
/// QuarantineAfter sessions in a row — at open, in the handshake or
/// mid-task, remote or local alike — is quarantined to runShardMethods
/// in-process, so the terminal state is degraded(shard-quarantine) and
/// never "lost". Because a re-dispatched or quarantined shard re-runs
/// against the same frozen snapshot, the merged results are
/// byte-identical to `-j1` no matter how many workers died along the way.
///
/// The worker-crash / worker-hang / wire-corrupt fault kinds are
/// implemented here with real kernel effects through the session
/// (SIGKILL or RST, a read blackhole, a flipped payload byte); the
/// net-refuse / net-reset-midframe / net-stall / net-handshake-skew
/// kinds live inside WorkerSession at the moment the real failure would
/// occur.
///
/// The coordinator is also the telemetry aggregation point (DESIGN.md,
/// "Distributed telemetry"): Telemetry frames arriving ahead of each
/// Result are merged into the unified trace as per-worker-pid lanes
/// (flow-linked to the dispatch span) and into the metrics registry under
/// the `shard.worker.` prefix; spawns, connects, losses and quarantines
/// become trace instants. All of it is best-effort and read-only with
/// respect to results — the merged outcome bytes are identical with
/// collection on or off.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SHARD_SHARDCOORDINATOR_H
#define ANEK_SHARD_SHARDCOORDINATOR_H

#include "infer/AnekInfer.h"
#include "serve/RetryPolicy.h"
#include "shard/WorkerSession.h"
#include "support/Subprocess.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace anek {
namespace shard {

struct CoordinatorOptions {
  /// Worker sessions (= maximum shards per wave). The driver's
  /// `--shards N`.
  unsigned Workers = 2;
  /// A worker that produces no frame — heartbeats count — for this long
  /// while owing a result is declared hung and dropped. Workers heartbeat
  /// every HeartbeatIntervalSeconds, so this is ~50 missed beats. The
  /// driver's `--heartbeat-timeout`.
  double HeartbeatTimeoutSeconds = 10.0;
  /// Consecutive session losses on one shard dispatch — failed opens and
  /// handshakes included, remote or local — before the shard is
  /// quarantined to in-process execution.
  unsigned QuarantineAfter = 3;
  /// Remote worker daemon endpoints ("host:port" or "unix:/path"); slot k
  /// uses Endpoints[k % size]. Empty = local `--worker` children. The
  /// driver's `--workers ADDR[,ADDR...]`.
  std::vector<std::string> Endpoints;
  /// Connect (and handshake-reply) deadline per session open.
  double ConnectTimeoutSeconds = 5.0;
  /// Per-connection frame cap, bounding decode pre-allocation (0 = the
  /// protocol default, MaxFramePayload). The driver's
  /// `--shard-max-frame-bytes`.
  uint64_t MaxFrameBytes = 0;
  /// Worker command line; empty means {<self-exe>, "--worker"}. Tests
  /// point this at the real `anek` binary.
  std::vector<std::string> WorkerArgv;
  /// Extra arguments appended to WorkerArgv (whether defaulted or not):
  /// the driver forwards its own telemetry flags (`--trace-level`, and
  /// `--trace`/`--metrics` when their paths carry a `%p` pid slot) so
  /// workers collect what the coordinator collects.
  std::vector<std::string> WorkerExtraArgv;
  /// Backoff between re-dispatches of a lost shard (the same policy —
  /// and the same deterministic jitter — the serving layer retries with).
  serve::RetryPolicy Retry;
};

/// Farms wave batches out to worker sessions. One coordinator serves one
/// inference run (it holds the Program for quarantine fallback); sessions
/// persist across waves and are shut down by the destructor.
///
/// Thread-safety: executeWave is called from the engine's scheduler loop
/// (one wave at a time); the per-shard dispatch threads it spawns each
/// own their worker slot exclusively. The stats are shared across those
/// threads and mutex-guarded; stats() may race executeWave.
class ShardCoordinator : public WaveShardExecutor {
public:
  /// \p Source must be the exact text \p Prog was parsed from — workers
  /// re-parse it, and the decl-index identification of methods relies on
  /// both sides seeing the same program. \p Opts carries the algorithm
  /// knobs forwarded to workers; scheduling fields are ignored.
  ShardCoordinator(Program &Prog, std::string Source, InferOptions Opts,
                   CoordinatorOptions CoOpts = {});
  ~ShardCoordinator() override;

  Expected<std::vector<summaryio::ShardMethodOutcome>>
  executeWave(const std::vector<unsigned> &DeclIndices,
              const std::string &Snapshot) override;

  ShardStats stats() const override;

private:
  struct Slot {
    std::unique_ptr<WorkerSession> Conn;
    /// The remote endpoint this slot uses; empty = local workers.
    std::string Endpoint;
    /// Sessions this slot has opened; the second and later are
    /// Reconnects.
    unsigned Opens = 0;
  };

  /// Establishes the slot's session if it is not already serving.
  Status ensureWorker(Slot &S, unsigned SlotIndex);
  /// One shard, driven to its terminal state: dispatch / re-dispatch
  /// under the loss budget, then quarantine. Never loses the shard.
  Expected<std::vector<summaryio::ShardMethodOutcome>>
  runShard(unsigned SlotIndex, uint32_t Wave,
           const std::vector<unsigned> &Indices, const std::string &Snapshot);
  /// One dispatch attempt over an established session. \p WorkerReported
  /// is set when the failure is a worker Error frame (deterministic, not
  /// retryable). Telemetry frames arriving before the Result are merged
  /// into the local trace/metrics stores here; an undecodable one is
  /// dropped and counted, never escalated — losing a span must not cost
  /// a dispatch.
  Expected<std::vector<summaryio::ShardMethodOutcome>>
  dispatchOnce(WorkerSession &T, uint32_t Wave,
               const std::vector<unsigned> &Indices,
               const std::string &Snapshot, bool &WorkerReported);

  Program &Prog;
  InferOptions Opts; ///< Leaf options: ShardExec cleared.
  CoordinatorOptions Co;
  std::string InitPayload; ///< encodeInit(Source, Opts), sent per session.
  std::vector<std::unique_ptr<Slot>> Slots;
  std::atomic<uint32_t> WaveOrdinal{0}; ///< Stamped into Task frames.

  mutable std::mutex StatsMutex;
  ShardStats Stats;
};

} // namespace shard
} // namespace anek

#endif // ANEK_SHARD_SHARDCOORDINATOR_H
