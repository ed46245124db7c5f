//===- ShardWorker.h - The worker side of a shard session -------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker side of the sharded execution tier (DESIGN.md, "Sharded
/// execution and failure model"). Every worker session, whether a local
/// `anek --worker` child (its stdin and stdout are one end of the
/// coordinator's socketpair) or a connection accepted by an `anek
/// workerd` daemon, is served by serveConnection: the Init-by-digest
/// handshake (Wire.h), then Task frames — analyze these declaration
/// indices against this summary snapshot — until Shutdown or EOF. While
/// a task runs, a heartbeat thread emits Heartbeat frames so the
/// coordinator can tell "slow" from "hung"; writes are mutex-serialized
/// so a heartbeat can never tear a Result frame.
///
/// The only difference between the two is the ProgramCache: a daemon
/// passes the programs it keeps resident across sessions, so a digest
/// hit skips shipping and re-parsing the program; a `--worker` child
/// passes none and always asks for the full Init.
///
/// A session is deliberately stateless between tasks (every Task carries
/// its full snapshot): the coordinator may drop a session at any moment,
/// and a re-dispatched shard on a fresh session computes exactly the
/// bytes the lost one would have.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SHARD_SHARDWORKER_H
#define ANEK_SHARD_SHARDWORKER_H

#include "infer/AnekInfer.h"
#include "shard/Wire.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

namespace anek {
namespace shard {

/// Serializes every frame a worker emits: the heartbeat thread and the
/// task loop share one stream, and an interleaved write would hand the
/// coordinator a torn frame (which it must — and does — treat as a lost
/// worker, wasting a perfectly good attempt).
class FrameSender {
public:
  explicit FrameSender(int Fd) : Fd(Fd) {}

  Status send(FrameType Type, std::string_view Payload) {
    std::lock_guard<std::mutex> Lock(Mutex);
    return writeFrame(Fd, Type, Payload);
  }

private:
  int Fd;
  std::mutex Mutex;
};

/// Per-session knobs of serveSession.
struct SessionLimits {
  /// How long to wait for the next frame before giving the session up
  /// (< 0 = forever). Local workers wait forever — their lifetime is the
  /// coordinator's; daemon sessions may bound idleness.
  double IdleTimeoutSeconds = -1.0;
  /// Per-connection frame cap (0 = protocol default).
  uint64_t MaxFrameBytes = 0;
};

/// How a session ended.
struct SessionResult {
  /// True on Shutdown or EOF (the peer is simply gone — normal in the
  /// shard failure model); false when our own sends failed, a frame
  /// from the peer was malformed beyond answering, or the handshake
  /// rejected the session.
  bool Clean = true;
  /// The handshake failed (version skew, malformed frame, unparseable
  /// program); no task was served.
  bool Rejected = false;
  unsigned TasksServed = 0;
};

/// A decoded, parsed program ready to serve tasks. Immutable once built;
/// sessions share it read-only (analysis state is per-engine).
struct ResidentProgram {
  std::unique_ptr<Program> Prog;
  InferOptions Opts;
  uint8_t CollectLevel = 0;
};

/// Programs kept resident across a daemon's sessions, keyed by the
/// digest of their exact Init payload, with FIFO eviction at the
/// capacity. Counts digest hits and misses. Thread-safe.
class ProgramCache {
public:
  explicit ProgramCache(unsigned Capacity) : Capacity(Capacity) {}

  /// The program under \p Digest, or null; counts a hit or a miss.
  std::shared_ptr<ResidentProgram> lookup(uint64_t Digest);
  /// Makes \p Entry resident under \p Digest, evicting the oldest entry
  /// when full.
  void store(uint64_t Digest, std::shared_ptr<ResidentProgram> Entry);

  unsigned hits() const;
  unsigned misses() const;

private:
  const unsigned Capacity;
  mutable std::mutex Mutex;
  std::vector<std::pair<uint64_t, std::shared_ptr<ResidentProgram>>> Entries;
  unsigned Hits = 0;
  unsigned Misses = 0;
};

/// The Task-serving core: reads Task/Shutdown frames from \p InFd and
/// answers over \p Sender against the resident \p Prog until the peer
/// hangs up. Heartbeats pulse while a task runs; when \p CollectLevel is
/// non-zero a Telemetry frame ships before each Result, carrying only
/// the events that task recorded. Task-level failures are Error frames,
/// never session enders — the peer decides what they mean.
SessionResult serveSession(int InFd, FrameSender &Sender, Program &Prog,
                           const InferOptions &Opts, uint8_t CollectLevel,
                           const SessionLimits &Limits = {});

/// One whole worker session over the stream socket \p Fd: InitDigest,
/// then InitAck on a \p Cache hit, or InitNeeded, Init, parse, InitAck
/// on a miss (always, when \p Cache is null); then serveSession. A
/// rejected handshake answers an Error frame when it can and shuts the
/// stream down.
SessionResult serveConnection(int Fd, ProgramCache *Cache,
                              const SessionLimits &Limits = {});

/// The `--worker` process entry: serves one session, with no resident
/// cache, over the socket the coordinator passed as stdin and stdout.
/// Returns a process exit code: 0 on a clean Shutdown/EOF, 1 otherwise.
/// Task-level failures are protocol traffic (Error frames), not exit
/// codes.
int runWorkerLoop();

} // namespace shard
} // namespace anek

#endif // ANEK_SHARD_SHARDWORKER_H
