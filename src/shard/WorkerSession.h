//===- WorkerSession.h - One worker session, coordinator side ---*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One worker session of the sharded execution tier (DESIGN.md, "Sharded
/// execution and failure model"), seen from the coordinator. Every
/// session is a stream socket running the same protocol (Wire.h); only
/// the way it opens differs:
///
///  - a TCP or Unix-domain connection to a persistent `anek workerd`
///    daemon, when the slot has an endpoint;
///  - a fresh `anek --worker` child on one end of a socketpair (its stdin
///    and stdout), killed and reaped when the session closes.
///
/// Either way the session then runs the Init-by-digest handshake:
/// InitDigest first, the full Init only on InitNeeded, ready on InitAck.
/// A spawned child holds no program, so it always answers InitNeeded.
/// Refusal, reset, version skew and EOF all surface as WorkerLost —
/// transient, the same class as a crashed worker.
///
/// The chaos control points fire at the same place for every session,
/// each with a real kernel effect: net-refuse before the connect or
/// spawn, net-handshake-skew on the InitDigest frame, net-reset-midframe
/// halfway through a sent frame, net-stall on a read. injectCrash is
/// SIGKILL when the session owns a child and a hard RST otherwise;
/// injectHang blackholes reads (the worker keeps writing, we stop
/// seeing it), so heartbeat hang detection is exercised by genuine
/// silence.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SHARD_WORKERSESSION_H
#define ANEK_SHARD_WORKERSESSION_H

#include "shard/Wire.h"
#include "support/Status.h"
#include "support/Subprocess.h"

#include <string>
#include <string_view>
#include <vector>

namespace anek {
namespace shard {

/// One worker session. Not thread-safe; each coordinator dispatch thread
/// owns its session exclusively.
class WorkerSession {
public:
  /// \p InitPayload is the encodeInit bytes the handshake offers by
  /// digest; \p OpenTimeoutSeconds bounds the connect and each handshake
  /// reply; \p MaxFrameBytes is the per-connection frame cap (0 = the
  /// protocol default); \p FaultScope scopes the net-* fault filters
  /// exactly as the other shard faults are scoped.
  WorkerSession(std::string InitPayload, double OpenTimeoutSeconds,
                uint64_t MaxFrameBytes, std::string FaultScope);
  ~WorkerSession() { close(); }

  WorkerSession(const WorkerSession &) = delete;
  WorkerSession &operator=(const WorkerSession &) = delete;

  /// Opens the session: connects to the daemon at \p Endpoint or, when
  /// it is empty, spawns \p WorkerArgv on a socketpair; then runs the
  /// handshake. Failure classification is the caller's job; WorkerLost
  /// and DeadlineExceeded are the transient outcomes.
  Status open(const std::string &Endpoint,
              const std::vector<std::string> &WorkerArgv);

  /// Cheap liveness check between dispatches: true while the session is
  /// open and its child, if any, has not been observed dead.
  bool healthy();

  Status send(FrameType Type, std::string_view Payload);
  Expected<Frame> recv(double TimeoutSeconds);

  /// Tears the session down (close, plus kill and reap a child).
  /// Idempotent.
  void close();

  /// True when the peer is a daemon reached over an endpoint.
  bool remote() const { return Remote; }
  /// The child's pid for telemetry lanes; -1 for a remote peer.
  pid_t pid() const { return Child.pid(); }

  /// Chaos control points with real kernel effects (see file comment).
  void injectCrash();
  void injectHang();

private:
  /// The Init-by-digest handshake over the fresh stream.
  Status handshake();
  /// Closes the stream, with an RST when \p Reset and the peer is remote
  /// (a socketpair has no RST; its child just sees EOF).
  void closeStream(bool Reset);
  /// Swaps reads onto a never-written pipe so the next recv() sees pure
  /// silence until its deadline trips (the net-stall / hang effect).
  void blackholeReads();

  std::string InitPayload; ///< Owned: callers may pass a temporary.
  double OpenTimeoutSeconds;
  uint64_t MaxFrameBytes;
  std::string FaultScope;
  bool Remote = false;
  std::string Peer;               ///< For messages: endpoint or local.
  subprocess::ChildProcess Child; ///< Running for spawned sessions only.
  int Fd = -1;     ///< The session's stream (write side always).
  int ReadFd = -1; ///< Where recv() reads; != Fd while blackholed.
  int BlackholeWriteFd = -1; ///< Keeps the blackhole pipe open (no EOF).
};

} // namespace shard
} // namespace anek

#endif // ANEK_SHARD_WORKERSESSION_H
