//===- Transport.h - The coordinator's worker-transport seam -----*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport seam of the sharded execution tier (DESIGN.md, "Sharded
/// execution and failure model"). PR 6 claimed the framed protocol "does
/// not care whether the peer is a pipe"; this seam makes that claim a
/// type. A Transport is one worker session the coordinator can dispatch
/// on: open() establishes it, send()/recv() move frames, and any failure
/// surfaces as a Status the coordinator classifies exactly as before —
/// there is no transport-specific error vocabulary above this line.
///
/// Two implementations:
///
///  - PipeTransport: today's fork/exec'd `anek --worker` child. open()
///    spawns it and writes the Init frame; closing kills and reaps it.
///
///  - SocketTransport: a connection to a persistent `anek workerd`
///    daemon (TCP or Unix-domain). open() connects under a timeout and
///    runs the Init-by-digest handshake (Wire.h): InitDigest first, the
///    full Init only on InitNeeded, session ready on InitAck. Refusal,
///    reset, version skew and EOF all classify as WorkerLost — transient,
///    like a crashed pipe worker.
///
/// The chaos control points ride the seam too, each with a real kernel
/// effect: injectCrash is SIGKILL on a pipe worker and a hard RST close
/// on a socket; injectHang is SIGSTOP on a pipe worker and a read-side
/// blackhole on a socket (the daemon keeps writing, we stop seeing it),
/// so heartbeat hang detection is exercised by genuine silence. The
/// net-refuse / net-reset-midframe / net-stall / net-handshake-skew
/// faults are implemented inside SocketTransport at the moment the real
/// network failure would occur.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SHARD_TRANSPORT_H
#define ANEK_SHARD_TRANSPORT_H

#include "shard/Wire.h"
#include "support/Status.h"
#include "support/Subprocess.h"

#include <string>
#include <string_view>
#include <vector>

namespace anek {
namespace shard {

/// One worker session. Not thread-safe; each coordinator dispatch thread
/// owns its transport exclusively (the same contract worker slots always
/// had).
class Transport {
public:
  virtual ~Transport() = default;

  /// Establishes the session (spawn + Init, or connect + handshake).
  /// Failure classification is the caller's job; WorkerLost and
  /// DeadlineExceeded are the transient outcomes.
  virtual Status open() = 0;

  /// Cheap liveness check between dispatches: true while the session is
  /// established and the peer has not been observed dead.
  virtual bool healthy() = 0;

  virtual Status send(FrameType Type, std::string_view Payload) = 0;
  virtual Expected<Frame> recv(double TimeoutSeconds) = 0;

  /// Tears the session down (kill + reap / close). Idempotent.
  virtual void close() = 0;

  /// "pipe" or "socket" — for stats, telemetry and bench labels.
  virtual const char *kind() const = 0;

  /// The worker's pid for telemetry lanes; -1 when the peer is remote.
  virtual pid_t pid() const { return -1; }

  /// Chaos control points with real kernel effects (see file comment).
  virtual void injectCrash() = 0;
  virtual void injectHang() = 0;
};

/// The fork/exec transport: one `anek --worker` child over stdin/stdout
/// pipes.
class PipeTransport : public Transport {
public:
  /// \p Argv is the full worker command line; \p InitPayload the
  /// encodeInit bytes written right after spawn; \p MaxFrameBytes the
  /// per-connection frame cap (0 = protocol default).
  PipeTransport(std::vector<std::string> Argv, std::string InitPayload,
                uint64_t MaxFrameBytes);
  ~PipeTransport() override { close(); }

  Status open() override;
  bool healthy() override;
  Status send(FrameType Type, std::string_view Payload) override;
  Expected<Frame> recv(double TimeoutSeconds) override;
  void close() override;
  const char *kind() const override { return "pipe"; }
  pid_t pid() const override { return Child.pid(); }
  void injectCrash() override;
  void injectHang() override;

private:
  std::vector<std::string> Argv;
  std::string InitPayload; ///< Owned: callers may pass a temporary.
  uint64_t MaxFrameBytes;
  subprocess::ChildProcess Child;
  bool Ready = false;
};

/// The socket transport: one connection to a worker daemon.
class SocketTransport : public Transport {
public:
  /// \p FaultScope scopes the net-* fault filters exactly as the other
  /// shard faults are scoped (the coordinator's InferOptions.FaultScope).
  SocketTransport(std::string Address, std::string InitPayload,
                  double ConnectTimeoutSeconds, uint64_t MaxFrameBytes,
                  std::string FaultScope);
  ~SocketTransport() override { close(); }

  Status open() override;
  bool healthy() override;
  Status send(FrameType Type, std::string_view Payload) override;
  Expected<Frame> recv(double TimeoutSeconds) override;
  void close() override;
  const char *kind() const override { return "socket"; }
  void injectCrash() override;
  void injectHang() override;

  const std::string &address() const { return Address; }

private:
  /// The Init-by-digest handshake over the fresh connection.
  Status handshake();
  /// Swaps reads onto a never-written pipe so the next recv() sees pure
  /// silence until its deadline trips (the net-stall / hang effect).
  void blackholeReads();

  std::string Address;
  std::string InitPayload; ///< Owned: callers may pass a temporary.
  double ConnectTimeoutSeconds;
  uint64_t MaxFrameBytes;
  std::string FaultScope;
  int Fd = -1;       ///< The connected socket (write side always).
  int ReadFd = -1;   ///< Where recv() reads; != Fd while blackholed.
  int BlackholeWriteFd = -1; ///< Keeps the blackhole pipe open (no EOF).
  bool Ready = false;
};

} // namespace shard
} // namespace anek

#endif // ANEK_SHARD_TRANSPORT_H
