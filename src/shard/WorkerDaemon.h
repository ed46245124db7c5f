//===- WorkerDaemon.h - The persistent `anek workerd` daemon -----*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent worker daemon of the networked shard tier (DESIGN.md,
/// "Sharded execution and failure model"). Where a local worker is born
/// per session and dies with it, a daemon outlives both: it listens
/// on a socket (TCP or Unix-domain), serves any number of coordinator
/// sessions — concurrently, one thread per connection — and returns to
/// accept when a coordinator disconnects, however rudely.
///
/// The point of persistence is the resident program cache. Each session
/// is the same serveConnection a local worker runs (ShardWorker.h), given
/// the daemon's ProgramCache. It opens with the Init-by-digest handshake
/// (Wire.h): the coordinator
/// sends the fnv1a64 of its Init payload; if the daemon already holds
/// the decoded, parsed program under that digest it answers InitAck
/// immediately and the session skips shipping — and re-parsing — the
/// whole program. Only a miss pays the full Init. Because the digest is
/// computed over the exact Init bytes (source + algorithm options +
/// collection level), an edited program is a different digest by
/// construction: the daemon re-requests the full payload and can never
/// serve a stale program. Sessions sharing a resident program run
/// concurrently — the analysis reads the Program, all mutable state is
/// per-engine (the same contract the in-process parallel scheduler
/// relies on).
///
/// A session that opens with the wrong protocol version (a mismatched
/// binary) is rejected by the frame decoder and dropped; the daemon
/// survives and keeps accepting. Malformed traffic ends the *session*,
/// never the daemon.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SHARD_WORKERDAEMON_H
#define ANEK_SHARD_WORKERDAEMON_H

#include "shard/ShardWorker.h"
#include "support/Socket.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace anek {
namespace shard {

struct WorkerDaemonOptions {
  /// Where to listen: "host:port" (port 0 = kernel-assigned, see
  /// boundAddress) or "unix:/path". The driver's `--listen`.
  std::string ListenAddress;
  /// Per-connection frame cap (0 = protocol default). The driver's
  /// `--max-frame-bytes`.
  uint64_t MaxFrameBytes = 0;
  /// How long a session may sit idle between tasks before the daemon
  /// gives it up (< 0 = forever). The driver's `--idle-timeout`.
  double IdleTimeoutSeconds = -1.0;
  /// Resident programs kept across sessions; the oldest is evicted when
  /// a miss would exceed this.
  unsigned MaxResidentPrograms = 8;
};

struct WorkerDaemonStats {
  unsigned SessionsAccepted = 0;
  /// Sessions dropped before serving a task: version skew, malformed
  /// handshake, unparseable program.
  unsigned SessionsRejected = 0;
  unsigned DigestHits = 0;
  unsigned DigestMisses = 0;
  unsigned TasksServed = 0;
};

/// The daemon. start() binds and spawns the accept loop; stop() (or the
/// destructor) shuts every live session down and joins. Tests run it
/// in-process; `anek workerd` wraps it behind runWorkerDaemon below.
class WorkerDaemon {
public:
  explicit WorkerDaemon(WorkerDaemonOptions Opts);
  ~WorkerDaemon();

  WorkerDaemon(const WorkerDaemon &) = delete;
  WorkerDaemon &operator=(const WorkerDaemon &) = delete;

  /// Binds, listens and starts accepting. InvalidArgument/Internal on a
  /// bad or unbindable address.
  Status start();

  /// The actual bound address (resolves a requested TCP port 0).
  std::string boundAddress() const;

  /// Stops accepting, ends every live session and joins all threads.
  /// Idempotent.
  void stop();

  WorkerDaemonStats stats() const;

private:
  struct Session;

  void acceptLoop();
  void runSession(Session &S);

  WorkerDaemonOptions Opts;
  sock::ListenSocket Listener;
  std::thread Acceptor;
  bool Started = false;
  ProgramCache Programs;

  mutable std::mutex Mutex; ///< Guards Sessions and Stats.
  std::vector<std::unique_ptr<Session>> Sessions;
  WorkerDaemonStats Stats;
  bool Stopping = false;
};

/// Blocking driver entry for `anek workerd`: starts the daemon, prints
/// the bound address to stderr (so harnesses can scrape readiness), and
/// serves until SIGINT/SIGTERM. Returns a process exit code.
int runWorkerDaemon(const WorkerDaemonOptions &Opts);

} // namespace shard
} // namespace anek

#endif // ANEK_SHARD_WORKERDAEMON_H
