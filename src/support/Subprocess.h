//===- Subprocess.h - Child processes and EINTR-safe stream I/O --*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process and stream plumbing for the sharded execution tier (DESIGN.md,
/// "Sharded execution and failure model"). Two things live here:
///
///  - EINTR-safe blocking I/O: readFull/writeFull/waitReadable retry
///    interrupted syscalls, so signal delivery (SIGINT during a drain, a
///    profiler's SIGPROF, the soak harness's own chaos signals) can never
///    surface as a spurious short read or a phantom worker failure.
///
///  - ChildProcess: fork/exec with one Unix-domain stream socket as the
///    child's stdin and stdout, non-blocking liveness polls and
///    EINTR-safe reaping. Every exit path (normal, signalled, killed by
///    the coordinator) funnels into one ExitStatus so callers classify
///    worker loss uniformly.
///
/// All functions return Status instead of raising: a dead peer is an
/// expected event in the shard failure model, not an exception.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SUPPORT_SUBPROCESS_H
#define ANEK_SUPPORT_SUBPROCESS_H

#include "support/Status.h"

#include <optional>
#include <string>
#include <sys/types.h>
#include <vector>

namespace anek {
namespace subprocess {

/// Reads exactly \p Size bytes from \p Fd, retrying EINTR and short
/// reads. Errors: WorkerLost on EOF before Size bytes (the peer closed
/// the stream — in the shard protocol that means the worker died),
/// Internal on any other read failure.
Status readFull(int Fd, void *Buffer, size_t Size);

/// Writes exactly \p Size bytes to \p Fd, retrying EINTR and short
/// writes. Errors: WorkerLost on EPIPE (peer gone; callers must have
/// SIGPIPE ignored — see ignoreSigpipe), Internal otherwise.
Status writeFull(int Fd, const void *Buffer, size_t Size);

/// Blocks until \p Fd is readable or \p TimeoutSeconds elapse, retrying
/// EINTR with the remaining time recomputed so signal storms cannot
/// stretch the wait. Returns ok when readable, DeadlineExceeded on
/// timeout (< 0 never times out), WorkerLost when the peer hung up with
/// no data left, Internal on poll failure.
Status waitReadable(int Fd, double TimeoutSeconds);

/// Ignores SIGPIPE process-wide (idempotent). A coordinator writing to a
/// crashed worker must see EPIPE as a Status, not die by signal.
void ignoreSigpipe();

/// Absolute path of the running executable (/proc/self/exe; falls back to
/// \p Fallback when the link cannot be read). Coordinators use this to
/// re-exec themselves as `--worker` processes.
std::string selfExePath(const std::string &Fallback);

/// How a child ended.
struct ExitStatus {
  bool Exited = false;   ///< True: normal exit, Code below is valid.
  bool Signalled = false;///< True: killed by Signal below.
  int Code = 0;
  int Signal = 0;

  /// "exit 3" / "signal 9" — for worker-loss diagnostics.
  std::string str() const;
};

/// A fork/exec'd child whose stdin and stdout are one end of a
/// socketpair; the parent keeps the other end. Movable, not copyable; the
/// destructor kills (SIGKILL) and reaps anything still running so a
/// coordinator can never leak zombies.
class ChildProcess {
public:
  ChildProcess() = default;
  ~ChildProcess();
  ChildProcess(ChildProcess &&Other) noexcept;
  ChildProcess &operator=(ChildProcess &&Other) noexcept;
  ChildProcess(const ChildProcess &) = delete;
  ChildProcess &operator=(const ChildProcess &) = delete;

  /// Spawns \p Argv (argv[0] = executable path) on one end of a
  /// socketpair, dup'ed onto the child's stdin and stdout; fd() is the
  /// other end. stderr is inherited so worker diagnostics land on the
  /// coordinator's stderr. Both ends are created close-on-exec, so a
  /// child spawned concurrently from another thread can never inherit
  /// (and hold open) this child's stream.
  Status spawn(const std::vector<std::string> &Argv);

  bool running() const { return Pid > 0; }
  pid_t pid() const { return Pid; }
  /// The parent's end of the child's stdin/stdout socket.
  int fd() const { return Fd; }

  /// Sends \p Signal; no-op when not running.
  void kill(int Signal);

  /// Non-blocking liveness probe: reaps and returns the exit status when
  /// the child has ended, nullopt while it still runs. EINTR-safe.
  std::optional<ExitStatus> poll();

  /// Blocks until the child ends and reaps it (EINTR-safe). Returns the
  /// last known status when already reaped.
  ExitStatus wait();

  /// Closes the parent's end (signals EOF to a well-behaved child).
  void closeFd();

private:
  void reset();

  pid_t Pid = -1;
  int Fd = -1;
  ExitStatus LastExit;
  bool Reaped = false;
};

} // namespace subprocess
} // namespace anek

#endif // ANEK_SUPPORT_SUBPROCESS_H
