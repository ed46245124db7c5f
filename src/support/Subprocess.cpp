//===- Subprocess.cpp - Child processes and EINTR-safe stream I/O ----------===//

#include "support/Subprocess.h"

#include "support/Format.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace anek;
using namespace anek::subprocess;

Status subprocess::readFull(int Fd, void *Buffer, size_t Size) {
  char *Out = static_cast<char *>(Buffer);
  size_t Done = 0;
  while (Done < Size) {
    ssize_t N = ::read(Fd, Out + Done, Size - Done);
    if (N > 0) {
      Done += static_cast<size_t>(N);
      continue;
    }
    if (N == 0)
      return Status::error(ErrorCode::WorkerLost,
                           formatStr("stream closed after %zu of %zu bytes",
                                     Done, Size));
    if (errno == EINTR)
      continue; // A signal is not a failure; resume the read.
    return Status::error(ErrorCode::Internal,
                         formatStr("read failed: %s", std::strerror(errno)));
  }
  return Status::ok();
}

Status subprocess::writeFull(int Fd, const void *Buffer, size_t Size) {
  const char *In = static_cast<const char *>(Buffer);
  size_t Done = 0;
  while (Done < Size) {
    ssize_t N = ::write(Fd, In + Done, Size - Done);
    if (N >= 0) {
      Done += static_cast<size_t>(N);
      continue;
    }
    if (errno == EINTR)
      continue;
    if (errno == EPIPE)
      return Status::error(ErrorCode::WorkerLost,
                           formatStr("stream peer gone after %zu of %zu bytes",
                                     Done, Size));
    return Status::error(ErrorCode::Internal,
                         formatStr("write failed: %s", std::strerror(errno)));
  }
  return Status::ok();
}

Status subprocess::waitReadable(int Fd, double TimeoutSeconds) {
  using Clock = std::chrono::steady_clock;
  // The absolute expiry is fixed up front so EINTR retries re-poll with
  // only the remaining time: a stream of signals shrinks each poll but
  // never extends the total wait.
  const bool Unlimited = TimeoutSeconds < 0.0;
  const Clock::time_point Expiry =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             Unlimited ? 0.0 : TimeoutSeconds));
  for (;;) {
    int TimeoutMs = -1;
    if (!Unlimited) {
      double Remaining =
          std::chrono::duration<double>(Expiry - Clock::now()).count();
      if (Remaining <= 0.0)
        return Status::error(ErrorCode::DeadlineExceeded,
                             "timed out waiting for stream data");
      // Round up so a sub-millisecond remainder still polls once.
      TimeoutMs = static_cast<int>(Remaining * 1000.0) + 1;
    }
    struct pollfd P;
    P.fd = Fd;
    P.events = POLLIN;
    P.revents = 0;
    int N = ::poll(&P, 1, TimeoutMs);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Status::error(ErrorCode::Internal,
                           formatStr("poll failed: %s",
                                     std::strerror(errno)));
    }
    if (N == 0)
      return Status::error(ErrorCode::DeadlineExceeded,
                           "timed out waiting for stream data");
    if (P.revents & POLLIN)
      return Status::ok(); // Data (or EOF readable as 0 bytes) is ready.
    if (P.revents & (POLLHUP | POLLERR | POLLNVAL))
      return Status::error(ErrorCode::WorkerLost, "stream peer hung up");
  }
}

void subprocess::ignoreSigpipe() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &SA, nullptr);
}

std::string subprocess::selfExePath(const std::string &Fallback) {
  char Buffer[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buffer, sizeof(Buffer) - 1);
  if (N <= 0)
    return Fallback;
  Buffer[N] = '\0';
  return std::string(Buffer);
}

std::string ExitStatus::str() const {
  if (Signalled)
    return formatStr("signal %d", Signal);
  if (Exited)
    return formatStr("exit %d", Code);
  return "unknown";
}

ChildProcess::~ChildProcess() {
  if (Pid > 0 && !Reaped) {
    kill(SIGKILL);
    wait();
  }
  closeFd();
}

ChildProcess::ChildProcess(ChildProcess &&Other) noexcept { *this = std::move(Other); }

ChildProcess &ChildProcess::operator=(ChildProcess &&Other) noexcept {
  if (this == &Other)
    return *this;
  if (Pid > 0 && !Reaped) {
    kill(SIGKILL);
    wait();
  }
  closeFd();
  Pid = Other.Pid;
  Fd = Other.Fd;
  LastExit = Other.LastExit;
  Reaped = Other.Reaped;
  Other.reset();
  return *this;
}

void ChildProcess::reset() {
  Pid = -1;
  Fd = -1;
  LastExit = ExitStatus();
  Reaped = false;
}

Status ChildProcess::spawn(const std::vector<std::string> &Argv) {
  if (Argv.empty())
    return Status::error(ErrorCode::InvalidArgument, "empty argv");
  if (Pid > 0)
    return Status::error(ErrorCode::InvalidArgument,
                         "child already running");

  // SOCK_CLOEXEC sets close-on-exec atomically with creation: a sibling
  // spawned by another thread between socketpair() and our fork can never
  // carry these ends across its exec, so this child's EOF stays prompt.
  int Ends[2] = {-1, -1}; // Parent keeps [0], the child gets [1].
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Ends) != 0)
    return Status::error(ErrorCode::Internal,
                         formatStr("socketpair failed: %s",
                                   std::strerror(errno)));

  std::vector<char *> Args;
  Args.reserve(Argv.size() + 1);
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);

  pid_t Child = ::fork();
  if (Child < 0) {
    ::close(Ends[0]);
    ::close(Ends[1]);
    return Status::error(ErrorCode::Internal,
                         formatStr("fork failed: %s", std::strerror(errno)));
  }
  if (Child == 0) {
    // Child: only async-signal-safe calls between fork and exec (the
    // parent may be multi-threaded). dup2 clears close-on-exec on the
    // copies; both originals close at exec. stderr is inherited.
    ::dup2(Ends[1], STDIN_FILENO);
    ::dup2(Ends[1], STDOUT_FILENO);
    ::execv(Args[0], Args.data());
    ::_exit(127); // exec failed; the coordinator sees exit 127 = spawn loss.
  }

  ::close(Ends[1]);
  Pid = Child;
  Fd = Ends[0];
  LastExit = ExitStatus();
  Reaped = false;
  return Status::ok();
}

void ChildProcess::kill(int Signal) {
  if (Pid > 0 && !Reaped)
    ::kill(Pid, Signal);
}

std::optional<ExitStatus> ChildProcess::poll() {
  if (Pid <= 0)
    return std::nullopt;
  if (Reaped)
    return LastExit;
  for (;;) {
    int Raw = 0;
    pid_t R = ::waitpid(Pid, &Raw, WNOHANG);
    if (R == 0)
      return std::nullopt; // Still running.
    if (R < 0) {
      if (errno == EINTR)
        continue;
      // ECHILD etc.: treat as ended with unknown status.
      Reaped = true;
      return LastExit;
    }
    LastExit.Exited = WIFEXITED(Raw);
    LastExit.Signalled = WIFSIGNALED(Raw);
    LastExit.Code = LastExit.Exited ? WEXITSTATUS(Raw) : 0;
    LastExit.Signal = LastExit.Signalled ? WTERMSIG(Raw) : 0;
    Reaped = true;
    return LastExit;
  }
}

ExitStatus ChildProcess::wait() {
  if (Pid <= 0 || Reaped)
    return LastExit;
  for (;;) {
    int Raw = 0;
    pid_t R = ::waitpid(Pid, &Raw, 0);
    if (R < 0) {
      if (errno == EINTR)
        continue; // The whole point: signals must not drop the reap.
      Reaped = true;
      return LastExit;
    }
    LastExit.Exited = WIFEXITED(Raw);
    LastExit.Signalled = WIFSIGNALED(Raw);
    LastExit.Code = LastExit.Exited ? WEXITSTATUS(Raw) : 0;
    LastExit.Signal = LastExit.Signalled ? WTERMSIG(Raw) : 0;
    Reaped = true;
    return LastExit;
  }
}

void ChildProcess::closeFd() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}
