//===- WorkerDaemon.cpp - The persistent `anek workerd` daemon --------------===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#include "shard/WorkerDaemon.h"

#include "support/Subprocess.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace anek;
using namespace anek::shard;

struct WorkerDaemon::Session {
  int Fd = -1;
  std::thread Thread;
  std::atomic<bool> Done{false};
};

WorkerDaemon::WorkerDaemon(WorkerDaemonOptions Opts)
    : Opts(std::move(Opts)), Programs(this->Opts.MaxResidentPrograms) {}

WorkerDaemon::~WorkerDaemon() { stop(); }

Status WorkerDaemon::start() {
  // Sessions write to coordinators that may vanish mid-frame; EPIPE must
  // arrive as a Status, not SIGPIPE.
  subprocess::ignoreSigpipe();
  if (Status S = Listener.listen(Opts.ListenAddress); !S)
    return S;
  Started = true;
  Acceptor = std::thread([this] { acceptLoop(); });
  return Status::ok();
}

std::string WorkerDaemon::boundAddress() const {
  return Listener.boundAddress();
}

void WorkerDaemon::stop() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stopping)
      return;
    Stopping = true;
    // Wake every session parked in a frame read; their loops exit on the
    // resulting EOF/error.
    for (std::unique_ptr<Session> &S : Sessions)
      if (S->Fd >= 0)
        ::shutdown(S->Fd, SHUT_RDWR);
  }
  // Wake the acceptor with shutdown() alone: close() rewrites the fd the
  // acceptor is still reading, so it must wait until the join.
  if (Listener.listening())
    ::shutdown(Listener.fd(), SHUT_RDWR);
  if (Acceptor.joinable())
    Acceptor.join();
  Listener.close();
  std::vector<std::unique_ptr<Session>> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ToJoin.swap(Sessions);
  }
  for (std::unique_ptr<Session> &S : ToJoin) {
    if (S->Thread.joinable())
      S->Thread.join();
    if (S->Fd >= 0)
      ::close(S->Fd);
  }
}

WorkerDaemonStats WorkerDaemon::stats() const {
  WorkerDaemonStats Out;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Out = Stats;
  }
  Out.DigestHits = Programs.hits();
  Out.DigestMisses = Programs.misses();
  return Out;
}

void WorkerDaemon::acceptLoop() {
  for (;;) {
    Expected<int> Conn = Listener.accept(/*TimeoutSeconds=*/-1.0);
    if (!Conn) {
      // The listener was shut down under us (stop()) or gave a transient
      // accept failure; only the former ends the loop.
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Stopping)
        return;
      continue;
    }
    auto S = std::make_unique<Session>();
    S->Fd = *Conn;
    Session *Raw = S.get();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Stopping) {
        ::close(*Conn);
        return;
      }
      ++Stats.SessionsAccepted;
      // Reap sessions that already finished so a long-lived daemon's
      // thread list stays proportional to live connections.
      for (auto It = Sessions.begin(); It != Sessions.end();) {
        if ((*It)->Done.load(std::memory_order_acquire)) {
          if ((*It)->Thread.joinable())
            (*It)->Thread.join();
          if ((*It)->Fd >= 0)
            ::close((*It)->Fd);
          It = Sessions.erase(It);
        } else {
          ++It;
        }
      }
      Sessions.push_back(std::move(S));
    }
    Raw->Thread = std::thread([this, Raw] {
      runSession(*Raw);
      Raw->Done.store(true, std::memory_order_release);
    });
  }
}

void WorkerDaemon::runSession(Session &S) {
  SessionLimits Limits;
  Limits.IdleTimeoutSeconds = Opts.IdleTimeoutSeconds;
  Limits.MaxFrameBytes = Opts.MaxFrameBytes;
  SessionResult R = serveConnection(S.Fd, &Programs, Limits);
  std::lock_guard<std::mutex> Lock(Mutex);
  Stats.TasksServed += R.TasksServed;
  if (R.Rejected)
    ++Stats.SessionsRejected;
}

// --- runWorkerDaemon -----------------------------------------------------

namespace {

std::atomic<bool> StopRequested{false};

void onStopSignal(int) { StopRequested.store(true, std::memory_order_relaxed); }

} // namespace

int shard::runWorkerDaemon(const WorkerDaemonOptions &Opts) {
  WorkerDaemon Daemon(Opts);
  if (Status S = Daemon.start(); !S) {
    std::fprintf(stderr, "anek workerd: %s\n", S.str().c_str());
    return 1;
  }
  // Scrapable readiness line: harnesses wait for it (or just retry
  // connects) before pointing coordinators here.
  std::fprintf(stderr, "anek workerd: listening on %s\n",
               Daemon.boundAddress().c_str());
  StopRequested.store(false, std::memory_order_relaxed);
  struct sigaction Sa;
  std::memset(&Sa, 0, sizeof(Sa));
  Sa.sa_handler = onStopSignal;
  ::sigaction(SIGINT, &Sa, nullptr);
  ::sigaction(SIGTERM, &Sa, nullptr);
  while (!StopRequested.load(std::memory_order_relaxed))
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Daemon.stop();
  WorkerDaemonStats Stats = Daemon.stats();
  std::fprintf(stderr,
               "anek workerd: served %u task(s) over %u session(s) "
               "(%u digest hit(s), %u miss(es), %u rejected)\n",
               Stats.TasksServed, Stats.SessionsAccepted, Stats.DigestHits,
               Stats.DigestMisses, Stats.SessionsRejected);
  return 0;
}
