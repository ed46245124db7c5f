//===- WorkerDaemon.cpp - The persistent `anek workerd` daemon --------------===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#include "shard/WorkerDaemon.h"

#include "infer/AnekInfer.h"
#include "lang/Sema.h"
#include "shard/ShardWorker.h"
#include "shard/Wire.h"
#include "support/Diagnostics.h"
#include "support/Subprocess.h"

#include <algorithm>
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

/// One decoded, parsed program kept resident across sessions. Immutable
/// once built; sessions share it read-only (analysis state is
/// per-engine).
struct WorkerDaemon::Resident {
  std::unique_ptr<Program> Prog;
  InferOptions Opts;
  uint8_t CollectLevel = 0;
};

struct WorkerDaemon::Session {
  int Fd = -1;
  std::thread Thread;
  std::atomic<bool> Done{false};
};

WorkerDaemon::WorkerDaemon(WorkerDaemonOptions Opts)
    : Opts(std::move(Opts)) {}

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
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}

std::shared_ptr<WorkerDaemon::Resident>
WorkerDaemon::lookupResident(uint64_t Digest) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &[D, Entry] : Residents)
    if (D == Digest)
      return Entry;
  return nullptr;
}

void WorkerDaemon::storeResident(uint64_t Digest,
                                 std::shared_ptr<Resident> Entry) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &[D, E] : Residents)
    if (D == Digest) {
      E = std::move(Entry); // A concurrent miss raced us; either wins.
      return;
    }
  if (Residents.size() >= Opts.MaxResidentPrograms && !Residents.empty())
    Residents.erase(Residents.begin()); // FIFO: evict the oldest.
  Residents.emplace_back(Digest, std::move(Entry));
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
  FrameSender Sender(S.Fd);
  auto Reject = [&](const std::string &Why) {
    if (!Why.empty())
      (void)Sender.send(FrameType::Error, Why);
    ::shutdown(S.Fd, SHUT_RDWR);
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Stats.SessionsRejected;
  };

  // Handshake. A frame with the wrong protocol version fails the decoder
  // right here; dropping the connection without ceremony is the correct
  // answer to a peer whose bytes we cannot even frame.
  Expected<Frame> First =
      readFrame(S.Fd, Opts.IdleTimeoutSeconds, Opts.MaxFrameBytes);
  if (!First)
    return Reject(First.status().code() == ErrorCode::InvalidArgument
                      ? First.status().str()
                      : std::string());

  std::shared_ptr<Resident> Entry;
  if (First->Type == FrameType::InitDigest) {
    uint64_t Digest = 0;
    if (Status D = decodeInitDigest(First->Payload, Digest); !D)
      return Reject(D.str());
    Entry = lookupResident(Digest);
    if (Entry) {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Stats.DigestHits;
    } else {
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        ++Stats.DigestMisses;
      }
      if (!Sender.send(FrameType::InitNeeded, {}))
        return Reject(std::string());
      First = readFrame(S.Fd, Opts.IdleTimeoutSeconds, Opts.MaxFrameBytes);
      if (!First)
        return Reject(std::string());
      if (First->Type != FrameType::Init)
        return Reject(std::string("expected init frame, got ") +
                      frameTypeName(First->Type));
    }
  } else if (First->Type != FrameType::Init) {
    return Reject(std::string("expected init-digest or init frame, got ") +
                  frameTypeName(First->Type));
  }

  if (!Entry) {
    // Full Init path: decode, parse, and make the program resident under
    // the digest of the exact bytes received — the coordinator computed
    // its digest over the same bytes, so hit means identical.
    auto Fresh = std::make_shared<Resident>();
    std::string Source;
    if (Status D = decodeInit(First->Payload, Source, Fresh->Opts,
                              &Fresh->CollectLevel);
        !D)
      return Reject(D.str());
    DiagnosticEngine Diags;
    Fresh->Prog = parseAndAnalyze(Source, Diags);
    if (!Fresh->Prog)
      return Reject("workerd cannot parse program: " + Diags.str());
    // Daemon sessions are leaves exactly like pipe workers.
    Fresh->Opts.ShardExec = nullptr;
    Fresh->Opts.Cache = nullptr;
    storeResident(initDigest(First->Payload), Fresh);
    Entry = std::move(Fresh);
  }

  if (!Sender.send(FrameType::InitAck, {}))
    return Reject(std::string());

  SessionLimits Limits;
  Limits.IdleTimeoutSeconds = Opts.IdleTimeoutSeconds;
  Limits.MaxFrameBytes = Opts.MaxFrameBytes;
  SessionResult R = serveSession(S.Fd, Sender, *Entry->Prog, Entry->Opts,
                                 Entry->CollectLevel, Limits);
  std::lock_guard<std::mutex> Lock(Mutex);
  Stats.TasksServed += R.TasksServed;
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
