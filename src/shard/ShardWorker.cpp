//===- ShardWorker.cpp - The worker side of a shard session ---------------===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#include "shard/ShardWorker.h"

#include "infer/AnekInfer.h"
#include "lang/Sema.h"
#include "shard/Wire.h"
#include "support/Diagnostics.h"
#include "support/Metrics.h"
#include "support/Subprocess.h"
#include "support/Trace.h"

#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace anek;
using namespace anek::shard;

namespace {

/// Emits Heartbeat frames every HeartbeatIntervalSeconds until stopped.
/// Write failures are ignored here: if the coordinator is gone the task
/// loop's own Result write will discover it.
class HeartbeatPulse {
public:
  explicit HeartbeatPulse(FrameSender &Sender) : Sender(Sender) {
    Thread = std::thread([this] { run(); });
  }

  ~HeartbeatPulse() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Stop = true;
    }
    Cond.notify_all();
    Thread.join();
  }

private:
  void run() {
    std::unique_lock<std::mutex> Lock(Mutex);
    for (;;) {
      if (Cond.wait_for(Lock,
                        std::chrono::duration<double>(
                            HeartbeatIntervalSeconds),
                        [this] { return Stop; }))
        return;
      Lock.unlock();
      (void)Sender.send(FrameType::Heartbeat, {});
      Lock.lock();
    }
  }

  FrameSender &Sender;
  std::thread Thread;
  std::mutex Mutex;
  std::condition_variable Cond;
  bool Stop = false;
};

} // namespace

SessionResult shard::serveSession(int InFd, FrameSender &Sender,
                                  Program &Prog, const InferOptions &Opts,
                                  uint8_t CollectLevel,
                                  const SessionLimits &Limits) {
  SessionResult R;
  // The coordinator's collection level is a floor, not an override: a
  // worker started with its own --trace-level (e.g. to debug one shard at
  // solver depth) keeps the deeper setting.
  if (CollectLevel > static_cast<uint8_t>(telemetry::traceLevel()))
    telemetry::setTraceLevel(static_cast<telemetry::TraceLevel>(CollectLevel));
  const bool ShipTelemetry = CollectLevel != 0;

  // Task service loop. The session is stateless across tasks; each Task
  // frame carries its own snapshot, so a fresh session picking up a
  // re-dispatched shard starts from identical inputs.
  for (;;) {
    Expected<Frame> F =
        readFrame(InFd, Limits.IdleTimeoutSeconds, Limits.MaxFrameBytes);
    if (!F) {
      // EOF = peer gone (or shutting down without ceremony) and an idle
      // timeout is a session that earned its keep; a malformed frame from
      // the peer is unrecoverable — its stream can no longer be trusted.
      R.Clean = F.status().code() == ErrorCode::WorkerLost ||
                F.status().code() == ErrorCode::DeadlineExceeded;
      return R;
    }
    switch (F->Type) {
    case FrameType::Shutdown:
      return R;
    case FrameType::Task: {
      std::vector<unsigned> DeclIndices;
      std::string Snapshot;
      TaskMeta Meta;
      if (Status S = decodeTask(F->Payload, DeclIndices, Snapshot, &Meta);
          !S) {
        if (!Sender.send(FrameType::Error, S.str())) {
          R.Clean = false;
          return R;
        }
        break;
      }
      telemetry::MetricsSnapshot Before;
      size_t EventMark = 0;
      if (ShipTelemetry) {
        Before = telemetry::captureMetrics();
        EventMark = telemetry::threadEventMark();
      }
      int64_t TaskStartUs = telemetry::nowUs();
      Expected<std::vector<summaryio::ShardMethodOutcome>> Outcomes = [&] {
        HeartbeatPulse Pulse(Sender);
        // Scoped so the task span is closed — and therefore collectable —
        // before telemetry is drained below.
        telemetry::Span TaskSpan("shard.task", telemetry::TraceLevel::Phase,
                                 "shard");
        if (TaskSpan.active()) {
          TaskSpan.arg("wave", Meta.Wave);
          TaskSpan.arg("methods", static_cast<uint64_t>(DeclIndices.size()));
        }
        return runShardMethods(Prog, DeclIndices, Snapshot, Opts);
      }();
      if (ShipTelemetry) {
        // Best-effort by contract: a failed Telemetry write is discovered
        // (and classified) by the Result write that follows.
        TelemetryBlob Blob;
        Blob.Pid = static_cast<uint32_t>(::getpid());
        Blob.Wave = Meta.Wave;
        Blob.ParentFlowId = Meta.ParentFlowId;
        Blob.TaskStartUs = TaskStartUs;
        Blob.Events = telemetry::collectThreadEventsSince(EventMark);
        Blob.Metrics =
            telemetry::diffMetrics(Before, telemetry::captureMetrics());
        (void)Sender.send(FrameType::Telemetry, encodeTelemetry(Blob));
      }
      Status Sent =
          Outcomes ? Sender.send(FrameType::Result,
                                 summaryio::encodeOutcomes(*Outcomes))
                   : Sender.send(FrameType::Error, Outcomes.status().str());
      if (!Sent) {
        R.Clean = false;
        return R;
      }
      ++R.TasksServed;
      break;
    }
    default:
      // Heartbeats flow worker -> coordinator only; anything else here is
      // a protocol bug worth reporting but not dying over.
      if (!Sender.send(FrameType::Error,
                       std::string("unexpected frame type ") +
                           frameTypeName(F->Type))) {
        R.Clean = false;
        return R;
      }
      break;
    }
  }
}

std::shared_ptr<ResidentProgram> ProgramCache::lookup(uint64_t Digest) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &[D, Entry] : Entries)
    if (D == Digest) {
      ++Hits;
      return Entry;
    }
  ++Misses;
  return nullptr;
}

void ProgramCache::store(uint64_t Digest,
                         std::shared_ptr<ResidentProgram> Entry) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &[D, E] : Entries)
    if (D == Digest) {
      E = std::move(Entry); // A concurrent miss raced us; either wins.
      return;
    }
  if (Entries.size() >= Capacity && !Entries.empty())
    Entries.erase(Entries.begin()); // FIFO: evict the oldest.
  Entries.emplace_back(Digest, std::move(Entry));
}

unsigned ProgramCache::hits() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Hits;
}

unsigned ProgramCache::misses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Misses;
}

SessionResult shard::serveConnection(int Fd, ProgramCache *Cache,
                                     const SessionLimits &Limits) {
  FrameSender Sender(Fd);
  auto Reject = [&](const std::string &Why) {
    if (!Why.empty())
      (void)Sender.send(FrameType::Error, Why);
    ::shutdown(Fd, SHUT_RDWR);
    SessionResult R;
    R.Clean = false;
    R.Rejected = true;
    return R;
  };

  // Handshake. A frame with the wrong protocol version fails the decoder
  // right here; the Error frame names the rejection for the peer.
  Expected<Frame> F = readFrame(Fd, Limits.IdleTimeoutSeconds,
                                Limits.MaxFrameBytes);
  if (!F)
    return Reject(F.status().code() == ErrorCode::InvalidArgument
                      ? F.status().str()
                      : std::string());
  if (F->Type != FrameType::InitDigest)
    return Reject(std::string("expected init-digest frame, got ") +
                  frameTypeName(F->Type));
  uint64_t Digest = 0;
  if (Status D = decodeInitDigest(F->Payload, Digest); !D)
    return Reject(D.str());
  std::shared_ptr<ResidentProgram> Entry =
      Cache ? Cache->lookup(Digest) : nullptr;

  if (!Entry) {
    // Miss: ask for the full Init, decode, parse, and (for a daemon) make
    // the program resident under the digest of the exact bytes received
    // — the coordinator computed its digest over the same bytes, so a
    // later hit means an identical program.
    if (!Sender.send(FrameType::InitNeeded, {}))
      return Reject(std::string());
    F = readFrame(Fd, Limits.IdleTimeoutSeconds, Limits.MaxFrameBytes);
    if (!F)
      return Reject(std::string());
    if (F->Type != FrameType::Init)
      return Reject(std::string("expected init frame, got ") +
                    frameTypeName(F->Type));
    auto Fresh = std::make_shared<ResidentProgram>();
    std::string Source;
    if (Status D =
            decodeInit(F->Payload, Source, Fresh->Opts, &Fresh->CollectLevel);
        !D)
      return Reject(D.str());
    DiagnosticEngine Diags;
    Fresh->Prog = parseAndAnalyze(Source, Diags);
    if (!Fresh->Prog)
      return Reject("worker cannot parse program: " + Diags.str());
    if (Cache)
      Cache->store(initDigest(F->Payload), Fresh);
    Entry = std::move(Fresh);
  }

  if (!Sender.send(FrameType::InitAck, {}))
    return Reject(std::string());
  return serveSession(Fd, Sender, *Entry->Prog, Entry->Opts,
                      Entry->CollectLevel, Limits);
}

int shard::runWorkerLoop() {
  subprocess::ignoreSigpipe();
  // stdin and stdout are the same socket; the session reads and writes
  // it through fd 0.
  return serveConnection(STDIN_FILENO, /*Cache=*/nullptr).Clean ? 0 : 1;
}
