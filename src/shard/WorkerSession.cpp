//===- WorkerSession.cpp - One worker session, coordinator side -----------===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#include "shard/WorkerSession.h"

#include "support/FaultInject.h"
#include "support/Socket.h"

#include <csignal>
#include <fcntl.h>
#include <unistd.h>

using namespace anek;
using namespace anek::shard;

WorkerSession::WorkerSession(std::string InitPayload,
                             double OpenTimeoutSeconds,
                             uint64_t MaxFrameBytes, std::string FaultScope)
    : InitPayload(std::move(InitPayload)),
      OpenTimeoutSeconds(OpenTimeoutSeconds), MaxFrameBytes(MaxFrameBytes),
      FaultScope(std::move(FaultScope)) {}

Status WorkerSession::open(const std::string &Endpoint,
                           const std::vector<std::string> &WorkerArgv) {
  close();
  Remote = !Endpoint.empty();
  Peer = Remote ? "'" + Endpoint + "'" : std::string("the local worker");
  // The refusal control point fires before the connect or spawn ever
  // happens — indistinguishable from a daemon that is not there.
  if (faults::anyActive() &&
      faults::consumeFire(FaultKind::NetRefuse, FaultScope))
    return Status::error(ErrorCode::WorkerLost,
                         "cannot open a session with " + Peer +
                             ": refused (injected)");
  if (Remote) {
    Expected<int> Conn = sock::connectTo(Endpoint, OpenTimeoutSeconds);
    if (!Conn)
      return Conn.status();
    Fd = *Conn;
  } else {
    if (Status Sp = Child.spawn(WorkerArgv); !Sp)
      return Sp;
    Fd = Child.fd();
  }
  ReadFd = Fd;
  if (Status Hs = handshake(); !Hs) {
    close();
    return Hs;
  }
  return Status::ok();
}

Status WorkerSession::handshake() {
  // The version-skew control point: stamp the InitDigest frame with a
  // version one past ours — exactly the bytes a mismatched binary would
  // send — and let the worker's decoder reject the session for real.
  uint16_t Version = ProtocolVersion;
  if (faults::anyActive() &&
      faults::consumeFire(FaultKind::NetHandshakeSkew, FaultScope))
    Version = ProtocolVersion + 1;
  const std::string DigestFrame = encodeFrame(
      FrameType::InitDigest, encodeInitDigest(initDigest(InitPayload)),
      Version);
  if (Status S = subprocess::writeFull(Fd, DigestFrame.data(),
                                       DigestFrame.size());
      !S)
    return S;
  Expected<Frame> Reply = readFrame(Fd, OpenTimeoutSeconds, MaxFrameBytes);
  if (!Reply)
    return Reply.status().code() == ErrorCode::WorkerLost
               ? Status::error(ErrorCode::WorkerLost,
                               Peer + " closed the handshake (version "
                                      "skew, shutdown or crash): " +
                                   Reply.status().message())
               : Reply.status();
  if (Reply->Type == FrameType::InitNeeded) {
    if (Status S = writeFrame(Fd, FrameType::Init, InitPayload); !S)
      return S;
    Reply = readFrame(Fd, OpenTimeoutSeconds, MaxFrameBytes);
    if (!Reply)
      return Reply.status();
  }
  if (Reply->Type == FrameType::Error)
    return Status::error(ErrorCode::WorkerLost,
                         Peer + " rejected the session: " + Reply->Payload);
  if (Reply->Type != FrameType::InitAck)
    return Status::error(ErrorCode::WorkerLost,
                         std::string("unexpected handshake frame ") +
                             frameTypeName(Reply->Type));
  return Status::ok();
}

bool WorkerSession::healthy() { return Fd >= 0 && !Child.poll(); }

Status WorkerSession::send(FrameType Type, std::string_view Payload) {
  if (Fd < 0)
    return Status::error(ErrorCode::WorkerLost, "worker session closed");
  // The torn-connection control point: write the frame header plus half
  // the payload, then hard-reset. The worker sees a mid-frame reset (or
  // EOF on a socketpair); we report the loss its kernel would report.
  if (faults::anyActive() &&
      faults::consumeFire(FaultKind::NetResetMidframe, FaultScope)) {
    const std::string Bytes = encodeFrame(Type, Payload);
    const size_t Half =
        FrameHeaderBytes + (Bytes.size() - FrameHeaderBytes) / 2;
    (void)subprocess::writeFull(Fd, Bytes.data(), Half);
    closeStream(/*Reset=*/true);
    return Status::error(ErrorCode::WorkerLost,
                         "session with " + Peer +
                             " reset mid-frame (injected)");
  }
  return writeFrame(Fd, Type, Payload);
}

Expected<Frame> WorkerSession::recv(double TimeoutSeconds) {
  if (ReadFd < 0)
    return Status::error(ErrorCode::WorkerLost, "worker session closed");
  // The stall control point: from here on this session's reads see pure
  // silence (the worker's frames land in a socket buffer nobody reads),
  // so the caller's heartbeat deadline must trip — the same observable
  // behavior as a network path that silently stopped delivering.
  if (faults::anyActive() &&
      faults::consumeFire(FaultKind::NetStall, FaultScope))
    blackholeReads();
  return readFrame(ReadFd, TimeoutSeconds, MaxFrameBytes);
}

void WorkerSession::blackholeReads() {
  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC) != 0)
    return; // Out of fds: the stall simply does not happen.
  if (ReadFd != Fd && ReadFd >= 0)
    ::close(ReadFd);
  if (BlackholeWriteFd >= 0)
    ::close(BlackholeWriteFd);
  ReadFd = Pipe[0];
  BlackholeWriteFd = Pipe[1]; // Held open so the read end never sees EOF.
}

void WorkerSession::closeStream(bool Reset) {
  if (ReadFd >= 0 && ReadFd != Fd)
    ::close(ReadFd);
  if (BlackholeWriteFd >= 0)
    ::close(BlackholeWriteFd);
  if (Child.running())
    Child.closeFd(); // ChildProcess owns our end of the pair.
  else if (Fd >= 0 && Reset)
    sock::resetClose(Fd);
  else if (Fd >= 0)
    ::close(Fd);
  Fd = ReadFd = BlackholeWriteFd = -1;
}

void WorkerSession::close() {
  closeStream(/*Reset=*/false);
  // Move-assigning a fresh ChildProcess SIGKILLs and reaps the child.
  Child = subprocess::ChildProcess();
}

void WorkerSession::injectCrash() {
  // A remote session dies by RST: the daemon survives, and every later
  // operation on the session fails the way a crashed daemon's would.
  if (Child.running())
    Child.kill(SIGKILL);
  else
    closeStream(/*Reset=*/true);
}

void WorkerSession::injectHang() { blackholeReads(); }
