//===- Transport.cpp - The coordinator's worker-transport seam --------------===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#include "shard/Transport.h"

#include "support/FaultInject.h"
#include "support/Socket.h"

#include <csignal>
#include <unistd.h>

using namespace anek;
using namespace anek::shard;

// --- PipeTransport -------------------------------------------------------

PipeTransport::PipeTransport(std::vector<std::string> Argv,
                             std::string InitPayload,
                             uint64_t MaxFrameBytes)
    : Argv(std::move(Argv)), InitPayload(std::move(InitPayload)),
      MaxFrameBytes(MaxFrameBytes) {}

Status PipeTransport::open() {
  close();
  if (Status Sp = Child.spawn(Argv); !Sp)
    return Sp;
  if (Status Init = writeFrame(Child.writeFd(), FrameType::Init, InitPayload);
      !Init) {
    close();
    return Init;
  }
  Ready = true;
  return Status::ok();
}

bool PipeTransport::healthy() {
  return Ready && Child.running() && !Child.poll();
}

Status PipeTransport::send(FrameType Type, std::string_view Payload) {
  return writeFrame(Child.writeFd(), Type, Payload);
}

Expected<Frame> PipeTransport::recv(double TimeoutSeconds) {
  return readFrame(Child.readFd(), TimeoutSeconds, MaxFrameBytes);
}

void PipeTransport::close() {
  // Move-assigning a fresh ChildProcess SIGKILLs, reaps and closes pipes;
  // SIGKILL terminates even a SIGSTOPped worker, so a hung child cannot
  // wedge the reap.
  Child = subprocess::ChildProcess();
  Ready = false;
}

void PipeTransport::injectCrash() { Child.kill(SIGKILL); }

void PipeTransport::injectHang() { Child.kill(SIGSTOP); }

// --- SocketTransport -----------------------------------------------------

SocketTransport::SocketTransport(std::string Address,
                                 std::string InitPayload,
                                 double ConnectTimeoutSeconds,
                                 uint64_t MaxFrameBytes,
                                 std::string FaultScope)
    : Address(std::move(Address)), InitPayload(std::move(InitPayload)),
      ConnectTimeoutSeconds(ConnectTimeoutSeconds),
      MaxFrameBytes(MaxFrameBytes), FaultScope(std::move(FaultScope)) {}

Status SocketTransport::handshake() {
  // The version-skew control point: stamp the InitDigest frame with a
  // version one past ours — exactly the bytes a mismatched binary would
  // send — and let the daemon's decoder reject the session for real.
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
  Expected<Frame> Reply = readFrame(Fd, ConnectTimeoutSeconds, MaxFrameBytes);
  if (!Reply)
    return Reply.status().code() == ErrorCode::WorkerLost
               ? Status::error(ErrorCode::WorkerLost,
                               "daemon at '" + Address +
                                   "' closed the handshake (version skew or "
                                   "shutdown): " + Reply.status().message())
               : Reply.status();
  if (Reply->Type == FrameType::InitNeeded) {
    if (Status S = writeFrame(Fd, FrameType::Init, InitPayload); !S)
      return S;
    Reply = readFrame(Fd, ConnectTimeoutSeconds, MaxFrameBytes);
    if (!Reply)
      return Reply.status();
  }
  if (Reply->Type == FrameType::Error)
    return Status::error(ErrorCode::WorkerLost,
                         "daemon at '" + Address +
                             "' rejected the session: " + Reply->Payload);
  if (Reply->Type != FrameType::InitAck)
    return Status::error(ErrorCode::WorkerLost,
                         std::string("unexpected handshake frame ") +
                             frameTypeName(Reply->Type));
  return Status::ok();
}

Status SocketTransport::open() {
  close();
  // The refusal control point fires before the connect ever happens —
  // indistinguishable from a daemon that is not there.
  if (faults::anyActive() &&
      faults::consumeFire(FaultKind::NetRefuse, FaultScope))
    return Status::error(ErrorCode::WorkerLost,
                         "cannot connect to '" + Address +
                             "': connection refused (injected)");
  Expected<int> Conn = sock::connectTo(Address, ConnectTimeoutSeconds);
  if (!Conn)
    return Conn.status();
  Fd = *Conn;
  ReadFd = Fd;
  if (Status Hs = handshake(); !Hs) {
    close();
    return Hs;
  }
  Ready = true;
  return Status::ok();
}

bool SocketTransport::healthy() { return Ready && Fd >= 0; }

Status SocketTransport::send(FrameType Type, std::string_view Payload) {
  if (Fd < 0)
    return Status::error(ErrorCode::WorkerLost, "socket session closed");
  // The torn-connection control point: write the frame header plus half
  // the payload, then hard-reset. The daemon sees a mid-frame RST; we
  // report the loss the peer's kernel would have reported to us.
  if (faults::anyActive() &&
      faults::consumeFire(FaultKind::NetResetMidframe, FaultScope)) {
    const std::string Bytes = encodeFrame(Type, Payload);
    const size_t Half = FrameHeaderBytes + (Bytes.size() - FrameHeaderBytes) / 2;
    (void)subprocess::writeFull(Fd, Bytes.data(), Half);
    sock::resetClose(Fd);
    if (ReadFd != Fd && ReadFd >= 0)
      ::close(ReadFd);
    if (BlackholeWriteFd >= 0)
      ::close(BlackholeWriteFd);
    Fd = ReadFd = BlackholeWriteFd = -1;
    Ready = false;
    return Status::error(ErrorCode::WorkerLost,
                         "connection to '" + Address +
                             "' reset mid-frame (injected)");
  }
  return writeFrame(Fd, Type, Payload);
}

Expected<Frame> SocketTransport::recv(double TimeoutSeconds) {
  if (ReadFd < 0)
    return Status::error(ErrorCode::WorkerLost, "socket session closed");
  // The stall control point: from here on this session's reads see pure
  // silence (the daemon's frames land in a socket buffer nobody reads),
  // so the caller's heartbeat deadline must trip — the same observable
  // behavior as a network path that silently stopped delivering.
  if (faults::anyActive() &&
      faults::consumeFire(FaultKind::NetStall, FaultScope))
    blackholeReads();
  return readFrame(ReadFd, TimeoutSeconds, MaxFrameBytes);
}

void SocketTransport::blackholeReads() {
  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return; // Out of fds: the stall simply does not happen.
  if (ReadFd != Fd && ReadFd >= 0)
    ::close(ReadFd);
  if (BlackholeWriteFd >= 0)
    ::close(BlackholeWriteFd);
  ReadFd = Pipe[0];
  BlackholeWriteFd = Pipe[1]; // Held open so the read end never sees EOF.
}

void SocketTransport::close() {
  if (ReadFd >= 0 && ReadFd != Fd)
    ::close(ReadFd);
  if (BlackholeWriteFd >= 0)
    ::close(BlackholeWriteFd);
  if (Fd >= 0)
    ::close(Fd);
  Fd = ReadFd = BlackholeWriteFd = -1;
  Ready = false;
}

void SocketTransport::injectCrash() {
  // The socket analogue of SIGKILL: a hard RST, after which every
  // operation on the session fails the way a crashed daemon would.
  if (Fd >= 0) {
    sock::resetClose(Fd);
    if (ReadFd != Fd && ReadFd >= 0)
      ::close(ReadFd);
    if (BlackholeWriteFd >= 0)
      ::close(BlackholeWriteFd);
    Fd = ReadFd = BlackholeWriteFd = -1;
  }
  Ready = false;
}

void SocketTransport::injectHang() { blackholeReads(); }
