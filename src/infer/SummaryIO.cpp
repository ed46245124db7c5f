//===- SummaryIO.cpp - Versioned wire codec for summaries ------------------===//

#include "infer/SummaryIO.h"

#include "support/Hash.h"
#include "support/WireFormat.h"

using namespace anek;
using namespace anek::summaryio;

namespace anek {

// The codec's window into TargetSummary (friend; see Summary.h).
struct SummaryWireAccess {
  static const std::vector<double> &selfOdds(const TargetSummary &T) {
    return T.SelfOdds;
  }
  /// Sites in CallSiteOrder; site S owns siteOdds()[S * size(), ...).
  static const std::vector<CallSiteKey> &siteKeys(const TargetSummary &T) {
    return T.SiteKeys;
  }
  static const std::vector<double> &siteOdds(const TargetSummary &T) {
    return T.SiteOdds;
  }
};

} // namespace anek

namespace {

/// "ANEKSUM1" as a little-endian u64.
constexpr uint64_t BlobMagic = 0x314D55534B454E41ULL;
/// magic(8) + version(4) + kind(4) + length(8) + checksum(8).
constexpr size_t HeaderBytes = 32;

Status corrupt(const std::string &What) {
  return Status::error(ErrorCode::InvalidArgument,
                       "summary blob rejected: " + What);
}

//===----------------------------------------------------------------------===//
// Snapshot payload
//===----------------------------------------------------------------------===//

/// Writes one target's evidence to \p W: a wire::Writer when encoding, a
/// HashStream when digesting (both take the same u8/u32/f64 calls).
template <typename Sink>
void writeTarget(Sink &W, const std::optional<TargetSummary> &Target) {
  W.u8(Target.has_value() ? 1 : 0);
  if (!Target)
    return;
  W.u32(static_cast<uint32_t>(Target->size()));
  const std::vector<double> &Self = SummaryWireAccess::selfOdds(*Target);
  W.u32(static_cast<uint32_t>(Self.size()));
  for (double O : Self)
    W.f64(O);
  const std::vector<CallSiteKey> &Sites = SummaryWireAccess::siteKeys(*Target);
  const double *Odds = SummaryWireAccess::siteOdds(*Target).data();
  W.u32(static_cast<uint32_t>(Sites.size()));
  for (const CallSiteKey &Site : Sites) {
    W.u32(Site.first ? Site.first->DeclIndex : 0);
    W.u32(Site.second);
    for (size_t I = 0; I != Target->size(); ++I)
      W.f64(*Odds++);
  }
}

//===----------------------------------------------------------------------===//
// Cache-entry payload
//===----------------------------------------------------------------------===//

void encodeSolveReport(wire::Writer &W, const SolveReport &Solve) {
  W.u8(Solve.Converged ? 1 : 0);
  W.f64(Solve.Residual);
  W.u64(Solve.Iterations);
  W.f64(Solve.Seconds);
  W.u8(Solve.DeadlineExpired ? 1 : 0);
  W.u64(Solve.Updates);
  W.str(Solve.Reason);
}

bool decodeSolveReport(wire::Reader &R, SolveReport &Solve) {
  uint8_t Converged = 0, DeadlineExpired = 0;
  uint64_t Iterations = 0;
  bool Ok = R.u8(Converged) && R.f64(Solve.Residual) && R.u64(Iterations) &&
            R.f64(Solve.Seconds) && R.u8(DeadlineExpired) &&
            R.u64(Solve.Updates) && R.str(Solve.Reason);
  Solve.Converged = Converged != 0;
  Solve.DeadlineExpired = DeadlineExpired != 0;
  Solve.Iterations = static_cast<unsigned>(Iterations);
  return Ok;
}

} // namespace

//===----------------------------------------------------------------------===//
// Envelope
//===----------------------------------------------------------------------===//

std::string summaryio::sealBlob(BlobKind Kind, std::string Payload) {
  wire::Writer W;
  W.u64(BlobMagic);
  W.u32(WireVersion);
  W.u32(static_cast<uint32_t>(Kind));
  W.u64(Payload.size());
  W.u64(wire::fnv1a64(Payload));
  std::string Blob = W.take();
  Blob += Payload;
  return Blob;
}

Expected<std::string> summaryio::openBlob(std::string_view Blob,
                                          BlobKind ExpectKind) {
  if (Blob.size() < HeaderBytes)
    return corrupt("truncated header (" + std::to_string(Blob.size()) +
                   " of " + std::to_string(HeaderBytes) + " bytes)");
  wire::Reader R(Blob.substr(0, HeaderBytes));
  uint64_t Magic = 0, Length = 0, Checksum = 0;
  uint32_t Version = 0, Kind = 0;
  R.u64(Magic);
  R.u32(Version);
  R.u32(Kind);
  R.u64(Length);
  R.u64(Checksum);
  if (Magic != BlobMagic)
    return corrupt("bad magic");
  if (Version != WireVersion)
    return corrupt("unsupported wire version " + std::to_string(Version) +
                   " (this build speaks version " +
                   std::to_string(WireVersion) + ")");
  if (Kind != static_cast<uint32_t>(ExpectKind))
    return corrupt("unexpected blob kind " + std::to_string(Kind) +
                   " (want " +
                   std::to_string(static_cast<uint32_t>(ExpectKind)) + ")");
  if (Length > MaxBlobBytes)
    return Status::error(ErrorCode::ResourceExhausted,
                         "summary blob rejected: declared payload of " +
                             std::to_string(Length) + " bytes exceeds the " +
                             std::to_string(MaxBlobBytes) + "-byte cap");
  if (Length != Blob.size() - HeaderBytes)
    return corrupt("payload length mismatch (header declares " +
                   std::to_string(Length) + " bytes, " +
                   std::to_string(Blob.size() - HeaderBytes) + " present)");
  std::string_view Payload = Blob.substr(HeaderBytes);
  if (wire::fnv1a64(Payload) != Checksum)
    return corrupt("checksum mismatch (payload corrupted in flight)");
  return std::string(Payload);
}

//===----------------------------------------------------------------------===//
// Snapshot
//===----------------------------------------------------------------------===//

namespace {

/// The snapshot payload, written to a wire::Writer or a HashStream.
template <typename Sink>
void writeSnapshot(Sink &W, const MethodDeclMap<MethodSummary> &Summaries) {
  W.u32(static_cast<uint32_t>(Summaries.size()));
  for (const auto &[Method, Summary] : Summaries) {
    W.u32(Method->DeclIndex);
    writeTarget(W, Summary.RecvPre);
    writeTarget(W, Summary.RecvPost);
    W.u32(static_cast<uint32_t>(Summary.ParamPre.size()));
    for (const auto &Target : Summary.ParamPre)
      writeTarget(W, Target);
    W.u32(static_cast<uint32_t>(Summary.ParamPost.size()));
    for (const auto &Target : Summary.ParamPost)
      writeTarget(W, Target);
    writeTarget(W, Summary.Result);
  }
}

} // namespace

std::string
summaryio::encodeSnapshot(const MethodDeclMap<MethodSummary> &Summaries) {
  wire::Writer W;
  writeSnapshot(W, Summaries);
  return sealBlob(BlobKind::Snapshot, W.take());
}

void summaryio::hashSnapshot(HashStream &H,
                             const MethodDeclMap<MethodSummary> &Summaries) {
  writeSnapshot(H, Summaries);
}

//===----------------------------------------------------------------------===//
// Cache entries
//===----------------------------------------------------------------------===//

std::string summaryio::encodeCacheEntry(uint64_t Key,
                                        const CachedSolve &Entry) {
  wire::Writer W;
  W.u64(Key);
  W.u8(Entry.SolverUsed);
  W.u8(Entry.FallbackUsed ? 1 : 0);
  W.str(Entry.Reason);
  encodeSolveReport(W, Entry.Solve);
  W.u32(Entry.Solves);
  W.u64(Entry.Variables);
  W.u64(Entry.Factors);
  W.f64(Entry.SolveSeconds);
  W.u32(static_cast<uint32_t>(Entry.Updates.size()));
  for (const CachedUpdate &U : Entry.Updates) {
    W.str(U.OwnerName);
    W.u8(U.Role);
    W.u32(U.ParamIndex);
    W.u8(U.IsSelf ? 1 : 0);
    W.str(U.SiteCallerName);
    W.u32(U.SiteIndex);
    W.u32(static_cast<uint32_t>(U.Odds.size()));
    for (double O : U.Odds)
      W.f64(O);
    W.str(U.DebugLine);
  }
  return sealBlob(BlobKind::CacheEntry, W.take());
}

Expected<CachedSolve> summaryio::decodeCacheEntry(std::string_view Blob,
                                                  uint64_t ExpectKey) {
  Expected<std::string> Payload = openBlob(Blob, BlobKind::CacheEntry);
  if (!Payload)
    return Payload.status();
  wire::Reader R(*Payload);
  uint64_t Key = 0;
  if (!R.u64(Key))
    return corrupt("truncated cache key");
  if (Key != ExpectKey)
    return corrupt("cache key echo mismatch (entry filed under a "
                   "different content key)");
  CachedSolve Entry;
  uint8_t FallbackUsed = 0;
  if (!(R.u8(Entry.SolverUsed) && R.u8(FallbackUsed) && R.str(Entry.Reason)))
    return corrupt("truncated cache entry header");
  Entry.FallbackUsed = FallbackUsed != 0;
  if (!decodeSolveReport(R, Entry.Solve))
    return corrupt("truncated cached solve report");
  if (!(R.u32(Entry.Solves) && R.u64(Entry.Variables) &&
        R.u64(Entry.Factors) && R.f64(Entry.SolveSeconds)))
    return corrupt("truncated cache entry statistics");
  uint32_t UpdateCount = 0;
  if (!R.count(UpdateCount, 16))
    return corrupt("truncated cached update count");
  Entry.Updates.resize(UpdateCount);
  for (CachedUpdate &U : Entry.Updates) {
    uint8_t IsSelf = 0;
    if (!(R.str(U.OwnerName) && R.u8(U.Role) && R.u32(U.ParamIndex) &&
          R.u8(IsSelf) && R.str(U.SiteCallerName) && R.u32(U.SiteIndex)))
      return corrupt("truncated cached update");
    if (U.Role > static_cast<uint8_t>(SummaryTargetRole::Result))
      return corrupt("cached update role out of range");
    U.IsSelf = IsSelf != 0;
    uint32_t OddsCount = 0;
    if (!R.count(OddsCount, 8))
      return corrupt("truncated cached odds count");
    U.Odds.resize(OddsCount);
    for (double &O : U.Odds)
      if (!R.f64(O))
        return corrupt("truncated cached odds");
    if (!R.str(U.DebugLine))
      return corrupt("truncated cached debug line");
  }
  if (!R.done())
    return corrupt("trailing bytes after the last cached update");
  return Entry;
}
