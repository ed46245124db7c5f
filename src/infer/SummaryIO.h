//===- SummaryIO.h - Versioned codec for summaries ---------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary forms of the summary store. Two blob kinds share one
/// envelope:
///
///  - a *snapshot* freezes the evidence state of the whole summary store
///    (per target: own-body odds and per-call-site odds, keyed by
///    declaration index; doubles as bit-cast u64). Equal stores encode
///    to equal bytes, so the phase-2 limit-cycle detector digests it
///    (hashSnapshot) and tests compare it.
///
///  - a *cache entry* is one memoized SOLVE of the incremental summary
///    cache (src/cache/), with every method named by qualified name.
///
/// Envelope: magic, version, kind, payload length, FNV-1a checksum, then
/// the payload. Decoding is defensive end to end: truncated headers,
/// wrong versions, oversized declared lengths and checksum mismatches
/// all come back as Status errors, so a corrupt file on disk is a cache
/// miss, never a crash or a short read.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_INFER_SUMMARYIO_H
#define ANEK_INFER_SUMMARYIO_H

#include "factor/Solvers.h"
#include "infer/SolveCache.h"
#include "infer/Summary.h"
#include "lang/Ast.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace anek {

class HashStream;

namespace summaryio {

/// Bump on any layout change; decoders reject every other version. The
/// summary cache's environment digest also hashes it, so a bump is also
/// how a change to what a SOLVE computes invalidates entries already on
/// disk.
constexpr uint32_t WireVersion = 2;

/// What a sealed blob carries. The kind is part of the envelope so one
/// kind can never be mistaken for another. Values are on disk: never
/// reuse a retired one (2 carried multi-process wave outcomes).
enum class BlobKind : uint32_t {
  Snapshot = 1,
  /// One memoized SOLVE result of the incremental summary cache
  /// (src/cache/): a key echo plus a CachedSolve body.
  CacheEntry = 3,
};

/// Hard cap on a payload's declared length. A corrupt length field must
/// bound allocation, not drive it.
constexpr uint64_t MaxBlobBytes = uint64_t(1) << 30;

/// Wraps \p Payload in the versioned, checksummed envelope.
std::string sealBlob(BlobKind Kind, std::string Payload);

/// Validates the envelope and returns the payload. Errors (all
/// ErrorCode::InvalidArgument except the oversize case, which is
/// ResourceExhausted): truncated header, bad magic, wrong version,
/// unexpected kind, declared length over MaxBlobBytes or disagreeing
/// with the actual size, checksum mismatch.
Expected<std::string> openBlob(std::string_view Blob, BlobKind ExpectKind);

/// Which interface target of a method summary an update addresses.
enum class SummaryTargetRole : uint8_t {
  RecvPre = 0,
  RecvPost,
  ParamPre,
  ParamPost,
  Result,
};

/// Serializes the evidence state of \p Summaries (sealed Snapshot blob).
/// Iteration is declaration-index order (MethodDeclMap) and each target
/// keeps its sites in CallSiteOrder, so equal stores encode to equal bytes.
std::string encodeSnapshot(const MethodDeclMap<MethodSummary> &Summaries);

/// Folds the payload encodeSnapshot would serialize into \p H without
/// building the blob: equal stores hash equal, and any bit of evidence
/// that differs changes the digest (up to 64-bit collisions).
void hashSnapshot(HashStream &H, const MethodDeclMap<MethodSummary> &Summaries);

/// Serializes one memoized SOLVE result (sealed CacheEntry blob). \p Key
/// — the content key the entry is filed under — is echoed into the
/// payload so a blob renamed or cross-linked on disk cannot replay as a
/// different entry.
std::string encodeCacheEntry(uint64_t Key, const CachedSolve &Entry);

/// Decodes a cache-entry blob, requiring its echoed key to equal
/// \p ExpectKey. Structural validation only (envelope, bounds, key echo);
/// semantic validation against the current program happens in the
/// engine's replay step. Callers classify any error as a corrupt cache
/// entry — a miss, never a failure of the run.
Expected<CachedSolve> decodeCacheEntry(std::string_view Blob,
                                       uint64_t ExpectKey);

} // namespace summaryio
} // namespace anek

#endif // ANEK_INFER_SUMMARYIO_H
