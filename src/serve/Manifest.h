//===- Manifest.h - Batch request manifest parsing ---------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the line-oriented manifest `anek batch` consumes. One request
/// per line:
///
///   <input> [key=value]...
///
/// where `<input>` is an .mjava path or `example:NAME` (NAME one of
/// spreadsheet, file, field — the same set `anek infer --example` takes),
/// and the recognized keys are
///
///   id=<string>       stable request id (default "req<line-index>")
///   jobs=<N>          wave-job parallelism override
///   deadline=<secs>   per-request wall-clock deadline (0 = unlimited)
///   mem=<bytes>       peak-memory budget; k/m/g suffixes accepted
///   fault=<spec>      fault spec activated for the batch run
///
/// Blank lines and lines starting with '#' are skipped. Malformed lines
/// produce an InvalidArgument status naming the line number.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SERVE_MANIFEST_H
#define ANEK_SERVE_MANIFEST_H

#include "serve/Serve.h"
#include "support/Status.h"

#include <string>
#include <vector>

namespace anek {
namespace serve {

/// Parses \p Text (full manifest contents) into requests. On error the
/// partial vector is discarded.
Expected<std::vector<BatchRequest>> parseManifest(const std::string &Text);

/// Resolves \p R's input to source text: inline Source wins, then the
/// `example:` prefix, then a file read. Returns false (with a message on
/// \p Error) when the example name is unknown or the file cannot be read.
bool loadRequestSource(const BatchRequest &R, std::string &Out,
                       std::string &Error);

} // namespace serve
} // namespace anek

#endif // ANEK_SERVE_MANIFEST_H
