//===- StringUtils.h - Common string predicates and splitters ---*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#ifndef ANEK_SUPPORT_STRINGUTILS_H
#define ANEK_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <vector>

namespace anek {

/// Stable 64-bit FNV-1a hash of \p S: identical across runs, processes and
/// platforms (unlike std::hash), so it can seed per-method solvers
/// deterministically.
uint64_t stableHash64(const std::string &S);

/// Returns true if \p S starts with \p Prefix.
bool startsWith(const std::string &S, const std::string &Prefix);

/// Returns true if \p S ends with \p Suffix.
bool endsWith(const std::string &S, const std::string &Suffix);

/// Splits \p S on \p Sep, trimming surrounding whitespace from each piece.
/// Empty pieces are dropped.
std::vector<std::string> splitAndTrim(const std::string &S, char Sep);

/// Removes leading and trailing ASCII whitespace.
std::string trim(const std::string &S);

/// Joins \p Parts with \p Sep between elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Parses all of \p Text as a decimal count: digits only (no sign, space
/// or suffix), at most UINT_MAX. Leaves \p Out untouched on failure.
bool parseUnsigned(const std::string &Text, unsigned &Out);

/// Parses all of \p Text as a finite number (no leading space, trailing
/// characters, nan or inf, and nothing too large for a double). Leaves
/// \p Out untouched on failure.
bool parseFinite(const std::string &Text, double &Out);

} // namespace anek

#endif // ANEK_SUPPORT_STRINGUTILS_H
