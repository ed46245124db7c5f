//===- Status.h - Structured error propagation -------------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured errors for the inference pipeline. Library code on
/// user-reachable paths must not abort: it returns a Status (or an
/// Expected<T> when there is a payload) and lets the caller decide whether
/// the failure is fatal, recoverable, or a reason to fall back to a cheaper
/// algorithm. See DESIGN.md, "Failure model and degradation".
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SUPPORT_STATUS_H
#define ANEK_SUPPORT_STATUS_H

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace anek {

/// Machine-inspectable failure class. Message strings carry the detail;
/// the code is what callers branch on.
enum class ErrorCode {
  Ok = 0,
  /// A caller handed the library something malformed.
  InvalidArgument,
  /// A size/memory budget was exceeded (e.g. exact enumeration asked to
  /// enumerate more variables than its limit).
  ResourceExhausted,
  /// A wall-clock or iteration Deadline expired before completion.
  DeadlineExceeded,
  /// A constraint system admits no solution.
  Unsatisfiable,
  /// A fault-injection control point fired (tests only).
  FaultInjected,
  /// An invariant the library relies on failed; a bug, not bad input.
  Internal,
};

/// Renders the code as a short lowercase tag ("deadline-exceeded").
const char *errorCodeName(ErrorCode Code);

/// A success/failure value with an error code and human-readable message.
class Status {
public:
  /// Default-constructed Status is success.
  Status() = default;

  static Status ok() { return Status(); }
  static Status error(ErrorCode Code, std::string Message) {
    assert(Code != ErrorCode::Ok && "error status needs a non-ok code");
    Status S;
    S.Code = Code;
    S.Message = std::move(Message);
    return S;
  }

  bool isOk() const { return Code == ErrorCode::Ok; }
  explicit operator bool() const { return isOk(); }

  ErrorCode code() const { return Code; }
  const std::string &message() const { return Message; }

  /// Renders as "code: message" (or "ok").
  std::string str() const;

private:
  ErrorCode Code = ErrorCode::Ok;
  std::string Message;
};

/// A value-or-Status. Like llvm::Expected but unchecked: callers test
/// hasValue()/operator bool before dereferencing.
template <typename T> class Expected {
public:
  Expected(T Value) : Value(std::move(Value)) {} // NOLINT: implicit by design
  Expected(Status Err) : Err(std::move(Err)) {   // NOLINT: implicit by design
    assert(!this->Err.isOk() && "Expected error must carry a non-ok status");
  }

  bool hasValue() const { return Value.has_value(); }
  explicit operator bool() const { return hasValue(); }

  T &operator*() {
    assert(hasValue() && "dereferencing an errored Expected");
    return *Value;
  }
  const T &operator*() const {
    assert(hasValue() && "dereferencing an errored Expected");
    return *Value;
  }
  T *operator->() { return &**this; }
  const T *operator->() const { return &**this; }

  /// The failure; ok() when a value is present.
  const Status &status() const { return Err; }

  /// Moves the value out (valid only when hasValue()).
  T take() {
    assert(hasValue() && "taking from an errored Expected");
    return std::move(*Value);
  }

private:
  std::optional<T> Value;
  Status Err;
};

} // namespace anek

#endif // ANEK_SUPPORT_STATUS_H
