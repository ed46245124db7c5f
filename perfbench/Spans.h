//===- Spans.h - The benchmark's own span recorder -------------*- C++ -*-===//
//
// Part of the ANEK benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around its calls into each layer's public
/// functions. A span has a name ("<layer>.<what>"), a start and end in
/// seconds since the log was created, a parent span and an operation id.
/// Spans are kept in memory and written out once, when the run ends.
///
/// The program's own telemetry (support/Trace.h) stays off in every run:
/// these spans time the layers from outside, so the program measured is
/// the one users run.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_PERFBENCH_SPANS_H
#define ANEK_PERFBENCH_SPANS_H

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Span {
  std::string Name;
  double Start = 0.0;
  /// Negative while the span is open.
  double End = -1.0;
  /// Index of the parent span in the log, or -1 for a root.
  int Parent = -1;
  /// Operation the span belongs to (a verdict, a batch or a request).
  unsigned Op = 0;
  std::thread::id Thread;
};

/// Thread-safe, append-only span store. A disabled log records nothing.
class SpanLog {
public:
  explicit SpanLog(bool Enabled)
      : Enabled(Enabled), Origin(std::chrono::steady_clock::now()) {}
  SpanLog(const SpanLog &) = delete;
  SpanLog &operator=(const SpanLog &) = delete;

  bool enabled() const { return Enabled; }

  /// Seconds since the log was created.
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Origin)
        .count();
  }

  /// Opens a span on the calling thread; returns its index, or -1 when
  /// the log is disabled.
  int open(const char *Name, int Parent, unsigned Op);
  void close(int Id);

  /// Records an already finished span; returns its index, or -1.
  int add(const char *Name, double Start, double End, int Parent,
          unsigned Op);

  /// Re-attaches span \p Id below \p Parent, in operation \p Op. Used for
  /// spans recorded on threads the benchmark does not own (serving
  /// workers), whose request is known only once the request completes.
  void adopt(int Id, int Parent, unsigned Op);

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

  /// Self seconds per layer for one operation. A span's self time is its
  /// duration minus the part of its interval its child spans cover; a
  /// layer is the span-name prefix before the first '.'. Trees rooted at
  /// a span named \p OpRoot are operations, and the result is the median
  /// over them of each layer's self time per operation, plus the layer's
  /// self time in the remaining trees (work done once per run).
  std::map<std::string, double>
  selfSecondsByLayer(const std::string &OpRoot) const;

  /// Writes every span as JSON to \p Path. False (with \p Error) on an
  /// I/O failure.
  bool write(const std::string &Path, std::string &Error) const;

private:
  const bool Enabled;
  const std::chrono::steady_clock::time_point Origin;
  mutable std::mutex Mutex;
  std::vector<Span> Recorded; ///< Guarded by Mutex.
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, const char *Name, int Parent, unsigned Op)
      : Log(Log), Id(Log.open(Name, Parent, Op)) {}
  ~ScopedSpan() { Log.close(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int id() const { return Id; }

private:
  SpanLog &Log;
  const int Id;
};

} // namespace perfbench

#endif // ANEK_PERFBENCH_SPANS_H
