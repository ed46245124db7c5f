//===- Deadline.h - Wall-clock and iteration budgets -------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A combined wall-clock + iteration budget handed down through the solver
/// stack. Solvers poll expired() at loop boundaries and return a
/// DeadlineExceeded status (or a partial result flagged as such) instead of
/// running unbounded on pathological graphs. A default-constructed
/// Deadline is unlimited, so budget-free callers pay nothing.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SUPPORT_DEADLINE_H
#define ANEK_SUPPORT_DEADLINE_H

#include "support/FaultInject.h"

#include <chrono>
#include <limits>

namespace anek {

/// Wall-clock deadline plus optional iteration cap. Copyable; copies share
/// the same absolute expiry point.
class Deadline {
public:
  /// Unlimited: never expires (except under the 'deadline' fault).
  Deadline() = default;

  /// Expires \p Seconds from now (<= 0 or NaN means already expired). A
  /// budget past the clock's range saturates at its maximum expiry.
  static Deadline afterSeconds(double Seconds) {
    Deadline D;
    D.HasExpiry = true;
    const Clock::time_point Now = Clock::now();
    D.Expiry = Now;
    if (!(Seconds > 0.0))
      return D;
    // Range-checked in ticks first: converting an out-of-range double to
    // the clock's integer rep, or adding past time_point::max(), is
    // undefined behaviour.
    double Ticks = std::chrono::duration<double, Clock::period>(
                       std::chrono::duration<double>(Seconds))
                       .count();
    Clock::duration Room = Clock::time_point::max() - Now;
    D.Expiry = Ticks < static_cast<double>(Room.count())
                   ? Now + Clock::duration(static_cast<Clock::rep>(Ticks))
                   : Clock::time_point::max();
    return D;
  }

  /// Caps iteration count only (no wall-clock component).
  static Deadline iterations(unsigned MaxIterations) {
    Deadline D;
    D.MaxIterations = MaxIterations;
    return D;
  }

  /// Both a wall-clock and an iteration budget.
  static Deadline of(double Seconds, unsigned MaxIterations) {
    Deadline D = afterSeconds(Seconds);
    D.MaxIterations = MaxIterations;
    return D;
  }

  bool unlimited() const { return !HasExpiry && MaxIterations == 0; }

  /// True once the wall clock passed the expiry, \p IterationsUsed reached
  /// the iteration cap, or the 'deadline' fault is injected.
  bool expired(unsigned IterationsUsed = 0) const {
    // anyActive() first: it is one atomic load, while active() takes the
    // registry lock. expired() sits inside every solver loop.
    if (faults::anyActive() && faults::active(FaultKind::DeadlineExpiry))
      return true;
    if (MaxIterations != 0 && IterationsUsed >= MaxIterations)
      return true;
    return HasExpiry && Clock::now() >= Expiry;
  }

  /// Seconds until the wall-clock expiry; +inf when unlimited, clamped at
  /// zero once expired.
  double remainingSeconds() const {
    if (!HasExpiry)
      return std::numeric_limits<double>::infinity();
    double Left =
        std::chrono::duration<double>(Expiry - Clock::now()).count();
    return Left > 0.0 ? Left : 0.0;
  }

  unsigned iterationBudget() const { return MaxIterations; }

private:
  using Clock = std::chrono::steady_clock;
  bool HasExpiry = false;
  Clock::time_point Expiry{};
  unsigned MaxIterations = 0;
};

} // namespace anek

#endif // ANEK_SUPPORT_DEADLINE_H
