//===- FaultInject.h - Fault-injection control points ------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Controlled fault injection so the pipeline's degradation paths are
/// actually exercised instead of rotting untested. A fault is a named
/// control point library code consults at the moment the real failure
/// would occur; activating it makes that failure happen deterministically.
///
/// Activation is either programmatic (faults::ScopedFault, for tests) or
/// via the ANEK_FAULT environment variable / `anek --fault`, whose spec is
/// a comma-separated list of fault names, each with an optional `*N` fire
/// budget (the fault fires for the first N consuming checks, then clears)
/// and an optional `:filter` suffix matched against a site label (a
/// method's qualified name, or a batch request id):
///
///   ANEK_FAULT=bp-nonconverge,solve-fail:Row.createColIter anek infer ...
///   anek batch m.txt --fault solve-fail:req7/Row.createColIter
///
/// Run `anek faults` for the live fault vocabulary; the kinds are:
///   bp-nonconverge  belief propagation reports non-convergence
///   deadline        every Deadline reports itself expired
///   alloc-perturb   FactorGraph interleaves padding variables, shifting
///                   every allocation order/id (order-dependence probe)
///   solve-fail      a method's SOLVE step fails outright (isolation probe)
///   queue-full      batch admission control behaves as if the request
///                   queue were saturated (the request is shed)
///   mem-spike       the resource governor observes a synthetic
///                   allocation spike that blows any memory budget
///   wire-corrupt    a summary-cache blob read from disk has a byte
///                   flipped, so its checksum fails (site `cache`;
///                   corrupt-entry probe)
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SUPPORT_FAULTINJECT_H
#define ANEK_SUPPORT_FAULTINJECT_H

#include "support/Status.h"

#include <string>

namespace anek {

/// The injectable faults. Keep in sync with faultKindName/parse and the
/// description table in FaultInject.cpp (a static_assert on NumFaultKinds
/// catches a kind added without a description).
enum class FaultKind : unsigned {
  BpNonConvergence = 0,
  DeadlineExpiry,
  AllocPerturb,
  SolveFailure,
  QueueFull,
  MemSpike,
  WireCorrupt,
};
constexpr unsigned NumFaultKinds = 7;

/// Spec name of a fault kind ("bp-nonconverge", ...).
const char *faultKindName(FaultKind Kind);

/// One-line human description of a fault kind (`anek faults` output).
const char *faultKindDescription(FaultKind Kind);

namespace faults {

// All fault queries and (de)activations are thread-safe: the registry is
// mutex-guarded and anyActive() is a single atomic load, so solver worker
// threads may consult fault state while a test arms or disarms it.

/// Fast path: true when any fault source (env or scoped) is active at all.
/// One relaxed atomic load once the environment spec has been consumed.
bool anyActive();

/// True when \p Kind is active with no site filter, or with a filter equal
/// to \p Label. Pass an empty label from sites that have no useful name.
/// Activations whose fire budget is exhausted no longer match.
bool active(FaultKind Kind, const std::string &Label = std::string());

/// True when \p Kind is active under *any* site filter (or none). Unlike
/// active(Kind, ""), which a filtered activation does not match, this
/// answers "could this kind fire anywhere?" — the summary cache uses it to
/// disable caching while an analysis-perturbing fault is armed, since a
/// cache hit would replay results the armed fault should have perturbed.
bool kindActive(FaultKind Kind);

/// Consuming check for budgeted faults: like active(), but decrements the
/// matching activation's fire budget. Returns true while the budget holds
/// (an unbudgeted activation fires forever); once a budget reaches zero
/// the activation is exhausted and stops matching. The `wire-corrupt`
/// control point uses this so "corrupt the first N cache reads" is one
/// spec: `wire-corrupt*N:cache`.
bool consumeFire(FaultKind Kind, const std::string &Label = std::string());

/// Convenience: an ErrorCode::FaultInjected Status naming the fault, for
/// sites that surface the fault as a Status.
Status injectedError(FaultKind Kind, const std::string &Label);

/// Activates \p Spec ("name[*N][:filter][,...]") on top of the current
/// state. Returns InvalidArgument naming the bad token on a malformed
/// spec; on error nothing is activated.
Status activateSpec(const std::string &Spec);

/// Drops every activation made by activateSpec/ScopedFault and re-arms
/// the one-time ANEK_FAULT environment read. Tests call this to isolate
/// themselves; the env respec applies on the next query.
void reset();

/// RAII activation of one fault for a test's scope. \p FireBudget < 0
/// means unlimited; >= 1 arms a consumable budget (see consumeFire).
class ScopedFault {
public:
  explicit ScopedFault(FaultKind Kind, std::string Filter = std::string(),
                       long FireBudget = -1);
  ~ScopedFault();

  ScopedFault(const ScopedFault &) = delete;
  ScopedFault &operator=(const ScopedFault &) = delete;

private:
  FaultKind Kind;
  std::string Filter;
};

} // namespace faults
} // namespace anek

#endif // ANEK_SUPPORT_FAULTINJECT_H
