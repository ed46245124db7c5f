//===- FaultInject.cpp - Fault-injection control points --------------------===//

#include "support/FaultInject.h"

#include "support/StringUtils.h"

#include <array>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <vector>

using namespace anek;

namespace {

/// One activation: a kind, an optional site filter (empty = all sites),
/// and an optional fire budget consumed by faults::consumeFire.
struct Activation {
  FaultKind Kind;
  std::string Filter;
  /// Remaining consuming fires: -1 = unlimited, 0 = exhausted (the
  /// activation no longer matches), > 0 = that many fires left.
  long Remaining = -1;
};

/// Guards the activation registry. Worker threads in the parallel
/// inference scheduler consult fault state concurrently, so every access
/// to the list goes through this lock; the common no-faults case never
/// takes it (see ActiveCount below).
std::mutex &registryMutex() {
  static std::mutex M;
  return M;
}

/// Active faults, scoped and spec-activated alike. Guarded by
/// registryMutex().
std::vector<Activation> &activations() {
  static std::vector<Activation> List;
  return List;
}

/// Lock-free mirror of activations().size(): anyActive() is on solver hot
/// paths (every Deadline poll), so it must stay one atomic load.
std::atomic<unsigned> ActiveCount{0};

/// True until the one-time ANEK_FAULT environment read happened.
std::atomic<bool> EnvPending{true};

/// Name + one-liner per kind, indexed by the enum value. The static_assert
/// is the keep-in-sync contract: adding a FaultKind without describing it
/// here fails the build, so `anek faults` can never go stale.
struct FaultInfo {
  const char *Name;
  const char *Description;
};

constexpr std::array<FaultInfo, NumFaultKinds> FaultTable = {{
    {"bp-nonconverge",
     "belief propagation reports non-convergence (cascade probe)"},
    {"deadline", "every Deadline reports itself expired"},
    {"alloc-perturb",
     "FactorGraph interleaves padding variables, shifting allocation "
     "order/ids (order-dependence probe)"},
    {"solve-fail",
     "a method's SOLVE step fails outright (isolation probe)"},
    {"queue-full",
     "batch admission control behaves as if the request queue were "
     "saturated; the request is shed"},
    {"mem-spike",
     "the resource governor observes a synthetic allocation spike that "
     "blows any memory budget"},
    {"wire-corrupt",
     "a summary-cache blob read from disk has a byte flipped so its "
     "checksum fails (site `cache`; the entry degrades to a counted "
     "miss)"},
}};
static_assert(FaultTable.size() == NumFaultKinds,
              "every FaultKind needs a name and a one-line description");

std::optional<FaultKind> kindByName(const std::string &Name) {
  for (unsigned K = 0; K != NumFaultKinds; ++K)
    if (Name == faultKindName(static_cast<FaultKind>(K)))
      return static_cast<FaultKind>(K);
  return std::nullopt;
}

/// Parses \p Spec into activations without touching shared state. Token
/// grammar: name[*N][:filter].
Expected<std::vector<Activation>> parseSpec(const std::string &Spec) {
  std::vector<Activation> Parsed;
  for (const std::string &Trimmed : splitAndTrim(Spec, ',')) {
    std::string Name = Trimmed, Filter;
    if (size_t Colon = Trimmed.find(':'); Colon != std::string::npos) {
      Name = Trimmed.substr(0, Colon);
      Filter = Trimmed.substr(Colon + 1);
    }
    long Remaining = -1;
    if (size_t Star = Name.find('*'); Star != std::string::npos) {
      std::string Count = Name.substr(Star + 1);
      Name = Name.substr(0, Star);
      char *End = nullptr;
      long Value = std::strtol(Count.c_str(), &End, 10);
      if (Count.empty() || !End || *End != '\0' || Value < 1)
        return Status::error(ErrorCode::InvalidArgument,
                             "bad fire budget '" + Count + "' in spec '" +
                                 Spec + "' (want *N with N >= 1)");
      Remaining = Value;
    }
    std::optional<FaultKind> Kind = kindByName(Name);
    if (!Kind)
      return Status::error(ErrorCode::InvalidArgument,
                           "unknown fault '" + Name + "' in spec '" + Spec +
                               "'");
    Parsed.push_back({*Kind, std::move(Filter), Remaining});
  }
  return Parsed;
}

/// Folds the ANEK_FAULT environment spec into the activation list once.
void consumeEnv() {
  std::vector<Activation> Parsed;
  if (const char *Spec = std::getenv("ANEK_FAULT"))
    // A malformed env spec is ignored rather than aborting: fault
    // injection must never make the binary less robust.
    if (Expected<std::vector<Activation>> P = parseSpec(Spec))
      Parsed = P.take();
  std::unique_lock<std::mutex> Lock(registryMutex());
  if (!EnvPending.load(std::memory_order_relaxed))
    return; // Another thread beat us to it.
  auto &List = activations();
  List.insert(List.end(), Parsed.begin(), Parsed.end());
  ActiveCount.store(static_cast<unsigned>(List.size()),
                    std::memory_order_relaxed);
  EnvPending.store(false, std::memory_order_release);
}

bool matches(const Activation &A, FaultKind Kind, const std::string &Label) {
  return A.Kind == Kind && A.Remaining != 0 &&
         (A.Filter.empty() || A.Filter == Label);
}

} // namespace

const char *anek::faultKindName(FaultKind Kind) {
  unsigned Index = static_cast<unsigned>(Kind);
  return Index < NumFaultKinds ? FaultTable[Index].Name : "unknown";
}

const char *anek::faultKindDescription(FaultKind Kind) {
  unsigned Index = static_cast<unsigned>(Kind);
  return Index < NumFaultKinds ? FaultTable[Index].Description : "unknown";
}

bool faults::anyActive() {
  if (EnvPending.load(std::memory_order_acquire))
    consumeEnv();
  return ActiveCount.load(std::memory_order_relaxed) != 0;
}

bool faults::active(FaultKind Kind, const std::string &Label) {
  if (!anyActive())
    return false;
  std::unique_lock<std::mutex> Lock(registryMutex());
  for (const Activation &A : activations())
    if (matches(A, Kind, Label))
      return true;
  return false;
}

bool faults::kindActive(FaultKind Kind) {
  if (!anyActive())
    return false;
  std::unique_lock<std::mutex> Lock(registryMutex());
  for (const Activation &A : activations())
    if (A.Kind == Kind && A.Remaining != 0)
      return true;
  return false;
}

bool faults::consumeFire(FaultKind Kind, const std::string &Label) {
  if (!anyActive())
    return false;
  std::unique_lock<std::mutex> Lock(registryMutex());
  for (Activation &A : activations())
    if (matches(A, Kind, Label)) {
      if (A.Remaining > 0)
        --A.Remaining;
      return true;
    }
  return false;
}

Status faults::injectedError(FaultKind Kind, const std::string &Label) {
  std::string Message = std::string("fault '") + faultKindName(Kind) +
                        "' injected";
  if (!Label.empty())
    Message += " at " + Label;
  return Status::error(ErrorCode::FaultInjected, Message);
}

Status faults::activateSpec(const std::string &Spec) {
  Expected<std::vector<Activation>> Parsed = parseSpec(Spec);
  if (!Parsed)
    return Parsed.status(); // On error nothing is activated.
  std::unique_lock<std::mutex> Lock(registryMutex());
  auto &List = activations();
  List.insert(List.end(), Parsed->begin(), Parsed->end());
  ActiveCount.store(static_cast<unsigned>(List.size()),
                    std::memory_order_relaxed);
  return Status::ok();
}

void faults::reset() {
  std::unique_lock<std::mutex> Lock(registryMutex());
  activations().clear();
  ActiveCount.store(0, std::memory_order_relaxed);
  EnvPending.store(true, std::memory_order_release);
}

faults::ScopedFault::ScopedFault(FaultKind Kind, std::string Filter,
                                 long FireBudget)
    : Kind(Kind), Filter(std::move(Filter)) {
  std::unique_lock<std::mutex> Lock(registryMutex());
  auto &List = activations();
  List.push_back({this->Kind, this->Filter, FireBudget});
  ActiveCount.store(static_cast<unsigned>(List.size()),
                    std::memory_order_relaxed);
}

faults::ScopedFault::~ScopedFault() {
  std::unique_lock<std::mutex> Lock(registryMutex());
  auto &List = activations();
  // Remove the most recent matching activation (scopes nest LIFO).
  for (auto It = List.rbegin(); It != List.rend(); ++It)
    if (It->Kind == Kind && It->Filter == Filter) {
      List.erase(std::next(It).base());
      break;
    }
  ActiveCount.store(static_cast<unsigned>(List.size()),
                    std::memory_order_relaxed);
}
