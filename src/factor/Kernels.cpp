//===- Kernels.cpp - Runtime kernel backend dispatch ------------------------===//

#include "factor/Kernels.h"

#include "support/CpuFeatures.h"
#include "support/Format.h"

#include <atomic>

namespace anek {
namespace kern {

namespace {

/// The active backend. Null until first resolution; an acquire load is
/// the only per-solve cost.
std::atomic<const SolverKernels *> Current{nullptr};

const SolverKernels *detect() {
  if (const SolverKernels *K = kernelsAvx2())
    if (cpu::hasAvx2())
      return K;
  if (const SolverKernels *K = kernelsNeon())
    if (cpu::hasNeon())
      return K;
  return kernelsScalar();
}

} // namespace

const SolverKernels &solverKernels() {
  const SolverKernels *K = Current.load(std::memory_order_acquire);
  if (!K) {
    // Detection is idempotent and every racer resolves the same table,
    // so a benign double-detect needs no CAS.
    K = detect();
    Current.store(K, std::memory_order_release);
  }
  return *K;
}

Status setKernelBackend(const std::string &Name) {
  const SolverKernels *K = nullptr;
  if (Name == "auto") {
    K = detect();
  } else if (Name == "scalar") {
    K = kernelsScalar();
  } else if (Name == "avx2") {
    K = kernelsAvx2();
    if (K && !cpu::hasAvx2())
      K = nullptr;
  } else if (Name == "neon") {
    K = kernelsNeon();
    if (K && !cpu::hasNeon())
      K = nullptr;
  } else {
    return Status::error(
        ErrorCode::InvalidArgument,
        formatStr("unknown kernel backend '%s' (expected scalar, avx2, "
                  "neon, or auto)",
                  Name.c_str()));
  }
  if (!K)
    return Status::error(
        ErrorCode::InvalidArgument,
        formatStr("kernel backend '%s' is not available on this host",
                  Name.c_str()));
  Current.store(K, std::memory_order_release);
  return Status::ok();
}

Backend activeKernelBackend() { return solverKernels().Kind; }

const char *kernelBackendName(Backend Kind) {
  switch (Kind) {
  case Backend::Scalar:
    return "scalar";
  case Backend::Avx2:
    return "avx2";
  case Backend::Neon:
    return "neon";
  }
  return "unknown";
}

} // namespace kern
} // namespace anek
