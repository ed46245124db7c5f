//===- Kernels.h - SIMD solver kernels over the CSR edge layout --*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The KernelBackend seam: every hot solver loop (BP variable-message
/// passes, BP factor sweeps, Gibbs sweeps) runs through a table of
/// function pointers so the same driver code executes on an AVX2, NEON,
/// or scalar backend chosen at runtime.
///
/// Determinism contract: all backends are byte-identical. Vectorization
/// is across *independent outputs* (edges, variable-major positions,
/// factor-table entries), and every multi-element reduction uses the same
/// fixed 4-lane strided tree in every backend — lane j accumulates
/// elements j, j+4, j+8, ..., and the final combine is always
/// (L0 op L1) op (L2 op L3). Kernel translation units are compiled with
/// -ffp-contract=off so no backend fuses a multiply-add the others do
/// not.
///
/// COMDAT safety: the per-ISA translation units (KernelsAvx2.cpp,
/// KernelsNeon.cpp) are compiled with arch flags above the binary's
/// baseline. They must not *call* any inline function defined in a
/// shared header (the linker could pick the AVX2-compiled COMDAT copy to
/// satisfy every TU and crash pre-AVX2 hosts). This header therefore
/// exposes plain structs and function pointers only; the few shared
/// helpers the kernels need (SplitMix64, clamping) are internal-linkage
/// `static` functions so each TU keeps its own copy.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_FACTOR_KERNELS_H
#define ANEK_FACTOR_KERNELS_H

#include <cstdint>
#include <string>

#include "support/Status.h"

namespace anek {
namespace kern {

/// Clamp floor for BP messages; must match anek::clampProb's epsilon
/// (FactorGraph.cpp).
constexpr double MessageEps = 1e-9;

/// Variables with at least this many incident edges get their phase-1
/// messages recomputed in the log domain by the driver (a product of 64+
/// clamped probabilities can underflow to 0 and erase the signal). The
/// fixup runs in the baseline-compiled driver TU, once, for every
/// backend — so it cannot break backend byte-identity.
constexpr uint32_t LogDomainMinDegree = 64;

/// SplitMix64 — byte-for-byte the arithmetic of support/Rng.h::Rng,
/// duplicated as internal-linkage functions for COMDAT safety (see file
/// header). Integer-only, so every TU computes identical streams.
static inline uint64_t rngNext(uint64_t &State) {
  State += 0x9E3779B97F4A7C15ULL;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

/// Uniform draw in [0, 1) — same arithmetic as Rng::uniform.
static inline double rngUniform(uint64_t &State) {
  return static_cast<double>(rngNext(State) >> 11) * 0x1.0p-53;
}

enum class Backend : int {
  Scalar = 0,
  Avx2 = 1,
  Neon = 2,
};

/// Read-only view of one factor graph in CSR form: aliases the graph's
/// FactorGraph::EdgeLayout directly, plus a per-variable prior array.
struct BpView {
  uint32_t NumVars = 0;
  uint32_t NumFactors = 0;
  uint32_t NumEdges = 0;
  const uint32_t *FactorOffset = nullptr; ///< NumFactors+1; edge ranges.
  const uint32_t *VarOffset = nullptr;    ///< NumVars+1; position ranges.
  const uint32_t *VarEdges = nullptr;     ///< position -> edge id.
  const uint32_t *VmFactor = nullptr;     ///< position -> owning factor.
  const uint32_t *TableOffset = nullptr;  ///< factor -> base in TableFlat.
  const double *TableFlat = nullptr;      ///< concatenated factor tables.
  const double *Priors = nullptr;         ///< per-variable prior.
};

/// Mutable per-solve state. All arrays are allocated by the BP engine
/// (factor/Solvers.cpp); "position" arrays are indexed like VarEdges.
struct BpState {
  double *VarToFactor = nullptr; ///< per edge.
  double *FactorToVar = nullptr; ///< per edge.
  // Phase-1 scratch, per position. SufT/SufF hold the exclusive suffix
  // products after pass B's backward walk, then the full
  // prefix*suffix products (the unnormalized outgoing polarity
  // weights) after its forward walk folds the running prefix in.
  // ClampT/ClampF/NewMsg/Change serve only the split variable pass
  // (Commit false) and are null when the driver runs the fused one.
  double *ClampT = nullptr;
  double *ClampF = nullptr;
  double *SufT = nullptr;
  double *SufF = nullptr;
  double *NewMsg = nullptr;
  double *Change = nullptr;
  // Phase-2 scratch, per edge: the general-arity marginalization's
  // outputs.
  double *OutT = nullptr;
  double *OutF = nullptr;
};

struct BpConsts {
  double Damping = 0.0;
  double OneMinusDamping = 1.0;
};

/// Variable-major view for Gibbs sweeps (arrays from EdgeLayout's Vm*
/// companions).
struct GibbsView {
  uint32_t NumVars = 0;
  const uint32_t *VarOffset = nullptr;   ///< NumVars+1; position ranges.
  const uint32_t *VmFactor = nullptr;    ///< position -> owning factor.
  const uint32_t *VmMask = nullptr;      ///< position -> repeated-scope mask.
  const uint32_t *VmSlotBit = nullptr;   ///< position -> slot bit.
  const uint32_t *VmTableBase = nullptr; ///< position -> TableFlat base.
  const double *TableFlat = nullptr;
  const double *Priors = nullptr;
  /// Conditional-pair tables (EdgeLayout::PairFlat / VmPairBase /
  /// VmPairLow), or nullptr when the layout skipped them (repeated
  /// scope variables or size cap). Presence is a property of the
  /// graph, so every backend takes the same sweep path; the float
  /// entries widen to double losslessly, so pair loads cannot break
  /// backend byte-identity.
  const float *PairFlat = nullptr;
  /// Flip-adjacency CSR (EdgeLayout::FlipOffset / FlipPos / FlipDelta):
  /// flipping variable X XORs FlipDelta[K] into PosIdx[FlipPos[K]] for
  /// K in [FlipOffset[X], FlipOffset[X+1]). With it the pair-path
  /// weight loop is one PosIdx load and one pair load per occurrence.
  const uint32_t *FlipOffset = nullptr;
  const uint32_t *FlipPos = nullptr;
  const uint32_t *FlipDelta = nullptr;
};

struct GibbsState {
  /// Per factor: current assignment bits. Maintained only on the
  /// TableFlat fallback path; the pair path tracks state in PosIdx.
  uint32_t *CurIndex = nullptr;
  uint8_t *Assign = nullptr;    ///< per variable: current boolean state.
  uint64_t *RngState = nullptr; ///< SplitMix64 state (rngNext arithmetic).
  /// Per position: current index into PairFlat (the owning factor's
  /// index with the slot bit compacted out, doubled by the pair
  /// stride, plus the position's base). The driver initializes it from
  /// CurIndex; sweeps maintain it through the flip-adjacency CSR.
  /// Null when the layout has no pair tables.
  uint32_t *PosIdx = nullptr;
};

/// One backend's kernel entry points. Plain function pointers: the
/// dispatch TU resolves a backend once and drivers call through it.
struct SolverKernels {
  Backend Kind;
  const char *Name;

  /// BP phase-1 passes A-C for variables [VB, VE): gather+clamp incoming
  /// factor->var messages, per-variable exclusive prefix/suffix products,
  /// then the damped message update into NewMsg (per position).
  ///
  /// With Commit false it does NOT write VarToFactor or compute a max —
  /// it fills NewMsg/Change and returns 0.0, and the driver overwrites
  /// NewMsg/Change for high-degree variables (log domain) before
  /// following up with BpVarScatter. With Commit true (every graph with
  /// no variable of degree >= LogDomainMinDegree) pass C itself scatters
  /// NewMsg into VarToFactor and returns the max change — pass D is
  /// fused away and Change is not even written, saving three full
  /// position streams per iteration.
  double (*BpVarMessages)(const BpView &V, const BpState &S, const BpConsts &C,
                          uint32_t VB, uint32_t VE, bool Commit);

  /// BP phase-1 pass D: scatter NewMsg into VarToFactor and return the
  /// max Change over [VarOffset[VB], VarOffset[VE]). Only called when
  /// BpVarMessages ran with Commit false.
  double (*BpVarScatter)(const BpView &V, const BpState &S, uint32_t VB,
                         uint32_t VE);

  /// BP phase 2 for factors [FB, FE): per-factor marginalization and the
  /// damped factor->var message commit, every factor every iteration.
  /// Returns the max message change.
  double (*BpFactorSweep)(const BpView &V, const BpState &S, const BpConsts &C,
                          uint32_t FB, uint32_t FE);

  /// One Gibbs pass over variables [VB, VE): per variable, the 4-lane
  /// conditional-weight product over incident factor tables, one RNG
  /// draw, and the XOR flip scatter into CurIndex. The driver calls this
  /// in chunks so deadline checks keep their PR 3 cadence.
  void (*GibbsSweep)(const GibbsView &V, const GibbsState &S, uint32_t VB,
                     uint32_t VE);
};

/// Backend constructors. A getter returns nullptr when its backend is
/// compiled out (non-x86 build, compiler without -mavx2) — callers and
/// dispatch must treat that as "unavailable", never as an error.
const SolverKernels *kernelsScalar();
const SolverKernels *kernelsAvx2();
const SolverKernels *kernelsNeon();

/// The active backend. First use resolves it to the best backend the host
/// CPU supports (cpu::hasAvx2 / cpu::hasNeon), else scalar;
/// setKernelBackend (`--kernel-backend`) overrides it.
const SolverKernels &solverKernels();

/// Select a backend by name: "scalar", "avx2", "neon", or "auto"
/// (re-run CPU detection). Fails without changing the active backend
/// when the name is unknown or the backend is unavailable on this host.
Status setKernelBackend(const std::string &Name);

/// Kind of the currently active backend.
Backend activeKernelBackend();

/// Human-readable name for a backend kind.
const char *kernelBackendName(Backend Kind);

} // namespace kern
} // namespace anek

#endif // ANEK_FACTOR_KERNELS_H
