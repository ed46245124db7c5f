//===- KernelsNeon.cpp - NEON solver kernel backend -------------------------===//
//
// aarch64 only; ASIMD is baseline there, so no extra arch flags — but
// the TU (like the whole target) is compiled -ffp-contract=off, which
// matters here: aarch64 compilers contract a*b+c to fma by default, and
// a fused update would diverge from the scalar backend. The 4-lane Vec
// is a pair of 2-lane float64x2_t halves. min/max/select are built from
// explicit compare+bsl so the equality convention matches the scalar
// ternaries exactly.
//
//===----------------------------------------------------------------------===//

#include "factor/Kernels.h"

#if ANEK_KERNELS_NEON

#include "factor/KernelsImpl.h"

#include <arm_neon.h>

namespace {

struct NeonTraits {
  struct Vec {
    float64x2_t Lo, Hi;
  };
  static Vec broadcast(double X) { return {vdupq_n_f64(X), vdupq_n_f64(X)}; }
  static Vec zero() { return broadcast(0.0); }
  static Vec load(const double *P) { return {vld1q_f64(P), vld1q_f64(P + 2)}; }
  static void store(double *P, Vec V) {
    vst1q_f64(P, V.Lo);
    vst1q_f64(P + 2, V.Hi);
  }
  static Vec setr(double A, double B, double C, double D) {
    const double Tmp[4] = {A, B, C, D};
    return load(Tmp);
  }
  static Vec gather(const double *Base, const uint32_t *Idx) {
    const double Tmp[4] = {Base[Idx[0]], Base[Idx[1]], Base[Idx[2]],
                           Base[Idx[3]]};
    return load(Tmp);
  }
  static Vec add(Vec A, Vec B) {
    return {vaddq_f64(A.Lo, B.Lo), vaddq_f64(A.Hi, B.Hi)};
  }
  static Vec sub(Vec A, Vec B) {
    return {vsubq_f64(A.Lo, B.Lo), vsubq_f64(A.Hi, B.Hi)};
  }
  static Vec mul(Vec A, Vec B) {
    return {vmulq_f64(A.Lo, B.Lo), vmulq_f64(A.Hi, B.Hi)};
  }
  static Vec div(Vec A, Vec B) {
    return {vdivq_f64(A.Lo, B.Lo), vdivq_f64(A.Hi, B.Hi)};
  }
  // A < B ? A : B — the minpd/maxpd "B on equality" convention.
  static Vec min(Vec A, Vec B) {
    return {vbslq_f64(vcltq_f64(A.Lo, B.Lo), A.Lo, B.Lo),
            vbslq_f64(vcltq_f64(A.Hi, B.Hi), A.Hi, B.Hi)};
  }
  static Vec max(Vec A, Vec B) {
    return {vbslq_f64(vcgtq_f64(A.Lo, B.Lo), A.Lo, B.Lo),
            vbslq_f64(vcgtq_f64(A.Hi, B.Hi), A.Hi, B.Hi)};
  }
  static Vec abs(Vec A) { return {vabsq_f64(A.Lo), vabsq_f64(A.Hi)}; }
  static Vec selectGt0(Vec S, Vec A, Vec B) {
    const float64x2_t Z = vdupq_n_f64(0.0);
    return {vbslq_f64(vcgtq_f64(S.Lo, Z), A.Lo, B.Lo),
            vbslq_f64(vcgtq_f64(S.Hi, Z), A.Hi, B.Hi)};
  }
  template <int M> static Vec blend(Vec A, Vec B) {
    Vec R = A;
    if (M & 1)
      R.Lo = vsetq_lane_f64(vgetq_lane_f64(B.Lo, 0), R.Lo, 0);
    if (M & 2)
      R.Lo = vsetq_lane_f64(vgetq_lane_f64(B.Lo, 1), R.Lo, 1);
    if (M & 4)
      R.Hi = vsetq_lane_f64(vgetq_lane_f64(B.Hi, 0), R.Hi, 0);
    if (M & 8)
      R.Hi = vsetq_lane_f64(vgetq_lane_f64(B.Hi, 1), R.Hi, 1);
    return R;
  }
  static Vec lo128(Vec A, Vec B) { return {A.Lo, B.Lo}; }
  static Vec hi128(Vec A, Vec B) { return {A.Hi, B.Hi}; }
  template <int I0, int I1> static Vec shuffle(Vec A, Vec B) {
    float64x2_t Lo = vmovq_n_f64(vgetq_lane_f64(A.Lo, I0));
    Lo = vsetq_lane_f64(vgetq_lane_f64(B.Lo, I1), Lo, 1);
    float64x2_t Hi = vmovq_n_f64(vgetq_lane_f64(A.Hi, I0));
    Hi = vsetq_lane_f64(vgetq_lane_f64(B.Hi, I1), Hi, 1);
    return {Lo, Hi};
  }
  // Pair loads: two adjacent floats per index, widened with
  // vcvt_f64_f32 (exact, so identical to the scalar backend's casts).
  static Vec pair2(const float *Base, uint32_t I, uint32_t J) {
    return {vcvt_f64_f32(vld1_f32(Base + I)),
            vcvt_f64_f32(vld1_f32(Base + J))};
  }
  static Vec pairLo(const float *Base, uint32_t I) {
    return {vcvt_f64_f32(vld1_f32(Base + I)), vdupq_n_f64(1.0)};
  }
  static Vec pairHi(const float *Base, uint32_t I) {
    return {vdupq_n_f64(1.0), vcvt_f64_f32(vld1_f32(Base + I))};
  }
};

} // namespace

namespace anek {
namespace kern {

const SolverKernels *kernelsNeon() {
  static const SolverKernels Table = {
      Backend::Neon,
      "neon",
      &impl::bpVarMessagesT<NeonTraits>,
      &impl::bpVarScatterT<NeonTraits>,
      &impl::bpFactorDenseT<NeonTraits>,
      &impl::gibbsSweepT<NeonTraits>,
  };
  return &Table;
}

} // namespace kern
} // namespace anek

#else // !ANEK_KERNELS_NEON

namespace anek {
namespace kern {

const SolverKernels *kernelsNeon() { return nullptr; }

} // namespace kern
} // namespace anek

#endif
