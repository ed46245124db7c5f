//===- KernelsAvx2.cpp - AVX2 solver kernel backend ------------------------===//
//
// Compiled with -mavx2 (and -ffp-contract=off; note -mfma is NOT passed,
// so no backend can contract a multiply-add the scalar one does not).
// This TU must stay COMDAT-clean: it includes only the kernel headers
// and intrinsics, and everything it defines besides kernelsAvx2() has
// internal linkage, so no AVX2-encoded code can be picked by the linker
// to satisfy a baseline-TU reference. Dispatch (Kernels.cpp) guarantees
// kernelsAvx2()'s table is only *called through* on hosts whose CPU
// reports AVX2.
//
//===----------------------------------------------------------------------===//

#include "factor/Kernels.h"

#if ANEK_KERNELS_AVX2

#include "factor/KernelsImpl.h"

#include <immintrin.h>

namespace {

struct Avx2Traits {
  typedef __m256d Vec;
  static Vec broadcast(double X) { return _mm256_set1_pd(X); }
  static Vec zero() { return _mm256_setzero_pd(); }
  static Vec load(const double *P) { return _mm256_loadu_pd(P); }
  static void store(double *P, Vec V) { _mm256_storeu_pd(P, V); }
  static Vec setr(double A, double B, double C, double D) {
    return _mm256_setr_pd(A, B, C, D);
  }
  static Vec gather(const double *Base, const uint32_t *Idx) {
    // Indices are 32-bit and (per EdgeLayout's size guard) < 2^31, so
    // the signed i32 gather form is safe.
    const __m128i I =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(
            const_cast<uint32_t *>(Idx)));
    return _mm256_i32gather_pd(Base, I, 8);
  }
  static Vec add(Vec A, Vec B) { return _mm256_add_pd(A, B); }
  static Vec sub(Vec A, Vec B) { return _mm256_sub_pd(A, B); }
  static Vec mul(Vec A, Vec B) { return _mm256_mul_pd(A, B); }
  static Vec div(Vec A, Vec B) { return _mm256_div_pd(A, B); }
  static Vec min(Vec A, Vec B) { return _mm256_min_pd(A, B); }
  static Vec max(Vec A, Vec B) { return _mm256_max_pd(A, B); }
  static Vec abs(Vec A) {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), A);
  }
  static Vec selectGt0(Vec S, Vec A, Vec B) {
    const Vec Mask = _mm256_cmp_pd(S, _mm256_setzero_pd(), _CMP_GT_OQ);
    return _mm256_blendv_pd(B, A, Mask);
  }
  template <int M> static Vec blend(Vec A, Vec B) {
    return _mm256_blend_pd(A, B, M);
  }
  static Vec lo128(Vec A, Vec B) {
    return _mm256_permute2f128_pd(A, B, 0x20);
  }
  static Vec hi128(Vec A, Vec B) {
    return _mm256_permute2f128_pd(A, B, 0x31);
  }
  template <int I0, int I1> static Vec shuffle(Vec A, Vec B) {
    return _mm256_shuffle_pd(A, B, I0 | (I1 << 1) | (I0 << 2) | (I1 << 3));
  }
  // Pair loads: two adjacent floats per index, all four widened to
  // double with one vcvtps2pd (exact, so identical to the scalar
  // backend's per-element casts).
  static Vec pair2(const float *Base, uint32_t I, uint32_t J) {
    const __m128 F = _mm_loadh_pi(
        _mm_loadl_pi(_mm_setzero_ps(),
                     reinterpret_cast<const __m64 *>(Base + I)),
        reinterpret_cast<const __m64 *>(Base + J));
    return _mm256_cvtps_pd(F);
  }
  static Vec pairLo(const float *Base, uint32_t I) {
    return _mm256_cvtps_pd(_mm_set_ps(1.0f, 1.0f, Base[I + 1], Base[I]));
  }
  static Vec pairHi(const float *Base, uint32_t I) {
    return _mm256_cvtps_pd(_mm_set_ps(Base[I + 1], Base[I], 1.0f, 1.0f));
  }
};

} // namespace

namespace anek {
namespace kern {

const SolverKernels *kernelsAvx2() {
  static const SolverKernels Table = {
      Backend::Avx2,
      "avx2",
      &impl::bpVarMessagesT<Avx2Traits>,
      &impl::bpVarScatterT<Avx2Traits>,
      &impl::bpFactorDenseT<Avx2Traits>,
      &impl::gibbsSweepT<Avx2Traits>,
  };
  return &Table;
}

} // namespace kern
} // namespace anek

#else // !ANEK_KERNELS_AVX2

namespace anek {
namespace kern {

const SolverKernels *kernelsAvx2() { return nullptr; }

} // namespace kern
} // namespace anek

#endif
