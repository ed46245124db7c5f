//===- KernelsScalar.cpp - Reference scalar solver kernel backend ----------===//
//
// Always built, with the target's baseline flags: the portable fallback
// every other backend must match byte-for-byte. The Traits emulates a
// 4-lane vector with plain doubles so the templated kernel bodies run
// the exact lane structure (strided reduction trees, neutral-element
// padding) the SIMD backends use.
//
//===----------------------------------------------------------------------===//

#include "factor/Kernels.h"
#include "factor/KernelsImpl.h"

namespace {

using anek::kern::impl::absBits;

struct ScalarTraits {
  struct Vec {
    double L[4];
  };
  static Vec broadcast(double X) { return {{X, X, X, X}}; }
  static Vec zero() { return broadcast(0.0); }
  static Vec load(const double *P) { return {{P[0], P[1], P[2], P[3]}}; }
  static void store(double *P, Vec V) {
    P[0] = V.L[0];
    P[1] = V.L[1];
    P[2] = V.L[2];
    P[3] = V.L[3];
  }
  static Vec setr(double A, double B, double C, double D) {
    return {{A, B, C, D}};
  }
  static Vec gather(const double *Base, const uint32_t *Idx) {
    return {{Base[Idx[0]], Base[Idx[1]], Base[Idx[2]], Base[Idx[3]]}};
  }
  static Vec add(Vec A, Vec B) {
    Vec R;
    for (int J = 0; J != 4; ++J)
      R.L[J] = A.L[J] + B.L[J];
    return R;
  }
  static Vec sub(Vec A, Vec B) {
    Vec R;
    for (int J = 0; J != 4; ++J)
      R.L[J] = A.L[J] - B.L[J];
    return R;
  }
  static Vec mul(Vec A, Vec B) {
    Vec R;
    for (int J = 0; J != 4; ++J)
      R.L[J] = A.L[J] * B.L[J];
    return R;
  }
  static Vec div(Vec A, Vec B) {
    Vec R;
    for (int J = 0; J != 4; ++J)
      R.L[J] = A.L[J] / B.L[J];
    return R;
  }
  // minpd/maxpd convention: return B on equality (same value anyway).
  static Vec min(Vec A, Vec B) {
    Vec R;
    for (int J = 0; J != 4; ++J)
      R.L[J] = A.L[J] < B.L[J] ? A.L[J] : B.L[J];
    return R;
  }
  static Vec max(Vec A, Vec B) {
    Vec R;
    for (int J = 0; J != 4; ++J)
      R.L[J] = A.L[J] > B.L[J] ? A.L[J] : B.L[J];
    return R;
  }
  static Vec abs(Vec A) {
    Vec R;
    for (int J = 0; J != 4; ++J)
      R.L[J] = absBits(A.L[J]);
    return R;
  }
  static Vec selectGt0(Vec S, Vec A, Vec B) {
    Vec R;
    for (int J = 0; J != 4; ++J)
      R.L[J] = S.L[J] > 0.0 ? A.L[J] : B.L[J];
    return R;
  }
  template <int M> static Vec blend(Vec A, Vec B) {
    Vec R;
    for (int J = 0; J != 4; ++J)
      R.L[J] = ((M >> J) & 1) ? B.L[J] : A.L[J];
    return R;
  }
  static Vec lo128(Vec A, Vec B) {
    return {{A.L[0], A.L[1], B.L[0], B.L[1]}};
  }
  static Vec hi128(Vec A, Vec B) {
    return {{A.L[2], A.L[3], B.L[2], B.L[3]}};
  }
  template <int I0, int I1> static Vec shuffle(Vec A, Vec B) {
    return {{A.L[I0], B.L[I1], A.L[2 + I0], B.L[2 + I1]}};
  }
  static Vec pair2(const float *Base, uint32_t I, uint32_t J) {
    return {{static_cast<double>(Base[I]), static_cast<double>(Base[I + 1]),
             static_cast<double>(Base[J]), static_cast<double>(Base[J + 1])}};
  }
  static Vec pairLo(const float *Base, uint32_t I) {
    return {{static_cast<double>(Base[I]), static_cast<double>(Base[I + 1]),
             1.0, 1.0}};
  }
  static Vec pairHi(const float *Base, uint32_t I) {
    return {{1.0, 1.0, static_cast<double>(Base[I]),
             static_cast<double>(Base[I + 1])}};
  }
};

} // namespace

namespace anek {
namespace kern {

const SolverKernels *kernelsScalar() {
  static const SolverKernels Table = {
      Backend::Scalar,
      "scalar",
      &impl::bpVarMessagesT<ScalarTraits>,
      &impl::bpVarScatterT<ScalarTraits>,
      &impl::bpFactorDenseT<ScalarTraits>,
      &impl::gibbsSweepT<ScalarTraits>,
  };
  return &Table;
}

} // namespace kern
} // namespace anek
