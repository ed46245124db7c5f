//===- simd_kernels_test.cpp - SIMD kernel backend contracts ---------------===//
//
// Part of the ANEK reproduction. See README.md.
//
// The determinism contract of the kernel backend seam (DESIGN.md, "Solver
// kernel layout"): every backend — scalar reference, AVX2, NEON — produces
// byte-identical solver output. The suite checks:
//
//  - the setKernelBackend API surface (unknown names, unavailable
//    backends, the always-available scalar fallback);
//  - scalar-vs-vector bit identity for BP (marginals, graph likelihoods,
//    reports) and Gibbs (marginals, reports) across 50 random graphs,
//    a fifth of the BP ones with a hub past LogDomainMinDegree so both
//    the fused and the split (log-domain) variable pass are fuzzed;
//  - the log-domain fixup for high-degree variables: finite beliefs and
//    unchanged cross-backend identity past LogDomainMinDegree;
//  - the bit-parallel (popcount) exact enumeration against brute force,
//    including the <6-variable and wide-factor fallbacks to the scalar
//    loop, DNF limits, budgets, and unsatisfiable graphs;
//  - the driver: --kernel-backend scalar must not change a single output
//    byte at any -j.
//
// Vector-backend cases skip (not fail) on hosts with no SIMD backend —
// the scalar-vs-scalar half of each identity check still runs there.
//
//===----------------------------------------------------------------------===//

#include "factor/FactorGraph.h"
#include "factor/Kernels.h"
#include "factor/Solvers.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <regex>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

using namespace anek;

namespace {

namespace fs = std::filesystem;

/// Name of the best vector backend this host can actually run, or null.
/// Leaves the active backend untouched.
const char *vectorBackendName() {
  const kern::Backend Before = kern::activeKernelBackend();
  const char *Name = nullptr;
  if (kern::setKernelBackend("avx2"))
    Name = "avx2";
  else if (kern::setKernelBackend("neon"))
    Name = "neon";
  kern::setKernelBackend(kern::kernelBackendName(Before));
  return Name;
}

/// Scoped backend selection; restores auto-detection on exit so test
/// order cannot leak a forced backend.
struct BackendGuard {
  explicit BackendGuard(const char *Name) {
    EXPECT_TRUE(kern::setKernelBackend(Name)) << Name;
  }
  ~BackendGuard() { kern::setKernelBackend("auto"); }
};

bool bitsEqual(const Marginals &A, const Marginals &B) {
  if (A.size() != B.size())
    return false;
  return A.empty() ||
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

/// Everything in a SolveReport except wall-clock Seconds, which is the
/// one field legitimately allowed to differ between backends/batching.
void expectReportsIdentical(const SolveReport &A, const SolveReport &B,
                            const std::string &What) {
  EXPECT_EQ(A.Converged, B.Converged) << What;
  EXPECT_EQ(A.Iterations, B.Iterations) << What;
  EXPECT_EQ(A.Updates, B.Updates) << What;
  EXPECT_EQ(A.DeadlineExpired, B.DeadlineExpired) << What;
  EXPECT_EQ(std::memcmp(&A.Residual, &B.Residual, sizeof(double)), 0)
      << What << ": residual " << A.Residual << " vs " << B.Residual;
  EXPECT_EQ(A.Reason, B.Reason) << What;
}

/// Random factor graph with mixed arities 1..4 (unary evidence, pairwise
/// equalities, and general tables): every phase-2 kernel path.
FactorGraph makeRandomGraph(unsigned NumVars, unsigned NumFactors,
                            uint64_t Seed) {
  Rng Random(Seed);
  FactorGraph G;
  for (unsigned V = 0; V != NumVars; ++V)
    G.addVariable(0.05 + 0.9 * Random.uniform());
  for (unsigned F = 0; F != NumFactors; ++F) {
    unsigned Arity =
        std::min<unsigned>(1 + static_cast<unsigned>(Random.below(4)),
                           NumVars);
    std::vector<VarId> Scope;
    while (Scope.size() != Arity) {
      VarId V = static_cast<VarId>(Random.below(NumVars));
      if (std::find(Scope.begin(), Scope.end(), V) == Scope.end())
        Scope.push_back(V);
    }
    std::vector<double> Table(size_t{1} << Arity);
    for (double &W : Table)
      W = 0.05 + Random.uniform();
    G.addFactor(std::move(Scope), std::move(Table));
  }
  return G;
}

/// Hard-constraint graph for the logical enumeration: every table entry
/// is decisively above or below the 0.5 threshold.
FactorGraph makeLogicalGraph(unsigned NumVars, unsigned NumFactors,
                             uint64_t Seed, double SatBias) {
  Rng Random(Seed);
  FactorGraph G;
  for (unsigned V = 0; V != NumVars; ++V)
    G.addVariable(0.5);
  for (unsigned F = 0; F != NumFactors; ++F) {
    unsigned Arity =
        std::min<unsigned>(1 + static_cast<unsigned>(Random.below(4)),
                           NumVars);
    std::vector<VarId> Scope;
    while (Scope.size() != Arity) {
      VarId V = static_cast<VarId>(Random.below(NumVars));
      if (std::find(Scope.begin(), Scope.end(), V) == Scope.end())
        Scope.push_back(V);
    }
    std::vector<double> Table(size_t{1} << Arity);
    for (double &W : Table)
      W = Random.uniform() < SatBias ? 0.9 : 0.1;
    G.addFactor(std::move(Scope), std::move(Table));
  }
  return G;
}

/// Brute-force satisfying-assignment count and per-variable true counts,
/// straight off the factor tables — the independent reference for both
/// enumeration paths.
uint64_t bruteCount(const FactorGraph &G, double Threshold,
                    std::vector<uint64_t> *TrueCounts = nullptr) {
  const unsigned NumVars = G.variableCount();
  uint64_t Satisfying = 0;
  for (uint64_t Index = 0; Index != (uint64_t{1} << NumVars); ++Index) {
    bool Ok = true;
    for (uint32_t F = 0; F != G.factorCount() && Ok; ++F) {
      const FactorGraph::Factor &Factor = G.factor(F);
      size_t TableIndex = 0;
      for (size_t Bit = 0; Bit != Factor.Scope.size(); ++Bit)
        if ((Index >> Factor.Scope[Bit]) & 1)
          TableIndex |= size_t{1} << Bit;
      Ok = Factor.Table[TableIndex] > Threshold;
    }
    if (!Ok)
      continue;
    ++Satisfying;
    if (TrueCounts)
      for (unsigned V = 0; V != NumVars; ++V)
        if ((Index >> V) & 1)
          ++(*TrueCounts)[V];
  }
  return Satisfying;
}

} // namespace

//===----------------------------------------------------------------------===//
// Backend selection API
//===----------------------------------------------------------------------===//

TEST(KernelBackendApi, UnknownNameRejectedWithoutSideEffects) {
  kern::setKernelBackend("scalar");
  Status S = kern::setKernelBackend("sse9");
  EXPECT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), ErrorCode::InvalidArgument);
  EXPECT_NE(S.message().find("sse9"), std::string::npos) << S.message();
  EXPECT_EQ(kern::activeKernelBackend(), kern::Backend::Scalar);
  kern::setKernelBackend("auto");
}

TEST(KernelBackendApi, ScalarAndAutoAlwaysAvailable) {
  EXPECT_TRUE(kern::setKernelBackend("scalar"));
  EXPECT_EQ(kern::activeKernelBackend(), kern::Backend::Scalar);
  EXPECT_STREQ(kern::kernelBackendName(kern::activeKernelBackend()),
               "scalar");
  EXPECT_TRUE(kern::setKernelBackend("auto"));
}

TEST(KernelBackendApi, UnavailableVectorBackendRejectedWithoutSideEffects) {
  kern::setKernelBackend("scalar");
  for (const char *Name : {"avx2", "neon"}) {
    Status S = kern::setKernelBackend(Name);
    if (S.isOk()) {
      // Available here: just restore and move on; the identity suites
      // below exercise it.
      kern::setKernelBackend("scalar");
      continue;
    }
    EXPECT_EQ(S.code(), ErrorCode::InvalidArgument) << Name;
    EXPECT_NE(S.message().find("not available"), std::string::npos)
        << S.message();
    EXPECT_EQ(kern::activeKernelBackend(), kern::Backend::Scalar) << Name;
  }
  kern::setKernelBackend("auto");
}

//===----------------------------------------------------------------------===//
// Scalar vs vector bit identity
//===----------------------------------------------------------------------===//

TEST(ScalarVectorIdentity, BpAcrossFiftySeeds) {
  const char *Vector = vectorBackendName();
  if (!Vector)
    GTEST_SKIP() << "no SIMD backend on this host";
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    const unsigned NumVars = 8 + static_cast<unsigned>(Seed) % 64;
    FactorGraph G = makeRandomGraph(NumVars, NumVars * 2, 0xB0'0000 + Seed);
    // Every fifth graph gets a hub variable with LogDomainMinDegree or
    // more pairwise factors to random other variables, which moves the
    // whole solve onto the split path: var pass, log-domain fixup,
    // scatter.
    const bool Split = Seed % 5 == 0;
    if (Split) {
      Rng Random(Seed);
      const VarId Hub = G.addVariable(0.3 + 0.4 * Random.uniform());
      const unsigned HubDegree =
          kern::LogDomainMinDegree + static_cast<unsigned>(Seed % 7);
      for (unsigned I = 0; I != HubDegree; ++I)
        G.addEqualityFactor(Hub, static_cast<VarId>(Random.below(NumVars)),
                            0.55 + 0.4 * Random.uniform());
    }

    SumProductSolver::Options O;
    O.MaxIterations = 30 + static_cast<unsigned>(Seed % 3) * 85;
    O.Damping = (Seed % 2) ? 0.15 : 0.0;
    SumProductSolver Solver(O);

    Marginals ScalarM, ScalarLik, VectorM, VectorLik;
    SolveReport ScalarR, VectorR;
    {
      BackendGuard Guard("scalar");
      ScalarM = Solver.solve(G, &ScalarLik, &ScalarR);
    }
    {
      BackendGuard Guard(Vector);
      VectorM = Solver.solve(G, &VectorLik, &VectorR);
    }
    const std::string What = "bp seed " + std::to_string(Seed) +
                             (Split ? " (split path)" : "");
    EXPECT_TRUE(bitsEqual(ScalarM, VectorM)) << What;
    EXPECT_TRUE(bitsEqual(ScalarLik, VectorLik)) << What;
    expectReportsIdentical(ScalarR, VectorR, What);
  }
}

TEST(ScalarVectorIdentity, GibbsAcrossFiftySeeds) {
  const char *Vector = vectorBackendName();
  if (!Vector)
    GTEST_SKIP() << "no SIMD backend on this host";
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    const unsigned NumVars = 6 + static_cast<unsigned>(Seed) % 48;
    FactorGraph G = makeRandomGraph(NumVars, NumVars * 2, 0x61'0000 + Seed);

    GibbsSolver::Options O;
    O.BurnIn = 5;
    O.Samples = 40;
    O.Seed = Seed * 77 + 1;
    GibbsSolver Solver(O);

    Marginals ScalarM, VectorM;
    SolveReport ScalarR, VectorR;
    {
      BackendGuard Guard("scalar");
      ScalarM = Solver.solve(G, &ScalarR);
    }
    {
      BackendGuard Guard(Vector);
      VectorM = Solver.solve(G, &VectorR);
    }
    const std::string What = "gibbs seed " + std::to_string(Seed);
    EXPECT_TRUE(bitsEqual(ScalarM, VectorM)) << What;
    expectReportsIdentical(ScalarR, VectorR, What);
  }
}

TEST(ScalarVectorIdentity, LogDomainHighDegreeStar) {
  // A hub variable far past LogDomainMinDegree: the plain product of its
  // 96 clamped incoming messages underflows toward 0, so the driver's
  // log-domain fixup has to carry the signal — and must do so outside
  // the backend seam, keeping cross-backend identity.
  constexpr unsigned Leaves = 96;
  static_assert(Leaves > kern::LogDomainMinDegree);
  FactorGraph G;
  VarId Hub = G.addVariable(0.7);
  for (unsigned L = 0; L != Leaves; ++L) {
    VarId Leaf = G.addVariable(L % 2 ? 0.9 : 0.1);
    G.addEqualityFactor(Hub, Leaf, 0.8);
  }

  SumProductSolver::Options O;
  O.MaxIterations = 50;
  SumProductSolver Solver(O);

  Marginals ScalarM, ScalarLik;
  SolveReport ScalarR;
  {
    BackendGuard Guard("scalar");
    ScalarM = Solver.solve(G, &ScalarLik, &ScalarR);
  }
  for (double P : ScalarM) {
    EXPECT_TRUE(std::isfinite(P));
    EXPECT_GE(P, 0.0);
    EXPECT_LE(P, 1.0);
  }
  // Balanced opposing evidence must not collapse to an exact endpoint —
  // the underflow symptom the log domain exists to prevent.
  EXPECT_GT(ScalarM[Hub], 0.0);
  EXPECT_LT(ScalarM[Hub], 1.0);

  if (const char *Vector = vectorBackendName()) {
    Marginals VectorM, VectorLik;
    SolveReport VectorR;
    BackendGuard Guard(Vector);
    VectorM = Solver.solve(G, &VectorLik, &VectorR);
    EXPECT_TRUE(bitsEqual(ScalarM, VectorM));
    EXPECT_TRUE(bitsEqual(ScalarLik, VectorLik));
    expectReportsIdentical(ScalarR, VectorR, "log-domain star");
  }
}

//===----------------------------------------------------------------------===//
// Bit-parallel exact enumeration
//===----------------------------------------------------------------------===//

TEST(ExactEnumeration, PackedAndSimplePathsMatchBruteForce) {
  ExactSolver Exact;
  // Variable counts straddling the 6-variable packed threshold: 3 and 5
  // take the scalar loop, the rest the popcount path.
  for (unsigned NumVars : {3u, 5u, 6u, 7u, 10u, 13u}) {
    for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
      FactorGraph G = makeLogicalGraph(NumVars, NumVars + 3,
                                       Seed * 131 + NumVars, 0.75);
      std::vector<uint64_t> Expected(NumVars, 0);
      const uint64_t Count = bruteCount(G, 0.5, &Expected);

      std::optional<uint64_t> Got = Exact.countSatisfying(G, 62);
      ASSERT_TRUE(Got.has_value()) << NumVars << "/" << Seed;
      EXPECT_EQ(*Got, Count) << NumVars << "/" << Seed;

      std::optional<Marginals> Logical = Exact.solveLogical(G, 62);
      if (Count == 0) {
        EXPECT_FALSE(Logical.has_value()) << NumVars << "/" << Seed;
        continue;
      }
      ASSERT_TRUE(Logical.has_value()) << NumVars << "/" << Seed;
      ASSERT_EQ(Logical->size(), NumVars);
      for (unsigned V = 0; V != NumVars; ++V)
        EXPECT_EQ((*Logical)[V], static_cast<double>(Expected[V]) /
                                     static_cast<double>(Count))
            << NumVars << "/" << Seed << " var " << V;
    }
  }
}

TEST(ExactEnumeration, WideFactorFallsBackToScalarLoop) {
  // One factor whose scope holds 13 variables with ids >= 6: its
  // per-high-combination word table would need 2^13 entries, so the
  // packed path must decline and the scalar loop carry the graph.
  const unsigned NumVars = 19;
  Rng Random(99);
  FactorGraph G;
  for (unsigned V = 0; V != NumVars; ++V)
    G.addVariable(0.5);
  std::vector<VarId> Wide;
  for (VarId V = 6; V != 19; ++V)
    Wide.push_back(V);
  std::vector<double> WideTable(size_t{1} << Wide.size());
  for (double &W : WideTable)
    W = Random.uniform() < 0.95 ? 0.9 : 0.1;
  G.addFactor(std::move(Wide), std::move(WideTable));
  G.addFactor({0, 1}, {0.9, 0.1, 0.1, 0.9});
  G.addFactor({2, 7}, {0.1, 0.9, 0.9, 0.9});

  std::vector<uint64_t> Expected(NumVars, 0);
  const uint64_t Count = bruteCount(G, 0.5, &Expected);
  ASSERT_GT(Count, 0u);

  ExactSolver Exact;
  std::optional<uint64_t> Got = Exact.countSatisfying(G, 62);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, Count);
  std::optional<Marginals> Logical = Exact.solveLogical(G, 62);
  ASSERT_TRUE(Logical.has_value());
  for (unsigned V = 0; V != NumVars; ++V)
    EXPECT_EQ((*Logical)[V], static_cast<double>(Expected[V]) /
                                 static_cast<double>(Count));
}

TEST(ExactEnumeration, LimitsBudgetsAndUnsat) {
  ExactSolver Exact;
  FactorGraph G = makeLogicalGraph(10, 12, 17, 0.8);

  // DNF on the variable limit, on both enumeration paths.
  EXPECT_FALSE(Exact.countSatisfying(G, 9).has_value());
  EXPECT_FALSE(Exact.solveLogical(G, 9).has_value());

  // DNF on an already-expired budget (checked at the first block).
  Deadline Expired = Deadline::afterSeconds(0.0);
  EXPECT_FALSE(Exact.countSatisfying(G, 62, 0.5, Expired).has_value());
  EXPECT_FALSE(Exact.solveLogical(G, 62, 0.5, Expired).has_value());

  // Unsatisfiable: a variable forced both true and false. The count is
  // an honest zero; the logical marginals are a DNF (division by the
  // solution count is meaningless).
  FactorGraph Unsat;
  for (unsigned V = 0; V != 8; ++V)
    Unsat.addVariable(0.5);
  Unsat.addFactor({0}, {0.1, 0.9}); // X0 must be true.
  Unsat.addFactor({0}, {0.9, 0.1}); // X0 must be false.
  std::optional<uint64_t> Zero = Exact.countSatisfying(Unsat, 62);
  ASSERT_TRUE(Zero.has_value());
  EXPECT_EQ(*Zero, 0u);
  EXPECT_FALSE(Exact.solveLogical(Unsat, 62).has_value());
}

TEST(ExactEnumeration, WeightedSolveMatchesJointWeight) {
  // ExactSolver::solve accumulates weighted mass in the same
  // multiplication and summation order as jointWeight over ascending
  // assignment indices — so the comparison is exact, not approximate.
  ExactSolver Exact;
  for (uint64_t Seed : {4u, 9u}) {
    FactorGraph G = makeRandomGraph(9, 14, Seed);
    Expected<Marginals> Got = Exact.solve(G);
    ASSERT_TRUE(Got.hasValue());

    const unsigned NumVars = G.variableCount();
    std::vector<double> TrueMass(NumVars, 0.0);
    double Total = 0.0;
    std::vector<bool> Assign(NumVars);
    for (uint64_t Index = 0; Index != (uint64_t{1} << NumVars); ++Index) {
      for (unsigned V = 0; V != NumVars; ++V)
        Assign[V] = (Index >> V) & 1;
      const double W = G.jointWeight(Assign);
      Total += W;
      for (unsigned V = 0; V != NumVars; ++V)
        if (Assign[V])
          TrueMass[V] += W;
    }
    for (unsigned V = 0; V != NumVars; ++V)
      EXPECT_EQ((*Got)[V], TrueMass[V] / Total) << Seed << "/" << V;
  }
}

//===----------------------------------------------------------------------===//
// Driver byte identity across backends
//===----------------------------------------------------------------------===//

namespace {

/// Runs the real `anek` binary, captures combined stdout+stderr, and
/// masks wall-clock substrings so byte comparison sees only semantic
/// output.
int runToolMasked(const std::string &ArgLine, std::string &Output) {
  fs::path Capture = fs::temp_directory_path() /
                     ("anek_simd_" + std::to_string(::getpid()) + ".out");
  std::string Cmd = std::string(ANEK_TOOL_PATH) + " " + ArgLine + " > " +
                    Capture.string() + " 2>&1";
  int RawStatus = std::system(Cmd.c_str());
  std::ifstream In(Capture);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  static const std::regex TimeRe("[0-9]+\\.[0-9]+s");
  Output = std::regex_replace(Buffer.str(), TimeRe, "TIMEs");
  std::error_code Ignored;
  fs::remove(Capture, Ignored);
  if (RawStatus == -1 || !WIFEXITED(RawStatus))
    return -1;
  return WEXITSTATUS(RawStatus);
}

} // namespace

TEST(DriverBackendIdentity, ForcedScalarMatchesDefaultBytes) {
  for (const char *Jobs : {"1", "4"}) {
    std::string Base = std::string("infer --example file --report -j ") +
                       Jobs;
    std::string Default, FlagScalar;
    ASSERT_EQ(runToolMasked(Base, Default), 0) << Default;
    ASSERT_EQ(runToolMasked(Base + " --kernel-backend scalar", FlagScalar), 0)
        << FlagScalar;
    EXPECT_EQ(Default, FlagScalar)
        << "-j" << Jobs << ": --kernel-backend scalar changed driver output";
  }
}

TEST(DriverBackendIdentity, BadBackendFlagFailsCleanly) {
  std::string Output;
  int Exit =
      runToolMasked("infer --example file --kernel-backend sse9", Output);
  EXPECT_NE(Exit, 0);
  EXPECT_NE(Output.find("sse9"), std::string::npos) << Output;
}
