//===- bp_split_test.cpp - Pool-split BP solves are bit-identical ----------===//
//
// Part of the ANEK reproduction. See README.md.
//
// SumProductSolver::solve with a thread pool cuts every pass of every
// iteration into one edge-balanced range per pool thread (DESIGN.md,
// "Concurrency model"). The contract is bit identity with the serial
// loop: marginals, graph likelihoods, iterations, residual and message
// count must not change with the pool size or the kernel backend. Both
// variable passes are covered: the fused one, and the log-domain one a
// variable of degree >= kern::LogDomainMinDegree switches on.
//
//===----------------------------------------------------------------------===//

#include "factor/FactorGraph.h"
#include "factor/Kernels.h"
#include "factor/Solvers.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <cstring>
#include <gtest/gtest.h>
#include <memory>

using namespace anek;

namespace {

/// A loopy graph above the split floor: a chain of soft equalities with
/// random pairwise and ternary factors across it, and random priors.
/// With \p Hub, one extra variable joins kern::LogDomainMinDegree + 9
/// unary-plus-link factors, so the log-domain variable pass runs.
FactorGraph splitGraph(bool Hub) {
  Rng Random(Hub ? 0xB0B : 0xA11CE);
  FactorGraph G;
  constexpr unsigned NumVars = 6000;
  for (unsigned V = 0; V != NumVars; ++V)
    G.addVariable(0.2 + 0.6 * Random.uniform());
  auto Pick = [&] { return static_cast<VarId>(Random.next() % NumVars); };
  for (unsigned V = 0; V + 1 != NumVars; ++V)
    G.addEqualityFactor(V, V + 1, 0.6 + 0.3 * Random.uniform());
  for (unsigned F = 0; F != 2500; ++F) {
    VarId A = Pick(), B = Pick(), C = Pick();
    if (A == B || B == C || A == C)
      continue;
    std::vector<double> Table(8);
    for (double &W : Table)
      W = 0.1 + 0.8 * Random.uniform();
    G.addFactor({A, B, C}, std::move(Table));
  }
  if (Hub) {
    const VarId H = G.addVariable(0.5);
    for (unsigned K = 0; K != kern::LogDomainMinDegree + 9; ++K)
      G.addEqualityFactor(H, Pick(), 0.55 + 0.1 * Random.uniform());
  }
  return G;
}

/// Scoped backend selection; restores auto-detection on exit.
struct BackendGuard {
  explicit BackendGuard(const char *Name) : Ok(kern::setKernelBackend(Name)) {}
  ~BackendGuard() { kern::setKernelBackend("auto"); }
  bool Ok;
};

struct Outcome {
  Marginals Beliefs, Likelihood;
  SolveReport Report;
};

Outcome solve(const FactorGraph &G, ThreadPool *Pool) {
  Outcome Out;
  Out.Beliefs =
      SumProductSolver().solve(G, &Out.Likelihood, &Out.Report, Pool);
  return Out;
}

bool bitsEqual(const Marginals &A, const Marginals &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

void expectIdentical(const Outcome &Ref, const Outcome &Got,
                     const std::string &What) {
  EXPECT_TRUE(bitsEqual(Ref.Beliefs, Got.Beliefs)) << What;
  EXPECT_TRUE(bitsEqual(Ref.Likelihood, Got.Likelihood)) << What;
  EXPECT_EQ(Ref.Report.Iterations, Got.Report.Iterations) << What;
  EXPECT_EQ(std::memcmp(&Ref.Report.Residual, &Got.Report.Residual,
                        sizeof(double)),
            0)
      << What << ": " << Ref.Report.Residual << " vs "
      << Got.Report.Residual;
  EXPECT_EQ(Ref.Report.Updates, Got.Report.Updates) << What;
  EXPECT_EQ(Ref.Report.Converged, Got.Report.Converged) << What;
}

void checkSplitIdentity(bool Hub) {
  const FactorGraph G = splitGraph(Hub);
  ASSERT_GE(G.edgeLayout().edgeCount(), SumProductSolver::SplitMinEdges);
  ASSERT_EQ(G.edgeLayout().MaxVarDegree >= kern::LogDomainMinDegree, Hub);

  Outcome Ref;
  {
    BackendGuard Scalar("scalar");
    ASSERT_TRUE(Scalar.Ok);
    Ref = solve(G, nullptr);
  }
  // More than a handful of iterations, so a range boundary that dropped
  // or duplicated a message would have compounded.
  ASSERT_GT(Ref.Report.Iterations, 10u);

  std::vector<std::unique_ptr<ThreadPool>> Pools;
  for (unsigned Threads : {2u, 3u, 4u})
    Pools.push_back(std::make_unique<ThreadPool>(Threads));
  for (const char *Backend : {"scalar", "avx2", "neon"}) {
    BackendGuard Guard(Backend);
    if (!Guard.Ok)
      continue; // Not available on this host.
    expectIdentical(Ref, solve(G, nullptr),
                    std::string(Backend) + ", no pool");
    for (const auto &Pool : Pools)
      expectIdentical(Ref, solve(G, Pool.get()),
                      std::string(Backend) + ", pool of " +
                          std::to_string(Pool->threadCount()));
  }
}

} // namespace

TEST(BpSplitTest, FusedVariablePassIsBitIdenticalAtAnyPoolSize) {
  checkSplitIdentity(/*Hub=*/false);
}

TEST(BpSplitTest, LogDomainVariablePassIsBitIdenticalAtAnyPoolSize) {
  checkSplitIdentity(/*Hub=*/true);
}

TEST(BpSplitTest, SmallGraphAndOneThreadPoolStayOnTheSerialLoop) {
  // Below the floor, or with nothing to split across, the pool must not
  // change anything either (the solve never hands it work).
  FactorGraph G;
  VarId A = G.addVariable(0.8), B = G.addVariable(0.3),
        C = G.addVariable(0.5);
  G.addEqualityFactor(A, B, 0.9);
  G.addEqualityFactor(B, C, 0.8);
  G.addEqualityFactor(C, A, 0.7);
  ThreadPool One(1), Four(4);
  const Outcome Ref = solve(G, nullptr);
  expectIdentical(Ref, solve(G, &One), "pool of 1");
  expectIdentical(Ref, solve(G, &Four), "below the floor");
}
