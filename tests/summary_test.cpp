//===- summary_test.cpp - Unit tests for probabilistic summaries -----------===//

#include "infer/Summary.h"
#include "infer/SummaryIO.h"
#include "support/Hash.h"
#include "lang/Sema.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <random>

using namespace anek;

TEST(OddsTest, RoundTrip) {
  for (double P : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    EXPECT_NEAR(oddsToProb(probToOdds(P)), P, 1e-9);
  }
  EXPECT_DOUBLE_EQ(probToOdds(0.5), 1.0);
  EXPECT_GT(probToOdds(0.9), 1.0);
  EXPECT_LT(probToOdds(0.1), 1.0);
}

namespace {

std::unique_ptr<Program> analyze(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = parseAndAnalyze(Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

} // namespace

TEST(TargetSummaryTest, NeutralByDefault) {
  auto Prog = analyze("class A { }");
  TargetSummary T(Prog->findType("A"));
  EXPECT_EQ(T.size(), NumPermKinds + 1); // Kinds + ALIVE.
  for (double P : T.pooled())
    EXPECT_NEAR(P, 0.5, 1e-9);
}

TEST(TargetSummaryTest, DeclaredPrior) {
  auto Prog = analyze("@States({\"OPEN\"}) class A { }");
  TargetSummary T(Prog->findType("A"));
  T.setDeclaredPrior(PermState{PermKind::Full, "OPEN"}, 0.9, 0.1);
  std::vector<double> P = T.pooled();
  EXPECT_NEAR(P[static_cast<unsigned>(PermKind::Full)], 0.9, 1e-9);
  EXPECT_NEAR(P[static_cast<unsigned>(PermKind::Unique)], 0.1, 1e-9);
  // States: [ALIVE, OPEN]; OPEN named.
  EXPECT_NEAR(P[NumPermKinds + 1], 0.9, 1e-9);
  EXPECT_NEAR(P[NumPermKinds + 0], 0.1, 1e-9);
}

TEST(TargetSummaryTest, EmptyStateMeansAlive) {
  auto Prog = analyze("@States({\"OPEN\"}) class A { }");
  TargetSummary T(Prog->findType("A"));
  T.setDeclaredPrior(PermState{PermKind::Pure, ""}, 0.9, 0.1);
  std::vector<double> P = T.pooled();
  EXPECT_NEAR(P[NumPermKinds + 0], 0.9, 1e-9); // ALIVE high.
  EXPECT_NEAR(P[NumPermKinds + 1], 0.1, 1e-9); // OPEN low.
}

TEST(TargetSummaryTest, OddsPooling) {
  auto Prog = analyze("class A { }");
  TargetSummary T(Prog->findType("A"));
  // Two independent sources both vote 3:1 for unique: pooled odds 9:1.
  std::vector<double> Odds(T.size(), 1.0);
  Odds[0] = 3.0;
  T.setSelfOdds(Odds);
  T.setSiteOdds({nullptr, 0}, Odds);
  EXPECT_NEAR(T.pooled()[0], 0.9, 1e-9);
}

TEST(TargetSummaryTest, CavityExcludesOneSource) {
  auto Prog = analyze("class A { }");
  TargetSummary T(Prog->findType("A"));
  std::vector<double> Odds(T.size(), 1.0);
  Odds[0] = 9.0;
  T.setSelfOdds(Odds);
  T.setSiteOdds({nullptr, 1}, Odds);
  // Full pool: odds 81 -> ~0.988.
  EXPECT_GT(T.pooled()[0], 0.98);
  // Without self: only the site's 9.
  EXPECT_NEAR(T.pooledWithoutSelf()[0], 0.9, 1e-9);
  // Without the site: only self.
  EXPECT_NEAR(T.pooledWithoutSite({nullptr, 1})[0], 0.9, 1e-9);
  // Excluding a different site changes nothing.
  EXPECT_GT(T.pooledWithoutSite({nullptr, 2})[0], 0.98);
}

TEST(TargetSummaryTest, SetOddsReportsDelta) {
  auto Prog = analyze("class A { }");
  TargetSummary T(Prog->findType("A"));
  std::vector<double> Odds(T.size(), 1.0);
  Odds[0] = 9.0;
  double Delta = T.setSelfOdds(Odds);
  EXPECT_NEAR(Delta, 0.4, 1e-9); // 0.5 -> 0.9.
  // Re-setting the same evidence changes nothing.
  EXPECT_NEAR(T.setSelfOdds(Odds), 0.0, 1e-9);
}

TEST(TargetSummaryTest, StoreOddsStoresWhatTheSettersStore) {
  // The merge stores an already-requeued owner's updates through
  // storeOdds; the evidence must be exactly what the measuring setters
  // keep, short odds vectors padded the same way.
  auto Prog = analyze("@States({\"OPEN\", \"CLOSED\"}) class F { }");
  TargetSummary Set(Prog->findType("F")), Stored(Prog->findType("F"));
  std::vector<double> Self(Set.size(), 1.0), Site(Set.size(), 1.0);
  Self[1] = 3.0;
  Site[NumPermKinds + 1] = 0.25;
  std::vector<double> Short = {7.0, 0.5};
  Set.setSelfOdds(Self);
  Set.setSiteOdds({nullptr, 4}, Site);
  Set.setSiteOdds({nullptr, 2}, Short);
  Set.setSiteOdds({nullptr, 4}, Short); // Overwrites site 4.
  Stored.storeOdds(/*IsSelf=*/true, {nullptr, 0}, Self);
  Stored.storeOdds(/*IsSelf=*/false, {nullptr, 4}, Site);
  Stored.storeOdds(/*IsSelf=*/false, {nullptr, 2}, Short);
  Stored.storeOdds(/*IsSelf=*/false, {nullptr, 4}, Short);
  auto BitsEqual = [](const std::vector<double> &A,
                      const std::vector<double> &B) {
    return A.size() == B.size() &&
           std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(BitsEqual(Set.pooled(), Stored.pooled()));
  EXPECT_TRUE(BitsEqual(Set.pooledWithoutSelf(), Stored.pooledWithoutSelf()));
  for (uint32_t Index : {0u, 2u, 4u})
    EXPECT_TRUE(BitsEqual(Set.pooledWithoutSite({nullptr, Index}),
                          Stored.pooledWithoutSite({nullptr, Index})))
        << "site " << Index;
}

TEST(TargetSummaryTest, ConflictingVotesMajorityWins) {
  // The paper's createColIter story in miniature: one site votes for
  // HASNEXT, two vote against; pooled probability ends low.
  auto Prog = analyze("@States({\"HASNEXT\"}) class It { }");
  TargetSummary T(Prog->findType("It"));
  size_t HasNextIdx = NumPermKinds + 1;
  std::vector<double> For(T.size(), 1.0), Against(T.size(), 1.0);
  For[HasNextIdx] = 9.0;
  Against[HasNextIdx] = 1.0 / 9.0;
  T.setSiteOdds({nullptr, 0}, For);
  T.setSiteOdds({nullptr, 1}, Against);
  T.setSiteOdds({nullptr, 2}, Against);
  EXPECT_LT(T.pooled()[HasNextIdx], 0.2);
}

TEST(TargetSummaryTest, FlatPoolingMatchesSequentialProductBitExact) {
  // Ten callers, each with 30 call sites into C.use's parameter: 300
  // sites, stored in shuffled order, some of them re-set afterwards.
  std::string Source = "@States({\"OPEN\", \"DONE\"}) class It { }\n"
                       "class C {\n"
                       "  @Perm(requires=\"full(p) in OPEN\")\n"
                       "  void use(It p) { }\n";
  for (unsigned I = 0; I != 10; ++I)
    Source += "  void caller" + std::to_string(I) + "() { }\n";
  Source += "}\n";
  auto Prog = analyze(Source);
  TypeDecl *C = Prog->findType("C");
  MethodDecl *Use = C->findMethod("use", 1);
  std::vector<const MethodDecl *> Callers;
  for (const auto &M : C->Methods)
    if (M.get() != Use)
      Callers.push_back(M.get());
  ASSERT_EQ(Callers.size(), 10u);

  MethodDeclMap<MethodSummary> Store;
  for (const auto &M : C->Methods)
    Store.emplace(M.get(), MethodSummary::forMethod(*M, 0.9, 0.1));
  TargetSummary &T = *Store.at(Use).ParamPre[0];
  const size_t N = T.size();
  ASSERT_EQ(N, NumPermKinds + 3); // Kinds + ALIVE, OPEN, DONE.

  // The prior setDeclaredPrior seeds for "full(p) in OPEN".
  std::vector<double> Prior(N, 0.1);
  Prior[static_cast<unsigned>(PermKind::Full)] = 0.9;
  Prior[NumPermKinds + 1] = 0.9;

  std::mt19937_64 Rng(13);
  std::uniform_real_distribution<double> LogOdds(-std::log(9.0),
                                                 std::log(9.0));
  auto RandomOdds = [&] {
    std::vector<double> Odds(N);
    for (double &O : Odds)
      O = std::exp(LogOdds(Rng));
    return Odds;
  };

  std::vector<CallSiteKey> Keys;
  for (const MethodDecl *Caller : Callers)
    for (uint32_t Site = 0; Site != 30; ++Site)
      Keys.emplace_back(Caller, Site);
  std::shuffle(Keys.begin(), Keys.end(), Rng);

  std::vector<double> Self = RandomOdds();
  T.setSelfOdds(Self);
  std::map<CallSiteKey, std::vector<double>, CallSiteOrder> Reference;
  for (const CallSiteKey &Key : Keys) {
    Reference[Key] = RandomOdds();
    T.setSiteOdds(Key, Reference[Key]);
  }
  for (size_t I = 0; I != 60; ++I) {
    const CallSiteKey &Key = Keys[(I * 37) % Keys.size()];
    Reference[Key] = RandomOdds();
    T.setSiteOdds(Key, Reference[Key]);
  }
  ASSERT_EQ(Reference.size(), 300u);

  // The reference product, element by element: prior, self, then every
  // site in CallSiteOrder.
  auto Expected = [&](bool SkipSelf, const CallSiteKey *SkipSite) {
    std::vector<double> Out(N);
    for (size_t I = 0; I != N; ++I) {
      double Odds = probToOdds(Prior[I]);
      if (!SkipSelf)
        Odds *= Self[I];
      for (const auto &[Key, SiteOdds] : Reference)
        if (!SkipSite || Key != *SkipSite)
          Odds *= SiteOdds[I];
      Out[I] = oddsToProb(Odds);
    }
    return Out;
  };
  auto SameBits = [](const std::vector<double> &A,
                     const std::vector<double> &B) {
    return A.size() == B.size() &&
           std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(SameBits(T.pooled(), Expected(false, nullptr)));
  EXPECT_TRUE(SameBits(T.pooledWithoutSelf(), Expected(true, nullptr)));
  for (const CallSiteKey &Key : Keys)
    ASSERT_TRUE(SameBits(T.pooledWithoutSite(Key), Expected(false, &Key)))
        << Key.first->Name << " site " << Key.second;
  // A site without evidence leaves nothing out.
  const CallSiteKey Unknown{Callers.front(), 99};
  EXPECT_TRUE(SameBits(T.pooledWithoutSite(Unknown), T.pooled()));

  // The snapshot encodes the evidence, not its history: a store given
  // only the final odds, in CallSiteOrder, encodes and hashes the same.
  MethodDeclMap<MethodSummary> Rebuilt;
  for (const auto &M : C->Methods)
    Rebuilt.emplace(M.get(), MethodSummary::forMethod(*M, 0.9, 0.1));
  TargetSummary &Back = *Rebuilt.at(Use).ParamPre[0];
  Back.setSelfOdds(Self);
  for (const auto &[Key, SiteOdds] : Reference)
    Back.setSiteOdds(Key, SiteOdds);
  const std::string Blob = summaryio::encodeSnapshot(Store);
  EXPECT_EQ(summaryio::encodeSnapshot(Rebuilt), Blob);
  HashStream StoreHash, RebuiltHash;
  summaryio::hashSnapshot(StoreHash, Store);
  summaryio::hashSnapshot(RebuiltHash, Rebuilt);
  EXPECT_EQ(RebuiltHash.digest(), StoreHash.digest());
  EXPECT_TRUE(SameBits(Back.pooled(), T.pooled()));

  // One differing odds bit changes both the bytes and the digest.
  std::vector<double> Nudged = Reference.begin()->second;
  Nudged[0] = std::nextafter(Nudged[0], 2.0 * Nudged[0]);
  Back.setSiteOdds(Reference.begin()->first, Nudged);
  EXPECT_NE(summaryio::encodeSnapshot(Rebuilt), Blob);
  HashStream NudgedHash;
  summaryio::hashSnapshot(NudgedHash, Rebuilt);
  EXPECT_NE(NudgedHash.digest(), StoreHash.digest());
}

//===----------------------------------------------------------------------===//
// MethodSummary and extraction
//===----------------------------------------------------------------------===//

TEST(MethodSummaryTest, SkeletonForMethod) {
  auto Prog = analyze(R"mj(
class A {
  @Perm(requires="full(this)", ensures="full(this) * unique(result)")
  A m(A p, int k) { return p; }
}
)mj");
  MethodDecl *M = Prog->findType("A")->findMethod("m", 2);
  MethodSummary S = MethodSummary::forMethod(*M, 0.9, 0.1);
  ASSERT_TRUE(S.RecvPre.has_value());
  ASSERT_TRUE(S.ParamPre[0].has_value());
  EXPECT_FALSE(S.ParamPre[1].has_value()); // int param.
  ASSERT_TRUE(S.Result.has_value());
  EXPECT_NEAR(S.RecvPre->pooled()[static_cast<unsigned>(PermKind::Full)],
              0.9, 1e-9);
  EXPECT_NEAR(S.Result->pooled()[static_cast<unsigned>(PermKind::Unique)],
              0.9, 1e-9);
}

TEST(MethodSummaryTest, StaticMethodHasNoReceiver) {
  auto Prog = analyze("class A { static int m() { return 1; } }");
  MethodDecl *M = Prog->findType("A")->findMethod("m", 0);
  MethodSummary S = MethodSummary::forMethod(*M, 0.9, 0.1);
  EXPECT_FALSE(S.RecvPre.has_value());
  EXPECT_FALSE(S.Result.has_value()); // int result.
}

TEST(MethodSummaryTest, CtorResultIsReceiverPost) {
  auto Prog = analyze(R"mj(
class A {
  @Perm(ensures="unique(this)")
  A(int x) { }
}
)mj");
  MethodDecl *Ctor = Prog->findType("A")->Methods[0].get();
  ASSERT_TRUE(Ctor->IsCtor);
  MethodSummary S = MethodSummary::forMethod(*Ctor, 0.9, 0.1);
  ASSERT_TRUE(S.Result.has_value());
  EXPECT_NEAR(S.Result->pooled()[static_cast<unsigned>(PermKind::Unique)],
              0.9, 1e-9);
}

TEST(ExtractTest, ThresholdGates) {
  std::vector<double> P = {0.65, 0.5, 0.5, 0.5, 0.5};
  EXPECT_FALSE(extractPermState(P, {}, 0.7).has_value());
  P[0] = 0.75;
  auto PS = extractPermState(P, {}, 0.7);
  ASSERT_TRUE(PS.has_value());
  EXPECT_EQ(PS->Kind, PermKind::Unique);
}

TEST(ExtractTest, ArgmaxKindAndState) {
  std::vector<double> P = {0.2, 0.9, 0.2, 0.3, 0.8,
                           /*ALIVE*/ 0.3, /*HASNEXT*/ 0.85};
  auto PS = extractPermState(P, {"ALIVE", "HASNEXT"}, 0.7);
  ASSERT_TRUE(PS.has_value());
  EXPECT_EQ(PS->Kind, PermKind::Full);
  EXPECT_EQ(PS->State, "HASNEXT");
}

TEST(ExtractTest, AliveWinnerMeansNoStateAtom) {
  std::vector<double> P = {0.2, 0.9, 0.2, 0.3, 0.8,
                           /*ALIVE*/ 0.95, /*HASNEXT*/ 0.2};
  auto PS = extractPermState(P, {"ALIVE", "HASNEXT"}, 0.7);
  ASSERT_TRUE(PS.has_value());
  EXPECT_TRUE(PS->State.empty());
}

TEST(ExtractTest, PreferUniqueForResults) {
  std::vector<double> P = {0.85, 0.9, 0.1, 0.1, 0.1};
  auto Plain = extractPermState(P, {}, 0.7, /*PreferUnique=*/false);
  ASSERT_TRUE(Plain.has_value());
  EXPECT_EQ(Plain->Kind, PermKind::Full);
  auto Pref = extractPermState(P, {}, 0.7, /*PreferUnique=*/true);
  ASSERT_TRUE(Pref.has_value());
  EXPECT_EQ(Pref->Kind, PermKind::Unique);
  // A decisive full lead is respected even with the preference.
  P[0] = 0.72;
  auto Decisive = extractPermState(P, {}, 0.7, /*PreferUnique=*/true);
  EXPECT_EQ(Decisive->Kind, PermKind::Full);
}

TEST(ExtractTest, SpecFromSummary) {
  auto Prog = analyze("class A { A m(A p) { return p; } }");
  MethodDecl *M = Prog->findType("A")->findMethod("m", 1);
  MethodSummary S = MethodSummary::forMethod(*M, 0.9, 0.1);
  std::vector<double> Odds(S.ParamPre[0]->size(), 1.0);
  Odds[static_cast<unsigned>(PermKind::Share)] = 9.0;
  S.ParamPre[0]->setSelfOdds(Odds);
  MethodSpec Spec = extractSpec(S, 1, 0.7);
  ASSERT_TRUE(Spec.ParamPre[0].has_value());
  EXPECT_EQ(Spec.ParamPre[0]->Kind, PermKind::Share);
  EXPECT_FALSE(Spec.ReceiverPre.has_value());
}

TEST(ExtractTest, ThresholdBoundsAsserted) {
  auto Prog = analyze("class A { void m(A p) { } }");
  MethodDecl *M = Prog->findType("A")->findMethod("m", 1);
  MethodSummary S = MethodSummary::forMethod(*M, 0.9, 0.1);
  // t in [0.5, 1) per Figure 9 — valid calls work:
  MethodSpec Spec = extractSpec(S, 1, 0.5);
  EXPECT_TRUE(Spec.isEmpty());
}
