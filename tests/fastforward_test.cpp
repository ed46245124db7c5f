//===- fastforward_test.cpp - Limit-cycle fast-forward exactness -----------===//
//
// Part of the ANEK reproduction. See README.md.
//
// When a phase-2 round ends in a state an earlier round ended in, the
// engine credits whole cycle periods up to the pick cap without solving
// them (DESIGN.md, "Concurrency model"). The contract is exactness: the
// run must end exactly where the fully solved run ends, with the same
// summaries, specs, per-method reports and accounting. The reference is
// the same run with the fast-forward gated off through the replayable-
// solve gate: a per-solve budget so large it never expires.
//
//===----------------------------------------------------------------------===//

#include "corpus/InlineComparison.h"
#include "corpus/PmdGenerator.h"
#include "infer/AnekInfer.h"
#include "infer/SummaryIO.h"
#include "lang/PrettyPrinter.h"
#include "lang/Sema.h"
#include "support/FaultInject.h"

#include <cstring>
#include <gtest/gtest.h>
#include <sstream>

using namespace anek;

namespace {

/// The 90-method PMD-style corpus of determinism_test.cpp. At its
/// default cap (270 picks) it never repeats a round-boundary state; past
/// ~900 picks it runs a 12-round orbit.
std::string smallPmdSource() {
  PmdConfig Config;
  Config.Classes = 22;
  Config.Methods = 90;
  Config.Wrappers = 3;
  Config.DirectSites = 6;
  Config.WrapperConsumerSites = 4;
  return generatePmdCorpus(Config).Source;
}

struct RunOutcome {
  /// Everything the contract compares, as bytes: the summary snapshot,
  /// the specs, every method's report (residual as its bit pattern) and
  /// the run counters.
  std::string Rendered;
  unsigned FastForwardedPicks = 0;
  unsigned CyclePeriodRounds = 0;
  unsigned CycleDetectedRound = 0;
  Phase2End Ending = Phase2End::Fixpoint;
  unsigned DirtyAtExit = 0;
};

RunOutcome infer(const std::string &Source, unsigned MaxIters, unsigned Jobs,
          bool Reference = false) {
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  if (!Prog)
    return {};
  InferOptions Opts;
  Opts.MaxIters = MaxIters;
  Opts.Parallelism = Jobs;
  if (Reference)
    Opts.SolveBudgetSeconds = 1e9;
  InferResult R = runAnekInfer(*Prog, Opts, &Diags);

  std::ostringstream Out;
  Out << summaryio::encodeSnapshot(R.Summaries) << "\n";
  PrintOptions POpts;
  POpts.SpecFor = [&](const MethodDecl &M) { return *R.specFor(&M); };
  Out << printProgram(*Prog, POpts);
  for (const auto &[M, Report] : R.Reports) {
    uint64_t ResidualBits;
    std::memcpy(&ResidualBits, &Report.Solve.Residual, sizeof ResidualBits);
    Out << M->qualifiedName() << ": solves=" << Report.Solves
        << " used=" << solverChoiceName(Report.Used)
        << " fallback=" << Report.Fallback
        << " iters=" << Report.Solve.Iterations
        << " residual=" << ResidualBits << "\n";
  }
  Out << "picks=" << R.WorklistPicks << " vars=" << R.TotalVariables
      << " factors=" << R.TotalFactors << " fallbacks=" << R.FallbackSolves
      << " ending=" << phase2EndName(R.Ending)
      << " dirty=" << R.DirtyAtExit << "\n"
      << Diags.str();

  RunOutcome Result;
  Result.Rendered = Out.str();
  Result.FastForwardedPicks = R.FastForwardedPicks;
  Result.CyclePeriodRounds = R.CyclePeriodRounds;
  Result.CycleDetectedRound = R.CycleDetectedRound;
  Result.Ending = R.Ending;
  Result.DirtyAtExit = R.DirtyAtExit;
  return Result;
}

/// Runs \p MaxIters with and without the fast-forward and expects equal
/// bytes. Returns the fast-forwarded run.
RunOutcome expectExactAt(const std::string &Source, unsigned MaxIters) {
  RunOutcome Fast = infer(Source, MaxIters, 1);
  RunOutcome Reference = infer(Source, MaxIters, 1, /*Reference=*/true);
  EXPECT_EQ(Reference.FastForwardedPicks, 0u) << "gate left it on";
  EXPECT_EQ(Reference.CyclePeriodRounds, 0u);
  EXPECT_EQ(Fast.Rendered, Reference.Rendered) << "MaxIters=" << MaxIters;
  return Fast;
}

} // namespace

TEST(FastForwardTest, MatchesTheSolvedRunAcrossOnePeriod) {
  const std::string Source = smallPmdSource();

  RunOutcome At2000 = expectExactAt(Source, 2000);
  EXPECT_GT(At2000.FastForwardedPicks, 0u);
  EXPECT_GT(At2000.CyclePeriodRounds, 0u);
  EXPECT_GT(At2000.CycleDetectedRound, At2000.CyclePeriodRounds);
  EXPECT_EQ(At2000.Ending, Phase2End::PickCap);
  EXPECT_GT(At2000.DirtyAtExit, 0u);
  RunOutcome At900 = expectExactAt(Source, 900);
  EXPECT_GT(At900.FastForwardedPicks, 0u);

  // The smallest cap with a skipped period is detection picks + one
  // period: there the remainder after the skip is 0. Fast-forwarded
  // picks are monotone in the cap, so bisect for it.
  unsigned Lo = 1, Hi = 900;
  while (Lo < Hi) {
    unsigned Mid = Lo + (Hi - Lo) / 2;
    if (infer(Source, Mid, 1).FastForwardedPicks)
      Hi = Mid;
    else
      Lo = Mid + 1;
  }
  const unsigned FirstSkip = Lo;
  const unsigned Period = infer(Source, FirstSkip, 1).FastForwardedPicks;
  ASSERT_GT(Period, 2u);
  ASSERT_LT(Period, FirstSkip);

  // Remainders 0, 1, a third, two thirds and P - 1 of a period, the last
  // cap with nothing to skip, and two whole periods.
  for (unsigned Cap : {FirstSkip - 1, FirstSkip, FirstSkip + 1,
                       FirstSkip + Period / 3, FirstSkip + 2 * Period / 3,
                       FirstSkip + Period - 1, FirstSkip + Period}) {
    RunOutcome Fast = expectExactAt(Source, Cap);
    unsigned WholePeriods = (Cap - (FirstSkip - Period)) / Period;
    EXPECT_EQ(Fast.FastForwardedPicks, WholePeriods * Period)
        << "MaxIters=" << Cap;
  }
}

TEST(FastForwardTest, ParallelMatchesSequential) {
  const std::string Source = smallPmdSource();
  RunOutcome J1 = infer(Source, 2000, 1);
  RunOutcome J4 = infer(Source, 2000, 4);
  EXPECT_GT(J1.FastForwardedPicks, 0u);
  EXPECT_EQ(J1.Rendered, J4.Rendered);
  EXPECT_EQ(J1.FastForwardedPicks, J4.FastForwardedPicks);
}

TEST(FastForwardTest, NoCycleNoSkip) {
  // The Table 3 helper chain never repeats a round-boundary state under
  // its default cap; neither does the PMD corpus under its own.
  RunOutcome Chain = infer(generateInlineComparison(48).Modular, 0, 1);
  EXPECT_EQ(Chain.FastForwardedPicks, 0u);
  EXPECT_EQ(Chain.CyclePeriodRounds, 0u);
  EXPECT_EQ(Chain.CycleDetectedRound, 0u);
  RunOutcome Pmd = infer(smallPmdSource(), 0, 1);
  EXPECT_EQ(Pmd.FastForwardedPicks, 0u);
  EXPECT_EQ(Pmd.Ending, Phase2End::PickCap);
}

TEST(FastForwardTest, PerturbingFaultGatesItOff) {
  // A filter no method matches: nothing fires, but the kind is armed, so
  // solves no longer count as replayable and every pick is solved.
  const std::string Source = smallPmdSource();
  faults::ScopedFault Armed(FaultKind::BpNonConvergence, "No.suchMethod");
  RunOutcome Gated = infer(Source, 900, 1);
  EXPECT_EQ(Gated.FastForwardedPicks, 0u);
  EXPECT_EQ(Gated.CyclePeriodRounds, 0u);
}

TEST(FastForwardTest, FixpointReportsNoDirtyMethods) {
  // A program whose summaries settle ends at a fixpoint, not the cap.
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(
      "class A { void f() { } }\nclass B { void g(A a) { a.f(); } }\n", Diags);
  ASSERT_TRUE(Prog != nullptr) << Diags.str();
  InferResult R = runAnekInfer(*Prog, InferOptions(), &Diags);
  EXPECT_EQ(R.Ending, Phase2End::Fixpoint);
  EXPECT_EQ(R.DirtyAtExit, 0u);
  EXPECT_LT(R.WorklistPicks, 6u);
}
