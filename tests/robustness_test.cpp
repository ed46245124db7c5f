//===- robustness_test.cpp - Fault tolerance and degradation ---------------===//
//
// The failure-model suite (DESIGN.md, "Failure model and degradation"):
// malformed inputs must produce diagnostics (never aborts), solver budgets
// must expire cleanly, the fallback cascade must engage when belief
// propagation misses its convergence contract, and one poisoned method
// must never take whole-program inference down.
//
//===----------------------------------------------------------------------===//

#include "corpus/ExampleSources.h"
#include "factor/Solvers.h"
#include "infer/AnekInfer.h"
#include "infer/GlobalInfer.h"
#include "lang/Sema.h"
#include "support/Deadline.h"
#include "support/FaultInject.h"
#include "support/Rational.h"
#include "support/Status.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <limits>
#include <set>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace anek;

namespace {

namespace fs = std::filesystem;

/// Every .mjava file in the malformed-input corpus.
std::vector<fs::path> corpusFiles() {
  std::vector<fs::path> Files;
  for (const auto &Entry : fs::directory_iterator(ANEK_CORPUS_DIR))
    if (Entry.path().extension() == ".mjava")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

/// Runs the real `anek` binary; returns its exit code (-1 on signal /
/// abnormal termination) and captures combined stdout+stderr.
int runTool(const std::string &ArgLine, std::string *Output = nullptr) {
  fs::path Capture =
      fs::temp_directory_path() /
      ("anek_robustness_" + std::to_string(::getpid()) + ".out");
  std::string Cmd = std::string(ANEK_TOOL_PATH) + " " + ArgLine + " > " +
                    Capture.string() + " 2>&1";
  int RawStatus = std::system(Cmd.c_str());
  if (Output) {
    std::ifstream In(Capture);
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    *Output = Buffer.str();
  }
  std::error_code Ignored;
  fs::remove(Capture, Ignored);
  if (RawStatus == -1 || !WIFEXITED(RawStatus))
    return -1; // Crashed or was signalled: never acceptable.
  return WEXITSTATUS(RawStatus);
}

std::string readFile(const fs::path &Path) {
  std::ifstream In(Path);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

std::unique_ptr<Program> analyze(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = parseAndAnalyze(Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

/// A small loopy graph belief propagation genuinely struggles with: an
/// asymmetric frustrated cycle of near-hard disagreement constraints.
FactorGraph frustratedCycle() {
  FactorGraph G;
  VarId A = G.addVariable(0.9);
  VarId B = G.addVariable(0.5);
  VarId C = G.addVariable(0.3);
  auto Disagree = [](const std::vector<bool> &X) { return X[0] != X[1]; };
  G.addPredicateFactor({A, B}, Disagree, 0.99);
  G.addPredicateFactor({B, C}, Disagree, 0.99);
  G.addPredicateFactor({C, A}, Disagree, 0.99);
  return G;
}

class RobustnessTest : public testing::Test {
protected:
  void SetUp() override { faults::reset(); }
  void TearDown() override { faults::reset(); }
};

//===----------------------------------------------------------------------===//
// Malformed-input corpus: diagnostics, never crashes
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, CorpusIsNonTrivial) {
  EXPECT_GE(corpusFiles().size(), 5u);
}

TEST_F(RobustnessTest, MalformedCorpusNeverCrashesTheDriver) {
  // The driver contract: malformed input exits 1 with at least one
  // diagnostic. Exit -1 (signal), 134 (abort), 139 (segfault) all fail.
  for (const fs::path &File : corpusFiles()) {
    std::string Output;
    int Exit = runTool("infer " + File.string(), &Output);
    EXPECT_EQ(Exit, 1) << File.filename() << " output:\n" << Output;
    EXPECT_FALSE(Output.empty())
        << File.filename() << " produced no diagnostics";
  }
}

TEST_F(RobustnessTest, MalformedCorpusProducesErrorsInProcess) {
  for (const fs::path &File : corpusFiles()) {
    DiagnosticEngine Diags;
    std::unique_ptr<Program> Prog = parseAndAnalyze(readFile(File), Diags);
    EXPECT_TRUE(!Prog || Diags.hasErrors())
        << File.filename() << " parsed cleanly";
    EXPECT_TRUE(Diags.hasErrors()) << File.filename() << ": " << Diags.str();
  }
}

TEST_F(RobustnessTest, DriverExitCodeContract) {
  EXPECT_EQ(runTool(""), 2);                     // No command.
  EXPECT_EQ(runTool("bogus-command x.mjava"), 2); // Unknown command.
  EXPECT_EQ(runTool("infer --frobnicate x"), 2);  // Unknown flag.
  EXPECT_EQ(runTool("infer /no/such/file.mjava"), 1);
  EXPECT_EQ(runTool("infer --example file"), 0);
  // Phase-2 waves run in one process; the flags and commands that once
  // farmed them out to worker processes are usage errors, not no-ops.
  EXPECT_EQ(runTool("infer --example file --shards 2"), 2);
  EXPECT_EQ(runTool("infer --example file --workers unix:/tmp/x"), 2);
  EXPECT_EQ(runTool("infer --example file --heartbeat-timeout 1"), 2);
  EXPECT_EQ(runTool("infer --example file --shard-max-frame-bytes 65536"),
            2);
  EXPECT_EQ(runTool("--heartbeat-timeout 1"), 2);
  EXPECT_EQ(runTool("--shard-max-frame-bytes 65536"), 2);
  EXPECT_EQ(runTool("workerd --listen unix:/tmp/x"), 2);
  EXPECT_EQ(runTool("--worker"), 2);
}

TEST_F(RobustnessTest, DriverReportsFaultInjection) {
  std::string Output;
  int Exit = runTool(
      "infer --example spreadsheet --report --fault bp-nonconverge",
      &Output);
  EXPECT_EQ(Exit, 0) << Output;
  EXPECT_NE(Output.find("(fallback)"), std::string::npos) << Output;
  EXPECT_EQ(runTool("infer --example file --fault no-such-fault"), 2);
}

//===----------------------------------------------------------------------===//
// Solver budgets and convergence reports
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, BpReportsNonConvergenceWithinBudget) {
  FactorGraph G = frustratedCycle();
  SumProductSolver::Options Opts;
  Opts.MaxIterations = 4;
  Opts.Tolerance = 1e-12;
  SolveReport Report;
  Marginals M = SumProductSolver(Opts).solve(G, nullptr, &Report);
  ASSERT_EQ(M.size(), 3u);
  EXPECT_FALSE(Report.Converged);
  EXPECT_GT(Report.Residual, Opts.Tolerance);
  EXPECT_EQ(Report.Iterations, 4u);
}

TEST_F(RobustnessTest, BpHonorsWallClockDeadline) {
  FactorGraph G = frustratedCycle();
  SumProductSolver::Options Opts;
  Opts.Budget = Deadline::afterSeconds(0.0);
  SolveReport Report;
  Marginals M = SumProductSolver(Opts).solve(G, nullptr, &Report);
  ASSERT_EQ(M.size(), 3u); // Degraded beliefs, not a crash.
  EXPECT_TRUE(Report.DeadlineExpired);
  EXPECT_FALSE(Report.Converged);
  EXPECT_EQ(Report.Iterations, 0u);
}

TEST_F(RobustnessTest, DeadlineIterationBudget) {
  Deadline D = Deadline::iterations(5);
  EXPECT_FALSE(D.expired(4));
  EXPECT_TRUE(D.expired(5));
  EXPECT_FALSE(Deadline().expired(1000000));
  EXPECT_TRUE(Deadline().unlimited());
  EXPECT_FALSE(D.unlimited());
}

TEST_F(RobustnessTest, WallClockDeadlineSaturatesOutOfRange) {
  // Budgets past the clock's range saturate instead of overflowing the
  // double -> tick conversion; non-positive (and NaN) ones are expired.
  for (double Seconds : {1e300, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::max()}) {
    Deadline D = Deadline::afterSeconds(Seconds);
    EXPECT_FALSE(D.expired()) << Seconds;
    EXPECT_GT(D.remainingSeconds(), 1e8) << Seconds;
  }
  EXPECT_GT(Deadline::afterSeconds(3600.0).remainingSeconds(), 3500.0);
  for (double Seconds : {0.0, -1e300, -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()})
    EXPECT_TRUE(Deadline::afterSeconds(Seconds).expired()) << Seconds;
}

TEST_F(RobustnessTest, ExactSolverRejectsOversizedGraphs) {
  FactorGraph G;
  for (int I = 0; I != 30; ++I)
    G.addVariable(0.5);
  Expected<Marginals> M = ExactSolver().solve(G);
  ASSERT_FALSE(M.hasValue());
  EXPECT_EQ(M.status().code(), ErrorCode::ResourceExhausted);
  EXPECT_FALSE(M.status().message().empty());
}

TEST_F(RobustnessTest, GibbsReturnsPartialEstimateOnExpiry) {
  FactorGraph G = frustratedCycle();
  GibbsSolver::Options Opts;
  Opts.BurnIn = 0;
  Opts.Samples = 1000000;
  Opts.Budget = Deadline::iterations(50);
  SolveReport Report;
  Marginals M = GibbsSolver(Opts).solve(G, &Report);
  ASSERT_EQ(M.size(), 3u);
  EXPECT_TRUE(Report.DeadlineExpired);
  EXPECT_FALSE(Report.Converged);
  EXPECT_EQ(Report.Iterations, 50u);
  for (double P : M)
    EXPECT_TRUE(P >= 0.0 && P <= 1.0);
}

TEST_F(RobustnessTest, CountSatisfyingHonorsBudget) {
  // A 20-variable graph is 2^20 assignments: far past the first budget
  // poll, so an already-expired deadline must stop the count as a DNF
  // instead of burning through the whole enumeration.
  FactorGraph G;
  for (int I = 0; I != 20; ++I)
    G.addVariable(0.5);
  ASSERT_TRUE(ExactSolver().countSatisfying(G, 24).has_value());
  EXPECT_FALSE(ExactSolver()
                   .countSatisfying(G, 24, 0.5, Deadline::afterSeconds(0.0))
                   .has_value());
  // The injected 'deadline' fault expires even an unlimited budget.
  faults::ScopedFault Fault(FaultKind::DeadlineExpiry);
  EXPECT_FALSE(ExactSolver().countSatisfying(G, 24).has_value());
}

TEST_F(RobustnessTest, SolveLogicalHonorsBudget) {
  FactorGraph G;
  for (int I = 0; I != 20; ++I)
    G.addVariable(0.5);
  ASSERT_TRUE(ExactSolver().solveLogical(G, 24).has_value());
  EXPECT_FALSE(ExactSolver()
                   .solveLogical(G, 24, 0.5, Deadline::afterSeconds(0.0))
                   .has_value());
  faults::ScopedFault Fault(FaultKind::DeadlineExpiry);
  EXPECT_FALSE(ExactSolver().solveLogical(G, 24).has_value());
}

//===----------------------------------------------------------------------===//
// Fallback cascade
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, CascadeAtSolverLevelOnFrustratedGraph) {
  // The satellite scenario in miniature: BP misses its budget on a
  // frustrated loopy graph; the exact fallback still produces sane
  // marginals that respect the priors' bias.
  FactorGraph G = frustratedCycle();
  SumProductSolver::Options BpOpts;
  BpOpts.MaxIterations = 4;
  BpOpts.Tolerance = 1e-12;
  SolveReport BpReport;
  SumProductSolver(BpOpts).solve(G, nullptr, &BpReport);
  ASSERT_FALSE(BpReport.Converged);

  Expected<Marginals> Exact = ExactSolver().solve(G);
  ASSERT_TRUE(Exact.hasValue()) << Exact.status().str();
  ASSERT_EQ(Exact->size(), 3u);
  // Var a has prior 0.9 and c 0.3: the frustrated constraints cannot
  // invert a strong prior into certainty of the opposite.
  EXPECT_GT((*Exact)[0], 0.5);
  for (double P : *Exact)
    EXPECT_TRUE(P > 0.0 && P < 1.0);
}

TEST_F(RobustnessTest, PipelineFallsBackWhenBpCannotConverge) {
  // Force the 'bp never converges' world and check the whole pipeline
  // degrades instead of failing: specs still come out, and every
  // per-method report names the fallback solver it used.
  auto Prog = analyze(iteratorApiSource() + spreadsheetSource());
  faults::ScopedFault Fault(FaultKind::BpNonConvergence);

  DiagnosticEngine Diags;
  InferResult Result = runAnekInfer(*Prog, {}, &Diags);
  EXPECT_GT(Result.inferredAnnotationCount(), 0u);
  EXPECT_GT(Result.FallbackSolves, 0u);
  EXPECT_EQ(Result.MethodsFailed, 0u);
  ASSERT_FALSE(Result.Reports.empty());
  for (const auto &[M, Report] : Result.Reports) {
    EXPECT_FALSE(Report.Failed) << M->qualifiedName();
    EXPECT_TRUE(Report.Fallback) << M->qualifiedName();
    EXPECT_NE(Report.Used, SolverChoice::SumProduct) << M->qualifiedName();
    EXPECT_FALSE(Report.Reason.empty()) << M->qualifiedName();
  }
}

TEST_F(RobustnessTest, TotalSolverFailureStillDegradesGracefully) {
  // Under the 'deadline' fault every budget is expired: BP, the damped
  // retry, Gibbs, and exact all get cut off, and the pipeline must still
  // come back with its best-effort beliefs rather than crash.
  auto Prog = analyze(fileProtocolSource());
  faults::ScopedFault Fault(FaultKind::DeadlineExpiry);

  DiagnosticEngine Diags;
  InferResult Result = runAnekInfer(*Prog, {}, &Diags);
  EXPECT_EQ(Result.MethodsFailed, 0u);
  ASSERT_FALSE(Result.Reports.empty());
  for (const auto &[M, Report] : Result.Reports) {
    EXPECT_TRUE(Report.Fallback) << M->qualifiedName();
    EXPECT_FALSE(Report.Solve.Converged) << M->qualifiedName();
  }
}

//===----------------------------------------------------------------------===//
// Per-method isolation
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, OneFailingMethodDoesNotKillTheProgram) {
  auto Prog = analyze(iteratorApiSource() + spreadsheetSource());

  // Baseline: which methods get specs normally?
  InferResult Baseline = runAnekInfer(*Prog);
  ASSERT_GT(Baseline.inferredAnnotationCount(), 1u);

  // Poison one method's SOLVE step.
  const MethodDecl *Victim = Baseline.Inferred.begin()->first;
  faults::ScopedFault Fault(FaultKind::SolveFailure,
                            Victim->qualifiedName());

  DiagnosticEngine Diags;
  InferResult Result = runAnekInfer(*Prog, {}, &Diags);
  EXPECT_EQ(Result.MethodsFailed, 1u);
  EXPECT_GE(Diags.warningCount(), 1u);
  EXPECT_FALSE(Diags.hasErrors());

  auto It = Result.Reports.find(Victim);
  ASSERT_NE(It, Result.Reports.end());
  EXPECT_TRUE(It->second.Failed);
  EXPECT_NE(It->second.Error.find("fault"), std::string::npos);

  // The victim gets no (conservative) spec; everyone else still does.
  EXPECT_EQ(Result.Inferred.count(Victim), 0u);
  EXPECT_GE(Result.inferredAnnotationCount(),
            Baseline.inferredAnnotationCount() - 1);
  EXPECT_GT(Result.inferredAnnotationCount(), 0u);
}

TEST_F(RobustnessTest, GlobalInferIsolatesPoisonedModels) {
  auto Prog = analyze(iteratorApiSource() + spreadsheetSource());
  GlobalResult Baseline = runGlobalInfer(*Prog);
  ASSERT_GT(Baseline.Inferred.size(), 1u);

  const MethodDecl *Victim = Baseline.Inferred.begin()->first;
  faults::ScopedFault Fault(FaultKind::SolveFailure,
                            Victim->qualifiedName());

  DiagnosticEngine Diags;
  GlobalResult Result = runGlobalInfer(*Prog, {}, &Diags);
  EXPECT_EQ(Result.MethodsFailed, 1u);
  EXPECT_GE(Diags.warningCount(), 1u);
  EXPECT_EQ(Result.Inferred.count(Victim), 0u);
  EXPECT_GT(Result.Inferred.size(), 0u);
}

//===----------------------------------------------------------------------===//
// Fault-injection harness itself
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, FaultSpecParsing) {
  EXPECT_FALSE(faults::active(FaultKind::BpNonConvergence));
  Status Ok = faults::activateSpec("bp-nonconverge, solve-fail:A.m");
  EXPECT_TRUE(Ok.isOk()) << Ok.str();
  EXPECT_TRUE(faults::active(FaultKind::BpNonConvergence));
  EXPECT_TRUE(faults::active(FaultKind::SolveFailure, "A.m"));
  EXPECT_FALSE(faults::active(FaultKind::SolveFailure, "B.n"));

  Status Bad = faults::activateSpec("no-such-fault");
  EXPECT_FALSE(Bad.isOk());
  EXPECT_EQ(Bad.code(), ErrorCode::InvalidArgument);

  faults::reset();
  EXPECT_FALSE(faults::active(FaultKind::BpNonConvergence));
}

TEST_F(RobustnessTest, ScopedFaultsNestAndUnwind) {
  {
    faults::ScopedFault Outer(FaultKind::DeadlineExpiry);
    EXPECT_TRUE(faults::active(FaultKind::DeadlineExpiry));
    {
      faults::ScopedFault Inner(FaultKind::DeadlineExpiry);
      EXPECT_TRUE(faults::active(FaultKind::DeadlineExpiry));
    }
    EXPECT_TRUE(faults::active(FaultKind::DeadlineExpiry));
  }
  EXPECT_FALSE(faults::active(FaultKind::DeadlineExpiry));
}

TEST_F(RobustnessTest, AllocPerturbDoesNotChangeMarginals) {
  // Allocation-order perturbation shifts every VarId; results must not
  // care. Build the same model with and without padding and compare the
  // exact marginals of the real variables.
  auto Build = [](FactorGraph &G) {
    VarId A = G.addVariable(0.8);
    VarId B = G.addVariable(0.4);
    VarId C = G.addVariable(0.6);
    G.addEqualityFactor(A, B, 0.9);
    G.addPredicateFactor(
        {B, C}, [](const std::vector<bool> &X) { return X[0] || X[1]; },
        0.85);
    return std::vector<VarId>{A, B, C};
  };

  FactorGraph Plain;
  std::vector<VarId> PlainIds = Build(Plain);
  Expected<Marginals> PlainM = ExactSolver().solve(Plain);
  ASSERT_TRUE(PlainM.hasValue());

  FactorGraph Perturbed;
  std::vector<VarId> PerturbedIds;
  {
    faults::ScopedFault Fault(FaultKind::AllocPerturb);
    PerturbedIds = Build(Perturbed);
  }
  EXPECT_GT(Perturbed.variableCount(), Plain.variableCount());
  Expected<Marginals> PerturbedM = ExactSolver().solve(Perturbed);
  ASSERT_TRUE(PerturbedM.hasValue());

  for (size_t I = 0; I != PlainIds.size(); ++I)
    EXPECT_NEAR((*PlainM)[PlainIds[I]], (*PerturbedM)[PerturbedIds[I]],
                1e-9)
        << "variable " << I;
}

TEST_F(RobustnessTest, InferenceSurvivesAllocPerturb) {
  auto Prog = analyze(fileProtocolSource());
  InferResult Baseline = runAnekInfer(*Prog);

  faults::ScopedFault Fault(FaultKind::AllocPerturb);
  InferResult Perturbed = runAnekInfer(*Prog);
  EXPECT_EQ(Baseline.inferredAnnotationCount(),
            Perturbed.inferredAnnotationCount());
}

//===----------------------------------------------------------------------===//
// Structured errors in support code
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, RationalZeroDenominatorIsPoisonNotAbort) {
  Rational Invalid(1, 0);
  EXPECT_FALSE(Invalid.isValid());
  EXPECT_EQ(Invalid.str(), "<invalid>");

  Rational One(1);
  EXPECT_FALSE((One / Rational(0)).isValid());
  EXPECT_FALSE((Invalid + One).isValid());
  EXPECT_FALSE((One * Invalid).isValid());
  EXPECT_FALSE((-Invalid).isValid());
  EXPECT_FALSE(Invalid.isZero());
  EXPECT_FALSE(Invalid < One);
  EXPECT_FALSE(One < Invalid);

  // Ordinary arithmetic is untouched.
  EXPECT_EQ((Rational(1, 2) + Rational(1, 3)).str(), "5/6");
}

TEST_F(RobustnessTest, StatusAndExpectedBasics) {
  Status Ok = Status::ok();
  EXPECT_TRUE(Ok.isOk());
  EXPECT_EQ(Ok.str(), "ok");

  Status Err = Status::error(ErrorCode::DeadlineExceeded, "budget gone");
  EXPECT_FALSE(Err.isOk());
  EXPECT_EQ(Err.code(), ErrorCode::DeadlineExceeded);
  EXPECT_EQ(Err.str(), "deadline-exceeded: budget gone");

  Expected<int> Value(42);
  ASSERT_TRUE(Value.hasValue());
  EXPECT_EQ(*Value, 42);
  Expected<int> Failed(Err);
  EXPECT_FALSE(Failed.hasValue());
  EXPECT_EQ(Failed.status().code(), ErrorCode::DeadlineExceeded);
}

//===----------------------------------------------------------------------===//
// Serving-layer fault kinds, fire budgets, and site filters
//===----------------------------------------------------------------------===//

TEST_F(RobustnessTest, FaultVocabularyIsCompleteAndListed) {
  // The static_assert in FaultInject.cpp keeps the table in sync at
  // compile time; this checks the runtime surface: every kind has a
  // distinct name, a description, and shows up in `anek faults`.
  ASSERT_EQ(NumFaultKinds, 7u);
  std::string FaultsOutput;
  EXPECT_EQ(runTool("faults", &FaultsOutput), 0);
  std::string ListOutput;
  EXPECT_EQ(runTool("infer --fault list", &ListOutput), 0);
  std::set<std::string> Names;
  for (unsigned K = 0; K != NumFaultKinds; ++K) {
    FaultKind Kind = static_cast<FaultKind>(K);
    std::string Name = faultKindName(Kind);
    EXPECT_FALSE(Name.empty());
    EXPECT_STRNE(faultKindDescription(Kind), "");
    EXPECT_TRUE(Names.insert(Name).second) << "duplicate name " << Name;
    EXPECT_NE(FaultsOutput.find(Name), std::string::npos)
        << "`anek faults` does not list " << Name;
    EXPECT_NE(ListOutput.find(Name), std::string::npos)
        << "`anek --fault list` does not list " << Name;
  }
}

TEST_F(RobustnessTest, NewFaultKindsActivateAndClassify) {
  Status Ok = faults::activateSpec(
      "queue-full:reqA, wire-corrupt*1:cache, mem-spike");
  ASSERT_TRUE(Ok.isOk()) << Ok.str();
  EXPECT_TRUE(faults::active(FaultKind::QueueFull, "reqA"));
  EXPECT_FALSE(faults::active(FaultKind::QueueFull, "reqZ"));
  EXPECT_TRUE(faults::active(FaultKind::WireCorrupt, "cache"));
  EXPECT_TRUE(faults::active(FaultKind::MemSpike, "anything"));

  // Every kind surfaces as the one FaultInjected class.
  for (unsigned K = 0; K != NumFaultKinds; ++K)
    EXPECT_EQ(faults::injectedError(static_cast<FaultKind>(K), "x").code(),
              ErrorCode::FaultInjected)
        << faultKindName(static_cast<FaultKind>(K));
}

TEST_F(RobustnessTest, FireBudgetConsumesAndExhausts) {
  ASSERT_TRUE(faults::activateSpec("wire-corrupt*2:cache").isOk());
  // Non-consuming queries never burn the budget.
  EXPECT_TRUE(faults::active(FaultKind::WireCorrupt, "cache"));
  EXPECT_TRUE(faults::active(FaultKind::WireCorrupt, "cache"));
  // Two consuming fires, then the activation is exhausted.
  EXPECT_TRUE(faults::consumeFire(FaultKind::WireCorrupt, "cache"));
  EXPECT_TRUE(faults::consumeFire(FaultKind::WireCorrupt, "cache"));
  EXPECT_FALSE(faults::consumeFire(FaultKind::WireCorrupt, "cache"));
  EXPECT_FALSE(faults::active(FaultKind::WireCorrupt, "cache"));

  // Malformed budgets are rejected atomically.
  EXPECT_EQ(faults::activateSpec("wire-corrupt*zero").code(),
            ErrorCode::InvalidArgument);
  EXPECT_EQ(faults::activateSpec("wire-corrupt*0").code(),
            ErrorCode::InvalidArgument);
  EXPECT_EQ(faults::activateSpec("wire-corrupt*").code(),
            ErrorCode::InvalidArgument);
}

TEST_F(RobustnessTest, StackedScopedFaultsCoexistAndUnwind) {
  faults::ScopedFault Queue(FaultKind::QueueFull, "reqA");
  {
    faults::ScopedFault Spike(FaultKind::MemSpike);
    faults::ScopedFault Corrupt(FaultKind::WireCorrupt, "cache", 1);
    EXPECT_TRUE(faults::active(FaultKind::QueueFull, "reqA"));
    EXPECT_TRUE(faults::active(FaultKind::MemSpike));
    EXPECT_TRUE(faults::consumeFire(FaultKind::WireCorrupt, "cache"));
    EXPECT_FALSE(faults::consumeFire(FaultKind::WireCorrupt, "cache"));
  }
  // Inner scopes unwound; the outer activation is untouched.
  EXPECT_TRUE(faults::active(FaultKind::QueueFull, "reqA"));
  EXPECT_FALSE(faults::active(FaultKind::MemSpike));
  EXPECT_FALSE(faults::active(FaultKind::WireCorrupt, "cache"));
}

TEST_F(RobustnessTest, FaultScopePrefixesSolveFailureSites) {
  // A batch request faults its own inference via the "<scope>/<method>"
  // site label; the same program solved under another scope is untouched.
  auto Prog = analyze(iteratorApiSource() + spreadsheetSource());
  InferResult Baseline = runAnekInfer(*Prog);
  ASSERT_GT(Baseline.inferredAnnotationCount(), 1u);
  const MethodDecl *Victim = Baseline.Inferred.begin()->first;

  faults::ScopedFault Fault(FaultKind::SolveFailure,
                            "req1/" + Victim->qualifiedName());

  InferOptions Scoped;
  Scoped.FaultScope = "req1";
  DiagnosticEngine Diags;
  InferResult Faulted = runAnekInfer(*Prog, Scoped, &Diags);
  EXPECT_EQ(Faulted.MethodsFailed, 1u);

  InferOptions Other;
  Other.FaultScope = "req2";
  InferResult Clean = runAnekInfer(*Prog, Other);
  EXPECT_EQ(Clean.MethodsFailed, 0u);
  // No scope at all: the bare qualified name does not match either.
  InferResult NoScope = runAnekInfer(*Prog);
  EXPECT_EQ(NoScope.MethodsFailed, 0u);
}

TEST_F(RobustnessTest, DriverAcceptsJoinedFaultSpelling) {
  // --fault=SPEC goes through flagValue like every other value flag.
  std::string Output;
  int Exit = runTool(
      "infer --example spreadsheet --report --fault=bp-nonconverge",
      &Output);
  EXPECT_EQ(Exit, 0) << Output;
  EXPECT_NE(Output.find("(fallback)"), std::string::npos) << Output;
  // Malformed specs are usage errors in either spelling.
  EXPECT_EQ(runTool("infer --example file --fault=wire-corrupt*zero"), 2);
  EXPECT_EQ(runTool("infer --example file --fault wire-corrupt*zero"), 2);
}

} // namespace
