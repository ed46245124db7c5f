//===- main.cpp - ANEK end-to-end and per-layer benchmark -----------------===//
//
// Part of the ANEK benchmark (perfbench/README.md).
//
// Usage:
//   anek_perfbench --workload pmd|chain|edit-stream --seed N --seconds S
//                  --trace 0|1 --work-dir DIR
//
// Drives the public calls behind `anek verify` and `anek batch`
// (parseAndAnalyze, runAnekInfer, runChecker, serve::BatchRunner::run)
// on one generated workload, checks every output against a reference made
// in the same run, and prints one JSON result object as the last line of
// standard output: end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1. The line before it records the host and settings.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "analysis/CallGraph.h"
#include "analysis/IrBuilder.h"
#include "cache/SummaryCache.h"
#include "constraints/ConstraintGen.h"
#include "corpus/InlineComparison.h"
#include "corpus/PmdGenerator.h"
#include "corpus/SpecComparison.h"
#include "factor/Kernels.h"
#include "factor/Solvers.h"
#include "infer/AnekInfer.h"
#include "lang/PrettyPrinter.h"
#include "lang/Sema.h"
#include "pfg/PfgBuilder.h"
#include "plural/Checker.h"
#include "plural/LocalInference.h"
#include "serve/BatchRunner.h"
#include "support/CpuFeatures.h"
#include "support/MemTrack.h"
#include "support/Rng.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace anek;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Settings and small statistics
//===----------------------------------------------------------------------===//

/// Set-up is repeated this many times per run and setup_s is the median.
constexpr unsigned SetupReps = 3;
/// The Table 3 program size (helper methods in the chain).
constexpr unsigned ChainHelpers = 768;
/// Distinct one-method edits in one edit-stream batch.
constexpr unsigned EditRequests = 16;
/// Serving workers for edit-stream, capped at the host's thread count.
constexpr unsigned EditWorkers = 4;

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  bool Trace = false;
  std::string WorkDir;
};

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double ratio(double Num, double Den) { return Den != 0.0 ? Num / Den : 0.0; }

unsigned hostThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

unsigned countLines(const std::string &S) {
  return static_cast<unsigned>(std::count(S.begin(), S.end(), '\n'));
}

/// Everything the run reports. Problems are printed to stderr; any
/// problem makes the run incorrect.
struct Report {
  unsigned Attempted = 0;
  unsigned Failed = 0;
  std::vector<std::string> Problems;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  /// Settings and sample counts, printed on the line before the result.
  std::vector<std::pair<std::string, std::string>> Settings;

  void metric(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back({Name, {std::isfinite(Value) ? Value : 0.0, Unit}});
  }
  void setting(const std::string &Key, const std::string &Json) {
    Settings.push_back({Key, Json});
  }
  void problem(std::string What) { Problems.push_back(std::move(What)); }
};

//===----------------------------------------------------------------------===//
// Verdicts: parse -> infer -> check, the `anek verify` path
//===----------------------------------------------------------------------===//

/// A workload program plus its ground truth.
struct Subject {
  std::string Source;
  /// Methods that hold a planted bug site; each must be flagged.
  std::set<std::string> BugSites;
  /// Generator record of the hand specs (PMD corpora only).
  std::shared_ptr<const PmdCorpus> Corpus;
};

std::set<std::string> plantedBugSites(const PmdConfig &Config) {
  std::set<std::string> Names;
  for (unsigned B = 0; B != Config.BuggySites; ++B)
    Names.insert("grabFirst" + std::to_string(B));
  return Names;
}

SpecProvider inferredSpecs(const InferResult &R) {
  return [&R](const MethodDecl *M) { return R.specFor(M); };
}

/// What one verdict produced, reduced to what the checks compare.
struct Verdict {
  bool Ok = false;
  std::string Error;
  /// Printed program with inferred specs, the checker's warnings and the
  /// inference counters: the bytes a rerun must reproduce.
  std::string Rendered;
  double ParseSeconds = 0.0;
  double InferSeconds = 0.0;
  double SolveThreadSeconds = 0.0;
  double CheckSeconds = 0.0;
  /// Parse + infer + check, the user-visible time to a verdict.
  double Seconds = 0.0;
  long long PeakBytes = 0;
  unsigned FalseWarnings = 0;
  unsigned UnflaggedBugSites = 0;
  unsigned WrongSpecs = 0;
  /// Inference counters (InferResult's public statistics).
  unsigned Picks = 0;
  unsigned Solves = 0;
  unsigned FallbackSolves = 0;
  unsigned ModelVars = 0;
};

/// Renders a run's observable result; two runs of the same source must
/// render byte-identically whatever the job count or cache state.
std::string renderVerdict(const Program &Prog, const InferResult &R,
                          const CheckResult *Check) {
  std::ostringstream Out;
  PrintOptions POpts;
  POpts.SpecFor = [&R](const MethodDecl &M) { return *R.specFor(&M); };
  Out << printProgram(Prog, POpts);
  if (Check)
    for (const CheckWarning &W : Check->Warnings)
      Out << W.Loc.str() << ": "
          << (W.InMethod ? W.InMethod->qualifiedName() : std::string("?"))
          << ": " << W.Message << "\n";
  Out << "picks=" << R.WorklistPicks << " inferred=" << R.Inferred.size()
      << " failed=" << R.MethodsFailed << " fallback=" << R.FallbackSolves
      << " vars=" << R.TotalVariables << " factors=" << R.TotalFactors
      << "\n";
  return Out.str();
}

/// Classifies checker warnings against the planted bug sites.
void judgeWarnings(const CheckResult &Check, const Subject &S, Verdict &V) {
  std::set<std::string> Flagged;
  for (const CheckWarning &W : Check.Warnings) {
    if (W.InMethod && S.BugSites.count(W.InMethod->Name))
      Flagged.insert(W.InMethod->Name);
    else
      ++V.FalseWarnings;
  }
  V.UnflaggedBugSites =
      static_cast<unsigned>(S.BugSites.size() - Flagged.size());
}

unsigned wrongSpecs(const Program &Prog, const PmdCorpus *Corpus,
                    const InferResult &R) {
  if (!Corpus)
    return 0;
  MethodDeclMap<MethodSpec> Hand = resolveHandSpecs(Prog, *Corpus);
  MethodDeclMap<MethodSpec> Inferred(R.Inferred.begin(), R.Inferred.end());
  return compareSpecs(Hand, Inferred).count(SpecCategory::Wrong);
}

/// One parse -> infer -> check at \p Jobs wave-job threads. With a
/// tracing log, each layer call becomes a span under a verdict span.
Verdict runVerdict(const Subject &S, unsigned Jobs, SpanLog &Spans,
                   unsigned Op) {
  Verdict V;
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog;
  memtrack::MemCharge Charge;
  InferResult Inference;
  CheckResult Check;
  {
    Timer Total;
    ScopedSpan OpSpan(Spans, "bench.verdict", -1, Op);
    {
      ScopedSpan Sp(Spans, "lang.parse", OpSpan.id(), Op);
      Timer T;
      Prog = parseAndAnalyze(S.Source, Diags);
      V.ParseSeconds = T.seconds();
    }
    if (!Prog) {
      V.Error = "parse failed: " + Diags.str().substr(0, 400);
      return V;
    }
    {
      ScopedSpan Sp(Spans, "infer.run", OpSpan.id(), Op);
      memtrack::MemScope Scope(&Charge);
      InferOptions Opts;
      Opts.Parallelism = Jobs;
      Opts.Memory = &Charge;
      Timer T;
      Inference = runAnekInfer(*Prog, Opts, &Diags);
      V.InferSeconds = T.seconds();
    }
    if (!Inference.Aborted.isOk()) {
      V.Error = "inference aborted: " + Inference.Aborted.str();
      return V;
    }
    {
      ScopedSpan Sp(Spans, "plural.check", OpSpan.id(), Op);
      Timer T;
      Check = runChecker(*Prog, inferredSpecs(Inference));
      V.CheckSeconds = T.seconds();
    }
    V.Seconds = Total.seconds();
  }

  V.PeakBytes = Charge.peak();
  V.SolveThreadSeconds = Inference.SolveSeconds;
  V.Picks = Inference.WorklistPicks;
  V.FallbackSolves = Inference.FallbackSolves;
  V.ModelVars = Inference.TotalVariables;
  for (const auto &[M, Report] : Inference.Reports)
    V.Solves += Report.Solves;
  V.Rendered = renderVerdict(*Prog, Inference, &Check);
  judgeWarnings(Check, S, V);
  V.WrongSpecs = wrongSpecs(*Prog, S.Corpus.get(), Inference);
  V.Ok = true;
  return V;
}

/// Why a verdict counts as a failed operation against \p Ref, or "".
std::string verdictFailure(const Verdict &V, const Verdict &Ref) {
  if (!V.Ok)
    return V.Error;
  if (V.Rendered != Ref.Rendered)
    return "output differs from the -j1 reference";
  if (V.UnflaggedBugSites)
    return std::to_string(V.UnflaggedBugSites) +
           " planted bug site(s) not flagged";
  return "";
}

//===----------------------------------------------------------------------===//
// Replay of the first-pass per-method pipeline (traced runs only)
//===----------------------------------------------------------------------===//

/// runAnekInfer exposes no inner calls, so the traced run rebuilds each
/// method's first-pass model through the public layer functions and
/// times every call. The replay solves each model once with default BP
/// options and without the call-site priors the engine applies, so its
/// counts describe the first pass's model structure and solver work.
struct Replay {
  double LowerSeconds = 0, CallGraphSeconds = 0, PfgSeconds = 0;
  double ConstraintSeconds = 0, BpSeconds = 0;
  uint64_t PfgNodes = 0, PfgEdges = 0, Vars = 0, Factors = 0;
  uint64_t BpMessages = 0, BpSolves = 0, BpConverged = 0;
  /// SCC waves of the call graph: the scheduler's unit of parallelism.
  size_t Waves = 0;
};

Replay replayFirstPass(Program &Prog, SpanLog &Spans, unsigned Op) {
  Replay R;
  ScopedSpan Root(Spans, "bench.replay", -1, Op);
  {
    ScopedSpan Sp(Spans, "analysis.callgraph", Root.id(), Op);
    Timer T;
    CallGraph Graph(Prog);
    R.Waves = Graph.sccWaves().size();
    R.CallGraphSeconds = T.seconds();
  }
  for (MethodDecl *M : Prog.methodsWithBodies()) {
    Timer T;
    MethodIr Ir;
    {
      ScopedSpan Sp(Spans, "analysis.lower", Root.id(), Op);
      Ir = lowerToIr(*M);
    }
    R.LowerSeconds += T.seconds();
    T.reset();
    Pfg G;
    {
      ScopedSpan Sp(Spans, "pfg.build", Root.id(), Op);
      G = buildPfg(Ir);
    }
    R.PfgSeconds += T.seconds();
    R.PfgNodes += G.nodeCount();
    R.PfgEdges += G.edgeCount();
    T.reset();
    FactorGraph FG;
    {
      ScopedSpan Sp(Spans, "constraints.gen", Root.id(), Op);
      PfgVarMap Vars(G, FG);
      generateConstraints(G, FG, Vars, ConstraintOptions());
    }
    R.ConstraintSeconds += T.seconds();
    R.Vars += FG.variableCount();
    R.Factors += FG.factorCount();
    T.reset();
    SolveReport Solve;
    {
      ScopedSpan Sp(Spans, "factor.bp", Root.id(), Op);
      SumProductSolver().solve(FG, nullptr, &Solve);
    }
    R.BpSeconds += T.seconds();
    R.BpMessages += Solve.Updates;
    ++R.BpSolves;
    R.BpConverged += Solve.Converged ? 1 : 0;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Per-layer metric sheet
//===----------------------------------------------------------------------===//

/// Every per-layer metric, in BENCHMARK.json order. A layer a workload
/// does not run (or the benchmark does not replay there) reads 0.
struct Layers {
  double ParseS = 0, LinesPerS = 0;
  double LowerS = 0, CallGraphS = 0, PfgS = 0, PfgNodes = 0, PfgEdges = 0;
  double GenS = 0, Vars = 0, Factors = 0;
  double BpS = 0, BpMessages = 0, BpMsgsPerS = 0, BpConvergedRatio = 0;
  double InferWallS = 0, InferWallJ1S = 0, Speedup = 0, SolveThreadS = 0;
  double SolveShare = 0, Picks = 0, FallbackRatio = 0, ModelVars = 0;
  double ModelGrowth = 0, WrongSpecs = 0;
  double LookupS = 0, StoreS = 0, Hits = 0, Misses = 0, Invalidated = 0;
  double Stores = 0, HitRatio = 0;
  double CheckS = 0, LocalInferS = 0, RowOps = 0;
  double QueueWaitP50S = 0, ExecP50S = 0, BusyShare = 0;
  double VerdictOverheadS = 0, RequestP50OverheadS = 0;

  void fromReplay(const Replay &R) {
    LowerS = R.LowerSeconds;
    CallGraphS = R.CallGraphSeconds;
    PfgS = R.PfgSeconds;
    PfgNodes = static_cast<double>(R.PfgNodes);
    PfgEdges = static_cast<double>(R.PfgEdges);
    GenS = R.ConstraintSeconds;
    Vars = static_cast<double>(R.Vars);
    Factors = static_cast<double>(R.Factors);
    BpS = R.BpSeconds;
    BpMessages = static_cast<double>(R.BpMessages);
    BpMsgsPerS = ratio(BpMessages, BpS);
    BpConvergedRatio = ratio(static_cast<double>(R.BpConverged),
                             static_cast<double>(R.BpSolves));
  }

  /// \p OpRoot names the span that roots one measured operation.
  void emit(Report &Out, const SpanLog &Spans,
            const std::string &OpRoot) const {
    Out.metric("lang.parse_s", ParseS, "s");
    Out.metric("lang.lines_per_s", LinesPerS, "lines/s");
    Out.metric("analysis.lower_s", LowerS, "s");
    Out.metric("analysis.callgraph_s", CallGraphS, "s");
    Out.metric("pfg.build_s", PfgS, "s");
    Out.metric("pfg.nodes", PfgNodes, "count");
    Out.metric("pfg.edges", PfgEdges, "count");
    Out.metric("constraints.gen_s", GenS, "s");
    Out.metric("constraints.vars", Vars, "count");
    Out.metric("constraints.factors", Factors, "count");
    Out.metric("factor.bp_s", BpS, "s");
    Out.metric("factor.bp_messages", BpMessages, "count");
    Out.metric("factor.bp_msgs_per_s", BpMsgsPerS, "1/s");
    Out.metric("factor.bp_converged_ratio", BpConvergedRatio, "ratio");
    Out.metric("infer.wall_s", InferWallS, "s");
    Out.metric("infer.wall_j1_s", InferWallJ1S, "s");
    Out.metric("infer.parallel_speedup", Speedup, "ratio");
    Out.metric("infer.solve_thread_s", SolveThreadS, "s");
    Out.metric("infer.solve_share", SolveShare, "ratio");
    Out.metric("infer.picks", Picks, "count");
    Out.metric("infer.fallback_ratio", FallbackRatio, "ratio");
    Out.metric("infer.model_vars", ModelVars, "count");
    Out.metric("infer.model_growth", ModelGrowth, "ratio");
    Out.metric("infer.wrong_specs", WrongSpecs, "count");
    Out.metric("cache.lookup_s", LookupS, "s");
    Out.metric("cache.store_s", StoreS, "s");
    Out.metric("cache.hits", Hits, "count");
    Out.metric("cache.misses", Misses, "count");
    Out.metric("cache.invalidated", Invalidated, "count");
    Out.metric("cache.stores", Stores, "count");
    Out.metric("cache.hit_ratio", HitRatio, "ratio");
    Out.metric("plural.check_s", CheckS, "s");
    Out.metric("plural.local_infer_s", LocalInferS, "s");
    Out.metric("plural.row_ops", RowOps, "count");
    Out.metric("serve.queue_wait_p50_s", QueueWaitP50S, "s");
    Out.metric("serve.exec_p50_s", ExecP50S, "s");
    Out.metric("serve.busy_share", BusyShare, "ratio");
    std::map<std::string, double> Self = Spans.selfSecondsByLayer(OpRoot);
    for (const char *Layer : {"lang", "analysis", "pfg", "constraints",
                              "factor", "infer", "cache", "plural", "serve"})
      Out.metric(std::string(Layer) + ".self_s", Self[Layer], "s");
    Out.metric("trace.verdict_overhead_s", VerdictOverheadS, "s");
    Out.metric("trace.request_p50_overhead_s", RequestP50OverheadS, "s");
  }
};

//===----------------------------------------------------------------------===//
// pmd and chain: repeated verdicts on one program
//===----------------------------------------------------------------------===//

struct VerdictWorkload {
  /// Builds the subject from the seed (the set-up's generation step).
  std::function<Subject(uint64_t)> Generate;
  /// Table 3 baseline on the inlined variant (chain only, traced runs).
  std::function<LocalInferenceResult(uint64_t, SpanLog &, unsigned,
                                     double &)>
      LocalInference;
};

void runVerdictWorkload(const Args &A, const VerdictWorkload &W,
                        Report &Out) {
  const unsigned Jobs = hostThreads();
  SpanLog Spans(A.Trace);
  SpanLog NoSpans(false);

  // Set-up: generate the program and make the -j1 reference verdict.
  std::vector<double> SetupSeconds, J1InferSeconds;
  Subject S;
  Verdict Ref;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    Timer T;
    Subject Fresh = W.Generate(A.Seed);
    Verdict FreshRef = runVerdict(Fresh, 1, NoSpans, 0);
    SetupSeconds.push_back(T.seconds());
    J1InferSeconds.push_back(FreshRef.InferSeconds);
    if (!FreshRef.Ok) {
      Out.problem("reference verdict failed: " + FreshRef.Error);
      return;
    }
    if (Rep != 0 && FreshRef.Rendered != Ref.Rendered)
      Out.problem("-j1 reference differs between set-up repetitions");
    S = std::move(Fresh);
    Ref = std::move(FreshRef);
  }
  if (Ref.UnflaggedBugSites)
    Out.problem("the -j1 reference leaves a planted bug site unflagged");

  // Measurement: closed loop of verdicts at jobs = nproc. A traced run
  // alternates untraced and traced verdicts, so both see the same host.
  std::vector<Verdict> Plain, Traced;
  unsigned Op = 0;
  Timer Clock;
  while (Clock.seconds() < A.Seconds || Plain.size() + Traced.size() < 3 ||
         (A.Trace && Traced.empty())) {
    const bool Trace = A.Trace && Op % 2 == 1;
    ++Op;
    Verdict V = runVerdict(S, Jobs, Trace ? Spans : NoSpans, Op);
    std::fprintf(stderr, "perfbench: verdict %u%s %.4f s\n", Op,
                 Trace ? " (traced)" : "", V.Seconds);
    ++Out.Attempted;
    if (std::string Why = verdictFailure(V, Ref); !Why.empty()) {
      ++Out.Failed;
      Out.problem("verdict " + std::to_string(Op) + ": " + Why);
    }
    V.Rendered.clear();
    (Trace ? Traced : Plain).push_back(std::move(V));
  }

  auto Collect = [](const std::vector<Verdict> &Vs, auto Field) {
    std::vector<double> Out;
    for (const Verdict &V : Vs)
      Out.push_back(static_cast<double>(Field(V)));
    return Out;
  };
  auto TotalSeconds = [](const Verdict &V) { return V.Seconds; };

  Out.setting("setup_reps", std::to_string(SetupReps));
  Out.setting("verdict_samples", std::to_string(Plain.size()));
  Out.setting("traced_samples", std::to_string(Traced.size()));
  Out.setting("jobs", std::to_string(Jobs));
  Out.setting("reference_jobs", "1");

  if (!A.Trace) {
    std::vector<double> Latency = Collect(Plain, TotalSeconds);
    double Wall = 0.0;
    for (double L : Latency)
      Wall += L;
    Out.metric("setup_s", median(SetupSeconds), "s");
    Out.metric("verdict_s", median(Latency), "s");
    Out.metric("requests_per_s", ratio(Latency.size(), Wall), "1/s");
    Out.metric("request_p50_s", median(Latency), "s");
    Out.metric("request_p90_s", quantile(Latency, 0.9), "s");
    Out.metric("peak_mb",
               median(Collect(Plain, [](const Verdict &V) {
                 return V.PeakBytes;
               })) / (1024.0 * 1024.0),
               "MB");
    Out.metric("false_warnings",
               median(Collect(Plain, [](const Verdict &V) {
                 return V.FalseWarnings;
               })),
               "count");
    return;
  }

  // Traced run: per-layer numbers from the traced verdicts and a replay
  // of the first pass on a fresh parse of the same program.
  Layers L;
  {
    DiagnosticEngine Diags;
    if (std::unique_ptr<Program> Prog = parseAndAnalyze(S.Source, Diags)) {
      const Replay R = replayFirstPass(*Prog, Spans, ++Op);
      L.fromReplay(R);
      Out.setting("waves", std::to_string(R.Waves));
    } else {
      Out.problem("replay parse failed");
    }
  }
  L.ParseS = median(Collect(Traced, [](const Verdict &V) {
    return V.ParseSeconds;
  }));
  L.LinesPerS = ratio(countLines(S.Source), L.ParseS);
  L.InferWallS = median(Collect(Traced, [](const Verdict &V) {
    return V.InferSeconds;
  }));
  L.InferWallJ1S = median(J1InferSeconds);
  L.Speedup = ratio(L.InferWallJ1S, L.InferWallS);
  L.SolveThreadS = median(Collect(Traced, [](const Verdict &V) {
    return V.SolveThreadSeconds;
  }));
  L.SolveShare = ratio(L.SolveThreadS, L.InferWallS * Jobs);
  // The counters repeat exactly across verdicts (the engine is
  // deterministic, which the reference comparison checks).
  const Verdict &Last = Traced.back();
  L.Picks = Last.Picks;
  L.FallbackRatio = ratio(Last.FallbackSolves, Last.Solves);
  L.ModelVars = Last.ModelVars;
  L.ModelGrowth = ratio(L.ModelVars, L.Vars);
  L.WrongSpecs = Last.WrongSpecs;
  L.CheckS = median(Collect(Traced, [](const Verdict &V) {
    return V.CheckSeconds;
  }));
  if (W.LocalInference) {
    double Seconds = 0.0;
    LocalInferenceResult Local =
        W.LocalInference(A.Seed, Spans, ++Op, Seconds);
    L.LocalInferS = Seconds;
    L.RowOps = static_cast<double>(Local.EliminationOps);
    if (!Local.Consistent)
      Out.problem("inlined variant has no consistent fraction assignment");
  }
  const double Overhead = median(Collect(Traced, TotalSeconds)) -
                          median(Collect(Plain, TotalSeconds));
  L.VerdictOverheadS = Overhead;
  L.RequestP50OverheadS = Overhead;
  L.emit(Out, Spans, "bench.verdict");
  std::string Error;
  if (!Spans.write(A.WorkDir + "/spans-" + A.Workload + ".json", Error))
    Out.problem(Error);
}

Subject generatePmd(uint64_t Seed) {
  PmdConfig Config;
  Config.Seed = Seed;
  Subject S;
  S.Corpus = std::make_shared<PmdCorpus>(generatePmdCorpus(Config));
  S.Source = S.Corpus->Source;
  S.BugSites = plantedBugSites(Config);
  return S;
}

LocalInferenceResult chainLocalInference(uint64_t Seed, SpanLog &Spans,
                                         unsigned Op, double &Seconds) {
  InlinePrograms Programs = generateInlineComparison(ChainHelpers, Seed);
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Inlined = parseAndAnalyze(Programs.Inlined, Diags);
  if (!Inlined)
    return {};
  for (MethodDecl *M : Inlined->methodsWithBodies()) {
    if (M->Name != "runAll")
      continue;
    MethodIr Ir = lowerToIr(*M);
    Pfg G = buildPfg(Ir);
    ScopedSpan Sp(Spans, "plural.local_infer", -1, Op);
    Timer T;
    LocalInferenceResult R = runLocalInference(G);
    Seconds = T.seconds();
    return R;
  }
  return {};
}

//===----------------------------------------------------------------------===//
// edit-stream: a batch of one-method edits served against a warm cache
//===----------------------------------------------------------------------===//

/// Forwards every call to the summary cache and counts (and, in traced
/// batches, times) what passes through. It never alters a result, which
/// the run checks by comparing its counts with the engine's own.
class CountingCache final : public SolveCache {
public:
  CountingCache(SolveCache &Inner, SpanLog *Spans)
      : Inner(Inner), Spans(Spans) {}

  CacheLookup lookup(const std::string &MethodName, uint64_t Key,
                     CachedSolve &Out) override {
    const double Start = Spans ? Spans->now() : 0.0;
    CacheLookup Result = Inner.lookup(MethodName, Key, Out);
    if (Spans)
      record("cache.lookup", Start, LookupNs);
    switch (Result) {
    case CacheLookup::Hit:
      ++Hits;
      break;
    case CacheLookup::Miss:
      ++Misses;
      break;
    case CacheLookup::Invalidated:
      ++Invalidated;
      break;
    case CacheLookup::Corrupt:
      ++Corrupt;
      break;
    }
    return Result;
  }

  void store(const std::string &MethodName, uint64_t Key,
             const CachedSolve &Entry) override {
    const double Start = Spans ? Spans->now() : 0.0;
    Inner.store(MethodName, Key, Entry);
    if (Spans)
      record("cache.store", Start, StoreNs);
    ++Stores;
  }

  std::atomic<unsigned> Hits{0}, Misses{0}, Invalidated{0}, Corrupt{0},
      Stores{0};
  std::atomic<long long> LookupNs{0}, StoreNs{0};

private:
  void record(const char *Name, double Start, std::atomic<long long> &Ns) {
    const double End = Spans->now();
    Ns += static_cast<long long>((End - Start) * 1e9);
    Spans->add(Name, Start, End, -1, 0);
  }

  SolveCache &Inner;
  SpanLog *Spans;
};

/// The bench_incremental corpus: a 700-method PMD-shaped program.
PmdConfig editStreamConfig(uint64_t Seed) {
  PmdConfig Config;
  Config.Seed = Seed;
  Config.Classes = 120;
  Config.Methods = 700;
  Config.Wrappers = 12;
  Config.FullSpecWrappers = 2;
  Config.DirectSites = 90;
  Config.WrapperConsumerSites = 45;
  Config.BuggySites = 2;
  Config.UnannotatedSetters = 3;
  return Config;
}

/// Edits the body of the generator's bulk method calc<Id> (one extra
/// accumulation statement: a semantic change, not formatting). False when
/// the method is absent.
bool editCalcMethod(std::string &Source, unsigned Id, unsigned Addend) {
  const std::string Needle = "int calc" + std::to_string(Id) +
                             "(int a, int b) {\n    int r = a;\n";
  const size_t At = Source.find(Needle);
  if (At == std::string::npos)
    return false;
  Source.insert(At + Needle.size(),
                "    r = r + " + std::to_string(Addend) + ";\n");
  return true;
}

struct EditRef {
  std::string Output;
  unsigned FalseWarnings = 0;
  unsigned UnflaggedBugSites = 0;
  unsigned WrongSpecs = 0;
  std::string Error;
};

/// The uncached reference for one request: the same inference the
/// serving layer runs (jobs 1, default seed), printed the way BatchResult
/// prints it, then checked with PLURAL.
EditRef referenceFor(const std::string &Source, const Subject &S) {
  EditRef Ref;
  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  if (!Prog) {
    Ref.Error = "reference parse failed";
    return Ref;
  }
  InferOptions Opts;
  Opts.Parallelism = 1;
  InferResult R = runAnekInfer(*Prog, Opts, &Diags);
  PrintOptions POpts;
  POpts.SpecFor = [&R](const MethodDecl &M) { return *R.specFor(&M); };
  Ref.Output = printProgram(*Prog, POpts);
  CheckResult Check = runChecker(*Prog, inferredSpecs(R));
  Verdict V;
  judgeWarnings(Check, S, V);
  Ref.FalseWarnings = V.FalseWarnings;
  Ref.UnflaggedBugSites = V.UnflaggedBugSites;
  Ref.WrongSpecs = wrongSpecs(*Prog, S.Corpus.get(), R);
  return Ref;
}

struct EditSetup {
  Subject S;
  std::vector<std::string> Sources;
  std::vector<EditRef> Refs;
};

/// Generates the corpus and the seed's edits, fills the cold cache in
/// \p CacheDir with one cold run, and makes every request's reference.
void setUpEditStream(uint64_t Seed, const fs::path &CacheDir, EditSetup &E,
                     Report &Out) {
  const PmdConfig Config = editStreamConfig(Seed);
  E.S.Corpus = std::make_shared<PmdCorpus>(generatePmdCorpus(Config));
  E.S.Source = E.S.Corpus->Source;
  E.S.BugSites = plantedBugSites(Config);

  // Which calc methods are edited, and in what order, follows the seed.
  std::vector<unsigned> Ids;
  for (unsigned Id = 0; Id != Config.Methods; ++Id) {
    const std::string Decl = "int calc" + std::to_string(Id) + "(int a";
    if (E.S.Source.find(Decl) != std::string::npos)
      Ids.push_back(Id);
  }
  Rng Random(Seed ^ 0x5EED5EED5EEDULL);
  for (size_t I = Ids.size(); I > 1; --I)
    std::swap(Ids[I - 1], Ids[Random.below(I)]);
  if (Ids.size() < EditRequests) {
    Out.problem("corpus has too few calc methods to edit");
    return;
  }
  E.Sources.clear();
  for (unsigned I = 0; I != EditRequests; ++I) {
    std::string Source = E.S.Source;
    const unsigned Addend = 1 + static_cast<unsigned>(Random.below(97));
    if (!editCalcMethod(Source, Ids[I], Addend)) {
      Out.problem("calc" + std::to_string(Ids[I]) + " has an unexpected body");
      return;
    }
    E.Sources.push_back(std::move(Source));
  }

  // The cold fill, through the counting decorator: its counts must equal
  // the engine's own accounting.
  std::error_code Ignored;
  fs::remove_all(CacheDir, Ignored);
  {
    DiagnosticEngine Diags;
    std::unique_ptr<Program> Prog = parseAndAnalyze(E.S.Source, Diags);
    if (!Prog) {
      Out.problem("edit-stream corpus failed to parse");
      return;
    }
    cache::SummaryCache Cold(CacheDir.string());
    CountingCache Counting(Cold, nullptr);
    InferOptions Opts;
    Opts.Parallelism = hostThreads();
    Opts.Cache = &Counting;
    InferResult R = runAnekInfer(*Prog, Opts, &Diags);
    const CacheStats &C = R.Cache;
    if (C.Hits != Counting.Hits || C.Misses != Counting.Misses ||
        C.Invalidated != Counting.Invalidated ||
        C.Corrupt != Counting.Corrupt || C.Stores != Counting.Stores)
      Out.problem("counting cache disagrees with InferResult::Cache");
    if (C.Stores == 0)
      Out.problem("cold fill stored nothing");
  }

  // Uncached references, made concurrently on up to EditWorkers threads.
  E.Refs.assign(E.Sources.size(), EditRef());
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != std::min(EditWorkers, hostThreads()); ++T)
    Threads.emplace_back([&] {
      for (size_t I = Next++; I < E.Sources.size(); I = Next++)
        E.Refs[I] = referenceFor(E.Sources[I], E.S);
    });
  for (std::thread &T : Threads)
    T.join();
  for (const EditRef &Ref : E.Refs) {
    if (!Ref.Error.empty())
      Out.problem(Ref.Error);
    else if (Ref.UnflaggedBugSites)
      Out.problem("a reference leaves a planted bug site unflagged");
  }
}

/// The files of the cold-filled cache directory and its index bytes. A
/// batch only adds blob files and appends to the index, so deleting the
/// added files and rewriting the index restores the cold state exactly,
/// without re-copying thousands of blobs (whose writeback would perturb
/// the next batch).
struct ColdCache {
  std::set<std::string> Files;
  std::string Index;
};

bool snapshotCold(const fs::path &Dir, ColdCache &Cold) {
  std::error_code Error;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, Error))
    Cold.Files.insert(E.path().filename().string());
  std::ifstream In(Dir / cache::IndexFileName, std::ios::binary);
  std::ostringstream Bytes;
  Bytes << In.rdbuf();
  Cold.Index = Bytes.str();
  return !Error && In && !Cold.Index.empty();
}

bool restoreCold(const fs::path &Dir, const ColdCache &Cold) {
  std::error_code Error;
  std::vector<fs::path> Added;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, Error))
    if (!Cold.Files.count(E.path().filename().string()))
      Added.push_back(E.path());
  for (const fs::path &P : Added)
    fs::remove(P, Error);
  std::ofstream Out(Dir / cache::IndexFileName,
                    std::ios::binary | std::ios::trunc);
  Out << Cold.Index;
  Out.close();
  return !Error && Out.good();
}

/// One served batch's measurements.
struct BatchRun {
  double Wall = 0.0;
  std::vector<double> Latency, Queue, Exec, Peak;
  unsigned Hits = 0, Misses = 0, Invalidated = 0, Stores = 0;
  double LookupSeconds = 0.0, StoreSeconds = 0.0;
};

void runEditStream(const Args &A, Report &Out) {
  const fs::path Work(A.WorkDir);
  const std::string Tag = std::to_string(::getpid());
  const fs::path CacheDir = Work / ("edit-cache-" + Tag);
  const unsigned Workers = std::min(EditWorkers, hostThreads());
  SpanLog Spans(A.Trace);
  SpanLog NoSpans(false);

  std::vector<double> SetupSeconds;
  EditSetup E;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    Timer T;
    setUpEditStream(A.Seed, CacheDir, E, Out);
    SetupSeconds.push_back(T.seconds());
    if (!Out.Problems.empty())
      return;
  }
  ColdCache Cold;
  if (!snapshotCold(CacheDir, Cold)) {
    Out.problem("cannot read the cold-filled cache");
    return;
  }

  std::vector<BatchRun> Plain, Traced;
  unsigned Op = 0;
  Timer Clock;
  while (Clock.seconds() < A.Seconds || Plain.size() + Traced.size() < 3 ||
         (A.Trace && Traced.empty())) {
    const bool Trace = A.Trace && (Plain.size() + Traced.size()) % 2 == 1;
    // Every batch starts from the cold-filled state, so each one pays for
    // its invalidations and stores, not just hits.
    if (!restoreCold(CacheDir, Cold)) {
      Out.problem("cannot restore the cold-filled cache");
      break;
    }
    cache::SummaryCache Store(CacheDir.string());
    SpanLog &Log = Trace ? Spans : NoSpans;
    CountingCache Counting(Store, Trace ? &Spans : nullptr);

    std::vector<serve::BatchRequest> Requests(E.Sources.size());
    for (size_t I = 0; I != Requests.size(); ++I) {
      Requests[I].Id = "edit" + std::to_string(I);
      Requests[I].Input = Requests[I].Id + ".mjava";
      Requests[I].Source = E.Sources[I];
    }
    const unsigned BatchOp = ++Op;
    const unsigned FirstRequestOp = Op + 1;
    Op += static_cast<unsigned>(Requests.size());

    struct Finish {
      std::thread::id Thread;
      double Start, End;
      unsigned Index;
    };
    std::vector<Finish> Finished;
    serve::BatchOptions Opts;
    Opts.Workers = Workers;
    Opts.QueueCap = Requests.size();
    Opts.DefaultJobs = 1;
    Opts.DefaultCacheDir = CacheDir.string();
    Opts.Cache = [&Counting](const std::string &) { return &Counting; };
    if (Trace)
      Opts.Sink = [&](const serve::BatchResult &Res) {
        const double End = Spans.now();
        Finished.push_back({std::this_thread::get_id(), End - Res.Seconds,
                            End, Res.Index});
      };

    BatchRun B;
    std::vector<serve::BatchResult> Results;
    int BatchSpanId = -1;
    {
      ScopedSpan BatchSpan(Log, "serve.batch", -1, BatchOp);
      BatchSpanId = BatchSpan.id();
      Timer T;
      Results = serve::BatchRunner(Opts).run(std::move(Requests));
      B.Wall = T.seconds();
    }
    if (Trace) {
      // Hang each request's execution under the batch, and each cache
      // call under the request its serving thread was running.
      std::vector<int> ExecSpan(Results.size(), -1);
      for (const Finish &F : Finished)
        ExecSpan[F.Index] = Spans.add("serve.exec", F.Start, F.End,
                                      BatchSpanId, FirstRequestOp + F.Index);
      std::vector<Span> All = Spans.spans();
      for (size_t Id = 0; Id != All.size(); ++Id) {
        const Span &S = All[Id];
        if (S.Parent != -1 || S.Name.rfind("cache.", 0) != 0)
          continue;
        for (const Finish &F : Finished)
          if (F.Thread == S.Thread && F.Start <= S.Start && S.Start <= F.End)
            Spans.adopt(static_cast<int>(Id), ExecSpan[F.Index],
                        FirstRequestOp + F.Index);
      }
    }

    unsigned SumHits = 0, SumMisses = 0;
    for (const serve::BatchResult &Res : Results) {
      ++Out.Attempted;
      const EditRef &Ref = E.Refs[Res.Index];
      std::string Why;
      if (Res.State != serve::TerminalState::Ok &&
          Res.State != serve::TerminalState::Degraded)
        Why = std::string("ended ") + serve::terminalStateName(Res.State) +
              ": " + Res.Reason;
      else if (Res.Output != Ref.Output)
        Why = "output differs from the uncached reference";
      else if (Ref.UnflaggedBugSites)
        Why = "planted bug site not flagged";
      if (!Why.empty()) {
        ++Out.Failed;
        Out.problem(Res.Id + ": " + Why);
      }
      SumHits += Res.CacheHits;
      SumMisses += Res.CacheMisses;
      B.Latency.push_back(Res.QueueSeconds + Res.Seconds);
      B.Queue.push_back(Res.QueueSeconds);
      B.Exec.push_back(Res.Seconds);
      B.Peak.push_back(static_cast<double>(Res.PeakBytes));
    }
    if (SumHits != Counting.Hits || SumMisses != Counting.Misses)
      Out.problem("counting cache disagrees with BatchResult cache counts");
    if (Counting.Stores == 0 || Counting.Invalidated == 0)
      Out.problem("an edit batch neither invalidated nor stored entries");
    B.Hits = Counting.Hits;
    B.Misses = Counting.Misses;
    B.Invalidated = Counting.Invalidated;
    B.Stores = Counting.Stores;
    B.LookupSeconds = static_cast<double>(Counting.LookupNs) * 1e-9;
    B.StoreSeconds = static_cast<double>(Counting.StoreNs) * 1e-9;
    std::fprintf(stderr, "perfbench: batch %u%s %.4f s\n", BatchOp,
                 Trace ? " (traced)" : "", B.Wall);
    (Trace ? Traced : Plain).push_back(std::move(B));
  }
  std::error_code Ignored;
  fs::remove_all(CacheDir, Ignored);

  auto Pool = [](const std::vector<BatchRun> &Runs,
                 std::vector<double> BatchRun::*Field) {
    std::vector<double> Out;
    for (const BatchRun &B : Runs)
      Out.insert(Out.end(), (B.*Field).begin(), (B.*Field).end());
    return Out;
  };
  auto PerBatch = [](const std::vector<BatchRun> &Runs, auto Field) {
    std::vector<double> Out;
    for (const BatchRun &B : Runs)
      Out.push_back(static_cast<double>(Field(B)));
    return Out;
  };

  Out.setting("setup_reps", std::to_string(SetupReps));
  Out.setting("batches", std::to_string(Plain.size()));
  Out.setting("traced_batches", std::to_string(Traced.size()));
  Out.setting("requests_per_batch", std::to_string(EditRequests));
  Out.setting("request_samples",
              std::to_string(Pool(Plain, &BatchRun::Latency).size()));
  Out.setting("workers", std::to_string(Workers));
  Out.setting("jobs", "1");
  Out.setting("arrival", "\"closed batch, all requests admitted at once\"");

  if (!A.Trace) {
    double Requests = 0.0, Wall = 0.0;
    for (const BatchRun &B : Plain) {
      Requests += static_cast<double>(B.Latency.size());
      Wall += B.Wall;
    }
    std::vector<double> Latency = Pool(Plain, &BatchRun::Latency);
    std::vector<double> FalseWarnings;
    for (const EditRef &Ref : E.Refs)
      FalseWarnings.push_back(Ref.FalseWarnings);
    Out.metric("setup_s", median(SetupSeconds), "s");
    Out.metric("verdict_s", median(Pool(Plain, &BatchRun::Exec)), "s");
    Out.metric("requests_per_s", ratio(Requests, Wall), "1/s");
    Out.metric("request_p50_s", median(Latency), "s");
    Out.metric("request_p90_s", quantile(Latency, 0.9), "s");
    Out.metric("peak_mb",
               median(Pool(Plain, &BatchRun::Peak)) / (1024.0 * 1024.0),
               "MB");
    Out.metric("false_warnings", median(FalseWarnings), "count");
    return;
  }

  Layers L;
  {
    // The serving layer parses inside each request; time the same parses
    // from outside, one span per request source.
    std::vector<double> ParseSeconds;
    for (size_t I = 0; I != E.Sources.size(); ++I) {
      ScopedSpan Sp(Spans, "lang.parse", -1, ++Op);
      DiagnosticEngine Diags;
      Timer T;
      std::unique_ptr<Program> Prog = parseAndAnalyze(E.Sources[I], Diags);
      ParseSeconds.push_back(T.seconds());
      if (!Prog)
        Out.problem("request source failed to parse");
    }
    L.ParseS = median(ParseSeconds);
    L.LinesPerS = ratio(countLines(E.S.Source), L.ParseS);
  }
  L.WrongSpecs = E.Refs.empty() ? 0 : E.Refs.front().WrongSpecs;
  L.LookupS = median(PerBatch(Traced, [](const BatchRun &B) {
    return B.LookupSeconds;
  }));
  L.StoreS = median(PerBatch(Traced, [](const BatchRun &B) {
    return B.StoreSeconds;
  }));
  L.Hits = median(PerBatch(Traced, [](const BatchRun &B) { return B.Hits; }));
  L.Misses =
      median(PerBatch(Traced, [](const BatchRun &B) { return B.Misses; }));
  L.Invalidated = median(
      PerBatch(Traced, [](const BatchRun &B) { return B.Invalidated; }));
  L.Stores =
      median(PerBatch(Traced, [](const BatchRun &B) { return B.Stores; }));
  L.HitRatio = ratio(L.Hits, L.Hits + L.Misses + L.Invalidated);
  L.QueueWaitP50S = median(Pool(Traced, &BatchRun::Queue));
  L.ExecP50S = median(Pool(Traced, &BatchRun::Exec));
  L.BusyShare = median(PerBatch(Traced, [Workers](const BatchRun &B) {
    double Busy = 0.0;
    for (double S : B.Exec)
      Busy += S;
    return ratio(Busy, Workers * B.Wall);
  }));
  const double Overhead = median(Pool(Traced, &BatchRun::Latency)) -
                          median(Pool(Plain, &BatchRun::Latency));
  L.VerdictOverheadS = median(Pool(Traced, &BatchRun::Exec)) -
                       median(Pool(Plain, &BatchRun::Exec));
  L.RequestP50OverheadS = Overhead;
  L.emit(Out, Spans, "serve.batch");
  std::string Error;
  if (!Spans.write(A.WorkDir + "/spans-" + A.Workload + ".json", Error))
    Out.problem(Error);
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Key = Argv[I], Value = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      A.Workload = Value;
    } else if (Key == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Value.empty();
    } else if (Key == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = End && *End == '\0' && A.Seconds > 0.0;
    } else if (Key == "--trace") {
      HaveTrace = Value == "0" || Value == "1";
      A.Trace = Value == "1";
    } else if (Key == "--work-dir") {
      A.WorkDir = Value;
    } else {
      return false;
    }
  }
  return (Argc % 2) == 1 && HaveSeed && HaveSeconds && HaveTrace &&
         !A.WorkDir.empty() &&
         (A.Workload == "pmd" || A.Workload == "chain" ||
          A.Workload == "edit-stream");
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

void printSettings(const Args &A, const Report &R) {
  std::string Line = "{\"host\": {\"nproc\": " + std::to_string(hostThreads()) +
                     ", \"build_type\": \"" ANEK_PERFBENCH_BUILD_TYPE "\"" +
                     ", \"avx2\": " + (cpu::hasAvx2() ? "true" : "false") +
                     ", \"neon\": " + (cpu::hasNeon() ? "true" : "false") +
                     ", \"kernel_backend\": \"" +
                     kern::kernelBackendName(kern::activeKernelBackend()) +
                     "\"}, \"settings\": {\"workload\": \"" + A.Workload +
                     "\", \"seed\": " + std::to_string(A.Seed) +
                     ", \"seconds\": " + jsonNumber(A.Seconds) +
                     ", \"trace\": " + (A.Trace ? "1" : "0") +
                     ", \"telemetry\": \"" +
                     telemetry::traceLevelName(telemetry::traceLevel()) +
                     "\", \"fuse_solves\": false, \"shards\": 0";
  for (const auto &[Key, Json] : R.Settings)
    Line += ", \"" + Key + "\": " + Json;
  Line += "}}";
  std::printf("%s\n", Line.c_str());
}

void printResult(const Report &R) {
  std::string Line = std::string("{\"correct\": ") +
                     (R.Problems.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const auto &[Name, Value] = R.Metrics[I];
    Line += (I ? ", \"" : "\"") + Name + "\": {\"value\": " +
            jsonNumber(Value.first) + ", \"unit\": \"" + Value.second + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: anek_perfbench --workload pmd|chain|edit-stream "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
    return 2;
  }
  std::error_code Error;
  fs::create_directories(A.WorkDir, Error);
  // Timed runs measure the program as shipped: its own telemetry off.
  telemetry::setTraceLevel(telemetry::TraceLevel::Off);

  Report R;
  if (A.Workload == "pmd") {
    VerdictWorkload W;
    W.Generate = generatePmd;
    runVerdictWorkload(A, W, R);
  } else if (A.Workload == "chain") {
    VerdictWorkload W;
    W.Generate = [](uint64_t Seed) {
      Subject S;
      S.Source = generateInlineComparison(ChainHelpers, Seed).Modular;
      return S;
    };
    W.LocalInference = chainLocalInference;
    runVerdictWorkload(A, W, R);
  } else {
    runEditStream(A, R);
  }

  for (const std::string &P : R.Problems)
    std::fprintf(stderr, "perfbench: %s\n", P.c_str());
  printSettings(A, R);
  printResult(R);
  return 0;
}
