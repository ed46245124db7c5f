//===- AnekInfer.h - The modular ANEK-INFER algorithm ------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ANEK-INFER worklist algorithm of paper Figure 9: per-method
/// probabilistic models are solved one at a time; probabilistic summaries
/// placed at method boundaries carry information across methods; the loop
/// runs a bounded number of iterations instead of to a fixpoint; a final
/// thresholding step extracts deterministic specifications.
///
/// The loop is scheduled as reverse-topological *waves* of call-graph
/// SCCs: every method in a wave is built and solved against a read-only
/// snapshot of the summary store, and the resulting evidence is merged
/// back in declaration order once the wave completes. Because the
/// schedule is the algorithm (not an implementation detail of a thread
/// count), `Parallelism = N` produces byte-identical results to
/// `Parallelism = 1`. See DESIGN.md, "Concurrency model".
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_INFER_ANEKINFER_H
#define ANEK_INFER_ANEKINFER_H

#include "constraints/ConstraintGen.h"
#include "factor/Solvers.h"
#include "infer/SolveCache.h"
#include "infer/Summary.h"
#include "lang/Ast.h"
#include "support/Cancel.h"
#include "support/Deadline.h"
#include "support/Diagnostics.h"
#include "support/MemTrack.h"

#include <memory>

namespace anek {

class ThreadPool;

/// Which marginal solver ANEK-INFER's SOLVE step uses.
enum class SolverChoice { SumProduct, Gibbs, Exact };

/// Renders a SolverChoice as "bp"/"gibbs"/"exact".
const char *solverChoiceName(SolverChoice Choice);

/// Extraction threshold t in [0.5, 1) (paper Section 3.4). The spec-prior
/// strengths are SpecPriorHigh/SpecPriorLow (constraints/VarMap.h).
inline constexpr double ExtractThreshold = 0.7;
/// A summary change below this does not requeue dependents.
inline constexpr double SummaryTolerance = 0.02;

/// Tunables of the inference (paper Sections 3.3-3.4).
struct InferOptions {
  /// Worklist picks (Figure 9's MaxIters). 0 means 3 passes over the
  /// methods with bodies. Once a round-boundary state repeats, whole
  /// periods of the cycle count toward it without being solved
  /// (InferResult::FastForwardedPicks).
  unsigned MaxIters = 0;
  SolverChoice Solver = SolverChoice::SumProduct;
  ConstraintOptions Constraints;

  // Robustness knobs (see DESIGN.md, "Failure model and degradation").
  /// Wall-clock budget per SOLVE step in seconds; 0 = unlimited. The
  /// budget is a degradation trigger, not an abort: an expired solve
  /// falls through the cascade and ultimately keeps the best partial
  /// marginals available.
  double SolveBudgetSeconds = 0.0;

  // Parallel scheduler (DESIGN.md, "Concurrency model").
  /// Worker threads for the wave scheduler: 1 = run wave jobs inline,
  /// 0 = one worker per hardware thread, N = exactly N workers. The
  /// schedule (SCC waves over a read-only summary snapshot, updates
  /// merged in declaration order) is the same for every value, so the
  /// result is byte-identical regardless of Parallelism.
  unsigned Parallelism = 1;
  /// User seed mixed into every per-method solver seed. Each method's
  /// Gibbs chain is seeded from a stable hash of its qualified name plus
  /// this value, so sampling does not depend on scheduling order.
  uint64_t Seed = 1;

  // Serving integration (DESIGN.md, "Serving model"). All four default to
  // "not governed"; single-request callers pay nothing.
  /// Externally owned worker pool for wave jobs; overrides Parallelism
  /// when set. The batch serving layer shares one pool across requests.
  ThreadPool *Pool = nullptr;
  /// Cooperative cancellation, polled at wave boundaries: a cancelled run
  /// stops scheduling waves and returns with InferResult::Aborted set to
  /// the token's status. The work already merged stays in the result.
  const CancelToken *Cancel = nullptr;
  /// Whole-run wall-clock budget, polled at the same wave boundaries
  /// (SolveBudgetSeconds bounds individual SOLVE steps). Unlimited by
  /// default; an explicitly limited budget that expires aborts the run
  /// with DeadlineExceeded.
  Deadline RunBudget;
  /// When set, every inference thread (scheduler and wave workers alike)
  /// enrolls its allocations here, so a batch request's peak-memory
  /// watermark covers the whole solve.
  memtrack::MemCharge *Memory = nullptr;
  /// Request-scoped fault label prefix: site-filtered faults also match
  /// "<FaultScope>/<qualified-method>", so a batch request can be faulted
  /// without perturbing concurrent requests over the same program.
  std::string FaultScope;

  // Incremental summary cache (DESIGN.md, "Incremental inference and the
  // summary cache").
  /// When set, the engine memoizes SOLVE invocations through this cache:
  /// each wave job's inputs are digested into a content key and a hit
  /// replays the stored evidence byte-identically instead of solving.
  /// Caching silently disables itself when its preconditions do not hold
  /// — a per-solve time budget (SolveBudgetSeconds > 0 makes solve
  /// results timing-dependent), ambiguous qualified method names, or an
  /// armed analysis-perturbing fault — because a replay would then not be
  /// guaranteed to reproduce what a fresh solve would compute.
  SolveCache *Cache = nullptr;
};

/// How phase 2's worklist loop ended.
enum class Phase2End {
  /// No method was left dirty: the summaries stopped moving.
  Fixpoint,
  /// The loop stopped at the MaxIters pick cap with methods still dirty.
  PickCap,
  /// InferOptions::Cancel or RunBudget cut the run short.
  Aborted,
};

/// Renders a Phase2End as "fixpoint"/"pick cap"/"aborted".
const char *phase2EndName(Phase2End End);

/// How one method's SOLVE step went, cascade decisions included.
struct MethodReport {
  /// The solver whose marginals were actually used (last solve).
  SolverChoice Used = SolverChoice::SumProduct;
  /// True when any fallback stage past the first BP attempt was taken.
  bool Fallback = false;
  /// Why the cascade moved on; empty when the first attempt converged.
  std::string Reason;
  /// Convergence report of the solve whose marginals were used.
  SolveReport Solve;
  /// Number of SOLVE invocations across worklist picks.
  unsigned Solves = 0;
  /// True when the method was skipped entirely (constraint generation or
  /// every solver failed); its summary stays at the conservative default.
  bool Failed = false;
  /// The failure, when Failed.
  std::string Error;
};

/// Outcome of a run. The per-method maps are keyed in declaration order
/// (MethodDeclMap), so iterating them for output is deterministic across
/// runs and processes — pointer-keyed maps would leak ASLR into reports.
struct InferResult {
  /// Inferred specs for methods that had none declared (non-empty only).
  MethodDeclMap<MethodSpec> Inferred;
  /// Final summaries (for inspection/benches).
  MethodDeclMap<MethodSummary> Summaries;

  /// Per-method solver/cascade reports (one per method with a body).
  MethodDeclMap<MethodReport> Reports;

  // Statistics.
  unsigned WorklistPicks = 0;
  unsigned MethodsAnalyzed = 0;
  /// Methods isolated after a failure (skipped with a diagnostic).
  unsigned MethodsFailed = 0;
  /// SOLVE steps that used a fallback solver.
  unsigned FallbackSolves = 0;
  unsigned TotalVariables = 0;
  unsigned TotalFactors = 0;
  double SolveSeconds = 0.0;

  // How phase 2 ended (DESIGN.md, "Concurrency model").
  Phase2End Ending = Phase2End::Fixpoint;
  /// Methods still dirty (queued, not failed) when phase 2 ended; 0 at a
  /// fixpoint.
  unsigned DirtyAtExit = 0;
  /// Length in rounds of the limit cycle phase 2 entered: the state at
  /// the end of round CycleDetectedRound equals the state at the end of
  /// round CycleDetectedRound - CyclePeriodRounds (round 0 ends before
  /// the first pick). Both 0 when no round-boundary state repeated.
  unsigned CyclePeriodRounds = 0;
  unsigned CycleDetectedRound = 0;
  /// Picks of whole cycle periods that were credited without solving.
  /// Already counted in WorklistPicks (and their model sizes and solve
  /// counts in TotalVariables, TotalFactors, FallbackSolves and
  /// Reports); they add nothing to SolveSeconds.
  unsigned FastForwardedPicks = 0;

  /// Summary-cache accounting; all zero unless InferOptions::Cache was
  /// set and usable. Corrupt != 0 means entries failed validation and
  /// were re-inferred (a cache integrity problem is never a run error).
  CacheStats Cache;

  /// Non-ok when the run was cut short by InferOptions::Cancel or
  /// RunBudget at a wave boundary. Summaries and reports reflect the work
  /// merged before the abort; no specs are extracted from an aborted run.
  Status Aborted;

  /// The spec to use for \p Method: declared when present, else inferred,
  /// else an empty spec.
  const MethodSpec *specFor(const MethodDecl *Method) const;

  /// Number of methods that received a non-empty inferred spec.
  unsigned inferredAnnotationCount() const {
    return static_cast<unsigned>(Inferred.size());
  }
};

/// Runs ANEK-INFER over every method with a body in \p Prog.
///
/// Inference never aborts on a bad method: a method whose constraint
/// generation or solve fails is skipped with a warning collected in
/// \p Diags (when provided), keeps its conservative default summary, and
/// the rest of the program is still inferred.
InferResult runAnekInfer(Program &Prog, const InferOptions &Opts = {},
                         DiagnosticEngine *Diags = nullptr);

} // namespace anek

#endif // ANEK_INFER_ANEKINFER_H
