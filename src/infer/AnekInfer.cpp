//===- AnekInfer.cpp - The modular ANEK-INFER algorithm --------------------===//

#include "infer/AnekInfer.h"

#include "analysis/CallGraph.h"
#include "analysis/IrBuilder.h"
#include "factor/Solvers.h"
#include "infer/SummaryIO.h"
#include "lang/PrettyPrinter.h"
#include "pfg/PfgBuilder.h"
#include "support/FaultInject.h"
#include "support/Format.h"
#include "support/Hash.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <unordered_map>
#include <unordered_set>

using namespace anek;

const char *anek::solverChoiceName(SolverChoice Choice) {
  switch (Choice) {
  case SolverChoice::SumProduct:
    return "bp";
  case SolverChoice::Gibbs:
    return "gibbs";
  case SolverChoice::Exact:
    return "exact";
  }
  return "unknown";
}

const char *anek::phase2EndName(Phase2End End) {
  switch (End) {
  case Phase2End::Fixpoint:
    return "fixpoint";
  case Phase2End::PickCap:
    return "pick cap";
  case Phase2End::Aborted:
    return "aborted";
  }
  return "unknown";
}

const MethodSpec *InferResult::specFor(const MethodDecl *Method) const {
  static const MethodSpec Empty;
  if (Method->HasDeclaredSpec)
    return &Method->DeclaredSpec;
  auto It = Inferred.find(Method);
  if (It != Inferred.end())
    return &It->second;
  return &Empty;
}

namespace {

/// Odds-ratio clamp: keeps evidence finite when marginals saturate.
double oddsRatio(double Marginal, double AppliedPrior) {
  double Ratio = probToOdds(Marginal) / probToOdds(AppliedPrior);
  return std::clamp(Ratio, 1e-6, 1e6);
}

/// Rewrites a summary prior for call-site application.
///
/// Requirement side (call pre): a callee that requires K is satisfied by
/// anything stronger, so kinds *stronger* than the winning kind must not
/// be suppressed — the object flowing through may hold more than is lent.
///
/// Availability side (call post / result): a callee that returns K also
/// makes every *weaker* kind available (unique can be downgraded to
/// anything), and the caller's retained permission can reconstitute
/// *stronger* kinds through merging (Section 2's borrow round trip), so
/// no kind other than the named one may be suppressed at the site.
std::vector<double> transformPrior(std::vector<double> P,
                                   bool IsRequirement) {
  if (P.size() < NumPermKinds)
    return P;
  unsigned Best = 0;
  for (unsigned K = 1; K != NumPermKinds; ++K)
    if (P[K] > P[Best])
      Best = K;
  if (P[Best] <= 0.6)
    return P; // No confident kind: leave untouched.
  if (IsRequirement) {
    for (unsigned K = 0; K != Best; ++K)
      P[K] = std::max(P[K], 0.5);
  } else {
    for (unsigned K = Best + 1; K != NumPermKinds; ++K)
      P[K] = std::max(P[K], 0.5);
  }
  return P;
}

/// Appends one cascade decision to a report's reason trail and mirrors it
/// into the trace, so `--report` output and a Perfetto view of the same
/// run tell one story.
void appendReason(MethodReport &Report, std::string Why) {
  if (telemetry::enabled(telemetry::TraceLevel::Solver))
    telemetry::instant("cascade.transition", telemetry::TraceLevel::Solver,
                       "infer",
                       "\"reason\":" + telemetry::jsonQuote(Why));
  if (!Report.Reason.empty())
    Report.Reason += "; ";
  Report.Reason += std::move(Why);
}

/// True when every SOLVE of this run is a pure function of its inputs,
/// so a repeated input may stand in for a solve. A per-solve time budget
/// makes outcomes timing-dependent (governed batch requests set one),
/// and an analysis-perturbing fault changes what a fresh solve computes.
/// wire-corrupt only flips stored cache bytes, which the blob checksum
/// rejects, so it passes.
/// The summary cache and the limit-cycle fast-forward both require this.
bool solvesReplayable(const InferOptions &Opts) {
  if (Opts.SolveBudgetSeconds > 0.0)
    return false;
  return !(faults::anyActive() &&
           (faults::kindActive(FaultKind::BpNonConvergence) ||
            faults::kindActive(FaultKind::DeadlineExpiry) ||
            faults::kindActive(FaultKind::AllocPerturb) ||
            faults::kindActive(FaultKind::SolveFailure)));
}

/// Counts one cascade stage entry (Phase-level metrics).
void countCascadeStage(const char *Stage) {
  if (telemetry::enabled(telemetry::TraceLevel::Phase))
    telemetry::counter(std::string("cascade.stage.") + Stage).add(1);
}

/// The engine behind runAnekInfer.
///
/// Phase 2 runs as rounds of reverse-topological SCC *waves* (see
/// CallGraph::sccWaves). Every method in a wave is analyzed as an
/// independent job against the summary store as it stood when the wave
/// began: jobs only read, and return their evidence as deferred
/// PendingUpdate records. The scheduling thread merges those records in
/// declaration order after the wave, so the float reductions inside the
/// summaries see one fixed order no matter how many workers ran the
/// jobs. This makes `-j N` byte-identical to `-j 1` by construction.
class InferEngine {
public:
  InferEngine(Program &Prog, const InferOptions &Opts,
              DiagnosticEngine *Diags)
      : Prog(Prog), Opts(Opts), Diags(Diags), Graph(Prog),
        DebugEvidence(std::getenv("ANEK_DEBUG_EVIDENCE") != nullptr) {}

  InferResult run();

private:
  struct MethodData {
    MethodIr Ir;
    Pfg G;
  };

  using MethodSet = std::set<MethodDecl *, DeclIndexLess>;

  /// One deferred summary write produced by a wave job. Applied by the
  /// scheduling thread only, in declaration order.
  struct PendingUpdate {
    TargetSummary *Target = nullptr;
    /// Method whose summary the target belongs to (requeue key).
    MethodDecl *SummaryOwner = nullptr;
    /// Which interface target of the owner (with ParamIndex for the
    /// Param* roles). Redundant with Target in process; it is the
    /// pointer-free name a cache entry stores instead.
    summaryio::SummaryTargetRole Role = summaryio::SummaryTargetRole::RecvPre;
    uint32_t ParamIndex = 0;
    bool IsSelf = false;
    CallSiteKey Site{nullptr, 0};
    std::vector<double> Odds;
    /// ANEK_DEBUG_EVIDENCE trace line (empty when tracing is off);
    /// printed at merge time so the trace is deterministic too.
    std::string DebugLine;
  };

  /// Everything a wave job hands back to the scheduler.
  struct MethodOutcome {
    bool Failed = false;
    std::string Error;
    MethodReport Report;
    std::vector<PendingUpdate> Updates;
    unsigned Variables = 0;
    unsigned Factors = 0;
    double SolveSeconds = 0.0;
  };

  /// Record of one summary-prior application so its evidence can be
  /// divided back out after the solve.
  struct Application {
    PfgNodeId Node = NoPfgNode;
    TargetSummary *Target = nullptr;
    /// Method whose summary the target belongs to.
    MethodDecl *SummaryOwner = nullptr;
    summaryio::SummaryTargetRole Role = summaryio::SummaryTargetRole::RecvPre;
    uint32_t ParamIndex = 0;
    std::vector<double> Applied;
    bool IsSelf = false;
    /// True for call-site precondition nodes: a site may only weaken a
    /// requirement, never strengthen it (requirements come from bodies).
    bool IsRequirement = false;
    CallSiteKey Site{nullptr, 0};
  };

  /// Builds and solves one method's model against the current (frozen)
  /// summary store. Pure with respect to engine state: all writes are
  /// returned as deferred updates inside the outcome. Safe to run
  /// concurrently with other analyzeOne calls. A non-null \p SolvePool
  /// splits the BP solve across that pool (SumProductSolver::solve);
  /// the caller must not be one of its jobs.
  MethodOutcome analyzeOne(MethodDecl *M, ThreadPool *SolvePool);

  /// Enumerates every summary-prior application \p M's model makes —
  /// own interface targets first, then call sites in PFG order — with
  /// App.Applied already pooled and transformed, and hands each record to
  /// \p Fn (which may consume it). This is the single source of truth for
  /// the application stream: analyzeOne uses it to set priors, and
  /// solveKeyFor digests the identical stream into the cache key, so the
  /// two can never drift apart. Reads the frozen summary store only.
  void forEachApplication(MethodDecl *M, const Pfg &G,
                          const std::function<void(Application &)> &Fn);

  /// Per-target evidence helper: converts the solved marginals /
  /// graph-side cavity beliefs into an odds vector (call-site evidence
  /// on preconditions is weaken-only: odds capped at 1). Appends a
  /// deferred update to \p Updates; no engine state is touched.
  void computeEvidence(std::vector<PendingUpdate> &Updates,
                       const Application &App,
                       const std::vector<double> &Marginals,
                       const std::vector<double> &GraphBelief) const;

  /// The target a (role, param-index) pair names inside \p Summary, or
  /// null when that interface position carries no summary.
  static TargetSummary *resolveTarget(MethodSummary &Summary,
                                      summaryio::SummaryTargetRole Role,
                                      uint32_t ParamIndex);

  /// Digest of the state at a phase-2 round boundary: every summary's
  /// evidence (what summaryio::encodeSnapshot serializes) plus the dirty
  /// and failed sets by declaration index. Every later wave is a function
  /// of this state (see the fast-forward in run()).
  uint64_t roundStateDigest(const MethodSet &Dirty,
                            const MethodSet &Failed) const;

  // Incremental summary cache (DESIGN.md, "Incremental inference and the
  // summary cache"). The engine memoizes individual SOLVE invocations:
  // the key digests every input the solve depends on, so a hit replays
  // the stored evidence byte-identically by construction.

  /// Gates and arms the cache for this run: verifies the preconditions
  /// (no per-solve time budget, unique qualified names, no armed
  /// analysis-perturbing fault) and precomputes the run-constant key
  /// components — the program-environment/options digest and the per-SCC
  /// transitive content chain hashes. Leaves Cache null when unusable.
  void prepareCache();

  /// The content key of \p M's next SOLVE against the current summary
  /// store: environment digest + the method's SCC chain hash + its
  /// solver seed + the exact bit patterns of the application stream.
  uint64_t solveKeyFor(MethodDecl *M);

  /// Converts a cached solve back into an engine outcome, resolving
  /// qualified names against the current program and validating shape
  /// (known owners/callers, present targets, matching odds arity). False
  /// on any mismatch: the entry is then treated as invalidated and the
  /// method re-solved.
  bool adoptCachedSolve(CachedSolve Entry, MethodOutcome &Out);

  /// The durable image of a fresh outcome, with every method named by
  /// qualified name so the entry survives declaration-index shifts.
  CachedSolve toCachedSolve(const MethodOutcome &Out) const;

  /// Runs the configured solver, walking the fallback cascade when the
  /// primary misses its convergence contract; fills \p GraphBelief with
  /// the per-node cavity beliefs (for solvers without native support,
  /// approximated by dividing the prior out of the marginal) and records
  /// the cascade decisions in \p Report. \p Seed seeds any sampling
  /// stage (stable per method, independent of scheduling).
  Expected<Marginals> solveGraph(const FactorGraph &G, Marginals &GraphBelief,
                                 MethodReport &Report, uint64_t Seed,
                                 ThreadPool *SolvePool) const;

  /// Stable solver seed for \p M: a hash of the qualified method name
  /// mixed with the user seed. Identical across runs, processes and job
  /// counts; distinct (in practice) across methods and user seeds.
  uint64_t methodSeed(const MethodDecl *M) const;

  Program &Prog;
  const InferOptions &Opts;
  DiagnosticEngine *Diags;
  CallGraph Graph;
  /// ANEK_DEBUG_EVIDENCE was set when the run started: every update then
  /// carries a trace line, printed at merge time.
  const bool DebugEvidence;
  // All per-method maps are declaration-ordered so every iteration over
  // them (merging, reporting, extraction) is deterministic.
  MethodDeclMap<MethodReport> Reports;
  MethodDeclMap<MethodData> Data;
  MethodDeclMap<MethodSummary> Summaries;

  /// Non-null only when Opts.Cache is set and its preconditions hold
  /// (see prepareCache); everything below is populated alongside it.
  SolveCache *Cache = nullptr;
  /// Digest of the type/signature/annotation environment (bodies
  /// excluded) mixed with the algorithm-option fingerprint.
  uint64_t CacheEnvHash = 0;
  /// Per method: its SCC's token-content hash mixed with the chain
  /// hashes of every callee SCC, transitively. Editing any method
  /// changes this for the whole reverse-reachable cone — that is the
  /// cache's invalidation propagation.
  std::map<const MethodDecl *, uint64_t> ChainHashes;
  /// Qualified name -> method, for cache-entry replay resolution.
  std::map<std::string, MethodDecl *> DeclsByName;
};

} // namespace

void InferEngine::computeEvidence(std::vector<PendingUpdate> &Updates,
                                  const Application &App,
                                  const std::vector<double> &Marginals,
                                  const std::vector<double> &GraphBelief) const {
  TargetSummary *Target = App.Target;
  const std::vector<double> &Applied = App.Applied;
  MethodDecl *SummaryOwner = App.SummaryOwner;
  const bool IsSelf = App.IsSelf;
  const bool WeakenOnly = !App.IsSelf && App.IsRequirement;
  const CallSiteKey &Site = App.Site;
  // Two evidence channels, chosen by direction:
  //
  //  - Requirement-side call votes (WeakenOnly) use the graph-side cavity
  //    belief (the node's applied prior excluded): a caller that knows
  //    nothing about the object yields exactly 0.5 = neutral, so
  //    ignorance never erodes an API spec, while genuine contradiction
  //    (e.g. ALIVE evidence against a HASNEXT requirement) votes below.
  //
  //  - Everything else measures the solved marginal against the applied
  //    prior: that integrates long equality chains strongly enough for
  //    body evidence to clear the extraction threshold. A probability
  //    deadband absorbs the attenuation a strong prior suffers from
  //    merely-uninformed neighbors.
  // The weaken deadband is wide: post-condition priors of *other* calls
  // on the same chain can depress a cavity belief to ~0.4 without any
  // real counter-evidence; genuine contradiction (a state test or a
  // conflicting spec one hop away) lands near 0.1-0.2.
  constexpr double WeakenDeadband = 0.2;
  constexpr double BoostDeadband = 0.15;
  constexpr double OddsCap = 9.0;

  std::vector<double> Odds(Target->size(), 1.0);
  for (size_t I = 0, E = std::min(Applied.size(), Marginals.size()); I != E;
       ++I) {
    if (I >= Odds.size())
      break;
    double Ratio = 1.0;
    if (WeakenOnly) {
      double Belief = I < GraphBelief.size() ? GraphBelief[I] : 0.5;
      if (std::fabs(Belief - 0.5) < WeakenDeadband)
        continue;
      Ratio = std::min(probToOdds(Belief), 1.0);
    } else {
      if (std::fabs(Marginals[I] - Applied[I]) < BoostDeadband)
        continue;
      Ratio = oddsRatio(Marginals[I], Applied[I]);
    }
    Odds[I] = std::clamp(Ratio, 1.0 / OddsCap, OddsCap);
  }

  PendingUpdate Update;
  Update.Target = Target;
  Update.SummaryOwner = SummaryOwner;
  Update.Role = App.Role;
  Update.ParamIndex = App.ParamIndex;
  Update.IsSelf = IsSelf;
  Update.Site = Site;
  if (DebugEvidence) {
    std::string Line = SummaryOwner ? SummaryOwner->qualifiedName() : "?";
    Line += IsSelf ? " self" : " site";
    if (!IsSelf && Site.first)
      Line += " " + Site.first->qualifiedName() + "#" +
              std::to_string(Site.second);
    Line += WeakenOnly ? " [weaken]" : " [boost]";
    for (size_t I = 0; I != Odds.size(); ++I)
      if (Odds[I] != 1.0)
        Line += " v" + std::to_string(I) + "=" +
                std::to_string(Odds[I]);
    Update.DebugLine = std::move(Line);
  }
  Update.Odds = std::move(Odds);
  Updates.push_back(std::move(Update));
}

uint64_t InferEngine::methodSeed(const MethodDecl *M) const {
  uint64_t Hash = stableHash64(M->qualifiedName());
  // splitmix64-style finalizer over the user seed, so nearby seeds (1, 2,
  // ...) still decorrelate every method's chain.
  uint64_t S = Opts.Seed + 0x9E3779B97F4A7C15ULL;
  S = (S ^ (S >> 30)) * 0xBF58476D1CE4E5B9ULL;
  S = (S ^ (S >> 27)) * 0x94D049BB133111EBULL;
  S ^= S >> 31;
  uint64_t Mixed = Hash ^ S;
  return Mixed ? Mixed : 0x9E3779B97F4A7C15ULL;
}

Expected<Marginals> InferEngine::solveGraph(const FactorGraph &G,
                                            Marginals &GraphBelief,
                                            MethodReport &Report,
                                            uint64_t Seed,
                                            ThreadPool *SolvePool) const {
  Deadline Budget = Opts.SolveBudgetSeconds > 0.0
                        ? Deadline::afterSeconds(Opts.SolveBudgetSeconds)
                        : Deadline();
  ++Report.Solves;
  Report.Fallback = false;
  Report.Reason.clear();

  // For solvers without native cavity support, divide the prior out of
  // the marginal (exact on trees, approximate on loops).
  auto DividePriors = [&](const Marginals &M) {
    GraphBelief.assign(M.size(), 0.5);
    for (unsigned V = 0; V != M.size(); ++V)
      GraphBelief[V] = oddsToProb(probToOdds(M[V]) /
                                  probToOdds(G.variable(V).Prior));
  };

  auto RunBp = [&](SumProductSolver::Options O) {
    O.Budget = Budget;
    Report.Used = SolverChoice::SumProduct;
    return SumProductSolver(O).solve(G, &GraphBelief, &Report.Solve,
                                     SolvePool);
  };
  auto RunGibbs = [&]() {
    GibbsSolver::Options O;
    O.Budget = Budget;
    O.Seed = Seed;
    Report.Used = SolverChoice::Gibbs;
    Marginals M = GibbsSolver(O).solve(G, &Report.Solve);
    DividePriors(M);
    return M;
  };
  // Terminal stage: enumeration is bounded by MaxVariables, so it runs
  // without the outer budget (an injected 'deadline' fault still trips
  // the fresh Deadline and exercises the total-failure path).
  auto RunExact = [&]() -> Expected<Marginals> {
    Expected<Marginals> M = ExactSolver().solve(G, Deadline());
    if (M) {
      DividePriors(*M);
      Report.Used = SolverChoice::Exact;
      Report.Solve = SolveReport();
      Report.Solve.Converged = true;
    }
    return M;
  };

  // Explicitly requested non-default solvers keep their semantics.
  if (Opts.Solver == SolverChoice::Gibbs)
    return RunGibbs();
  if (Opts.Solver == SolverChoice::Exact) {
    Expected<Marginals> M = RunExact();
    if (M)
      return M;
    // Too large for enumeration; fall back to belief propagation.
    Report.Fallback = true;
    appendReason(Report, M.status().str());
    return RunBp(SumProductSolver::Options());
  }

  // The cascade (DESIGN.md): BP -> Gibbs -> exact.
  Marginals BpM = RunBp(SumProductSolver::Options());
  if (Report.Solve.Converged || !Opts.Fallback)
    return BpM;

  Report.Fallback = true;
  SolveReport BpReport = Report.Solve;
  // Nearly-converged beliefs beat a jump to sampling: Gibbs noise can
  // erase a spec that a residual this small would have kept. The injected
  // non-convergence fault models *bad* divergence, so it skips this exit.
  constexpr double NearConvergence = 1e-2;
  if (!(faults::anyActive() &&
        faults::active(FaultKind::BpNonConvergence)) &&
      !Report.Solve.DeadlineExpired &&
      Report.Solve.Residual <= NearConvergence) {
    appendReason(Report, formatStr("accepted nearly-converged bp "
                                   "(residual %.2g)",
                                   Report.Solve.Residual));
    return BpM;
  }
  // The solver names its own failure (SolveReport::Reason); the cascade
  // only adds which stage it is leaving.
  appendReason(Report,
               "bp missed convergence (" + Report.Solve.Reason + ")");
  countCascadeStage("gibbs");

  // Stage 2: seeded Gibbs does not depend on message convergence at all.
  Marginals GibbsM = RunGibbs();
  if (Report.Solve.Converged)
    return GibbsM;
  bool GibbsCollectedSome = Report.Solve.Iterations > 0;
  // Thread the sampler's own reason through: before SolveReport carried
  // one, a Samples == 0 non-convergence left this stage reasonless in
  // the trail, so Diagnostics and traces disagreed on why Gibbs was
  // abandoned.
  appendReason(Report, "gibbs chain cut short (" +
                           (Report.Solve.Reason.empty()
                                ? std::string("no reason reported")
                                : Report.Solve.Reason) +
                           ")");

  // Stage 3: exact enumeration when the graph is small enough.
  if (G.variableCount() <= ExactSolver::MaxVariables) {
    countCascadeStage("exact");
    Expected<Marginals> ExactM = RunExact();
    if (ExactM)
      return ExactM;
    appendReason(Report, ExactM.status().str());
  }

  // Every stage degraded: keep the best approximation we have — a partial
  // Gibbs estimate when any samples were collected, else the unconverged
  // BP beliefs. Still a usable approximation, and the report says
  // exactly how it was obtained.
  if (telemetry::enabled(telemetry::TraceLevel::Phase))
    telemetry::counter("cascade.kept_degraded").add(1);
  if (GibbsCollectedSome) {
    appendReason(Report, "using partial gibbs estimate");
    return GibbsM;
  }
  Report.Used = SolverChoice::SumProduct;
  Report.Solve = BpReport;
  appendReason(Report, "using unconverged bp beliefs");
  // GraphBelief currently holds Gibbs-derived beliefs; recompute for the
  // BP marginals we are about to return.
  DividePriors(BpM);
  return BpM;
}

void InferEngine::forEachApplication(
    MethodDecl *M, const Pfg &G,
    const std::function<void(Application &)> &Fn) {
  using summaryio::SummaryTargetRole;
  auto Apply = [&](PfgNodeId Node, TargetSummary *Target,
                   MethodDecl *SummaryOwner, SummaryTargetRole Role,
                   uint32_t ParamIndex, bool IsSelf, CallSiteKey Site,
                   bool IsRequirement = false) {
    if (Node == NoPfgNode || !Target)
      return;
    Application App;
    App.Node = Node;
    App.Target = Target;
    App.SummaryOwner = SummaryOwner;
    App.Role = Role;
    App.ParamIndex = ParamIndex;
    App.IsSelf = IsSelf;
    App.Site = Site;
    App.IsRequirement = IsRequirement;
    App.Applied =
        IsSelf ? Target->pooledWithoutSelf() : Target->pooledWithoutSite(Site);
    if (!IsSelf)
      App.Applied = transformPrior(std::move(App.Applied), IsRequirement);
    Fn(App);
  };

  // The method's own interface nodes: prior = summary minus own evidence.
  MethodSummary &Self = Summaries.at(M);
  CallSiteKey NoSite{nullptr, 0};
  Apply(G.ReceiverPre, Self.RecvPre ? &*Self.RecvPre : nullptr, M,
        SummaryTargetRole::RecvPre, 0, true, NoSite);
  Apply(G.ReceiverPost, Self.RecvPost ? &*Self.RecvPost : nullptr, M,
        SummaryTargetRole::RecvPost, 0, true, NoSite);
  for (size_t I = 0; I != G.ParamPre.size(); ++I) {
    if (I < Self.ParamPre.size() && Self.ParamPre[I])
      Apply(G.ParamPre[I], &*Self.ParamPre[I], M,
            SummaryTargetRole::ParamPre, static_cast<uint32_t>(I), true,
            NoSite);
    if (I < Self.ParamPost.size() && Self.ParamPost[I])
      Apply(G.ParamPost[I], &*Self.ParamPost[I], M,
            SummaryTargetRole::ParamPost, static_cast<uint32_t>(I), true,
            NoSite);
  }
  if (Self.Result)
    Apply(G.ResultNode, &*Self.Result, M, SummaryTargetRole::Result, 0, true,
          NoSite);

  // Call sites: cavity priors from callee summaries (APPLYSUMMARY).
  for (uint32_t S = 0; S != G.CallSites.size(); ++S) {
    const PfgCallSite &Site = G.CallSites[S];
    if (!Site.Callee)
      continue;
    auto SumIt = Summaries.find(Site.Callee);
    if (SumIt == Summaries.end())
      continue;
    MethodSummary &Callee = SumIt->second;
    MethodDecl *D = Site.Callee;
    CallSiteKey Key{M, S};
    Apply(Site.RecvPre, Callee.RecvPre ? &*Callee.RecvPre : nullptr, D,
          SummaryTargetRole::RecvPre, 0, false, Key, /*IsRequirement=*/true);
    Apply(Site.RecvPost, Callee.RecvPost ? &*Callee.RecvPost : nullptr, D,
          SummaryTargetRole::RecvPost, 0, false, Key);
    for (size_t I = 0; I != Site.ArgPre.size(); ++I) {
      if (I < Callee.ParamPre.size() && Callee.ParamPre[I])
        Apply(Site.ArgPre[I], &*Callee.ParamPre[I], D,
              SummaryTargetRole::ParamPre, static_cast<uint32_t>(I), false,
              Key, /*IsRequirement=*/true);
      if (I < Callee.ParamPost.size() && Callee.ParamPost[I])
        Apply(Site.ArgPost[I], &*Callee.ParamPost[I], D,
              SummaryTargetRole::ParamPost, static_cast<uint32_t>(I), false,
              Key);
    }
    if (Callee.Result)
      Apply(Site.Result, &*Callee.Result, D, SummaryTargetRole::Result, 0,
            false, Key);
  }
}

InferEngine::MethodOutcome InferEngine::analyzeOne(MethodDecl *M,
                                                   ThreadPool *SolvePool) {
  MethodOutcome Out;
  auto Fail = [&](const Status &S) {
    Out.Failed = true;
    Out.Error = S.str();
    return std::move(Out);
  };

  // Fault 'solve-fail': this method's SOLVE step fails outright, proving
  // the isolation path keeps the rest of the program inferable. Under a
  // batch FaultScope the scoped label "<scope>/<method>" also matches, so
  // one request can be poisoned without touching its neighbors.
  if (faults::anyActive() &&
      (faults::active(FaultKind::SolveFailure, M->qualifiedName()) ||
       (!Opts.FaultScope.empty() &&
        faults::active(FaultKind::SolveFailure,
                       Opts.FaultScope + "/" + M->qualifiedName()))))
    return Fail(
        faults::injectedError(FaultKind::SolveFailure, M->qualifiedName()));

  const MethodData &MD = Data.at(M);
  const Pfg &G = MD.G;

  FactorGraph FG;
  PfgVarMap Vars(G, FG);
  generateConstraints(G, FG, Vars, Opts.Constraints);

  // Records of every prior application so evidence can be divided out.
  // Everything read below comes from the wave's frozen summary store;
  // the writes go through deferred PendingUpdates.
  std::vector<Application> Applications;
  forEachApplication(M, G, [&](Application &App) {
    setMarginalPriors(FG, Vars.node(App.Node), App.Applied);
    Applications.push_back(std::move(App));
  });

  Timer SolveTimer;
  Marginals GraphBelief;
  Expected<Marginals> Solved =
      solveGraph(FG, GraphBelief, Out.Report, methodSeed(M), SolvePool);
  Out.SolveSeconds = SolveTimer.seconds();
  Out.Variables = FG.variableCount();
  Out.Factors = FG.factorCount();
  if (!Solved)
    return Fail(Solved.status());
  Marginals Solution = Solved.take();

  // Compute the evidence to push back into summaries (UPDATESUMMARY) as
  // deferred updates; the scheduling thread applies them after the wave.
  for (const Application &App : Applications) {
    std::vector<double> NodeMarginals =
        readMarginals(Vars.node(App.Node), Solution);
    std::vector<double> NodeBelief =
        readMarginals(Vars.node(App.Node), GraphBelief);
    computeEvidence(Out.Updates, App, NodeMarginals, NodeBelief);
  }
  return Out;
}

TargetSummary *InferEngine::resolveTarget(MethodSummary &Summary,
                                          summaryio::SummaryTargetRole Role,
                                          uint32_t ParamIndex) {
  using summaryio::SummaryTargetRole;
  switch (Role) {
  case SummaryTargetRole::RecvPre:
    return Summary.RecvPre ? &*Summary.RecvPre : nullptr;
  case SummaryTargetRole::RecvPost:
    return Summary.RecvPost ? &*Summary.RecvPost : nullptr;
  case SummaryTargetRole::ParamPre:
    return ParamIndex < Summary.ParamPre.size() && Summary.ParamPre[ParamIndex]
               ? &*Summary.ParamPre[ParamIndex]
               : nullptr;
  case SummaryTargetRole::ParamPost:
    return ParamIndex < Summary.ParamPost.size() &&
                   Summary.ParamPost[ParamIndex]
               ? &*Summary.ParamPost[ParamIndex]
               : nullptr;
  case SummaryTargetRole::Result:
    return Summary.Result ? &*Summary.Result : nullptr;
  }
  return nullptr;
}

uint64_t InferEngine::roundStateDigest(const MethodSet &Dirty,
                                       const MethodSet &Failed) const {
  HashStream H;
  summaryio::hashSnapshot(H, Summaries);
  for (const MethodSet *Set : {&Dirty, &Failed}) {
    H.u32(static_cast<uint32_t>(Set->size()));
    for (const MethodDecl *M : *Set)
      H.u32(M->DeclIndex);
  }
  return H.digest();
}

namespace {

void hashAnnotation(HashStream &H, const RawAnnotation &A) {
  H.str(A.Name);
  H.u32(static_cast<uint32_t>(A.Args.size()));
  for (const auto &[K, V] : A.Args) {
    H.str(K);
    H.str(V);
  }
  H.u32(static_cast<uint32_t>(A.ListArgs.size()));
  for (const std::string &S : A.ListArgs)
    H.str(S);
}

/// Digest of everything about \p M *except* its body: the part other
/// methods' models can see (callee resolution, declared-spec priors,
/// summary shapes). Part of the environment hash for every entry.
uint64_t methodSignatureHash(const MethodDecl &M) {
  HashStream H;
  H.str(M.Name);
  H.u8(M.IsStatic ? 1 : 0);
  H.u8(M.IsCtor ? 1 : 0);
  H.u8(M.IsTest ? 1 : 0);
  H.str(M.ReturnType.str());
  H.u32(static_cast<uint32_t>(M.Params.size()));
  for (const ParamDecl &P : M.Params) {
    H.str(P.Type.str());
    H.str(P.Name);
  }
  H.u32(static_cast<uint32_t>(M.Annotations.size()));
  for (const RawAnnotation &A : M.Annotations)
    hashAnnotation(H, A);
  return H.digest();
}

/// Signature plus the body as the pretty-printer re-serializes it. The
/// printer reads the parsed AST, so this is a token-stream hash: editing
/// whitespace or comments leaves the digest unchanged, editing any token
/// the parser kept changes it.
uint64_t methodContentHash(const MethodDecl &M) {
  HashStream H;
  H.str(M.Owner ? M.Owner->Name : std::string());
  H.u64(methodSignatureHash(M));
  H.u8(M.Body ? 1 : 0);
  if (M.Body)
    H.str(printStmt(*M.Body));
  return H.digest();
}

} // namespace

void InferEngine::prepareCache() {
  Cache = nullptr;
  // Caching across a non-replayable solve would either launder a faulted
  // or timing-cut result into clean runs or replay a clean result past an
  // armed fault.
  if (!Opts.Cache || !solvesReplayable(Opts))
    return;
  // Replay resolution is by qualified name; ambiguity would alias
  // entries across distinct methods.
  DeclsByName.clear();
  for (const auto &Type : Prog.Types)
    for (const auto &M : Type->Methods)
      if (!DeclsByName.emplace(M->qualifiedName(), M.get()).second) {
        DeclsByName.clear();
        return;
      }

  // Environment digest: the wire version (entries are sealed blobs), the
  // full algorithm-option fingerprint, and the type/signature/annotation
  // level of the program — everything that shapes summary skeletons and
  // callee resolution without being any one method's body. Threshold,
  // SummaryTolerance and MaxIters are deliberately excluded: they steer
  // extraction and scheduling, not what one SOLVE computes, so entries
  // stay valid across them.
  HashStream Env;
  Env.u32(summaryio::WireVersion);
  Env.u8(static_cast<uint8_t>(Opts.Solver));
  Env.u8(Opts.Fallback ? 1 : 0);
  Env.f64(Opts.SpecHi);
  Env.f64(Opts.SpecLo);
  const ConstraintOptions &C = Opts.Constraints;
  Env.f64(C.L1Branch);
  Env.f64(C.L1Split);
  Env.f64(C.L2Incoming);
  Env.f64(C.L3FieldWrite);
  Env.f64(C.H1Ctor);
  Env.f64(C.H2PrePost);
  Env.f64(C.H3Create);
  Env.f64(C.H4Setter);
  Env.f64(C.H5Sync);
  Env.f64(C.H6WeakPre);
  Env.u8(C.EnableH1 ? 1 : 0);
  Env.u8(C.EnableH2 ? 1 : 0);
  Env.u8(C.EnableH3 ? 1 : 0);
  Env.u8(C.EnableH4 ? 1 : 0);
  Env.u8(C.EnableH5 ? 1 : 0);
  Env.u8(C.EnableH6 ? 1 : 0);
  Env.u8(C.LogicalOnly ? 1 : 0);
  Env.u8(C.EnableExclusivity ? 1 : 0);
  Env.u8(C.KindMutex ? 1 : 0);
  Env.f64(C.KindMutexProb);
  // Evidence tracing annotates updates with debug lines that are stored
  // and replayed; entries written with tracing off lack them.
  Env.u8(DebugEvidence ? 1 : 0);
  for (const auto &Type : Prog.Types) {
    Env.str(Type->Name);
    Env.u8(Type->IsInterface ? 1 : 0);
    Env.str(Type->SuperName);
    Env.u32(static_cast<uint32_t>(Type->InterfaceNames.size()));
    for (const std::string &I : Type->InterfaceNames)
      Env.str(I);
    Env.u32(static_cast<uint32_t>(Type->TypeParams.size()));
    for (const std::string &P : Type->TypeParams)
      Env.str(P);
    Env.u32(static_cast<uint32_t>(Type->Annotations.size()));
    for (const RawAnnotation &A : Type->Annotations)
      hashAnnotation(Env, A);
    Env.u32(static_cast<uint32_t>(Type->Fields.size()));
    for (const FieldDecl &F : Type->Fields) {
      Env.str(F.Name);
      Env.str(F.Type.str());
    }
    Env.u32(static_cast<uint32_t>(Type->Methods.size()));
    for (const auto &M : Type->Methods)
      Env.u64(methodSignatureHash(*M));
  }
  CacheEnvHash = Env.digest();

  // Per-SCC transitive chain hashes, computed callees-first over the
  // condensation (sccGroups is reverse-topological, so every callee
  // group's hash exists before its callers fold it in). Editing one
  // method's body changes its SCC's hash and, through the folds, the
  // hash of every SCC that can reach it — exactly the set of methods
  // whose solves could observe the edit through summaries.
  ChainHashes.clear();
  std::vector<CallGraph::SccGroup> Groups = Graph.sccGroups();
  std::vector<uint64_t> GroupHash(Groups.size(), 0);
  for (size_t S = 0; S != Groups.size(); ++S) {
    HashStream H;
    for (MethodDecl *Member : Groups[S].Members)
      H.u64(methodContentHash(*Member));
    for (unsigned Callee : Groups[S].CalleeGroups)
      H.u64(GroupHash[Callee]);
    GroupHash[S] = H.digest();
    for (MethodDecl *Member : Groups[S].Members)
      ChainHashes[Member] = GroupHash[S];
  }
  Cache = Opts.Cache;
}

uint64_t InferEngine::solveKeyFor(MethodDecl *M) {
  HashStream H;
  H.u64(CacheEnvHash);
  H.u64(ChainHashes.at(M));
  H.u64(methodSeed(M));
  // The exact bit patterns of every prior the model applies, in the one
  // canonical enumeration order. This is what makes replay byte-safe
  // *within* a run's fixpoint iteration: the same method re-solved after
  // its callees' summaries moved gets a different key, while a warm run
  // that replays wave by wave reproduces the same summary trajectory and
  // therefore the same sequence of keys.
  forEachApplication(M, Data.at(M).G, [&](Application &App) {
    H.u8(static_cast<uint8_t>(App.Role));
    H.u32(App.ParamIndex);
    H.u8(App.IsSelf ? 1 : 0);
    H.u8(App.IsRequirement ? 1 : 0);
    H.str(App.SummaryOwner ? App.SummaryOwner->qualifiedName()
                           : std::string());
    H.u32(App.Site.second);
    H.u32(static_cast<uint32_t>(App.Applied.size()));
    for (double V : App.Applied)
      H.f64(V);
  });
  return H.digest();
}

bool InferEngine::adoptCachedSolve(CachedSolve Entry, MethodOutcome &Out) {
  if (Entry.SolverUsed > static_cast<uint8_t>(SolverChoice::Exact))
    return false;
  MethodOutcome Adopted;
  Adopted.Report.Used = static_cast<SolverChoice>(Entry.SolverUsed);
  Adopted.Report.Fallback = Entry.FallbackUsed;
  Adopted.Report.Reason = std::move(Entry.Reason);
  Adopted.Report.Solve = std::move(Entry.Solve);
  Adopted.Report.Solves = Entry.Solves;
  Adopted.Variables = static_cast<unsigned>(Entry.Variables);
  Adopted.Factors = static_cast<unsigned>(Entry.Factors);
  Adopted.SolveSeconds = Entry.SolveSeconds;
  for (CachedUpdate &U : Entry.Updates) {
    if (U.Role > static_cast<uint8_t>(summaryio::SummaryTargetRole::Result))
      return false;
    auto OwnerIt = DeclsByName.find(U.OwnerName);
    if (OwnerIt == DeclsByName.end())
      return false;
    MethodDecl *Owner = OwnerIt->second;
    auto SumIt = Summaries.find(Owner);
    if (SumIt == Summaries.end())
      return false;
    TargetSummary *Target = resolveTarget(
        SumIt->second, static_cast<summaryio::SummaryTargetRole>(U.Role),
        U.ParamIndex);
    if (!Target || U.Odds.size() != Target->size())
      return false;
    PendingUpdate P;
    P.Target = Target;
    P.SummaryOwner = Owner;
    P.Role = static_cast<summaryio::SummaryTargetRole>(U.Role);
    P.ParamIndex = U.ParamIndex;
    P.IsSelf = U.IsSelf;
    if (!U.IsSelf) {
      auto CallerIt = DeclsByName.find(U.SiteCallerName);
      if (CallerIt == DeclsByName.end())
        return false;
      P.Site = {CallerIt->second, U.SiteIndex};
    }
    P.Odds = std::move(U.Odds);
    P.DebugLine = std::move(U.DebugLine);
    Adopted.Updates.push_back(std::move(P));
  }
  Out = std::move(Adopted);
  return true;
}

CachedSolve InferEngine::toCachedSolve(const MethodOutcome &Out) const {
  CachedSolve Entry;
  Entry.SolverUsed = static_cast<uint8_t>(Out.Report.Used);
  Entry.FallbackUsed = Out.Report.Fallback;
  Entry.Reason = Out.Report.Reason;
  Entry.Solve = Out.Report.Solve;
  Entry.Solves = Out.Report.Solves;
  Entry.Variables = Out.Variables;
  Entry.Factors = Out.Factors;
  Entry.SolveSeconds = Out.SolveSeconds;
  for (const PendingUpdate &U : Out.Updates) {
    CachedUpdate CU;
    CU.OwnerName = U.SummaryOwner ? U.SummaryOwner->qualifiedName()
                                  : std::string();
    CU.Role = static_cast<uint8_t>(U.Role);
    CU.ParamIndex = U.ParamIndex;
    CU.IsSelf = U.IsSelf;
    if (!U.IsSelf && U.Site.first)
      CU.SiteCallerName = U.Site.first->qualifiedName();
    CU.SiteIndex = U.Site.second;
    CU.Odds = U.Odds; // Copied: the merge step moves the live ones.
    CU.DebugLine = U.DebugLine;
    Entry.Updates.push_back(std::move(CU));
  }
  return Entry;
}

InferResult InferEngine::run() {
  InferResult Result;

  // Phase 1 (Figure 9 lines 2-6): initialize variables, models, worklist.
  // Model construction is isolated per method: one body the lowering
  // chokes on must not take whole-program inference down with it.
  telemetry::Span Phase1("infer.phase1.models", telemetry::TraceLevel::Phase,
                         "infer");
  std::vector<MethodDecl *> Bodies = Prog.methodsWithBodies();
  if (Phase1.active())
    Phase1.arg("methods", static_cast<uint64_t>(Bodies.size()));
  for (MethodDecl *M : Bodies) {
    try {
      MethodData MD;
      MD.Ir = lowerToIr(*M);
      MD.G = buildPfg(MD.Ir);
      Data.emplace(M, std::move(MD));
    } catch (const std::exception &E) {
      MethodReport &Report = Reports[M];
      Report.Failed = true;
      Report.Error = Status::error(ErrorCode::Internal, E.what()).str();
      ++Result.MethodsFailed;
      if (Diags)
        Diags->warning(M->Loc,
                       "model construction for '" + M->qualifiedName() +
                           "' failed (" + std::string(E.what()) +
                           "); method skipped, conservative summary used");
    }
  }
  for (const auto &Type : Prog.Types)
    for (const auto &M : Type->Methods)
      Summaries.emplace(M.get(),
                        MethodSummary::forMethod(*M, Opts.SpecHi,
                                                 Opts.SpecLo));

  Phase1.close();

  unsigned MaxIters =
      Opts.MaxIters ? Opts.MaxIters
                    : static_cast<unsigned>(3 * Bodies.size());

  // Phase 2 (lines 8-21): bounded iteration, scheduled as rounds of
  // reverse-topological SCC waves. Jobs within a wave read the summary
  // store as it stood when the wave began and return deferred updates;
  // the merge below applies them in declaration order, so results do not
  // depend on the worker count. A method whose analysis fails is
  // isolated: it keeps its conservative default summary (declared priors
  // only), a buffered diagnostic records why, and the schedule moves on
  // so every other method still gets a spec.
  telemetry::Span Phase2("infer.phase2.waves", telemetry::TraceLevel::Phase,
                         "infer");
  std::vector<std::vector<MethodDecl *>> Waves = Graph.sccWaves();
  // An externally owned pool (the batch serving layer shares one across
  // requests) overrides Parallelism; otherwise the engine owns its own.
  ThreadPool *Pool = Opts.Pool;
  std::unique_ptr<ThreadPool> OwnedPool;
  unsigned JobCount =
      Opts.Parallelism ? Opts.Parallelism : ThreadPool::defaultParallelism();
  if (!Pool && JobCount > 1) {
    OwnedPool = std::make_unique<ThreadPool>(JobCount);
    Pool = OwnedPool.get();
  }
  if (telemetry::enabled(telemetry::TraceLevel::Phase))
    telemetry::gauge("infer.parallelism")
        .set(static_cast<double>(Pool ? Pool->threadCount() : 1));

  // Arm the incremental cache (a no-op unless Opts.Cache is set and its
  // preconditions hold). The chain hashes computed here are the run's
  // invalidation frontier: they never change within a run, while the
  // applied-prior part of each key tracks the fixpoint iteration.
  {
    telemetry::Span CachePrep("cache.prepare", telemetry::TraceLevel::Phase,
                              "infer");
    prepareCache();
    if (CachePrep.active())
      CachePrep.argBool("armed", Cache != nullptr);
  }

  // Cooperative cancellation/budget poll, consulted at wave boundaries
  // only: inside a wave the jobs run to completion (their SOLVE steps are
  // individually bounded by SolveBudgetSeconds), so an abort never leaves
  // a half-merged summary store.
  auto AbortStatus = [&]() -> Status {
    if (Opts.Cancel && Opts.Cancel->cancelled())
      return Opts.Cancel->status();
    if (!Opts.RunBudget.unlimited() && Opts.RunBudget.expired())
      return Status::error(ErrorCode::DeadlineExceeded,
                           "run budget expired at wave boundary");
    return Status::ok();
  };

  MethodSet Dirty;
  MethodSet FailedMethods;
  for (const auto &Wave : Waves)
    for (MethodDecl *M : Wave)
      if (Data.count(M))
        Dirty.insert(M);
  // Phase-2 failure diagnostics are buffered per method and flushed in
  // source (declaration) order below: emission order must not depend on
  // which round or wave a method happened to fail in.
  MethodDeclMap<std::string> BufferedWarnings;

  // Limit-cycle fast-forward. Jobs read only the frozen summary store
  // and merges run in declaration order, so the state at a round start
  // (summary evidence, dirty set, failed set) determines every later
  // wave. When a round starts in a state an earlier round started in, the
  // run is in a periodic orbit: every further period repeats the same
  // picks with the same outcomes. Whole periods up to the pick cap are
  // then credited without solving and only the remainder runs, so the
  // run ends at the same cap, in the same state, with the same
  // accounting. This needs replayable solves, and declaration indices
  // that name methods uniquely (the digest identifies methods by them;
  // Summaries holds every method, sorted by index).
  struct RoundStart {
    unsigned Round, WaveIndex, Picks, Variables, Factors, FallbackSolves;
  };
  std::unordered_map<uint64_t, RoundStart> RoundStarts;
  // Per round while watching: which declaration indices it picked. A
  // method sits in one wave, so a round picks it at most once.
  std::vector<std::vector<bool>> Picked;
  bool WatchCycle =
      solvesReplayable(Opts) &&
      std::adjacent_find(Summaries.begin(), Summaries.end(),
                         [](const auto &A, const auto &B) {
                           return A.first->DeclIndex == B.first->DeclIndex;
                         }) == Summaries.end();

  unsigned Round = 0, WaveIndex = 0;
  while (!Dirty.empty() && Result.WorklistPicks < MaxIters &&
         Result.Aborted.isOk()) {
    if (WatchCycle) {
      const RoundStart Now{Round,
                           WaveIndex,
                           Result.WorklistPicks,
                           Result.TotalVariables,
                           Result.TotalFactors,
                           Result.FallbackSolves};
      auto [Seen, Fresh] =
          RoundStarts.emplace(roundStateDigest(Dirty, FailedMethods), Now);
      if (!Fresh) {
        // Round Now.Round ended where round Then.Round ended. Every
        // completed round ran uncapped, so each period is PeriodPicks
        // picks and Periods more whole ones fit under the cap. No pick
        // in a period failed (the failed set is part of the state), so
        // each added one solve to its method's report.
        const RoundStart &Then = Seen->second;
        const unsigned PeriodRounds = Now.Round - Then.Round;
        const unsigned PeriodPicks = Now.Picks - Then.Picks;
        assert(PeriodPicks != 0 && "a completed round picks something");
        const unsigned Periods = (MaxIters - Now.Picks) / PeriodPicks;
        Result.CyclePeriodRounds = PeriodRounds;
        Result.CycleDetectedRound = Now.Round;
        Result.FastForwardedPicks = Periods * PeriodPicks;
        Result.WorklistPicks += Result.FastForwardedPicks;
        Result.TotalVariables += Periods * (Now.Variables - Then.Variables);
        Result.TotalFactors += Periods * (Now.Factors - Then.Factors);
        Result.FallbackSolves +=
            Periods * (Now.FallbackSolves - Then.FallbackSolves);
        for (unsigned R = Then.Round; R != Now.Round; ++R)
          for (auto &[M, Report] : Reports)
            if (Picked[R][M->DeclIndex])
              Report.Solves += Periods;
        // Trace round and wave numbers stay those of the solved run.
        Round += Periods * PeriodRounds;
        WaveIndex += Periods * (Now.WaveIndex - Then.WaveIndex);
        if (telemetry::enabled(telemetry::TraceLevel::Phase))
          telemetry::instant(
              "infer.fast_forward", telemetry::TraceLevel::Phase, "infer",
              formatStr("\"detected_round\":%u,\"period_rounds\":%u,"
                        "\"period_picks\":%u,\"periods\":%u,"
                        "\"picks\":%u",
                        Result.CycleDetectedRound, PeriodRounds,
                        PeriodPicks, Periods, Result.FastForwardedPicks));
        // Later round starts can only repeat the same orbit, with fewer
        // than one period left: stop digesting.
        WatchCycle = false;
        RoundStarts.clear();
        Picked = {};
        continue; // Re-check the cap before the remainder.
      }
    }
    bool AnyRun = false;
    ++Round;
    if (WatchCycle)
      Picked.emplace_back(Summaries.rbegin()->first->DeclIndex + 1, false);
    for (const auto &Wave : Waves) {
      // Wave boundary: the only place a governed run may be cut short.
      if (Status S = AbortStatus(); !S) {
        Result.Aborted = std::move(S);
        if (telemetry::enabled(telemetry::TraceLevel::Phase))
          telemetry::counter("infer.aborted").add(1);
        break;
      }
      // The wave is already in declaration order; so is the batch.
      std::vector<MethodDecl *> Batch;
      for (MethodDecl *M : Wave)
        if (Dirty.count(M) && !FailedMethods.count(M) && Data.count(M))
          Batch.push_back(M);
      if (Result.WorklistPicks + Batch.size() > MaxIters)
        Batch.resize(MaxIters - Result.WorklistPicks);
      if (Batch.empty())
        continue;
      for (MethodDecl *M : Batch)
        Dirty.erase(M);
      Result.WorklistPicks += static_cast<unsigned>(Batch.size());
      AnyRun = true;

      telemetry::Span WaveSpan("infer.wave", telemetry::TraceLevel::Phase,
                               "infer");
      if (WaveSpan.active()) {
        WaveSpan.arg("round", Round);
        WaveSpan.arg("wave", WaveIndex);
        WaveSpan.arg("methods", static_cast<uint64_t>(Batch.size()));
        telemetry::counter("infer.waves").add(1);
      }
      ++WaveIndex;

      // Build + solve every job in the batch against the frozen store.
      // Each job wraps itself in a method span that records where its
      // wall-clock went: time spent queued behind other jobs (wait_us,
      // measured from wave dispatch to job start) vs. time actually
      // analyzing (the span duration).
      const int64_t DispatchUs =
          telemetry::enabled() ? telemetry::nowUs() : 0;
      std::vector<MethodOutcome> Outcomes(Batch.size());

      // Cache lookups run on the scheduling thread against the same
      // frozen store the jobs would read. Hits fill their outcome slot
      // directly; everything else lands in Pending and is solved below.
      // The merge step never sees the difference: it walks the full batch
      // in declaration order either way, which is what keeps warm output
      // byte-identical to cold.
      std::vector<size_t> Pending;
      std::vector<uint64_t> Keys;
      if (Cache) {
        telemetry::Span LookupSpan("cache.lookup",
                                   telemetry::TraceLevel::Phase, "infer");
        Keys.resize(Batch.size(), 0);
        unsigned WaveHits = 0;
        for (size_t I = 0; I != Batch.size(); ++I) {
          Keys[I] = solveKeyFor(Batch[I]);
          CachedSolve Entry;
          bool Resolved = false;
          switch (Cache->lookup(Batch[I]->qualifiedName(), Keys[I], Entry)) {
          case CacheLookup::Hit:
            if (adoptCachedSolve(std::move(Entry), Outcomes[I])) {
              ++Result.Cache.Hits;
              ++WaveHits;
              Resolved = true;
            } else {
              // Decoded but does not fit the current program: stale.
              ++Result.Cache.Invalidated;
            }
            break;
          case CacheLookup::Miss:
            ++Result.Cache.Misses;
            break;
          case CacheLookup::Invalidated:
            ++Result.Cache.Invalidated;
            break;
          case CacheLookup::Corrupt:
            ++Result.Cache.Corrupt;
            break;
          }
          if (!Resolved)
            Pending.push_back(I);
        }
        if (LookupSpan.active()) {
          LookupSpan.arg("hits", WaveHits);
          LookupSpan.arg("pending", static_cast<uint64_t>(Pending.size()));
        }
      } else {
        Pending.resize(Batch.size());
        std::iota(Pending.begin(), Pending.end(), size_t(0));
      }

      // A wave with one pending job runs it inline on this thread while
      // the pool idles, so its BP solve may use the pool itself. Only an
      // owned pool qualifies: on a shared one the passes would queue
      // behind other requests' jobs.
      ThreadPool *SolvePool =
          Pending.size() == 1 ? OwnedPool.get() : nullptr;
      parallelFor(Pool, Pending.size(), [&](size_t J) {
        const size_t I = Pending[J];
        // Attribute the job's allocations to the governing request (a
        // no-op when ungoverned). Pool workers are shared across batch
        // requests, so enrollment must happen per job, not per thread.
        memtrack::MemScope MemGuard(Opts.Memory);
        telemetry::Span JobSpan("infer.method",
                                telemetry::TraceLevel::Method, "infer");
        int64_t WaitUs = 0;
        if (telemetry::enabled(telemetry::TraceLevel::Phase)) {
          WaitUs = telemetry::nowUs() - DispatchUs;
          telemetry::histogram("infer.queue_wait_us")
              .record(static_cast<double>(WaitUs));
        }
        const int64_t RunStartUs =
            telemetry::enabled() ? telemetry::nowUs() : 0;
        try {
          Outcomes[I] = analyzeOne(Batch[I], SolvePool);
        } catch (const std::exception &E) {
          Outcomes[I].Failed = true;
          Outcomes[I].Error =
              Status::error(ErrorCode::Internal, E.what()).str();
        }
        if (telemetry::enabled(telemetry::TraceLevel::Phase))
          telemetry::histogram("infer.method_run_us")
              .record(static_cast<double>(telemetry::nowUs() - RunStartUs));
        if (JobSpan.active()) {
          const MethodOutcome &Out = Outcomes[I];
          JobSpan.arg("method", Batch[I]->qualifiedName());
          JobSpan.arg("wait_us", WaitUs);
          if (Out.Failed) {
            JobSpan.argBool("failed", true);
          } else {
            JobSpan.arg("vars", Out.Variables);
            JobSpan.arg("factors", Out.Factors);
            JobSpan.arg("solver", solverChoiceName(Out.Report.Used));
            JobSpan.argBool("fallback", Out.Report.Fallback);
          }
        }
      });

      // Persist fresh outcomes before the merge moves their odds out.
      // Failed solves are never stored: a failure must re-run, not
      // replay (the next run may not hit the fault, budget or bug).
      if (Cache) {
        for (size_t I : Pending) {
          if (Outcomes[I].Failed)
            continue;
          Cache->store(Batch[I]->qualifiedName(), Keys[I],
                       toCachedSolve(Outcomes[I]));
          ++Result.Cache.Stores;
        }
      }

      // Merge, in declaration (= batch) order, on this thread only.
      telemetry::Span MergeSpan("infer.merge", telemetry::TraceLevel::Phase,
                                "infer");
      unsigned MergedUpdates = 0, Requeued = 0;
      // Owners already requeued by this merge. Dirty and FailedMethods
      // only grow within a merge, and what a requeue marks depends on
      // the owner alone, so a later update to one of these owners could
      // mark nothing new: it is stored without measuring its change.
      std::unordered_set<const MethodDecl *> RequeuedOwners;
      for (size_t I = 0; I != Batch.size(); ++I) {
        MethodDecl *M = Batch[I];
        MethodOutcome &Out = Outcomes[I];
        unsigned PrevSolves = 0;
        if (auto It = Reports.find(M); It != Reports.end())
          PrevSolves = It->second.Solves;
        if (WatchCycle)
          Picked.back()[M->DeclIndex] = true;
        Out.Report.Solves += PrevSolves;
        if (Out.Failed) {
          Out.Report.Failed = true;
          Out.Report.Error = Out.Error;
          Reports[M] = std::move(Out.Report);
          if (FailedMethods.insert(M).second) {
            ++Result.MethodsFailed;
            BufferedWarnings.emplace(
                M, "inference for '" + M->qualifiedName() + "' failed (" +
                       Out.Error +
                       "); method skipped, conservative summary used");
          }
          continue;
        }
        Result.SolveSeconds += Out.SolveSeconds;
        Result.TotalVariables += Out.Variables;
        Result.TotalFactors += Out.Factors;
        if (Out.Report.Fallback)
          ++Result.FallbackSolves;
        Reports[M] = std::move(Out.Report);

        // A changed summary invalidates the models that consume it: the
        // owning method itself and its callers (they applied the stale
        // summary). They rerun in a later wave or the next round.
        for (PendingUpdate &U : Out.Updates) {
          if (!U.DebugLine.empty())
            std::fprintf(stderr, "evidence %s\n", U.DebugLine.c_str());
          ++MergedUpdates;
          if (RequeuedOwners.count(U.SummaryOwner)) {
            U.Target->storeOdds(U.IsSelf, U.Site, std::move(U.Odds));
            continue;
          }
          double Delta =
              U.IsSelf ? U.Target->setSelfOdds(std::move(U.Odds))
                       : U.Target->setSiteOdds(U.Site, std::move(U.Odds));
          if (Delta <= Opts.SummaryTolerance)
            continue;
          RequeuedOwners.insert(U.SummaryOwner);
          ++Requeued;
          auto MarkDirty = [&](MethodDecl *T) {
            if (Data.count(T) && !FailedMethods.count(T))
              Dirty.insert(T);
          };
          MarkDirty(U.SummaryOwner);
          for (MethodDecl *Caller : Graph.callers(U.SummaryOwner))
            MarkDirty(Caller);
        }
      }
      if (MergeSpan.active()) {
        MergeSpan.arg("updates", MergedUpdates);
        MergeSpan.arg("requeued", Requeued);
      }
      if (telemetry::enabled(telemetry::TraceLevel::Phase))
        telemetry::counter("infer.summary_updates").add(MergedUpdates);
      if (Result.WorklistPicks >= MaxIters)
        break;
    }
    if (!AnyRun)
      break; // Every dirty method is failed or budget-excluded.
  }
  for (const auto &[M, Message] : BufferedWarnings)
    if (Diags)
      Diags->warning(M->Loc, Message);
  Result.MethodsAnalyzed = static_cast<unsigned>(Bodies.size());
  for (MethodDecl *M : Dirty)
    if (!FailedMethods.count(M))
      ++Result.DirtyAtExit;
  Result.Ending = !Result.Aborted.isOk() ? Phase2End::Aborted
                  : Result.DirtyAtExit   ? Phase2End::PickCap
                                         : Phase2End::Fixpoint;
  if (Phase2.active()) {
    Phase2.arg("picks", Result.WorklistPicks);
    Phase2.arg("ending", phase2EndName(Result.Ending));
    Phase2.arg("dirty_at_exit", Result.DirtyAtExit);
    Phase2.arg("fastforward_picks", Result.FastForwardedPicks);
  }
  Phase2.close();

  telemetry::Span Phase3("infer.phase3.extract",
                         telemetry::TraceLevel::Phase, "infer");

  // Phase 3 (lines 22-29): extract deterministic specifications. A failed
  // method is conservatively silent: no inferred spec beats a spec built
  // from a summary its own evidence never reached. An aborted run
  // extracts nothing: partial summaries must not masquerade as specs.
  for (MethodDecl *M : Bodies) {
    if (!Result.Aborted.isOk())
      break;
    if (auto It = Reports.find(M); It != Reports.end() && It->second.Failed)
      continue;
    if (Opts.RespectDeclared && M->HasDeclaredSpec)
      continue;
    MethodSpec Spec =
        extractSpec(Summaries.at(M),
                    static_cast<unsigned>(M->Params.size()), Opts.Threshold);
    if (M->IsCtor && Spec.Result) {
      // A constructor's "result" is its receiver after construction.
      if (!Spec.ReceiverPost)
        Spec.ReceiverPost = Spec.Result;
      Spec.Result.reset();
    }
    if (!Spec.isEmpty())
      Result.Inferred.emplace(M, std::move(Spec));
  }

  for (auto &[M, Summary] : Summaries)
    Result.Summaries.emplace(M, Summary);
  Result.Reports = Reports;
  if (Opts.Cache && telemetry::enabled(telemetry::TraceLevel::Phase)) {
    telemetry::counter("cache.hit").add(Result.Cache.Hits);
    telemetry::counter("cache.miss").add(Result.Cache.Misses);
    telemetry::counter("cache.invalidated").add(Result.Cache.Invalidated);
    telemetry::counter("cache.corrupt").add(Result.Cache.Corrupt);
    telemetry::counter("cache.store").add(Result.Cache.Stores);
  }
  if (Phase3.active())
    Phase3.arg("inferred", static_cast<uint64_t>(Result.Inferred.size()));
  if (telemetry::enabled(telemetry::TraceLevel::Phase)) {
    telemetry::counter("infer.worklist_picks").add(Result.WorklistPicks);
    telemetry::counter("infer.methods_analyzed")
        .add(Result.MethodsAnalyzed);
    telemetry::counter("infer.methods_failed").add(Result.MethodsFailed);
    telemetry::counter("infer.fallback_solves").add(Result.FallbackSolves);
    telemetry::counter("infer.fastforward_picks")
        .add(Result.FastForwardedPicks);
    telemetry::counter("infer.cycle_period_rounds")
        .add(Result.CyclePeriodRounds);
    telemetry::counter("infer.specs_inferred")
        .add(Result.Inferred.size());
  }
  return Result;
}

InferResult anek::runAnekInfer(Program &Prog, const InferOptions &Opts,
                               DiagnosticEngine *Diags) {
  InferEngine Engine(Prog, Opts, Diags);
  return Engine.run();
}
