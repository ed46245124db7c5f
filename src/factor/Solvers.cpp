//===- Solvers.cpp - Marginal inference over factor graphs -----------------===//

#include "factor/Solvers.h"

#include "factor/Kernels.h"
#include "support/FaultInject.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

using namespace anek;

//===----------------------------------------------------------------------===//
// Loopy belief propagation
//===----------------------------------------------------------------------===//
//
// The kernel bodies live behind the KernelBackend seam (factor/Kernels.h).
// BpEngine builds a zero-copy BpView over the graph's cached EdgeLayout,
// owns the per-solve message and scratch arrays, and runs the flooding
// loop through the active backend.
//
// Every iteration recomputes every message: no factor is skipped, so the
// cost of a solve is (iterations) x (edges) and nothing else. The loop
// checks its exit condition before each iteration Iter and stops when
// Iter == MaxIterations, when the last residual is no longer above
// Tolerance (a NaN residual included), or when the budget has expired;
// Iterations reports Iter. Short of an expired budget, the exit depends
// only on the graph, the Options and the message values, which every
// backend computes byte-identically, so every backend runs the same
// kernel calls in the same order.
//
// A split solve runs each pass as one kernel call per contiguous range
// of variables (or factors), one range per pool thread. Every output a
// kernel writes belongs to one variable or factor, each lane of a
// vector step is an independent output, and a max over non-NaN values
// does not depend on grouping, so the split loop computes the serial
// loop's values bit for bit.

namespace {

class BpEngine {
public:
  explicit BpEngine(const FactorGraph &G);
  // View and State point into this object's own arrays.
  BpEngine(const BpEngine &) = delete;
  BpEngine &operator=(const BpEngine &) = delete;

  /// Runs the flooding loop to its exit condition (see above). With
  /// \p TraceIters set, samples the bp.residual counter once per
  /// iteration after the first. With a \p Pool, every pass is split
  /// into Pool->threadCount() ranges run as pool jobs.
  void run(const SumProductSolver::Options &Opts, bool TraceIters,
           ThreadPool *Pool);

  /// Beliefs from the final factor->var messages: the scalar-kernel
  /// epilogue verbatim.
  Marginals beliefs(Marginals *GraphLikelihood) const;

  // Outcome of run().
  double Delta = 1.0;
  unsigned Iterations = 0;
  bool DeadlineExpired = false;
  uint64_t Updates = 0;

private:
  /// Recompute NewMsg/Change in the log domain for the variables with
  /// degree >= kern::LogDomainMinDegree (linear-domain products of that
  /// many clamped messages can underflow to 0 and erase the signal).
  /// Runs in this baseline TU for every backend, so it cannot break
  /// backend byte-identity.
  void logDomainFixup(const kern::BpConsts &C);

  /// Runs \p Kernel over [Cuts[I], Cuts[I+1]) for every I, as pool jobs
  /// when there is more than one range, and returns the largest of the
  /// ranges' results.
  double pass(ThreadPool *Pool, const std::vector<uint32_t> &Cuts,
              const std::function<double(uint32_t, uint32_t)> &Kernel);

  std::vector<double> Priors;
  kern::BpView View;
  std::vector<double> VarToFactor, FactorToVar;
  std::vector<double> ClampT, ClampF, SufT, SufF, NewMsg, Change;
  std::vector<double> OutT, OutF;
  std::vector<uint32_t> HighDegVars; ///< empty on most graphs.
  std::vector<double> LogSufT, LogSufF;
  kern::BpState State;
  std::vector<double> PartDelta; ///< one slot per range of a split pass.
};

/// Cuts [0, Count) into \p Parts contiguous ranges holding about equal
/// shares of the edges, where item I owns edges [Offset[I],
/// Offset[I+1]). Returns the Parts + 1 boundaries; a range may be empty.
std::vector<uint32_t> edgeBalancedCuts(const uint32_t *Offset,
                                       uint32_t Count, unsigned Parts) {
  const uint64_t Edges = Offset[Count];
  std::vector<uint32_t> Cuts(Parts + 1, Count);
  Cuts[0] = 0;
  for (unsigned K = 1; K != Parts; ++K) {
    const uint64_t Target = Edges * K / Parts;
    Cuts[K] = static_cast<uint32_t>(
        std::lower_bound(Offset + Cuts[K - 1], Offset + Count, Target) -
        Offset);
  }
  return Cuts;
}

BpEngine::BpEngine(const FactorGraph &G) {
  const FactorGraph::EdgeLayout &L = G.edgeLayout();
  const uint32_t NumVars = G.variableCount();
  const uint32_t NumEdges = L.edgeCount();
  Priors.resize(NumVars);
  for (uint32_t V = 0; V != NumVars; ++V)
    Priors[V] = G.variable(V).Prior;
  View.NumVars = NumVars;
  View.NumFactors = G.factorCount();
  View.NumEdges = NumEdges;
  View.FactorOffset = L.FactorOffset.data();
  View.VarOffset = L.VarOffset.data();
  View.VarEdges = L.VarEdges.data();
  View.VmFactor = L.VmFactor.data();
  View.TableOffset = L.TableOffset.data();
  View.TableFlat = L.TableFlat.data();
  View.Priors = Priors.data();

  VarToFactor.assign(NumEdges, 0.5);
  FactorToVar.assign(NumEdges, 0.5);
  SufT.resize(NumEdges);
  SufF.resize(NumEdges);
  OutT.resize(NumEdges);
  OutF.resize(NumEdges);
  uint32_t MaxDeg = 0;
  for (uint32_t Var = 0; Var != NumVars; ++Var) {
    const uint32_t Deg = L.VarOffset[Var + 1] - L.VarOffset[Var];
    MaxDeg = std::max(MaxDeg, Deg);
    if (Deg >= kern::LogDomainMinDegree)
      HighDegVars.push_back(Var);
  }
  // Only the split variable pass (see run()) reads or writes the Clamp,
  // NewMsg and Change streams; the fused pass never touches them.
  if (!HighDegVars.empty()) {
    ClampT.resize(NumEdges);
    ClampF.resize(NumEdges);
    // NewMsg mirrors VarToFactor per position (pass C reads it as the
    // previous outgoing message), so it must share the 0.5 seed.
    NewMsg.assign(NumEdges, 0.5);
    Change.resize(NumEdges);
    LogSufT.resize(MaxDeg);
    LogSufF.resize(MaxDeg);
  }
  State.VarToFactor = VarToFactor.data();
  State.FactorToVar = FactorToVar.data();
  State.ClampT = ClampT.data();
  State.ClampF = ClampF.data();
  State.SufT = SufT.data();
  State.SufF = SufF.data();
  State.NewMsg = NewMsg.data();
  State.Change = Change.data();
  State.OutT = OutT.data();
  State.OutF = OutF.data();
}

void BpEngine::logDomainFixup(const kern::BpConsts &C) {
  for (const uint32_t Var : HighDegVars) {
    const uint32_t B = View.VarOffset[Var];
    const uint32_t E = View.VarOffset[Var + 1];
    // Exclusive suffix/prefix *sums of logs* of the already-clamped
    // incoming messages (clamped, so every log is finite).
    double RunT = 0.0, RunF = 0.0;
    for (uint32_t P = E; P-- != B;) {
      LogSufT[P - B] = RunT;
      LogSufF[P - B] = RunF;
      RunT += std::log(ClampT[P]);
      RunF += std::log(ClampF[P]);
    }
    double PreLogT = std::log(View.Priors[Var]);
    double PreLogF = std::log(1.0 - View.Priors[Var]);
    for (uint32_t P = B; P != E; ++P) {
      const double LogT = PreLogT + LogSufT[P - B];
      const double LogF = PreLogF + LogSufF[P - B];
      // True/(True+False) = 1/(1+exp(logF-logT)); exp saturating to
      // +inf or 0 degrades gracefully to 0 or 1.
      const double Undamped = 1.0 / (1.0 + std::exp(LogF - LogT));
      const double Old = VarToFactor[View.VarEdges[P]];
      const double Damped = C.OneMinusDamping * Undamped + C.Damping * Old;
      NewMsg[P] = Damped;
      Change[P] = std::fabs(Damped - Old);
      PreLogT += std::log(ClampT[P]);
      PreLogF += std::log(ClampF[P]);
    }
  }
}

double BpEngine::pass(ThreadPool *Pool, const std::vector<uint32_t> &Cuts,
                      const std::function<double(uint32_t, uint32_t)> &Kernel) {
  const size_t Parts = Cuts.size() - 1;
  if (Parts == 1)
    return Kernel(Cuts[0], Cuts[1]);
  PartDelta.resize(Parts);
  parallelFor(Pool, Parts,
              [&](size_t I) { PartDelta[I] = Kernel(Cuts[I], Cuts[I + 1]); });
  double Delta = 0.0;
  for (const double D : PartDelta)
    Delta = Delta > D ? Delta : D;
  return Delta;
}

void BpEngine::run(const SumProductSolver::Options &Opts, bool TraceIters,
                   ThreadPool *Pool) {
  const kern::SolverKernels &K = kern::solverKernels();
  const kern::BpConsts C{Opts.Damping, 1.0 - Opts.Damping};
  // Without a high-degree variable, pass D is fused into the var-message
  // kernel, which commits and returns the max change itself. Otherwise
  // the split form runs so the log-domain fixup can overwrite
  // NewMsg/Change in between.
  const bool Commit = HighDegVars.empty();
  const unsigned Parts = Pool ? Pool->threadCount() : 1;
  const std::vector<uint32_t> VarCuts =
      edgeBalancedCuts(View.VarOffset, View.NumVars, Parts);
  const std::vector<uint32_t> FactorCuts =
      edgeBalancedCuts(View.FactorOffset, View.NumFactors, Parts);
  auto VarMessages = [&](uint32_t VB, uint32_t VE) {
    return K.BpVarMessages(View, State, C, VB, VE, Commit);
  };
  auto VarScatter = [&](uint32_t VB, uint32_t VE) {
    return K.BpVarScatter(View, State, VB, VE);
  };
  auto FactorSweep = [&](uint32_t FB, uint32_t FE) {
    return K.BpFactorSweep(View, State, C, FB, FE);
  };
  unsigned Iter = 0;
  for (; Iter != Opts.MaxIterations && Delta > Opts.Tolerance; ++Iter) {
    if (Opts.Budget.expired(Iter)) {
      DeadlineExpired = true;
      break;
    }
    if (TraceIters && Iter != 0)
      telemetry::counterSample("bp.residual", telemetry::TraceLevel::Solver,
                               "solver", "residual", Delta);
    double D1 = pass(Pool, VarCuts, VarMessages);
    if (!Commit) {
      logDomainFixup(C);
      D1 = pass(Pool, VarCuts, VarScatter);
    }
    const double D2 = pass(Pool, FactorCuts, FactorSweep);
    // Both passes recompute every edge's message.
    Updates += 2 * uint64_t{View.NumEdges};
    Delta = D1 > D2 ? D1 : D2;
  }
  Iterations = Iter;
}

Marginals BpEngine::beliefs(Marginals *GraphLikelihood) const {
  Marginals Out(View.NumVars, 0.5);
  if (GraphLikelihood)
    GraphLikelihood->assign(View.NumVars, 0.5);
  for (uint32_t Var = 0; Var != View.NumVars; ++Var) {
    double True = View.Priors[Var];
    double False = 1.0 - True;
    double GraphTrue = 1.0, GraphFalse = 1.0;
    for (uint32_t I = View.VarOffset[Var]; I != View.VarOffset[Var + 1];
         ++I) {
      const double In = FactorToVar[View.VarEdges[I]];
      const double MsgTrue = clampProb(In);
      const double MsgFalse = clampProb(1.0 - In);
      True *= MsgTrue;
      False *= MsgFalse;
      GraphTrue *= MsgTrue;
      GraphFalse *= MsgFalse;
      // Renormalize as we go so long products stay in range.
      const double Scale = GraphTrue + GraphFalse;
      GraphTrue /= Scale;
      GraphFalse /= Scale;
    }
    const double Sum = True + False;
    Out[Var] = Sum > 0 ? True / Sum : 0.5;
    if (GraphLikelihood)
      (*GraphLikelihood)[Var] = GraphTrue;
  }
  return Out;
}

} // namespace

Marginals SumProductSolver::solve(const FactorGraph &G,
                                  Marginals *GraphLikelihood,
                                  SolveReport *Report,
                                  ThreadPool *Pool) const {
  Timer SolveTimer;
  // Telemetry gates, hoisted out of the message loops: when tracing is
  // off each costs one relaxed load here and a dead branch below.
  telemetry::Span SolveSpan("solver.bp", telemetry::TraceLevel::Method,
                            "solver");
  const bool TraceIters =
      telemetry::enabled(telemetry::TraceLevel::Solver);
  // Fault 'bp-nonconverge': run normally but report the solve as not
  // converged, exactly as on a frustrated loopy graph.
  const bool ForcedNonConvergence =
      faults::anyActive() && faults::active(FaultKind::BpNonConvergence);

  BpEngine Engine(G);
  if (!Pool || Pool->threadCount() < 2 ||
      G.edgeLayout().edgeCount() < SplitMinEdges)
    Pool = nullptr;
  Engine.run(Opts, TraceIters, Pool);
  const bool Converged = !ForcedNonConvergence && !Engine.DeadlineExpired &&
                         Engine.Delta <= Opts.Tolerance;
  if (Report) {
    Report->Iterations = Engine.Iterations;
    Report->Residual = Engine.Delta;
    Report->DeadlineExpired = Engine.DeadlineExpired;
    Report->Converged = Converged;
    Report->Updates = Engine.Updates;
    Report->Reason.clear();
    if (!Converged)
      Report->Reason = formatStr(
          "residual %.2g after %u iterations%s%s", Engine.Delta,
          Engine.Iterations,
          Engine.DeadlineExpired ? ", budget expired" : "",
          ForcedNonConvergence ? ", injected non-convergence" : "");
  }
  if (TraceIters)
    telemetry::counterSample("bp.residual", telemetry::TraceLevel::Solver,
                             "solver", "residual", Engine.Delta);
  if (telemetry::enabled(telemetry::TraceLevel::Phase)) {
    telemetry::counter("solver.bp.solves").add(1);
    telemetry::counter("solver.bp.messages").add(Engine.Updates);
    if (!Converged)
      telemetry::counter("solver.bp.nonconverged").add(1);
    telemetry::histogram("solver.bp.iterations")
        .record(static_cast<double>(Engine.Iterations));
    telemetry::histogram("solver.bp.residual").record(Engine.Delta);
    telemetry::histogram("solver.bp.seconds").record(SolveTimer.seconds());
  }
  if (SolveSpan.active()) {
    SolveSpan.arg("vars", G.variableCount());
    SolveSpan.arg("factors", G.factorCount());
    SolveSpan.arg("iters", Engine.Iterations);
    SolveSpan.arg("residual", Engine.Delta);
    SolveSpan.argBool("converged", Converged);
    SolveSpan.arg("messages", Engine.Updates);
    SolveSpan.arg("backend", kern::solverKernels().Name);
    SolveSpan.arg("ranges", Pool ? Pool->threadCount() : 1u);
    if (!Opts.Budget.unlimited())
      SolveSpan.arg("budget_remaining_s", Opts.Budget.remainingSeconds());
  }

  Marginals Result = Engine.beliefs(GraphLikelihood);
  if (Report)
    Report->Seconds = SolveTimer.seconds();
  return Result;
}

//===----------------------------------------------------------------------===//
// Exact enumeration
//===----------------------------------------------------------------------===//

Expected<Marginals> ExactSolver::solve(const FactorGraph &G,
                                       const Deadline &Budget) const {
  telemetry::Span SolveSpan("solver.exact", telemetry::TraceLevel::Method,
                            "solver");
  const unsigned NumVars = G.variableCount();
  if (SolveSpan.active())
    SolveSpan.arg("vars", NumVars);
  if (telemetry::enabled(telemetry::TraceLevel::Phase)) {
    telemetry::counter("solver.exact.solves").add(1);
    telemetry::histogram("solver.exact.vars")
        .record(static_cast<double>(NumVars));
  }
  if (NumVars > MaxVariables)
    return Status::error(
        ErrorCode::ResourceExhausted,
        formatStr("graph has %u variables, exact enumeration handles "
                  "at most %u",
                  NumVars, MaxVariables));
  const uint32_t NumFactors = G.factorCount();
  std::vector<double> TrueMass(NumVars, 0.0);
  double Total = 0.0;
  // Direct bit tests against the assignment index replace the per-index
  // vector<bool> fill; the multiplication order (priors in variable
  // order, then factors in order) is jointWeight's, bit for bit.
  std::vector<double> PriorTrue(NumVars), PriorFalse(NumVars);
  for (unsigned V = 0; V != NumVars; ++V) {
    PriorTrue[V] = G.variable(V).Prior;
    PriorFalse[V] = 1.0 - PriorTrue[V];
  }
  const uint64_t Count = uint64_t{1} << NumVars;
  for (uint64_t Index = 0; Index != Count; ++Index) {
    if ((Index & 0xFFF) == 0 && Budget.expired())
      return Status::error(
          ErrorCode::DeadlineExceeded,
          formatStr("exact enumeration budget expired after %llu of %llu "
                    "assignments",
                    static_cast<unsigned long long>(Index),
                    static_cast<unsigned long long>(Count)));
    double Weight = 1.0;
    for (unsigned V = 0; V != NumVars; ++V)
      Weight *= ((Index >> V) & 1) ? PriorTrue[V] : PriorFalse[V];
    for (uint32_t F = 0; F != NumFactors; ++F) {
      const FactorGraph::Factor &Factor = G.factor(F);
      size_t TableIndex = 0;
      for (size_t Bit = 0; Bit != Factor.Scope.size(); ++Bit)
        if ((Index >> Factor.Scope[Bit]) & 1)
          TableIndex |= size_t{1} << Bit;
      Weight *= Factor.Table[TableIndex];
    }
    Total += Weight;
    for (unsigned V = 0; V != NumVars; ++V)
      if ((Index >> V) & 1)
        TrueMass[V] += Weight;
  }
  Marginals Result(NumVars, 0.5);
  if (Total > 0)
    for (unsigned V = 0; V != NumVars; ++V)
      Result[V] = TrueMass[V] / Total;
  return Result;
}

namespace {

/// Lane-truth masks for the packed logical enumeration: bit j of a
/// 64-assignment block word stands for assignment BlockBase | j, so low
/// variable v (v < 6) is true exactly in the lanes where bit v of j is
/// set.
constexpr uint64_t LaneTrue[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

/// Whether the popcount fast path applies: enough variables to fill a
/// 64-lane block, and no factor whose precomputed satisfied-word table
/// (one word per combination of its variables above the low six) would
/// blow up.
bool canEnumeratePacked(const FactorGraph &G, unsigned NumVars) {
  if (NumVars < 6)
    return false;
  for (uint32_t F = 0; F != G.factorCount(); ++F) {
    unsigned HighSlots = 0;
    for (VarId V : G.factor(F).Scope)
      HighSlots += V >= 6;
    if (HighSlots > 12)
      return false;
  }
  return true;
}

/// Bit-parallel hard-constraint enumeration: evaluates 64 assignments
/// (all values of the six low variables) per step. Per factor, the
/// satisfied mask over those 64 lanes depends only on the factor's
/// high-variable assignment, so it is precomputed per high combination;
/// the block loop then ANDs one word per factor and popcounts. Counts
/// are integers, so results are exactly the scalar enumeration's.
/// Returns false when \p Budget expires (same 4096-assignment check
/// cadence as the scalar loop).
bool enumeratePacked(const FactorGraph &G, unsigned NumVars,
                     double Threshold, const Deadline &Budget,
                     uint64_t &Satisfying,
                     std::vector<uint64_t> *TrueCounts) {
  const uint32_t NumFactors = G.factorCount();
  struct FactorWords {
    // (variable, scope slot) for scope entries with variable id >= 6.
    std::vector<std::pair<unsigned, unsigned>> HighSlots;
    std::vector<uint64_t> Words; // indexed by packed high-slot bits.
  };
  std::vector<FactorWords> Packed(NumFactors);
  for (uint32_t F = 0; F != NumFactors; ++F) {
    const FactorGraph::Factor &Factor = G.factor(F);
    FactorWords &P = Packed[F];
    std::vector<std::pair<unsigned, unsigned>> LowSlots;
    for (size_t Bit = 0; Bit != Factor.Scope.size(); ++Bit) {
      if (Factor.Scope[Bit] < 6)
        LowSlots.emplace_back(Factor.Scope[Bit],
                              static_cast<unsigned>(Bit));
      else
        P.HighSlots.emplace_back(Factor.Scope[Bit],
                                 static_cast<unsigned>(Bit));
    }
    uint32_t LowIdx[64];
    for (unsigned J = 0; J != 64; ++J) {
      uint32_t Idx = 0;
      for (const auto &Slot : LowSlots)
        if ((J >> Slot.first) & 1)
          Idx |= uint32_t{1} << Slot.second;
      LowIdx[J] = Idx;
    }
    P.Words.resize(size_t{1} << P.HighSlots.size());
    for (size_t H = 0; H != P.Words.size(); ++H) {
      uint32_t HighIdx = 0;
      for (size_t I = 0; I != P.HighSlots.size(); ++I)
        if ((H >> I) & 1)
          HighIdx |= uint32_t{1} << P.HighSlots[I].second;
      uint64_t Word = 0;
      for (unsigned J = 0; J != 64; ++J)
        if (Factor.Table[LowIdx[J] | HighIdx] > Threshold)
          Word |= uint64_t{1} << J;
      P.Words[H] = Word;
    }
  }
  const uint64_t Blocks = uint64_t{1} << (NumVars - 6);
  for (uint64_t Block = 0; Block != Blocks; ++Block) {
    if ((Block & 0x3F) == 0 && Budget.expired())
      return false;
    const uint64_t BlockBase = Block << 6;
    uint64_t Acc = ~uint64_t{0};
    for (uint32_t F = 0; F != NumFactors && Acc; ++F) {
      const FactorWords &P = Packed[F];
      size_t H = 0;
      for (size_t I = 0; I != P.HighSlots.size(); ++I)
        if ((BlockBase >> P.HighSlots[I].first) & 1)
          H |= size_t{1} << I;
      Acc &= P.Words[H];
    }
    if (!Acc)
      continue;
    const uint64_t Full = static_cast<uint64_t>(std::popcount(Acc));
    Satisfying += Full;
    if (TrueCounts) {
      for (unsigned V = 0; V != 6; ++V)
        (*TrueCounts)[V] +=
            static_cast<uint64_t>(std::popcount(Acc & LaneTrue[V]));
      for (unsigned V = 6; V != NumVars; ++V)
        if ((BlockBase >> V) & 1)
          (*TrueCounts)[V] += Full;
    }
  }
  return true;
}

/// The pre-popcount scalar enumeration, kept for graphs the packed path
/// declines (fewer than six variables, or a pathological factor).
bool enumerateSimple(const FactorGraph &G, unsigned NumVars,
                     double Threshold, const Deadline &Budget,
                     uint64_t &Satisfying,
                     std::vector<uint64_t> *TrueCounts) {
  const uint64_t Count = uint64_t{1} << NumVars;
  for (uint64_t Index = 0; Index != Count; ++Index) {
    if ((Index & 0xFFF) == 0 && Budget.expired())
      return false;
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
  return true;
}

bool enumerateSatisfying(const FactorGraph &G, unsigned NumVars,
                         double Threshold, const Deadline &Budget,
                         uint64_t &Satisfying,
                         std::vector<uint64_t> *TrueCounts) {
  if (canEnumeratePacked(G, NumVars))
    return enumeratePacked(G, NumVars, Threshold, Budget, Satisfying,
                           TrueCounts);
  return enumerateSimple(G, NumVars, Threshold, Budget, Satisfying,
                         TrueCounts);
}

} // namespace

std::optional<uint64_t>
ExactSolver::countSatisfying(const FactorGraph &G, unsigned VarLimit,
                             double Threshold,
                             const Deadline &Budget) const {
  const unsigned NumVars = G.variableCount();
  if (NumVars > VarLimit || NumVars > 62)
    return std::nullopt; // The deterministic solver gives up: DNF.
  uint64_t Satisfying = 0;
  if (!enumerateSatisfying(G, NumVars, Threshold, Budget, Satisfying,
                           nullptr))
    return std::nullopt; // Budget expired mid-enumeration: DNF.
  return Satisfying;
}

std::optional<Marginals>
ExactSolver::solveLogical(const FactorGraph &G, unsigned VarLimit,
                          double Threshold, const Deadline &Budget) const {
  const unsigned NumVars = G.variableCount();
  if (NumVars > VarLimit || NumVars > 62)
    return std::nullopt; // Too large: the deterministic solver gives up.
  uint64_t Satisfying = 0;
  std::vector<uint64_t> TrueCounts(NumVars, 0);
  if (!enumerateSatisfying(G, NumVars, Threshold, Budget, Satisfying,
                           &TrueCounts))
    return std::nullopt; // Budget expired mid-enumeration: DNF.
  if (Satisfying == 0)
    return std::nullopt; // Unsatisfiable: conflicting constraints.
  Marginals Result(NumVars);
  for (unsigned V = 0; V != NumVars; ++V)
    Result[V] = static_cast<double>(TrueCounts[V]) /
                static_cast<double>(Satisfying);
  return Result;
}

//===----------------------------------------------------------------------===//
// Gibbs sampling
//===----------------------------------------------------------------------===//

Marginals GibbsSolver::solve(const FactorGraph &G,
                             SolveReport *Report) const {
  Timer SolveTimer;
  telemetry::Span SolveSpan("solver.gibbs", telemetry::TraceLevel::Method,
                            "solver");
  const unsigned NumVars = G.variableCount();
  if (NumVars == 0) {
    if (Report) {
      *Report = SolveReport();
      Report->Converged = Opts.Samples > 0;
      if (!Report->Converged)
        Report->Reason = "no samples requested (Samples == 0)";
    }
    return {};
  }
  // Raw SplitMix64 state handed to the kernel; kern::rngNext is the
  // same arithmetic as Rng, so the stream is the one Rng(Seed) yields.
  uint64_t RngState = Opts.Seed;
  const FactorGraph::EdgeLayout &L = G.edgeLayout();
  const FactorGraph::GibbsLayout &GL = G.gibbsLayout();
  const unsigned NumFactors = G.factorCount();

  // Initialize from priors.
  std::vector<double> Priors(NumVars);
  std::vector<uint8_t> Assign(NumVars);
  for (unsigned V = 0; V != NumVars; ++V) {
    Priors[V] = G.variable(V).Prior;
    Assign[V] = kern::rngUniform(RngState) < Priors[V];
  }

  // Incremental conditional evaluation: each factor's current table
  // index is cached and maintained under flips (flipping V XORs V's
  // slot bits into every adjacent factor's index), so a conditional
  // weight is one table load per adjacent factor instead of an index
  // rebuild over that factor's whole scope.
  std::vector<uint32_t> CurIndex(NumFactors, 0);
  for (uint32_t E = 0; E != L.edgeCount(); ++E)
    if (Assign[L.EdgeVar[E]])
      CurIndex[L.EdgeFactor[E]] |= GL.EdgeSlotBit[E];

  kern::GibbsView View;
  View.NumVars = NumVars;
  View.VarOffset = L.VarOffset.data();
  View.VmFactor = L.VmFactor.data();
  View.VmMask = GL.VmMask.data();
  View.VmSlotBit = GL.VmSlotBit.data();
  View.VmTableBase = GL.VmTableBase.data();
  View.TableFlat = L.TableFlat.data();
  View.Priors = Priors.data();
  kern::GibbsState KState;
  KState.CurIndex = CurIndex.data();
  KState.Assign = Assign.data();
  KState.RngState = &RngState;
  // Pair path: seed every position's current pair index from CurIndex
  // once; the kernel maintains it under flips through the
  // flip-adjacency CSR (and leaves CurIndex itself untouched — the
  // sampler reads chain state from Assign only).
  std::vector<uint32_t> PosIdx;
  if (!GL.PairFlat.empty()) {
    View.PairFlat = GL.PairFlat.data();
    View.FlipOffset = GL.FlipOffset.data();
    View.FlipPos = GL.FlipPos.data();
    View.FlipDelta = GL.FlipDelta.data();
    PosIdx.resize(L.edgeCount());
    for (uint32_t I = 0; I != L.edgeCount(); ++I) {
      const uint32_t Cur = CurIndex[L.VmFactor[I]];
      const uint32_t Low = GL.VmPairLow[I];
      PosIdx[I] =
          GL.VmPairBase[I] + 2 * ((Cur & Low) | ((Cur >> 1) & ~Low));
    }
    KState.PosIdx = PosIdx.data();
  }
  const kern::SolverKernels &K = kern::solverKernels();

  std::vector<uint32_t> TrueCounts(NumVars, 0);
  unsigned Collected = 0;
  bool DeadlineExpired = false;
  uint64_t Updates = 0;
  const unsigned Sweeps = Opts.BurnIn + Opts.Samples;
  const bool TraceSweeps =
      telemetry::enabled(telemetry::TraceLevel::Solver);
  unsigned Sweep = 0;
  for (; Sweep != Sweeps; ++Sweep) {
    if (Opts.Budget.expired(Sweep)) {
      DeadlineExpired = true;
      break;
    }
    if (TraceSweeps && (Sweep & 0xFF) == 0)
      telemetry::counterSample("gibbs.progress",
                               telemetry::TraceLevel::Solver, "solver",
                               "sweep", static_cast<double>(Sweep));
    // The kernel runs the sweep in chunks so the mid-sweep wall-clock
    // check keeps its cadence (before variables 63, 127, ...): on large
    // graphs a single sweep can outlast the whole budget, while small
    // graphs keep the exact sweep counts the per-sweep check alone
    // would produce.
    uint32_t ChunkBegin = 0;
    while (ChunkBegin != NumVars) {
      const uint32_t ChunkEnd = std::min<uint32_t>(
          NumVars, ChunkBegin == 0 ? 63u : ChunkBegin + 64);
      K.GibbsSweep(View, KState, ChunkBegin, ChunkEnd);
      Updates += ChunkEnd - ChunkBegin;
      ChunkBegin = ChunkEnd;
      if (ChunkBegin != NumVars && Opts.Budget.expired(Sweep)) {
        DeadlineExpired = true;
        break;
      }
    }
    if (DeadlineExpired)
      break; // Do not sample a half-updated sweep.
    if (Sweep >= Opts.BurnIn) {
      for (unsigned V = 0; V != NumVars; ++V)
        TrueCounts[V] += Assign[V];
      ++Collected;
    }
  }

  // A cut-short chain averages whatever samples it collected; with none
  // at all the marginals stay at the uninformative 0.5.
  Marginals Result(NumVars, 0.5);
  if (Collected > 0)
    for (unsigned V = 0; V != NumVars; ++V)
      Result[V] = static_cast<double>(TrueCounts[V]) /
                  static_cast<double>(Collected);
  // Samples == 0 collects nothing by construction: that is a
  // non-convergent run over uninformative marginals, not a vacuous
  // success.
  const bool Converged = Opts.Samples > 0 && Collected == Opts.Samples;
  if (Report) {
    Report->Iterations = Sweep;
    Report->DeadlineExpired = DeadlineExpired;
    Report->Converged = Converged;
    Report->Residual = 0.0;
    Report->Updates = Updates;
    Report->Seconds = SolveTimer.seconds();
    Report->Reason.clear();
    if (!Converged) {
      // Every non-convergent outcome names its cause, so the cascade's
      // Diagnostics and the trace agree on why the stage was abandoned
      // (including the Samples == 0 degenerate request, which used to
      // surface as a reasonless "Samples == 0" non-convergence).
      if (Opts.Samples == 0)
        Report->Reason = "no samples requested (Samples == 0)";
      else
        Report->Reason = formatStr(
            "deadline expired after %u of %u sweeps, %u/%u samples "
            "collected",
            Sweep, Sweeps, Collected, Opts.Samples);
    }
  }
  if (telemetry::enabled(telemetry::TraceLevel::Phase)) {
    telemetry::counter("solver.gibbs.solves").add(1);
    telemetry::counter("solver.gibbs.flips").add(Updates);
    if (!Converged)
      telemetry::counter("solver.gibbs.nonconverged").add(1);
    telemetry::histogram("solver.gibbs.sweeps")
        .record(static_cast<double>(Sweep));
    telemetry::histogram("solver.gibbs.samples")
        .record(static_cast<double>(Collected));
    telemetry::histogram("solver.gibbs.seconds")
        .record(SolveTimer.seconds());
  }
  if (SolveSpan.active()) {
    SolveSpan.arg("vars", NumVars);
    SolveSpan.arg("sweeps", Sweep);
    SolveSpan.arg("samples", Collected);
    SolveSpan.arg("flips", Updates);
    SolveSpan.argBool("converged", Converged);
    if (!Opts.Budget.unlimited())
      SolveSpan.arg("budget_remaining_s", Opts.Budget.remainingSeconds());
  }
  return Result;
}
