//===- bench_incremental.cpp - Incremental re-inference speedup ------------===//
//
// The summary cache's economics (DESIGN.md, "Incremental inference and
// the summary cache"): after one cold run over a PMD-scale corpus, an
// edit to one method should re-pay only that method's share of the
// fixpoint, not the whole corpus. This bench times runs against an
// on-disk cache — cold, warm-clean, warm after a 1-method edit, warm
// after a 10%-of-methods edit — and byte-checks every cached run against
// an uncached run of the same source. The gated pair (cold, then warm
// after the 1-method edit) is repeated over fresh caches, interleaved,
// so the gate reads a median rather than one noisy timing.
//
// Exit status is the acceptance gate: nonzero when any cached run's
// output diverges from its uncached reference, or when the median
// 1-method warm run costs more than 25% of its cold run.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "cache/SummaryCache.h"
#include "lang/PrettyPrinter.h"
#include "support/Format.h"
#include "support/Timer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>
#include <vector>

using namespace anek;

namespace {

namespace fs = std::filesystem;

/// Everything observable about a run, pointer-free: the annotated
/// program plus the fixpoint's accounting. Cached and uncached runs of
/// the same source must render identically.
std::string renderRun(Program &Prog, const InferResult &R) {
  std::ostringstream Out;
  PrintOptions POpts;
  POpts.SpecFor = [&R](const MethodDecl &M) {
    const MethodSpec *Spec = R.specFor(&M);
    return Spec ? *Spec : MethodSpec();
  };
  Out << printProgram(Prog, POpts);
  Out << "picks=" << R.WorklistPicks << " inferred=" << R.Inferred.size()
      << " failed=" << R.MethodsFailed << " vars=" << R.TotalVariables
      << " factors=" << R.TotalFactors << "\n";
  return Out.str();
}

struct RunPoint {
  const char *Label = "";
  double Seconds = 0.0;
  CacheStats Stats;
  bool Identical = true;
};

/// The rendering of an uncached -j1 run of \p Source: what every cached
/// run of the same source must reproduce byte for byte.
std::string referenceRun(const std::string &Source) {
  std::unique_ptr<Program> Prog = mustAnalyze(Source);
  InferOptions Opts;
  Opts.Parallelism = 1;
  return renderRun(*Prog, runAnekInfer(*Prog, Opts));
}

/// One full inference over a fresh parse of \p Source at -j1 (the
/// determinism reference job count) against \p Cache, checked against
/// \p Reference.
RunPoint timedRun(const char *Label, const std::string &Source,
                  SolveCache &Cache, const std::string &Reference) {
  std::unique_ptr<Program> Prog = mustAnalyze(Source);
  InferOptions Opts;
  Opts.Parallelism = 1;
  Opts.Cache = &Cache;
  Timer T;
  InferResult R = runAnekInfer(*Prog, Opts);
  RunPoint Point;
  Point.Label = Label;
  Point.Seconds = T.seconds();
  Point.Stats = R.Cache;
  Point.Identical = renderRun(*Prog, R) == Reference;
  return Point;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Textually edits the bodies of up to \p Count of the generator's bulk
/// `calc<N>` methods (an extra accumulation statement: a real semantic
/// change, not formatting). Returns how many were actually edited.
unsigned dirtyCalcMethods(std::string &Source, unsigned Count,
                          unsigned MaxId) {
  unsigned Dirtied = 0;
  for (unsigned Id = 0; Id != MaxId && Dirtied != Count; ++Id) {
    const std::string Needle =
        formatStr("int calc%u(int a, int b) {\n    int r = a;\n", Id);
    const size_t At = Source.find(Needle);
    if (At == std::string::npos)
      continue;
    Source.insert(At + Needle.size(), "    r = r + 7;\n");
    ++Dirtied;
  }
  return Dirtied;
}

} // namespace

int main() {
  BenchTelemetry Telemetry("incremental");
  std::puts("Incremental re-inference: one on-disk summary cache across"
            " edits");

  PmdConfig Config;
  Config.Classes = 120;
  Config.Methods = 700;
  Config.Wrappers = 12;
  Config.FullSpecWrappers = 2;
  Config.DirectSites = 90;
  Config.WrapperConsumerSites = 45;
  Config.BuggySites = 2;
  Config.UnannotatedSetters = 3;
  PmdCorpus Corpus = generatePmdCorpus(Config);
  std::printf("corpus: %u classes, %u methods, %u lines\n",
              Corpus.ClassCount, Corpus.MethodCount, Corpus.LineCount);

  const fs::path CacheDir =
      fs::temp_directory_path() /
      ("anek_bench_incremental_" + std::to_string(::getpid()));
  std::error_code Ignored;

  std::string OneDirty = Corpus.Source;
  if (dirtyCalcMethods(OneDirty, 1, Config.Methods) != 1) {
    std::fprintf(stderr, "bench: no calc method found to dirty\n");
    return 1;
  }
  std::string TenthDirty = Corpus.Source;
  const unsigned TenthTarget = Corpus.MethodCount / 10;
  const unsigned TenthActual =
      dirtyCalcMethods(TenthDirty, TenthTarget, Config.Methods);
  if (TenthActual == 0) {
    std::fprintf(stderr, "bench: no calc methods found to dirty\n");
    return 1;
  }
  if (TenthActual < TenthTarget)
    std::printf("note: only %u of the targeted %u methods could be"
                " dirtied\n",
                TenthActual, TenthTarget);

  const std::string CleanRef = referenceRun(Corpus.Source);
  const std::string OneDirtyRef = referenceRun(OneDirty);
  const std::string TenthDirtyRef = referenceRun(TenthDirty);

  // Each pair: a fresh cache, its cold run, then the 1-method edit. The
  // last pair also runs warm-clean before the edit and the 10% edit after
  // it, in the order a developer would.
  constexpr unsigned Pairs = 5;
  std::vector<double> ColdSeconds, DirtySeconds, DirtyOfCold;
  std::vector<RunPoint> Points;
  bool Ok = true;
  for (unsigned Pair = 0; Pair != Pairs; ++Pair) {
    fs::remove_all(CacheDir, Ignored);
    cache::SummaryCache Cache(CacheDir.string());
    const bool Last = Pair + 1 == Pairs;
    RunPoint Cold = timedRun("cold", Corpus.Source, Cache, CleanRef);
    RunPoint Clean;
    if (Last)
      Clean = timedRun("warm-clean", Corpus.Source, Cache, CleanRef);
    RunPoint Dirty = timedRun("warm-1-dirty", OneDirty, Cache, OneDirtyRef);
    Ok = Ok && Cold.Identical && Dirty.Identical;
    ColdSeconds.push_back(Cold.Seconds);
    DirtySeconds.push_back(Dirty.Seconds);
    DirtyOfCold.push_back(Cold.Seconds > 0.0 ? Dirty.Seconds / Cold.Seconds
                                             : 0.0);
    if (Last) {
      Cold.Seconds = median(ColdSeconds);
      Dirty.Seconds = median(DirtySeconds);
      Points = {Cold, Clean, Dirty,
                timedRun("warm-10pct-dirty", TenthDirty, Cache,
                         TenthDirtyRef)};
    }
  }
  fs::remove_all(CacheDir, Ignored);

  const double ColdMedian = Points.front().Seconds;
  const double GateRatio = median(DirtyOfCold);
  const auto [MinRatio, MaxRatio] =
      std::minmax_element(DirtyOfCold.begin(), DirtyOfCold.end());
  rule();
  std::printf("%18s | %9s | %7s | %6s %6s %6s %6s | %s\n", "run",
              "seconds", "of-cold", "hit", "miss", "inval", "store",
              "identical");
  rule();
  for (const RunPoint &P : Points)
    std::printf("%18s | %8.3fs | %6.1f%% | %6u %6u %6u %6u | %s\n",
                P.Label, P.Seconds,
                ColdMedian > 0.0 ? 100.0 * P.Seconds / ColdMedian : 0.0,
                P.Stats.Hits, P.Stats.Misses, P.Stats.Invalidated,
                P.Stats.Stores, P.Identical ? "yes" : "NO (BUG)");
  rule();
  std::printf("cold and warm-1-dirty: medians of %u interleaved pairs"
              " (cold %.3f-%.3fs, warm-1-dirty %.3f-%.3fs)\n",
              Pairs, *std::min_element(ColdSeconds.begin(), ColdSeconds.end()),
              *std::max_element(ColdSeconds.begin(), ColdSeconds.end()),
              *std::min_element(DirtySeconds.begin(), DirtySeconds.end()),
              *std::max_element(DirtySeconds.begin(), DirtySeconds.end()));
  std::printf("warm-1-dirty / cold per pair: median %.1f%%, range "
              "%.1f%%-%.1f%%\n",
              100.0 * GateRatio, 100.0 * *MinRatio, 100.0 * *MaxRatio);

  std::ofstream Json("bench_incremental.json");
  Json << "{\n  \"bench\": \"incremental_reinference\",\n"
       << "  \"corpus_methods\": " << Corpus.MethodCount << ",\n"
       << "  \"dirtied_10pct\": " << TenthActual << ",\n"
       << "  \"pairs\": " << Pairs << ",\n"
       << "  \"one_dirty_of_cold\": {\"median\": " << GateRatio
       << ", \"min\": " << *MinRatio << ", \"max\": " << *MaxRatio
       << "},\n"
       << "  \"points\": [\n";
  for (size_t I = 0; I != Points.size(); ++I) {
    const RunPoint &P = Points[I];
    Json << "    {\"run\": \"" << P.Label
         << "\", \"seconds\": " << P.Seconds << ", \"of_cold\": "
         << (ColdMedian > 0.0 ? P.Seconds / ColdMedian : 0.0)
         << ", \"hits\": " << P.Stats.Hits
         << ", \"misses\": " << P.Stats.Misses
         << ", \"invalidated\": " << P.Stats.Invalidated
         << ", \"stores\": " << P.Stats.Stores << ", \"identical\": "
         << (P.Identical ? "true" : "false") << "}"
         << (I + 1 == Points.size() ? "\n" : ",\n");
  }
  Json << "  ]\n}\n";
  std::puts("Written to bench_incremental.json. Acceptance: every cached"
            " run byte-identical to\nits uncached reference, and the"
            " 1-method-dirty warm run at most 25% of cold\n(median of the"
            " per-pair ratios).");

  for (const RunPoint &P : Points)
    Ok = Ok && P.Identical;
  if (GateRatio > 0.25) {
    std::fprintf(stderr,
                 "bench: 1-method-dirty run took a median %.1f%% of cold "
                 "(budget: 25%%)\n",
                 100.0 * GateRatio);
    Ok = false;
  }
  return Ok ? 0 : 1;
}
