//===- bench_ablation_maxiters.cpp - Accuracy/scalability knob -------------===//
//
// Paper Section 1/3.4: "Varying the number of iterations allows for a
// trade-off between specification accuracy and scalability." This bench
// sweeps MaxIters on the PMD corpus and reports time, inferred
// annotations, the PLURAL warning count after inference, and the picks
// credited without solving once phase 2 repeats a round-boundary state
// (its limit cycle; DESIGN.md, "Concurrency model").
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/Timer.h"

using namespace anek;

int main() {
  BenchTelemetry Telemetry("ablation_maxiters");
  PmdCorpus Corpus = generatePmdCorpus();
  std::unique_ptr<Program> Prog = mustAnalyze(Corpus.Source);
  const unsigned Bodies =
      static_cast<unsigned>(Prog->methodsWithBodies().size());

  std::puts("MaxIters sweep on the PMD-scale corpus (paper Section 3.4)");
  rule();
  std::printf("%12s %10s %10s %10s %10s %8s\n", "MaxIters", "picks",
              "skipped", "inferred", "warnings", "time");
  rule();

  const unsigned Sweeps[] = {Bodies / 8, Bodies / 4, Bodies / 2, Bodies,
                             2 * Bodies, 3 * Bodies, 6 * Bodies,
                             12 * Bodies};
  for (unsigned MaxIters : Sweeps) {
    InferOptions Opts;
    Opts.MaxIters = MaxIters;
    Timer T;
    InferResult R = runAnekInfer(*Prog, Opts);
    CheckResult Check = runChecker(*Prog, inferredProvider(R));
    std::printf("%12u %10u %10u %10u %10u %7.2fs\n", MaxIters,
                R.WorklistPicks, R.FastForwardedPicks,
                R.inferredAnnotationCount(), Check.warningCount(),
                T.seconds());
  }
  rule();
  std::puts("Shape check: annotations rise with the budget and settle by"
            " one pass, warnings\nsettle at the paper's 4; time grows"
            " with the solved picks until phase 2\nrepeats a round-boundary"
            " state, then flattens: past the cycle, whole periods\nare"
            " skipped and at most one period's remainder is solved.");
  return 0;
}
