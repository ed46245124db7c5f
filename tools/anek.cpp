//===- anek.cpp - Command-line driver for the ANEK pipeline ----------------===//
//
// Part of the ANEK reproduction. See README.md.
//
// Usage:
//   anek infer  <file.mjava | --example NAME> [--report] [--jobs N]
//   anek check  <file.mjava | --example NAME>   check declared specs only
//   anek verify <file.mjava | --example NAME>   infer, then check
//   anek pfg    <file.mjava | --example NAME> [--dot] [--method M]
//   anek ir     <file.mjava | --example NAME>
//   anek batch  <manifest.txt | ->              serve a request stream
//   anek report [--trace F] [--metrics F] [--batch F]   profile a run
//   anek faults                                 list injectable faults
//
// `anek batch` reads one request per manifest line ("-" = stdin; see
// src/serve/Manifest.h for the line grammar), drives them through the
// resource-governed serving layer (bounded queue, per-request deadlines
// and memory budgets), and emits one JSONL line per request in completion
// order. SIGINT/SIGTERM drain gracefully: admission stops, in-flight
// requests finish, every request still gets its line.
//
// --jobs/-j N runs inference on N worker threads (default: one per
// hardware thread; 1 = fully sequential). Output is byte-identical for
// every N.
//
// --trace FILE writes a Chrome trace_event JSON timeline (load it in
// chrome://tracing or ui.perfetto.dev); --metrics FILE writes the flat
// anek-metrics-v1 counters document. Either implies --trace-level solver
// unless --trace-level {off,phase,method,solver} narrows the collection.
// Telemetry never changes the inferred specs (see DESIGN.md, Telemetry).
//
// `anek report` digests the artifacts a run wrote (--trace/--metrics
// files, a batch JSONL) into a profile: per-phase time, top spans, cache
// hit rate, queue-wait vs solve split, per-request outcomes. --json
// emits the machine-readable anek-report-v1 document.
//
// Built-in examples: spreadsheet, file, field (the paper's running
// examples), pmd (the Table 1 PMD-scale corpus from generatePmdCorpus())
// and chain (the Table 3 modular helper chain, 768 helpers).
//
// Exit codes (the driver contract, see DESIGN.md):
//   0  success, no error diagnostics
//   1  diagnostics were produced (bad input, degraded inference errors)
//   2  usage error (unknown command/flags, missing input)
//   3  internal error (invariant failure, uncaught exception)
//
//===----------------------------------------------------------------------===//

#include "analysis/IrBuilder.h"
#include "cache/SummaryCache.h"
#include "corpus/ExampleSources.h"
#include "corpus/InlineComparison.h"
#include "corpus/PmdGenerator.h"
#include "factor/Kernels.h"
#include "infer/AnekInfer.h"
#include "lang/PrettyPrinter.h"
#include "lang/Sema.h"
#include "pfg/PfgBuilder.h"
#include "plural/Checker.h"
#include "report/Report.h"
#include "serve/BatchRunner.h"
#include "serve/Manifest.h"
#include "support/FaultInject.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace anek;

namespace {

enum ExitCode { ExitOk = 0, ExitDiagnostics = 1, ExitUsage = 2,
                ExitInternal = 3 };

void usage() {
  std::fputs("usage: anek <infer|check|verify|pfg|ir> "
             "<file.mjava | --example spreadsheet|file|field|pmd|chain> "
             "[--dot] [--method NAME] [--report] [--fault SPEC] "
             "[--jobs N | -j N] [--cache DIR] "
             "[--kernel-backend scalar|avx2|neon|auto] [--trace FILE] "
             "[--metrics FILE] [--trace-level off|phase|method|solver]\n"
             "       anek batch <manifest.txt | -> [--workers N] "
             "[--queue-cap N] [--deadline SECS] "
             "[--mem-budget BYTES[k|m|g]] [--jobs N | -j N] "
             "[--cache DIR] [--seed N] [--out FILE] [--shed-when-full] "
             "[--kernel-backend NAME] [--fault SPEC] [--slow-request SECS] "
             "[--trace FILE] [--metrics FILE] [--trace-level LEVEL]\n"
             "       anek report [--trace FILE] [--metrics FILE] "
             "[--batch FILE] [--json] [--top N]\n"
             "       anek faults\n"
             "(--fault list prints the fault vocabulary; %p in --out/"
             "--trace/--metrics paths expands to the pid)\n",
             stderr);
}

/// Lists every injectable fault kind with its one-line description.
void printFaultTable() {
  for (unsigned K = 0; K != NumFaultKinds; ++K) {
    FaultKind Kind = static_cast<FaultKind>(K);
    std::printf("%-16s %s\n", faultKindName(Kind),
                faultKindDescription(Kind));
  }
}

/// Expands "%p" to the pid, so concurrent batch runs sharing a path
/// template never clobber each other's artifacts.
std::string expandPathTemplate(std::string Path) {
  std::string Pid = std::to_string(static_cast<long>(::getpid()));
  size_t Pos = 0;
  while ((Pos = Path.find("%p", Pos)) != std::string::npos) {
    Path.replace(Pos, 2, Pid);
    Pos += Pid.size();
  }
  return Path;
}

/// Writes the requested telemetry artifacts when the driver exits through
/// any path (success, diagnostics, even an exception unwinding through
/// run()); a partial trace of a failed run is exactly when you want one.
class TelemetryFlusher {
public:
  std::string TracePath;
  std::string MetricsPath;

  ~TelemetryFlusher() {
    std::string Error;
    if (!TracePath.empty() &&
        !telemetry::writeChromeTrace(TracePath, &Error))
      std::fprintf(stderr, "anek: %s\n", Error.c_str());
    if (!MetricsPath.empty() &&
        !telemetry::writeMetricsFile(MetricsPath, &Error))
      std::fprintf(stderr, "anek: %s\n", Error.c_str());
  }
};

/// Splits "--flag=value" and "--flag value" into a value; false when the
/// flag does not match or the value is missing.
bool flagValue(const std::vector<std::string> &Args, size_t &I,
               const char *Flag, std::string &Out) {
  const std::string &Arg = Args[I];
  size_t FlagLen = std::strlen(Flag);
  if (Arg.compare(0, FlagLen, Flag) != 0)
    return false;
  if (Arg.size() > FlagLen && Arg[FlagLen] == '=') {
    Out = Arg.substr(FlagLen + 1);
    return true;
  }
  if (Arg.size() == FlagLen && I + 1 < Args.size()) {
    Out = Args[++I];
    return true;
  }
  return false;
}

/// `anek report`: profile a finished run from its artifact files.
int runReport(const std::vector<std::string> &Args) {
  std::string TracePath, MetricsPath, BatchPath;
  bool Json = false;
  unsigned TopK = report::DefaultTopK;
  for (size_t I = 1; I < Args.size(); ++I) {
    std::string Value;
    if (flagValue(Args, I, "--trace", Value)) {
      TracePath = Value;
    } else if (flagValue(Args, I, "--metrics", Value)) {
      MetricsPath = Value;
    } else if (flagValue(Args, I, "--batch", Value)) {
      BatchPath = Value;
    } else if (Args[I] == "--json") {
      Json = true;
    } else if (flagValue(Args, I, "--top", Value)) {
      if (!parseUnsigned(Value, TopK) || TopK == 0) {
        std::fprintf(stderr, "anek: bad top-k '%s'\n", Value.c_str());
        return ExitUsage;
      }
    } else {
      std::fprintf(stderr, "anek: unknown report argument '%s'\n",
                   Args[I].c_str());
      usage();
      return ExitUsage;
    }
  }
  if (TracePath.empty() && MetricsPath.empty() && BatchPath.empty()) {
    std::fprintf(stderr,
                 "anek: report needs at least one of --trace, --metrics, "
                 "--batch\n");
    usage();
    return ExitUsage;
  }
  Expected<report::Profile> P =
      report::buildProfile(TracePath, MetricsPath, BatchPath);
  if (!P) {
    std::fprintf(stderr, "anek: %s\n", P.status().str().c_str());
    return ExitDiagnostics;
  }
  std::string Rendered =
      Json ? report::renderJson(*P, TopK) : report::renderText(*P, TopK);
  std::fputs(Rendered.c_str(), stdout);
  return ExitOk;
}

bool loadSource(const std::string &Arg, bool IsExample, std::string &Out) {
  if (IsExample) {
    if (Arg == "spreadsheet") {
      Out = iteratorApiSource() + spreadsheetSource();
      return true;
    }
    if (Arg == "file") {
      Out = fileProtocolSource();
      return true;
    }
    if (Arg == "field") {
      Out = fieldExampleSource();
      return true;
    }
    if (Arg == "pmd") {
      Out = generatePmdCorpus().Source;
      return true;
    }
    if (Arg == "chain") {
      Out = generateInlineComparison(768).Modular;
      return true;
    }
    std::fprintf(stderr, "anek: unknown example '%s'\n", Arg.c_str());
    return false;
  }
  std::ifstream In(Arg);
  if (!In) {
    std::fprintf(stderr, "anek: cannot open '%s'\n", Arg.c_str());
    return false;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

/// One line per analyzed method: which solver's marginals were used and
/// how the cascade got there, then one line on how phase 2 ended.
void printReports(const InferResult &Inference) {
  for (const auto &[M, Report] : Inference.Reports) {
    if (Report.Failed) {
      std::printf("// method %s: FAILED (%s)\n", M->qualifiedName().c_str(),
                  Report.Error.c_str());
      continue;
    }
    std::printf("// method %s: solver=%s%s converged=%s iters=%u "
                "residual=%.2g%s%s\n",
                M->qualifiedName().c_str(), solverChoiceName(Report.Used),
                Report.Fallback ? " (fallback)" : "",
                Report.Solve.Converged ? "yes" : "no",
                Report.Solve.Iterations, Report.Solve.Residual,
                Report.Reason.empty() ? "" : " reason: ",
                Report.Reason.c_str());
  }
  std::printf("// phase 2: %s, %u dirty at exit",
              phase2EndName(Inference.Ending), Inference.DirtyAtExit);
  if (Inference.CyclePeriodRounds)
    std::printf(", %u-round cycle detected after round %u, %u pick(s) "
                "fast-forwarded",
                Inference.CyclePeriodRounds, Inference.CycleDetectedRound,
                Inference.FastForwardedPicks);
  std::printf("\n");
}

/// Set by the SIGINT/SIGTERM handler; the batch runner polls it and
/// drains gracefully (finish in-flight, shed the rest, flush output).
volatile std::sig_atomic_t BatchDrainFlag = 0;

void batchDrainHandler(int) { BatchDrainFlag = 1; }

int runBatch(const std::vector<std::string> &Args) {
  serve::BatchOptions Opts;
  std::string ManifestPath, OutPath;
  TelemetryFlusher Telemetry;
  bool HaveTraceLevel = false;

  for (size_t I = 1; I < Args.size(); ++I) {
    std::string Value;
    unsigned Parsed = 0;
    if (flagValue(Args, I, "--trace", Value)) {
      Telemetry.TracePath = expandPathTemplate(Value);
    } else if (flagValue(Args, I, "--metrics", Value)) {
      Telemetry.MetricsPath = expandPathTemplate(Value);
    } else if (flagValue(Args, I, "--trace-level", Value)) {
      telemetry::TraceLevel Level;
      if (!telemetry::parseTraceLevel(Value, Level)) {
        std::fprintf(stderr, "anek: bad trace level '%s'\n", Value.c_str());
        return ExitUsage;
      }
      telemetry::setTraceLevel(Level);
      HaveTraceLevel = true;
    } else if (flagValue(Args, I, "--slow-request", Value)) {
      if (!parseFinite(Value, Opts.SlowRequestSeconds) ||
          Opts.SlowRequestSeconds < 0.0) {
        std::fprintf(stderr, "anek: bad slow-request threshold '%s'\n",
                     Value.c_str());
        return ExitUsage;
      }
    } else if (flagValue(Args, I, "--out", Value)) {
      OutPath = expandPathTemplate(Value);
    } else if (flagValue(Args, I, "--workers", Value)) {
      if (!parseUnsigned(Value, Parsed) || Parsed == 0) {
        std::fprintf(stderr, "anek: bad worker count '%s'\n", Value.c_str());
        return ExitUsage;
      }
      Opts.Workers = Parsed;
    } else if (flagValue(Args, I, "--queue-cap", Value)) {
      if (!parseUnsigned(Value, Parsed) || Parsed == 0) {
        std::fprintf(stderr, "anek: bad queue cap '%s'\n", Value.c_str());
        return ExitUsage;
      }
      Opts.QueueCap = Parsed;
    } else if (flagValue(Args, I, "--seed", Value)) {
      char *End = nullptr;
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (!End || *End != '\0' || Value.empty()) {
        std::fprintf(stderr, "anek: bad seed '%s'\n", Value.c_str());
        return ExitUsage;
      }
    } else if (flagValue(Args, I, "--deadline", Value)) {
      if (!parseFinite(Value, Opts.DefaultDeadlineSeconds) ||
          Opts.DefaultDeadlineSeconds < 0.0) {
        std::fprintf(stderr, "anek: bad deadline '%s'\n", Value.c_str());
        return ExitUsage;
      }
    } else if (flagValue(Args, I, "--mem-budget", Value)) {
      // Reuse the manifest's byte-count grammar (k/m/g suffixes).
      Expected<std::vector<serve::BatchRequest>> R =
          serve::parseManifest("probe mem=" + Value);
      if (!R || R->size() != 1) {
        std::fprintf(stderr, "anek: bad mem budget '%s'\n", Value.c_str());
        return ExitUsage;
      }
      Opts.DefaultMemBudgetBytes = (*R)[0].MemBudgetBytes;
    } else if (flagValue(Args, I, "--jobs", Value) ||
               flagValue(Args, I, "-j", Value)) {
      if (!parseUnsigned(Value, Parsed) || Parsed == 0) {
        std::fprintf(stderr, "anek: bad thread count '%s'\n", Value.c_str());
        return ExitUsage;
      }
      Opts.DefaultJobs = Parsed;
    } else if (flagValue(Args, I, "--cache", Value)) {
      if (Value.empty()) {
        std::fprintf(stderr, "anek: empty cache directory\n");
        return ExitUsage;
      }
      Opts.DefaultCacheDir = Value;
    } else if (Args[I] == "--shed-when-full") {
      Opts.ShedWhenFull = true;
    } else if (flagValue(Args, I, "--fault", Value)) {
      if (Value == "list") {
        printFaultTable();
        return ExitOk;
      }
      if (Status S = faults::activateSpec(Value); !S) {
        std::fprintf(stderr, "anek: %s\n", S.str().c_str());
        return ExitUsage;
      }
    } else if (Args[I] == "-" || Args[I][0] != '-') {
      ManifestPath = Args[I];
    } else {
      std::fprintf(stderr, "anek: unknown flag '%s'\n", Args[I].c_str());
      usage();
      return ExitUsage;
    }
  }
  if (!HaveTraceLevel &&
      (!Telemetry.TracePath.empty() || !Telemetry.MetricsPath.empty()))
    telemetry::setTraceLevel(telemetry::TraceLevel::Phase);
  if (ManifestPath.empty()) {
    usage();
    return ExitUsage;
  }

  std::string ManifestText;
  if (ManifestPath == "-") {
    std::ostringstream Buffer;
    Buffer << std::cin.rdbuf();
    ManifestText = Buffer.str();
  } else {
    std::ifstream In(ManifestPath);
    if (!In) {
      std::fprintf(stderr, "anek: cannot open '%s'\n", ManifestPath.c_str());
      return ExitDiagnostics;
    }
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    ManifestText = Buffer.str();
  }
  Expected<std::vector<serve::BatchRequest>> Requests =
      serve::parseManifest(ManifestText);
  if (!Requests) {
    std::fprintf(stderr, "anek: %s\n", Requests.status().str().c_str());
    return ExitDiagnostics;
  }

  std::ofstream OutFile;
  std::FILE *OutStream = stdout;
  if (!OutPath.empty()) {
    OutFile.open(OutPath);
    if (!OutFile) {
      std::fprintf(stderr, "anek: cannot write '%s'\n", OutPath.c_str());
      return ExitDiagnostics;
    }
  }
  // One JSONL line per terminal result, flushed immediately: a consumer
  // tailing the stream (or a drained run) never sees a partial batch
  // without the lines that were already decided.
  Opts.Sink = [&](const serve::BatchResult &Res) {
    std::string Line = Res.jsonLine();
    if (OutFile.is_open()) {
      OutFile << Line << '\n';
      OutFile.flush();
    } else {
      std::fprintf(OutStream, "%s\n", Line.c_str());
      std::fflush(OutStream);
    }
  };
  Opts.DrainSignal = &BatchDrainFlag;
  std::signal(SIGINT, batchDrainHandler);
  std::signal(SIGTERM, batchDrainHandler);

  // The cache tier is always wired: a manifest line's cache=DIR
  // (or --cache as the batch default) memoizes that request's solves in
  // DIR. The driver owns one SummaryCache per distinct directory, shared
  // across the requests naming it (the instances are thread-safe and must
  // outlive the runner — they are captured by reference below).
  std::mutex CachesMutex;
  std::map<std::string, std::unique_ptr<cache::SummaryCache>> Caches;
  Opts.Cache = [&CachesMutex, &Caches](const std::string &Dir) -> SolveCache * {
    std::lock_guard<std::mutex> Lock(CachesMutex);
    std::unique_ptr<cache::SummaryCache> &Slot = Caches[Dir];
    if (!Slot)
      Slot = std::make_unique<cache::SummaryCache>(Dir);
    return Slot.get();
  };

  serve::BatchRunner Runner(Opts);
  std::vector<serve::BatchResult> Results = Runner.run(Requests.take());

  unsigned Counts[serve::NumTerminalStates] = {};
  for (const serve::BatchResult &Res : Results)
    Counts[static_cast<unsigned>(Res.State)]++;
  {
    std::lock_guard<std::mutex> Lock(CachesMutex);
    if (!Caches.empty()) {
      CacheStats Total;
      for (const auto &[Dir, C] : Caches) {
        CacheStats S = C->stats();
        Total.Hits += S.Hits;
        Total.Misses += S.Misses;
        Total.Invalidated += S.Invalidated;
        Total.Corrupt += S.Corrupt;
        Total.Stores += S.Stores;
      }
      std::fprintf(stderr,
                   "anek: cache: %u hit(s), %u miss(es), %u invalidated, "
                   "%u corrupt, %u store(s) across %zu director%s\n",
                   Total.Hits, Total.Misses, Total.Invalidated, Total.Corrupt,
                   Total.Stores, Caches.size(),
                   Caches.size() == 1 ? "y" : "ies");
    }
  }
  std::fprintf(stderr,
               "anek: batch: %zu request(s): %u ok, %u degraded, %u failed, "
               "%u timeout, %u shed%s\n",
               Results.size(),
               Counts[static_cast<unsigned>(serve::TerminalState::Ok)],
               Counts[static_cast<unsigned>(serve::TerminalState::Degraded)],
               Counts[static_cast<unsigned>(serve::TerminalState::Failed)],
               Counts[static_cast<unsigned>(serve::TerminalState::Timeout)],
               Counts[static_cast<unsigned>(serve::TerminalState::Shed)],
               Runner.drainRequested() ? " (drained)" : "");
  bool AllOk = Counts[static_cast<unsigned>(serve::TerminalState::Ok)] ==
               Results.size();
  return AllOk ? ExitOk : ExitDiagnostics;
}

int run(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  if (Args.empty()) {
    usage();
    return ExitUsage;
  }
  // --kernel-backend selects the process-wide solver SIMD dispatch
  // (scalar|avx2|neon|auto), so it applies to every command; handle and
  // strip it before command parsing.
  for (size_t I = 0; I < Args.size();) {
    std::string Value;
    size_t Start = I;
    if (flagValue(Args, I, "--kernel-backend", Value)) {
      if (Status S = kern::setKernelBackend(Value); !S) {
        std::fprintf(stderr, "anek: %s\n", S.str().c_str());
        return ExitUsage;
      }
      Args.erase(Args.begin() + Start, Args.begin() + I + 1);
      I = Start;
    } else {
      ++I;
    }
  }
  if (Args.empty()) {
    usage();
    return ExitUsage;
  }
  std::string Command = Args[0];
  if (Command == "faults") {
    printFaultTable();
    return ExitOk;
  }
  if (Command == "batch")
    return runBatch(Args);
  if (Command == "report")
    return runReport(Args);
  if (Command != "infer" && Command != "check" && Command != "verify" &&
      Command != "pfg" && Command != "ir") {
    std::fprintf(stderr, "anek: unknown command '%s'\n", Command.c_str());
    usage();
    return ExitUsage;
  }
  std::string Input;
  bool IsExample = false;
  bool WantDot = false;
  bool WantReport = false;
  // 0 = auto (one worker per hardware thread); the schedule makes every
  // value produce byte-identical output, so auto is a safe default.
  unsigned Jobs = 0;
  // Summary-cache directory (infer/verify); empty = no caching.
  std::string CacheDir;
  std::string MethodFilter;
  TelemetryFlusher Telemetry;
  bool HaveTraceLevel = false;
  for (size_t I = 1; I < Args.size(); ++I) {
    std::string Value;
    if (flagValue(Args, I, "--trace", Value)) {
      Telemetry.TracePath = expandPathTemplate(Value);
      continue;
    }
    if (flagValue(Args, I, "--metrics", Value)) {
      Telemetry.MetricsPath = expandPathTemplate(Value);
      continue;
    }
    if (flagValue(Args, I, "--trace-level", Value)) {
      telemetry::TraceLevel Level;
      if (!telemetry::parseTraceLevel(Value, Level)) {
        std::fprintf(stderr,
                     "anek: bad trace level '%s' "
                     "(want off|phase|method|solver)\n",
                     Value.c_str());
        return ExitUsage;
      }
      telemetry::setTraceLevel(Level);
      HaveTraceLevel = true;
      continue;
    }
    if (Args[I] == "--example" && I + 1 < Args.size()) {
      IsExample = true;
      Input = Args[++I];
    } else if (Args[I] == "--dot") {
      WantDot = true;
    } else if (Args[I] == "--report") {
      WantReport = true;
    } else if (flagValue(Args, I, "--jobs", Value) ||
               flagValue(Args, I, "-j", Value) ||
               (Args[I].compare(0, 2, "-j") == 0 &&
                !(Value = Args[I].substr(2)).empty())) {
      // "--jobs N", "--jobs=N", "-j N" or the joined "-jN".
      if (!parseUnsigned(Value, Jobs) || Jobs == 0) {
        std::fprintf(stderr, "anek: bad thread count '%s' (want N >= 1)\n",
                     Value.c_str());
        return ExitUsage;
      }
    } else if (flagValue(Args, I, "--cache", Value)) {
      if (Value.empty()) {
        std::fprintf(stderr, "anek: empty cache directory\n");
        return ExitUsage;
      }
      CacheDir = Value;
    } else if (Args[I] == "--method" && I + 1 < Args.size()) {
      MethodFilter = Args[++I];
    } else if (flagValue(Args, I, "--fault", Value)) {
      if (Value == "list") {
        printFaultTable();
        return ExitOk;
      }
      if (Status S = faults::activateSpec(Value); !S) {
        std::fprintf(stderr, "anek: %s\n", S.str().c_str());
        return ExitUsage;
      }
    } else if (!Args[I].empty() && Args[I][0] == '-') {
      std::fprintf(stderr, "anek: unknown flag '%s'\n", Args[I].c_str());
      usage();
      return ExitUsage;
    } else {
      Input = Args[I];
    }
  }
  // Requesting an output implies collection: default to the finest level
  // so --trace/--metrics alone capture everything. --trace-level still
  // wins (including an explicit "off" to measure the disabled cost).
  if (!HaveTraceLevel &&
      (!Telemetry.TracePath.empty() || !Telemetry.MetricsPath.empty()))
    telemetry::setTraceLevel(telemetry::TraceLevel::Solver);
  if (Input.empty()) {
    usage();
    return ExitUsage;
  }

  std::string Source;
  if (!loadSource(Input, IsExample, Source))
    return ExitDiagnostics;

  DiagnosticEngine Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  if (!Prog) {
    std::fputs(Diags.str().c_str(), stderr);
    return ExitDiagnostics;
  }
  if (Diags.warningCount())
    std::fputs(Diags.str().c_str(), stderr);
  Diags.clear();

  auto ForEachMethod = [&](auto &&Fn) {
    for (MethodDecl *M : Prog->methodsWithBodies())
      if (MethodFilter.empty() || M->Name == MethodFilter ||
          M->qualifiedName() == MethodFilter)
        Fn(M);
  };

  if (Command == "ir") {
    ForEachMethod([&](MethodDecl *M) {
      std::printf("=== %s\n%s\n", M->qualifiedName().c_str(),
                  lowerToIr(*M).str().c_str());
    });
    return ExitOk;
  }

  if (Command == "pfg") {
    ForEachMethod([&](MethodDecl *M) {
      MethodIr Ir = lowerToIr(*M);
      Pfg G = buildPfg(Ir);
      if (WantDot)
        std::printf("// %s\n%s\n", M->qualifiedName().c_str(),
                    G.dot().c_str());
      else
        std::printf("%s\n", G.str().c_str());
    });
    return ExitOk;
  }

  if (Command == "check") {
    CheckResult Result = runChecker(*Prog, declaredSpecsOnly());
    for (const CheckWarning &W : Result.Warnings)
      std::printf("%s: warning: %s\n", W.Loc.str().c_str(),
                  W.Message.c_str());
    std::printf("%u warning(s) across %u method(s)\n", Result.warningCount(),
                Result.MethodsChecked);
    return ExitOk;
  }

  if (Command == "infer" || Command == "verify") {
    InferOptions InferOpts;
    InferOpts.Parallelism = Jobs;
    // --cache DIR: memoize solves in DIR. Caching never changes stdout
    // (a warm run is byte-identical to a cold -j1 run — see DESIGN.md);
    // the accounting goes to stderr below.
    std::unique_ptr<cache::SummaryCache> Cache;
    if (!CacheDir.empty()) {
      Cache = std::make_unique<cache::SummaryCache>(CacheDir);
      InferOpts.Cache = Cache.get();
    }
    InferResult Inference = runAnekInfer(*Prog, InferOpts, &Diags);
    if (Cache) {
      const CacheStats &C = Inference.Cache;
      std::fprintf(stderr,
                   "anek: cache: %u hit(s), %u miss(es), %u invalidated, "
                   "%u corrupt, %u store(s)\n",
                   C.Hits, C.Misses, C.Invalidated, C.Corrupt, C.Stores);
    }
    if (Diags.all().size())
      std::fputs(Diags.str().c_str(), stderr);
    int Exit = Diags.hasErrors() ? ExitDiagnostics : ExitOk;
    if (Command == "infer") {
      PrintOptions Opts;
      Opts.SpecFor = [&](const MethodDecl &M) {
        return *Inference.specFor(&M);
      };
      std::printf("%s", printProgram(*Prog, Opts).c_str());
      if (WantReport)
        printReports(Inference);
      std::printf("// inferred %u spec(s) over %u method(s), "
                  "%u worklist picks, %.3fs solving",
                  Inference.inferredAnnotationCount(),
                  Inference.MethodsAnalyzed, Inference.WorklistPicks,
                  Inference.SolveSeconds);
      if (Inference.FallbackSolves || Inference.MethodsFailed)
        std::printf(", %u fallback solve(s), %u method(s) failed",
                    Inference.FallbackSolves, Inference.MethodsFailed);
      std::printf("\n");
      return Exit;
    }
    SpecProvider Specs = [&](const MethodDecl *M) {
      return Inference.specFor(M);
    };
    CheckResult Result = runChecker(*Prog, Specs);
    for (const CheckWarning &W : Result.Warnings)
      std::printf("%s: warning: %s\n", W.Loc.str().c_str(),
                  W.Message.c_str());
    if (WantReport)
      printReports(Inference);
    std::printf("inferred %u spec(s); %u warning(s) across %u method(s)\n",
                Inference.inferredAnnotationCount(), Result.warningCount(),
                Result.MethodsChecked);
    return Exit;
  }

  usage();
  return ExitUsage;
}

} // namespace

int main(int Argc, char **Argv) {
  // The driver contract: internal failures are reported, never aborted
  // through. Exit code 3 tells scripts "bug in anek", distinct from
  // "bad input" (1) and "bad invocation" (2).
  try {
    return run(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "anek: internal error: %s\n", E.what());
    return ExitInternal;
  } catch (...) {
    std::fputs("anek: internal error: unknown exception\n", stderr);
    return ExitInternal;
  }
}
