//===- anek_soak.cpp - Chaos-soak driver for the serving layer -------------===//
//
// Part of the ANEK reproduction. See README.md.
//
// Usage:
//   anek_soak [--requests N] [--workers N] [--seed N] [--fault-rate F]
//             [--queue-cap N] [--out FILE]
//
// Drives N batch requests over the built-in examples with randomized,
// request-scoped faults and checks the serving invariants (see
// src/serve/Soak.h). --out writes the per-request JSONL stream for
// inspection.
//
// Exit codes: 0 = every invariant held, 1 = violations (printed to
// stderr), 2 = usage error, 3 = crash (the soak's no-crash invariant
// failed by definition).
//
//===----------------------------------------------------------------------===//

#include "serve/Soak.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

using namespace anek;

namespace {

int runServeSoak(const serve::SoakConfig &Cfg, const std::string &OutPath) {
  serve::SoakReport Report = serve::runSoak(Cfg);

  if (!OutPath.empty()) {
    std::ofstream Out(OutPath);
    if (!Out) {
      std::fprintf(stderr, "anek_soak: cannot write '%s'\n", OutPath.c_str());
      return 2;
    }
    for (const serve::BatchResult &Res : Report.Results)
      Out << Res.jsonLine() << '\n';
  }

  std::fprintf(stderr,
               "anek_soak: %zu request(s): %u ok, %u degraded, %u failed, "
               "%u timeout, %u shed; %zu violation(s)\n",
               Report.Results.size(),
               Report.StateCounts[static_cast<unsigned>(
                   serve::TerminalState::Ok)],
               Report.StateCounts[static_cast<unsigned>(
                   serve::TerminalState::Degraded)],
               Report.StateCounts[static_cast<unsigned>(
                   serve::TerminalState::Failed)],
               Report.StateCounts[static_cast<unsigned>(
                   serve::TerminalState::Timeout)],
               Report.StateCounts[static_cast<unsigned>(
                   serve::TerminalState::Shed)],
               Report.Violations.size());
  for (const std::string &V : Report.Violations)
    std::fprintf(stderr, "anek_soak: violation: %s\n", V.c_str());
  return Report.passed() ? 0 : 1;
}

int runSoakTool(int Argc, char **Argv) {
  serve::SoakConfig Cfg;
  std::string OutPath;
  std::vector<std::string> Args(Argv + 1, Argv + Argc);
  for (size_t I = 0; I < Args.size(); ++I) {
    auto Next = [&](const char *Flag) -> const std::string * {
      if (Args[I] != Flag)
        return nullptr;
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr, "anek_soak: %s needs a value\n", Flag);
        return nullptr;
      }
      return &Args[++I];
    };
    if (const std::string *V = Next("--requests")) {
      Cfg.Requests = static_cast<unsigned>(std::strtoul(V->c_str(), nullptr, 10));
    } else if (const std::string *V = Next("--workers")) {
      Cfg.Workers = static_cast<unsigned>(std::strtoul(V->c_str(), nullptr, 10));
    } else if (const std::string *V = Next("--seed")) {
      Cfg.Seed = std::strtoull(V->c_str(), nullptr, 10);
    } else if (const std::string *V = Next("--fault-rate")) {
      Cfg.FaultRate = std::strtod(V->c_str(), nullptr);
    } else if (const std::string *V = Next("--queue-cap")) {
      Cfg.QueueCap = std::strtoul(V->c_str(), nullptr, 10);
    } else if (const std::string *V = Next("--out")) {
      OutPath = *V;
    } else {
      std::fprintf(stderr, "anek_soak: unknown argument '%s'\n",
                   Args[I].c_str());
      return 2;
    }
  }
  if (Cfg.Requests == 0 || Cfg.Workers == 0 || Cfg.FaultRate < 0.0 ||
      Cfg.FaultRate > 1.0) {
    std::fputs("anek_soak: want --requests >= 1, --workers >= 1, "
               "--fault-rate in [0,1]\n",
               stderr);
    return 2;
  }
  return runServeSoak(Cfg, OutPath);
}

} // namespace

int main(int Argc, char **Argv) {
  try {
    return runSoakTool(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "anek_soak: internal error: %s\n", E.what());
    return 3;
  } catch (...) {
    std::fputs("anek_soak: internal error: unknown exception\n", stderr);
    return 3;
  }
}
