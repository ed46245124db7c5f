//===- soak_test.cpp - Chaos-soak invariants for the serving layer ---------===//
//
// Runs the in-process chaos soak (src/serve/Soak.h) at test-sized
// request counts and checks its invariants hold: every request terminal,
// contracted fault outcomes, same-seed reproducibility, and the
// byte-identity of non-faulted batch output against the sequential
// `anek infer` driver. Labeled "serve;parallel" so the TSan preset
// (`ctest -L parallel` under -DANEK_SANITIZE=thread) covers the serving
// workers, queue, and memory governor.
//
//===----------------------------------------------------------------------===//

#include "serve/BatchRunner.h"
#include "serve/Soak.h"
#include "support/FaultInject.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace anek;
using namespace anek::serve;

namespace {

namespace fs = std::filesystem;

int runTool(const std::string &ArgLine, std::string *Output = nullptr) {
  fs::path Capture =
      fs::temp_directory_path() /
      ("anek_soak_test_" + std::to_string(::getpid()) + ".out");
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
    return -1;
  return WEXITSTATUS(RawStatus);
}

class SoakTest : public testing::Test {
protected:
  void SetUp() override { faults::reset(); }
  void TearDown() override { faults::reset(); }
};

TEST_F(SoakTest, SoakHoldsAllInvariantsUnderRandomizedChaos) {
  SoakConfig Cfg;
  Cfg.Requests = 120;
  Cfg.Workers = 4;
  Cfg.Seed = 20260806;
  Cfg.FaultRate = 0.5;
  Cfg.QueueCap = 16;
  SoakReport Report = runSoak(Cfg);
  EXPECT_TRUE(Report.passed());
  for (const std::string &V : Report.Violations)
    ADD_FAILURE() << V;
  ASSERT_EQ(Report.Results.size(), 120u);
  unsigned Total = 0;
  for (unsigned Count : Report.StateCounts)
    Total += Count;
  EXPECT_EQ(Total, 120u); // Every request reached exactly one terminal.
  // With a 0.5 fault rate over four chaos modes, each contracted outcome
  // should appear; a soak where no fault ever fired tests nothing.
  EXPECT_GT(Report.StateCounts[static_cast<unsigned>(TerminalState::Failed)],
            0u);
  EXPECT_GT(Report.StateCounts[static_cast<unsigned>(TerminalState::Timeout)],
            0u);
  EXPECT_GT(Report.StateCounts[static_cast<unsigned>(TerminalState::Shed)],
            0u);
}

TEST_F(SoakTest, SoakIsReproducibleAcrossRuns) {
  SoakConfig Cfg;
  Cfg.Requests = 80;
  Cfg.Workers = 4;
  Cfg.Seed = 7;
  Cfg.FaultRate = 0.4;
  SoakReport First = runSoak(Cfg);
  faults::reset(); // Activations persist past a run; isolate the rerun.
  SoakReport Second = runSoak(Cfg);
  EXPECT_TRUE(First.passed());
  EXPECT_TRUE(Second.passed());
  ASSERT_EQ(First.Results.size(), Second.Results.size());
  for (size_t I = 0; I < First.Results.size(); ++I) {
    EXPECT_EQ(First.Results[I].State, Second.Results[I].State) << "req " << I;
    EXPECT_EQ(First.Results[I].Attempts, Second.Results[I].Attempts)
        << "req " << I;
    EXPECT_EQ(First.Results[I].Output, Second.Results[I].Output)
        << "req " << I;
    EXPECT_EQ(First.Results[I].SpecCount, Second.Results[I].SpecCount)
        << "req " << I;
  }
}

TEST_F(SoakTest, SoakIsCleanAtZeroFaultRate) {
  SoakConfig Cfg;
  Cfg.Requests = 30;
  Cfg.Workers = 4;
  Cfg.Seed = 3;
  Cfg.FaultRate = 0.0;
  SoakReport Report = runSoak(Cfg);
  EXPECT_TRUE(Report.passed());
  for (const std::string &V : Report.Violations)
    ADD_FAILURE() << V;
  unsigned Clean =
      Report.StateCounts[static_cast<unsigned>(TerminalState::Ok)] +
      Report.StateCounts[static_cast<unsigned>(TerminalState::Degraded)];
  EXPECT_EQ(Clean, 30u);
}

TEST_F(SoakTest, BatchOutputMatchesSequentialInferDriver) {
  // The serving layer's determinism contract: a clean batch request's
  // program text is byte-identical to what `anek infer` prints for the
  // same input (minus the trailing "// inferred ..." stat line).
  const char *Names[] = {"spreadsheet", "file", "field"};
  std::vector<BatchRequest> Requests;
  for (unsigned I = 0; I < 3; ++I) {
    BatchRequest R;
    R.Index = I;
    R.Id = "cmp" + std::to_string(I);
    R.Input = std::string("example:") + Names[I];
    Requests.push_back(R);
  }
  BatchOptions Opts;
  Opts.Workers = 3;
  BatchRunner Runner(Opts);
  std::vector<BatchResult> Results = Runner.run(std::move(Requests));
  ASSERT_EQ(Results.size(), 3u);

  for (unsigned I = 0; I < 3; ++I) {
    std::string ToolOutput;
    int Exit = runTool(std::string("infer --example ") + Names[I] + " -j 1",
                       &ToolOutput);
    ASSERT_EQ(Exit, 0) << ToolOutput;
    // Strip the "// inferred ..." trailer line the driver appends.
    size_t Trailer = ToolOutput.rfind("// inferred ");
    ASSERT_NE(Trailer, std::string::npos) << ToolOutput;
    std::string Program = ToolOutput.substr(0, Trailer);
    EXPECT_EQ(Results[I].Output, Program) << Names[I];
    EXPECT_TRUE(Results[I].State == TerminalState::Ok ||
                Results[I].State == TerminalState::Degraded);
  }
}

} // namespace
