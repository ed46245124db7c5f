//===- bench_serve_throughput.cpp - Serving-layer throughput under load ----===//
//
// Measures the `anek batch` serving layer at saturation: a flood of
// requests over the built-in examples is offered with non-blocking
// admission (ShedWhenFull, the load-test mode of the RequestQueue) at
// several queue capacities, and the bench records sustained throughput
// (completed requests per second), the shed rate, and per-request latency
// quantiles (p50/p99 of queue wait + execution — the full in-system time
// of a completed request). The queue-cap sweep shows the admission-control
// trade the serving model makes explicit: a small queue bounds memory and
// tail latency by shedding aggressively, a large one trades latency for
// acceptance (DESIGN.md, "Serving model").
//
// Writes bench_serve_throughput.json with one record per queue cap.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "serve/BatchRunner.h"
#include "support/FaultInject.h"
#include "support/Timer.h"

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

using namespace anek;
using namespace anek::serve;

namespace {

struct Sample {
  size_t QueueCap = 0;
  unsigned Offered = 0;
  unsigned Completed = 0; ///< Reached ok/degraded.
  unsigned Shed = 0;
  double Seconds = 0.0;
  double LatencyP50 = 0.0; ///< Queue wait + execution, completed requests.
  double LatencyP99 = 0.0;

  double requestsPerSec() const {
    return Seconds > 0.0 ? Completed / Seconds : 0.0;
  }
  double shedRate() const {
    return Offered ? static_cast<double>(Shed) / Offered : 0.0;
  }
};

/// Nearest-rank quantile over an unsorted latency sample (sorts a copy).
double quantile(std::vector<double> Xs, double Q) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  size_t Rank = static_cast<size_t>(Q * static_cast<double>(Xs.size() - 1));
  return Xs[Rank];
}

Sample floodOnce(size_t QueueCap, unsigned Offered, unsigned Workers) {
  const char *Examples[] = {"file", "field", "spreadsheet"};
  std::vector<BatchRequest> Requests(Offered);
  for (unsigned I = 0; I < Offered; ++I) {
    Requests[I].Index = I;
    Requests[I].Id = "flood" + std::to_string(I);
    Requests[I].Input =
        std::string("example:") + Examples[I % (sizeof(Examples) /
                                                sizeof(Examples[0]))];
  }

  BatchOptions Opts;
  Opts.Workers = Workers;
  Opts.QueueCap = QueueCap;
  Opts.ShedWhenFull = true; // Load-test admission: full queue sheds.
  BatchRunner Runner(Opts);

  Sample S;
  S.QueueCap = QueueCap;
  S.Offered = Offered;
  Timer Clock;
  std::vector<BatchResult> Results = Runner.run(std::move(Requests));
  S.Seconds = Clock.seconds();
  std::vector<double> Latencies;
  Latencies.reserve(Results.size());
  for (const BatchResult &Res : Results) {
    if (Res.State == TerminalState::Ok ||
        Res.State == TerminalState::Degraded) {
      ++S.Completed;
      Latencies.push_back(Res.QueueSeconds + Res.Seconds);
    } else if (Res.State == TerminalState::Shed) {
      ++S.Shed;
    }
  }
  S.LatencyP50 = quantile(Latencies, 0.50);
  S.LatencyP99 = quantile(Latencies, 0.99);
  return S;
}

} // namespace

int main() {
  BenchTelemetry Telemetry("serve_throughput");
  const unsigned Offered = 600;
  const unsigned Workers = 4;

  std::puts("Serving throughput: non-blocking flood vs queue capacity");
  rule();
  std::printf("%9s %9s %10s %6s | %12s %9s %9s %9s\n", "queue-cap",
              "offered", "completed", "shed", "req/s", "shed-rate",
              "p50-ms", "p99-ms");
  rule();

  std::vector<Sample> Samples;
  for (size_t Cap : {8u, 64u, 512u}) {
    // Warm-up at the smallest cap amortizes first-touch costs (example
    // sources, solver tables) out of the measured sweep.
    if (Samples.empty())
      floodOnce(Cap, 60, Workers);
    Sample S = floodOnce(Cap, Offered, Workers);
    Samples.push_back(S);
    std::printf("%9zu %9u %10u %6u | %12.1f %9.3f %9.2f %9.2f\n",
                S.QueueCap, S.Offered, S.Completed, S.Shed,
                S.requestsPerSec(), S.shedRate(), S.LatencyP50 * 1e3,
                S.LatencyP99 * 1e3);
  }
  rule();

  std::ofstream Json("bench_serve_throughput.json");
  Json << "{\n  \"bench\": \"serve_throughput\",\n"
       << "  \"offered\": " << Offered << ",\n"
       << "  \"workers\": " << Workers << ",\n"
       << "  \"sweep\": [\n";
  for (size_t I = 0; I < Samples.size(); ++I) {
    const Sample &S = Samples[I];
    Json << "    {\"queue_cap\": " << S.QueueCap
         << ", \"completed\": " << S.Completed << ", \"shed\": " << S.Shed
         << ", \"seconds\": " << S.Seconds
         << ", \"requests_per_sec\": " << S.requestsPerSec()
         << ", \"shed_rate\": " << S.shedRate()
         << ", \"latency_p50\": " << S.LatencyP50
         << ", \"latency_p99\": " << S.LatencyP99 << "}"
         << (I + 1 < Samples.size() ? "," : "") << "\n";
  }
  Json << "  ]\n}\n";
  std::puts("Sweep written to bench_serve_throughput.json");
  return 0;
}
