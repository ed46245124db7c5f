//===- report_test.cpp - The `anek report` run profiler --------------------===//
//
// The profiler suite (DESIGN.md, "Telemetry"): `anek report` digests
// whatever artifact subset a run left behind — an anek-trace-v1 Chrome
// trace, an anek-metrics-v1 snapshot, an anek-batch-v1 JSONL stream —
// into one profile. The contracts under test: missing artifacts degrade
// sections (never fail), malformed artifacts are hard errors (never a
// silently wrong profile), and the JSON rendering is a parseable
// anek-report-v1 document.
//
//===----------------------------------------------------------------------===//

#include "report/Report.h"
#include "support/Json.h"

#include <gtest/gtest.h>
#include <string>

using namespace anek;

namespace {

/// A hand-built anek-trace-v1 document: a lane-name metadata event (not a
/// timed event), two phases (one with a nested child), and an instant.
std::string sampleTrace() {
  return R"({
  "otherData": {"schema": "anek-trace-v1"},
  "displayTimeUnit": "ms",
  "traceEvents": [
    {"name": "process_name", "ph": "M", "pid": 1,
     "args": {"name": "anek"}},
    {"name": "frontend.parse", "cat": "anek", "ph": "X", "pid": 1, "tid": 0,
     "ts": 0, "dur": 100, "args": {"depth": 0}},
    {"name": "infer.run", "cat": "anek", "ph": "X", "pid": 1, "tid": 0,
     "ts": 100, "dur": 2000, "args": {"depth": 0}},
    {"name": "solver.bp", "cat": "solver", "ph": "X", "pid": 1, "tid": 0,
     "ts": 200, "dur": 1500, "args": {"depth": 1}},
    {"name": "infer.fast_forward", "cat": "infer", "ph": "i", "pid": 1,
     "tid": 0, "ts": 900, "args": {"depth": 1, "periods": 3}}
  ]
})";
}

/// A hand-built anek-metrics-v1 document.
std::string sampleMetrics() {
  return R"({
  "schema": "anek-metrics-v1",
  "counters": {
    "cache.hit": 3,
    "cache.miss": 1
  },
  "gauges": {"solver.bp.residual": 0.001},
  "histograms": {
    "infer.queue_wait_us": {"count": 4, "sum": 1000.0, "min": 100.0,
      "max": 400.0, "mean": 250.0, "p50": 200.0, "p95": 390.0, "p99": 400.0},
    "infer.method_run_us": {"count": 4, "sum": 2000.0, "min": 300.0,
      "max": 900.0, "mean": 500.0, "p50": 450.0, "p95": 880.0, "p99": 900.0}
  }
})";
}

/// Two anek-batch-v1 JSONL rows, deliberately out of index order (a -jN
/// batch completes out of order; the table must not).
std::string sampleBatch() {
  return
      R"json({"schema": "anek-batch-v1", "index": 1, "id": "slow", "state": "degraded", "attempts": 2, "seconds": 1.5, "queue_seconds": 0.25, "peak_bytes": 1024, "cache_hits": 0, "cache_misses": 2, "reason": "1 method(s) failed, 0 fallback solve(s)"})json"
      "\n"
      R"({"schema": "anek-batch-v1", "index": 0, "id": "fast", "state": "ok", "attempts": 1, "seconds": 0.5, "queue_seconds": 0.0, "peak_bytes": 512, "cache_hits": 2, "cache_misses": 0, "reason": ""})"
      "\n";
}

TEST(ReportTest, DigestsTraceIntoPhasesAndSpans) {
  Expected<report::Profile> P = report::profileFromText(sampleTrace(), "", "");
  ASSERT_TRUE(P.hasValue()) << P.status().str();
  EXPECT_TRUE(P->HasTrace);
  EXPECT_FALSE(P->HasMetrics);
  EXPECT_FALSE(P->HasBatch);

  // The metadata event is not counted; the instant and three spans are.
  EXPECT_EQ(P->TraceEvents, 4u);
  // Phases are the depth-0 spans; the nested solver.bp is a span only.
  ASSERT_EQ(P->Phases.size(), 2u);
  EXPECT_EQ(P->Phases[0].Name, "infer.run"); // Ordered by total time.
  EXPECT_EQ(P->Phases[0].TotalUs, 2000);
  EXPECT_EQ(P->Phases[1].Name, "frontend.parse");
  ASSERT_EQ(P->Spans.size(), 3u);
  EXPECT_EQ(P->Spans[0].Name, "infer.run");
  EXPECT_EQ(P->Spans[1].Name, "solver.bp");
  // First span starts at ts 0, the latest end is infer.run at 100+2000.
  EXPECT_EQ(P->TraceSpanUs, 2100);
}

TEST(ReportTest, DigestsMetricsIntoAggregates) {
  Expected<report::Profile> P =
      report::profileFromText("", sampleMetrics(), "");
  ASSERT_TRUE(P.hasValue()) << P.status().str();
  EXPECT_TRUE(P->HasMetrics);
  EXPECT_FALSE(P->HasTrace);

  // Hit rate 3 / (3 + 1); queue-wait and method-run are histogram sums.
  EXPECT_NEAR(P->CacheHitRate, 0.75, 1e-12);
  EXPECT_EQ(P->QueueWaitUs, 1000u);
  EXPECT_EQ(P->MethodRunUs, 2000u);

  const report::Profile::HistRow &H =
      P->Histograms.at("infer.method_run_us");
  EXPECT_EQ(H.Count, 4u);
  EXPECT_DOUBLE_EQ(H.Sum, 2000.0);
  EXPECT_DOUBLE_EQ(H.P50, 450.0);
  EXPECT_DOUBLE_EQ(H.P95, 880.0);
  EXPECT_DOUBLE_EQ(H.P99, 900.0);
}

TEST(ReportTest, DigestsBatchRowsSortedByIndex) {
  Expected<report::Profile> P = report::profileFromText("", "", sampleBatch());
  ASSERT_TRUE(P.hasValue()) << P.status().str();
  EXPECT_TRUE(P->HasBatch);

  ASSERT_EQ(P->Requests.size(), 2u);
  EXPECT_EQ(P->Requests[0].Id, "fast"); // Re-sorted by index.
  EXPECT_EQ(P->Requests[1].Id, "slow");
  EXPECT_EQ(P->Requests[1].State, "degraded");
  EXPECT_EQ(P->Requests[1].Attempts, 2u);
  EXPECT_EQ(P->Requests[1].Reason, "1 method(s) failed, 0 fallback solve(s)");
  EXPECT_EQ(P->StateCounts.at("ok"), 1u);
  EXPECT_EQ(P->StateCounts.at("degraded"), 1u);
  EXPECT_DOUBLE_EQ(P->BatchSeconds, 2.0);
  EXPECT_DOUBLE_EQ(P->BatchQueueSeconds, 0.25);
  EXPECT_EQ(P->BatchCacheHits, 2u);
  EXPECT_EQ(P->BatchCacheMisses, 2u);
}

TEST(ReportTest, MissingArtifactsDegradeButNothingAtAllIsAnError) {
  // Any subset profiles; the all-empty call is the one hard usage error.
  EXPECT_TRUE(report::profileFromText(sampleTrace(), "", "").hasValue());
  EXPECT_TRUE(report::profileFromText("", sampleMetrics(), "").hasValue());
  EXPECT_TRUE(report::profileFromText("", "", sampleBatch()).hasValue());
  Expected<report::Profile> None = report::profileFromText("", "", "");
  ASSERT_FALSE(None.hasValue());
  EXPECT_EQ(None.status().code(), ErrorCode::InvalidArgument);
}

TEST(ReportTest, MalformedArtifactsAreHardErrors) {
  struct Case {
    const char *Name;
    std::string Trace, Metrics, Batch;
  } Cases[] = {
      {"truncated trace JSON", "{\"traceEvents\": [", "", ""},
      {"trace without traceEvents", "{\"otherData\": {}}", "", ""},
      {"metrics with the wrong schema",
       "", R"({"schema": "anek-metrics-v0", "counters": {}})", ""},
      {"metrics that are not JSON", "", "counters: 3", ""},
      {"batch line that is not JSON", "", "", "{\"schema\":\n"},
      {"batch line with the wrong schema", "", "",
       R"({"schema": "anek-trace-v1"})" "\n"},
  };
  for (const Case &C : Cases) {
    Expected<report::Profile> P =
        report::profileFromText(C.Trace, C.Metrics, C.Batch);
    ASSERT_FALSE(P.hasValue()) << C.Name;
    EXPECT_EQ(P.status().code(), ErrorCode::InvalidArgument)
        << C.Name << ": " << P.status().str();
  }
}

TEST(ReportTest, RenderJsonIsParseableAnekReportV1) {
  Expected<report::Profile> P = report::profileFromText(
      sampleTrace(), sampleMetrics(), sampleBatch());
  ASSERT_TRUE(P.hasValue()) << P.status().str();
  std::string Json = report::renderJson(*P);

  json::Value Doc;
  std::string Error;
  ASSERT_TRUE(json::parse(Json, Doc, &Error)) << Error;
  EXPECT_EQ(Doc.at("schema").str(), "anek-report-v1");

  const json::Value &Trace = Doc.at("trace");
  EXPECT_EQ(Trace.at("events").num(), 4.0);
  EXPECT_EQ(Trace.at("span_us").num(), 2100.0);
  EXPECT_EQ(Trace.at("phases").Items.size(), 2u);
  EXPECT_EQ(Trace.at("top_spans").Items[0].at("name").str(), "infer.run");

  const json::Value &Metrics = Doc.at("metrics");
  EXPECT_NEAR(Metrics.at("cache_hit_rate").num(), 0.75, 1e-9);
  EXPECT_EQ(Metrics.at("queue_wait_us").num(), 1000.0);
  EXPECT_EQ(Metrics.at("histograms")
                .at("infer.method_run_us")
                .at("p95")
                .num(),
            880.0);

  const json::Value &Batch = Doc.at("batch");
  EXPECT_EQ(Batch.at("requests").num(), 2.0);
  EXPECT_EQ(Batch.at("states").at("degraded").num(), 1.0);
  ASSERT_EQ(Batch.at("rows").Items.size(), 2u);
  EXPECT_EQ(Batch.at("rows").Items[0].at("id").str(), "fast");
  EXPECT_EQ(Batch.at("rows").Items[1].at("reason").str(),
            "1 method(s) failed, 0 fallback solve(s)");
}

TEST(ReportTest, RenderTextShowsEverySectionAndHonorsTopK) {
  Expected<report::Profile> P = report::profileFromText(
      sampleTrace(), sampleMetrics(), sampleBatch());
  ASSERT_TRUE(P.hasValue()) << P.status().str();

  std::string Text = report::renderText(*P);
  EXPECT_NE(Text.find("anek run profile"), std::string::npos);
  EXPECT_NE(Text.find("phases (top-level spans)"), std::string::npos);
  EXPECT_NE(Text.find("infer.run"), std::string::npos);
  EXPECT_NE(Text.find("cache hit rate"), std::string::npos);
  EXPECT_NE(Text.find("queue-wait vs solve"), std::string::npos);
  EXPECT_NE(Text.find("1 method(s) failed"), std::string::npos);

  // TopK truncates the span table: with K=1 only the heaviest span
  // (infer.run) survives; solver.bp falls out.
  std::string Short = report::renderText(*P, /*TopK=*/1);
  EXPECT_NE(Short.find("top 1 spans"), std::string::npos);
  EXPECT_EQ(Short.find("solver.bp"), std::string::npos);
}

} // namespace
