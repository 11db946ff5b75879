// Unit tests of the benchmark's own rules: the percentile rule, due-time
// accounting, max_ok_rps selection, metric-name validation, span self time
// and the result line.

#include "harness.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {
namespace {

TEST(SupportedQuantile, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(SupportedQuantile(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(SupportedQuantile(999, 0.99), 0.95);
  EXPECT_DOUBLE_EQ(SupportedQuantile(200, 0.99), 0.95);
  EXPECT_DOUBLE_EQ(SupportedQuantile(199, 0.99), 0.9);
  EXPECT_DOUBLE_EQ(SupportedQuantile(100, 0.99), 0.9);
  EXPECT_DOUBLE_EQ(SupportedQuantile(99, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(SupportedQuantile(20, 0.99), 0.5);
  // Never above what was asked for, and the median when nothing is
  // supported.
  EXPECT_DOUBLE_EQ(SupportedQuantile(100000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(SupportedQuantile(100000, 0.999), 0.999);
  EXPECT_DOUBLE_EQ(SupportedQuantile(5, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(SupportedQuantile(0, 0.99), 0.5);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Median({5.0}), 5.0);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Quantile({1.0, inf}, 1.0), inf);
}

TEST(ValidMetricName, AcceptsOnlyTheContractAlphabet) {
  EXPECT_TRUE(ValidMetricName("latency_p99_ms"));
  EXPECT_TRUE(ValidMetricName("serve.cache.hit_ratio"));
  EXPECT_TRUE(ValidMetricName("tensor.peak_gflops.1t"));
  EXPECT_TRUE(ValidMetricName("9-lives"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/unit"));
  EXPECT_FALSE(ValidMetricName("quote\""));
  EXPECT_FALSE(ValidMetricName("caf\xc3\xa9"));
}

TEST(PoissonSchedule, DeterministicInItsSeed) {
  const auto a = PoissonSchedule(7, 100.0, 10.0);
  const auto b = PoissonSchedule(7, 100.0, 10.0);
  const auto c = PoissonSchedule(8, 100.0, 10.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NEAR(static_cast<double>(a.size()), 1000.0, 150.0);
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  EXPECT_LT(a.back(), 10.0);
}

// A scripted clock for one sender: sleeping jumps to the target, and each
// send advances time by its scripted service time.
class VirtualClock : public LoadClock {
 public:
  double Now() override { return now_; }
  void SleepUntil(double t) override { now_ = std::max(now_, t); }
  void Advance(double seconds) { now_ += seconds; }

 private:
  double now_ = 0.0;
};

TEST(RunOpenLoop, StallIsChargedToEveryRequestBehindIt) {
  // Due every 10 ms; service takes 1 ms except request 3, which stalls for
  // 50 ms. Requests 4..8 were due during the stall and pay for it.
  std::vector<double> schedule;
  for (int i = 1; i <= 10; ++i) schedule.push_back(0.010 * i);
  VirtualClock clock;
  const auto records = RunOpenLoop(schedule, 1, &clock, [&](size_t i) {
    clock.Advance(i == 3 ? 0.050 : 0.001);
    return true;
  });
  const double want_latency_ms[] = {1, 1, 1, 50, 41, 32, 23, 14, 5, 1};
  const double want_lateness_ms[] = {0, 0, 0, 0, 40, 31, 22, 13, 4, 0};
  ASSERT_EQ(records.size(), schedule.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_NEAR(records[i].latency_ms(), want_latency_ms[i], 1e-9) << i;
    EXPECT_NEAR(records[i].lateness_ms(), want_lateness_ms[i], 1e-9) << i;
    EXPECT_TRUE(records[i].ok);
  }
  // Timed from the actual send instead, request 4 would read 1 ms.
  EXPECT_NEAR((records[4].done - records[4].sent) * 1e3, 1.0, 1e-9);

  const RateResult r = SummarizeRate(100.0, records, 0.99, 10.0);
  EXPECT_EQ(r.attempted, 10);
  EXPECT_EQ(r.failed, 0);
  EXPECT_DOUBLE_EQ(r.tail_q, 0.5);  // ten samples support only the median
  EXPECT_NEAR(r.lateness_max_ms, 40.0, 1e-9);
  EXPECT_FALSE(r.backlog_grows);  // the stall drained before the end
}

TEST(RunOpenLoop, FixedSenderPoolSendsEachRequestOnce) {
  std::vector<double> schedule;
  for (int i = 0; i < 64; ++i) schedule.push_back(0.0005 * i);
  std::vector<std::atomic<int>> sends(schedule.size());
  SteadyClock clock;
  const auto records = RunOpenLoop(schedule, 3, &clock, [&](size_t i) {
    sends[i].fetch_add(1);
    return i % 2 == 0;
  });
  for (size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(sends[i].load(), 1) << i;
    EXPECT_EQ(records[i].ok, i % 2 == 0);
    EXPECT_GE(records[i].sent, records[i].due);
    EXPECT_GE(records[i].done, records[i].sent);
  }
}

std::vector<SendRecord> Steady(int n, double latency_s, double lateness_step) {
  std::vector<SendRecord> records;
  for (int i = 0; i < n; ++i) {
    SendRecord r;
    r.due = 0.01 * i;
    r.sent = r.due + lateness_step * i;
    r.done = r.sent + latency_s;
    r.ok = true;
    records.push_back(r);
  }
  return records;
}

TEST(SummarizeRate, FailuresMissTheLimitAndBacklogIsDetected) {
  auto records = Steady(400, 0.005, 0.0);
  RateResult r = SummarizeRate(100.0, records, 0.99, 10.0);
  EXPECT_DOUBLE_EQ(r.tail_q, 0.95);
  EXPECT_NEAR(r.p50_ms, 5.0, 1e-9);
  EXPECT_NEAR(r.tail_ms, 5.0, 1e-9);
  EXPECT_FALSE(r.backlog_grows);
  EXPECT_TRUE(RateOk(r, 10.0));
  EXPECT_FALSE(RateOk(r, 4.0));

  // 5% failed: the p95 lands on a failure, which counts as +inf.
  for (int i = 0; i < 20; ++i) records[static_cast<size_t>(i) * 20].ok = false;
  r = SummarizeRate(100.0, records, 0.99, 10.0);
  EXPECT_EQ(r.failed, 20);
  EXPECT_FALSE(RateOk(r, 1e9));

  // Lateness that keeps growing is a growing backlog even while the tail is
  // still within the limit.
  r = SummarizeRate(100.0, Steady(400, 0.001, 0.0001), 0.99, 10.0);
  EXPECT_TRUE(r.backlog_grows);
  EXPECT_FALSE(RateOk(r, 1e9));
}

RateResult Rate(double rate, double tail_ms, int64_t failed = 0,
                bool backlog = false) {
  RateResult r;
  r.rate = rate;
  r.attempted = 100;
  r.failed = failed;
  r.tail_ms = tail_ms;
  r.backlog_grows = backlog;
  return r;
}

TEST(MaxOkRate, HighestRateBeforeTheFirstMiss) {
  EXPECT_DOUBLE_EQ(MaxOkRate({Rate(80, 20), Rate(120, 30), Rate(180, 90)}, 50),
                   120);
  EXPECT_DOUBLE_EQ(MaxOkRate({Rate(80, 20), Rate(120, 30)}, 50), 120);
  // A miss ends the sweep: a later lucky rate does not count.
  EXPECT_DOUBLE_EQ(MaxOkRate({Rate(80, 20), Rate(120, 60), Rate(180, 30)}, 50),
                   80);
  EXPECT_DOUBLE_EQ(MaxOkRate({Rate(80, 60)}, 50), 0);
  EXPECT_DOUBLE_EQ(MaxOkRate({}, 50), 0);
  // Failures and a growing backlog miss regardless of latency.
  EXPECT_DOUBLE_EQ(MaxOkRate({Rate(80, 20), Rate(120, 30, 1)}, 50), 80);
  EXPECT_DOUBLE_EQ(MaxOkRate({Rate(80, 20), Rate(120, 30, 0, true)}, 50), 80);
}

TEST(SelfTimes, ChildCoverageIsCountedOnce) {
  std::vector<Span> spans(4);
  spans[0] = {"root", 0, 100, -1, 1, 1};
  spans[1] = {"a", 10, 30, 0, 1, 1};
  spans[2] = {"b", 20, 50, 0, 1, 1};   // overlaps a
  spans[3] = {"c", 90, 120, 0, 1, 1};  // runs past its parent's end
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
}

TEST(Tracer, NestsSpansAndInheritsTheRequestId) {
  Tracer tracer(true);
  {
    ScopedSpan outer(&tracer, "outer", 42);
    ScopedSpan inner(&tracer, "inner");
  }
  { ScopedSpan other(&tracer, "other"); }
  const auto spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request_id, 42u);
  EXPECT_EQ(spans[2].parent, -1);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  const auto stats = StatsByName(spans);
  EXPECT_EQ(stats.at("outer").total_ms.size(), 1u);
  const std::string json = tracer.ChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);

  Tracer off(false);
  { ScopedSpan span(&off, "ignored"); }
  EXPECT_TRUE(off.Spans().empty());
}

TEST(Report, PrintsTheResultLineAndRejectsBadMetrics) {
  Report report;
  report.Count(10, 0);
  report.Set("latency_ms", 1.25, "ms");
  report.Check("outputs match", true);
  EXPECT_TRUE(report.correct());
  EXPECT_EQ(report.attempted(), 11);
  EXPECT_EQ(report.Json(),
            "{\"correct\": true, \"attempted\": 11, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}}}");

  report.Set("bad name", 1.0, "ms");
  EXPECT_FALSE(report.Has("bad name"));
  EXPECT_FALSE(report.correct());

  Report nan;
  nan.Set("x", std::nan(""), "ms");
  EXPECT_FALSE(nan.Has("x"));
  EXPECT_FALSE(nan.correct());
}

}  // namespace
}  // namespace perfbench
