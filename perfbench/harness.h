// Library-independent helpers of the repository benchmark: percentile and
// selection rules, the open-loop load generator, the in-memory span tracer
// and the result report. Nothing here links against silofuse, so the rules
// are unit-tested in isolation (harness_test.cc).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Statistics.

/// Linearly interpolated q-quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The percentile rule: of the ladder {0.5, 0.9, 0.95, 0.99, 0.999}, the
/// highest q not above `wanted` that leaves at least ten samples beyond it
/// (n * (1 - q) >= 10). When even the median is unsupported (n < 20) the
/// median is returned: it is the only summary such a sample allows.
double SupportedQuantile(size_t n, double wanted);

/// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a letter
/// or digit.
bool ValidMetricName(std::string_view name);

// ---------------------------------------------------------------------------
// Open-loop load generation.

/// Poisson arrival schedule: due offsets in seconds from the start, drawn
/// from `seed`, covering [0, seconds).
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double seconds);

/// Time source of the generator. Real runs use SteadyClock; tests script a
/// virtual clock so stalls are exact.
class LoadClock {
 public:
  virtual ~LoadClock() = default;
  /// Seconds since an arbitrary fixed origin.
  virtual double Now() = 0;
  virtual void SleepUntil(double t) = 0;
};

class SteadyClock : public LoadClock {
 public:
  double Now() override;
  void SleepUntil(double t) override;
};

/// One request's life on the generator: when it was due, when a sender
/// actually issued it and when it completed (all seconds from the run
/// start). Latency is charged from `due`, so a stall that delays a sender is
/// paid by every request queued behind it.
struct SendRecord {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool ok = false;
  double latency_ms() const { return (done - due) * 1e3; }
  double lateness_ms() const { return (sent - due) * 1e3; }
};

/// Issues request i at schedule[i] from a fixed pool of `senders` threads
/// (the caller's thread included when senders == 1). Senders claim requests
/// in due order; a busy pool makes later requests late, and that lateness
/// is part of their latency. `send(i)` performs request i and returns
/// whether it succeeded.
std::vector<SendRecord> RunOpenLoop(const std::vector<double>& schedule,
                                    int senders, LoadClock* clock,
                                    const std::function<bool(size_t)>& send);

/// Summary of one fixed rate of an open-loop sweep.
struct RateResult {
  double rate = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  double tail_q = 0.0;        // the percentile the sample supports
  double p50_ms = 0.0;        // latency from due time
  double tail_ms = 0.0;       // latency at tail_q; failures count as +inf
  double lateness_p50_ms = 0.0;
  double lateness_max_ms = 0.0;
  bool backlog_grows = false;
};

/// Folds the records of one rate into a RateResult. A failed request counts
/// as missing any limit: its latency is +inf. The backlog grows when the
/// median lateness of the last quarter of requests exceeds both
/// `backlog_slack_ms` and twice that of the first quarter.
RateResult SummarizeRate(double rate, const std::vector<SendRecord>& records,
                         double wanted_tail_q, double backlog_slack_ms);

/// True when `r` meets the latency limit with nothing failed and no growing
/// backlog.
bool RateOk(const RateResult& r, double limit_ms);

/// The highest rate of an ascending sweep that is ok and is preceded only by
/// ok rates; 0 when the lowest rate already fails.
double MaxOkRate(const std::vector<RateResult>& sweep, double limit_ms);

// ---------------------------------------------------------------------------
// Tracing: spans recorded in memory by the benchmark around its calls into
// each layer, written out as Chrome/Perfetto JSON at the end of the run.

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the span list, -1 for a root
  uint64_t request_id = 0;
  uint64_t thread = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing and costs one branch per span.
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  static int64_t NowNs();

  /// Opens a span as a child of the calling thread's innermost open span;
  /// returns its index, or -1 when disabled.
  int64_t Begin(std::string name, uint64_t request_id = 0);
  void End(int64_t index);

  /// Snapshot of all spans recorded so far.
  std::vector<Span> Spans() const;

  /// Chrome trace-event JSON ("X" events, microseconds, parent and request
  /// id in args).
  std::string ChromeJson() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on a Tracer (no-op when the tracer is disabled).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, uint64_t request_id = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

/// Self time of each span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per-name durations (ms) and self times (ms) of the recorded spans.
struct SpanStats {
  std::vector<double> total_ms;
  std::vector<double> self_ms;
};
std::map<std::string, SpanStats> StatsByName(const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Result report: the benchmark's last stdout line.

class Report {
 public:
  /// Records a metric; an invalid name or a non-finite value is recorded as
  /// a failed check instead of a metric.
  void Set(const std::string& name, double value, const std::string& unit);
  /// Adds `attempted` operations, `failed` of which failed.
  void Count(int64_t attempted, int64_t failed);
  /// A correctness check; a false `ok` is a failed operation and makes the
  /// whole result incorrect.
  void Check(const std::string& what, bool ok);

  bool correct() const { return failed_checks_ == 0 && failed_ == 0; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  /// with every value printed with all its digits.
  std::string Json() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t failed_checks_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
