#ifndef SILOFUSE_OBS_METRICS_H_
#define SILOFUSE_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace silofuse {

struct Parameter;  // nn/module.h

namespace obs {

namespace health {
class TrainingMonitor;  // obs/health.h
}  // namespace health

/// Number of cache-line-padded shards behind every counter/histogram.
/// Writers are spread round-robin by thread, so concurrent increments from
/// the runtime pool do not bounce a single cache line; readers sum all
/// shards under no lock (relaxed atomics, merged at snapshot time).
inline constexpr int kMetricShards = 16;

namespace internal_metrics {
/// Stable per-thread shard index in [0, kMetricShards).
int ThreadShard();
}  // namespace internal_metrics

/// Validates a dotted metric name against the registry's naming grammar
/// (DESIGN.md §16): one or more non-empty segments of [a-z0-9_], separated
/// by single dots. The deployment segment — which carries a caller-chosen
/// name and is therefore allowed the wider [A-Za-z0-9_-] charset — may
/// appear ONLY in the two documented label positions:
///
///   serve.deploy.<deployment>.<rest...>
///   audit.<deployment>.<rest...>
///
/// The exposition endpoint (obs/expose.h) lifts exactly those positions
/// into a Prometheus `deployment` label, so a name that violates this
/// grammar either fails to scrape or mislabels a series. Registration
/// asserts it in debug builds.
bool MetricNameValid(const std::string& name);

/// Monotonically increasing event count (tasks executed, bytes sent, ...).
/// Add() is wait-free: one relaxed fetch_add on the caller's shard.
/// Negative deltas are permitted for reconciliation (Channel::Reset walks
/// back a resetting channel's contribution so the registry stays equal to
/// the sum of live channel state); ordinary instrumentation must only add.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t delta) {
    shards_[internal_metrics::ThreadShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Sum over all shards. May miss increments racing with the read.
  int64_t Value() const;

 private:
  friend class MetricsRegistry;
  void Reset();

  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  Shard shards_[kMetricShards];
};

/// Last-write-wins instantaneous value (current loss, queue depth, ...).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations v with
/// bounds[i-1] < v <= bounds[i]; one extra overflow bucket catches
/// v > bounds.back(). Observe() touches only the caller's shard.
class Histogram {
 public:
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts (size bounds().size() + 1, last = overflow).
  std::vector<int64_t> BucketCounts() const;
  int64_t TotalCount() const;
  double TotalSum() const;
  /// TotalSum / TotalCount, or 0 when empty.
  double Mean() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> bounds);
  void Reset();

  struct alignas(64) Shard {
    explicit Shard(size_t num_buckets);
    std::unique_ptr<std::atomic<int64_t>[]> buckets;
    std::atomic<int64_t> count{0};
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;  // strictly increasing upper bounds
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Point-in-time copy of one histogram, merged across shards.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<int64_t> bucket_counts;  // bounds.size() + 1 entries
  int64_t count = 0;
  double sum = 0.0;

  /// Estimated q-quantile (q in [0, 1]) by linear interpolation within the
  /// bucket containing the target rank. The first bucket interpolates from
  /// 0, and ranks landing in the overflow bucket return the largest bound
  /// (the histogram has no upper edge to interpolate toward). Returns 0
  /// for an empty histogram.
  double Quantile(double q) const;
};

/// Point-in-time copy of the whole registry.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Pretty-printed JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {bounds, counts, count, sum, mean}}}.
  std::string ToJson() const;
};

/// Process-wide named-metric registry. Registration (Get*) takes a mutex
/// once per call site; the returned handles are valid for the process
/// lifetime, so hot paths cache them in a function-local static and then
/// pay only the handle's relaxed atomics.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric registered under `name`, creating it on first use.
  /// Later GetHistogram calls with different bounds keep the first bounds.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric. Handles stay valid (tests only; racing
  /// writers may land increments on either side of the reset).
  void Reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Scoped telemetry for one minibatch training loop. Construct before the
/// loop, call Step() once per minibatch with the current (typically EMA)
/// losses; each (key, value) pair lands in gauge "<prefix>.<key>" and
/// counter "<prefix>.steps" advances. Destruction sets
/// "<prefix>.examples_per_sec" from the measured wall time, giving every
/// model's Fit the same per-epoch loss/throughput story for free.
///
/// WatchHealth() attaches the training-health watchdog (obs/health.h):
/// Step() then also feeds the reported losses through NaN/divergence
/// detection and walks the watched parameters every SILOFUSE_HEALTH_EVERY
/// steps, returning kFailedPrecondition when training has gone off the
/// rails — which is why Step() returns Status. Callers that never call
/// WatchHealth always get OK.
class TrainLoopTelemetry {
 public:
  TrainLoopTelemetry(const std::string& prefix, int batch_size);
  ~TrainLoopTelemetry();

  TrainLoopTelemetry(const TrainLoopTelemetry&) = delete;
  TrainLoopTelemetry& operator=(const TrainLoopTelemetry&) = delete;

  /// Registers parameters with the health monitor (created lazily from
  /// SILOFUSE_HEALTH* on first call). May be called once per silo with
  /// that silo's parameter group; `silo_id` >= 0 is named in metrics and
  /// abort messages. Pointers are borrowed and must outlive the loop.
  void WatchHealth(std::vector<Parameter*> params, int silo_id = -1);

  Status Step(std::initializer_list<std::pair<const char*, double>> values);

 private:
  std::string prefix_;
  int batch_size_;
  int64_t steps_ = 0;
  std::chrono::steady_clock::time_point start_;
  Counter* step_counter_;
  std::map<std::string, Gauge*> gauges_;  // lazily resolved per key
  std::unique_ptr<health::TrainingMonitor> monitor_;  // null until watched
};

/// Expands "%p" to the process id in a telemetry export path, so one
/// SILOFUSE_METRICS/SILOFUSE_TRACE value (e.g. "metrics_%p.json") serves a
/// whole parallel test run without the writers clobbering each other.
/// Applied by FlushTelemetry at write time.
std::string ExpandTelemetryPath(const std::string& path);

/// Writes MetricsRegistry::Global().Snapshot() as JSON to `path`.
Status WriteMetricsJson(const std::string& path);

/// Sets (or clears, with "") the path FlushTelemetry / process exit writes
/// the metrics snapshot to. SILOFUSE_METRICS provides the initial value.
void SetMetricsExportPath(const std::string& path);
std::string MetricsExportPath();

/// Scans argv for `--metrics-out=<path>` / `--metrics-out <path>` and
/// `--trace-out=<path>` / `--trace-out <path>`; a metrics path becomes the
/// export path, a trace path enables tracing. Recognized flags (and their
/// values) are removed from argv in place and the new argc is returned, so
/// mains can call this before their own positional/flag handling. Unrelated
/// arguments keep their relative order.
int InitTelemetryFromArgs(int argc, char** argv);

/// Re-reads SILOFUSE_METRICS / SILOFUSE_TRACE and applies them (the normal
/// lazy env initialization runs once; tests that setenv() later call this).
void ReinitTelemetryFromEnv();

/// Writes the metrics snapshot and the trace export to their configured
/// paths now. Also runs (once) at process exit when either path is
/// configured. Errors are logged, not fatal.
void FlushTelemetry();

}  // namespace obs
}  // namespace silofuse

#endif  // SILOFUSE_OBS_METRICS_H_
