#include "obs/metrics.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "common/logging.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "tensor/mem_stats.h"

namespace silofuse {
namespace obs {
namespace internal_metrics {

int ThreadShard() {
  // Round-robin thread -> shard assignment: stable for the thread's
  // lifetime, spreads the runtime pool's workers over distinct lines.
  static std::atomic<int> next{0};
  thread_local const int shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

}  // namespace internal_metrics

namespace {

// Minimal JSON string escaping; metric names are plain identifiers but the
// export must never emit malformed JSON whatever the caller registered.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonDouble(double v) {
  // JSON has no inf/nan literals; clamp to null-safe strings.
  if (!std::isfinite(v)) return v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

std::mutex g_export_mu;
std::string g_metrics_export_path;  // guarded by g_export_mu
std::string g_trace_export_path;    // guarded by g_export_mu
bool g_atexit_registered = false;   // guarded by g_export_mu

// The one exit-time registration: FlushTelemetry writes every configured
// export, so registering it once per export path would write each twice.
void RegisterFlushAtExitLocked() {
  if (g_atexit_registered) return;
  g_atexit_registered = true;
  std::atexit(FlushTelemetry);
}

void ApplyEnv() {
  if (const char* path = std::getenv("SILOFUSE_METRICS");
      path != nullptr && *path != '\0') {
    SetMetricsExportPath(path);
  }
  if (const char* path = std::getenv("SILOFUSE_TRACE");
      path != nullptr && *path != '\0') {
    EnableTracing(path);
  }
}

// One-time env read. It runs when the library loads (below), so
// SILOFUSE_TRACE records spans from the very first instrumented call — or
// earlier, from MetricsRegistry::Global(), if another file's static
// initializer reaches the registry first.
void EnsureEnvApplied() {
  static const bool applied = [] {
    ApplyEnv();
    return true;
  }();
  (void)applied;
}

[[maybe_unused]] const bool g_env_applied_at_load = (EnsureEnvApplied(), true);

}  // namespace

bool MetricNameValid(const std::string& name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  std::vector<std::string> segments;
  std::string current;
  for (char c : name) {
    if (c == '.') {
      if (current.empty()) return false;  // ".." or leading dot
      segments.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  segments.push_back(current);

  size_t deployment_index = segments.size();  // sentinel: no such position
  if (segments.size() >= 2 && segments[0] == "serve" &&
      segments[1] == "deploy") {
    // "serve.deploy." reserves the next segment for a deployment name and
    // requires at least one metric segment after it.
    if (segments.size() < 4) return false;
    deployment_index = 2;
  } else if (segments.size() >= 3 && segments[0] == "audit") {
    deployment_index = 1;
  }
  for (size_t i = 0; i < segments.size(); ++i) {
    for (char c : segments[i]) {
      const bool base_ok =
          (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
      const bool deploy_ok =
          base_ok || (c >= 'A' && c <= 'Z') || c == '-';
      if (i == deployment_index ? !deploy_ok : !base_ok) return false;
    }
  }
  return true;
}

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

Histogram::Shard::Shard(size_t num_buckets)
    : buckets(new std::atomic<int64_t>[num_buckets]) {
  for (size_t i = 0; i < num_buckets; ++i) {
    buckets[i].store(0, std::memory_order_relaxed);
  }
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    SF_CHECK(bounds_[i - 1] < bounds_[i])
        << "histogram bounds must be strictly increasing";
  }
  shards_.reserve(kMetricShards);
  for (int i = 0; i < kMetricShards; ++i) {
    shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
  }
}

void Histogram::Observe(double value) {
  // First bucket whose upper bound admits `value`; linear scan — bucket
  // lists are short (typically < 20) and cache-resident.
  size_t bucket = bounds_.size();  // overflow by default
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  Shard& shard = *shards_[internal_metrics::ThreadShard()];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> counts(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (size_t i = 0; i < counts.size(); ++i) {
      counts[i] += shard->buckets[i].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

int64_t Histogram::TotalCount() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::TotalSum() const {
  double total = 0.0;
  for (const auto& shard : shards_) {
    total += shard->sum.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Mean() const {
  const int64_t count = TotalCount();
  return count == 0 ? 0.0 : TotalSum() / static_cast<double>(count);
}

void Histogram::Reset() {
  for (auto& shard : shards_) {
    for (size_t i = 0; i < bounds_.size() + 1; ++i) {
      shard->buckets[i].store(0, std::memory_order_relaxed);
    }
    shard->count.store(0, std::memory_order_relaxed);
    shard->sum.store(0.0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaky singleton: handles handed to callers (including pool workers that
  // may outlive main) must stay valid through the atexit flush.
  static MetricsRegistry* registry = new MetricsRegistry();
  EnsureEnvApplied();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  SF_DCHECK(MetricNameValid(name)) << "bad metric name: " << name;
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::unique_ptr<Counter>(new Counter());
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  SF_DCHECK(MetricNameValid(name)) << "bad metric name: " << name;
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::unique_ptr<Gauge>(new Gauge());
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  SF_DCHECK(MetricNameValid(name)) << "bad metric name: " << name;
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::unique_ptr<Histogram>(new Histogram(std::move(bounds)));
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.bounds = histogram->bounds();
    h.bucket_counts = histogram->BucketCounts();
    h.count = histogram->TotalCount();
    h.sum = histogram->TotalSum();
    snapshot.histograms[name] = std::move(h);
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

double HistogramSnapshot::Quantile(double q) const {
  if (count <= 0 || bucket_counts.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation in [0, count]; walk the cumulative
  // distribution to the bucket holding it, then interpolate linearly
  // between the bucket's edges.
  const double rank = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    const double in_bucket = static_cast<double>(bucket_counts[i]);
    if (cumulative + in_bucket < rank || in_bucket == 0.0) {
      cumulative += in_bucket;
      continue;
    }
    if (i >= bounds.size()) break;  // overflow bucket: no upper edge
    const double upper = bounds[i];
    // The first bucket has no lower edge; interpolate from 0 for the usual
    // nonnegative-bounds case, but never from above the bucket's own upper
    // edge (a negative bounds[0] would otherwise yield values outside the
    // bucket).
    const double lower = i == 0 ? std::min(0.0, upper) : bounds[i - 1];
    const double fraction = (rank - cumulative) / in_bucket;
    return lower + (upper - lower) * fraction;
  }
  // Target rank is in the overflow bucket (or numeric drift walked past
  // the end): the largest finite bound is the best available estimate.
  return bounds.empty() ? 0.0 : bounds.back();
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
        << "\": " << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
        << "\": " << JsonDouble(value);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": {";
    out << "\"bounds\": [";
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      out << (i ? ", " : "") << JsonDouble(h.bounds[i]);
    }
    out << "], \"counts\": [";
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      out << (i ? ", " : "") << h.bucket_counts[i];
    }
    out << "], \"count\": " << h.count << ", \"sum\": " << JsonDouble(h.sum)
        << ", \"mean\": "
        << JsonDouble(h.count == 0
                          ? 0.0
                          : h.sum / static_cast<double>(h.count))
        << ", \"p50\": " << JsonDouble(h.Quantile(0.50))
        << ", \"p95\": " << JsonDouble(h.Quantile(0.95))
        << ", \"p99\": " << JsonDouble(h.Quantile(0.99)) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

TrainLoopTelemetry::TrainLoopTelemetry(const std::string& prefix,
                                       int batch_size)
    : prefix_(prefix),
      batch_size_(batch_size),
      start_(std::chrono::steady_clock::now()),
      step_counter_(MetricsRegistry::Global().GetCounter(prefix + ".steps")) {}

void TrainLoopTelemetry::WatchHealth(std::vector<Parameter*> params,
                                     int silo_id) {
  if (monitor_ == nullptr) {
    monitor_ = std::make_unique<health::TrainingMonitor>(prefix_);
  }
  monitor_->Watch(std::move(params), silo_id);
}

Status TrainLoopTelemetry::Step(
    std::initializer_list<std::pair<const char*, double>> values) {
  for (const auto& [key, value] : values) {
    auto it = gauges_.find(key);
    if (it == gauges_.end()) {
      it = gauges_
               .emplace(key, MetricsRegistry::Global().GetGauge(
                                 prefix_ + "." + key))
               .first;
    }
    it->second->Set(value);
  }
  step_counter_->Increment();
  ++steps_;
  if (monitor_ != nullptr && monitor_->enabled()) {
    std::vector<std::pair<std::string, double>> losses;
    losses.reserve(values.size());
    for (const auto& [key, value] : values) losses.emplace_back(key, value);
    return monitor_->OnStep(steps_, losses);
  }
  return Status::OK();
}

TrainLoopTelemetry::~TrainLoopTelemetry() {
  const double elapsed_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  if (steps_ > 0 && elapsed_sec > 0.0) {
    MetricsRegistry::Global()
        .GetGauge(prefix_ + ".examples_per_sec")
        ->Set(static_cast<double>(steps_) * batch_size_ / elapsed_sec);
  }
}

std::string ExpandTelemetryPath(const std::string& path) {
  std::string out;
  out.reserve(path.size() + 8);
  for (size_t i = 0; i < path.size(); ++i) {
    if (path[i] == '%' && i + 1 < path.size() && path[i + 1] == 'p') {
      out += std::to_string(static_cast<int64_t>(::getpid()));
      ++i;
    } else {
      out += path[i];
    }
  }
  return out;
}

Status WriteMetricsJson(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open metrics export file: " + path);
  }
  out << MetricsRegistry::Global().Snapshot().ToJson();
  out.flush();
  if (!out) return Status::IOError("failed writing metrics export: " + path);
  return Status::OK();
}

void SetMetricsExportPath(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_export_mu);
  g_metrics_export_path = path;
  if (!path.empty()) RegisterFlushAtExitLocked();
}

std::string MetricsExportPath() {
  std::lock_guard<std::mutex> lock(g_export_mu);
  return g_metrics_export_path;
}

void EnableTracing(const std::string& export_path) {
  {
    std::lock_guard<std::mutex> lock(g_export_mu);
    g_trace_export_path = export_path;
    if (!export_path.empty()) RegisterFlushAtExitLocked();
  }
  internal_trace::g_enabled.store(true, std::memory_order_relaxed);
}

void DisableTracing() {
  internal_trace::g_enabled.store(false, std::memory_order_relaxed);
}

std::string TraceExportPath() {
  std::lock_guard<std::mutex> lock(g_export_mu);
  return g_trace_export_path;
}

int InitTelemetryFromArgs(int argc, char** argv) {
  auto value_of = [&](int* i, const char* flag) -> const char* {
    const std::string arg = argv[*i];
    const std::string prefix = std::string(flag) + "=";
    if (arg.rfind(prefix, 0) == 0) return argv[*i] + prefix.size();
    if (arg == flag && *i + 1 < argc) return argv[++*i];
    return nullptr;
  };
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (const char* path = value_of(&i, "--metrics-out")) {
      SetMetricsExportPath(path);
    } else if (const char* path = value_of(&i, "--trace-out")) {
      EnableTracing(path);
    } else {
      argv[out++] = argv[i];
    }
  }
  for (int i = out; i < argc; ++i) argv[i] = nullptr;
  return out;
}

void ReinitTelemetryFromEnv() { ApplyEnv(); }

void FlushTelemetry() {
  if (memstats::Enabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.GetGauge("mem.matrix.live_bytes")
        ->Set(static_cast<double>(memstats::LiveBytes()));
    registry.GetGauge("mem.matrix.peak_bytes")
        ->Set(static_cast<double>(memstats::PeakBytes()));
    registry.GetGauge("mem.matrix.allocs")
        ->Set(static_cast<double>(memstats::AllocCount()));
  }
  const std::string metrics_path = ExpandTelemetryPath(MetricsExportPath());
  if (!metrics_path.empty()) {
    if (Status s = WriteMetricsJson(metrics_path); !s.ok()) {
      SF_LOG(Warning) << "metrics export failed: " << s.ToString();
    }
  }
  const std::string trace_path = ExpandTelemetryPath(TraceExportPath());
  if (!trace_path.empty()) {
    if (Status s = WriteTraceJson(trace_path); !s.ok()) {
      SF_LOG(Warning) << "trace export failed: " << s.ToString();
    }
  }
}

}  // namespace obs
}  // namespace silofuse
