#include "harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || values[hi] == values[lo]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double SupportedQuantile(size_t n, double wanted) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.5};
  for (double q : kLadder) {
    if (q > wanted + 1e-12) continue;
    // n * (1 - q) >= 10, rounded first so that 1000 * 0.01 counts as 10.
    const double beyond = std::round(static_cast<double>(n) * (1.0 - q) * 1e6);
    if (beyond >= 10.0 * 1e6) return q;
  }
  return 0.5;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    double seconds) {
  std::mt19937_64 engine(seed);
  std::exponential_distribution<double> gap(rate_per_s);
  std::vector<double> due;
  due.reserve(static_cast<size_t>(rate_per_s * seconds * 1.2) + 8);
  for (double t = gap(engine); t < seconds; t += gap(engine)) due.push_back(t);
  return due;
}

double SteadyClock::Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SteadyClock::SleepUntil(double t) {
  const auto until = std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(t)));
  std::this_thread::sleep_until(until);
}

std::vector<SendRecord> RunOpenLoop(const std::vector<double>& schedule,
                                    int senders, LoadClock* clock,
                                    const std::function<bool(size_t)>& send) {
  std::vector<SendRecord> records(schedule.size());
  std::atomic<size_t> next{0};
  const double start = clock->Now();
  auto sender = [&] {
    for (size_t i = next.fetch_add(1); i < schedule.size();
         i = next.fetch_add(1)) {
      SendRecord& r = records[i];
      r.due = schedule[i];
      clock->SleepUntil(start + r.due);
      r.sent = std::max(clock->Now() - start, r.due);
      r.ok = send(i);
      r.done = clock->Now() - start;
    }
  };
  if (senders <= 1) {
    sender();
    return records;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(senders));
  for (int s = 0; s < senders; ++s) pool.emplace_back(sender);
  for (std::thread& t : pool) t.join();
  return records;
}

RateResult SummarizeRate(double rate, const std::vector<SendRecord>& records,
                         double wanted_tail_q, double backlog_slack_ms) {
  RateResult r;
  r.rate = rate;
  r.attempted = static_cast<int64_t>(records.size());
  std::vector<double> latency;
  std::vector<double> lateness;
  latency.reserve(records.size());
  lateness.reserve(records.size());
  for (const SendRecord& s : records) {
    if (!s.ok) ++r.failed;
    latency.push_back(s.ok ? s.latency_ms()
                           : std::numeric_limits<double>::infinity());
    lateness.push_back(s.lateness_ms());
  }
  r.tail_q = SupportedQuantile(records.size(), wanted_tail_q);
  r.p50_ms = Quantile(latency, 0.5);
  r.tail_ms = Quantile(latency, r.tail_q);
  r.lateness_p50_ms = Quantile(lateness, 0.5);
  r.lateness_max_ms = lateness.empty()
                          ? 0.0
                          : *std::max_element(lateness.begin(), lateness.end());
  const size_t quarter = records.size() / 4;
  if (quarter > 0) {
    const std::vector<double> first(lateness.begin(),
                                    lateness.begin() + quarter);
    const std::vector<double> last(lateness.end() - quarter, lateness.end());
    const double late_first = Median(first);
    const double late_last = Median(last);
    r.backlog_grows =
        late_last > backlog_slack_ms && late_last > 2.0 * late_first;
  }
  return r;
}

bool RateOk(const RateResult& r, double limit_ms) {
  return r.attempted > 0 && r.failed == 0 && !r.backlog_grows &&
         r.tail_ms <= limit_ms;
}

double MaxOkRate(const std::vector<RateResult>& sweep, double limit_ms) {
  double best = 0.0;
  for (const RateResult& r : sweep) {
    if (!RateOk(r, limit_ms)) break;
    best = std::max(best, r.rate);
  }
  return best;
}

// ---------------------------------------------------------------------------

namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> tls_open_spans;

uint64_t ThreadIndex() {
  static std::atomic<uint64_t> next{1};
  thread_local const uint64_t index = next.fetch_add(1);
  return index;
}

void AppendJsonString(std::ostringstream* out, const std::string& s) {
  *out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') *out << '\\';
    *out << c;
  }
  *out << '"';
}

}  // namespace

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Tracer::Begin(std::string name, uint64_t request_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.thread = ThreadIndex();
  span.parent = tls_open_spans.empty() ? -1 : tls_open_spans.back();
  int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (request_id == 0 && span.parent >= 0) {
      request_id = spans_[static_cast<size_t>(span.parent)].request_id;
    }
    span.request_id = request_id;
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(span));
    // Stamped last so the span's own bookkeeping is outside its interval.
    spans_.back().start_ns = NowNs();
  }
  tls_open_spans.push_back(index);
  return index;
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  const int64_t now = NowNs();
  if (!tls_open_spans.empty() && tls_open_spans.back() == index) {
    tls_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string Tracer::ChromeJson() const {
  const std::vector<Span> spans = Spans();
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::ostringstream out;
  out.precision(15);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\": ";
    AppendJsonString(&out, s.name);
    out << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << static_cast<double>(s.start_ns - origin) / 1e3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"request_id\": " << s.request_id << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, uint64_t request_id)
    : tracer_(tracer),
      index_(tracer != nullptr && tracer->enabled()
                 ? tracer->Begin(std::move(name), request_id)
                 : -1) {}

ScopedSpan::~ScopedSpan() {
  if (index_ >= 0) tracer_->End(index_);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;
    for (const auto& [begin, end] : kids) {
      const int64_t b = std::max(begin, cursor);
      const int64_t e = std::min(end, hi);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[i] = std::max<int64_t>(0, hi - lo - covered);
  }
  return self;
}

std::map<std::string, SpanStats> StatsByName(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, SpanStats> stats;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanStats& s = stats[spans[i].name];
    s.total_ms.push_back(
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6);
    s.self_ms.push_back(static_cast<double>(self[i]) / 1e6);
  }
  return stats;
}

// ---------------------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!ValidMetricName(name) || !std::isfinite(value)) {
    Check("metric '" + name + "' has a valid name and a finite value", false);
    return;
  }
  metrics_[name] = Value{value, unit};
}

void Report::Count(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Check(const std::string& what, bool ok) {
  std::fprintf(stderr, "check %-60s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  ++attempted_;
  if (!ok) {
    ++failed_;
    ++failed_checks_;
  }
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", v.value);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << number
        << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
