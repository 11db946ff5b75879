#ifndef SILOFUSE_OBS_TRACE_H_
#define SILOFUSE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace silofuse {
namespace obs {

/// Serving-path phase (FlightRecorder::Record); packed in slots, append only.
enum class FlightPhase : uint8_t {
  kNone = 0,           // not a serving phase (span, flow point, counter)
  kCacheLoad = 1,      // checkpoint fetch/restore for a batch's deployment
  kEnqueue = 2,        // instant: request admitted into a batcher queue
  kQueue = 3,          // waiting for the batcher worker to be free
  kLinger = 4,         // deliberate wait for co-batchable arrivals
  kSample = 5,         // batched few-step DDIM denoising pass
  kDecode = 6,         // per-request latent decode + reassembly
  kStream = 7,         // chunked delivery to the caller's sink
  kReject = 8,         // instant: admission control shed this request
  kBreach = 9,         // instant: SLO monitor entered breach
  kQualityBreach = 10,  // instant: quality auditor entered breach
};

/// Stable event name of a serving phase ("serve.queue", ...).
const char* FlightPhaseName(FlightPhase phase);

/// Writers into the calling thread's event ring (FlightRecorder). Names are
/// literals or interned (the pointer is stored); an interned `party` puts
/// the event on that party's track; `packed_ctx` is TraceContext::Pack.
namespace internal_trace {
/// The tracing switch: a relaxed load is SF_TRACE_SPAN's whole off cost.
extern std::atomic<bool> g_enabled;
int64_t NowNs();  // steady clock, ns since the process trace epoch
void RecordSpan(const char* name, int64_t start_ns, int64_t end_ns,
                uint64_t packed_ctx = 0, const char* party = nullptr);
void RecordFlowEvent(const char* name, uint64_t flow_id, bool start,
                     const char* party);
void RecordCounterEvent(const char* name, double value, const char* party);
}  // namespace internal_trace

/// True when spans are being recorded.
inline bool TraceEnabled() {
  return internal_trace::g_enabled.load(std::memory_order_relaxed);
}

/// Nanoseconds since the trace epoch: the one timeline of every event.
inline int64_t TraceNowNs() { return internal_trace::NowNs(); }

/// Starts recording spans; FlushTelemetry (also run at exit) writes a
/// non-empty `export_path`. SILOFUSE_TRACE sets the initial state.
void EnableTracing(const std::string& export_path);
void DisableTracing();
/// Path WriteTraceJson is flushed to ("" = none).
std::string TraceExportPath();

/// One recorded event; `phase` is the Chrome phase: 'X' span, 's'/'f' flow
/// point (flow_id shared by both ends) or 'C' counter sample (`value`).
/// Serving phases are 'X' events with `flight_phase` and the request set.
struct TraceEvent {
  std::string name;
  int tid = 0;  // small per-thread id, 1 = first recording thread
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  char phase = 'X';
  double value = 0.0;
  uint64_t flow_id = 0;
  uint32_t run_id = 0;
  int32_t round = 0;
  int32_t silo_id = -1;
  const char* tag = nullptr;    // interned transfer tag
  const char* party = nullptr;  // interned party name, nullptr = process
  FlightPhase flight_phase = FlightPhase::kNone;
  uint64_t request_id = 0;  // 0 = not request-scoped
  uint64_t batch_id = 0;    // 0 = not batch-scoped
  int32_t rows = 0;
  const char* deployment = nullptr;
};

/// Every retained event (rings + spill archives), sorted by start time.
std::vector<TraceEvent> SnapshotTraceEvents();

/// Drops every recorded event (test isolation; must not race recording).
void ClearTraceEvents();

/// Writes SnapshotTraceEvents() as Chrome trace-event JSON (Perfetto).
Status WriteTraceJson(const std::string& path);

/// RAII span: records [construction, destruction) on the calling thread
/// when tracing is enabled; the viewer nests spans by timestamp.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : name_(TraceEnabled() ? name : nullptr),
        start_ns_(name_ != nullptr ? internal_trace::NowNs() : 0) {}
  ~TraceSpan() {
    if (name_ != nullptr) {
      internal_trace::RecordSpan(name_, start_ns_, internal_trace::NowNs());
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;  // nullptr = tracing was off at construction
  int64_t start_ns_ = 0;
};

#define SF_OBS_CONCAT_INNER(a, b) a##b
#define SF_OBS_CONCAT(a, b) SF_OBS_CONCAT_INNER(a, b)

/// Scoped trace span; `name` must be a string literal.
///   void Step() { SF_TRACE_SPAN("ddpm.train_step"); ... }
#define SF_TRACE_SPAN(name) \
  ::silofuse::obs::TraceSpan SF_OBS_CONCAT(sf_trace_span_, __LINE__)(name)

}  // namespace obs
}  // namespace silofuse

#endif  // SILOFUSE_OBS_TRACE_H_
