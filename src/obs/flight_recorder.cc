#include "obs/flight_recorder.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>

#include "common/env.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace silofuse {
namespace obs {

namespace {

constexpr size_t kRingSlots = FlightRecorder::kRingSlots;
// A runaway tracing session drops events instead of exhausting memory.
constexpr size_t kMaxArchivedPerThread = size_t{1} << 20;  // 56 MB
constexpr uint32_t kRowsMask = (uint32_t{1} << 24) - 1;

/// A ring slot's or archive entry's event. (id, aux, label) hold (request,
/// batch, deployment) or (TraceContext::Pack, flow id/counter bits, party).
struct Event {
  const char* name = nullptr;  // literal or interned, never freed
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t aux = 0;
  const char* label = nullptr;
  uint32_t phase_rows = 0;  // FlightPhase:8 (high) | rows:24 (low)
  char kind = 'X';          // Chrome phase: 'X', 's', 'f' or 'C'
};
constexpr size_t kEventWords = 7;
static_assert(sizeof(Event) == kEventWords * sizeof(uint64_t));

/// The event's words as relaxed atomics behind a seqlock: seq is odd
/// mid-write, StableSeq(gen) once generation `gen` is written.
struct alignas(64) Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> words[kEventWords];
};
static_assert(sizeof(Slot) == 64, "one event per cache line");

// Even, unique per wrap, never 0 (0 = never written or cleared).
uint64_t StableSeq(uint64_t gen) { return 2 * gen + 2; }

struct Ring {
  std::vector<Slot> slots{kRingSlots};
  std::atomic<uint64_t> head{0};      // next generation; owner writes
  std::atomic<uint64_t> archived{0};  // generations below are archived
  int tid = 0;
  std::mutex archive_mu;       // owner's spill vs. exports and clears
  std::vector<Event> archive;  // guarded by archive_mu
  size_t dropped = 0;          // guarded by archive_mu
};

// Never freed: atexit dumps and trace flushes read them after thread exit.
std::mutex g_rings_mu;
std::vector<Ring*>& Rings() {
  static auto* rings = new std::vector<Ring*>();
  return *rings;
}

std::vector<Ring*> AllRings() {
  std::lock_guard<std::mutex> lock(g_rings_mu);
  return Rings();
}

Ring* LocalRing() {
  thread_local Ring* ring = [] {
    auto* r = new Ring();
    std::lock_guard<std::mutex> lock(g_rings_mu);
    r->tid = static_cast<int>(Rings().size()) + 1;  // the one tid space
    Rings().push_back(r);
    return r;
  }();
  return ring;
}

/// Seqlock read of generation `gen`; false if cleared or being overwritten.
bool ReadSlot(const Ring& ring, uint64_t gen, Event* event) {
  const Slot& slot = ring.slots[gen & (kRingSlots - 1)];
  if (slot.seq.load(std::memory_order_acquire) != StableSeq(gen)) return false;
  uint64_t words[kEventWords];
  for (size_t i = 0; i < kEventWords; ++i) {
    words[i] = slot.words[i].load(std::memory_order_acquire);
  }
  // A writer that lapped us mid-read changed seq: drop the mixed words.
  if (slot.seq.load(std::memory_order_relaxed) != StableSeq(gen)) return false;
  std::memcpy(event, words, sizeof(Event));
  return true;
}

/// Archives the never-archived live slots; only the owner (writer) spills.
void Spill(Ring* ring, uint64_t head) {
  std::lock_guard<std::mutex> lock(ring->archive_mu);
  const uint64_t from = std::max(ring->archived.load(std::memory_order_relaxed),
                                 head - std::min<uint64_t>(head, kRingSlots));
  for (uint64_t gen = from; gen < head; ++gen) {
    Event event;
    if (!ReadSlot(*ring, gen, &event)) continue;
    if (ring->archive.size() < kMaxArchivedPerThread) {
      ring->archive.push_back(event);
    } else {
      ++ring->dropped;
    }
  }
  ring->archived.store(head, std::memory_order_relaxed);
}

void Append(const Event& event) {
  Ring* ring = LocalRing();
  const uint64_t gen = ring->head.load(std::memory_order_relaxed);
  if (TraceEnabled() &&
      gen - ring->archived.load(std::memory_order_relaxed) >= kRingSlots) {
    Spill(ring, gen);
  }
  Slot& slot = ring->slots[gen & (kRingSlots - 1)];
  uint64_t words[kEventWords];
  std::memcpy(words, &event, sizeof(Event));
  // Odd seq first. Release word stores (and the reader's acquire word
  // loads) order it before them: a reader that sees a new word sees seq move.
  slot.seq.store(2 * gen + 1, std::memory_order_relaxed);
  for (size_t i = 0; i < kEventWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_release);
  }
  slot.seq.store(StableSeq(gen), std::memory_order_release);
  ring->head.store(gen + 1, std::memory_order_release);
}

TraceEvent Decode(const Event& e, int tid) {
  const auto phase = static_cast<FlightPhase>(e.phase_rows >> 24);
  if (phase != FlightPhase::kNone) {
    return {.name = e.name, .tid = tid, .start_ns = e.start_ns,
            .dur_ns = e.end_ns - e.start_ns, .flight_phase = phase,
            .request_id = e.id, .batch_id = e.aux,
            .rows = static_cast<int32_t>(e.phase_rows & kRowsMask),
            .deployment = e.label};
  }
  const bool counter = e.kind == 'C';
  const TraceContext ctx = TraceContext::Unpack(e.id);  // 0 = all unset
  return {.name = e.name, .tid = tid, .start_ns = e.start_ns,
          .dur_ns = e.end_ns - e.start_ns, .phase = e.kind,
          .value = counter ? std::bit_cast<double>(e.aux) : 0.0,
          .flow_id = counter ? 0 : e.aux, .run_id = ctx.run_id,
          .round = ctx.round, .silo_id = ctx.silo_id, .tag = ctx.tag,
          .party = e.label};
}

/// Every retained event, parents before the children they enclose. Exports
/// add the archives, locked across the ring read so no spill races it.
std::vector<TraceEvent> Collect(bool with_archive) {
  std::vector<TraceEvent> events;
  size_t dropped = 0;
  for (Ring* ring : AllRings()) {
    std::unique_lock<std::mutex> lock(ring->archive_mu, std::defer_lock);
    if (with_archive) lock.lock();
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    uint64_t from = head - std::min<uint64_t>(head, kRingSlots);
    if (with_archive) {
      for (auto& e : ring->archive) events.push_back(Decode(e, ring->tid));
      dropped += ring->dropped;
      from = std::max(from, ring->archived.load(std::memory_order_relaxed));
    }
    for (uint64_t gen = from; gen < head; ++gen) {
      Event e;
      if (ReadSlot(*ring, gen, &e)) events.push_back(Decode(e, ring->tid));
    }
  }
  if (dropped > 0) {
    SF_LOG(Warning) << "trace archives dropped " << dropped
                    << " events (per-thread cap reached)";
  }
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return std::tie(a.start_ns, b.dur_ns) < std::tie(b.start_ns, a.dur_ns);
  });
  return events;
}

/// The one Chrome trace-event writer: microsecond timestamps (3 decimals
/// keep ns resolution), one process track per party (pid 2, 3, ...; pid 1
/// is unattributed), flow arrows between the slices enclosing "s"/"f".
Status WriteEventsJson(const std::vector<TraceEvent>& events,
                       const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open trace-event file: " + path);
  std::map<std::string, int> party_pids;
  for (const TraceEvent& e : events) {
    if (e.party) party_pids.emplace(e.party, 2 + party_pids.size());
  }
  const char* separator = "";
  auto next = [&]() -> std::ostream& {
    out << separator << "  ";
    separator = ",\n";
    return out;
  };
  auto us = [](int64_t ns) { return static_cast<double>(ns) / 1000.0; };
  out << std::fixed << std::setprecision(3)
      << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  next() << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
            "\"args\": {\"name\": \"silofuse\"}}";
  for (const auto& [party, pid] : party_pids) {
    next() << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
           << ", \"args\": {\"name\": \"" << party << "\"}}";
  }
  std::map<uint64_t, std::vector<const TraceEvent*>> chains;
  for (const TraceEvent& e : events) {
    const bool serving = e.flight_phase != FlightPhase::kNone;
    if (serving && e.request_id != 0) chains[e.request_id].push_back(&e);
    next() << "{\"name\": \"" << e.name << "\", \"cat\": \""
           << (serving ? "flight" : "silofuse") << "\", \"ph\": \"" << e.phase
           << "\", \"pid\": " << (e.party ? party_pids[e.party] : 1)
           << ", \"tid\": " << e.tid << ", \"ts\": " << us(e.start_ns);
    if (e.phase == 'X') out << ", \"dur\": " << us(e.dur_ns);
    if (e.phase == 's' || e.phase == 'f') out << ", \"id\": " << e.flow_id;
    if (e.phase == 'f') out << ", \"bp\": \"e\"";  // enclosing slice
    bool any_arg = false;
    auto arg = [&](const char* key) -> std::ostream& {
      out << (any_arg ? ", \"" : ", \"args\": {\"") << key << "\": ";
      any_arg = true;
      return out;
    };
    if (serving) {
      arg("request_id") << e.request_id;
      arg("batch_id") << e.batch_id;
      arg("rows") << e.rows;
      if (e.deployment) arg("deployment") << "\"" << e.deployment << "\"";
    }
    if (e.phase == 'C') {  // non-finite samples clamp to keep valid JSON
      arg("value") << std::defaultfloat << std::setprecision(12)
                   << (std::isfinite(e.value) ? e.value : 0.0) << std::fixed
                   << std::setprecision(3);
    }
    if (e.run_id != 0) {
      arg("run_id") << e.run_id;
      arg("round") << e.round;
      if (e.silo_id >= 0) arg("silo") << e.silo_id;
      if (e.tag) arg("tag") << "\"" << e.tag << "\"";
    }
    if (e.party) arg("party") << "\"" << e.party << "\"";
    out << (any_arg ? "}}" : "}");
  }
  // Request arrows, one flow id per hop: "s" just inside the end of a phase,
  // "f" at the start of the next (instants sort before the phase they open).
  for (auto& [request_id, chain] : chains) {
    std::sort(chain.begin(), chain.end(), [](auto* a, auto* b) {
      return std::tie(a->start_ns, a->dur_ns) <
             std::tie(b->start_ns, b->dur_ns);
    });
    for (size_t i = 0; i + 1 < chain.size(); ++i) {
      const TraceEvent& from = *chain[i];
      const TraceEvent& to = *chain[i + 1];
      const uint64_t id = (request_id << 8) | (i & 0xFF);
      const int64_t s_ns = std::max(from.start_ns,
                                    from.start_ns + from.dur_ns - 1000);
      next() << "{\"name\": \"serve.request\", \"cat\": \"flight\", \"ph\": "
                "\"s\", \"pid\": 1, \"tid\": " << from.tid << ", \"ts\": "
             << us(s_ns) << ", \"id\": " << id << "}";
      next() << "{\"name\": \"serve.request\", \"cat\": \"flight\", \"ph\": "
                "\"f\", \"bp\": \"e\", \"pid\": 1, \"tid\": " << to.tid
             << ", \"ts\": " << us(to.start_ns) << ", \"id\": " << id << "}";
    }
  }
  out << "\n]}\n";
  out.flush();
  if (!out) return Status::IOError("failed writing trace-event file: " + path);
  return Status::OK();
}

std::mutex g_dump_mu;
std::string g_dump_dir;                   // guarded by g_dump_mu
std::vector<std::string> g_recent_dumps;  // guarded by g_dump_mu
int g_dump_seq = 0;                       // guarded by g_dump_mu
constexpr size_t kMaxRecentDumps = 16;

// Trigger dedup (guarded by g_dump_mu): an epoch of skipped triggers.
int64_t g_trigger_window_ns = 0;  // 0 = dedup disarmed
Clock* g_trigger_clock = nullptr;
std::optional<int64_t> g_trigger_epoch_start_ns;

}  // namespace

namespace internal_trace {
std::atomic<bool> g_enabled{false};
int64_t NowNs() {
  using std::chrono::steady_clock;
  static const auto epoch = steady_clock::now();
  return std::chrono::nanoseconds(steady_clock::now() - epoch).count();
}

void RecordSpan(const char* name, int64_t start_ns, int64_t end_ns,
                uint64_t packed_ctx, const char* party) {
  Append({.name = name, .start_ns = start_ns, .end_ns = end_ns,
          .id = packed_ctx, .label = party});
}

void RecordFlowEvent(const char* name, uint64_t flow_id, bool start,
                     const char* party) {
  const int64_t now = NowNs();
  Append({.name = name, .start_ns = now, .end_ns = now, .aux = flow_id,
          .label = party, .kind = start ? 's' : 'f'});
}

void RecordCounterEvent(const char* name, double value, const char* party) {
  const int64_t now = NowNs();
  Append({.name = name, .start_ns = now, .end_ns = now,
          .aux = std::bit_cast<uint64_t>(value), .label = party, .kind = 'C'});
}
}  // namespace internal_trace

std::vector<TraceEvent> SnapshotTraceEvents() {
  return Collect(/*with_archive=*/true);
}

void ClearTraceEvents() {
  for (Ring* ring : AllRings()) {
    std::lock_guard<std::mutex> lock(ring->archive_mu);
    // Head stays monotone, or a stale stable seq could validate a slot.
    for (Slot& slot : ring->slots) slot.seq.store(0, std::memory_order_relaxed);
    ring->archived.store(ring->head.load(std::memory_order_acquire),
                         std::memory_order_relaxed);
    ring->archive.clear();
    ring->dropped = 0;
  }
}

Status WriteTraceJson(const std::string& path) {
  return WriteEventsJson(SnapshotTraceEvents(), path);
}

const char* FlightPhaseName(FlightPhase phase) {
  static constexpr const char* kNames[] = {
      "none",         "serve.cache_load", "serve.enqueue",
      "serve.queue",  "serve.linger",     "serve.sample",
      "serve.decode", "serve.stream",     "serve.reject",
      "serve.slo_breach", "serve.quality_breach"};
  const auto index = static_cast<size_t>(phase);
  return index < std::size(kNames) ? kNames[index] : "unknown";
}

FlightRecorder::FlightRecorder() {
  enabled_.store(EnvFlag("SILOFUSE_FLIGHT", true), std::memory_order_relaxed);
  if (const char* dir = std::getenv("SILOFUSE_FLIGHT_DIR");
      dir != nullptr && *dir != '\0') {
    std::lock_guard<std::mutex> lock(g_dump_mu);
    g_dump_dir = dir;
  }
}

FlightRecorder& FlightRecorder::Global() {
  static auto* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Record(FlightPhase phase, uint64_t request_id,
                            uint64_t batch_id, const char* deployment,
                            int32_t rows, int64_t start_ns, int64_t end_ns) {
  if (!enabled() && !TraceEnabled()) return;
  const uint32_t bounded_rows =
      rows < 0 ? 0 : std::min<uint32_t>(static_cast<uint32_t>(rows), kRowsMask);
  Append({.name = FlightPhaseName(phase), .start_ns = start_ns,
          .end_ns = end_ns, .id = request_id, .aux = batch_id,
          .label = deployment,
          .phase_rows = (static_cast<uint32_t>(phase) << 24) | bounded_rows});
}

std::vector<TraceEvent> FlightRecorder::Snapshot() const {
  return Collect(/*with_archive=*/false);
}

Status FlightRecorder::WriteJson(const std::string& path) const {
  return WriteEventsJson(Collect(/*with_archive=*/false), path);
}

void FlightRecorder::SetDumpDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(g_dump_mu);
  g_dump_dir = dir;
}

std::string FlightRecorder::dump_dir() const {
  std::lock_guard<std::mutex> lock(g_dump_mu);
  return g_dump_dir;
}

Result<std::string> FlightRecorder::Dump(const std::string& reason) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(g_dump_mu);
    if (g_dump_dir.empty()) {
      return Status::FailedPrecondition(
          "flight recorder has no dump directory (SetDumpDir / "
          "SILOFUSE_FLIGHT_DIR)");
    }
    path = g_dump_dir + "/flight_" + reason + "_" + std::to_string(::getpid()) +
           "_" + std::to_string(g_dump_seq++) + ".json";
  }
  SF_RETURN_NOT_OK(WriteJson(path));
  std::lock_guard<std::mutex> lock(g_dump_mu);
  g_recent_dumps.push_back(path);
  if (g_recent_dumps.size() > kMaxRecentDumps) {
    g_recent_dumps.erase(g_recent_dumps.begin());
  }
  return path;
}

void FlightRecorder::SetTriggerDedup(int64_t window_ns, Clock* clock) {
  std::lock_guard<std::mutex> lock(g_dump_mu);
  g_trigger_window_ns = window_ns > 0 ? window_ns : 0;
  g_trigger_clock = clock;
  g_trigger_epoch_start_ns.reset();
}

void FlightRecorder::DumpOnTrigger(const std::string& reason) {
  // Skips still count, so reports show every dump-worthy incident; dedup
  // keeps an SLO and a quality breach of one incident from dumping twice.
  bool skip;
  {
    std::lock_guard<std::mutex> lock(g_dump_mu);
    skip = g_dump_dir.empty();
    if (g_trigger_window_ns > 0) {
      const int64_t now_ns =
          (g_trigger_clock ? g_trigger_clock : SystemClock::Default())->NowNs();
      if (g_trigger_epoch_start_ns &&
          now_ns - *g_trigger_epoch_start_ns < g_trigger_window_ns) {
        skip = true;
      } else {
        g_trigger_epoch_start_ns = now_ns;
      }
    }
  }
  const char* counter = skip                ? "flight.dump_skipped"
                        : Dump(reason).ok() ? "flight.dumps"
                                            : "flight.dump_failures";
  MetricsRegistry::Global().GetCounter(counter)->Increment();
}

std::vector<std::string> FlightRecorder::RecentDumps() const {
  std::lock_guard<std::mutex> lock(g_dump_mu);
  return g_recent_dumps;
}

int64_t FlightRecorder::TotalRecorded() const {
  int64_t total = 0;
  for (Ring* ring : AllRings()) {
    total += static_cast<int64_t>(ring->head.load(std::memory_order_relaxed));
  }
  return total;
}

void FlightRecorder::Clear() {
  ClearTraceEvents();
  std::lock_guard<std::mutex> lock(g_dump_mu);
  g_recent_dumps.clear();
  g_trigger_epoch_start_ns.reset();
}

}  // namespace obs
}  // namespace silofuse
