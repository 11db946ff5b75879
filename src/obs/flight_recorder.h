#ifndef SILOFUSE_OBS_FLIGHT_RECORDER_H_
#define SILOFUSE_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/trace.h"

namespace silofuse {
namespace obs {

/// The process's one event store: a ring of 64-byte seqlock slots per
/// thread, written wait-free. Serving phases (Record) record unless
/// SILOFUSE_FLIGHT=0; spans, flows and counters only while tracing. Flight
/// dumps read each thread's newest kRingSlots events without blocking;
/// trace exports (SnapshotTraceEvents) add a per-thread archive that, while
/// tracing, a thread fills (under its mutex, up to 1M events) before it
/// overwrites unarchived slots.
class FlightRecorder {
 public:
  /// Slots per ring (power of two): 256 KiB, ~680 requests at 6 events.
  static constexpr size_t kRingSlots = 4096;

  /// Process-wide instance. Enabled by default; SILOFUSE_FLIGHT=0 (or any
  /// EnvFlag off word) disables, SILOFUSE_FLIGHT_DIR presets the dump
  /// directory.
  static FlightRecorder& Global();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Records one serving phase over the ring's oldest slot; a no-op when
  /// disabled and not tracing. `deployment` must be interned or a literal;
  /// rows saturate at 2^24 - 1.
  void Record(FlightPhase phase, uint64_t request_id, uint64_t batch_id,
              const char* deployment, int32_t rows, int64_t start_ns,
              int64_t end_ns);
  /// Each thread's newest kRingSlots stable events, sorted by start time;
  /// serving phases carry `flight_phase`, spans/flows/counters kNone.
  std::vector<TraceEvent> Snapshot() const;
  /// Writes the snapshot in WriteTraceJson's format, with "s"/"f" flow
  /// points chaining each request's phases across threads.
  Status WriteJson(const std::string& path) const;

  /// Directory Dump() writes into ("" = none); overrides SILOFUSE_FLIGHT_DIR.
  void SetDumpDir(const std::string& dir);
  std::string dump_dir() const;
  /// Writes and returns dump_dir()/flight_<reason>_<pid>_<n>.json.
  Result<std::string> Dump(const std::string& reason);

  /// Trigger hook for SLO/quality breaches and watchdog aborts: Dump() if a
  /// dump dir is set, counting flight.dumps or flight.dump_failures; never
  /// fails the caller. Without a dir, or inside an armed dedup window, it
  /// only counts flight.dump_skipped.
  void DumpOnTrigger(const std::string& reason);

  /// Arms trigger dedup, one dump per `window_ns` (<= 0 disarms); `clock`
  /// is borrowed (nullptr = system clock).
  void SetTriggerDedup(int64_t window_ns, Clock* clock = nullptr);
  /// Paths returned by Dump() this process, oldest first (bounded).
  std::vector<std::string> RecentDumps() const;
  /// Events written into the rings since process start, spans included.
  int64_t TotalRecorded() const;
  /// ClearTraceEvents() plus the dump history (test isolation).
  void Clear();

 private:
  FlightRecorder();

  std::atomic<bool> enabled_{true};
};

}  // namespace obs
}  // namespace silofuse

#endif  // SILOFUSE_OBS_FLIGHT_RECORDER_H_
