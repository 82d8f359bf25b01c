#ifndef SSAGG_OBSERVE_FLIGHT_RECORDER_H_
#define SSAGG_OBSERVE_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <string>

#include "common/constants.h"
#include "common/mutex.h"
#include "common/status.h"
#include "observe/json.h"
#include "observe/thread_slots.h"

namespace ssagg {

/// The one event recorder: a per-thread bounded ring of the most recent
/// trace events (spans, instants, counters; see observe/trace.h for the
/// emit helpers). It is always on, so the last moments before any failure
/// are recoverable after the fact, and it doubles as the file tracer:
/// SSAGG_TRACE=<path> gives the global recorder kTraceRingEvents per ring
/// and writes the rings to <path> after each RunGroupedAggregation and at
/// process exit.
///
/// Hot-path contract: Record touches only the calling thread's ring — a
/// fixed block of relaxed atomic words plus one release store on the ring
/// head. No locks and no allocation after a thread's first event, and
/// instrumentation sites pay a single relaxed load when the recorder is
/// disabled. Name and category must be string literals (the ring stores
/// the pointers).
///
/// Rings come from a ThreadSlots pool: an exited thread's ring, with its
/// events, is handed to the next new thread, so a process keeps at most
/// one ring per concurrently live thread. Ring storage is mapped lazily, so
/// slots never written cost no resident memory.
///
/// Readers (DumpAnomaly / ToJson) walk the rings while writers may still be
/// appending. Every word is individually atomic, so a concurrent overwrite
/// can at worst pair fields from two adjacent generations of the same slot
/// into one reported event — never produce an invalid pointer or torn word.
/// That is the accepted price for a wait-free write path; anomaly dumps are
/// diagnostics, not ground truth.
///
/// Dumps are written as Chrome-trace JSON files into the directory given by
/// SSAGG_FLIGHT_DUMP (or SetDumpDirectory); with no directory configured,
/// DumpAnomaly is a cheap no-op, so instrumented anomaly sites (query error
/// Status, injected fault, SIGUSR1) can call it unconditionally.
class FlightRecorder {
 public:
  /// Events retained per thread (384 KiB of ring once full).
  static constexpr idx_t kRingEvents = 8192;
  /// Events retained per thread when SSAGG_TRACE is set: a whole traced run
  /// should fit. Only the pages actually written become resident.
  static constexpr idx_t kTraceRingEvents = idx_t{1} << 20;
  /// Dump files are capped so a crash loop cannot fill the disk.
  static constexpr idx_t kMaxDumps = 64;

  /// `ring_events` must be a power of two. A non-empty `trace_path` is
  /// where FlushTrace writes.
  explicit FlightRecorder(idx_t ring_events = kRingEvents,
                          std::string trace_path = "");

  FlightRecorder(const FlightRecorder &) = delete;
  FlightRecorder &operator=(const FlightRecorder &) = delete;

  /// The recorder instrumentation emits into. Reads SSAGG_TRACE and
  /// SSAGG_FLIGHT_DUMP once; installs the SIGUSR1 dump handler when a dump
  /// directory is set and the exit-time flush when a trace path is.
  static FlightRecorder &Global();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// On by default; tests and overhead measurements may switch it off.
  void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Microseconds since the recorder was constructed: the events' clock.
  [[nodiscard]] uint64_t NowMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Appends one event to the calling thread's ring. `phase` is the Chrome
  /// phase character ('X', 'i', 'C'); `arg` uses kInvalidIndex for absent.
  void Record(const char *name, const char *category, char phase,
              uint64_t ts_us, uint64_t dur_us, uint64_t arg);

  /// Where DumpAnomaly writes; empty disables dumping (the default unless
  /// SSAGG_FLIGHT_DUMP is set).
  void SetDumpDirectory(std::string dir);
  [[nodiscard]] std::string dump_directory() const;

  /// Writes the ring contents as `<dir>/ssagg_flight_<reason>_<seq>.json`
  /// and returns the path; returns "" when no dump directory is configured
  /// or the dump cap is reached. Safe to call from any thread, including
  /// concurrently with writers.
  std::string DumpAnomaly(const char *reason);

  /// Writes the ring contents to the trace path; a no-op without one.
  Status FlushTrace() const;

  /// The retained events as a Chrome-trace JSON document. "droppedEvents"
  /// counts the events lost to ring wrap-around.
  [[nodiscard]] Json ToJson() const;
  /// Total events currently retained across all rings (capped per ring).
  [[nodiscard]] idx_t EventCount() const;
  /// Rings allocated so far: at most the peak number of live threads.
  [[nodiscard]] idx_t RingCount() const;
  /// Test hook: forgets all retained events (rings stay allocated).
  void Clear();

  /// Installs a SIGUSR1 handler that dumps the global recorder. The handler
  /// allocates and takes locks, so it is NOT async-signal-safe — it is a
  /// best-effort operator tool for a live, healthy process, not a crash
  /// handler.
  static void InstallSignalHandler();

 private:
  /// One event is kWords consecutive words:
  ///   [0] name pointer  [1] category pointer  [2] ts_us
  ///   [3] dur_us        [4] arg               [5] phase
  static constexpr idx_t kWords = 6;

  struct Ring {
    explicit Ring(idx_t events);
    ~Ring();
    Ring(const Ring &) = delete;
    Ring &operator=(const Ring &) = delete;

    /// Total events ever written; slot = head % events. Single writer (the
    /// holding thread); release store pairs with readers' acquire, and
    /// readers only trust slots below it.
    std::atomic<uint64_t> head{0};
    const idx_t bytes;
    /// Anonymous zero-filled mapping, accessed through std::atomic_ref.
    uint64_t *const words;
  };

  const idx_t ring_events_;
  const std::string trace_path_;
  const std::chrono::steady_clock::time_point epoch_;

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> dump_seq_{0};

  /// Protects the ring pool's slow path and the dump directory. Never taken
  /// on the record path after a thread's first event.
  mutable Mutex lock_{LockRank::kFlightRecorder, "FlightRecorder::lock_"};
  ThreadSlots<Ring> rings_;
  std::string dump_dir_ SSAGG_GUARDED_BY(lock_);
};

}  // namespace ssagg

#endif  // SSAGG_OBSERVE_FLIGHT_RECORDER_H_
