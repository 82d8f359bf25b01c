#ifndef SSAGG_OBSERVE_PROGRESS_H_
#define SSAGG_OBSERVE_PROGRESS_H_

#include <atomic>
#include <map>
#include <string>

#include "common/constants.h"
#include "common/mutex.h"
#include "observe/json.h"
#include "observe/metrics.h"

namespace ssagg {

/// Live introspection handle for one running query. The query side
/// (RunGroupedAggregation, TaskExecutor, PhysicalHashAggregate) publishes
/// into relaxed atomics; any other thread may Poll() concurrently and gets
/// a consistent-enough snapshot: phase and row counts are monotone, so a
/// poller never sees progress move backwards.
///
/// Spill bytes and histograms are process-global deltas against baselines
/// captured at BeginQuery — exact for a single running query, attribution-
/// approximate when queries overlap (the same caveat as RegistryDelta).
///
/// Lifetime: the caller owns the handle and must keep it alive until
/// RunGroupedAggregation returns; polling may continue afterwards (the
/// final state is latched by Finish).
class QueryProgress {
 public:
  /// Ordered: AdvancePhase is a monotone max, so a stale publisher can
  /// never move the phase backwards.
  enum class Phase : uint8_t {
    kPending = 0,
    kQueued = 1,   // waiting in the QueryService admission queue
    kPhase1 = 2,   // partial aggregation / sink
    kPhase2 = 3,   // merge + emit
    kDone = 4,
    kFailed = 5,
  };
  static const char *PhaseName(Phase phase);

  struct Snapshot {
    Phase phase = Phase::kPending;
    /// Time the session spent queued for admission; 0 when it was admitted
    /// immediately (or never went through a QueryService).
    uint64_t queue_wait_ns = 0;
    uint64_t rows_consumed = 0;
    /// From the caller's cardinality hint; 0 = unknown.
    uint64_t estimated_total_rows = 0;
    /// The planner's D-hat once it has decided; 0 before that.
    uint64_t estimated_groups = 0;
    uint64_t bytes_spilled = 0;
    /// rows_consumed / estimated_total_rows clamped to [0,1]; 0 when the
    /// total is unknown.
    [[nodiscard]] double Fraction() const {
      if (estimated_total_rows == 0) {
        return 0.0;
      }
      double f = static_cast<double>(rows_consumed) /
                 static_cast<double>(estimated_total_rows);
      return f > 1.0 ? 1.0 : f;
    }
    /// Per-query histogram deltas (spill latency, eviction, ...) since
    /// BeginQuery.
    std::map<std::string, HistogramSnapshot> histograms;

    [[nodiscard]] Json ToJson() const;
  };

  QueryProgress() = default;
  QueryProgress(const QueryProgress &) = delete;
  QueryProgress &operator=(const QueryProgress &) = delete;

  /// Captures spill/histogram baselines and arms the handle. Called by
  /// RunGroupedAggregation; a handle can be reused across queries.
  void BeginQuery(uint64_t estimated_total_rows);
  /// Monotone phase advance; regressions are ignored.
  void AdvancePhase(Phase phase);
  /// Relaxed hot-path publish: one fetch_add per morsel chunk.
  void AddRows(uint64_t rows) {
    rows_.fetch_add(rows, std::memory_order_relaxed);
  }
  void SetEstimatedGroups(uint64_t groups) {
    estimated_groups_.store(groups, std::memory_order_relaxed);
  }
  /// Published by the QueryService once the session is admitted; a poller
  /// that sees kQueued reads a live 0 until then.
  void SetQueueWait(uint64_t ns) {
    queue_wait_ns_.store(ns, std::memory_order_relaxed);
  }
  /// Latches the terminal phase (kDone / kFailed).
  void Finish(bool ok);

  /// Safe from any thread at any time.
  [[nodiscard]] Snapshot Poll() const;

 private:
  std::atomic<uint8_t> phase_{0};
  std::atomic<uint64_t> queue_wait_ns_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> estimated_total_rows_{0};
  std::atomic<uint64_t> estimated_groups_{0};

  /// Baselines captured by BeginQuery; written once per query, read by
  /// pollers.
  mutable Mutex lock_{LockRank::kQueryProgress, "QueryProgress::lock_"};
  bool begun_ SSAGG_GUARDED_BY(lock_) = false;
  uint64_t spill_baseline_ SSAGG_GUARDED_BY(lock_) = 0;
  std::map<std::string, HistogramSnapshot> hist_baseline_
      SSAGG_GUARDED_BY(lock_);
};

}  // namespace ssagg

#endif  // SSAGG_OBSERVE_PROGRESS_H_
