#ifndef SSAGG_EXECUTION_TASK_EXECUTOR_H_
#define SSAGG_EXECUTION_TASK_EXECUTOR_H_

#include <chrono>
#include <functional>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "execution/operator.h"
#include "observe/progress.h"

namespace ssagg {

class GrantState;

/// Per-run observability counters of the executor, summed over workers.
/// Seconds are cumulative thread time, so with N workers busy the whole
/// run, source+sink+combine approaches N x wall clock; the gap between
/// worker_seconds and (source+sink+combine) is time lost to skew/idling.
struct ExecutorStats {
  idx_t workers = 0;
  idx_t chunks = 0;           // morsel chunks pushed into the sink
  idx_t rows = 0;             // rows those chunks carried
  idx_t tasks = 0;            // RunTasks tasks executed
  idx_t deadline_aborts = 0;  // runs aborted by the wall-clock deadline
  double worker_seconds = 0;   // total worker wall clock
  double source_seconds = 0;   // inside DataSource::GetData
  double sink_seconds = 0;     // inside DataSink::Sink ("busy")
  double combine_seconds = 0;  // inside DataSink::Combine

  void Merge(const ExecutorStats &other);
};

/// Runs morsel-driven pipelines and parallel task sets on a fixed number of
/// worker threads (paper Section V, "Parallelism"). Each pipeline run
/// spawns the workers, drives source -> sink until the source is dry, and
/// calls Combine once per thread. The first error aborts the run.
class TaskExecutor {
 public:
  explicit TaskExecutor(idx_t num_threads);

  [[nodiscard]] idx_t num_threads() const { return num_threads_; }

  /// Arms a wall-clock deadline (the benchmark harness' query timeout).
  /// Pipelines abort with Status::Timeout once it passes; long-running
  /// operators may also poll CheckDeadline() from their inner loops.
  void SetDeadline(double seconds_from_now);
  void ClearDeadline() { has_deadline_ = false; }
  Status CheckDeadline() const;

  /// Installs the query's memory grant on every worker thread this executor
  /// spawns (GrantScope around the worker body), so all buffer-manager
  /// reservations made by the run are charged to it. nullptr clears. Set by
  /// the QueryService before a session's run; like SetDeadline, not
  /// thread-safe against a run in flight.
  void SetMemoryGrant(GrantState *grant) { memory_grant_ = grant; }
  [[nodiscard]] GrantState *memory_grant() const { return memory_grant_; }

  /// Executes one pipeline: every worker repeatedly pulls a chunk from the
  /// source and pushes it into the sink, then combines its local state.
  /// When `progress` is given, each worker publishes its consumed rows into
  /// it per chunk (one relaxed fetch_add — pollable live from any thread).
  Status RunPipeline(DataSource &source, DataSink &sink,
                     QueryProgress *progress = nullptr);

  /// Runs independent tasks in parallel, each at most once; tasks are
  /// claimed through an atomic counter (used for partition-wise phase 2).
  Status RunTasks(const std::vector<std::function<Status()>> &tasks);

  /// Counters accumulated since construction (or the last ResetStats).
  /// Returns a copy taken under the stats lock, so it is safe to call while
  /// a run is in flight (you get a consistent snapshot of the workers that
  /// finished so far).
  [[nodiscard]] ExecutorStats stats() const;
  void ResetStats();

 private:
  /// Folds one worker's local counters into stats_ and the global metrics
  /// registry.
  void AccumulateWorker(const ExecutorStats &local);

  idx_t num_threads_;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  GrantState *memory_grant_ = nullptr;

  mutable Mutex stats_lock_{LockRank::kExecutorStats,
                            "TaskExecutor::stats_lock_"};
  ExecutorStats stats_ SSAGG_GUARDED_BY(stats_lock_);

  // Cached global-registry key ids ("exec.*").
  idx_t key_chunks_;
  idx_t key_rows_;
  idx_t key_tasks_;
  idx_t key_deadline_aborts_;
  idx_t key_source_ns_;
  idx_t key_sink_ns_;
  idx_t key_combine_ns_;
  /// Per-morsel Sink() duration histogram ("exec.morsel_sink_ns").
  idx_t hist_morsel_sink_;
};

}  // namespace ssagg

#endif  // SSAGG_EXECUTION_TASK_EXECUTOR_H_
