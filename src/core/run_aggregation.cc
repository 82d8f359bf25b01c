#include "core/run_aggregation.h"

#include <chrono>
#include <optional>

#include "buffer/memory_grant.h"
#include "observe/flight_recorder.h"
#include "observe/trace.h"

namespace ssagg {

void AddAggregateStats(const HashAggregateStats &stats,
                       QueryProfile &profile) {
  profile.AddCounter("agg.materialized_rows", stats.materialized_rows);
  profile.AddCounter("agg.unique_groups", stats.unique_groups);
  profile.AddCounter("agg.phase1_resets", stats.phase1_resets);
  profile.AddCounter("agg.phase1_bypassed_rows", stats.phase1_bypassed_rows);
  profile.AddCounter("agg.early_compactions", stats.early_compactions);
  profile.AddCounter("agg.early_compacted_rows", stats.early_compacted_rows);
  profile.AddCounter("agg.phase2_in_place_partitions",
                     stats.phase2_in_place_partitions);
  profile.AddCounter("agg.phase2_copied_rows", stats.phase2_copied_rows);
  profile.AddCounter("agg.ht_probe_steps", stats.ht.probe_steps);
  profile.AddCounter("agg.ht_key_compares", stats.ht.key_compares);
  profile.AddCounter("agg.ht_key_compare_misses", stats.ht.key_compare_misses);
  profile.AddCounter("agg.ht_inserts", stats.ht.inserts);
  profile.AddCounter("agg.ht_resets", stats.ht.resets);
  profile.AddCounter("agg.ht_resizes", stats.ht.resizes);
  profile.AddCounter("agg.ht_probe_rounds", stats.ht.probe_rounds);
  profile.AddCounter("agg.ht_prefetches", stats.ht.prefetches);
  profile.AddTiming("agg.phase1_seconds", stats.phase1_seconds);
  profile.AddTiming("agg.phase2_seconds", stats.phase2_seconds);
  // Planner decision (DESIGN.md section 11). Strategies are recorded as
  // their enum values (1 central, 3 radix).
  if (stats.planner_decided) {
    profile.AddCounter("agg.chosen_strategy",
                       static_cast<idx_t>(stats.planner.strategy));
    profile.AddCounter("agg.advised_strategy",
                       static_cast<idx_t>(stats.planner.advised));
    profile.AddCounter("agg.planner_forced", stats.planner.forced ? 1 : 0);
    // No plan demotes any more. The benchmark ledger still reads this name
    // for its core.planner_demoted metric, and its smoke run fails on a
    // metric that is missing, so it stays 0 until the ledger drops it.
    profile.AddCounter("agg.planner_demoted", 0);
    profile.AddCounter("agg.estimated_groups", stats.planner.estimated_groups);
    profile.AddCounter("agg.sampled_rows", stats.planner.sampled_rows);
    profile.AddCounter("agg.planner_threads", stats.planner.threads);
    profile.AddCounter("agg.direct_index", stats.planner.direct_index ? 1 : 0);
    profile.AddCounter("agg.phase1_bypass",
                       stats.planner.phase1_bypass ? 1 : 0);
    profile.AddCounter("agg.direct_hit_rows", stats.ht.direct_hit_rows);
    profile.AddTiming("agg.sampling_seconds", stats.sampling_seconds);
    profile.AddTiming("agg.cost_central", stats.planner.central_cost);
    profile.AddTiming("agg.cost_radix", stats.planner.radix_cost);
  }
}

Result<HashAggregateStats> RunGroupedAggregation(
    BufferManager &buffer_manager, DataSource &source,
    const std::vector<idx_t> &group_columns,
    const std::vector<AggregateRequest> &aggregates, DataSink &output,
    TaskExecutor &executor, HashAggregateConfig config,
    QueryProfile *profile, QueryProgress *progress, GrantState *grant) {
  // Charge the whole query — operator construction on this thread plus both
  // execution phases on the executor's workers — to the session's grant.
  // The executor's prior grant is restored on every return path, so a
  // service can share one executor across back-to-back sessions.
  GrantScope grant_scope(grant != nullptr ? grant : GrantScope::Current());
  GrantState *prev_executor_grant = executor.memory_grant();
  if (grant != nullptr) {
    executor.SetMemoryGrant(grant);
  }
  struct ExecutorGrantRestore {
    TaskExecutor &executor;
    GrantState *prev;
    ~ExecutorGrantRestore() { executor.SetMemoryGrant(prev); }
  } restore_grant{executor, prev_executor_grant};
  if (config.expected_input_rows == kInvalidIndex) {
    // The planner extrapolates its sampled distinct count with this.
    config.expected_input_rows = source.EstimatedRowCount();
  }
  SSAGG_ASSIGN_OR_RETURN(
      auto agg, PhysicalHashAggregate::Create(buffer_manager, source.Types(),
                                              group_columns, aggregates,
                                              config));
  if (progress != nullptr) {
    progress->BeginQuery(config.expected_input_rows == kInvalidIndex
                             ? 0
                             : config.expected_input_rows);
    agg->SetProgress(progress);
  }
  // Per-query attribution against the cumulative process-wide registry and
  // executor counters: snapshot before, subtract after. The registry
  // snapshot merges every shard, so it is taken only for a profile.
  std::optional<RegistryDelta> delta;
  if (profile != nullptr) {
    delta.emplace();
  }
  ExecutorStats exec_before = executor.stats();
  static const idx_t query_latency_hist =
      MetricsRegistry::Global().HistogramId("query.latency_ns");

  TraceSpan query_span("query", "agg");
  auto t0 = std::chrono::steady_clock::now();
  Status status;
  {
    TraceSpan span("phase1", "agg");
    if (progress != nullptr) {
      progress->AdvancePhase(QueryProgress::Phase::kPhase1);
    }
    status = executor.RunPipeline(source, *agg, progress);
  }
  auto t1 = std::chrono::steady_clock::now();
  if (status.ok()) {
    TraceSpan span("phase2", "agg");
    if (progress != nullptr) {
      progress->AdvancePhase(QueryProgress::Phase::kPhase2);
    }
    status = agg->EmitResults(output, executor);
  }
  auto t2 = std::chrono::steady_clock::now();
  // End-to-end latency, recorded for failed queries too: a tail outlier
  // that errored out is exactly the sample an operator wants to see.
  MetricsRegistry::Global().Record(
      query_latency_hist,
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t0)
              .count()));
  if (!status.ok()) {
    if (progress != nullptr) {
      progress->Finish(/*ok=*/false);
    }
    // Black-box dump: preserve the last trace events leading up to the
    // failure (no-op unless SSAGG_FLIGHT_DUMP is configured).
    (void)FlightRecorder::Global().DumpAnomaly("query_error");
    (void)FlightRecorder::Global().FlushTrace();
    return status;
  }
  HashAggregateStats stats = agg->stats();
  stats.phase1_seconds = std::chrono::duration<double>(t1 - t0).count();
  stats.phase2_seconds = std::chrono::duration<double>(t2 - t0).count() -
                         stats.phase1_seconds;

  if (profile != nullptr) {
    profile->threads = executor.num_threads();
    profile->phase1_seconds += stats.phase1_seconds;
    profile->phase2_seconds += stats.phase2_seconds;
    profile->total_seconds += std::chrono::duration<double>(t2 - t0).count();
    AddAggregateStats(stats, *profile);
    delta->AddTo(*profile);

    ExecutorStats exec = executor.stats();
    profile->AddTiming("exec.worker_seconds",
                       exec.worker_seconds - exec_before.worker_seconds);
    profile->AddTiming("exec.source_seconds",
                       exec.source_seconds - exec_before.source_seconds);
    profile->AddTiming("exec.sink_seconds",
                       exec.sink_seconds - exec_before.sink_seconds);
    profile->AddTiming("exec.combine_seconds",
                       exec.combine_seconds - exec_before.combine_seconds);

    BufferManagerSnapshot snapshot = buffer_manager.Snapshot();
    profile->AddCounter("bm.memory_limit", snapshot.memory_limit);
    profile->AddCounter("bm.frames_mapped", snapshot.frames_mapped);
    profile->AddCounter("bm.temp_file_peak", snapshot.temp_file_peak);
    profile->AddTiming("io.spill_write_seconds", snapshot.spill_write_seconds);
    profile->AddTiming("io.spill_read_seconds", snapshot.spill_read_seconds);
  }
  if (progress != nullptr) {
    progress->Finish(/*ok=*/true);
  }
  // Make partial traces useful: persist what we have after every query
  // (no-op unless SSAGG_TRACE is set).
  (void)FlightRecorder::Global().FlushTrace();
  return stats;
}

}  // namespace ssagg
