#ifndef SSAGG_CORE_PHYSICAL_HASH_AGGREGATE_H_
#define SSAGG_CORE_PHYSICAL_HASH_AGGREGATE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/mutex.h"
#include "core/aggregate_planner.h"
#include "core/grouped_aggregate_hash_table.h"
#include "execution/operator.h"
#include "execution/task_executor.h"
#include "observe/progress.h"

namespace ssagg {

/// Tuning knobs for the aggregation operator.
struct HashAggregateConfig {
  /// Capacity of the fixed-size thread-local (phase 1) hash table; the
  /// central plan rebuilds it at the capacity its estimate sizes.
  idx_t phase1_capacity = kPhase1HashTableCapacity;
  /// Radix partition fan-out (2^radix_bits partitions). The paper
  /// over-partitions so one fully aggregated partition per thread fits in
  /// memory during phase 2.
  idx_t radix_bits = 4;
  /// Which phase-1 table the threads aggregate into (DESIGN.md section 11).
  /// kAdaptive samples the first chunks and runs central when its thread
  /// tables fit, radix otherwise; the concrete values force a strategy
  /// (tests/ablation; also forced by the SSAGG_AGG_STRATEGY environment
  /// variable, which overrides this field).
  AggregateStrategy strategy = AggregateStrategy::kAdaptive;
  /// Rows (across all threads) the planner samples before deciding.
  idx_t planner_sample_rows = 32768;
  /// Total input rows if the caller knows them (RunGroupedAggregation fills
  /// this from DataSource::EstimatedRowCount); kInvalidIndex = unknown.
  idx_t expected_input_rows = kInvalidIndex;
  /// Early aggregation (paper Section IX): when the memory limit is about
  /// to be exceeded during phase 1, a thread re-aggregates its own
  /// partitions early, collapsing duplicated groups before they are
  /// spilled — trading CPU for reduced intermediate size and I/O. kAuto
  /// lets the planner decide from observed spill pressure and the sampled
  /// duplication ratio; kOn/kOff keep the old static behavior.
  EarlyAggMode early_aggregation = EarlyAggMode::kAuto;
  /// Pool fill ratio that triggers early aggregation.
  double early_aggregation_ratio = 0.8;
};

/// Aggregate progress counters, summed over threads.
struct HashAggregateStats {
  idx_t materialized_rows = 0;   // rows handed to phase 2 (post-compaction)
  idx_t unique_groups = 0;       // rows produced
  idx_t phase1_resets = 0;
  /// Rows the phase-1 lookup bypass appended without probing.
  idx_t phase1_bypassed_rows = 0;
  idx_t early_compactions = 0;   // early-aggregation passes (Section IX)
  idx_t early_compacted_rows = 0;  // rows eliminated by early aggregation
  /// Phase-2 partitions grouped in place over their own rows.
  idx_t phase2_in_place_partitions = 0;
  /// Rows of phase-2 partitions that took the copy path instead (gathered
  /// whole and appended again into the partition's table).
  idx_t phase2_copied_rows = 0;
  GroupedAggregateHashTable::Stats ht;
  /// Wall-clock seconds of the two phases (filled by Execute helpers).
  double phase1_seconds = 0;
  double phase2_seconds = 0;
  /// Planner snapshot (copied from the AggregatePlanner at stats() time).
  PlannerDecision planner;
  bool planner_decided = false;
  double sampling_seconds = 0;
};

/// DuckDB's embarrassingly external parallel hash aggregation (paper
/// Section V, Figure 3), grown an adaptive planning layer (DESIGN.md
/// section 11):
///
///   Phase 0 (Sampling): the first planner_sample_rows rows flow through
///   the classic fixed-size thread tables while their group hashes feed a
///   cardinality estimator; the planner then runs central if its tables
///   fit the memory limit, radix otherwise.
///
///   Phase 1 (Thread-Local Pre-Aggregation): under the radix strategy each
///   worker aggregates morsels into its own small fixed-size salted hash
///   table, materializing groups directly into radix-partitioned spillable
///   pages; the table is reset (pointer array cleared, pages unpinned) at
///   2/3 fill. The phase is RAM-oblivious. When the sample was (nearly)
///   unique, the planner sets the lookup bypass: the threads append every
///   row straight into its radix partition, pinning only each partition's
///   write pages, and leave all grouping to phase 2. Under central each
///   worker rebuilds its table once at the capacity the estimate sizes, so
///   it holds every group; the table still resets at 2/3 fill, so a
///   misestimate costs resets, not memory.
///
///   Phase 2: at Combine every thread table's partitions join one exchange,
///   whatever the plan; each partition is then aggregated independently in
///   parallel, and pushed to the next sink as soon as it is finished, its
///   pages destroyed as they are consumed.
class PhysicalHashAggregate : public DataSink {
 public:
  static Result<std::unique_ptr<PhysicalHashAggregate>> Create(
      BufferManager &buffer_manager, std::vector<LogicalTypeId> input_types,
      std::vector<idx_t> group_columns,
      std::vector<AggregateRequest> aggregates,
      HashAggregateConfig config = {});

  std::vector<LogicalTypeId> OutputTypes() const {
    return row_layout_.OutputTypes();
  }

  // DataSink (phase 1)
  Result<std::unique_ptr<LocalSinkState>> InitLocal() override;
  Status Sink(DataChunk &chunk, LocalSinkState &state) override;
  Status Combine(LocalSinkState &state) override;

  /// Phase 2: aggregates the exchanged partitions in parallel tasks and
  /// pushes finished partitions into `output` ("fully aggregated
  /// partitions are immediately scanned, effectively becoming morsels in
  /// the next pipeline"). Pages are destroyed as they are consumed.
  Status EmitResults(DataSink &output, TaskExecutor &executor);

  /// A snapshot taken under the operator lock: safe to call while phase-2
  /// partition tasks are still merging their counters in.
  [[nodiscard]] HashAggregateStats stats() const;
  /// Total bytes materialized into partitions (intermediate size).
  [[nodiscard]] idx_t MaterializedBytes() const;

  /// The per-query planner (decision, sampling overhead).
  [[nodiscard]] const AggregatePlanner &planner() const { return *planner_; }

  /// Arms live introspection: once the planner commits, its group estimate
  /// (D-hat) is published into `progress` from the first post-decision
  /// Sink. The handle must outlive the operator; may be null.
  void SetProgress(QueryProgress *progress) {
    progress_.store(progress, std::memory_order_release);
  }

 private:
  PhysicalHashAggregate(BufferManager &buffer_manager,
                        std::vector<LogicalTypeId> input_types,
                        AggregateRowLayout row_layout,
                        HashAggregateConfig config)
      : buffer_manager_(buffer_manager),
        input_types_(std::move(input_types)),
        row_layout_(std::move(row_layout)),
        config_(config) {}

  struct LocalState : public LocalSinkState {
    /// The thread's phase-1 table: fixed-size, reset at 2/3 fill, and
    /// rebuilt once at the decision's capacity under the central plan.
    std::unique_ptr<GroupedAggregateHashTable> ht;
    /// The decision, read at the thread's first chunk after it was made.
    bool decided = false;
    bool central = false;
    bool bypass = false;
    idx_t bypassed_rows = 0;
    idx_t last_compact_count = 0;
    idx_t early_compactions = 0;
    idx_t early_compacted_rows = 0;
  };

  /// Sampling phase: feeds the chunk's int64 key extremes to the planner's
  /// direct-index candidate range.
  void ObserveChunkKeyRange(const DataChunk &chunk);

  /// The thread's first chunk after the decision: reads the decision into
  /// `local`, publishes the estimate into progress_ (first thread wins),
  /// and under the central plan rebuilds the thread's table at the
  /// decision's capacity, with the direct index armed if it has one.
  Status AdoptDecision(LocalState &local);

  /// Entry-array capacity for a table that will hold one partition of
  /// `rows` materialized rows (phase 2 and early compaction), with up to
  /// `threads` such tables built at once. Sized from min(rows, the
  /// planner's per-partition group estimate with a margin) so the table
  /// never resizes; capped so the threads' arrays together stay within an
  /// eighth of the memory limit (a capped table grows as needed).
  [[nodiscard]] idx_t PartitionTableCapacity(idx_t rows, idx_t threads) const;
  /// The planner's per-partition group estimate with its margin; infinite
  /// before the planner has decided.
  [[nodiscard]] double PartitionGroupBound() const;
  /// Whether a radix partition is grouped in place (DESIGN.md section 4):
  /// it is near-unique by PartitionGroupBound, and `threads` such
  /// partitions, each pinned whole until emitted, fit in what the entry
  /// arrays leave of the memory limit.
  [[nodiscard]] bool GroupsInPlace(const TupleDataCollection &partition,
                                   idx_t threads) const;

  /// Runs the early-aggregation policy checks and compacts if they pass.
  Status MaybeEarlyAggregate(LocalState &local);
  /// Re-aggregates the thread's own partitions in place, collapsing
  /// duplicated groups materialized across hash-table resets.
  Status EarlyCompactLocal(LocalState &local);

  /// Merges one materialized collection into `target`, destroying it.
  Status MergeCollectionInto(GroupedAggregateHashTable &target,
                             TupleDataCollection &source,
                             TaskExecutor *executor);

  /// Finalizes and pushes the rows `scan` returns from `rows`, whose
  /// groups `table` built.
  Status EmitRows(GroupedAggregateHashTable &table, TupleDataCollection &rows,
                  TupleDataScanState &scan, DataSink &output,
                  TaskExecutor &executor);

  /// `data` is the merged global partition set, resolved under the lock by
  /// EmitResults; partition `partition_idx` is owned by this task from here
  /// on (partition tasks never touch each other's partitions).
  Status AggregatePartition(PartitionedTupleData &data, idx_t partition_idx,
                            DataSink &output, TaskExecutor &executor);
  /// Groups `source` in place with `ht` and emits it: one pass probes the
  /// group and hash columns while holding every page pinned, a second
  /// emits the rows that are groups, destroying each page as it passes.
  Status AggregateInPlace(GroupedAggregateHashTable &ht,
                          TupleDataCollection &source, DataSink &output,
                          TaskExecutor &executor);

  BufferManager &buffer_manager_;
  std::vector<LogicalTypeId> input_types_;
  AggregateRowLayout row_layout_;
  HashAggregateConfig config_;
  std::unique_ptr<AggregatePlanner> planner_;
  /// Input column of the single int64 group key when the layout admits the
  /// direct-index fast path; kInvalidIndex otherwise.
  idx_t direct_key_column_ = kInvalidIndex;
  /// Live introspection handle (optional, set by RunGroupedAggregation).
  std::atomic<QueryProgress *> progress_{nullptr};
  std::atomic<bool> progress_groups_published_{false};
  /// Sink threads (InitLocal calls): how many may compact early at once.
  std::atomic<idx_t> sink_threads_{0};

  mutable Mutex lock_{LockRank::kHashAggregate,
                      "PhysicalHashAggregate::lock_"};
  /// All thread-local materialized partitions, merged partition-wise at
  /// Combine time ("partitions are exchanged between threads"). The
  /// unique_ptr itself is guarded; once EmitResults starts, the pointee's
  /// partitions are partitioned among tasks (disjoint access).
  std::unique_ptr<PartitionedTupleData> global_data_ SSAGG_GUARDED_BY(lock_);
  HashAggregateStats stats_ SSAGG_GUARDED_BY(lock_);
};

}  // namespace ssagg

#endif  // SSAGG_CORE_PHYSICAL_HASH_AGGREGATE_H_
