#include "core/physical_hash_aggregate.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "observe/metrics.h"
#include "observe/trace.h"

namespace ssagg {

namespace {

/// Smallest entry array of a phase-2 or early-compaction table.
constexpr idx_t kMinPartitionTableCapacity = 1024;
/// Headroom on the planner's per-partition group estimate: partitions are
/// not equally full, and the estimate itself is off by a few percent.
constexpr double kGroupEstimateMargin = 1.5;
/// The entry arrays of all threads' partition tables together take at most
/// this fraction of the memory limit (they are non-paged charges).
constexpr idx_t kPartitionTableLimitDivisor = 8;

}  // namespace

Result<std::unique_ptr<PhysicalHashAggregate>> PhysicalHashAggregate::Create(
    BufferManager &buffer_manager, std::vector<LogicalTypeId> input_types,
    std::vector<idx_t> group_columns, std::vector<AggregateRequest> aggregates,
    HashAggregateConfig config) {
  SSAGG_ASSIGN_OR_RETURN(auto forced, AggregateStrategyFromEnv());
  if (forced) {
    config.strategy = *forced;
  }
  SSAGG_ASSIGN_OR_RETURN(
      auto row_layout,
      AggregateRowLayout::Build(input_types, group_columns, aggregates));
  auto agg = std::unique_ptr<PhysicalHashAggregate>(new PhysicalHashAggregate(
      buffer_manager, std::move(input_types), std::move(row_layout), config));

  if (config.enable_direct_index && agg->row_layout_.group_count == 1 &&
      agg->input_types_[agg->row_layout_.group_columns[0]] ==
          LogicalTypeId::kInt64) {
    agg->direct_key_column_ = agg->row_layout_.group_columns[0];
  }

  AggregatePlanner::Options planner_options;
  planner_options.strategy = config.strategy;
  planner_options.early_agg = config.early_aggregation;
  planner_options.sample_rows = config.planner_sample_rows;
  planner_options.phase1_capacity = config.phase1_capacity;
  planner_options.radix_partitions = idx_t{1} << config.radix_bits;
  planner_options.reset_fill_ratio = config.reset_fill_ratio;
  planner_options.row_width_bytes = agg->row_layout_.layout.RowWidth();
  planner_options.memory_limit_bytes = buffer_manager.memory_limit();
  planner_options.total_rows = config.expected_input_rows;
  planner_options.enable_direct_index =
      agg->direct_key_column_ != kInvalidIndex;
  agg->planner_ = std::make_unique<AggregatePlanner>(
      planner_options, MetricsRegistry::Global());
  return agg;
}

Status PhysicalHashAggregate::MakePhase1Table(
    std::unique_ptr<GroupedAggregateHashTable> *out) {
  GroupedAggregateHashTable::Config ht_config;
  ht_config.capacity = config_.phase1_capacity;
  ht_config.radix_bits = config_.radix_bits;
  ht_config.resizable = false;
  ht_config.use_salt = config_.use_salt;
  ht_config.vectorized_probe = config_.vectorized_probe;
  ht_config.reset_fill_ratio = config_.reset_fill_ratio;
  SSAGG_ASSIGN_OR_RETURN(*out,
                         GroupedAggregateHashTable::Create(
                             buffer_manager_, row_layout_, ht_config));
  return Status::OK();
}

void PhysicalHashAggregate::ObserveChunkKeyRange(const DataChunk &chunk) {
  const Vector &key_vec = chunk.column(direct_key_column_);
  const auto *keys = key_vec.Values<int64_t>();
  const ValidityMask &validity = key_vec.validity();
  const idx_t count = chunk.size();
  int64_t lo = 0;
  int64_t hi = 0;
  bool seen = false;
  for (idx_t r = 0; r < count; r++) {
    if (!validity.RowIsValid(r)) {
      continue;
    }
    if (!seen) {
      lo = hi = keys[r];
      seen = true;
      continue;
    }
    lo = std::min(lo, keys[r]);
    hi = std::max(hi, keys[r]);
  }
  if (seen) {
    planner_->ObserveKeyRange(lo, hi);
  }
}

Result<std::unique_ptr<LocalSinkState>> PhysicalHashAggregate::InitLocal() {
  auto state = std::make_unique<LocalState>();
  SSAGG_RETURN_NOT_OK(MakePhase1Table(&state->ht));
  planner_->RegisterThread();
  sink_threads_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<LocalSinkState>(std::move(state));
}

Status PhysicalHashAggregate::Sink(DataChunk &chunk, LocalSinkState &state) {
  auto &local = static_cast<LocalState &>(state);
  if (planner_->sampling()) {
    // Phase 0: the classic fixed-table path, with the chunk's group hashes
    // (already computed by AddChunk) feeding the estimator. The window
    // closes inside Observe once enough rows were seen, so the key range
    // (direct-index candidacy) must be fed first.
    SSAGG_RETURN_NOT_OK(local.ht->AddChunk(chunk));
    if (direct_key_column_ != kInvalidIndex) {
      ObserveChunkKeyRange(chunk);
    }
    planner_->Observe(local.ht->LastChunkHashes(), chunk.size());
    if (local.ht->NeedsReset()) {
      local.ht->ClearPointerTable();
    }
    return MaybeEarlyAggregate(local);
  }
  PublishPlannerEstimate();

  if (planner_->EffectiveStrategy() == AggregateStrategy::kCentralMerge) {
    if (!local.merge_ht) {
      SSAGG_RETURN_NOT_OK(TransitionLocal(local));
    }
    SSAGG_RETURN_NOT_OK(local.merge_ht->AddChunk(chunk));
    if (local.merge_ht->Count() > local.demote_limit) {
      // Misestimate guard: the table outgrew the decision. Flip the whole
      // query to the radix plan; other threads notice on their next chunk.
      planner_->Demote();
      SSAGG_RETURN_NOT_OK(DemoteLocal(local));
    }
    return Status::OK();
  }

  // Radix plan (chosen, forced, or demoted-to).
  if (local.merge_ht) {
    // Another thread demoted the query after this one transitioned.
    SSAGG_RETURN_NOT_OK(DemoteLocal(local));
  }
  if (planner_->phase1_bypass()) {
    // A unique sample: phase-1 probes would miss, so every row goes
    // straight into its radix partition and phase 2 groups them. Only the
    // partitions' write pages stay pinned; there is nothing to reset.
    SSAGG_RETURN_NOT_OK(local.ht->AppendChunk(chunk));
    local.bypassed_rows += chunk.size();
    return MaybeEarlyAggregate(local);
  }
  SSAGG_RETURN_NOT_OK(local.ht->AddChunk(chunk));
  if (local.ht->NeedsReset()) {
    // Reset once two-thirds full: only the entry array is cleared, the
    // tuples stay in place and their pages become evictable.
    local.ht->ClearPointerTable();
  }
  return MaybeEarlyAggregate(local);
}

void PhysicalHashAggregate::PublishPlannerEstimate() {
  if (progress_groups_published_.load(std::memory_order_relaxed)) {
    return;
  }
  QueryProgress *progress = progress_.load(std::memory_order_acquire);
  if (progress == nullptr || !planner_->decided()) {
    return;
  }
  if (!progress_groups_published_.exchange(true,
                                           std::memory_order_relaxed)) {
    progress->SetEstimatedGroups(planner_->decision().estimated_groups);
  }
}

Status PhysicalHashAggregate::TransitionLocal(LocalState &local) {
  const PlannerDecision decision = planner_->decision();
  TraceSpan span("planner.transition", "agg", decision.local_table_capacity);
  GroupedAggregateHashTable::Config ht_config;
  ht_config.capacity = decision.local_table_capacity;
  // Same fan-out as the fixed tables: its rows join the partition-wise
  // exchange at Combine, demoted or not.
  ht_config.radix_bits = config_.radix_bits;
  ht_config.resizable = true;
  ht_config.use_salt = config_.use_salt;
  ht_config.vectorized_probe = config_.vectorized_probe;
  ht_config.reset_fill_ratio = config_.reset_fill_ratio;
  if (decision.direct_index) {
    ht_config.direct_min = decision.direct_min;
    ht_config.direct_range = decision.direct_range;
  }
  SSAGG_ASSIGN_OR_RETURN(
      auto merge_ht, GroupedAggregateHashTable::Create(buffer_manager_,
                                                       row_layout_, ht_config));
  // Fold the rows sampled into the fixed table (possibly duplicated across
  // resets) into the right-sized table, then retire the fixed table.
  local.ht->ReleasePointerTable();
  auto &sampled = local.ht->data();
  for (idx_t p = 0; p < sampled.PartitionCount(); p++) {
    SSAGG_RETURN_NOT_OK(
        MergeCollectionInto(*merge_ht, sampled.partition(p), nullptr));
  }
  local.carry_stats.Merge(local.ht->stats());
  local.carry_resets += local.ht->stats().resets;
  local.ht.reset();
  local.merge_ht = std::move(merge_ht);
  local.demote_limit = decision.demote_group_limit;
  return Status::OK();
}

Status PhysicalHashAggregate::DemoteLocal(LocalState &local) {
  TraceSpan span("planner.demote", "agg", local.merge_ht->Count());
  // Release the merge table's pins so its pages become spillable; its rows
  // are fully grouped within the table, and join global_data_ at Combine.
  local.merge_ht->ReleasePointerTable();
  local.retired.push_back(std::move(local.merge_ht));
  return MakePhase1Table(&local.ht);
}

idx_t PhysicalHashAggregate::PartitionTableCapacity(idx_t rows,
                                                    idx_t threads) const {
  // The row count is exact and never undercounts the groups; the estimate
  // keeps a partition full of duplicates from an oversized table. A low
  // estimate only costs resizes.
  const double groups =
      std::min(static_cast<double>(rows), PartitionGroupBound());
  // A resizable table grows when the groups plus an all-new chunk would
  // reach the fill ratio; room for both means it never does.
  const auto needed = static_cast<idx_t>(
      (groups + static_cast<double>(kVectorSize)) / config_.reset_fill_ratio);
  const idx_t budget = buffer_manager_.memory_limit() /
                       kPartitionTableLimitDivisor /
                       std::max<idx_t>(1, threads) / sizeof(uint64_t);
  const idx_t cap = std::min(std::bit_floor(std::max<idx_t>(budget, 1)),
                             idx_t{1} << kMaxHashTableBits);
  return std::max(kMinPartitionTableCapacity,
                  std::min(std::bit_ceil(needed + 1), cap));
}

double PhysicalHashAggregate::PartitionGroupBound() const {
  if (!planner_->decided()) {
    return std::numeric_limits<double>::infinity();
  }
  const double partitions = static_cast<double>(idx_t{1}
                                                << config_.radix_bits);
  return kGroupEstimateMargin *
         static_cast<double>(planner_->decision().estimated_groups) /
         partitions;
}

bool PhysicalHashAggregate::GroupsInPlace(const TupleDataCollection &partition,
                                          idx_t threads) const {
  // A partition of duplicates takes the copy path, which pins only its
  // groups; in place pins every row until emission.
  if (!planner_->decided() ||
      static_cast<double>(partition.Count()) > PartitionGroupBound()) {
    return false;
  }
  // A partition the estimate wrongly calls unique must still fit its share.
  const idx_t limit = buffer_manager_.memory_limit();
  return std::max<idx_t>(1, threads) * partition.SizeInBytes() <=
         limit - limit / kPartitionTableLimitDivisor;
}

Status PhysicalHashAggregate::MaybeEarlyAggregate(LocalState &local) {
  if (!local.ht || !planner_->ShouldEarlyAggregate()) {
    return Status::OK();
  }
  idx_t used = buffer_manager_.memory_used();
  idx_t local_rows = local.ht->data().Count();
  if (used > config_.early_aggregation_ratio *
                 buffer_manager_.memory_limit() &&
      local_rows >= config_.early_aggregation_min_rows &&
      local_rows >= 2 * local.last_compact_count) {
    SSAGG_RETURN_NOT_OK(EarlyCompactLocal(local));
    local.last_compact_count = local.ht->data().Count();
  }
  return Status::OK();
}

Status PhysicalHashAggregate::EarlyCompactLocal(LocalState &local) {
  TraceSpan span("early_compact", "agg", local.ht->data().Count());
  // The pointer table may reference rows that are about to move; clear it
  // (this also releases the append pins).
  local.ht->ClearPointerTable();
  auto &data = local.ht->data();
  idx_t before = data.Count();
  for (idx_t p = 0; p < data.PartitionCount(); p++) {
    TupleDataCollection &part = data.partition(p);
    if (part.Count() < kVectorSize) {
      continue;  // nothing worth compacting
    }
    GroupedAggregateHashTable::Config ht_config;
    ht_config.capacity = PartitionTableCapacity(
        part.Count(), sink_threads_.load(std::memory_order_relaxed));
    ht_config.radix_bits = 0;
    ht_config.resizable = true;
    ht_config.use_salt = config_.use_salt;
    ht_config.vectorized_probe = config_.vectorized_probe;
    ht_config.reset_fill_ratio = config_.reset_fill_ratio;
    SSAGG_ASSIGN_OR_RETURN(
        auto compactor, GroupedAggregateHashTable::Create(
                            buffer_manager_, row_layout_, ht_config));
    SSAGG_RETURN_NOT_OK(MergeCollectionInto(*compactor, part, nullptr));
    compactor->ReleasePointerTable();
    // Replace the partition's contents with the compacted rows.
    part.Reset();
    part.Combine(compactor->data().partition(0));
  }
  idx_t after = data.Count();
  local.early_compactions++;
  local.early_compacted_rows += before - after;
  return Status::OK();
}

Status PhysicalHashAggregate::MergeCollectionInto(
    GroupedAggregateHashTable &target, TupleDataCollection &source,
    TaskExecutor *executor) {
  if (source.Count() == 0) {
    return Status::OK();
  }
  // Warm spilled pages while the scan sets up; the scan itself prefetches
  // one page ahead from then on.
  source.PrefetchForScan(4);
  DataChunk layout_chunk(row_layout_.layout.Types());
  std::vector<data_ptr_t> src_rows(kVectorSize);
  TupleDataScanState scan;
  source.InitScan(scan, /*destroy_after_scan=*/true);
  while (true) {
    SSAGG_ASSIGN_OR_RETURN(bool more,
                           source.Scan(scan, layout_chunk, src_rows.data()));
    if (!more) {
      break;
    }
    if (executor != nullptr) {
      SSAGG_RETURN_NOT_OK(executor->CheckDeadline());
    }
    SSAGG_RETURN_NOT_OK(
        target.CombineSourceChunk(layout_chunk, src_rows.data()));
  }
  return Status::OK();
}

Status PhysicalHashAggregate::Combine(LocalSinkState &state) {
  auto &local = static_cast<LocalState &>(state);
  // Every table the thread built joins the partition-wise exchange, a
  // central table included: it is radix-partitioned with the query's
  // fan-out. The exchange releases the append pins, and each entry array
  // is freed with its table after the rows are handed over: freed before,
  // it measurably raised peak RSS (DESIGN.md section 11).
  if (local.merge_ht) {
    local.retired.push_back(std::move(local.merge_ht));
  }
  if (local.ht) {
    local.retired.push_back(std::move(local.ht));
  }
  ScopedLock guard(lock_);
  for (auto &table : local.retired) {
    PushGlobalData(*table);
  }
  local.retired.clear();
  stats_.ht.Merge(local.carry_stats);
  stats_.phase1_resets += local.carry_resets;
  stats_.phase1_bypassed_rows += local.bypassed_rows;
  stats_.early_compactions += local.early_compactions;
  stats_.early_compacted_rows += local.early_compacted_rows;
  return Status::OK();
}

void PhysicalHashAggregate::PushGlobalData(GroupedAggregateHashTable &table) {
  if (!global_data_) {
    global_data_ = std::make_unique<PartitionedTupleData>(
        buffer_manager_, row_layout_.layout, config_.radix_bits);
  }
  stats_.materialized_rows += table.data().Count();
  const auto &s = table.stats();
  stats_.ht.Merge(s);
  stats_.phase1_resets += s.resets;
  global_data_->Combine(table.data());
}

Status PhysicalHashAggregate::AggregatePartition(PartitionedTupleData &data,
                                                 idx_t partition_idx,
                                                 DataSink &output,
                                                 TaskExecutor &executor) {
  TupleDataCollection &source = data.partition(partition_idx);
  const idx_t rows = source.Count();
  if (rows == 0) {
    return Status::OK();
  }
  TraceSpan span("phase2.partition", "agg", partition_idx);
  const bool in_place = GroupsInPlace(source, executor.num_threads());
  GroupedAggregateHashTable::Config ht_config;
  ht_config.capacity = PartitionTableCapacity(rows, executor.num_threads());
  ht_config.radix_bits = 0;  // a phase-2 table is not repartitioned
  ht_config.resizable = true;
  ht_config.use_salt = config_.use_salt;
  ht_config.vectorized_probe = config_.vectorized_probe;
  ht_config.reset_fill_ratio = config_.reset_fill_ratio;
  SSAGG_ASSIGN_OR_RETURN(
      auto ht, GroupedAggregateHashTable::Create(buffer_manager_, row_layout_,
                                                 ht_config));

  if (in_place) {
    SSAGG_RETURN_NOT_OK(AggregateInPlace(*ht, source, output, executor));
  } else {
    // Merge the partition's pre-aggregated rows into the table's own pages;
    // source pages are destroyed as the scan moves past them.
    SSAGG_RETURN_NOT_OK(MergeCollectionInto(*ht, source, &executor));
    // The pointer table is no longer needed; free it and release the build
    // pins so result pages can be freed as soon as the output scan passes
    // them.
    ht->ReleasePointerTable();
    // Push the fully aggregated partition to the next operator immediately,
    // freeing its pages as they are consumed.
    TupleDataCollection &groups = ht->data().partition(0);
    TupleDataScanState scan;
    groups.InitScan(scan, /*destroy_after_scan=*/true);
    SSAGG_RETURN_NOT_OK(EmitRows(*ht, groups, scan, output, executor));
  }
  ScopedLock guard(lock_);
  stats_.ht.Merge(ht->stats());
  if (in_place) {
    stats_.phase2_in_place_partitions++;
  } else {
    stats_.phase2_copied_rows += rows;
  }
  return Status::OK();
}

Status PhysicalHashAggregate::AggregateInPlace(GroupedAggregateHashTable &ht,
                                               TupleDataCollection &source,
                                               DataSink &output,
                                               TaskExecutor &executor) {
  // One absorbed bit per row, charged to the pool like the entry array.
  const idx_t words = (source.Count() + 63) / 64;
  SSAGG_ASSIGN_OR_RETURN(
      auto absorbed_alloc,
      buffer_manager_.AllocateNonPaged(words * sizeof(uint64_t)));
  auto *absorbed = reinterpret_cast<uint64_t *>(absorbed_alloc.data());
  std::fill_n(absorbed, words, uint64_t{0});

  // Probe pass: gather only the group and hash columns, and hold every page
  // pinned (its string pointers recomputed once, here) until emission.
  source.PrefetchForScan(4);
  DataChunk group_chunk(row_layout_.layout.Types());
  std::vector<data_ptr_t> rows(kVectorSize);
  TupleDataScanState scan;
  source.InitScan(scan);
  scan.column_count = row_layout_.hash_column + 1;
  scan.hold_pins = true;
  idx_t first_row = 0;
  while (true) {
    SSAGG_ASSIGN_OR_RETURN(bool more,
                           source.Scan(scan, group_chunk, rows.data()));
    if (!more) {
      break;
    }
    SSAGG_RETURN_NOT_OK(executor.CheckDeadline());
    SSAGG_RETURN_NOT_OK(
        ht.CombineInPlace(group_chunk, rows.data(), first_row, absorbed));
    first_row += group_chunk.size();
  }
  ht.ReleasePointerTable();

  // Emission: one more pass over the same pages returns the group rows in
  // first-occurrence order, dropping each page's pins and the page itself
  // as it passes.
  source.InitScan(scan, /*destroy_after_scan=*/true);
  scan.skip_rows = absorbed;
  return EmitRows(ht, source, scan, output, executor);
}

Status PhysicalHashAggregate::EmitRows(GroupedAggregateHashTable &table,
                                       TupleDataCollection &rows,
                                       TupleDataScanState &scan,
                                       DataSink &output,
                                       TaskExecutor &executor) {
  SSAGG_ASSIGN_OR_RETURN(auto out_local, output.InitLocal());
  DataChunk layout_chunk(row_layout_.layout.Types());
  std::vector<data_ptr_t> row_ptrs(kVectorSize);
  DataChunk out(OutputTypes());
  idx_t groups = 0;
  while (true) {
    SSAGG_ASSIGN_OR_RETURN(bool more,
                           rows.Scan(scan, layout_chunk, row_ptrs.data()));
    if (!more) {
      break;
    }
    SSAGG_RETURN_NOT_OK(executor.CheckDeadline());
    table.FinalizeChunk(layout_chunk, row_ptrs.data(), out);
    groups += out.size();
    SSAGG_RETURN_NOT_OK(output.Sink(out, *out_local));
  }
  SSAGG_RETURN_NOT_OK(output.Combine(*out_local));
  {
    ScopedLock guard(lock_);
    stats_.unique_groups += groups;
  }
  return Status::OK();
}

Status PhysicalHashAggregate::EmitResults(DataSink &output,
                                          TaskExecutor &executor) {
  // Phase 2 sizes its tables from the decision; an input that ended inside
  // the sampling window has none yet.
  planner_->EnsureDecided();
  // Resolve the exchanged partitions once under the lock; the tasks then
  // own disjoint partitions of them.
  PartitionedTupleData *data;
  {
    ScopedLock guard(lock_);
    data = global_data_.get();
  }
  if (data == nullptr) {
    return Status::OK();  // no input at all
  }
  std::vector<std::function<Status()>> tasks;
  for (idx_t p = 0; p < data->PartitionCount(); p++) {
    tasks.push_back([this, data, p, &output, &executor]() {
      return AggregatePartition(*data, p, output, executor);
    });
  }
  return executor.RunTasks(tasks);
}

HashAggregateStats PhysicalHashAggregate::stats() const {
  // Planner fields first: the planner's lock never nests with lock_.
  const bool decided = planner_->decided();
  PlannerDecision decision = decided ? planner_->decision() : PlannerDecision{};
  const bool demoted = planner_->demoted();
  const double sampling_seconds = planner_->sampling_seconds();
  ScopedLock guard(lock_);
  HashAggregateStats stats = stats_;
  stats.planner = decision;
  stats.planner_decided = decided;
  stats.planner_demoted = demoted;
  stats.sampling_seconds = sampling_seconds;
  return stats;
}

idx_t PhysicalHashAggregate::MaterializedBytes() const {
  ScopedLock guard(lock_);
  return global_data_ ? global_data_->SizeInBytes() : 0;
}

}  // namespace ssagg
