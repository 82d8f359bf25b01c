#include "core/grouped_aggregate_hash_table.h"

#include <algorithm>
#include <cstring>

#include "observe/trace.h"

namespace ssagg {

namespace {

bool IsPowerOfTwo(idx_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// A slot claimed during the salt scan but not yet backfilled with its row
/// pointer: the salt is already in place, the pointer bits carry a non-zero
/// tag so the slot can never be mistaken for empty (entry 0), even when the
/// salt itself is 0. Rows of the same round that salt-match a claimed slot
/// are deferred to the compare pass, which runs after the batched append
/// has backfilled the real pointer.
inline uint64_t MakeClaimedEntry(uint16_t salt) {
  return (static_cast<uint64_t>(salt) << kSaltShift) | 1ULL;
}

inline void PrefetchRead(const void *ptr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(ptr, 0, 3);
#else
  (void)ptr;
#endif
}

}  // namespace

GroupedAggregateHashTable::GroupedAggregateHashTable(
    BufferManager &buffer_manager, Config config)
    : buffer_manager_(buffer_manager), config_(config) {}

Result<std::unique_ptr<GroupedAggregateHashTable>>
GroupedAggregateHashTable::Create(BufferManager &buffer_manager,
                                  const std::vector<LogicalTypeId> &input_types,
                                  const std::vector<idx_t> &group_columns,
                                  const std::vector<AggregateRequest> &aggregates,
                                  Config config) {
  SSAGG_ASSIGN_OR_RETURN(
      auto row_layout,
      AggregateRowLayout::Build(input_types, group_columns, aggregates));
  return Create(buffer_manager, row_layout, config);
}

Result<std::unique_ptr<GroupedAggregateHashTable>>
GroupedAggregateHashTable::Create(BufferManager &buffer_manager,
                                  const AggregateRowLayout &row_layout,
                                  Config config) {
  if (!IsPowerOfTwo(config.capacity) ||
      config.capacity > (idx_t(1) << kMaxHashTableBits)) {
    return Status::InvalidArgument(
        "hash table capacity must be a power of two <= 2^24");
  }
  if (config.radix_bits > kMaxRadixBits) {
    return Status::InvalidArgument("too many radix bits");
  }
  std::unique_ptr<GroupedAggregateHashTable> ht(
      new GroupedAggregateHashTable(buffer_manager, config));
  SSAGG_RETURN_NOT_OK(ht->Initialize(row_layout));
  return ht;
}

Status GroupedAggregateHashTable::Initialize(AggregateRowLayout row_layout) {
  row_layout_ = std::move(row_layout);

  data_ = std::make_unique<PartitionedTupleData>(
      buffer_manager_, row_layout_.layout, config_.radix_bits);
  capacity_ = config_.capacity;
  mask_ = capacity_ - 1;
  SSAGG_ASSIGN_OR_RETURN(entries_alloc_,
                         buffer_manager_.AllocateNonPaged(capacity_ * 8));
  std::memset(entries_alloc_.data(), 0, capacity_ * 8);

  append_chunk_.Initialize(row_layout_.layout.Types());
  hashes_.resize(kVectorSize);
  row_ptrs_.resize(kVectorSize);
  state_ptrs_.resize(kVectorSize);
  sel_scratch_.resize(kVectorSize);

  row_matcher_.Initialize(row_layout_.layout, row_layout_.group_count,
                          row_layout_.hash_column);
  ht_offsets_.resize(kVectorSize);
  salts_.resize(kVectorSize);
  new_row_ptrs_.resize(kVectorSize);
  return Status::OK();
}

std::vector<LogicalTypeId> GroupedAggregateHashTable::OutputTypes() const {
  return row_layout_.OutputTypes();
}

Status GroupedAggregateHashTable::FindOrCreateGroups(
    const DataChunk &layout_chunk, const hash_t *hashes, idx_t start,
    idx_t count) {
  SSAGG_DASSERT(start + count <= kVectorSize);
  uint64_t *table = entries();

  // All slot indices and salts are computed up front, once.
  for (idx_t r = start; r < start + count; r++) {
    ht_offsets_[r] = hashes[r] & mask_;
    salts_[r] = ExtractSalt(hashes[r]);
  }
  remaining_sel_.InitRange(start, count);

  while (!remaining_sel_.empty()) {
    const idx_t remaining = remaining_sel_.size();
    stats_.probe_rounds++;

    // The grow/budget guard is hoisted out of the per-row loop: one check
    // per round bounds this round's claims. A resizable table grows until
    // even an all-new-groups round stays under the fill threshold; a
    // fixed-size (phase-1) table relies on the caller batching by
    // ResetBudget(), which the per-claim assert below re-checks.
    if (config_.resizable) {
      while (count_ + remaining >= capacity_ * kHashTableResetFillRatio) {
        if (capacity_ >= (idx_t(1) << kMaxHashTableBits)) {
          if (count_ + remaining >= capacity_) {
            return Status::OutOfMemory(
                "hash table cannot grow beyond 2^24 entries; increase radix "
                "bits");
          }
          break;
        }
        TraceSpan span("ht.resize", "agg", capacity_ * 2);
        SSAGG_RETURN_NOT_OK(Rebuild(capacity_ * 2));
        stats_.resizes++;
        table = entries();
        // The mask changed: every unresolved row restarts its probe.
        for (idx_t i = 0; i < remaining; i++) {
          const idx_t r = remaining_sel_[i];
          ht_offsets_[r] = hashes[r] & mask_;
        }
      }
    }

    // Software-prefetch the entries this round will inspect; for a table
    // past cache size this overlaps the dependent loads of the salt scan.
    // An entry array at or under 64 KiB is cache-resident (the planner's
    // central tables are sized to land here at low cardinality), so
    // the pass would be pure issue overhead and is skipped.
    const idx_t *sel = remaining_sel_.data();
    if (capacity_ * sizeof(uint64_t) > idx_t{64} * 1024) {
      for (idx_t i = 0; i < remaining; i++) {
        PrefetchRead(&table[ht_offsets_[sel[i]]]);
      }
      stats_.prefetches += remaining;
    }

    // Salt scan: advance each row to its first empty or salt-matching
    // slot. Empty slots are claimed immediately (salt + tag) so duplicate
    // new keys within the batch collapse: the second row of a duplicate
    // pair salt-matches the claim and is routed to the compare pass.
    new_group_sel_.Clear();
    compare_sel_.Clear();
    no_match_sel_.Clear();
    for (idx_t i = 0; i < remaining; i++) {
      const idx_t r = sel[i];
      const uint16_t salt = salts_[r];
      idx_t idx = ht_offsets_[r];
      while (true) {
        stats_.probe_steps++;
        const uint64_t entry = table[idx];
        if (entry == 0) {
          SSAGG_ASSERT(count_ < capacity_);
          table[idx] = MakeClaimedEntry(salt);
          count_++;
          new_group_sel_.Append(r);
          break;
        }
        if (EntrySalt(entry) == salt) {
          compare_sel_.Append(r);
          break;
        }
        idx = (idx + 1) & mask_;
      }
      ht_offsets_[r] = idx;
    }

    // One batched, partition-aware append materializes every new group of
    // the round (column-major -> row-major conversion happens here), then
    // the claimed entries are backfilled with the row addresses. In place,
    // each new group's row is its source row.
    if (!new_group_sel_.empty()) {
      const idx_t new_count = new_group_sel_.size();
      if (in_place_rows_ != nullptr) {
        for (idx_t i = 0; i < new_count; i++) {
          new_row_ptrs_[i] = in_place_rows_[new_group_sel_[i]];
        }
      } else {
        SSAGG_RETURN_NOT_OK(data_->Append(layout_chunk, hashes,
                                          new_group_sel_.data(), new_count,
                                          new_row_ptrs_.data()));
      }
      for (idx_t i = 0; i < new_count; i++) {
        const idx_t r = new_group_sel_[i];
        table[ht_offsets_[r]] = MakeEntry(new_row_ptrs_[i], salts_[r]);
        row_ptrs_[r] = new_row_ptrs_[i];
      }
      stats_.inserts += new_count;
    }

    // Column-at-a-time key matching over the candidates. The candidate row
    // pointers are gathered (and prefetched) first; gathering happens after
    // the backfill so candidates that salt-matched a claim of this very
    // round see the real row.
    if (!compare_sel_.empty()) {
      const idx_t compare_count = compare_sel_.size();
      for (idx_t i = 0; i < compare_count; i++) {
        const idx_t r = compare_sel_[i];
        data_ptr_t row = EntryPointer(table[ht_offsets_[r]]);
        row_ptrs_[r] = row;
        PrefetchRead(row);
      }
      stats_.prefetches += compare_count;
      row_matcher_.Match(layout_chunk, row_ptrs_.data(), compare_sel_,
                         no_match_sel_);
      stats_.key_compares += compare_count;
      stats_.key_compare_misses += no_match_sel_.size();
      // Matched rows are done (row_ptrs_ already points at their group);
      // mismatches advance one slot and go into the next round.
      for (idx_t i = 0; i < no_match_sel_.size(); i++) {
        const idx_t r = no_match_sel_[i];
        ht_offsets_[r] = (ht_offsets_[r] + 1) & mask_;
      }
    }
    remaining_sel_.Swap(no_match_sel_);
  }
  return Status::OK();
}

Status GroupedAggregateHashTable::AddChunkDirect(const DataChunk &input,
                                                 bool *handled) {
  const idx_t count = input.size();
  const Vector &key_vec = input.column(row_layout_.group_columns[0]);
  const auto *keys = key_vec.Values<int64_t>();
  const ValidityMask &validity = key_vec.validity();
  const uint64_t range = direct_range_;
  const auto min = static_cast<uint64_t>(direct_min_);
  // Resolve every row before mutating anything: a single uncached or
  // out-of-range key (wraparound makes below-min keys land past `range`)
  // bails the whole chunk out to the generic path, which is then free to
  // insert and update from scratch.
  *handled = false;
  if (validity.AllValid()) {
    for (idx_t r = 0; r < count; r++) {
      const uint64_t idx = static_cast<uint64_t>(keys[r]) - min;
      if (idx >= range || direct_ptrs_[idx] == nullptr) {
        return Status::OK();
      }
      row_ptrs_[r] = direct_ptrs_[idx];
    }
  } else {
    for (idx_t r = 0; r < count; r++) {
      uint64_t idx = range;  // the NULL-key slot
      if (validity.RowIsValid(r)) {
        idx = static_cast<uint64_t>(keys[r]) - min;
        if (idx >= range) {
          return Status::OK();
        }
      }
      if (direct_ptrs_[idx] == nullptr) {
        return Status::OK();
      }
      row_ptrs_[r] = direct_ptrs_[idx];
    }
  }
  // Every group already exists: sticky aggregates are first-wins (nothing
  // to do) and the non-sticky fold below is the same one AddChunk runs.
  const idx_t aggr_offset = row_layout_.layout.AggregateOffset();
  for (const auto &agg : row_layout_.aggregates) {
    if (agg.sticky) {
      continue;
    }
    const idx_t offset = aggr_offset + agg.state_offset;
    for (idx_t i = 0; i < count; i++) {
      state_ptrs_[i] = row_ptrs_[i] + offset;
    }
    const Vector *arg = agg.request.input_column == kInvalidIndex
                            ? nullptr
                            : &input.column(agg.request.input_column);
    agg.function.update(arg, nullptr, state_ptrs_.data(), count);
  }
  stats_.direct_hit_rows += count;
  *handled = true;
  return Status::OK();
}

bool GroupedAggregateHashTable::BackfillDirect(const DataChunk &input) {
  const idx_t count = input.size();
  const Vector &key_vec = input.column(row_layout_.group_columns[0]);
  const auto *keys = key_vec.Values<int64_t>();
  const ValidityMask &validity = key_vec.validity();
  const uint64_t range = direct_range_;
  const auto min = static_cast<uint64_t>(direct_min_);
  bool cached_new = false;
  for (idx_t r = 0; r < count; r++) {
    uint64_t idx = range;
    if (validity.RowIsValid(r)) {
      idx = static_cast<uint64_t>(keys[r]) - min;
      if (idx >= range) {
        continue;  // outside the cached window; stays on the generic path
      }
    }
    cached_new |= direct_ptrs_[idx] == nullptr;
    direct_ptrs_[idx] = row_ptrs_[r];
  }
  return cached_new;
}

Status GroupedAggregateHashTable::AddChunk(const DataChunk &input) {
  const idx_t count = input.size();
  if (count == 0) {
    return Status::OK();
  }
  if (direct_enabled_) {
    bool handled = false;
    SSAGG_RETURN_NOT_OK(AddChunkDirect(input, &handled));
    if (handled) {
      direct_fallback_streak_ = 0;
      return Status::OK();
    }
    stats_.direct_fallback_chunks++;
  }
  PrepareAppendChunk(input);

  // Process in sub-batches so a single chunk can never overflow a small
  // fixed-size (phase-1) table: each sub-batch creates at most
  // ResetBudget() new groups; once the budget is gone the table is reset
  // mid-chunk (updates for the previous sub-batch have already been
  // applied, so releasing the pins is safe). The reset also drops the
  // direct index, so the backfill below never caches a row it unpinned.
  idx_t done = 0;
  while (done < count) {
    idx_t batch = count - done;
    if (!config_.resizable) {
      idx_t budget = ResetBudget();
      if (budget == 0) {
        ClearPointerTable();
        budget = ResetBudget();
        SSAGG_ASSERT(budget > 0);
      }
      batch = std::min(batch, budget);
    }
    SSAGG_RETURN_NOT_OK(
        FindOrCreateGroups(append_chunk_, hashes_.data(), done, batch));
    UpdateStates(input, done, batch);
    done += batch;
  }
  if (direct_enabled_) {
    // A fallback that caches a new key is warmup. A stream that keeps
    // missing without caching anything (its keys left the sampled span)
    // pays one wasted cache-resolve pass per chunk, so the cache is dropped
    // after 64 such chunks in a row.
    if (BackfillDirect(input)) {
      direct_fallback_streak_ = 0;
    } else if (++direct_fallback_streak_ > 64) {
      DropDirect();
    }
  }
  return Status::OK();
}

Status GroupedAggregateHashTable::AppendChunk(const DataChunk &input) {
  const idx_t count = input.size();
  if (count == 0) {
    return Status::OK();
  }
  PrepareAppendChunk(input);
  SSAGG_RETURN_NOT_OK(data_->Append(append_chunk_, hashes_.data(), nullptr,
                                    count, row_ptrs_.data()));
  UpdateStates(input, 0, count);
  data_->ReleaseFilledPins();
  return Status::OK();
}

void GroupedAggregateHashTable::PrepareAppendChunk(const DataChunk &input) {
  const idx_t count = input.size();
  ChunkHash(input, row_layout_.group_columns, hashes_.data());

  // Group columns and sticky payloads are referenced shallowly; the hash
  // column is filled from hashes_.
  for (idx_t g = 0; g < row_layout_.group_count; g++) {
    CopyVectorShallow(input.column(row_layout_.group_columns[g]),
                      append_chunk_.column(g), count);
  }
  // hash_t and the layout's int64 hash column are bit-identical: one
  // memcpy, no per-row conversion loop.
  static_assert(sizeof(hash_t) == sizeof(int64_t));
  std::memcpy(append_chunk_.column(row_layout_.hash_column).data(),
              hashes_.data(), count * sizeof(hash_t));
  append_chunk_.column(row_layout_.hash_column).validity().Reset();
  for (const auto &agg : row_layout_.aggregates) {
    if (agg.sticky) {
      CopyVectorShallow(input.column(agg.request.input_column),
                        append_chunk_.column(agg.layout_column), count);
    }
  }
  append_chunk_.SetCount(count);
}

void GroupedAggregateHashTable::UpdateStates(const DataChunk &input,
                                             idx_t start, idx_t count) {
  const idx_t aggr_offset = row_layout_.layout.AggregateOffset();
  for (const auto &agg : row_layout_.aggregates) {
    if (agg.sticky) {
      continue;  // materialized at group creation
    }
    idx_t offset = aggr_offset + agg.state_offset;
    for (idx_t i = 0; i < count; i++) {
      sel_scratch_[i] = start + i;
      state_ptrs_[i] = row_ptrs_[start + i] + offset;
    }
    const Vector *arg = agg.request.input_column == kInvalidIndex
                            ? nullptr
                            : &input.column(agg.request.input_column);
    const idx_t *sel =
        (start == 0 && count == input.size()) ? nullptr : sel_scratch_.data();
    agg.function.update(arg, sel, state_ptrs_.data(), count);
  }
}

Status GroupedAggregateHashTable::CombineSourceChunk(
    const DataChunk &layout_chunk, data_ptr_t *src_rows) {
  const idx_t count = layout_chunk.size();
  if (count == 0) {
    return Status::OK();
  }
  // Hashes were materialized with the rows: no rehashing in phase 2. The
  // int64 hash column is bit-identical to hash_t, so it is probed in place
  // through a reinterpreted pointer instead of a per-row copy loop.
  static_assert(sizeof(hash_t) == sizeof(int64_t));
  const auto *hashes = reinterpret_cast<const hash_t *>(
      layout_chunk.column(row_layout_.hash_column).data());
  SSAGG_RETURN_NOT_OK(FindOrCreateGroups(layout_chunk, hashes, 0, count));
  const idx_t aggr_offset = row_layout_.layout.AggregateOffset();
  for (const auto &agg : row_layout_.aggregates) {
    if (agg.sticky) {
      continue;  // first-wins: the appended copy already has the value
    }
    idx_t offset = aggr_offset + agg.state_offset;
    for (idx_t i = 0; i < count; i++) {
      agg.function.combine(src_rows[i] + offset, row_ptrs_[i] + offset);
    }
  }
  return Status::OK();
}

Status GroupedAggregateHashTable::CombineInPlace(const DataChunk &layout_chunk,
                                                 data_ptr_t *src_rows,
                                                 idx_t first_row,
                                                 uint64_t *absorbed) {
  const idx_t count = layout_chunk.size();
  if (count == 0) {
    return Status::OK();
  }
  static_assert(sizeof(hash_t) == sizeof(int64_t));
  const auto *hashes = reinterpret_cast<const hash_t *>(
      layout_chunk.column(row_layout_.hash_column).data());
  in_place_rows_ = src_rows;
  Status status = FindOrCreateGroups(layout_chunk, hashes, 0, count);
  in_place_rows_ = nullptr;
  SSAGG_RETURN_NOT_OK(status);
  // A row that started a group is that group's row already; every other
  // row is folded into its group's row and skipped at emission.
  idx_t folded = 0;
  for (idx_t i = 0; i < count; i++) {
    if (row_ptrs_[i] != src_rows[i]) {
      sel_scratch_[folded++] = i;
      const idx_t ordinal = first_row + i;
      absorbed[ordinal / 64] |= uint64_t{1} << (ordinal % 64);
    }
  }
  const idx_t aggr_offset = row_layout_.layout.AggregateOffset();
  for (const auto &agg : row_layout_.aggregates) {
    if (agg.sticky) {
      continue;  // first-wins: the group's row holds the first value
    }
    const idx_t offset = aggr_offset + agg.state_offset;
    for (idx_t k = 0; k < folded; k++) {
      const idx_t i = sel_scratch_[k];
      agg.function.combine(src_rows[i] + offset, row_ptrs_[i] + offset);
    }
  }
  return Status::OK();
}

void GroupedAggregateHashTable::Stats::Merge(const Stats &other) {
  probe_steps += other.probe_steps;
  key_compares += other.key_compares;
  key_compare_misses += other.key_compare_misses;
  inserts += other.inserts;
  resets += other.resets;
  resizes += other.resizes;
  probe_rounds += other.probe_rounds;
  prefetches += other.prefetches;
  direct_hit_rows += other.direct_hit_rows;
  direct_fallback_chunks += other.direct_fallback_chunks;
}

void GroupedAggregateHashTable::ClearPointerTable() {
  TraceInstant("ht.reset", "agg", count_);
  std::memset(entries_alloc_.data(), 0, capacity_ * 8);
  count_ = 0;
  stats_.resets++;
  // The cached row pointers die with the pins released below; a table that
  // resets has outgrown the small group set the cache was armed for.
  DropDirect();
  // The tuples stay in place; only their pins are released so the buffer
  // manager may evict the pages.
  data_->ReleaseAppendPins();
}

void GroupedAggregateHashTable::DropDirect() {
  direct_enabled_ = false;
  direct_ptrs_ = {};
}

void GroupedAggregateHashTable::ReleasePointerTable() {
  entries_alloc_.Reset();
  capacity_ = 0;
  mask_ = 0;
  data_->ReleaseAppendPins();
}

Status GroupedAggregateHashTable::Presize(idx_t capacity, int64_t direct_min,
                                          idx_t direct_range) {
  SSAGG_ASSERT(IsPowerOfTwo(capacity) &&
               capacity <= (idx_t(1) << kMaxHashTableBits));
  if (count_ >= capacity * kHashTableResetFillRatio) {
    ClearPointerTable();
  }
  SSAGG_RETURN_NOT_OK(Rebuild(capacity));
  if (direct_range > 0 && row_layout_.group_count == 1 &&
      row_layout_.layout.ColumnType(0) == LogicalTypeId::kInt64) {
    direct_enabled_ = true;
    direct_min_ = direct_min;
    direct_range_ = direct_range;
    direct_ptrs_.assign(direct_range + 1, nullptr);
  }
  return Status::OK();
}

Status GroupedAggregateHashTable::Rebuild(idx_t capacity) {
  // Each entry's row (pinned by the table or, in place, by the caller)
  // carries its hash: the new array is built from the old one.
  SSAGG_ASSIGN_OR_RETURN(auto new_alloc,
                         buffer_manager_.AllocateNonPaged(capacity * 8));
  std::memset(new_alloc.data(), 0, capacity * 8);
  const uint64_t *old_table = entries();
  auto *table = reinterpret_cast<uint64_t *>(new_alloc.data());
  const idx_t hash_offset = row_layout_.hash_offset;
  const idx_t mask = capacity - 1;
  for (idx_t i = 0; i < capacity_; i++) {
    const uint64_t entry = old_table[i];
    if (entry == 0) {
      continue;
    }
    hash_t h;
    std::memcpy(&h, EntryPointer(entry) + hash_offset, sizeof(hash_t));
    idx_t idx = h & mask;
    while (table[idx] != 0) {
      idx = (idx + 1) & mask;
    }
    table[idx] = entry;
  }
  entries_alloc_ = std::move(new_alloc);
  capacity_ = capacity;
  mask_ = mask;
  return Status::OK();
}

void GroupedAggregateHashTable::FinalizeChunk(const DataChunk &layout_chunk,
                                              data_ptr_t *row_ptrs,
                                              DataChunk &out) {
  const idx_t count = layout_chunk.size();
  for (idx_t g = 0; g < row_layout_.group_count; g++) {
    CopyVectorShallow(layout_chunk.column(g), out.column(g), count);
  }
  idx_t out_col = row_layout_.group_count;
  const idx_t aggr_offset = row_layout_.layout.AggregateOffset();
  for (const auto &agg : row_layout_.aggregates) {
    Vector &result = out.column(out_col++);
    if (agg.sticky) {
      CopyVectorShallow(layout_chunk.column(agg.layout_column), result, count);
      continue;
    }
    // Finalize marks NULL results only: clear the previous chunk's marks.
    result.validity().Reset();
    idx_t offset = aggr_offset + agg.state_offset;
    for (idx_t i = 0; i < count; i++) {
      agg.function.finalize(row_ptrs[i] + offset, result, i);
    }
  }
  out.SetCount(count);
}

}  // namespace ssagg
