#ifndef SSAGG_CORE_GROUPED_AGGREGATE_HASH_TABLE_H_
#define SSAGG_CORE_GROUPED_AGGREGATE_HASH_TABLE_H_

#include <memory>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/hash.h"
#include "core/aggregate_row_layout.h"
#include "core/row_matcher.h"
#include "layout/partitioned_tuple_data.h"

namespace ssagg {

/// DuckDB-style grouped aggregation hash table (paper Section V):
///
///   - an array of 64-bit entries: 48-bit pointer to the group's row,
///     16-bit salt (the top 16 bits of the group's hash) in the upper bits;
///   - linear probing; the salt is compared before following the pointer,
///     so almost all collisions are resolved without touching the rows;
///   - the rows (group keys + hash + sticky payload + aggregate states)
///     are materialized directly into a radix-partitioned, buffer-managed,
///     spillable page layout: the conversion from column-major input to
///     row-major storage happens while partitioning. A phase-2 partition
///     that is grouped in place (CombineInPlace) is never copied again: its
///     groups are its own first rows;
///   - the group's hash is stored as a hidden layout column, so phase 2
///     never rehashes and resize rebuilds the pointer table from the
///     entries' rows.
///
/// The table is single-writer (each execution thread owns one).
class GroupedAggregateHashTable {
 public:
  struct Config {
    /// Entry-array capacity; power of two, at most 2^24 (the offset bits
    /// must not overlap the radix bits). Phase 1 uses a small fixed size.
    idx_t capacity = kPhase1HashTableCapacity;
    idx_t radix_bits = 4;
    /// Phase 2 tables resize instead of resetting. Either kind acts at
    /// kHashTableResetFillRatio: a phase-1 table reports NeedsReset, a
    /// resizable one grows.
    bool resizable = false;
  };

  struct Stats {
    uint64_t probe_steps = 0;     // entry slots inspected
    uint64_t key_compares = 0;    // candidate rows fully key-compared
    uint64_t key_compare_misses = 0;  // comparisons that did not match
    uint64_t inserts = 0;
    uint64_t resets = 0;
    uint64_t resizes = 0;
    // Probe pipeline counters.
    uint64_t probe_rounds = 0;  // pipeline rounds over shrinking sels
    uint64_t prefetches = 0;    // software prefetches issued
    // Direct-index (perfect hash) fast-path counters.
    uint64_t direct_hit_rows = 0;        // rows resolved via the pointer cache
    uint64_t direct_fallback_chunks = 0;  // chunks sent to the generic path

    /// Folds another table's counters into this one — every field, so call
    /// sites cannot silently drop newly added counters.
    void Merge(const Stats &other);
  };

  /// Creates a hash table. `input_types` are the operator's input chunk
  /// column types; `group_columns` index the grouping columns within it;
  /// each aggregate's input_column also indexes into it.
  static Result<std::unique_ptr<GroupedAggregateHashTable>> Create(
      BufferManager &buffer_manager,
      const std::vector<LogicalTypeId> &input_types,
      const std::vector<idx_t> &group_columns,
      const std::vector<AggregateRequest> &aggregates, Config config);

  /// Creates a hash table from a prebuilt row layout (used by the operator,
  /// which shares one layout across all thread-local and phase-2 tables).
  static Result<std::unique_ptr<GroupedAggregateHashTable>> Create(
      BufferManager &buffer_manager, const AggregateRowLayout &row_layout,
      Config config);

  /// Aggregates one input chunk: finds or creates each row's group and
  /// folds the aggregate inputs into the group states.
  Status AddChunk(const DataChunk &input);

  /// Phase-1 lookup bypass: appends every row of `input` to its radix
  /// partition as a group of its own, hash stored, without probing
  /// (duplicates are grouped in phase 2), and folds the aggregate inputs
  /// into the new rows' states. Then drops the append pins of every page
  /// but each partition's row and heap write pages: the rows are final. The
  /// entry array stays allocated and is never probed again.
  Status AppendChunk(const DataChunk &input);

  /// Phase 2: merges rows of another hash table's materialized data (same
  /// layout) into this table. `layout_chunk` is a gathered chunk of layout
  /// columns and `src_rows` the corresponding source row addresses.
  Status CombineSourceChunk(const DataChunk &layout_chunk,
                            data_ptr_t *src_rows);

  /// Phase 2 in place: groups rows of another table's materialized data
  /// without copying them. `layout_chunk` holds the rows' group and hash
  /// columns (the others are not read) and `src_rows` their addresses,
  /// which must stay pinned until the groups are emitted. A row whose group
  /// is new becomes the group's row; a row whose group exists is folded
  /// into that row (sticky aggregates keep the first row's value) and
  /// marked absorbed: bit `first_row + i` of `absorbed` is set for chunk
  /// row i. The table itself materializes nothing.
  Status CombineInPlace(const DataChunk &layout_chunk, data_ptr_t *src_rows,
                        idx_t first_row, uint64_t *absorbed);

  /// Central plan (DESIGN.md section 11): rebuilds the entry array once at
  /// `capacity` (a power of two), rehoming each group by the hash stored in
  /// its row, or resets the table first if its groups would not fit below
  /// the fill ratio. Not counted as a resize. With `direct_range` > 0 on a
  /// single int64 group key, also arms the direct-index (perfect hash)
  /// pointer cache: a key's slot `key - direct_min` holds its group's row,
  /// and slot `direct_range` the NULL group's, so a chunk whose keys are all
  /// cached skips hashing, probing and key matching. A chunk with any
  /// uncached or out-of-range key takes the generic path, which then
  /// backfills the cache, so keys the sample never saw stay correct. The
  /// first reset drops the cache for good: the cached rows lose their pins.
  Status Presize(idx_t capacity, int64_t direct_min, idx_t direct_range);

  /// Phase-1 check: the table must be reset once two-thirds full.
  bool NeedsReset() const {
    return count_ >= capacity_ * kHashTableResetFillRatio;
  }

  /// Resets the pointer table: the 64-bit entry array is cleared while the
  /// materialized tuples stay in place, and the pages that store them are
  /// unpinned — they are no longer active in the hash table and may now be
  /// spilled by the buffer manager (Section V, "RAM-Oblivious").
  void ClearPointerTable();

  /// Frees the entry array and releases the append pins, for a table that
  /// will not be probed again (before its groups are emitted): cheaper than
  /// clearing, and the memory is back in the pool during emission.
  void ReleasePointerTable();

  /// Groups currently reachable through the pointer table.
  idx_t Count() const { return count_; }
  idx_t Capacity() const { return capacity_; }

  /// All materialized rows (across resets).
  PartitionedTupleData &data() { return *data_; }

  /// Group hashes of the most recent AddChunk input (valid for its
  /// input.size() leading slots until the next AddChunk). The planner's
  /// sampling phase reads these so estimation never re-hashes.
  [[nodiscard]] const hash_t *LastChunkHashes() const {
    return hashes_.data();
  }

  const TupleDataLayout &layout() const { return row_layout_.layout; }
  const AggregateRowLayout &row_layout() const { return row_layout_; }
  idx_t GroupColumnCount() const { return row_layout_.group_count; }
  const std::vector<AggregateObject> &aggregates() const {
    return row_layout_.aggregates;
  }

  /// Column types of finalized output chunks: group columns, then one
  /// result column per aggregate (in request order).
  std::vector<LogicalTypeId> OutputTypes() const;

  /// Converts gathered layout rows into an output chunk: group values are
  /// copied through, aggregate states finalized. `out` must have
  /// OutputTypes() columns; its string values reference `layout_chunk` and
  /// must be consumed before the next scan.
  void FinalizeChunk(const DataChunk &layout_chunk, data_ptr_t *row_ptrs,
                     DataChunk &out);

  const Stats &stats() const { return stats_; }

 private:
  GroupedAggregateHashTable(BufferManager &buffer_manager, Config config);

  Status Initialize(AggregateRowLayout row_layout);

  /// Hashes the group columns of `input` into hashes_ and assembles the
  /// layout-shaped append_chunk_ (group columns, hash, sticky payloads).
  void PrepareAppendChunk(const DataChunk &input);
  /// Folds the aggregate inputs of rows [start, start + count) of `input`
  /// into the states of the group rows in row_ptrs_.
  void UpdateStates(const DataChunk &input, idx_t start, idx_t count);

  /// Probes rows [start, start + count) of `layout_chunk` (which must have
  /// exactly the layout's columns, with the hash column filled from
  /// `hashes`); inserts rows whose group is missing. Writes each row's
  /// group-row address into `row_ptrs_`. Each round over the shrinking set
  /// of unresolved rows: (1) prefetch the probed entries; (2) a tight salt
  /// scan that advances every row to its first empty (claimed) or
  /// salt-matching slot, partitioning the rows into new-group and
  /// match-candidate selections; (3) one batched, partition-aware append
  /// of all new groups (intra-batch duplicate keys collapse via
  /// claim-then-backfill); (4) a column-at-a-time key-match pass over the
  /// candidates; mismatching rows advance one slot and stay for the next
  /// round. The resize/budget guard runs once per round, not per row.
  Status FindOrCreateGroups(const DataChunk &layout_chunk,
                            const hash_t *hashes, idx_t start, idx_t count);

  /// New groups a phase-1 (non-resizable) table can still take before
  /// reaching the reset threshold.
  idx_t ResetBudget() const {
    auto threshold = static_cast<idx_t>(capacity_ * kHashTableResetFillRatio);
    return threshold > count_ ? threshold - count_ : 0;
  }

  /// Direct-index fast path: resolves every row of `input` through the
  /// pointer cache and folds the aggregate updates. Sets *handled = false
  /// (mutating nothing) on the first uncached or out-of-range key.
  Status AddChunkDirect(const DataChunk &input, bool *handled);
  /// After a generic-path chunk: caches the group-row pointer of every
  /// in-range key the chunk resolved. Returns whether a key was not cached
  /// before.
  bool BackfillDirect(const DataChunk &input);
  /// Disarms the direct index and frees its cache.
  void DropDirect();

  /// Replaces the entry array with one of `capacity` entries, rehoming each
  /// entry by the hash stored in its row (which is pinned while the array
  /// points at it).
  Status Rebuild(idx_t capacity);

  uint64_t *entries() {
    return reinterpret_cast<uint64_t *>(entries_alloc_.data());
  }

  BufferManager &buffer_manager_;
  Config config_;

  AggregateRowLayout row_layout_;

  NonPagedAllocation entries_alloc_;
  idx_t capacity_ = 0;
  idx_t mask_ = 0;
  idx_t count_ = 0;

  std::unique_ptr<PartitionedTupleData> data_;
  /// During CombineInPlace: the source rows, which new groups point at
  /// instead of appending a copy.
  const data_ptr_t *in_place_rows_ = nullptr;

  // Per-chunk scratch.
  DataChunk append_chunk_;
  std::vector<hash_t> hashes_;
  std::vector<data_ptr_t> row_ptrs_;
  std::vector<data_ptr_t> state_ptrs_;
  std::vector<idx_t> sel_scratch_;

  // Probe-pipeline scratch (indexed by absolute chunk row, like
  // row_ptrs_).
  RowMatcher row_matcher_;
  std::vector<idx_t> ht_offsets_;
  std::vector<uint16_t> salts_;
  std::vector<data_ptr_t> new_row_ptrs_;
  SelectionVector remaining_sel_;
  SelectionVector new_group_sel_;
  SelectionVector compare_sel_;
  SelectionVector no_match_sel_;

  // Direct-index pointer cache (slot direct_range_ = NULL key), armed by
  // Presize; dropped for good on ClearPointerTable (the rows' pins are
  // released with it) or after too many consecutive fallback chunks that
  // cached no new key.
  std::vector<data_ptr_t> direct_ptrs_;
  bool direct_enabled_ = false;
  int64_t direct_min_ = 0;
  idx_t direct_range_ = 0;
  idx_t direct_fallback_streak_ = 0;

  Stats stats_;
};

}  // namespace ssagg

#endif  // SSAGG_CORE_GROUPED_AGGREGATE_HASH_TABLE_H_
