#ifndef SSAGG_LAYOUT_PARTITIONED_TUPLE_DATA_H_
#define SSAGG_LAYOUT_PARTITIONED_TUPLE_DATA_H_

#include <memory>
#include <vector>

#include "layout/radix_partitioning.h"
#include "layout/tuple_data_collection.h"

namespace ssagg {

/// Radix-partitioned tuple storage: one TupleDataCollection per partition,
/// with tuples routed by the middle bits of their hash. The aggregation
/// operator materializes tuples directly into partitions in row-major form
/// ("By materializing tuples directly into partitions, we avoid copying
/// tuples more than once", Section V).
class PartitionedTupleData {
 public:
  PartitionedTupleData(BufferManager &buffer_manager,
                       const TupleDataLayout &layout, idx_t radix_bits)
      : layout_(layout), radix_bits_(radix_bits) {
    SSAGG_ASSERT(radix_bits <= kMaxRadixBits);
    idx_t n = idx_t(1) << radix_bits;
    partitions_.reserve(n);
    for (idx_t i = 0; i < n; i++) {
      partitions_.push_back(
          std::make_unique<TupleDataCollection>(buffer_manager, layout));
    }
    states_.resize(n);
  }

  idx_t PartitionCount() const { return partitions_.size(); }
  idx_t radix_bits() const { return radix_bits_; }
  const TupleDataLayout &layout() const { return layout_; }

  TupleDataCollection &partition(idx_t i) { return *partitions_[i]; }

  idx_t Count() const {
    idx_t total = 0;
    for (auto &p : partitions_) {
      total += p->Count();
    }
    return total;
  }

  idx_t SizeInBytes() const {
    idx_t total = 0;
    for (auto &p : partitions_) {
      total += p->SizeInBytes();
    }
    return total;
  }

  /// Batched partition-aware append: appends `count` rows of `input`
  /// (selected by `sel`, or 0..count-1), each routed to the partition given
  /// by its hash's radix bits via one counting sort, with one AppendRows
  /// call per touched partition. Row addresses are written to
  /// `row_ptrs_out`, indexed like `sel` (per-row pointers are what the hash
  /// table backfills into its claimed entries). `hashes` is indexed by
  /// input row number. Allocation-free after the first call.
  Status Append(const DataChunk &input, const hash_t *hashes, const idx_t *sel,
                idx_t count, data_ptr_t *row_ptrs_out);

  /// Releases the append pins of all partitions: the pages become eviction
  /// candidates (called when the thread-local hash table is reset).
  void ReleaseAppendPins() {
    for (auto &state : states_) {
      state.Release();
    }
  }

  /// Releases the append pins of every page except each partition's row
  /// and heap write pages (TupleDataCollection::ReleaseFilledPins).
  void ReleaseFilledPins() {
    for (idx_t i = 0; i < partitions_.size(); i++) {
      partitions_[i]->ReleaseFilledPins(states_[i]);
    }
  }

  /// Releases one partition's pins only (safe while other partitions are
  /// concurrently iterated by their own tasks).
  void ReleasePartitionPins(idx_t partition_idx) {
    states_[partition_idx].Release();
  }

  /// Iterates over all row addresses of one partition, pinning pages
  /// through this object's append states (a baseline serializes its
  /// partitions this way). Addresses stay valid until ReleaseAppendPins.
  template <typename Fn>
  Status ForEachRowInPartition(idx_t partition_idx, Fn &&fn);

  /// Moves all tuples of `other` into this object, partition-wise.
  void Combine(PartitionedTupleData &other) {
    SSAGG_ASSERT(other.radix_bits_ == radix_bits_);
    other.ReleaseAppendPins();
    ReleaseAppendPins();
    for (idx_t i = 0; i < partitions_.size(); i++) {
      partitions_[i]->Combine(*other.partitions_[i]);
    }
  }

  void Reset() {
    ReleaseAppendPins();
    for (auto &p : partitions_) {
      p->Reset();
    }
  }

 private:
  TupleDataLayout layout_;
  idx_t radix_bits_;
  std::vector<std::unique_ptr<TupleDataCollection>> partitions_;
  std::vector<TupleDataAppendState> states_;
  // Scratch for Append (members so the hot batched-insert path does not
  // allocate per call).
  std::vector<idx_t> scratch_sel_;
  std::vector<idx_t> scratch_pos_;
  std::vector<data_ptr_t> scratch_ptrs_;
  std::vector<idx_t> scratch_counts_;
  std::vector<idx_t> scratch_offsets_;
  std::vector<idx_t> scratch_cursor_;
};

template <typename Fn>
Status PartitionedTupleData::ForEachRowInPartition(idx_t partition_idx,
                                                   Fn &&fn) {
  TupleDataCollection &part = *partitions_[partition_idx];
  TupleDataAppendState &state = states_[partition_idx];
  SSAGG_RETURN_NOT_OK(part.VisitRows(state, fn));
  return Status::OK();
}

}  // namespace ssagg

#endif  // SSAGG_LAYOUT_PARTITIONED_TUPLE_DATA_H_
