#include "layout/partitioned_tuple_data.h"

namespace ssagg {

Status PartitionedTupleData::Append(const DataChunk &input,
                                    const hash_t *hashes, const idx_t *sel,
                                    idx_t count, data_ptr_t *row_ptrs_out) {
  const idx_t npart = partitions_.size();
  if (npart == 1) {
    return partitions_[0]->AppendRows(states_[0], input, sel, count,
                                      row_ptrs_out);
  }
  scratch_sel_.resize(count);
  scratch_pos_.resize(count);
  scratch_ptrs_.resize(count);

  // Counting sort of the selected rows by partition. The histogram arrays
  // are members: this sits on the hash table's batched-insert hot path and
  // must not allocate per call.
  scratch_counts_.assign(npart, 0);
  auto &counts = scratch_counts_;
  for (idx_t i = 0; i < count; i++) {
    idx_t r = sel ? sel[i] : i;
    counts[RadixPartition(hashes[r], radix_bits_)]++;
  }
  scratch_offsets_.resize(npart);
  auto &offsets = scratch_offsets_;
  idx_t running = 0;
  for (idx_t p = 0; p < npart; p++) {
    offsets[p] = running;
    running += counts[p];
  }
  scratch_cursor_ = offsets;
  auto &cursor = scratch_cursor_;
  for (idx_t i = 0; i < count; i++) {
    idx_t r = sel ? sel[i] : i;
    idx_t p = RadixPartition(hashes[r], radix_bits_);
    scratch_sel_[cursor[p]] = r;
    scratch_pos_[cursor[p]] = i;  // original position, for scatter-back
    cursor[p]++;
  }
  for (idx_t p = 0; p < npart; p++) {
    if (counts[p] == 0) {
      continue;
    }
    SSAGG_RETURN_NOT_OK(partitions_[p]->AppendRows(
        states_[p], input, scratch_sel_.data() + offsets[p], counts[p],
        scratch_ptrs_.data() + offsets[p]));
  }
  if (row_ptrs_out) {
    for (idx_t i = 0; i < count; i++) {
      row_ptrs_out[scratch_pos_[i]] = scratch_ptrs_[i];
    }
  }
  return Status::OK();
}

}  // namespace ssagg
