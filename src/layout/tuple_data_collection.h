#ifndef SSAGG_LAYOUT_TUPLE_DATA_COLLECTION_H_
#define SSAGG_LAYOUT_TUPLE_DATA_COLLECTION_H_

#include <unordered_map>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/vector.h"
#include "layout/tuple_data_layout.h"

namespace ssagg {

/// Pins accumulated while appending to a TupleDataCollection. Keeping the
/// pins in the state (rather than per call) is what makes hash-table
/// pointers into the rows stable: the aggregation operator holds one append
/// state per thread and releases it when the thread-local hash table is
/// reset, after which the pages become eviction candidates (Section V,
/// "RAM-Oblivious").
struct TupleDataAppendState {
  std::unordered_map<idx_t, BufferHandle> row_pins;
  std::unordered_map<idx_t, BufferHandle> heap_pins;

  void Release() {
    row_pins.clear();
    heap_pins.clear();
  }
};

/// Pins every page of a collection for random access (see
/// TupleDataCollection::PinAllRows).
struct TupleDataPinnedState {
  std::vector<BufferHandle> pins;
  void Release() { pins.clear(); }
};

/// The pins of one row page and of the heap pages its rows reference.
struct TupleDataPagePins {
  BufferHandle row_pin;
  std::vector<BufferHandle> heap_pins;
};

/// Cursor over a TupleDataCollection. Pins one row page (and the heap pages
/// its rows reference) at a time; gathered string data is copied into the
/// output chunk so it stays valid after the pins move on.
///
/// InitScan resets every field except held_pins; the options below are set
/// after it.
struct TupleDataScanState {
  idx_t page_idx = 0;
  idx_t row_idx = 0;
  /// Ordinal (position in the collection) of the current page's first row.
  idx_t page_first_row = 0;
  BufferHandle row_pin;
  std::vector<BufferHandle> heap_pins;
  /// Destroy pages once the scan has passed them (frees memory or
  /// temp-file space eagerly).
  bool destroy_after_scan = false;
  /// For destroy_after_scan: heap page index -> last row page referencing
  /// it; a heap page is destroyed once the scan passes that row page.
  std::vector<idx_t> heap_last_user;
  /// Gather only the leading `column_count` layout columns; the output
  /// chunk's other columns are left empty. kInvalidIndex gathers all.
  idx_t column_count = kInvalidIndex;
  /// Keep each page pinned after the scan has passed it: its pins move to
  /// held_pins, so the row addresses the scan returned stay valid (string
  /// pointers included) after it ends. A later scan of the same state takes
  /// a page's held pins over when it reaches the page, without pinning or
  /// recomputing again, and drops them as it passes the page.
  bool hold_pins = false;
  std::vector<TupleDataPagePins> held_pins;
  /// One bit per row, by ordinal: rows whose bit is set are not returned.
  const uint64_t *skip_rows = nullptr;
  /// Row addresses of the current chunk when the caller wants none back.
  std::vector<data_ptr_t> row_scratch;
};

/// Row-major, buffer-managed tuple storage implementing the paper's page
/// layout (Section IV):
///   - fixed-size rows on fixed-size (kPageSize) pages;
///   - variable-size (string) data on separate heap pages, referenced from
///     the rows with explicit pointers;
///   - per-row-range metadata records which heap page a range's strings
///     live on and the page's base address when the pointers were written,
///     so pointers can be recomputed in place after a spill/reload —
///     without any (de)serialization;
///   - pages are allocated from the unified buffer manager, so spilling is
///     entirely the buffer manager's business: the collection never writes
///     a file itself.
class TupleDataCollection {
 public:
  TupleDataCollection(BufferManager &buffer_manager,
                      const TupleDataLayout &layout)
      : buffer_manager_(buffer_manager), layout_(layout) {}

  TupleDataCollection(const TupleDataCollection &) = delete;
  TupleDataCollection &operator=(const TupleDataCollection &) = delete;
  TupleDataCollection(TupleDataCollection &&) = default;

  ~TupleDataCollection() { Reset(); }

  const TupleDataLayout &layout() const { return layout_; }
  idx_t Count() const { return count_; }
  idx_t RowPageCount() const { return row_pages_.size(); }
  idx_t HeapPageCount() const { return heap_pages_.size(); }
  /// Bytes occupied by rows and heap data (whether in memory or spilled).
  idx_t SizeInBytes() const;

  /// Appends `count` rows taken from `input` (row indices given by `sel`,
  /// or 0..count-1 if sel is null). The first layout.ColumnCount() columns
  /// of `input` are materialized; the aggregate-state area is
  /// zero-initialized. Row addresses are returned in `row_ptrs_out`
  /// (indexed by position in sel; may be null). The addresses stay valid
  /// while `state` holds its pins.
  ///
  /// Batch-at-a-time: row slots (and each row's heap space) are reserved
  /// first, one row-page lookup per run of rows that share a page; then
  /// each column is scattered over the whole batch by a loop specialized
  /// for its width. If a page allocation fails, the rows reserved before it
  /// are still written and the error is returned. Allocation-free once the
  /// collection has seen its largest batch (the scratch arrays only grow).
  Status AppendRows(TupleDataAppendState &state, const DataChunk &input,
                    const idx_t *sel, idx_t count, data_ptr_t *row_ptrs_out);

  /// Drops the pins `state` holds on every page except the row page and
  /// the heap page being filled, so that the pages AppendRows has moved
  /// past may be evicted. Row addresses on those pages become invalid: for
  /// callers that never touch a row again once it is written.
  void ReleaseFilledPins(TupleDataAppendState &state) const;

  /// Initializes a scan. If destroy_after_scan is set, pages are destroyed
  /// as soon as the scan moves past them.
  void InitScan(TupleDataScanState &state, bool destroy_after_scan = false);

  /// Gathers up to kVectorSize rows of one page into `out` (which must
  /// match the layout column types). If `row_ptrs_out` is non-null it
  /// receives the address of each gathered row (valid until the next Scan
  /// call on this state, or while a hold_pins state holds the page).
  /// Returns false when the collection is exhausted.
  Result<bool> Scan(TupleDataScanState &state, DataChunk &out,
                    data_ptr_t *row_ptrs_out = nullptr);

  /// Moves all pages of `other` into this collection. `other` becomes
  /// empty. Layouts must be identical. Append states of either collection
  /// must have been released.
  void Combine(TupleDataCollection &other);

  /// Destroys all pages, releasing memory and temporary-file space.
  void Reset();

  /// Unpins everything and verifies per-page row counts; test helper.
  idx_t ComputedRowCount() const;

  /// Calls fn(row_ptr) for every row, pinning pages through `state` so the
  /// addresses stay valid until the state releases its pins. Heap pointers
  /// inside the rows are NOT recomputed (callers that only touch fixed-size
  /// columns, like a pointer-table rebuild, don't need them); use
  /// PinAllRows when string columns will be read.
  template <typename Fn>
  Status VisitRows(TupleDataAppendState &state, Fn &&fn) {
    const idx_t row_width = layout_.RowWidth();
    for (idx_t p = 0; p < row_pages_.size(); p++) {
      SSAGG_ASSIGN_OR_RETURN(data_ptr_t base, GetRowPagePtr(state, p));
      for (idx_t i = 0; i < row_pages_[p].count; i++) {
        fn(base + i * row_width);
      }
    }
    return Status::OK();
  }

  /// Pins ALL row and heap pages and recomputes stale string pointers, then
  /// calls fn(row_ptr) for every row. The rows (including their string
  /// data) stay valid for random access — e.g. as a join build side — until
  /// `state` releases its pins. Requires the whole collection to fit in
  /// memory at once.
  template <typename Fn>
  Status PinAllRows(TupleDataPinnedState &state, Fn &&fn) {
    const idx_t row_width = layout_.RowWidth();
    for (idx_t p = 0; p < row_pages_.size(); p++) {
      BufferHandle row_pin;
      SSAGG_RETURN_NOT_OK(PinPageWithHeap(p, row_pin, state.pins));
      data_ptr_t base = row_pin.Ptr();
      state.pins.push_back(std::move(row_pin));
      for (idx_t i = 0; i < row_pages_[p].count; i++) {
        fn(base + i * row_width);
      }
    }
    return Status::OK();
  }

 private:
  /// Tracks which heap page a contiguous range of a row page's rows keeps
  /// its string data on, plus the heap page's base address at write time
  /// (left-hand side of the paper's Figure 2).
  struct HeapRef {
    idx_t heap_idx;
    uint64_t old_base;
    idx_t row_begin;
    idx_t row_end;  // exclusive
  };

  struct RowPage {
    std::shared_ptr<BlockHandle> block;
    idx_t count = 0;
    std::vector<HeapRef> heap_refs;
  };

  struct HeapPage {
    std::shared_ptr<BlockHandle> block;
    idx_t used = 0;
    idx_t size = 0;
  };

  /// Returns a pointer to the start of the row page, pinning it through
  /// `state` if not already pinned there.
  Result<data_ptr_t> GetRowPagePtr(TupleDataAppendState &state, idx_t idx);
  Result<data_ptr_t> GetHeapPagePtr(TupleDataAppendState &state, idx_t idx);

  Status NewRowPage(TupleDataAppendState &state);
  Status NewHeapPage(TupleDataAppendState &state, idx_t min_size);

  /// Fills heap_sizes_[i] with the heap bytes input row sel[i] needs (the
  /// total length of its non-inlined strings).
  void ComputeHeapSizes(const DataChunk &input, const idx_t *sel, idx_t count);

  /// Reserves `count` row slots into `rows` and, for string layouts, each
  /// row's heap space into heap_locations_ (all of one row's heap bytes on
  /// one heap page, recorded in the row page's HeapRefs). `*reserved`
  /// counts the rows reserved when an allocation fails.
  Status ReserveRows(TupleDataAppendState &state, idx_t count,
                     data_ptr_t *rows, idx_t *reserved);

  /// Writes validity, column values and zeroed aggregate states of the
  /// first `count` batch rows into their reserved slots.
  void ScatterRows(const DataChunk &input, const idx_t *sel, idx_t count,
                   const data_ptr_t *rows);

  /// Unpins (or, for hold_pins, holds) the current scan page, optionally
  /// destroying it (and any heap pages whose last user it was), and
  /// advances the cursor.
  void FinishScanPage(TupleDataScanState &state);

  /// Pins row page `page_idx` for scanning: pins the heap pages referenced
  /// by the page's HeapRefs and recomputes the row's string pointers if a
  /// heap page was reloaded at a different address (Section IV, "Pointer
  /// Recomputation": new = stored - old_base + new_base; done lazily and in
  /// place). Takes the page's held pins over instead, if the state has them.
  Status PinPageForScan(TupleDataScanState &state);

  /// Pins one row page and the heap pages its rows reference, recomputing
  /// stale string pointers; heap pins are appended to `heap_pins`.
  Status PinPageWithHeap(idx_t page_idx, BufferHandle &row_pin,
                         std::vector<BufferHandle> &heap_pins);

  /// Gathers the leading `column_count` columns of `count` rows into out,
  /// one column at a time with a loop specialized for the column's width.
  void GatherRows(const data_ptr_t *rows, idx_t count, idx_t column_count,
                  DataChunk &out);

  BufferManager &buffer_manager_;
  TupleDataLayout layout_;
  std::vector<RowPage> row_pages_;
  std::vector<HeapPage> heap_pages_;
  idx_t count_ = 0;
  idx_t heap_bytes_ = 0;
  /// Index of the row/heap page currently being filled (kInvalidIndex if a
  /// fresh page is needed).
  idx_t current_row_page_ = kInvalidIndex;
  idx_t current_heap_page_ = kInvalidIndex;
  /// AppendRows scratch, indexed by batch position: row addresses (when the
  /// caller wants none back), heap bytes per row and each row's next heap
  /// write position.
  std::vector<data_ptr_t> row_locations_;
  std::vector<idx_t> heap_sizes_;
  std::vector<data_ptr_t> heap_locations_;
};

}  // namespace ssagg

#endif  // SSAGG_LAYOUT_TUPLE_DATA_COLLECTION_H_
