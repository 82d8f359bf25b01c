#include "layout/tuple_data_collection.h"

#include <algorithm>
#include <cstring>

#include "common/string_type.h"

namespace ssagg {

namespace {

template <typename T>
inline void StoreValue(data_ptr_t dst, T value) {
  std::memcpy(dst, &value, sizeof(T));
}

template <typename T>
inline T LoadValue(const_data_ptr_t src) {
  T value;
  std::memcpy(&value, src, sizeof(T));
  return value;
}

/// Scatters one fixed-width column (T has the column's width) over a batch
/// of reserved rows. A NULL clears the row's validity bit and zeroes the
/// slot.
template <typename T>
void ScatterFixed(const Vector &vec, const idx_t *sel, idx_t count,
                  const data_ptr_t *rows, idx_t offset,
                  const TupleDataLayout &layout, idx_t col) {
  const T *values = reinterpret_cast<const T *>(vec.data());
  const ValidityMask &validity = vec.validity();
  if (validity.AllValid()) {
    if (sel) {
      for (idx_t i = 0; i < count; i++) {
        StoreValue<T>(rows[i] + offset, values[sel[i]]);
      }
    } else {
      for (idx_t i = 0; i < count; i++) {
        StoreValue<T>(rows[i] + offset, values[i]);
      }
    }
    return;
  }
  for (idx_t i = 0; i < count; i++) {
    const idx_t r = sel ? sel[i] : i;
    if (validity.RowIsValid(r)) {
      StoreValue<T>(rows[i] + offset, values[r]);
    } else {
      layout.RowSetColumnValid(rows[i], col, false);
      StoreValue<T>(rows[i] + offset, T{});
    }
  }
}

/// Scatters one VARCHAR column: inlined strings are copied as they are,
/// longer ones are copied to the row's reserved heap space (advancing
/// heap_locations[i]) and stored with a pointer to that copy.
void ScatterStrings(const Vector &vec, const idx_t *sel, idx_t count,
                    const data_ptr_t *rows, idx_t offset,
                    const TupleDataLayout &layout, idx_t col,
                    data_ptr_t *heap_locations) {
  const string_t *strings = vec.Values<string_t>();
  const ValidityMask &validity = vec.validity();
  for (idx_t i = 0; i < count; i++) {
    const idx_t r = sel ? sel[i] : i;
    data_ptr_t slot = rows[i] + offset;
    if (!validity.RowIsValid(r)) {
      layout.RowSetColumnValid(rows[i], col, false);
      StoreValue(slot, string_t());
      continue;
    }
    const string_t &s = strings[r];
    if (s.IsInlined()) {
      StoreValue(slot, s);
      continue;
    }
    std::memcpy(heap_locations[i], s.data(), s.size());
    StoreValue(slot, string_t(reinterpret_cast<const char *>(heap_locations[i]),
                              s.size()));
    heap_locations[i] += s.size();
  }
}

/// Gathers one fixed-width column of `count` rows.
template <typename T>
void GatherFixed(const data_ptr_t *rows, idx_t count, idx_t offset,
                 const TupleDataLayout &layout, idx_t col, Vector &vec) {
  T *values = reinterpret_cast<T *>(vec.data());
  for (idx_t i = 0; i < count; i++) {
    const_data_ptr_t row = rows[i];
    if (layout.RowIsColumnValid(row, col)) {
      values[i] = LoadValue<T>(row + offset);
    } else {
      vec.validity().SetInvalid(i);
      values[i] = T{};
    }
  }
}

/// Gathers one VARCHAR column. Non-inlined strings are copied into the
/// vector's heap: the gathered chunk must stay valid after the scan unpins
/// the heap page.
void GatherStrings(const data_ptr_t *rows, idx_t count, idx_t offset,
                   const TupleDataLayout &layout, idx_t col, Vector &vec) {
  string_t *values = vec.Values<string_t>();
  for (idx_t i = 0; i < count; i++) {
    const_data_ptr_t row = rows[i];
    if (!layout.RowIsColumnValid(row, col)) {
      vec.validity().SetInvalid(i);
      values[i] = string_t();
      continue;
    }
    const auto s = LoadValue<string_t>(row + offset);
    values[i] = s.IsInlined() ? s : vec.heap().Add(s.View());
  }
}

}  // namespace

idx_t TupleDataCollection::SizeInBytes() const {
  return count_ * layout_.RowWidth() + heap_bytes_;
}

idx_t TupleDataCollection::ComputedRowCount() const {
  idx_t total = 0;
  for (auto &page : row_pages_) {
    total += page.count;
  }
  return total;
}

Result<data_ptr_t> TupleDataCollection::GetRowPagePtr(
    TupleDataAppendState &state, idx_t idx) {
  auto it = state.row_pins.find(idx);
  if (it == state.row_pins.end()) {
    SSAGG_ASSIGN_OR_RETURN(auto pin, buffer_manager_.Pin(row_pages_[idx].block));
    it = state.row_pins.emplace(idx, std::move(pin)).first;
  }
  return it->second.Ptr();
}

Result<data_ptr_t> TupleDataCollection::GetHeapPagePtr(
    TupleDataAppendState &state, idx_t idx) {
  auto it = state.heap_pins.find(idx);
  if (it == state.heap_pins.end()) {
    SSAGG_ASSIGN_OR_RETURN(auto pin,
                           buffer_manager_.Pin(heap_pages_[idx].block));
    it = state.heap_pins.emplace(idx, std::move(pin)).first;
  }
  return it->second.Ptr();
}

Status TupleDataCollection::NewRowPage(TupleDataAppendState &state) {
  std::shared_ptr<BlockHandle> block;
  SSAGG_ASSIGN_OR_RETURN(auto pin, buffer_manager_.Allocate(kPageSize, &block));
  idx_t idx = row_pages_.size();
  row_pages_.push_back(RowPage{std::move(block), 0, {}});
  state.row_pins.emplace(idx, std::move(pin));
  current_row_page_ = idx;
  return Status::OK();
}

Status TupleDataCollection::NewHeapPage(TupleDataAppendState &state,
                                        idx_t min_size) {
  // Standard pages are preferred; a single row with more heap data than one
  // page gets a variable-size page of exactly the needed size (Section III:
  // variable-size allocations are used sparingly).
  idx_t size = std::max(min_size, kPageSize);
  std::shared_ptr<BlockHandle> block;
  SSAGG_ASSIGN_OR_RETURN(auto pin, buffer_manager_.Allocate(size, &block));
  idx_t idx = heap_pages_.size();
  heap_pages_.push_back(HeapPage{std::move(block), 0, size});
  state.heap_pins.emplace(idx, std::move(pin));
  current_heap_page_ = idx;
  return Status::OK();
}

void TupleDataCollection::ComputeHeapSizes(const DataChunk &input,
                                           const idx_t *sel, idx_t count) {
  std::fill_n(heap_sizes_.begin(), count, idx_t{0});
  for (idx_t c : layout_.VarSizeColumns()) {
    const Vector &vec = input.column(c);
    const string_t *strings = vec.Values<string_t>();
    const ValidityMask &validity = vec.validity();
    for (idx_t i = 0; i < count; i++) {
      const idx_t r = sel ? sel[i] : i;
      if (validity.RowIsValid(r) && !strings[r].IsInlined()) {
        heap_sizes_[i] += strings[r].size();
      }
    }
  }
}

Status TupleDataCollection::ReserveRows(TupleDataAppendState &state,
                                        idx_t count, data_ptr_t *rows,
                                        idx_t *reserved) {
  const idx_t row_width = layout_.RowWidth();
  const idx_t rows_per_page = layout_.RowsPerPage();
  const bool has_heap = !layout_.AllConstantSize();
  idx_t &done = *reserved;
  done = 0;
  // Looked up once per call: between calls the caller may release the pins,
  // and a re-pinned heap page can come back at another address.
  data_ptr_t heap_base = nullptr;
  while (done < count) {
    if (current_row_page_ == kInvalidIndex ||
        row_pages_[current_row_page_].count >= rows_per_page) {
      SSAGG_RETURN_NOT_OK(NewRowPage(state));
    }
    // One pin lookup for the whole run of rows that fit this page.
    RowPage &page = row_pages_[current_row_page_];
    SSAGG_ASSIGN_OR_RETURN(data_ptr_t page_base,
                           GetRowPagePtr(state, current_row_page_));
    const idx_t run = std::min(count - done, rows_per_page - page.count);
    data_ptr_t row = page_base + page.count * row_width;
    if (!has_heap) {
      for (idx_t k = 0; k < run; k++) {
        rows[done + k] = row + k * row_width;
      }
      page.count += run;
      count_ += run;
      done += run;
      continue;
    }
    for (idx_t k = 0; k < run; k++, row += row_width) {
      const idx_t heap_size = heap_sizes_[done];
      if (heap_size > 0) {
        // All of a row's heap data goes on one heap page, so one HeapRef
        // covers the row.
        if (current_heap_page_ == kInvalidIndex ||
            heap_pages_[current_heap_page_].used + heap_size >
                heap_pages_[current_heap_page_].size) {
          SSAGG_RETURN_NOT_OK(NewHeapPage(state, heap_size));
          heap_base = nullptr;
        }
        if (heap_base == nullptr) {
          SSAGG_ASSIGN_OR_RETURN(heap_base,
                                 GetHeapPagePtr(state, current_heap_page_));
        }
        HeapPage &heap = heap_pages_[current_heap_page_];
        heap_locations_[done] = heap_base + heap.used;
        heap.used += heap_size;
        heap_bytes_ += heap_size;
        // Extend the previous HeapRef if this row continues it, else start
        // a new one (also when the page was re-pinned at a new base).
        const auto base_val = reinterpret_cast<uint64_t>(heap_base);
        const idx_t prow = page.count;
        if (!page.heap_refs.empty() &&
            page.heap_refs.back().heap_idx == current_heap_page_ &&
            page.heap_refs.back().old_base == base_val &&
            page.heap_refs.back().row_end == prow) {
          page.heap_refs.back().row_end = prow + 1;
        } else {
          page.heap_refs.push_back(
              HeapRef{current_heap_page_, base_val, prow, prow + 1});
        }
      }
      rows[done] = row;
      page.count++;
      count_++;
      done++;
    }
  }
  return Status::OK();
}

void TupleDataCollection::ScatterRows(const DataChunk &input, const idx_t *sel,
                                      idx_t count, const data_ptr_t *rows) {
  // All columns valid by default; the column loops clear the bit per NULL.
  const idx_t validity_bytes = layout_.ValidityBytes();
  if (validity_bytes == 1) {
    for (idx_t i = 0; i < count; i++) {
      rows[i][0] = 0xFF;
    }
  } else {
    for (idx_t i = 0; i < count; i++) {
      std::memset(rows[i], 0xFF, validity_bytes);
    }
  }
  for (idx_t c = 0; c < layout_.ColumnCount(); c++) {
    const Vector &vec = input.column(c);
    const idx_t offset = layout_.ColumnOffset(c);
    if (TypeIsVarSize(layout_.ColumnType(c))) {
      ScatterStrings(vec, sel, count, rows, offset, layout_, c,
                     heap_locations_.data());
      continue;
    }
    switch (TypeWidth(layout_.ColumnType(c))) {
      case 1:
        ScatterFixed<uint8_t>(vec, sel, count, rows, offset, layout_, c);
        break;
      case 4:
        ScatterFixed<uint32_t>(vec, sel, count, rows, offset, layout_, c);
        break;
      case 8:
        ScatterFixed<uint64_t>(vec, sel, count, rows, offset, layout_, c);
        break;
      default:
        SSAGG_ASSERT(false);
    }
  }
  // The aggregate-state area runs from an 8-aligned offset to the 8-aligned
  // row end, so it is zeroed in whole words (the tail padding with it).
  const idx_t aggr_offset = layout_.AggregateOffset();
  const idx_t row_width = layout_.RowWidth();
  if (layout_.AggregateWidth() > 0) {
    for (idx_t i = 0; i < count; i++) {
      for (idx_t w = aggr_offset; w < row_width; w += sizeof(uint64_t)) {
        StoreValue<uint64_t>(rows[i] + w, 0);
      }
    }
  }
}

Status TupleDataCollection::AppendRows(TupleDataAppendState &state,
                                       const DataChunk &input, const idx_t *sel,
                                       idx_t count, data_ptr_t *row_ptrs_out) {
  data_ptr_t *rows = row_ptrs_out;
  if (rows == nullptr) {
    if (row_locations_.size() < count) {
      row_locations_.resize(count);
    }
    rows = row_locations_.data();
  }
  if (!layout_.AllConstantSize()) {
    if (heap_sizes_.size() < count) {
      heap_sizes_.resize(count);
      heap_locations_.resize(count);
    }
    ComputeHeapSizes(input, sel, count);
  }
  // A failed page allocation ends the reservation early; the rows reserved
  // before it are still written, so the collection never holds a row slot
  // without its values.
  idx_t reserved = 0;
  Status status = ReserveRows(state, count, rows, &reserved);
  ScatterRows(input, sel, reserved, rows);
  return status;
}

void TupleDataCollection::ReleaseFilledPins(
    TupleDataAppendState &state) const {
  std::erase_if(state.row_pins, [this](const auto &pin) {
    return pin.first != current_row_page_;
  });
  std::erase_if(state.heap_pins, [this](const auto &pin) {
    return pin.first != current_heap_page_;
  });
}

void TupleDataCollection::InitScan(TupleDataScanState &state,
                                   bool destroy_after_scan) {
  state.page_idx = 0;
  state.row_idx = 0;
  state.page_first_row = 0;
  state.row_pin.Reset();
  state.heap_pins.clear();
  state.destroy_after_scan = destroy_after_scan;
  state.column_count = kInvalidIndex;
  state.hold_pins = false;
  state.skip_rows = nullptr;
  if (destroy_after_scan) {
    state.heap_last_user.assign(heap_pages_.size(), kInvalidIndex);
    for (idx_t p = 0; p < row_pages_.size(); p++) {
      for (auto &ref : row_pages_[p].heap_refs) {
        state.heap_last_user[ref.heap_idx] = p;
      }
    }
  }
  // Scanning and appending must not interleave.
  current_row_page_ = kInvalidIndex;
  current_heap_page_ = kInvalidIndex;
}

Status TupleDataCollection::PinPageForScan(TupleDataScanState &state) {
  state.heap_pins.clear();
  if (state.page_idx < state.held_pins.size() &&
      state.held_pins[state.page_idx].row_pin.IsValid()) {
    // An earlier scan of this state pinned the page and recomputed its
    // string pointers; the page cannot have moved since.
    TupleDataPagePins &held = state.held_pins[state.page_idx];
    state.row_pin = std::move(held.row_pin);
    state.heap_pins.swap(held.heap_pins);
    return Status::OK();
  }
  return PinPageWithHeap(state.page_idx, state.row_pin, state.heap_pins);
}

Status TupleDataCollection::PinPageWithHeap(
    idx_t page_idx, BufferHandle &row_pin,
    std::vector<BufferHandle> &heap_pins) {
  RowPage &page = row_pages_[page_idx];
  SSAGG_ASSIGN_OR_RETURN(row_pin, buffer_manager_.Pin(page.block));
  data_ptr_t page_base = row_pin.Ptr();
  const idx_t row_width = layout_.RowWidth();
  for (auto &ref : page.heap_refs) {
    SSAGG_ASSIGN_OR_RETURN(auto heap_pin,
                           buffer_manager_.Pin(heap_pages_[ref.heap_idx].block));
    auto new_base = reinterpret_cast<uint64_t>(heap_pin.Ptr());
    if (new_base != ref.old_base) {
      // The heap page came back at a different address: recompute the
      // explicit pointers of the rows in this range, in place.
      int64_t delta = static_cast<int64_t>(new_base) -
                      static_cast<int64_t>(ref.old_base);
      for (idx_t prow = ref.row_begin; prow < ref.row_end; prow++) {
        data_ptr_t row = page_base + prow * row_width;
        for (idx_t c : layout_.VarSizeColumns()) {
          if (!layout_.RowIsColumnValid(row, c)) {
            continue;
          }
          string_t s;
          std::memcpy(&s, row + layout_.ColumnOffset(c), sizeof(string_t));
          if (s.IsInlined()) {
            continue;
          }
          s.SetPointer(s.value.pointer.ptr + delta);
          std::memcpy(row + layout_.ColumnOffset(c), &s, sizeof(string_t));
        }
      }
      ref.old_base = new_base;
    }
    heap_pins.push_back(std::move(heap_pin));
  }
  return Status::OK();
}

void TupleDataCollection::GatherRows(const data_ptr_t *rows, idx_t count,
                                     idx_t column_count, DataChunk &out) {
  for (idx_t c = 0; c < column_count; c++) {
    Vector &vec = out.column(c);
    const idx_t offset = layout_.ColumnOffset(c);
    if (TypeIsVarSize(layout_.ColumnType(c))) {
      GatherStrings(rows, count, offset, layout_, c, vec);
      continue;
    }
    switch (TypeWidth(layout_.ColumnType(c))) {
      case 1:
        GatherFixed<uint8_t>(rows, count, offset, layout_, c, vec);
        break;
      case 4:
        GatherFixed<uint32_t>(rows, count, offset, layout_, c, vec);
        break;
      case 8:
        GatherFixed<uint64_t>(rows, count, offset, layout_, c, vec);
        break;
      default:
        SSAGG_ASSERT(false);
    }
  }
  out.SetCount(count);
}

Result<bool> TupleDataCollection::Scan(TupleDataScanState &state,
                                       DataChunk &out,
                                       data_ptr_t *row_ptrs_out) {
  out.Reset();
  data_ptr_t *rows = row_ptrs_out;
  if (rows == nullptr) {
    state.row_scratch.resize(kVectorSize);
    rows = state.row_scratch.data();
  }
  const idx_t row_width = layout_.RowWidth();
  while (true) {
    // Page cleanup is deferred to the call AFTER the one that returned a
    // page's last rows: the previous call's row pointers (and gathered
    // data) must stay valid until the consumer asks for the next chunk.
    while (state.page_idx < row_pages_.size() &&
           state.row_idx >= row_pages_[state.page_idx].count) {
      FinishScanPage(state);
    }
    if (state.page_idx >= row_pages_.size()) {
      state.row_pin.Reset();
      state.heap_pins.clear();
      return false;
    }
    RowPage &page = row_pages_[state.page_idx];
    if (!state.row_pin.IsValid()) {
      SSAGG_RETURN_NOT_OK(PinPageForScan(state));
    }
    const idx_t count =
        std::min<idx_t>(kVectorSize, page.count - state.row_idx);
    data_ptr_t row = state.row_pin.Ptr() + state.row_idx * row_width;
    idx_t kept = 0;
    if (state.skip_rows == nullptr) {
      for (idx_t i = 0; i < count; i++, row += row_width) {
        rows[i] = row;
      }
      kept = count;
    } else {
      idx_t ordinal = state.page_first_row + state.row_idx;
      for (idx_t i = 0; i < count; i++, row += row_width, ordinal++) {
        rows[kept] = row;
        kept += ((state.skip_rows[ordinal / 64] >> (ordinal % 64)) & 1) ^ 1;
      }
    }
    state.row_idx += count;
    if (kept > 0) {
      GatherRows(rows, kept,
                 std::min(state.column_count, layout_.ColumnCount()), out);
      return true;
    }
  }
}

void TupleDataCollection::FinishScanPage(TupleDataScanState &state) {
  if (state.hold_pins) {
    if (state.held_pins.size() < row_pages_.size()) {
      state.held_pins.resize(row_pages_.size());
    }
    TupleDataPagePins &held = state.held_pins[state.page_idx];
    held.row_pin = std::move(state.row_pin);
    held.heap_pins.swap(state.heap_pins);
  } else if (state.page_idx < state.held_pins.size()) {
    // Held pins of a page this scan did not pin itself (an empty page).
    state.held_pins[state.page_idx] = TupleDataPagePins{};
  }
  state.row_pin.Reset();
  state.heap_pins.clear();
  if (state.destroy_after_scan && state.page_idx < row_pages_.size()) {
    RowPage &page = row_pages_[state.page_idx];
    if (page.block) {
      buffer_manager_.DestroyBlock(page.block);
      page.block.reset();
    }
    // A heap page can be referenced by multiple row pages; since scans go
    // in order, it is safe to destroy a heap page when the scan moves past
    // the last row page that references it (precomputed in InitScan).
    for (auto &ref : page.heap_refs) {
      if (state.heap_last_user[ref.heap_idx] == state.page_idx &&
          heap_pages_[ref.heap_idx].block) {
        buffer_manager_.DestroyBlock(heap_pages_[ref.heap_idx].block);
        heap_pages_[ref.heap_idx].block.reset();
      }
    }
  }
  state.page_first_row += row_pages_[state.page_idx].count;
  state.page_idx++;
  state.row_idx = 0;
}

void TupleDataCollection::Combine(TupleDataCollection &other) {
  SSAGG_ASSERT(layout_.RowWidth() == other.layout_.RowWidth());
  idx_t heap_offset = heap_pages_.size();
  for (auto &heap : other.heap_pages_) {
    heap_pages_.push_back(std::move(heap));
  }
  for (auto &page : other.row_pages_) {
    for (auto &ref : page.heap_refs) {
      ref.heap_idx += heap_offset;
    }
    row_pages_.push_back(std::move(page));
  }
  count_ += other.count_;
  heap_bytes_ += other.heap_bytes_;
  other.row_pages_.clear();
  other.heap_pages_.clear();
  other.count_ = 0;
  other.heap_bytes_ = 0;
  other.current_row_page_ = kInvalidIndex;
  other.current_heap_page_ = kInvalidIndex;
  // Our own partially-filled pages may now be out of order; keep appending
  // to them anyway is unsafe since indices moved only for `other`. Ours are
  // unchanged, so current pages stay valid.
}

void TupleDataCollection::Reset() {
  for (auto &page : row_pages_) {
    if (page.block) {
      buffer_manager_.DestroyBlock(page.block);
    }
  }
  for (auto &heap : heap_pages_) {
    if (heap.block) {
      buffer_manager_.DestroyBlock(heap.block);
    }
  }
  row_pages_.clear();
  heap_pages_.clear();
  count_ = 0;
  heap_bytes_ = 0;
  current_row_page_ = kInvalidIndex;
  current_heap_page_ = kInvalidIndex;
}

}  // namespace ssagg
