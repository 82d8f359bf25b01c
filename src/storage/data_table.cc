#include "storage/data_table.h"

#include <atomic>
#include <cstring>

#include "compression/codec.h"

namespace ssagg {

//===----------------------------------------------------------------------===//
// Scan source
//===----------------------------------------------------------------------===//

/// Morsel-parallel scan: worker threads claim row groups through an atomic
/// counter; each GetData decompresses one row group of the projected
/// columns into the output chunk.
class TableScanSource : public DataSource {
 public:
  TableScanSource(DataTable &table, BufferManager &buffer_manager,
                  std::vector<idx_t> columns)
      : table_(table),
        buffer_manager_(buffer_manager),
        columns_(std::move(columns)) {}

  std::vector<LogicalTypeId> Types() const override {
    std::vector<LogicalTypeId> types;
    for (idx_t c : columns_) {
      types.push_back(table_.schema()[c].type);
    }
    return types;
  }

  Result<std::unique_ptr<LocalSourceState>> InitLocal() override {
    return std::unique_ptr<LocalSourceState>(new LocalState());
  }

  Result<bool> GetData(DataChunk &chunk, LocalSourceState &state) override {
    auto &local = static_cast<LocalState &>(state);
    idx_t group = next_group_.fetch_add(1, std::memory_order_relaxed);
    if (group >= table_.row_groups_.size()) {
      return false;
    }
    const auto &meta = table_.row_groups_[group];
    for (idx_t ci = 0; ci < columns_.size(); ci++) {
      const auto &ptr = meta.columns[columns_[ci]];
      auto handle = table_.BlockHandleFor(buffer_manager_, ptr.block);
      SSAGG_ASSIGN_OR_RETURN(auto pin, buffer_manager_.Pin(handle));
      SSAGG_RETURN_NOT_OK(DecompressSegment(pin.Ptr() + ptr.offset, ptr.size,
                                            table_.schema()[columns_[ci]].type,
                                            local.decoded));
      if (local.decoded.count != meta.rows) {
        return Status::IOError("segment row count mismatch");
      }
      CopyDecodedRows(local.decoded, 0, meta.rows, chunk.column(ci));
    }
    chunk.SetCount(meta.rows);
    return true;
  }

  [[nodiscard]] idx_t EstimatedRowCount() const override {
    return table_.RowCount();
  }

  Status Rewind() override {
    next_group_.store(0, std::memory_order_relaxed);
    return Status::OK();
  }

 private:
  struct LocalState : public LocalSourceState {
    DecodedSegment decoded;
  };

  DataTable &table_;
  BufferManager &buffer_manager_;
  std::vector<idx_t> columns_;
  std::atomic<idx_t> next_group_{0};
};

//===----------------------------------------------------------------------===//
// DataTable
//===----------------------------------------------------------------------===//

DataTable::DataTable(FileBlockManager &block_manager, Schema schema)
    : block_manager_(block_manager), schema_(std::move(schema)) {
  std::vector<LogicalTypeId> types;
  for (const auto &col : schema_) {
    types.push_back(col.type);
  }
  staging_ = std::make_unique<DataChunk>(types);
}

Status DataTable::Append(const DataChunk &chunk) {
  SSAGG_ASSERT(!finalized_);
  SSAGG_ASSERT(chunk.ColumnCount() == schema_.size());
  idx_t appended = 0;
  while (appended < chunk.size()) {
    idx_t room = kRowGroupSize - staging_->size();
    idx_t n = std::min(room, chunk.size() - appended);
    idx_t base = staging_->size();
    for (idx_t c = 0; c < schema_.size(); c++) {
      Vector &dst = staging_->column(c);
      const Vector &src = chunk.column(c);
      if (src.type() == LogicalTypeId::kVarchar) {
        for (idx_t i = 0; i < n; i++) {
          if (!src.validity().RowIsValid(appended + i)) {
            dst.validity().SetInvalid(base + i);
            dst.Values<string_t>()[base + i] = string_t();
          } else {
            dst.SetString(base + i,
                          src.Values<string_t>()[appended + i].View());
          }
        }
      } else {
        std::memcpy(dst.data() + base * dst.width(),
                    src.data() + appended * src.width(), n * src.width());
        for (idx_t i = 0; i < n; i++) {
          if (!src.validity().RowIsValid(appended + i)) {
            dst.validity().SetInvalid(base + i);
          }
        }
      }
    }
    staging_->SetCount(base + n);
    appended += n;
    if (staging_->size() == kRowGroupSize) {
      SSAGG_RETURN_NOT_OK(FlushStaging());
    }
  }
  return Status::OK();
}

Status DataTable::FlushStaging() {
  if (staging_->size() == 0) {
    return Status::OK();
  }
  RowGroupMeta meta;
  meta.rows = staging_->size();
  std::vector<data_t> bytes;
  for (idx_t c = 0; c < schema_.size(); c++) {
    bytes.clear();
    SSAGG_RETURN_NOT_OK(
        CompressSegment(staging_->column(c), staging_->size(), bytes));
    SegmentPointer ptr;
    SSAGG_RETURN_NOT_OK(WriteSegment(bytes, &ptr));
    meta.columns.push_back(ptr);
    compressed_bytes_ += bytes.size();
  }
  row_count_ += meta.rows;
  row_groups_.push_back(std::move(meta));
  staging_->Reset();
  return Status::OK();
}

Status DataTable::WriteSegment(const std::vector<data_t> &bytes,
                               SegmentPointer *out) {
  if (bytes.size() > kPageSize) {
    return Status::InvalidArgument(
        "column segment larger than a page; reduce the row group size");
  }
  if (!current_block_ ||
      current_block_offset_ + bytes.size() > kPageSize) {
    SSAGG_RETURN_NOT_OK(FlushCurrentBlock());
    SSAGG_ASSIGN_OR_RETURN(current_block_, FileBuffer::Create(kPageSize));
    current_block_id_ = block_manager_.AllocateBlock();
    current_block_offset_ = 0;
  }
  std::memcpy(current_block_->data() + current_block_offset_, bytes.data(),
              bytes.size());
  out->block = current_block_id_;
  out->offset = static_cast<uint32_t>(current_block_offset_);
  out->size = static_cast<uint32_t>(bytes.size());
  current_block_offset_ += bytes.size();
  return Status::OK();
}

Status DataTable::FlushCurrentBlock() {
  if (!current_block_) {
    return Status::OK();
  }
  SSAGG_RETURN_NOT_OK(
      block_manager_.WriteBlock(current_block_id_, *current_block_));
  block_count_++;
  current_block_.reset();
  return Status::OK();
}

Status DataTable::FinalizeAppend() {
  SSAGG_RETURN_NOT_OK(FlushStaging());
  SSAGG_RETURN_NOT_OK(FlushCurrentBlock());
  SSAGG_RETURN_NOT_OK(block_manager_.Sync());
  finalized_ = true;
  return Status::OK();
}

std::shared_ptr<BlockHandle> DataTable::BlockHandleFor(
    BufferManager &buffer_manager, block_id_t block) {
  ScopedLock guard(handles_lock_);
  auto &pool_handles = handles_[&buffer_manager];
  auto it = pool_handles.find(block);
  if (it == pool_handles.end()) {
    it = pool_handles
             .emplace(block, buffer_manager.RegisterPersistentBlock(
                                 block_manager_, block))
             .first;
  }
  return it->second;
}

void DataTable::ReleaseHandleCache(const BufferManager &buffer_manager) {
  ScopedLock guard(handles_lock_);
  handles_.erase(&buffer_manager);
}

std::unique_ptr<DataSource> DataTable::MakeScanSource(
    BufferManager &buffer_manager, std::vector<idx_t> columns) {
  SSAGG_ASSERT(finalized_);
  return std::make_unique<TableScanSource>(*this, buffer_manager,
                                           std::move(columns));
}

}  // namespace ssagg
