#include "sort/row_serializer.h"

#include <cstring>

#include "common/string_type.h"

namespace ssagg {

namespace {
constexpr idx_t kIOBufferSize = 1 << 20;  // 1 MiB buffered I/O

/// Heap bytes of a serialized row (total size of its valid, non-inlined
/// strings); lengths are read from the fixed part.
idx_t RowHeapSize(const TupleDataLayout &layout, const_data_ptr_t row) {
  idx_t total = 0;
  for (idx_t c : layout.VarSizeColumns()) {
    if (!layout.RowIsColumnValid(row, c)) {
      continue;
    }
    string_t s;
    std::memcpy(&s, row + layout.ColumnOffset(c), sizeof(string_t));
    if (!s.IsInlined()) {
      total += s.size();
    }
  }
  return total;
}
}  // namespace

//===----------------------------------------------------------------------===//
// RunWriter
//===----------------------------------------------------------------------===//

Status RunWriter::Open() {
  FileOpenFlags flags;
  flags.read = true;
  flags.write = true;
  flags.create = true;
  flags.truncate = true;
  SSAGG_ASSIGN_OR_RETURN(file_, fs_.Open(path_, flags));
  data_t header[RunFileHeader::kSize] = {};
  uint32_t magic = RunFileHeader::kMagic;
  std::memcpy(header, &magic, sizeof(magic));
  header[4] = RunFileHeader::kVersion;
  SSAGG_RETURN_NOT_OK(file_->Write(header, RunFileHeader::kSize, 0));
  bytes_ = RunFileHeader::kSize;
  buffer_.reserve(kIOBufferSize);
  return Status::OK();
}

Status RunWriter::FlushBuffer() {
  if (buffer_.empty()) {
    return Status::OK();
  }
  SSAGG_RETURN_NOT_OK(file_->Write(buffer_.data(), buffer_.size(), bytes_));
  bytes_ += buffer_.size();
  buffer_.clear();
  return Status::OK();
}

Status RunWriter::WriteRow(const_data_ptr_t row) {
  const idx_t row_width = layout_.RowWidth();
  idx_t heap = layout_.AllConstantSize() ? 0 : RowHeapSize(layout_, row);
  if (buffer_.size() + row_width + heap > kIOBufferSize) {
    SSAGG_RETURN_NOT_OK(FlushBuffer());
  }
  idx_t offset = buffer_.size();
  buffer_.resize(offset + row_width + heap);
  std::memcpy(buffer_.data() + offset, row, row_width);
  idx_t heap_offset = offset + row_width;
  for (idx_t c : layout_.VarSizeColumns()) {
    if (!layout_.RowIsColumnValid(row, c)) {
      continue;
    }
    string_t s;
    std::memcpy(&s, row + layout_.ColumnOffset(c), sizeof(string_t));
    if (!s.IsInlined()) {
      std::memcpy(buffer_.data() + heap_offset, s.data(), s.size());
      heap_offset += s.size();
    }
  }
  rows_++;
  return Status::OK();
}

Status RunWriter::Finish() { return FlushBuffer(); }

//===----------------------------------------------------------------------===//
// RunReader
//===----------------------------------------------------------------------===//

Status RunReader::Open() {
  FileOpenFlags flags;
  SSAGG_ASSIGN_OR_RETURN(file_, fs_.Open(path_, flags));
  SSAGG_ASSIGN_OR_RETURN(file_size_, file_->FileSize());
  if (file_size_ < RunFileHeader::kSize) {
    return Status::IOError("run file truncated: " + path_);
  }
  data_t header[RunFileHeader::kSize];
  SSAGG_RETURN_NOT_OK(file_->Read(header, RunFileHeader::kSize, 0));
  uint32_t magic;
  std::memcpy(&magic, header, sizeof(magic));
  if (magic != RunFileHeader::kMagic ||
      header[4] != RunFileHeader::kVersion) {
    return Status::IOError("run file has an unknown header: " + path_);
  }
  file_offset_ = RunFileHeader::kSize;
  buffer_.reserve(kIOBufferSize);
  buffer_pos_ = 0;
  buffer_end_ = 0;
  return Status::OK();
}

Status RunReader::FillBuffer(idx_t at_least) {
  // Compact the unread tail to the front, then top up.
  idx_t unread = buffer_end_ - buffer_pos_;
  if (unread > 0 && buffer_pos_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + buffer_pos_, unread);
  }
  buffer_pos_ = 0;
  buffer_end_ = unread;
  while (buffer_end_ < at_least) {
    idx_t want = std::min(kIOBufferSize, file_size_ - file_offset_);
    if (want == 0) {
      return Status::IOError("run file truncated: " + path_);
    }
    buffer_.resize(buffer_end_ + want);
    SSAGG_RETURN_NOT_OK(
        file_->Read(buffer_.data() + buffer_end_, want, file_offset_));
    file_offset_ += want;
    buffer_end_ += want;
  }
  return Status::OK();
}

Result<idx_t> RunReader::ReadBatch(idx_t max_rows,
                                   std::vector<data_ptr_t> &rows_out) {
  const idx_t row_width = layout_.RowWidth();
  idx_t count = std::min(max_rows, remaining_);
  if (count == 0) {
    return idx_t(0);
  }
  arena_.resize(count * row_width);
  heap_.Reset();
  for (idx_t i = 0; i < count; i++) {
    // Make sure the fixed part is buffered, then the heap part.
    if (buffer_end_ - buffer_pos_ < row_width) {
      SSAGG_RETURN_NOT_OK(FillBuffer(row_width));
    }
    data_ptr_t row = arena_.data() + i * row_width;
    std::memcpy(row, buffer_.data() + buffer_pos_, row_width);
    idx_t heap = layout_.AllConstantSize() ? 0 : RowHeapSize(layout_, row);
    buffer_pos_ += row_width;
    if (heap > 0) {
      if (buffer_end_ - buffer_pos_ < heap) {
        SSAGG_RETURN_NOT_OK(FillBuffer(heap));
      }
      // Deserialize: copy strings into the arena heap and fix the pointers.
      idx_t src = buffer_pos_;
      for (idx_t c : layout_.VarSizeColumns()) {
        if (!layout_.RowIsColumnValid(row, c)) {
          continue;
        }
        string_t s;
        std::memcpy(&s, row + layout_.ColumnOffset(c), sizeof(string_t));
        if (s.IsInlined()) {
          continue;
        }
        char *dest = heap_.Allocate(s.size());
        std::memcpy(dest, buffer_.data() + src, s.size());
        src += s.size();
        s.SetPointer(dest);
        std::memcpy(row + layout_.ColumnOffset(c), &s, sizeof(string_t));
      }
      buffer_pos_ += heap;
    }
    rows_out.push_back(row);
  }
  remaining_ -= count;
  return count;
}

void RunReader::GatherBatch(const std::vector<data_ptr_t> &rows,
                            DataChunk &out) const {
  for (idx_t c = 0; c < layout_.ColumnCount(); c++) {
    Vector &vec = out.column(c);
    idx_t offset = layout_.ColumnOffset(c);
    idx_t width = TypeWidth(layout_.ColumnType(c));
    bool varsize = TypeIsVarSize(layout_.ColumnType(c));
    for (idx_t i = 0; i < rows.size(); i++) {
      if (!layout_.RowIsColumnValid(rows[i], c)) {
        vec.validity().SetInvalid(i);
        std::memset(vec.data() + i * width, 0, width);
        continue;
      }
      if (varsize) {
        string_t s;
        std::memcpy(&s, rows[i] + offset, sizeof(string_t));
        vec.SetString(i, s.View());
      } else {
        std::memcpy(vec.data() + i * width, rows[i] + offset, width);
      }
    }
  }
  out.SetCount(rows.size());
}

Status RunReader::Remove() {
  file_.reset();
  return fs_.RemoveFile(path_);
}

}  // namespace ssagg
