#ifndef SSAGG_SORT_ROW_SERIALIZER_H_
#define SSAGG_SORT_ROW_SERIALIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/file_system.h"
#include "common/string_heap.h"
#include "common/vector.h"
#include "layout/tuple_data_layout.h"

namespace ssagg {

/// Classic (de)serializing temporary-file I/O for layout rows — the
/// approach the paper's page layout is designed to AVOID (Section IV,
/// "(De-)Serialization"). The baseline algorithms use this: every spilled
/// row pays a serialize on write and a deserialize (with pointer fixup) on
/// read.
///
/// Run files start with an 8-byte header (magic, version, then zero
/// padding), followed by the row stream. Format per row: the fixed row
/// bytes, then the character data of each valid non-inlined string column,
/// in column order (lengths are already in the fixed part).
struct RunFileHeader {
  static constexpr uint32_t kMagic = 0x4E525353;  // "SSRN"
  static constexpr uint8_t kVersion = 1;
  static constexpr idx_t kSize = 8;
};

class RunWriter {
 public:
  RunWriter(const TupleDataLayout &layout, std::string path,
            FileSystem &fs = FileSystem::Default())
      : layout_(layout), path_(std::move(path)), fs_(fs) {}

  Status Open();
  Status WriteRow(const_data_ptr_t row);
  /// Flushes buffered data; the file stays readable afterwards.
  Status Finish();

  idx_t RowCount() const { return rows_; }
  /// Bytes of the run file, including the header.
  idx_t BytesWritten() const { return bytes_ + buffer_.size(); }
  const std::string &path() const { return path_; }

 private:
  Status FlushBuffer();

  const TupleDataLayout &layout_;
  std::string path_;
  FileSystem &fs_;
  std::unique_ptr<FileHandle> file_;
  std::vector<data_t> buffer_;
  idx_t bytes_ = 0;
  idx_t rows_ = 0;
};

/// Streaming reader over a run file. Deserializes batches of rows into an
/// internal arena; the returned row pointers (and their fixed-up string
/// pointers) stay valid until the next ReadBatch call.
class RunReader {
 public:
  RunReader(const TupleDataLayout &layout, std::string path, idx_t row_count,
            FileSystem &fs = FileSystem::Default())
      : layout_(layout),
        path_(std::move(path)),
        fs_(fs),
        remaining_(row_count) {}

  Status Open();

  /// Reads up to max_rows rows; returns the number read (0 = exhausted).
  /// Row pointers are appended to `rows_out`.
  Result<idx_t> ReadBatch(idx_t max_rows, std::vector<data_ptr_t> &rows_out);

  /// Gathers previously read rows into a DataChunk (layout column types).
  void GatherBatch(const std::vector<data_ptr_t> &rows, DataChunk &out) const;

  idx_t remaining() const { return remaining_; }
  /// Deletes the run file.
  Status Remove();

 private:
  /// Tops up the row-stream buffer to hold at least `at_least` unread bytes.
  Status FillBuffer(idx_t at_least);

  const TupleDataLayout &layout_;
  std::string path_;
  FileSystem &fs_;
  std::unique_ptr<FileHandle> file_;
  idx_t remaining_;
  idx_t file_offset_ = 0;  // next offset to read
  idx_t file_size_ = 0;
  std::vector<data_t> buffer_;  // row-stream bytes ReadBatch consumes
  idx_t buffer_pos_ = 0;
  idx_t buffer_end_ = 0;
  std::vector<data_t> arena_;  // deserialized rows for the current batch
  StringHeap heap_;            // deserialized string data
};

}  // namespace ssagg

#endif  // SSAGG_SORT_ROW_SERIALIZER_H_
