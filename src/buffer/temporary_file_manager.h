#ifndef SSAGG_BUFFER_TEMPORARY_FILE_MANAGER_H_
#define SSAGG_BUFFER_TEMPORARY_FILE_MANAGER_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "buffer/file_buffer.h"
#include "common/file_system.h"
#include "common/mutex.h"
#include "common/status.h"
#include "observe/metrics.h"

namespace ssagg {

/// Manages spilled temporary data in storage (Section III, "Temporary
/// Data"):
///   - fixed-size pages (kPageSize) go to slots of one shared temporary
///     file; slots are recycled through a free list so the file does not
///     grow past the high-water mark of simultaneously spilled pages;
///   - variable-size pages each go to their own temporary file.
/// The temporary files are completely separate from the database file.
///
/// Pages are written as they are (paper Section IV: the layout needs no
/// serialization), on the calling thread, with one positioned write each.
class TemporaryFileManager {
 public:
  explicit TemporaryFileManager(std::string directory,
                                FileSystem &fs = FileSystem::Default());
  ~TemporaryFileManager();

  TemporaryFileManager(const TemporaryFileManager &) = delete;
  TemporaryFileManager &operator=(const TemporaryFileManager &) = delete;

  /// Writes a fixed-size page; returns the slot it occupies. A failed write
  /// releases the slot again.
  Result<idx_t> WriteFixedBlock(const FileBuffer &buffer);
  /// Reads a fixed-size page back and releases its slot (a reloaded page is
  /// eagerly removed from the temporary file; if it is evicted again it is
  /// simply rewritten).
  Status ReadFixedBlock(idx_t slot, FileBuffer &buffer);
  /// Releases a slot without reading (block was destroyed while spilled).
  void FreeFixedSlot(idx_t slot);

  /// Writes a variable-size block to its own file keyed by block id.
  Status WriteVariableBlock(block_id_t id, const FileBuffer &buffer);
  /// Reads a variable-size block back and deletes its file.
  Status ReadVariableBlock(block_id_t id, FileBuffer &buffer);
  /// Deletes the file of a destroyed variable-size block.
  void FreeVariableBlock(block_id_t id);

  /// Bytes currently occupied in temporary storage (both kinds).
  [[nodiscard]] idx_t CurrentSize() const;
  /// Highest CurrentSize observed.
  [[nodiscard]] idx_t PeakSize() const;
  /// Fixed-file slots currently holding a spilled page. Zero when no query
  /// state is alive — the no-leak invariant the fault suite asserts.
  [[nodiscard]] idx_t UsedSlots() const;
  /// Live variable-size temporary files (same invariant).
  [[nodiscard]] idx_t VariableBlockCount() const;
  [[nodiscard]] idx_t WriteCount() const;
  [[nodiscard]] idx_t ReadCount() const;

  /// I/O accounting — the observability layer's ground truth for spill
  /// volume.
  [[nodiscard]] idx_t BytesWritten() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] idx_t BytesRead() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  /// Wall-clock seconds spent inside the write/read syscalls.
  [[nodiscard]] double WriteSeconds() const {
    return static_cast<double>(write_ns_.load(std::memory_order_relaxed)) /
           1e9;
  }
  [[nodiscard]] double ReadSeconds() const {
    return static_cast<double>(read_ns_.load(std::memory_order_relaxed)) / 1e9;
  }
  /// Fixed-file slots handed out from the free list (vs. file growth).
  [[nodiscard]] idx_t SlotReuses() const;
  /// Variable-size temporary files ever created.
  [[nodiscard]] idx_t VariableFilesCreated() const;

  /// Paths of the temporary files. Both embed a per-process, per-instance
  /// token: managers may share a directory (several BufferManagers in one
  /// process, or concurrent test processes on the same temp dir), and the
  /// fixed file is opened with truncate — a shared name would let one
  /// manager destroy another's live spill data.
  [[nodiscard]] std::string FixedFilePath() const;
  [[nodiscard]] std::string VariableFilePath(block_id_t id) const;

 private:
  Status EnsureFixedFileLocked() SSAGG_REQUIRES(lock_);
  void UpdatePeakLocked() SSAGG_REQUIRES(lock_);
  /// Folds one spill write/read of `bytes` that took `ns` into the local
  /// accounting and the global metrics registry.
  void RecordWrite(idx_t bytes, uint64_t ns);
  void RecordRead(idx_t bytes, uint64_t ns);

  std::string directory_;
  FileSystem &fs_;
  std::string token_;  // unique per process + instance, embedded in paths

  /// Protects the slot/file bookkeeping. Held only for bookkeeping, never
  /// across the actual read/write syscalls: the fixed file's FileHandle is
  /// positioned (pread/pwrite-style), so I/O proceeds concurrently on a raw
  /// pointer captured under the lock (the handle is destroyed only in the
  /// destructor).
  mutable Mutex lock_{LockRank::kTempFileManager,
                      "TemporaryFileManager::lock_"};
  std::unique_ptr<FileHandle> fixed_file_ SSAGG_GUARDED_BY(lock_);
  std::vector<idx_t> free_slots_ SSAGG_GUARDED_BY(lock_);
  /// High-water slot count of the fixed file.
  idx_t slot_count_ SSAGG_GUARDED_BY(lock_) = 0;
  idx_t used_slots_ SSAGG_GUARDED_BY(lock_) = 0;
  /// Size of each live variable-size temporary file, by block id.
  std::unordered_map<block_id_t, idx_t> variable_blocks_
      SSAGG_GUARDED_BY(lock_);
  idx_t peak_size_ SSAGG_GUARDED_BY(lock_) = 0;
  idx_t write_count_ SSAGG_GUARDED_BY(lock_) = 0;
  idx_t read_count_ SSAGG_GUARDED_BY(lock_) = 0;
  idx_t slot_reuses_ SSAGG_GUARDED_BY(lock_) = 0;
  idx_t variable_files_created_ SSAGG_GUARDED_BY(lock_) = 0;
  std::atomic<idx_t> bytes_written_{0};
  std::atomic<idx_t> bytes_read_{0};
  std::atomic<idx_t> write_ns_{0};
  std::atomic<idx_t> read_ns_{0};

  /// Cached registry key ids ("io.*"), resolved once at construction.
  idx_t key_spill_writes_;
  idx_t key_spill_reads_;
  idx_t key_spill_bytes_written_;
  idx_t key_spill_bytes_read_;
  /// io.spill_raw_bytes advances with io.spill_bytes_written, since pages
  /// are stored as they are; bench/ledger/ledger.cc reads their ratio as
  /// compression.ratio.
  idx_t key_spill_raw_bytes_;
  idx_t key_spill_write_ns_;
  idx_t key_spill_read_ns_;
  /// Per-write and per-read latency histogram ids.
  idx_t hist_spill_write_latency_;
  idx_t hist_spill_read_latency_;
};

}  // namespace ssagg

#endif  // SSAGG_BUFFER_TEMPORARY_FILE_MANAGER_H_
