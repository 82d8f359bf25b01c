#ifndef SSAGG_BUFFER_BLOCK_HANDLE_H_
#define SSAGG_BUFFER_BLOCK_HANDLE_H_

#include <atomic>
#include <memory>

#include "buffer/file_buffer.h"
#include "common/constants.h"
#include "common/mutex.h"
#include "common/status.h"

namespace ssagg {

class BufferManager;
class FileBlockManager;
class GrantState;

/// What kind of data a block holds; drives how it is evicted and reloaded
/// (Section III distinguishes persistent pages and the three temporary
/// allocation types).
enum class BlockKind : uint8_t {
  /// Backed by the database file; eviction drops the buffer without I/O.
  kPersistent,
  /// Temporary page of exactly kPageSize; eviction writes it to a slot in the
  /// shared temporary file.
  kTemporaryFixed,
  /// Temporary allocation of arbitrary size; eviction writes it to its own
  /// temporary file.
  kTemporaryVariable,
};

/// Whether a block's contents are resident: Pin loads an unloaded block,
/// and eviction unloads a loaded, unpinned one.
enum class BlockState : uint8_t { kUnloaded, kLoaded };

/// Shared state of one buffer-managed block. Operators hold
/// shared_ptr<BlockHandle> and pin it (obtaining a BufferHandle) whenever
/// they need the memory; between pins the buffer manager is free to evict.
class BlockHandle : public std::enable_shared_from_this<BlockHandle> {
 public:
  BlockHandle(BufferManager &manager, block_id_t id, BlockKind kind,
              idx_t size, bool can_destroy, FileBlockManager *block_manager)
      : manager_(manager),
        id_(id),
        kind_(kind),
        size_(size),
        can_destroy_(can_destroy),
        block_manager_(block_manager) {}

  ~BlockHandle();

  BlockHandle(const BlockHandle &) = delete;
  BlockHandle &operator=(const BlockHandle &) = delete;

  block_id_t id() const { return id_; }
  BlockKind kind() const { return kind_; }
  idx_t size() const { return size_; }
  bool IsPersistent() const { return kind_ == BlockKind::kPersistent; }

  /// Current number of pins. The block can only be evicted at zero.
  int32_t Readers() const { return readers_.load(std::memory_order_relaxed); }

 private:
  friend class BufferManager;
  friend class BufferHandle;

  BufferManager &manager_;
  block_id_t id_;
  BlockKind kind_;
  idx_t size_;
  /// If true, eviction simply drops the contents (the owner can recreate
  /// them); no temporary file I/O happens and a later Pin fails.
  bool can_destroy_;
  /// Only set for persistent blocks: where to read the block from.
  FileBlockManager *block_manager_;

  /// Protects the block's load/spill state below. Lock order: lock_ may be
  /// held while acquiring BufferManager::queue_lock_ and
  /// TemporaryFileManager::lock_ (spilling), never the other way around
  /// (eviction only try-locks block handles); see DESIGN.md section 9.
  Mutex lock_{LockRank::kBlockHandle, "BlockHandle::lock_"};
  BlockState state_ SSAGG_GUARDED_BY(lock_) = BlockState::kUnloaded;
  std::unique_ptr<FileBuffer> buffer_ SSAGG_GUARDED_BY(lock_);
  std::atomic<int32_t> readers_{0};
  /// Incremented on every unpin; eviction-queue entries remember the value
  /// they were enqueued with so stale entries can be skipped (approximate
  /// LRU with lazy invalidation).
  std::atomic<uint64_t> eviction_seq_{0};
  /// Slot in the shared temporary file while spilled (fixed-size blocks).
  idx_t temp_slot_ SSAGG_GUARDED_BY(lock_) = kInvalidIndex;
  /// True once a variable-size block has been written to its own temp file.
  bool spilled_to_own_file_ SSAGG_GUARDED_BY(lock_) = false;
  /// Set when the contents were dropped (can_destroy) or destroyed.
  bool destroyed_ SSAGG_GUARDED_BY(lock_) = false;
  /// The per-query memory grant this block's charges count against, captured
  /// from the allocating thread's GrantScope (multi-tenant service sessions;
  /// nullptr on all single-tenant paths). Invariants, maintained at every
  /// charge/discharge choke point in the buffer manager: while kLoaded,
  /// grant_->used() includes size_; while spilled (temp_slot_ /
  /// spilled_to_own_file_), grant_->spilled() includes size_. Shared
  /// ownership: the grant may outlive its MemoryGrant (query teardown) while
  /// foreign threads are still evicting this query's pages.
  std::shared_ptr<GrantState> grant_ SSAGG_GUARDED_BY(lock_);
};

}  // namespace ssagg

#endif  // SSAGG_BUFFER_BLOCK_HANDLE_H_
