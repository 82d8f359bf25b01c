#ifndef SSAGG_BUFFER_BUFFER_MANAGER_H_
#define SSAGG_BUFFER_BUFFER_MANAGER_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "buffer/block_handle.h"
#include "buffer/buffer_handle.h"
#include "buffer/file_block_manager.h"
#include "buffer/temporary_file_manager.h"
#include "common/constants.h"
#include "common/file_system.h"
#include "common/mutex.h"
#include "common/status.h"

namespace ssagg {

class FaultInjector;
class GrantState;

/// Which pages are evicted first when memory is needed (Section VII,
/// "Loading & Spilling"). kMixed is DuckDB's default: one LRU queue for all
/// page kinds. The other two keep persistent and temporary pages in separate
/// LRU queues and drain one before the other.
enum class EvictionPolicy : uint8_t {
  kMixed,
  kTemporaryFirst,
  kPersistentFirst,
};

/// Point-in-time view of the buffer manager, sampled by the Figure 4 bench
/// and embedded (as begin/end deltas) in QueryProfile.
struct BufferManagerSnapshot {
  idx_t memory_used = 0;
  idx_t memory_limit = 0;
  idx_t persistent_bytes_in_memory = 0;
  idx_t temporary_bytes_in_memory = 0;
  idx_t non_paged_bytes = 0;
  /// Most non-paged bytes charged at once since the pool was created.
  idx_t non_paged_peak = 0;
  idx_t temp_file_size = 0;
  idx_t temp_file_peak = 0;
  idx_t evicted_persistent_count = 0;
  idx_t evicted_temporary_count = 0;
  idx_t reused_buffers = 0;
  idx_t temp_writes = 0;
  idx_t temp_reads = 0;
  // Spill I/O accounting (ground truth: TemporaryFileManager).
  idx_t spill_bytes_written = 0;
  idx_t spill_bytes_read = 0;
  // Wall-clock seconds query threads spent inside spill writes and reads.
  double spill_write_seconds = 0;
  double spill_read_seconds = 0;
  idx_t spill_slot_reuses = 0;
  idx_t spill_variable_files = 0;
  /// Reservations rejected because nothing more could be evicted.
  idx_t oom_rejections = 0;
  /// Idle page frames kept for reuse. They are not charged to memory_used,
  /// but memory_used + frame_pool_bytes stays within memory_limit.
  idx_t frame_pool_bytes = 0;
  /// Page frames currently mapped: held by blocks plus idle in the pool.
  idx_t frames_mapped = 0;
  /// Outstanding pins (live BufferHandles) across all blocks. Must be zero
  /// once no query state is alive — the no-leak invariant the fault suite
  /// asserts after every injected failure.
  idx_t pinned_buffers = 0;
  /// Entries in the eviction queues, live or dead (dead ones are dropped
  /// lazily, once a queue has doubled since its last purge).
  idx_t eviction_queue_entries = 0;
};

/// RAII owner of a non-paged allocation (Section III): any-size, not
/// spillable, but routed through the buffer manager so that making it may
/// evict other pages, and so it counts toward the memory limit.
class NonPagedAllocation {
 public:
  NonPagedAllocation() = default;
  NonPagedAllocation(BufferManager *manager, data_ptr_t data, idx_t size,
                     std::shared_ptr<GrantState> grant = nullptr)
      : manager_(manager), data_(data), size_(size),
        grant_(std::move(grant)) {}
  ~NonPagedAllocation() { Reset(); }

  NonPagedAllocation(const NonPagedAllocation &) = delete;
  NonPagedAllocation &operator=(const NonPagedAllocation &) = delete;
  NonPagedAllocation(NonPagedAllocation &&other) noexcept {
    *this = std::move(other);
  }
  NonPagedAllocation &operator=(NonPagedAllocation &&other) noexcept;

  bool IsValid() const { return data_ != nullptr; }
  data_ptr_t data() { return data_; }
  const_data_ptr_t data() const { return data_; }
  idx_t size() const { return size_; }

  void Reset();

 private:
  BufferManager *manager_ = nullptr;
  data_ptr_t data_ = nullptr;
  idx_t size_ = 0;
  /// Grant this allocation is charged against (service sessions only);
  /// discharged by Reset.
  std::shared_ptr<GrantState> grant_;
};

/// Unified Memory Management (Section III): one memory pool and one eviction
/// mechanism for persistent pages, paged fixed-size temporary data, paged
/// variable-size temporary data, and non-paged temporary allocations.
/// Eviction only happens when a new reservation would exceed the memory
/// limit; evicted persistent pages are dropped for free (their contents are
/// in the database file) while evicted temporary pages are written to
/// temporary files. Same-size evicted buffers are reused for the new
/// allocation.
class BufferManager {
 public:
  BufferManager(std::string temp_directory, idx_t memory_limit,
                EvictionPolicy policy = EvictionPolicy::kMixed,
                FileSystem &fs = FileSystem::Default());
  ~BufferManager();

  BufferManager(const BufferManager &) = delete;
  BufferManager &operator=(const BufferManager &) = delete;

  /// Allocates a temporary block of the given size and returns it pinned.
  /// size == kPageSize yields a paged fixed-size allocation (spillable into
  /// the shared temporary file); other sizes yield paged variable-size
  /// allocations (each spilled to its own file). If can_destroy is set the
  /// contents are dropped instead of spilled and the block cannot be
  /// re-pinned after eviction.
  Result<BufferHandle> Allocate(idx_t size,
                                std::shared_ptr<BlockHandle> *out_handle,
                                bool can_destroy = false);

  /// Registers a block of the database file with the pool; reading it (and
  /// caching it in memory) happens on Pin.
  std::shared_ptr<BlockHandle> RegisterPersistentBlock(
      FileBlockManager &block_manager, block_id_t block_id);

  /// Pins the block, loading it from the database file or temporary file if
  /// it is not resident. May evict other pages to make room.
  Result<BufferHandle> Pin(const std::shared_ptr<BlockHandle> &handle);

  /// Eagerly destroys a block's contents: frees the memory if loaded, or the
  /// temporary-file space if spilled (Section III: "we try to eagerly
  /// destroy temporary pages as soon as they are no longer needed").
  void DestroyBlock(const std::shared_ptr<BlockHandle> &handle);

  /// Non-paged allocation; see NonPagedAllocation.
  Result<NonPagedAllocation> AllocateNonPaged(idx_t size);

  /// Reserve / release memory accounted to the pool without the manager
  /// owning it (used by operators with external allocations).
  Status ReserveExternalMemory(idx_t size);
  void FreeExternalMemory(idx_t size);

  [[nodiscard]] idx_t memory_used() const {
    return memory_used_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] idx_t memory_limit() const {
    return memory_limit_.load(std::memory_order_relaxed);
  }
  /// Adjusting the limit only affects future reservations; it does not
  /// proactively evict. Idle page frames beyond the new limit are unmapped.
  void SetMemoryLimit(idx_t limit);
  [[nodiscard]] EvictionPolicy policy() const;
  void SetEvictionPolicy(EvictionPolicy policy);

  [[nodiscard]] BufferManagerSnapshot Snapshot() const;
  TemporaryFileManager &temp_files() { return temp_files_; }
  const TemporaryFileManager &temp_files() const { return temp_files_; }
  /// The file system this pool (and its temporary files) performs I/O
  /// through; operators spill through the same one so that fault injection
  /// covers every layer.
  FileSystem &fs() const { return fs_; }

  /// Outstanding pins across all blocks (see
  /// BufferManagerSnapshot::pinned_buffers).
  [[nodiscard]] idx_t PinnedBufferCount() const {
    return static_cast<idx_t>(pinned_buffers_.load(std::memory_order_relaxed));
  }

  /// Installs (or clears, with nullptr) a fault injector consulted on every
  /// memory reservation (FaultSite::kAllocate) and every Pin
  /// (FaultSite::kPin), so tests can deny the Nth operation and prove the
  /// failure unwinds cleanly. Spill I/O faults come from the file system the
  /// pool was built with. Not owned; must outlive its use.
  void SetFaultInjector(FaultInjector *injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

  /// When disabled, temporary pages are never written to temporary files:
  /// the pool behaves like an in-memory-only engine's (persistent pages
  /// still evict for free), and reservations fail with OutOfMemory once
  /// only temporary pages remain. Used by the baseline system models.
  void SetSpillTemporary(bool spill) {
    spill_temporary_.store(spill, std::memory_order_relaxed);
  }
  bool spill_temporary() const {
    return spill_temporary_.load(std::memory_order_relaxed);
  }

 private:
  friend class BlockHandle;
  friend class BufferHandle;
  friend class FileBuffer;
  friend class NonPagedAllocation;

  /// Releases a NonPagedAllocation's charge.
  void FreeNonPaged(idx_t size);

  struct EvictionEntry {
    std::weak_ptr<BlockHandle> handle;
    uint64_t seq;
  };

  /// Index into queues_: temporaries and persistents may share queue 0
  /// (mixed policy) or be split. Depends on policy_, so the queue lock must
  /// be held.
  idx_t QueueIndexLocked(BlockKind kind) const SSAGG_REQUIRES(queue_lock_);

  /// Makes room for `size` bytes, evicting pages as needed. On success the
  /// reservation is charged to memory_used_. With `want_buffer` it also
  /// returns the buffer that backs it: an evicted block's buffer of exactly
  /// that size (handed over with its charge, so no other thread can take the
  /// freed memory first), an idle frame from the pool, or a fresh mapping.
  /// When `grant` is set (multi-tenant service sessions) the reservation is
  /// additionally charged against that query's grant first; a grant that
  /// cannot grow degrades to evicting the query's *own* pages (EvictBlocks
  /// restricted to the grant) before the charge fails with OutOfMemory. A
  /// mapping the kernel refuses is OutOfMemory too, with both charges given
  /// back.
  Result<std::unique_ptr<FileBuffer>> ReserveMemory(idx_t size,
                                                    GrantState *grant,
                                                    bool want_buffer);

  /// One attempt to charge `size` bytes without evicting: succeeds iff
  /// memory_used_ + size fits the limit. A page-frame request (`frame` set,
  /// size == kPageSize) takes an idle frame if there is one; any other
  /// charge first unmaps idle frames until it fits beside them, so that
  /// memory_used_ + idle frame bytes never exceeds the limit.
  bool TryCharge(idx_t size, std::unique_ptr<FileBuffer> *frame)
      SSAGG_EXCLUDES(frame_lock_);
  /// Maps a fresh buffer for a reservation already charged; a kPageSize
  /// buffer is a pool frame. nullptr when the kernel refuses the mapping.
  std::unique_ptr<FileBuffer> MapBuffer(idx_t size);
  /// Called by ~FileBuffer for a pool frame: keeps it idle if that stays
  /// within the limit, and unmaps it otherwise.
  void ReleaseFrame(data_ptr_t frame) SSAGG_EXCLUDES(frame_lock_);
  /// Moves idle frames to `out` until at most `keep_bytes` of them remain;
  /// the caller unmaps them (UnmapPoolFrames) after dropping the lock.
  void TrimFramesLocked(idx_t keep_bytes, std::vector<data_ptr_t> *out)
      SSAGG_REQUIRES(frame_lock_);
  void UnmapPoolFrames(std::vector<data_ptr_t> &frames);
  /// Gives back a reservation whose memory could not be provided.
  void CancelReservation(idx_t size, GrantState *grant);

  /// Evicts one block: drops a persistent or destroyable page, or writes a
  /// temporary page to its temporary file inline, under the block's lock.
  /// Returns the evicted buffer when it is reusable for `reuse_size`
  /// (nullptr if memory was freed instead); an error if no evictable block
  /// exists or the spill write failed. A failed write leaves the block
  /// loaded, releases its slot and quota charge, and re-enqueues it as an
  /// eviction candidate.
  ///
  /// When `only_grant` is set, only blocks charged to that grant are
  /// considered; other queries' entries are put back untouched (a query
  /// spilling to fit inside its shrunken grant must not evict its
  /// neighbours). A temporary page is charged to its grant's per-query
  /// spill quota before it is written; a refused charge skips the page like
  /// an in-memory-only one and the scan goes on: with nothing else
  /// evictable the reservation fails with OutOfMemory, isolating the quota
  /// breach.
  ///
  /// A refusal is OutOfMemory; the caller records it (RecordOomRejection)
  /// once it gives up.
  Result<std::unique_ptr<FileBuffer>> EvictBlocks(
      idx_t reuse_size, const GrantState *only_grant = nullptr);

  /// Counts a reservation of `request_size` bytes that eviction could not
  /// make room for, and records it as the value of the flight recorder's
  /// oom_rejection event, with the memory used and the pinned buffers
  /// beside it.
  void RecordOomRejection(idx_t request_size);

  /// Each unpin appends an eviction candidate, and the entries of blocks
  /// since re-pinned or dropped stay behind until an eviction scan reaches
  /// them — which, while nothing is evicted, is never. So once queue `qi`
  /// has doubled since its last purge, this drops its dead entries (expired
  /// handle or stale sequence number), keeping live ones in order. Every
  /// handle it upgrades goes to `upgraded`, which the caller releases after
  /// its locks: dropping a block's last reference takes the block's lock.
  void PurgeQueueLocked(idx_t qi,
                        std::vector<std::shared_ptr<BlockHandle>> *upgraded)
      SSAGG_REQUIRES(queue_lock_);

  /// Returns a loaded block's resident charge to its grant, if any. Called
  /// at every point the block's buffer is freed or its charge transferred.
  static void DischargeGrant(BlockHandle &block) SSAGG_REQUIRES(block.lock_);
  /// Returns a spilled block's quota charge to its grant, if any. Called at
  /// every point the block's spill state (slot / own file) is released.
  static void DischargeSpillQuota(BlockHandle &block)
      SSAGG_REQUIRES(block.lock_);

  /// Drops a loaded block's buffer together with its memory and grant
  /// charges.
  void UnloadBlock(BlockHandle &block) SSAGG_REQUIRES(block.lock_);

  /// Called by BufferHandle::Reset.
  void Unpin(BlockHandle &block);
  /// Called by ~BlockHandle: release any memory / temp-file space.
  void CleanupDroppedBlock(BlockHandle &block);

  void ChargeLoaded(BlockKind kind, idx_t size);
  void DischargeLoaded(BlockKind kind, idx_t size);

  std::string temp_directory_;
  FileSystem &fs_;
  std::atomic<idx_t> memory_limit_;
  std::atomic<bool> spill_temporary_{true};
  std::atomic<FaultInjector *> fault_injector_{nullptr};
  TemporaryFileManager temp_files_;

  std::atomic<idx_t> memory_used_{0};
  std::atomic<idx_t> persistent_loaded_bytes_{0};
  std::atomic<idx_t> temporary_loaded_bytes_{0};
  std::atomic<idx_t> non_paged_bytes_{0};
  std::atomic<idx_t> non_paged_peak_{0};
  std::atomic<block_id_t> next_temp_block_id_{0};

  /// Protects the eviction queues and the policy that maps blocks to them.
  /// Leaf-most lock of the pool: it is only held for queue manipulation,
  /// never while performing I/O or acquiring any other mutex.
  mutable Mutex queue_lock_{LockRank::kEvictionQueue,
                            "BufferManager::queue_lock_"};
  EvictionPolicy policy_ SSAGG_GUARDED_BY(queue_lock_);
  std::deque<EvictionEntry> queues_[2] SSAGG_GUARDED_BY(queue_lock_);
  /// Length of each queue after its last purge of dead entries.
  idx_t purged_length_[2] SSAGG_GUARDED_BY(queue_lock_) = {0, 0};

  /// Threads inside EvictBlocks that currently hold a candidate's block
  /// lock (its spill write in progress). A reservation that finds the
  /// queues empty while such a holder exists retries instead of reporting
  /// OutOfMemory: the holder's block is about to free memory or be
  /// re-enqueued. Mere scanners must not count — two empty-handed
  /// concurrent scans seeing each other would retry forever.
  std::atomic<idx_t> eviction_lock_holders_{0};

  /// The frame pool: idle kPageSize frames, reused before new ones are
  /// mapped. Leaf lock, ranked above every lock a buffer can be released
  /// under (block, eviction queue, temp file). Every
  /// increase of memory_used_ or of the pool is checked under it, which
  /// keeps memory_used_ + idle frame bytes within the limit; decreases need
  /// no lock.
  mutable Mutex frame_lock_{LockRank::kFramePool,
                            "BufferManager::frame_lock_"};
  std::vector<data_ptr_t> idle_frames_ SSAGG_GUARDED_BY(frame_lock_);
  std::atomic<idx_t> frames_mapped_{0};

  std::atomic<idx_t> evicted_persistent_count_{0};
  std::atomic<idx_t> evicted_temporary_count_{0};
  std::atomic<idx_t> reused_buffers_{0};
  std::atomic<idx_t> oom_rejections_{0};
  std::atomic<int64_t> pinned_buffers_{0};

  /// Cached global-registry key ids ("bm.*"), resolved at construction.
  idx_t key_evict_persistent_;
  idx_t key_evict_temp_spilled_;
  idx_t key_evict_temp_destroyed_;
  idx_t key_buffer_reuse_;
  idx_t key_oom_rejections_;
  idx_t key_frame_pool_hits_;
  /// Histogram id: time EvictBlocks spent selecting victims (scan + try-lock
  /// churn, excluding the spill write itself).
  idx_t hist_evict_select_;
};

}  // namespace ssagg

#endif  // SSAGG_BUFFER_BUFFER_MANAGER_H_
