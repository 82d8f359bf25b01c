#include "buffer/buffer_manager.h"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <new>
#include <thread>
#include <vector>

#if defined(SSAGG_ASAN)
#include <sanitizer/asan_interface.h>
#endif

#include "buffer/memory_grant.h"
#include "observe/log.h"
#include "observe/metrics.h"
#include "observe/trace.h"
#include "testing/fault_injector.h"

namespace ssagg {

//===----------------------------------------------------------------------===//
// FileBuffer
//===----------------------------------------------------------------------===//

namespace {
/// nullptr when the kernel refuses the mapping.
data_ptr_t MapFrame(idx_t size) {
  void *ptr = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return ptr == MAP_FAILED ? nullptr : static_cast<data_ptr_t>(ptr);
}

void UnmapFrame(data_ptr_t frame, idx_t size) { ::munmap(frame, size); }

// Under AddressSanitizer an idle pool frame is poisoned, so that a stale
// pointer into a released page is reported just as a use after free() was.
void PoisonFrame([[maybe_unused]] data_ptr_t frame) {
#if defined(SSAGG_ASAN)
  ASAN_POISON_MEMORY_REGION(frame, kPageSize);
#endif
}

void UnpoisonFrame([[maybe_unused]] data_ptr_t frame) {
#if defined(SSAGG_ASAN)
  ASAN_UNPOISON_MEMORY_REGION(frame, kPageSize);
#endif
}
}  // namespace

Result<std::unique_ptr<FileBuffer>> FileBuffer::Create(idx_t size) {
  data_ptr_t data = MapFrame(size);
  if (data == nullptr) {
    return Status::OutOfMemory("cannot map a buffer of " +
                               std::to_string(size) + " bytes");
  }
  return std::unique_ptr<FileBuffer>(new FileBuffer(data, size, nullptr));
}

FileBuffer::~FileBuffer() {
  if (pool_ != nullptr) {
    pool_->ReleaseFrame(data_);
  } else {
    UnmapFrame(data_, size_);
  }
}

//===----------------------------------------------------------------------===//
// BlockHandle / BufferHandle
//===----------------------------------------------------------------------===//

BlockHandle::~BlockHandle() {
  // The last shared_ptr is gone, so no pins can be outstanding; release any
  // memory or temporary-file space still held.
  manager_.CleanupDroppedBlock(*this);
}

void BufferHandle::Reset() {
  if (handle_) {
    handle_->manager_.Unpin(*handle_);
    handle_.reset();
  }
  buffer_ = nullptr;
}

//===----------------------------------------------------------------------===//
// NonPagedAllocation
//===----------------------------------------------------------------------===//

NonPagedAllocation &NonPagedAllocation::operator=(
    NonPagedAllocation &&other) noexcept {
  if (this != &other) {
    Reset();
    manager_ = other.manager_;
    data_ = other.data_;
    size_ = other.size_;
    grant_ = std::move(other.grant_);
    other.manager_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void NonPagedAllocation::Reset() {
  if (data_ != nullptr) {
    delete[] data_;
    manager_->FreeNonPaged(size_);
    if (grant_ != nullptr) {
      grant_->Discharge(size_);
    }
    data_ = nullptr;
    manager_ = nullptr;
    size_ = 0;
  }
  grant_.reset();
}

//===----------------------------------------------------------------------===//
// BufferManager
//===----------------------------------------------------------------------===//

BufferManagerOptions BufferManagerOptions::FromEnv() {
  BufferManagerOptions options;
  options.io_backend = IoBackendKindFromEnv();
  options.spill_compression = SpillCompressionFromEnv();
  return options;
}

namespace {
BufferManagerOptions WithPolicy(EvictionPolicy policy) {
  BufferManagerOptions options = BufferManagerOptions::FromEnv();
  options.policy = policy;
  return options;
}
}  // namespace

BufferManager::BufferManager(std::string temp_directory, idx_t memory_limit,
                             EvictionPolicy policy, FileSystem &fs)
    : BufferManager(std::move(temp_directory), memory_limit,
                    WithPolicy(policy), fs) {}

BufferManager::BufferManager(std::string temp_directory, idx_t memory_limit,
                             BufferManagerOptions options, FileSystem &fs)
    : temp_directory_(std::move(temp_directory)),
      fs_(fs),
      memory_limit_(memory_limit),
      io_backend_(CreateIoBackend(options.io_backend, options.io_threads)),
      spill_batch_(options.spill_batch != 0
                       ? options.spill_batch
                       : (io_backend_->kind() == IoBackendKind::kSync ? 1
                                                                      : 16)),
      prefetch_enabled_(options.prefetch &&
                        io_backend_->kind() != IoBackendKind::kSync),
      temp_files_(temp_directory_, fs, io_backend_.get(),
                  options.spill_compression),
      policy_(options.policy) {
  MetricsRegistry &registry = MetricsRegistry::Global();
  key_evict_persistent_ = registry.KeyId("bm.evictions_persistent");
  key_evict_temp_spilled_ = registry.KeyId("bm.evictions_temporary_spilled");
  key_evict_temp_destroyed_ =
      registry.KeyId("bm.evictions_temporary_destroyed");
  key_buffer_reuse_ = registry.KeyId("bm.buffer_reuse_hits");
  key_oom_rejections_ = registry.KeyId("bm.oom_rejections");
  key_frame_pool_hits_ = registry.KeyId("bm.frame_pool_hits");
  hist_pin_wait_ = registry.HistogramId("bm.pin_wait_ns");
  hist_evict_select_ = registry.HistogramId("bm.evict_select_ns");
}

BufferManager::~BufferManager() {
  // Outstanding prefetch completions hold shared_ptr<BlockHandle> and touch
  // this manager; none may survive past here.
  io_backend_->Drain();
  std::vector<data_ptr_t> idle;
  {
    ScopedLock guard(frame_lock_);
    TrimFramesLocked(0, &idle);
  }
  UnmapPoolFrames(idle);
}

void BufferManager::SetMemoryLimit(idx_t limit) {
  memory_limit_.store(limit);
  std::vector<data_ptr_t> trimmed;
  {
    ScopedLock guard(frame_lock_);
    idx_t used = memory_used_.load(std::memory_order_relaxed);
    TrimFramesLocked(used < limit ? limit - used : 0, &trimmed);
  }
  UnmapPoolFrames(trimmed);
}

//===----------------------------------------------------------------------===//
// Frame pool
//===----------------------------------------------------------------------===//

bool BufferManager::TryCharge(idx_t size, std::unique_ptr<FileBuffer> *frame) {
  SSAGG_DASSERT(frame == nullptr || size == kPageSize);
  std::vector<data_ptr_t> trimmed;
  data_ptr_t taken = nullptr;
  {
    ScopedLock guard(frame_lock_);
    idx_t used = memory_used_.load(std::memory_order_relaxed);
    idx_t limit = memory_limit_.load(std::memory_order_relaxed);
    if (size > limit || used > limit - size) {
      return false;
    }
    if (frame != nullptr && !idle_frames_.empty()) {
      // The frame's bytes move from the pool to the charge: the sum stays.
      taken = idle_frames_.back();
      idle_frames_.pop_back();
    } else {
      TrimFramesLocked(limit - used - size, &trimmed);
    }
    memory_used_.fetch_add(size, std::memory_order_relaxed);
  }
  UnmapPoolFrames(trimmed);
  if (taken != nullptr) {
    UnpoisonFrame(taken);
    MetricsRegistry::Global().Add(key_frame_pool_hits_, 1);
    frame->reset(new FileBuffer(taken, kPageSize, this));
  }
  return true;
}

std::unique_ptr<FileBuffer> BufferManager::MapBuffer(idx_t size) {
  if (size != kPageSize) {
    auto buffer = FileBuffer::Create(size);
    return buffer.ok() ? buffer.MoveValue() : nullptr;
  }
  data_ptr_t frame = MapFrame(kPageSize);
  if (frame == nullptr) {
    return nullptr;
  }
  frames_mapped_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<FileBuffer>(new FileBuffer(frame, kPageSize, this));
}

void BufferManager::ReleaseFrame(data_ptr_t frame) {
  // Poisoned before it is published: once in the list another thread may
  // take (and unpoison) it.
  PoisonFrame(frame);
  {
    ScopedLock guard(frame_lock_);
    idx_t used = memory_used_.load(std::memory_order_relaxed);
    idx_t limit = memory_limit_.load(std::memory_order_relaxed);
    idx_t idle_bytes = idle_frames_.size() * kPageSize;
    if (used <= limit && idle_bytes + kPageSize <= limit - used) {
      idle_frames_.push_back(frame);
      return;
    }
  }
  std::vector<data_ptr_t> rejected{frame};
  UnmapPoolFrames(rejected);
}

void BufferManager::TrimFramesLocked(idx_t keep_bytes,
                                     std::vector<data_ptr_t> *out) {
  while (idle_frames_.size() * kPageSize > keep_bytes) {
    out->push_back(idle_frames_.back());
    idle_frames_.pop_back();
  }
}

void BufferManager::UnmapPoolFrames(std::vector<data_ptr_t> &frames) {
  // Frames mapped one after another usually sit next to each other, so one
  // munmap covers each run of adjacent frames instead of one per frame.
  std::sort(frames.begin(), frames.end(), std::less<data_ptr_t>());
  idx_t start = 0;
  while (start < frames.size()) {
    idx_t end = start + 1;
    while (end < frames.size() && frames[end] == frames[end - 1] + kPageSize) {
      end++;
    }
    // Unpoisoned first: the shadow would otherwise outlive the mapping and
    // flag whatever the kernel maps at these addresses next.
    for (idx_t i = start; i < end; i++) {
      UnpoisonFrame(frames[i]);
    }
    UnmapFrame(frames[start], (end - start) * kPageSize);
    start = end;
  }
  frames_mapped_.fetch_sub(frames.size(), std::memory_order_relaxed);
}

void BufferManager::CancelReservation(idx_t size, GrantState *grant) {
  memory_used_.fetch_sub(size, std::memory_order_relaxed);
  if (grant != nullptr) {
    grant->Discharge(size);
  }
}

idx_t BufferManager::QueueIndexLocked(BlockKind kind) const {
  if (policy_ == EvictionPolicy::kMixed) {
    return 0;
  }
  return kind == BlockKind::kPersistent ? 1 : 0;
}

EvictionPolicy BufferManager::policy() const {
  ScopedLock guard(queue_lock_);
  return policy_;
}

void BufferManager::SetEvictionPolicy(EvictionPolicy policy) {
  ScopedLock guard(queue_lock_);
  // Redistribute existing entries according to the new policy's queue
  // mapping. Stale entries are carried along; they are skipped lazily.
  std::deque<EvictionEntry> all;
  for (auto &queue : queues_) {
    for (auto &entry : queue) {
      all.push_back(std::move(entry));
    }
    queue.clear();
  }
  purged_length_[0] = purged_length_[1] = 0;
  policy_ = policy;
  for (auto &entry : all) {
    auto handle = entry.handle.lock();
    if (!handle) {
      continue;
    }
    queues_[QueueIndexLocked(handle->kind())].push_back(std::move(entry));
  }
}

void BufferManager::ChargeLoaded(BlockKind kind, idx_t size) {
  if (kind == BlockKind::kPersistent) {
    persistent_loaded_bytes_.fetch_add(size, std::memory_order_relaxed);
  } else {
    temporary_loaded_bytes_.fetch_add(size, std::memory_order_relaxed);
  }
}

void BufferManager::DischargeLoaded(BlockKind kind, idx_t size) {
  if (kind == BlockKind::kPersistent) {
    persistent_loaded_bytes_.fetch_sub(size, std::memory_order_relaxed);
  } else {
    temporary_loaded_bytes_.fetch_sub(size, std::memory_order_relaxed);
  }
}

// SAFETY: this function manages a *set* of manually try-locked block handles
// (the spill batch) whose locks are held across the batched write and
// released one by one afterwards — a pattern scoped capabilities cannot
// express. Lock order is preserved: block locks are only ever try-locked,
// and queue_lock_ is a leaf acquired below them.
void BufferManager::DischargeGrant(BlockHandle &block) {
  if (block.grant_ != nullptr) {
    block.grant_->Discharge(block.size_);
  }
}

void BufferManager::DischargeSpillQuota(BlockHandle &block) {
  if (block.grant_ != nullptr) {
    block.grant_->DischargeSpill(block.size_);
  }
}

Result<std::unique_ptr<FileBuffer>>
// SAFETY: see the rationale above.
BufferManager::EvictBlocks(idx_t reuse_size, const GrantState *only_grant)
    SSAGG_NO_THREAD_SAFETY_ANALYSIS {
  // Lock-holder accounting for the dry-queue back-off below. Only threads
  // that currently *hold* candidate locks count: a scan that merely pops and
  // examines entries must not — two concurrent scans that each find nothing
  // would otherwise see each other "in flight" and retry forever, turning a
  // genuine out-of-memory condition into a livelock (observed with two
  // tight-grant queries spilling themselves down simultaneously).
  idx_t held_locks = 0;
  auto note_lock = [&]() {
    if (held_locks++ == 0) {
      eviction_lock_holders_.fetch_add(1, std::memory_order_acq_rel);
    }
  };
  auto note_unlock = [&]() {
    SSAGG_DASSERT(held_locks > 0);
    if (--held_locks == 0) {
      eviction_lock_holders_.fetch_sub(1, std::memory_order_acq_rel);
    }
  };
  struct HolderGuard {
    idx_t &held;
    std::atomic<idx_t> &count;
    ~HolderGuard() {
      SSAGG_DASSERT(held == 0);  // every path unlocks before returning
      if (held > 0) {
        count.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
  } holder_guard{held_locks, eviction_lock_holders_};

  // Victim-selection time: queue scanning and try-lock churn up to the
  // point a decision is made (spill, drop, or give up) — the write itself
  // is excluded; the spill histograms cover that.
  auto select_start = std::chrono::steady_clock::now();
  bool selection_recorded = false;
  auto record_selection = [&]() {
    if (selection_recorded) {
      return;
    }
    selection_recorded = true;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - select_start)
                  .count();
    MetricsRegistry::Global().Record(hist_evict_select_,
                                     static_cast<uint64_t>(ns));
  };

  // Fixed-size spill candidates whose lock_ this function currently holds.
  std::vector<std::shared_ptr<BlockHandle>> batch;

  auto enqueue = [this](const std::shared_ptr<BlockHandle> &handle,
                        uint64_t seq, bool front) {
    ScopedLock guard(queue_lock_);
    auto &queue = queues_[QueueIndexLocked(handle->kind())];
    if (front) {
      queue.push_front(EvictionEntry{handle->weak_from_this(), seq});
    } else {
      queue.push_back(EvictionEntry{handle->weak_from_this(), seq});
    }
  };

  // Drops the (locked, spill-complete or free-to-drop) block's buffer,
  // harvesting the first reuse_size-sized one for the caller.
  auto finalize = [&](BlockHandle &block, std::unique_ptr<FileBuffer> &result)
                      // SAFETY: called only while the block's lock_ is held.
                      SSAGG_NO_THREAD_SAFETY_ANALYSIS {
    if (!result && block.size_ == reuse_size) {
      // Hand the buffer to the new allocation; its memory charge transfers.
      // The evicted query's grant still gets its bytes back: the new
      // allocation was already charged to its own grant by ReserveMemory.
      DischargeLoaded(block.kind_, block.size_);
      DischargeGrant(block);
      result = std::move(block.buffer_);
      block.state_ = BlockState::kUnloaded;
      reused_buffers_.fetch_add(1, std::memory_order_relaxed);
      MetricsRegistry::Global().Add(key_buffer_reuse_, 1);
      return;
    }
    UnloadBlock(block);
  };

  // Spills the batch as one overlapped submission. All-or-nothing: if any
  // member fails, successful members release their slots, every block stays
  // loaded and is re-enqueued, and the first error propagates.
  // SAFETY: owns (and releases) the batch members' manually held locks.
  auto flush = [&]() SSAGG_NO_THREAD_SAFETY_ANALYSIS
      -> Result<std::unique_ptr<FileBuffer>> {
    SSAGG_DASSERT(!batch.empty());
    SSAGG_LOG_DEBUG("spilling batch of %llu temporary pages",
                    static_cast<unsigned long long>(batch.size()));
    std::vector<FixedSpillRequest> requests(batch.size());
    for (idx_t i = 0; i < batch.size(); i++) {
      requests[i].buffer = batch[i]->buffer_.get();
      requests[i].grant = batch[i]->grant_.get();
    }
    temp_files_.WriteFixedBlocks(requests.data(), requests.size());
    Status first_error;
    bool io_failure = false;
    for (const auto &request : requests) {
      if (!request.status.ok()) {
        // Prefer a real I/O error over a quota refusal as the surfaced
        // status: the former must propagate, the latter only means one
        // member's query is out of spill quota.
        if (first_error.ok() || (!io_failure && !request.quota_refused)) {
          first_error = request.status;
        }
        io_failure = io_failure || !request.quota_refused;
      }
    }
    if (!first_error.ok()) {
      for (idx_t i = 0; i < batch.size(); i++) {
        if (requests[i].status.ok() && requests[i].slot != kInvalidIndex) {
          temp_files_.FreeFixedSlot(requests[i].slot);
          // The write-time quota charge is undone with the slot.
          DischargeSpillQuota(*batch[i]);
        }
        if (requests[i].quota_refused) {
          // Out-of-quota block: consume its queue entry, exactly like the
          // in-memory-only skip — it stays loaded and cannot be offloaded,
          // so it must stop surfacing as a candidate until re-unpinned.
          batch[i]->lock_.unlock();
          note_unlock();
          continue;
        }
        uint64_t seq = batch[i]->eviction_seq_.fetch_add(
                           1, std::memory_order_relaxed) +
                       1;
        batch[i]->lock_.unlock();
        note_unlock();
        enqueue(batch[i], seq, /*front=*/false);
      }
      batch.clear();
      if (!io_failure) {
        // Only quota refusals: nothing actually failed. Report "no buffer";
        // ReserveMemory rescans, now filtering the refused grant's blocks.
        return std::unique_ptr<FileBuffer>(nullptr);
      }
      return first_error;
    }
    std::unique_ptr<FileBuffer> result;
    for (idx_t i = 0; i < batch.size(); i++) {
      batch[i]->temp_slot_ = requests[i].slot;
      evicted_temporary_count_.fetch_add(1, std::memory_order_relaxed);
      MetricsRegistry::Global().Add(key_evict_temp_spilled_, 1);
      finalize(*batch[i], result);
      batch[i]->lock_.unlock();
      note_unlock();
    }
    batch.clear();
    return result;
  };

  while (true) {
    std::shared_ptr<BlockHandle> candidate;
    uint64_t entry_seq = 0;
    {
      ScopedLock guard(queue_lock_);
      // Order in which the queues are drained, per policy. Computed under
      // the queue lock: policy_ may change concurrently (it used to be read
      // unlocked here, racing with SetEvictionPolicy).
      idx_t order[2] = {0, 1};
      if (policy_ == EvictionPolicy::kPersistentFirst) {
        order[0] = 1;
        order[1] = 0;
      }
      for (idx_t qi : order) {
        auto &queue = queues_[qi];
        for (auto it = queue.begin(); it != queue.end();) {
          auto handle = it->handle.lock();
          if (!handle) {
            it = queue.erase(it);  // block was dropped entirely
            continue;
          }
          if (only_grant != nullptr && handle->grant_.get() != only_grant) {
            // Grant-restricted scan (a query spilling itself down to fit
            // its grant): other queries' blocks are not victims. Their
            // entries stay in the queue untouched — holding them aside
            // until the scan ends would blind concurrent scans to them.
            // (grant_ is immutable once the handle is published, so this
            // read needs no handle lock.)
            ++it;
            continue;
          }
          candidate = std::move(handle);
          entry_seq = it->seq;
          queue.erase(it);
          break;
        }
        if (candidate) {
          break;
        }
      }
    }
    if (!candidate) {
      if (!batch.empty()) {
        // The queues ran dry while gathering a batch; what we have is
        // enough to satisfy the reservation.
        record_selection();
        return flush();
      }
      if (eviction_lock_holders_.load(std::memory_order_acquire) > 0) {
        // Another thread's eviction batch holds the remaining candidates
        // locked. That is not out-of-memory: its blocks are either about to
        // free their memory or to be re-enqueued. Back off and let
        // ReserveMemory retry.
        std::this_thread::yield();
        record_selection();
        return std::unique_ptr<FileBuffer>(nullptr);
      }
      record_selection();
      return Status::OutOfMemory(
          "memory limit exceeded and no page can be evicted");
    }
    if (!candidate->lock_.try_lock()) {
      // Someone is pinning or evicting this block; its queue entry will be
      // recreated on the next unpin if needed.
      continue;
    }
    note_lock();
    if (candidate->eviction_seq_.load(std::memory_order_relaxed) !=
            entry_seq ||
        candidate->readers_.load(std::memory_order_relaxed) != 0 ||
        candidate->state_ != BlockState::kLoaded || candidate->destroyed_) {
      candidate->lock_.unlock();
      note_unlock();
      continue;  // stale entry
    }
    BlockKind kind = candidate->kind_;
    idx_t size = candidate->size_;
    if (kind != BlockKind::kPersistent && !candidate->can_destroy_ &&
        !spill_temporary_.load(std::memory_order_relaxed)) {
      // In-memory-only mode: temporary pages cannot be offloaded. Drop the
      // queue entry and keep looking; with nothing else evictable the
      // reservation fails with OutOfMemory (the engine "aborts").
      candidate->lock_.unlock();
      note_unlock();
      continue;
    }
    if (kind != BlockKind::kPersistent && !candidate->can_destroy_ &&
        candidate->grant_ != nullptr &&
        !candidate->grant_->CanSpill(candidate->size_)) {
      // The owning query is out of spill quota: its pages cannot be
      // offloaded (same treatment as in-memory-only). The write-time gate in
      // the temporary-file manager stays authoritative; this filter just
      // keeps doomed candidates out of spill batches.
      candidate->lock_.unlock();
      note_unlock();
      continue;
    }
    if (kind == BlockKind::kTemporaryFixed && !candidate->can_destroy_) {
      // Spillable fixed-size page: gather it (lock stays held) and keep
      // scanning until the batch is full. Depth 1 (the sync default)
      // reproduces the pre-batching one-write-per-eviction schedule.
      batch.push_back(std::move(candidate));
      if (batch.size() >= spill_batch_) {
        record_selection();
        return flush();
      }
      continue;
    }
    // Free-to-drop or variable-size candidate. If a batch is in progress,
    // put the candidate back where it came from (the original seq keeps the
    // entry valid) and satisfy the reservation from the batch instead.
    if (!batch.empty()) {
      candidate->lock_.unlock();
      note_unlock();
      enqueue(candidate, entry_seq, /*front=*/true);
      record_selection();
      return flush();
    }
    record_selection();
    if (kind == BlockKind::kPersistent) {
      // Contents are replicated in the database file: dropping is free.
      evicted_persistent_count_.fetch_add(1, std::memory_order_relaxed);
      MetricsRegistry::Global().Add(key_evict_persistent_, 1);
    } else if (candidate->can_destroy_) {
      candidate->destroyed_ = true;
      evicted_temporary_count_.fetch_add(1, std::memory_order_relaxed);
      MetricsRegistry::Global().Add(key_evict_temp_destroyed_, 1);
    } else {
      SSAGG_DASSERT(kind == BlockKind::kTemporaryVariable);
      SSAGG_LOG_DEBUG("spilling temporary block of %llu bytes",
                      static_cast<unsigned long long>(size));
      if (candidate->grant_ != nullptr &&
          !candidate->grant_->TryChargeSpill(size)) {
        // Raced past the quota filter above; same outcome — consume the
        // entry and keep scanning.
        candidate->lock_.unlock();
        note_unlock();
        continue;
      }
      Status spill =
          temp_files_.WriteVariableBlock(candidate->id_, *candidate->buffer_);
      if (!spill.ok()) {
        DischargeSpillQuota(*candidate);
        // The block stays loaded and unpinned; re-enqueue it so it remains
        // an eviction candidate for later reservations (its previous queue
        // entry was consumed above). The failed reservation propagates.
        uint64_t seq = candidate->eviction_seq_.fetch_add(
                           1, std::memory_order_relaxed) +
                       1;
        candidate->lock_.unlock();
        note_unlock();
        enqueue(candidate, seq, /*front=*/false);
        return spill;
      }
      candidate->spilled_to_own_file_ = true;
      evicted_temporary_count_.fetch_add(1, std::memory_order_relaxed);
      MetricsRegistry::Global().Add(key_evict_temp_spilled_, 1);
    }
    std::unique_ptr<FileBuffer> result;
    finalize(*candidate, result);
    candidate->lock_.unlock();
    note_unlock();
    return result;
  }
}

void BufferManager::RecordOomRejection(idx_t request_size) {
  oom_rejections_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Global().Add(key_oom_rejections_, 1);
  // The refused request, and beside it what holds the pool.
  TraceInstant("oom_rejection", "bm", request_size);
  TraceCounter("bm.memory_used", memory_used_.load(std::memory_order_relaxed));
  TraceCounter("bm.pinned_buffers", PinnedBufferCount());
  SSAGG_LOG_INFO(
      "reservation rejected: memory limit %llu exceeded (%llu used) and no "
      "page can be evicted",
      static_cast<unsigned long long>(
          memory_limit_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          memory_used_.load(std::memory_order_relaxed)));
}

Result<std::unique_ptr<FileBuffer>> BufferManager::ReserveMemory(
    idx_t size, GrantState *grant, bool want_buffer) {
  if (FaultInjector *injector =
          fault_injector_.load(std::memory_order_acquire)) {
    SSAGG_RETURN_NOT_OK(injector->Hit(FaultSite::kAllocate));
  }
  if (grant != nullptr) {
    // Per-query arbitration first: the grant is the query's share of the
    // pool. A grant that cannot grow (pool contended, or an injected kGrant
    // fault) degrades to spilling the query's *own* pages — exactly the
    // paper's robustness story, applied per tenant. When even that is
    // impossible (everything resident is pinned), the charge overdrafts the
    // grant rather than failing: grants are arbitration policy, and a query
    // must not die for pool contention it cannot relieve. The global limit
    // below remains the hard bound that arbitrates overdrafts.
    //
    // The retry loop must be stall-bounded: a grant-restricted scan that
    // frees nothing is not always terminal (a concurrent eviction batch may
    // briefly hold the only candidates locked), but unbounded retries
    // against an all-pinned resident set would spin forever — observed as a
    // livelock between two tight-grant queries spilling themselves down
    // simultaneously.
    constexpr idx_t kGrantEvictStalls = 16;
    Status charged = grant->Charge(size);
    idx_t stalls = 0;
    while (!charged.ok()) {
      idx_t used_before = grant->used();
      auto evicted = EvictBlocks(/*reuse_size=*/0, grant);
      if (!evicted.ok()) {
        if (!evicted.status().IsOutOfMemory()) {
          return evicted.status();  // I/O failure while spilling ourselves
        }
        // Grant exhausted and nothing of ours left to evict: overdraft.
        RecordOomRejection(size);
        grant->ChargeOverdraft(size);
        break;
      }
      charged = grant->Charge(size);
      if (charged.ok()) {
        break;
      }
      if (grant->used() < used_before) {
        stalls = 0;  // the scan freed some of our bytes; keep going
        continue;
      }
      if (++stalls >= kGrantEvictStalls) {
        grant->ChargeOverdraft(size);  // persistent stall: stop spinning
        break;
      }
      std::this_thread::yield();
    }
  }
  // The grant must not stay charged if the global reservation fails below.
  auto discharge_on_error = [&](const Status &error) {
    if (grant != nullptr) {
      grant->Discharge(size);
    }
    return error;
  };
  const bool want_frame = want_buffer && size == kPageSize;
  // Pages that other threads free meanwhile (DestroyBlock, or the last
  // Unpin of a destroyed block) leave without an eviction, so a scan that
  // starts after they left can find nothing to evict although the charge
  // would now fit. A refusal after usage fell retries the charge, a bounded
  // number of times.
  constexpr idx_t kFreedRetries = 16;
  idx_t freed_retries = 0;
  while (true) {
    const idx_t used_before = memory_used_.load(std::memory_order_relaxed);
    std::unique_ptr<FileBuffer> buffer;
    if (TryCharge(size, want_frame ? &buffer : nullptr)) {
      if (want_buffer && !buffer) {
        buffer = MapBuffer(size);
        if (!buffer) {
          CancelReservation(size, grant);
          return Status::OutOfMemory("cannot map a page buffer of " +
                                     std::to_string(size) + " bytes");
        }
      }
      return buffer;
    }
    // Buffer reuse transfers the evicted block's charge, leaving usage
    // unchanged — only acceptable while usage is within the limit. When the
    // pool is over the limit (it was lowered), evictions must actually free
    // memory so usage converges below it.
    bool allow_reuse =
        want_buffer && memory_used_.load(std::memory_order_relaxed) <=
                           memory_limit_.load(std::memory_order_relaxed);
    auto evicted = EvictBlocks(allow_reuse ? size : 0);
    if (!evicted.ok()) {
      if (evicted.status().IsOutOfMemory()) {
        if (freed_retries < kFreedRetries &&
            memory_used_.load(std::memory_order_relaxed) < used_before) {
          freed_retries++;
          continue;
        }
        RecordOomRejection(size);
      }
      return discharge_on_error(evicted.status());
    }
    if (evicted.value()) {
      return std::move(evicted.value());  // charge transferred with buffer
    }
  }
}

Result<BufferHandle> BufferManager::Allocate(
    idx_t size, std::shared_ptr<BlockHandle> *out_handle, bool can_destroy) {
  SSAGG_ASSERT(size > 0);
  BlockKind kind = size == kPageSize ? BlockKind::kTemporaryFixed
                                     : BlockKind::kTemporaryVariable;
  GrantState *grant = GrantScope::Current();
  SSAGG_ASSIGN_OR_RETURN(auto buffer,
                         ReserveMemory(size, grant, /*want_buffer=*/true));
  auto handle = std::make_shared<BlockHandle>(
      *this, next_temp_block_id_.fetch_add(1), kind, size, can_destroy,
      nullptr);
  FileBuffer *raw;
  {
    // The handle has not been published yet; the lock is uncontended and
    // taken only to satisfy the capability analysis uniformly.
    ScopedLock lock(handle->lock_);
    if (grant != nullptr) {
      // Tag the block so every later charge/discharge (eviction, reload,
      // destroy) lands on the same query, whichever thread performs it.
      handle->grant_ = grant->shared_from_this();
    }
    handle->buffer_ = std::move(buffer);
    handle->state_ = BlockState::kLoaded;
    handle->readers_.store(1, std::memory_order_relaxed);
    raw = handle->buffer_.get();
  }
  pinned_buffers_.fetch_add(1, std::memory_order_relaxed);
  ChargeLoaded(kind, size);
  if (out_handle) {
    *out_handle = handle;
  }
  return BufferHandle(std::move(handle), raw);
}

std::shared_ptr<BlockHandle> BufferManager::RegisterPersistentBlock(
    FileBlockManager &block_manager, block_id_t block_id) {
  return std::make_shared<BlockHandle>(*this, block_id,
                                       BlockKind::kPersistent, kPageSize,
                                       /*can_destroy=*/false, &block_manager);
}

Result<BufferHandle> BufferManager::Pin(
    const std::shared_ptr<BlockHandle> &handle) {
  if (FaultInjector *injector =
          fault_injector_.load(std::memory_order_acquire)) {
    SSAGG_RETURN_NOT_OK(injector->Hit(FaultSite::kPin));
  }
  ScopedLock lock(handle->lock_);
  if (handle->destroyed_) {
    return Status::Aborted("pin of a destroyed block");
  }
  if (handle->state_ == BlockState::kLoading) {
    // An asynchronous prefetch is reading the block in; wait for it to
    // publish (kLoaded) or fail (kUnloaded + load_error_). The wait is the
    // query-visible cost of that read, so it counts as blocked-on-spill time.
    auto wait_start = std::chrono::steady_clock::now();
    handle->load_cv_.Wait(handle->lock_, [&]() SSAGG_REQUIRES(handle->lock_) {
      return handle->state_ != BlockState::kLoading;
    });
    auto waited_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wait_start)
            .count());
    load_wait_ns_.fetch_add(waited_ns, std::memory_order_relaxed);
    MetricsRegistry::Global().Record(hist_pin_wait_, waited_ns);
    if (handle->destroyed_) {
      return Status::Aborted("pin of a destroyed block");
    }
  }
  if (!handle->load_error_.ok()) {
    // A failed prefetch left its poison: surface the I/O error exactly once
    // (the block kept its spill state, so a later Pin retries the load).
    Status error = std::move(handle->load_error_);
    handle->load_error_ = Status::OK();
    return error;
  }
  if (handle->state_ == BlockState::kLoaded) {
    handle->readers_.fetch_add(1, std::memory_order_relaxed);
    pinned_buffers_.fetch_add(1, std::memory_order_relaxed);
    // Invalidate any queued eviction entries for this block.
    handle->eviction_seq_.fetch_add(1, std::memory_order_relaxed);
    return BufferHandle(handle, handle->buffer_.get());
  }
  // Block must be loaded from storage; make room first. Deadlock with
  // concurrent pins is avoided because eviction uses try_lock. The reload
  // charges the block's own grant (not the pinning thread's scope): a
  // foreign introspection thread pinning a session's page must not charge
  // its own query.
  SSAGG_ASSIGN_OR_RETURN(auto buffer,
                         ReserveMemory(handle->size_, handle->grant_.get(),
                                       /*want_buffer=*/true));
  Status read_status;
  switch (handle->kind_) {
    case BlockKind::kPersistent:
      read_status = handle->block_manager_->ReadBlock(handle->id_, *buffer);
      break;
    case BlockKind::kTemporaryFixed:
      SSAGG_ASSERT(handle->temp_slot_ != kInvalidIndex);
      read_status = temp_files_.ReadFixedBlock(handle->temp_slot_, *buffer);
      // The slot is only released on success; a failed read keeps the
      // block's spill state so its space is reclaimed when the handle is
      // dropped (no leaked slot, no dangling reference).
      if (read_status.ok()) {
        handle->temp_slot_ = kInvalidIndex;
        DischargeSpillQuota(*handle);
      }
      break;
    case BlockKind::kTemporaryVariable:
      SSAGG_ASSERT(handle->spilled_to_own_file_);
      read_status = temp_files_.ReadVariableBlock(handle->id_, *buffer);
      if (read_status.ok()) {
        handle->spilled_to_own_file_ = false;
        DischargeSpillQuota(*handle);
      }
      break;
  }
  if (!read_status.ok()) {
    // `buffer` goes back to the pool after the discharge.
    memory_used_.fetch_sub(handle->size_, std::memory_order_relaxed);
    DischargeGrant(*handle);
    return read_status;
  }
  handle->buffer_ = std::move(buffer);
  handle->state_ = BlockState::kLoaded;
  handle->readers_.store(1, std::memory_order_relaxed);
  pinned_buffers_.fetch_add(1, std::memory_order_relaxed);
  handle->eviction_seq_.fetch_add(1, std::memory_order_relaxed);
  ChargeLoaded(handle->kind_, handle->size_);
  return BufferHandle(handle, handle->buffer_.get());
}

void BufferManager::Prefetch(const std::shared_ptr<BlockHandle> &handle) {
  if (!prefetch_enabled_) {
    return;
  }
  if (!handle->lock_.try_lock()) {
    return;  // contended → it is being pinned or evicted right now anyway
  }
  FileBuffer *raw = nullptr;
  idx_t slot = kInvalidIndex;
  {
    ScopedLock lock(handle->lock_, std::adopt_lock);
    if (handle->destroyed_ || handle->kind_ != BlockKind::kTemporaryFixed ||
        handle->state_ != BlockState::kUnloaded ||
        handle->temp_slot_ == kInvalidIndex || !handle->load_error_.ok()) {
      return;  // not a spilled fixed page (or carrying unsurfaced poison)
    }
    // Speculative reservation: spare headroom only — never evict, never
    // consult the fault injector (a prefetch that cannot get memory is
    // simply skipped, not an error).
    std::unique_ptr<FileBuffer> buffer;
    if (!TryCharge(handle->size_, &buffer)) {
      return;  // memory is tight; the eventual Pin will evict as usual
    }
    if (!buffer) {
      buffer = MapBuffer(handle->size_);
    }
    // Speculative like the global half: never grow the grant for a
    // prefetch. The demand Pin charges (and grows) properly.
    if (!buffer || (handle->grant_ != nullptr &&
                    !handle->grant_->TryCharge(handle->size_))) {
      // `buffer` goes back to the pool after the discharge.
      memory_used_.fetch_sub(handle->size_, std::memory_order_relaxed);
      return;
    }
    handle->buffer_ = std::move(buffer);
    handle->state_ = BlockState::kLoading;
    raw = handle->buffer_.get();
    slot = handle->temp_slot_;
  }
  // Submit *outside* the block lock: a sync-completing backend runs
  // FinishPrefetch inline on this thread, which re-takes the lock.
  prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
  temp_files_.SubmitReadFixedBlock(
      slot, *raw,
      [this, handle](const Status &status) { FinishPrefetch(handle, status); });
}

void BufferManager::FinishPrefetch(const std::shared_ptr<BlockHandle> &handle,
                                   const Status &status) {
  bool loaded = false;
  {
    ScopedLock lock(handle->lock_);
    SSAGG_DASSERT(handle->state_ == BlockState::kLoading);
    if (status.ok()) {
      // The temporary-file manager released the slot with the read.
      handle->temp_slot_ = kInvalidIndex;
      DischargeSpillQuota(*handle);
      if (handle->destroyed_) {
        // Destroyed mid-flight: drop the freshly loaded contents.
        UnloadBlock(*handle);
      } else {
        handle->state_ = BlockState::kLoaded;
        handle->eviction_seq_.fetch_add(1, std::memory_order_relaxed);
        ChargeLoaded(handle->kind_, handle->size_);
        loaded = true;
        // The block is unpinned, so it is immediately an eviction candidate
        // again (LRU-freshest: it was just read back on purpose).
        uint64_t seq =
            handle->eviction_seq_.load(std::memory_order_relaxed);
        ScopedLock guard(queue_lock_);
        queues_[QueueIndexLocked(handle->kind_)].push_back(
            EvictionEntry{handle->weak_from_this(), seq});
      }
    } else {
      // Failed read keeps the slot (spill state stays reclaimable). Poison
      // the block so the next Pin surfaces the error; if it was destroyed
      // mid-flight nobody will pin again, so release the slot here.
      UnloadBlock(*handle);
      if (handle->destroyed_) {
        if (handle->temp_slot_ != kInvalidIndex) {
          temp_files_.FreeFixedSlot(handle->temp_slot_);
          handle->temp_slot_ = kInvalidIndex;
          DischargeSpillQuota(*handle);
        }
      } else {
        handle->load_error_ = status;
      }
    }
  }
  handle->load_cv_.NotifyAll();
  if (loaded) {
    prefetch_completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void BufferManager::UnloadBlock(BlockHandle &block) {
  if (block.state_ == BlockState::kLoaded) {
    DischargeLoaded(block.kind_, block.size_);
  }
  memory_used_.fetch_sub(block.size_, std::memory_order_relaxed);
  DischargeGrant(block);
  // Dropped after the discharge, so that the frame finds room in the pool.
  block.buffer_.reset();
  block.state_ = BlockState::kUnloaded;
}

void BufferManager::Unpin(BlockHandle &block) {
  // Declared first so that it is released after both locks.
  std::vector<std::shared_ptr<BlockHandle>> upgraded;
  ScopedLock lock(block.lock_);
  int32_t readers = block.readers_.fetch_sub(1, std::memory_order_relaxed) - 1;
  pinned_buffers_.fetch_sub(1, std::memory_order_relaxed);
  SSAGG_DASSERT(readers >= 0);
  if (readers != 0 || block.state_ != BlockState::kLoaded) {
    return;
  }
  if (block.destroyed_) {
    // DestroyBlock was called while pins were outstanding; free now.
    UnloadBlock(block);
    return;
  }
  // Becomes an eviction candidate.
  uint64_t seq =
      block.eviction_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  ScopedLock guard(queue_lock_);
  // weak_from_this is never expired here: the caller (BufferHandle) still
  // holds a shared_ptr.
  const idx_t qi = QueueIndexLocked(block.kind_);
  queues_[qi].push_back(EvictionEntry{block.weak_from_this(), seq});
  PurgeQueueLocked(qi, &upgraded);
}

void BufferManager::PurgeQueueLocked(
    idx_t qi, std::vector<std::shared_ptr<BlockHandle>> *upgraded) {
  // Short queues are left alone; past that, each purge is paid for by the
  // appends that doubled the queue.
  constexpr idx_t kMinPurgeLength = 256;
  auto &queue = queues_[qi];
  if (queue.size() < 2 * std::max(purged_length_[qi], kMinPurgeLength)) {
    return;
  }
  std::erase_if(queue, [&](const EvictionEntry &entry) {
    auto handle = entry.handle.lock();
    if (!handle) {
      return true;
    }
    const bool stale =
        handle->eviction_seq_.load(std::memory_order_relaxed) != entry.seq;
    upgraded->push_back(std::move(handle));
    return stale;
  });
  purged_length_[qi] = queue.size();
}

void BufferManager::DestroyBlock(const std::shared_ptr<BlockHandle> &handle) {
  ScopedLock lock(handle->lock_);
  if (handle->destroyed_) {
    return;
  }
  if (handle->state_ == BlockState::kLoading) {
    // Wait out the in-flight prefetch before destroying so the no-leak
    // invariant (no charge, no slot) holds the moment the owner is gone —
    // not at some later completion. Rare: only a destroy that races a
    // prefetch of the same block gets here.
    handle->load_cv_.Wait(handle->lock_, [&]() SSAGG_REQUIRES(handle->lock_) {
      return handle->state_ != BlockState::kLoading;
    });
  }
  handle->destroyed_ = true;
  if (handle->state_ == BlockState::kLoaded) {
    if (handle->readers_.load(std::memory_order_relaxed) == 0) {
      UnloadBlock(*handle);
    }
    // else: freed by the final Unpin.
    return;
  }
  // Spilled: release temporary-file space.
  if (handle->temp_slot_ != kInvalidIndex) {
    temp_files_.FreeFixedSlot(handle->temp_slot_);
    handle->temp_slot_ = kInvalidIndex;
    DischargeSpillQuota(*handle);
  }
  if (handle->spilled_to_own_file_) {
    temp_files_.FreeVariableBlock(handle->id_);
    handle->spilled_to_own_file_ = false;
    DischargeSpillQuota(*handle);
  }
}

void BufferManager::CleanupDroppedBlock(BlockHandle &block) {
  // Destructor context: the last shared_ptr is gone and eviction's weak_ptrs
  // can no longer be upgraded, so the lock is uncontended; taken anyway to
  // keep the capability analysis free of escapes. Acquired with try_lock
  // because this runs wherever the last reference happens to drop — e.g.
  // inside an eviction scan that already holds another block's lock — and
  // an acquisition that cannot block must not trip the lock-rank checker.
  if (!block.lock_.try_lock()) {
    block.lock_.lock();  // unreachable: no other owner can exist
  }
  ScopedLock lock(block.lock_, std::adopt_lock);
  if (block.destroyed_) {
    return;
  }
  if (block.state_ == BlockState::kLoaded) {
    UnloadBlock(block);
    return;
  }
  if (block.temp_slot_ != kInvalidIndex) {
    temp_files_.FreeFixedSlot(block.temp_slot_);
    DischargeSpillQuota(block);
  }
  if (block.spilled_to_own_file_) {
    temp_files_.FreeVariableBlock(block.id_);
    DischargeSpillQuota(block);
  }
}

Result<NonPagedAllocation> BufferManager::AllocateNonPaged(idx_t size) {
  GrantState *grant = GrantScope::Current();
  SSAGG_RETURN_NOT_OK(
      ReserveMemory(size, grant, /*want_buffer=*/false).status());
  data_ptr_t data = new (std::nothrow) data_t[size];
  if (data == nullptr) {
    CancelReservation(size, grant);
    return Status::OutOfMemory("cannot allocate " + std::to_string(size) +
                               " non-paged bytes");
  }
  const idx_t charged =
      non_paged_bytes_.fetch_add(size, std::memory_order_relaxed) + size;
  idx_t peak = non_paged_peak_.load(std::memory_order_relaxed);
  while (charged > peak && !non_paged_peak_.compare_exchange_weak(
                               peak, charged, std::memory_order_relaxed)) {
  }
  return NonPagedAllocation(
      this, data, size, grant != nullptr ? grant->shared_from_this() : nullptr);
}

void BufferManager::FreeNonPaged(idx_t size) {
  non_paged_bytes_.fetch_sub(size, std::memory_order_relaxed);
  memory_used_.fetch_sub(size, std::memory_order_relaxed);
}

Status BufferManager::ReserveExternalMemory(idx_t size) {
  // Deliberately ungranted: the external-memory path is only used by the
  // baseline sort models, whose Free calls are not tied to a session scope —
  // a grant charged here could not be reliably returned.
  return ReserveMemory(size, nullptr, /*want_buffer=*/false).status();
}

void BufferManager::FreeExternalMemory(idx_t size) {
  memory_used_.fetch_sub(size, std::memory_order_relaxed);
}

BufferManagerSnapshot BufferManager::Snapshot() const {
  BufferManagerSnapshot snap;
  snap.memory_used = memory_used_.load(std::memory_order_relaxed);
  snap.memory_limit = memory_limit_.load(std::memory_order_relaxed);
  snap.persistent_bytes_in_memory =
      persistent_loaded_bytes_.load(std::memory_order_relaxed);
  snap.temporary_bytes_in_memory =
      temporary_loaded_bytes_.load(std::memory_order_relaxed);
  snap.non_paged_bytes = non_paged_bytes_.load(std::memory_order_relaxed);
  snap.non_paged_peak = non_paged_peak_.load(std::memory_order_relaxed);
  snap.temp_file_size = temp_files_.CurrentSize();
  snap.temp_file_peak = temp_files_.PeakSize();
  snap.evicted_persistent_count =
      evicted_persistent_count_.load(std::memory_order_relaxed);
  snap.evicted_temporary_count =
      evicted_temporary_count_.load(std::memory_order_relaxed);
  snap.reused_buffers = reused_buffers_.load(std::memory_order_relaxed);
  snap.temp_writes = temp_files_.WriteCount();
  snap.temp_reads = temp_files_.ReadCount();
  snap.spill_bytes_written = temp_files_.BytesWritten();
  snap.spill_bytes_read = temp_files_.BytesRead();
  snap.spill_raw_bytes = temp_files_.RawBytesWritten();
  snap.spill_coalesced_writes = temp_files_.CoalescedWrites();
  snap.spill_coalesced_pages = temp_files_.CoalescedPages();
  snap.prefetch_issued = prefetch_issued_.load(std::memory_order_relaxed);
  snap.prefetch_completed =
      prefetch_completed_.load(std::memory_order_relaxed);
  snap.spill_write_seconds = temp_files_.WriteSeconds();
  snap.spill_read_seconds =
      temp_files_.ReadSeconds() +
      static_cast<double>(load_wait_ns_.load(std::memory_order_relaxed)) *
          1e-9;
  snap.spill_slot_reuses = temp_files_.SlotReuses();
  snap.spill_variable_files = temp_files_.VariableFilesCreated();
  snap.oom_rejections = oom_rejections_.load(std::memory_order_relaxed);
  {
    ScopedLock guard(frame_lock_);
    snap.frame_pool_bytes = idle_frames_.size() * kPageSize;
  }
  snap.frames_mapped = frames_mapped_.load(std::memory_order_relaxed);
  snap.pinned_buffers = PinnedBufferCount();
  {
    ScopedLock guard(queue_lock_);
    snap.eviction_queue_entries = queues_[0].size() + queues_[1].size();
  }
  return snap;
}

}  // namespace ssagg
