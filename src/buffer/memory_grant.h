#ifndef SSAGG_BUFFER_MEMORY_GRANT_H_
#define SSAGG_BUFFER_MEMORY_GRANT_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/constants.h"
#include "common/mutex.h"
#include "common/status.h"

namespace ssagg {

class FaultInjector;
class MemoryGrantPool;

/// Per-query memory-grant accounting (DESIGN.md section 13). One GrantState
/// exists per admitted query; the BufferManager consults it on every memory
/// reservation made on the query's behalf (the current grant is carried
/// per-thread by GrantScope and per-block by BlockHandle::grant_), so a
/// query's resident bytes can never exceed its granted share of the pool.
///
/// All counters are atomics: Charge/Discharge run on the query's worker
/// threads and on foreign threads evicting this query's pages. `granted_`
/// only moves under the owning pool's lock (grow/shrink/release), but a
/// charge racing a shrink may transiently exceed the shrunk grant by the
/// in-flight reservation — harmless, because grants are arbitration policy;
/// the BufferManager's global limit remains the hard bound on real memory.
class GrantState : public std::enable_shared_from_this<GrantState> {
 public:
  GrantState() = default;
  GrantState(const GrantState &) = delete;
  GrantState &operator=(const GrantState &) = delete;

  /// Bytes currently granted by the pool (the query's ceiling).
  [[nodiscard]] idx_t granted() const {
    return granted_.load(std::memory_order_relaxed);
  }
  /// Bytes currently charged against the grant (the query's resident share).
  [[nodiscard]] idx_t used() const {
    return used_.load(std::memory_order_relaxed);
  }
  /// Logical bytes of this query currently sitting in temporary files.
  [[nodiscard]] idx_t spilled() const {
    return spilled_.load(std::memory_order_relaxed);
  }
  /// Per-query spill quota in logical bytes; 0 = unlimited.
  [[nodiscard]] idx_t spill_quota() const { return spill_quota_; }
  /// Highest granted() ever observed (grow churn observability).
  [[nodiscard]] idx_t peak_granted() const {
    return peak_granted_.load(std::memory_order_relaxed);
  }

  /// Charges `size` bytes against the grant, growing it from the pool on
  /// demand (in pool grow-chunk increments). Returns kOutOfMemory with a
  /// "memory grant exhausted" message when the grant is full and the pool
  /// cannot grow it — the BufferManager then spills this query's own pages
  /// and retries, so hitting the ceiling degrades to spilling, not failure.
  Status Charge(idx_t size);
  /// Unconditional charge past the grant ceiling. Grants are arbitration
  /// policy, not a hard bound: when a query's resident set is all pinned,
  /// its grant cannot grow, and it has nothing of its own left to spill,
  /// failing the query would punish it for pool contention it cannot
  /// relieve. The BufferManager overdrafts instead and lets its global
  /// limit (the real hard bound) arbitrate from there.
  void ChargeOverdraft(idx_t size);
  void Discharge(idx_t size);

  /// Cumulative bytes ever charged past the grant (observability).
  [[nodiscard]] idx_t overdraft() const {
    return overdraft_.load(std::memory_order_relaxed);
  }

  /// Spill-quota half, charged by the BufferManager's eviction before every
  /// spill write of a granted block, in bytes of spilled pages.
  [[nodiscard]] bool TryChargeSpill(idx_t bytes);
  void DischargeSpill(idx_t bytes);

 private:
  friend class MemoryGrantPool;
  friend class MemoryGrant;

  std::atomic<idx_t> granted_{0};
  std::atomic<idx_t> used_{0};
  std::atomic<idx_t> spilled_{0};
  std::atomic<idx_t> peak_granted_{0};
  std::atomic<idx_t> overdraft_{0};
  /// Immutable after acquisition.
  idx_t spill_quota_ = 0;
  /// Reclaim floor: shrinking never takes the grant below this.
  idx_t floor_ = 0;
  /// The owning pool; must outlive every GrantState it handed out (the
  /// QueryService owns the pool and its sessions). nullptr once released:
  /// further Charge calls can no longer grow.
  std::atomic<MemoryGrantPool *> pool_{nullptr};
};

class MemoryGrant;

/// Arbitrates one BufferManager's global memory limit into per-query grants
/// (sum of granted bytes <= pool total). Growth is chunked; when the pool
/// runs dry it reclaims slack (granted - used, down to each grant's floor)
/// from other queries before refusing — so grants shrink as their queries
/// spill or finish phases, and tight pools converge to actual usage.
class MemoryGrantPool {
 public:
  explicit MemoryGrantPool(idx_t total_bytes,
                           idx_t grow_chunk = idx_t{256} * 1024);
  ~MemoryGrantPool();

  MemoryGrantPool(const MemoryGrantPool &) = delete;
  MemoryGrantPool &operator=(const MemoryGrantPool &) = delete;

  /// Tries to carve an initial grant out of the pool (reclaiming other
  /// grants' slack if needed). `initial` is clamped to the pool total;
  /// `floor` (<= initial) is the reclaim floor. Fails with kOutOfMemory when
  /// even after reclaim the pool cannot cover `initial` — the admission
  /// queue's cue to keep the query waiting.
  Result<MemoryGrant> TryAcquire(idx_t initial, idx_t floor,
                                 idx_t spill_quota = 0);

  [[nodiscard]] idx_t total() const { return total_; }
  [[nodiscard]] idx_t granted_total() const;
  [[nodiscard]] idx_t free_bytes() const;
  [[nodiscard]] idx_t active_grants() const;
  /// Sum of used() over active grants (== 0 at quiesce; the no-leaked-grant
  /// invariant the soak and fault suites assert).
  [[nodiscard]] idx_t used_total() const;

  /// Consulted (FaultSite::kGrant) on every acquire and grow, so sweeps can
  /// fail the k-th grant operation. Not owned; must outlive its use.
  void SetFaultInjector(FaultInjector *injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

 private:
  friend class GrantState;
  friend class MemoryGrant;

  /// Grows `state` until granted >= min_target (chunk-rounded), reclaiming
  /// other grants' slack if needed; false when the pool cannot cover it.
  bool TryGrow(GrantState &state, idx_t min_target);
  /// Returns the grant's bytes to the pool and retires it.
  void Release(const std::shared_ptr<GrantState> &state);
  /// Shrinks other grants toward max(used, floor) until `needed` bytes are
  /// free or nothing more can be reclaimed. Returns bytes reclaimed.
  idx_t ReclaimSlackLocked(const GrantState *except, idx_t needed)
      SSAGG_REQUIRES(lock_);

  const idx_t total_;
  const idx_t grow_chunk_;
  std::atomic<FaultInjector *> fault_injector_{nullptr};

  mutable Mutex lock_{LockRank::kGrantPool, "MemoryGrantPool::lock_"};
  idx_t granted_total_ SSAGG_GUARDED_BY(lock_) = 0;
  std::vector<std::shared_ptr<GrantState>> active_ SSAGG_GUARDED_BY(lock_);

  /// Cached global-registry ids ("svc.grant_*").
  idx_t key_grant_bytes_;
  idx_t key_grow_bytes_;
  idx_t key_shrink_bytes_;
  idx_t key_overdraft_bytes_;
};

/// RAII owner of one query's grant: releasing (or destroying) it returns
/// every granted byte to the pool. Move-only; the underlying GrantState is
/// shared with the blocks it charged, so accounting stays exact even while
/// foreign threads are still evicting this query's pages.
class MemoryGrant {
 public:
  MemoryGrant() = default;
  MemoryGrant(MemoryGrant &&other) noexcept { *this = std::move(other); }
  MemoryGrant &operator=(MemoryGrant &&other) noexcept;
  MemoryGrant(const MemoryGrant &) = delete;
  MemoryGrant &operator=(const MemoryGrant &) = delete;
  ~MemoryGrant() { Release(); }

  [[nodiscard]] bool IsValid() const { return state_ != nullptr; }
  [[nodiscard]] GrantState *state() const { return state_.get(); }
  [[nodiscard]] idx_t granted_bytes() const {
    return state_ ? state_->granted() : 0;
  }

  /// Returns the grant to the pool. The query's state must be gone (used()
  /// == 0) for the pool's leak invariant to hold; stray charges are
  /// surfaced by MemoryGrantPool::used_total().
  void Release();

 private:
  friend class MemoryGrantPool;
  MemoryGrant(MemoryGrantPool *pool, std::shared_ptr<GrantState> state)
      : pool_(pool), state_(std::move(state)) {}

  MemoryGrantPool *pool_ = nullptr;
  std::shared_ptr<GrantState> state_;
};

/// Installs a grant as the calling thread's current one: every reservation
/// the BufferManager makes on this thread (Allocate / AllocateNonPaged /
/// ReserveExternalMemory) is charged against it. Scopes nest; executor
/// worker threads install the session's grant around their run
/// (TaskExecutor::SetMemoryGrant).
class GrantScope {
 public:
  explicit GrantScope(GrantState *state) : prev_(current_) {
    current_ = state;
  }
  ~GrantScope() { current_ = prev_; }
  GrantScope(const GrantScope &) = delete;
  GrantScope &operator=(const GrantScope &) = delete;

  /// The calling thread's current grant; nullptr outside any scope (all
  /// non-service paths — grant accounting is then skipped entirely).
  static GrantState *Current() { return current_; }

 private:
  // Constant-initialized inline definition: no TLS init-on-first-use
  // wrapper on the access path (the scope is entered once per worker task).
  static inline thread_local GrantState *current_ = nullptr;
  GrantState *prev_;
};

}  // namespace ssagg

#endif  // SSAGG_BUFFER_MEMORY_GRANT_H_
