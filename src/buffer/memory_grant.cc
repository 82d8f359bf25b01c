#include "buffer/memory_grant.h"

#include <algorithm>

#include "observe/metrics.h"
#include "testing/fault_injector.h"

namespace ssagg {

Status GrantState::Charge(idx_t size) {
  for (;;) {
    idx_t new_used = used_.fetch_add(size, std::memory_order_relaxed) + size;
    if (new_used <= granted_.load(std::memory_order_acquire)) {
      return Status::OK();
    }
    // Undo the optimistic bump before asking the pool: TryGrow sizes the
    // grow off used(), and a failed charge must leave no residue.
    used_.fetch_sub(size, std::memory_order_relaxed);
    MemoryGrantPool *pool = pool_.load(std::memory_order_acquire);
    if (pool == nullptr || !pool->TryGrow(*this, new_used)) {
      return Status::OutOfMemory(
          "memory grant exhausted: query needs " + std::to_string(new_used) +
          " bytes but is granted " + std::to_string(granted()) +
          " of a " + std::to_string(pool ? pool->total() : 0) + "-byte pool");
    }
  }
}

void GrantState::ChargeOverdraft(idx_t size) {
  used_.fetch_add(size, std::memory_order_relaxed);
  overdraft_.fetch_add(size, std::memory_order_relaxed);
  if (MemoryGrantPool *pool = pool_.load(std::memory_order_acquire)) {
    MetricsRegistry::Global().Add(pool->key_overdraft_bytes_, size);
  }
}

void GrantState::Discharge(idx_t size) {
  idx_t prev = used_.fetch_sub(size, std::memory_order_relaxed);
  SSAGG_DASSERT(prev >= size);
  (void)prev;
}

bool GrantState::TryChargeSpill(idx_t bytes) {
  if (spill_quota_ == 0) {
    spilled_.fetch_add(bytes, std::memory_order_relaxed);
    return true;
  }
  idx_t now = spilled_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (now <= spill_quota_) {
    return true;
  }
  spilled_.fetch_sub(bytes, std::memory_order_relaxed);
  return false;
}

void GrantState::DischargeSpill(idx_t bytes) {
  idx_t prev = spilled_.fetch_sub(bytes, std::memory_order_relaxed);
  SSAGG_DASSERT(prev >= bytes);
  (void)prev;
}

MemoryGrantPool::MemoryGrantPool(idx_t total_bytes, idx_t grow_chunk)
    : total_(total_bytes),
      grow_chunk_(std::max<idx_t>(grow_chunk, 1)),
      key_grant_bytes_(MetricsRegistry::Global().KeyId("svc.grant_bytes")),
      key_grow_bytes_(MetricsRegistry::Global().KeyId("svc.grant_grow_bytes")),
      key_shrink_bytes_(
          MetricsRegistry::Global().KeyId("svc.grant_shrink_bytes")),
      key_overdraft_bytes_(
          MetricsRegistry::Global().KeyId("svc.grant_overdraft_bytes")) {}

MemoryGrantPool::~MemoryGrantPool() {
  // Queries must not outlive the service's pool; any still-active grant here
  // is a bug in the caller's teardown order. Detach them so a straggling
  // Charge cannot touch the dead pool.
  ScopedLock guard(lock_);
  for (auto &state : active_) {
    state->pool_.store(nullptr, std::memory_order_release);
  }
}

Result<MemoryGrant> MemoryGrantPool::TryAcquire(idx_t initial, idx_t floor,
                                                idx_t spill_quota) {
  initial = std::min(initial, total_);
  floor = std::min(floor, initial);
  if (FaultInjector *injector =
          fault_injector_.load(std::memory_order_acquire)) {
    SSAGG_RETURN_NOT_OK(injector->Hit(FaultSite::kGrant));
  }
  auto state = std::make_shared<GrantState>();
  state->spill_quota_ = spill_quota;
  state->floor_ = floor;
  {
    ScopedLock guard(lock_);
    idx_t free = total_ - granted_total_;
    if (free < initial) {
      free += ReclaimSlackLocked(nullptr, initial - free);
    }
    if (free < initial) {
      return Status::OutOfMemory(
          "grant pool exhausted: " + std::to_string(initial) +
          " bytes requested, " + std::to_string(free) + " reclaimable of " +
          std::to_string(total_));
    }
    granted_total_ += initial;
    state->granted_.store(initial, std::memory_order_release);
    state->peak_granted_.store(initial, std::memory_order_relaxed);
    state->pool_.store(this, std::memory_order_release);
    active_.push_back(state);
  }
  MetricsRegistry::Global().Add(key_grant_bytes_, initial);
  return MemoryGrant(this, std::move(state));
}

bool MemoryGrantPool::TryGrow(GrantState &state, idx_t min_target) {
  if (FaultInjector *injector =
          fault_injector_.load(std::memory_order_acquire)) {
    if (!injector->Hit(FaultSite::kGrant).ok()) {
      return false;
    }
  }
  idx_t grew;
  {
    ScopedLock guard(lock_);
    idx_t current = state.granted_.load(std::memory_order_relaxed);
    if (current >= min_target) {
      return true;  // a concurrent charge already grew it past us
    }
    // Round the target up to a chunk boundary so steady allocation streams
    // take the pool lock once per chunk, not once per page.
    idx_t target = ((min_target + grow_chunk_ - 1) / grow_chunk_) * grow_chunk_;
    target = std::min(target, total_);
    if (target < min_target) {
      return false;  // the request alone exceeds the whole pool
    }
    idx_t needed = target - current;
    idx_t free = total_ - granted_total_;
    if (free < needed) {
      free += ReclaimSlackLocked(&state, needed - free);
    }
    if (free < needed) {
      // Partial growth up to whatever is free still helps if it covers the
      // caller's minimum.
      target = current + free;
      if (target < min_target) {
        return false;
      }
      needed = free;
    }
    granted_total_ += needed;
    state.granted_.store(target, std::memory_order_release);
    idx_t peak = state.peak_granted_.load(std::memory_order_relaxed);
    while (target > peak && !state.peak_granted_.compare_exchange_weak(
                                peak, target, std::memory_order_relaxed)) {
    }
    grew = needed;
  }
  MetricsRegistry::Global().Add(key_grant_bytes_, grew);
  MetricsRegistry::Global().Add(key_grow_bytes_, grew);
  return true;
}

idx_t MemoryGrantPool::ReclaimSlackLocked(const GrantState *except,
                                          idx_t needed) {
  idx_t reclaimed = 0;
  for (auto &other : active_) {
    if (reclaimed >= needed) {
      break;
    }
    if (other.get() == except) {
      continue;
    }
    idx_t granted = other->granted_.load(std::memory_order_relaxed);
    // A charge racing this shrink may push used past the shrunk grant by one
    // in-flight reservation; that transient over-grant is benign (grants are
    // policy — the BufferManager's global limit stays the hard bound) and
    // self-corrects on the query's next charge or discharge.
    idx_t keep = std::max(other->used_.load(std::memory_order_relaxed),
                          other->floor_);
    if (granted <= keep) {
      continue;
    }
    idx_t take = std::min(granted - keep, needed - reclaimed);
    other->granted_.store(granted - take, std::memory_order_release);
    reclaimed += take;
  }
  granted_total_ -= reclaimed;
  if (reclaimed > 0) {
    MetricsRegistry::Global().Add(key_shrink_bytes_, reclaimed);
  }
  return reclaimed;
}

void MemoryGrantPool::Release(const std::shared_ptr<GrantState> &state) {
  idx_t returned;
  {
    ScopedLock guard(lock_);
    returned = state->granted_.load(std::memory_order_relaxed);
    state->granted_.store(0, std::memory_order_release);
    state->pool_.store(nullptr, std::memory_order_release);
    SSAGG_DASSERT(granted_total_ >= returned);
    granted_total_ -= returned;
    active_.erase(std::remove(active_.begin(), active_.end(), state),
                  active_.end());
  }
  if (returned > 0) {
    MetricsRegistry::Global().Add(key_shrink_bytes_, returned);
  }
}

idx_t MemoryGrantPool::granted_total() const {
  ScopedLock guard(lock_);
  return granted_total_;
}

idx_t MemoryGrantPool::free_bytes() const {
  ScopedLock guard(lock_);
  return total_ - granted_total_;
}

idx_t MemoryGrantPool::active_grants() const {
  ScopedLock guard(lock_);
  return active_.size();
}

idx_t MemoryGrantPool::used_total() const {
  ScopedLock guard(lock_);
  idx_t used = 0;
  for (const auto &state : active_) {
    used += state->used();
  }
  return used;
}

MemoryGrant &MemoryGrant::operator=(MemoryGrant &&other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    state_ = std::move(other.state_);
    other.pool_ = nullptr;
    other.state_ = nullptr;
  }
  return *this;
}

void MemoryGrant::Release() {
  if (state_ != nullptr && pool_ != nullptr) {
    pool_->Release(state_);
  }
  state_ = nullptr;
  pool_ = nullptr;
}

}  // namespace ssagg
