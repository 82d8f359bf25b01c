#ifndef SSAGG_OBSERVE_THREAD_SLOTS_H_
#define SSAGG_OBSERVE_THREAD_SLOTS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/constants.h"
#include "common/mutex.h"

namespace ssagg {

/// Per-thread slot pool behind the lock-free observability hot paths
/// (MetricsRegistry shards, FlightRecorder rings). Each thread writes only
/// its own slot; readers walk every slot under the owner's lock.
///
/// A thread takes a free slot on first use and allocates only when none is
/// free. On thread exit the slot returns to the pool with its contents
/// intact, so readers stay exact while the slot count is bounded by the
/// peak number of concurrent threads, not by the number ever spawned.
///
/// Slots are shared_ptr-held by both the pool and the threads using them,
/// and an exiting thread only clears the slot's in-use flag: a thread may
/// outlive the owner without touching it. Reuse happens under the owner's
/// lock (passed in, so the pool adds no lock of its own).
template <typename Slot>
class ThreadSlots {
 public:
  ThreadSlots() : id_(NextOwnerId()) {}

  ThreadSlots(const ThreadSlots &) = delete;
  ThreadSlots &operator=(const ThreadSlots &) = delete;

  /// The calling thread's slot: one compare when it last used this pool.
  /// `args` construct a new slot on the slow path only.
  template <typename... Args>
  Slot &Local(Mutex &lock, const Args &...args) {
    // Owner ids are never reused, so a destroyed pool's entry goes
    // permanently stale instead of aliasing a new instance.
    thread_local uint64_t last_owner = 0;
    thread_local Slot *last_slot = nullptr;
    if (last_owner != id_) {
      last_slot = &Acquire(lock, args...);
      last_owner = id_;
    }
    return *last_slot;
  }

  /// Visits every slot ever handed out, in creation order.
  template <typename Fn>
  void ForEach([[maybe_unused]] Mutex &lock, Fn &&fn) const
      SSAGG_REQUIRES(lock) {
    for (const auto &entry : entries_) {
      fn(entry->slot);
    }
  }

  [[nodiscard]] idx_t Count([[maybe_unused]] Mutex &lock) const
      SSAGG_REQUIRES(lock) {
    return entries_.size();
  }

 private:
  struct Entry {
    template <typename... Args>
    explicit Entry(const Args &...args) : slot(args...) {}
    /// Set under the owner's lock when handed out; cleared (release) by the
    /// holding thread on exit, after its last write to `slot`.
    std::atomic<bool> in_use{true};
    Slot slot;
  };

  /// The slots the calling thread holds, one per pool it has touched.
  struct Held {
    std::vector<std::pair<uint64_t, std::shared_ptr<Entry>>> entries;
    ~Held() {
      for (auto &held : entries) {
        held.second->in_use.store(false, std::memory_order_release);
      }
    }
  };

  static uint64_t NextOwnerId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  static Held &ThreadHeld() {
    thread_local Held held;
    return held;
  }

  template <typename... Args>
  Slot &Acquire(Mutex &lock, const Args &...args) {
    Held &held = ThreadHeld();
    for (auto &[owner, entry] : held.entries) {
      if (owner == id_) {
        return entry->slot;
      }
    }
    std::shared_ptr<Entry> entry;
    {
      ScopedLock guard(lock);
      for (const auto &candidate : entries_) {
        // Acquire pairs with the exiting holder's release: its writes to
        // the slot happen before ours.
        if (!candidate->in_use.load(std::memory_order_acquire)) {
          candidate->in_use.store(true, std::memory_order_relaxed);
          entry = candidate;
          break;
        }
      }
      if (entry == nullptr) {
        entry = std::make_shared<Entry>(args...);
        entries_.push_back(entry);
      }
    }
    held.entries.emplace_back(id_, entry);
    return entry->slot;
  }

  const uint64_t id_;
  /// Guarded by the owner's lock (the `lock` argument above).
  std::vector<std::shared_ptr<Entry>> entries_;
};

}  // namespace ssagg

#endif  // SSAGG_OBSERVE_THREAD_SLOTS_H_
