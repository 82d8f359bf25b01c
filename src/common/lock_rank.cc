#include "common/lock_rank.h"

#if defined(SSAGG_LOCK_RANK_CHECKS)

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace ssagg {
namespace lock_rank {
namespace {

struct HeldLock {
  LockRank rank;
  const char *name;
  const void *mutex;
};

/// Fixed-capacity per-thread stack: no allocation on the lock path (the
/// checker runs inside sanitized builds where a malloc here would recurse
/// into instrumented allocators). Depth 32 covers the deepest real chain
/// (service -> block -> queue -> TFM -> io -> observe) several times over;
/// overflow entries are counted but not tracked.
constexpr int kMaxHeld = 32;

thread_local HeldLock t_held[kMaxHeld];
thread_local int t_held_count = 0;
thread_local int t_overflow = 0;

std::atomic<std::uint64_t> g_violations{0};
std::atomic<bool> g_abort{true};

void ReportViolation(LockRank rank, const char *name, const HeldLock &worst) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  if (!g_abort.load(std::memory_order_relaxed)) {
    return;
  }
  std::fprintf(stderr,
               "ssagg lock-rank violation: blocking acquisition of \"%s\" "
               "(rank %u) while holding \"%s\" (rank %u); see "
               "scripts/lock_hierarchy.txt\n",
               name, static_cast<unsigned>(rank), worst.name,
               static_cast<unsigned>(worst.rank));
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void OnAcquire(LockRank rank, const char *name, const void *mutex,
               bool try_lock) {
  if (rank != LockRank::kUnranked && !try_lock) {
    // A blocking acquisition must out-rank everything already held. Report
    // against the highest-ranked held lock: that is the edge the hierarchy
    // forbids.
    const HeldLock *worst = nullptr;
    for (int i = 0; i < t_held_count; i++) {
      const HeldLock &held = t_held[i];
      if (held.rank == LockRank::kUnranked) {
        continue;
      }
      if (held.rank >= rank && (worst == nullptr || held.rank > worst->rank)) {
        worst = &held;
      }
    }
    if (worst != nullptr) {
      ReportViolation(rank, name, *worst);
    }
  }
  if (t_held_count >= kMaxHeld) {
    t_overflow++;
    return;
  }
  t_held[t_held_count++] = HeldLock{rank, name, mutex};
}

void OnRelease(const void *mutex) {
  // Scan newest-first: releases are usually LIFO, but a manually unlocked
  // mutex may be released out of order, so any held entry may match.
  for (int i = t_held_count - 1; i >= 0; i--) {
    if (t_held[i].mutex == mutex) {
      for (int j = i; j < t_held_count - 1; j++) {
        t_held[j] = t_held[j + 1];
      }
      t_held_count--;
      return;
    }
  }
  // Not tracked: either the overflow path swallowed the acquire, or the
  // mutex was locked on another thread. Ignore.
  if (t_overflow > 0) {
    t_overflow--;
  }
}

std::uint64_t ViolationCount() {
  return g_violations.load(std::memory_order_relaxed);
}

void SetAbortOnViolation(bool abort_on_violation) {
  g_abort.store(abort_on_violation, std::memory_order_relaxed);
}

}  // namespace lock_rank
}  // namespace ssagg

#endif  // SSAGG_LOCK_RANK_CHECKS
