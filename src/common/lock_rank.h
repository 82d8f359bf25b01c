#ifndef SSAGG_COMMON_LOCK_RANK_H_
#define SSAGG_COMMON_LOCK_RANK_H_

#include <cstdint>

/// Debug lock-rank enforcement (DESIGN.md section 14).
///
/// Every long-lived ssagg::Mutex / ssagg::SharedMutex carries a LockRank and
/// a name; scripts/lock_hierarchy.txt is the canonical rank table and
/// scripts/ssagg_analyze.py cross-checks that every construction site below
/// matches it. Ranks grow from outer (coordination) locks to inner (leaf)
/// locks: a thread may only *block* on a lock whose rank is strictly greater
/// than every rank it already holds. try_lock is exempt at acquisition time
/// (it cannot deadlock — this is exactly the documented eviction escape
/// hatch, DESIGN.md section 9), but a successfully try-locked mutex still
/// counts as held for subsequent blocking acquisitions.
///
/// The checker is compiled in only when SSAGG_LOCK_RANK_CHECKS is defined
/// (sanitizer and Debug builds — see the CMake option of the same name); a
/// violation aborts the process printing both lock names so the stress and
/// soak suites turn any ordering regression into a hard failure.
namespace ssagg {

/// Rank table — keep in sync with scripts/lock_hierarchy.txt (the analyzer
/// fails the build when they diverge). Gaps between values are deliberate
/// room for future locks; equal ranks are not allowed for distinct locks.
enum class LockRank : std::uint16_t {
  /// Rank 0 opts out of checking entirely (short-lived test/bench locks).
  kUnranked = 0,

  // --- Coordination (outermost) ------------------------------------------
  kQueryService = 10,       // QueryService::lock_
  kDataTableHandles = 12,   // DataTable::handles_lock_
  kBaselineOperator = 14,   // TwoLevelSpillAggregate::lock_

  // --- Operator state ----------------------------------------------------
  kHashAggregate = 20,      // PhysicalHashAggregate::lock_
  kSortAggregate = 21,      // ExternalSortAggregate::lock_
  kUngroupedAggregate = 22, // PhysicalUngroupedAggregate::lock_
  kJoinBuild = 23,          // hash-join build-side lock
  kPlanner = 24,            // AggregatePlanner::lock_
  kExecutorStats = 25,      // TaskExecutor::stats_lock_
  kCollector = 26,          // MaterializedCollector::lock_
  kCollectorOffsets = 27,   // OffsetCollector::lock_
  kErrorCollector = 28,     // TaskExecutor ErrorCollector::lock_

  // --- Buffer / spill (DESIGN.md section 9 core hierarchy) ---------------
  kBlockHandle = 30,        // BlockHandle::lock_
  kGrantPool = 40,          // MemoryGrantPool::lock_
  kEvictionQueue = 50,      // BufferManager::queue_lock_
  kTempFileManager = 60,    // TemporaryFileManager::lock_

  // --- Async I/O backends ------------------------------------------------
  kIoWorkQueue = 70,        // ThreadPoolIoBackend::lock_
  kIoSubmitRing = 71,       // IoUringBackend::sq_lock_
  kIoDrain = 72,            // IoUringBackend::drain_lock_
  kIoCompletion = 76,       // IoCompletion::lock_

  // --- Frame pool (leaf of the buffer band: buffers are released under
  // block, eviction-queue, temp-file and I/O-completion locks) -----------
  kFramePool = 80,          // BufferManager::frame_lock_

  // --- Observability (leaf-most: callable from anywhere) -----------------
  kMetricsRegistry = 84,    // MetricsRegistry::lock_
  kQueryProgress = 86,      // QueryProgress::lock_
  kFlightRecorder = 87,     // FlightRecorder::lock_
  kLog = 90,                // log.cc log_lock
  kFaultInjector = 95,      // FaultInjector::lock_
};

namespace lock_rank {

#if defined(SSAGG_LOCK_RANK_CHECKS)

/// Called by Mutex/SharedMutex before a blocking acquisition completes and
/// after a successful try_lock. Blocking acquisitions (try_lock == false)
/// abort (printing `name` and the most-rank-offending held lock's name) when
/// `rank` is not strictly greater than every held rank. kUnranked skips the
/// order check but is still pushed so release stays balanced.
void OnAcquire(LockRank rank, const char *name, const void *mutex,
               bool try_lock);

/// Called on every unlock; removes `mutex` from the held stack (non-LIFO
/// release is legal — EvictBlocks releases batches out of order).
void OnRelease(const void *mutex);

/// Number of lock-rank violations that would have aborted, had
/// SetAbortOnViolation(false) not been in effect. Test hook.
std::uint64_t ViolationCount();

/// Tests flip this off to probe violations without dying; default is abort.
void SetAbortOnViolation(bool abort_on_violation);

#else

inline void OnAcquire(LockRank, const char *, const void *, bool) {}
inline void OnRelease(const void *) {}
inline std::uint64_t ViolationCount() { return 0; }
inline void SetAbortOnViolation(bool) {}

#endif  // SSAGG_LOCK_RANK_CHECKS

}  // namespace lock_rank
}  // namespace ssagg

#endif  // SSAGG_COMMON_LOCK_RANK_H_
