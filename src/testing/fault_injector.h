#ifndef SSAGG_TESTING_FAULT_INJECTOR_H_
#define SSAGG_TESTING_FAULT_INJECTOR_H_

#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"

namespace ssagg {

/// Where a fault can be injected. I/O sites are hit by the
/// FaultInjectingFileSystem decorator (fault_fs.h); memory sites are hit by
/// the BufferManager when a FaultInjector is installed on it.
enum class FaultSite : uint8_t {
  kOpen = 0,
  kRead,
  kWrite,
  kSync,
  kTruncate,
  kRemove,
  kAllocate,  // BufferManager memory reservation (Allocate / non-paged /
              // external / the reservation half of a reloading Pin)
  kPin,       // BufferManager::Pin entry
  kGrant,     // MemoryGrantPool acquire / grow (multi-tenant admission): an
              // injected fault refuses the grant operation, which the caller
              // degrades to spilling or queueing, never a crash
  kSiteCount,
};

const char *FaultSiteName(FaultSite site);

constexpr uint32_t FaultSiteBit(FaultSite site) {
  return 1u << static_cast<uint32_t>(site);
}

/// Every file-system operation except removal: removal must keep working so
/// that cleanup paths can run after an injected failure.
constexpr uint32_t kFaultIoSites =
    FaultSiteBit(FaultSite::kOpen) | FaultSiteBit(FaultSite::kRead) |
    FaultSiteBit(FaultSite::kWrite) | FaultSiteBit(FaultSite::kSync) |
    FaultSiteBit(FaultSite::kTruncate);

constexpr uint32_t kFaultMemorySites = FaultSiteBit(FaultSite::kAllocate) |
                                       FaultSiteBit(FaultSite::kPin) |
                                       FaultSiteBit(FaultSite::kGrant);

constexpr uint32_t kFaultAllSites = kFaultIoSites | kFaultMemorySites |
                                    FaultSiteBit(FaultSite::kRemove);

/// Deterministic fault injector. One injector is shared between a
/// FaultInjectingFileSystem and a BufferManager so that "fail the k-th
/// operation" counts one global sequence across layers. Thread-safe: the
/// k-th operation is well defined even under concurrent workers (which
/// operation *is* k-th then depends on scheduling; single-threaded sweeps
/// are fully reproducible).
///
/// Two triggers, combinable:
///   - fail_at: the k-th (1-based) operation whose site is armed fails;
///   - probability: every armed operation fails with probability p, drawn
///     from a seeded RandomEngine (common/random.h) so a given seed always
///     produces the same fault schedule on the same operation sequence.
class FaultInjector {
 public:
  struct Config {
    uint64_t seed = 0x55A66;
    /// 1-based index of the armed operation to fail; 0 disables.
    idx_t fail_at = 0;
    /// Per-operation failure probability for armed sites.
    double probability = 0.0;
    /// Which sites are armed (counted and failable).
    uint32_t site_mask = kFaultIoSites;
    /// Injected write faults first perform a partial (half-length) write,
    /// modelling ENOSPC hit mid-write. Honoured by FaultInjectingFileSystem.
    bool short_write = false;
    /// Inject at most one fault, then let everything succeed: the standard
    /// sweep mode, so cleanup and unwinding paths run against a healthy
    /// system after the single failure.
    bool one_shot = true;
  };

  FaultInjector() : FaultInjector(Config{}) {}
  explicit FaultInjector(Config config) : config_(config), rng_(config.seed) {}

  /// Rearms with a new config and zeroes all counters.
  void Reset(const Config &config);

  /// Records one operation at `site` and decides its fate: OK, or the error
  /// the caller must return (kOutOfMemory for memory sites, kIOError for
  /// I/O sites). Never aborts.
  Status Hit(FaultSite site);

  /// Armed operations seen so far (the sequence fail_at indexes into).
  [[nodiscard]] idx_t ops_seen() const;
  /// Operations seen at one site, armed or not.
  [[nodiscard]] idx_t ops_seen(FaultSite site) const;
  [[nodiscard]] idx_t faults_injected() const;
  /// A copy: the live config may be swapped by a concurrent Reset().
  [[nodiscard]] Config config() const;

 private:
  mutable Mutex lock_{LockRank::kFaultInjector, "FaultInjector::lock_"};
  Config config_ SSAGG_GUARDED_BY(lock_);
  RandomEngine rng_ SSAGG_GUARDED_BY(lock_);
  idx_t armed_ops_ SSAGG_GUARDED_BY(lock_) = 0;
  idx_t site_ops_[static_cast<idx_t>(FaultSite::kSiteCount)] SSAGG_GUARDED_BY(
      lock_) = {};
  idx_t faults_ SSAGG_GUARDED_BY(lock_) = 0;
};

}  // namespace ssagg

#endif  // SSAGG_TESTING_FAULT_INJECTOR_H_
