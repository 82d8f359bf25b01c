#include "testing/fault_injector.h"

#include <string>

#include "observe/flight_recorder.h"

namespace ssagg {

const char *FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kOpen:
      return "open";
    case FaultSite::kRead:
      return "read";
    case FaultSite::kWrite:
      return "write";
    case FaultSite::kSync:
      return "sync";
    case FaultSite::kTruncate:
      return "truncate";
    case FaultSite::kRemove:
      return "remove";
    case FaultSite::kAllocate:
      return "allocate";
    case FaultSite::kPin:
      return "pin";
    case FaultSite::kGrant:
      return "grant";
    case FaultSite::kSiteCount:
      break;
  }
  return "unknown";
}

void FaultInjector::Reset(const Config &config) {
  ScopedLock guard(lock_);
  config_ = config;
  rng_ = RandomEngine(config.seed);
  armed_ops_ = 0;
  faults_ = 0;
  for (auto &count : site_ops_) {
    count = 0;
  }
}

Status FaultInjector::Hit(FaultSite site) {
  Status status;
  {
    ScopedLock guard(lock_);
    site_ops_[static_cast<idx_t>(site)]++;
    if ((config_.site_mask & FaultSiteBit(site)) == 0) {
      return Status::OK();
    }
    idx_t op = ++armed_ops_;
    bool fail = false;
    if (config_.fail_at != 0 && op == config_.fail_at) {
      fail = true;
    }
    // Always draw so the schedule depends only on the operation sequence,
    // not on whether an earlier trigger already fired.
    bool coin = config_.probability > 0.0 &&
                rng_.NextDouble() < config_.probability;
    fail = fail || coin;
    if (!fail || (config_.one_shot && faults_ > 0)) {
      return Status::OK();
    }
    faults_++;
    std::string msg = std::string("injected ") + FaultSiteName(site) +
                      " fault at operation #" + std::to_string(op);
    if (site == FaultSite::kAllocate || site == FaultSite::kPin ||
        site == FaultSite::kGrant) {
      status = Status::OutOfMemory(std::move(msg));
    } else {
      status = Status::IOError(std::move(msg));
    }
  }
  // Outside the lock: the dump walks every thread's flight ring and must
  // not serialize (or deadlock against) concurrent Hit callers.
  (void)FlightRecorder::Global().DumpAnomaly("fault");
  return status;
}

idx_t FaultInjector::ops_seen() const {
  ScopedLock guard(lock_);
  return armed_ops_;
}

idx_t FaultInjector::ops_seen(FaultSite site) const {
  ScopedLock guard(lock_);
  return site_ops_[static_cast<idx_t>(site)];
}

idx_t FaultInjector::faults_injected() const {
  ScopedLock guard(lock_);
  return faults_;
}

FaultInjector::Config FaultInjector::config() const {
  ScopedLock guard(lock_);
  return config_;
}

}  // namespace ssagg
