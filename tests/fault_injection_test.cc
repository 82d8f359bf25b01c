#include "testing/fault_injector.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/file_system.h"
#include "core/run_aggregation.h"
#include "execution/collectors.h"
#include "execution/range_source.h"
#include "service/query_service.h"
#include "testing/fault_fs.h"

namespace ssagg {
namespace {

//===----------------------------------------------------------------------===//
// FaultInjector unit tests
//===----------------------------------------------------------------------===//

TEST(FaultInjectorTest, FailAtIndexesArmedOperations) {
  FaultInjector::Config config;
  config.fail_at = 3;
  config.site_mask = kFaultIoSites;
  FaultInjector injector(config);
  EXPECT_TRUE(injector.Hit(FaultSite::kOpen).ok());
  EXPECT_TRUE(injector.Hit(FaultSite::kWrite).ok());
  Status third = injector.Hit(FaultSite::kWrite);
  EXPECT_TRUE(third.IsIOError()) << third.ToString();
  EXPECT_EQ(injector.faults_injected(), 1u);
  EXPECT_EQ(injector.ops_seen(), 3u);
}

TEST(FaultInjectorTest, UnarmedSitesAreCountedButNeverFail) {
  FaultInjector::Config config;
  config.fail_at = 1;
  config.site_mask = FaultSiteBit(FaultSite::kWrite);
  FaultInjector injector(config);
  // kRemove and kRead are not in the mask: they neither fail nor advance
  // the armed-operation sequence.
  EXPECT_TRUE(injector.Hit(FaultSite::kRemove).ok());
  EXPECT_TRUE(injector.Hit(FaultSite::kRead).ok());
  EXPECT_EQ(injector.ops_seen(), 0u);
  EXPECT_EQ(injector.ops_seen(FaultSite::kRead), 1u);
  EXPECT_TRUE(injector.Hit(FaultSite::kWrite).IsIOError());
}

TEST(FaultInjectorTest, MemorySitesFailWithOutOfMemory) {
  FaultInjector::Config config;
  config.fail_at = 1;
  config.site_mask = kFaultMemorySites;
  FaultInjector injector(config);
  Status status = injector.Hit(FaultSite::kAllocate);
  EXPECT_TRUE(status.IsOutOfMemory()) << status.ToString();
}

TEST(FaultInjectorTest, OneShotInjectsExactlyOneFault) {
  FaultInjector::Config config;
  config.fail_at = 2;
  FaultInjector injector(config);
  EXPECT_TRUE(injector.Hit(FaultSite::kWrite).ok());
  EXPECT_FALSE(injector.Hit(FaultSite::kWrite).ok());
  // one_shot (the default): every later operation succeeds, so cleanup
  // paths run against a healthy system.
  for (int i = 0; i < 100; i++) {
    EXPECT_TRUE(injector.Hit(FaultSite::kWrite).ok());
  }
  EXPECT_EQ(injector.faults_injected(), 1u);
}

TEST(FaultInjectorTest, ProbabilityScheduleIsDeterministicPerSeed) {
  auto schedule = [](uint64_t seed) {
    FaultInjector::Config config;
    config.seed = seed;
    config.probability = 0.3;
    config.one_shot = false;
    FaultInjector injector(config);
    std::vector<bool> faults;
    for (int i = 0; i < 200; i++) {
      faults.push_back(!injector.Hit(FaultSite::kWrite).ok());
    }
    return faults;
  };
  EXPECT_EQ(schedule(42), schedule(42));
  EXPECT_NE(schedule(42), schedule(43));
  // The coin is drawn even when fail_at triggers first, so a fail_at run
  // leaves the probability stream aligned.
  idx_t faults = 0;
  for (bool f : schedule(42)) {
    faults += f;
  }
  EXPECT_GT(faults, 20u);
  EXPECT_LT(faults, 120u);
}

TEST(FaultInjectorTest, ResetRearmsAndZeroesCounters) {
  FaultInjector::Config config;
  config.fail_at = 1;
  FaultInjector injector(config);
  EXPECT_FALSE(injector.Hit(FaultSite::kWrite).ok());
  config.fail_at = 2;
  injector.Reset(config);
  EXPECT_EQ(injector.ops_seen(), 0u);
  EXPECT_EQ(injector.faults_injected(), 0u);
  EXPECT_TRUE(injector.Hit(FaultSite::kWrite).ok());
  EXPECT_FALSE(injector.Hit(FaultSite::kWrite).ok());
}

//===----------------------------------------------------------------------===//
// FaultInjectingFileSystem
//===----------------------------------------------------------------------===//

class FaultFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "ssagg_fault_fs_test_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(dir_);
  }
  std::string dir_;
};

TEST_F(FaultFsTest, InjectsOpenFailure) {
  FaultInjector::Config config;
  config.fail_at = 1;
  config.site_mask = FaultSiteBit(FaultSite::kOpen);
  FaultInjector injector(config);
  FaultInjectingFileSystem fs(FileSystem::Default(), injector);
  FileOpenFlags flags;
  flags.write = true;
  flags.create = true;
  auto result = fs.Open(dir_ + "/open_fail.tmp", flags);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
  // The failed open never created the file.
  EXPECT_FALSE(fs.FileExists(dir_ + "/open_fail.tmp"));
}

TEST_F(FaultFsTest, InjectsReadAndWriteFailuresOnWrappedHandles) {
  FaultInjector injector;  // default config: armed, never fires
  FaultInjectingFileSystem fs(FileSystem::Default(), injector);
  FileOpenFlags flags;
  flags.write = true;
  flags.create = true;
  flags.truncate = true;
  std::string path = dir_ + "/rw.tmp";
  auto file = fs.Open(path, flags).MoveValue();

  char buffer[64] = {};
  ASSERT_TRUE(file->Write(buffer, sizeof(buffer), 0).ok());

  FaultInjector::Config config;
  config.fail_at = 1;
  config.site_mask = FaultSiteBit(FaultSite::kWrite);
  injector.Reset(config);
  EXPECT_TRUE(file->Write(buffer, sizeof(buffer), 64).IsIOError());

  config.site_mask = FaultSiteBit(FaultSite::kRead);
  injector.Reset(config);
  EXPECT_TRUE(file->Read(buffer, sizeof(buffer), 0).IsIOError());
  // After the one-shot fault the same handle works again.
  EXPECT_TRUE(file->Read(buffer, sizeof(buffer), 0).ok());
  file.reset();
  (void)fs.RemoveFile(path);
}

TEST_F(FaultFsTest, ShortWritePersistsHalfThenFails) {
  FaultInjector injector;
  FaultInjectingFileSystem fs(FileSystem::Default(), injector);
  FileOpenFlags flags;
  flags.write = true;
  flags.create = true;
  flags.truncate = true;
  std::string path = dir_ + "/short.tmp";
  auto file = fs.Open(path, flags).MoveValue();

  FaultInjector::Config config;
  config.fail_at = 1;
  config.site_mask = FaultSiteBit(FaultSite::kWrite);
  config.short_write = true;
  injector.Reset(config);
  char buffer[100] = {};
  EXPECT_TRUE(file->Write(buffer, sizeof(buffer), 0).IsIOError());
  // ENOSPC mid-write: half the payload landed before the error.
  EXPECT_EQ(file->FileSize().MoveValue(), 50u);
  file.reset();
  (void)fs.RemoveFile(path);
}

TEST_F(FaultFsTest, RemoveIsExcludedFromIoSitesSoCleanupRuns) {
  FaultInjector::Config config;
  config.fail_at = 1;
  config.probability = 1.0;
  config.site_mask = kFaultIoSites;
  config.one_shot = false;
  FaultInjector injector(config);
  FaultInjectingFileSystem fs(FileSystem::Default(), injector);
  std::string path = dir_ + "/removable.tmp";
  FileOpenFlags flags;
  flags.write = true;
  flags.create = true;
  auto file = FileSystem::Default().Open(path, flags).MoveValue();
  file.reset();
  // Every armed I/O fails, yet RemoveFile still succeeds: cleanup must
  // always be able to run after an injected failure.
  EXPECT_TRUE(fs.RemoveFile(path).ok());
  EXPECT_FALSE(FileSystem::Default().FileExists(path));
}

//===----------------------------------------------------------------------===//
// BufferManager fault hooks
//===----------------------------------------------------------------------===//

class BufferManagerFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "ssagg_bm_fault_test_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(dir_);
  }
  std::string dir_;
};

TEST_F(BufferManagerFaultTest, DeniedAllocationSurfacesAsOutOfMemory) {
  FaultInjector injector;
  BufferManager bm(dir_, 64 * kPageSize);
  bm.SetFaultInjector(&injector);

  FaultInjector::Config config;
  config.fail_at = 2;
  config.site_mask = FaultSiteBit(FaultSite::kAllocate);
  injector.Reset(config);

  std::shared_ptr<BlockHandle> first_handle;
  auto first = bm.Allocate(kPageSize, &first_handle);
  ASSERT_TRUE(first.ok());
  std::shared_ptr<BlockHandle> second_handle;
  auto second = bm.Allocate(kPageSize, &second_handle);
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsOutOfMemory());

  // The denied allocation left no trace: one pin, one page charged.
  EXPECT_EQ(bm.PinnedBufferCount(), 1u);
  first.MoveValue().Reset();
  first_handle.reset();
  second_handle.reset();
  EXPECT_EQ(bm.PinnedBufferCount(), 0u);
  EXPECT_EQ(bm.memory_used(), 0u);
}

TEST_F(BufferManagerFaultTest, DeniedPinSurfacesAndLeavesBlockRepinnable) {
  FaultInjector injector;
  BufferManager bm(dir_, 64 * kPageSize);
  bm.SetFaultInjector(&injector);

  std::shared_ptr<BlockHandle> handle;
  auto buffer = bm.Allocate(kPageSize, &handle);
  ASSERT_TRUE(buffer.ok());
  buffer.MoveValue().Reset();

  FaultInjector::Config config;
  config.fail_at = 1;
  config.site_mask = FaultSiteBit(FaultSite::kPin);
  injector.Reset(config);
  auto denied = bm.Pin(handle);
  ASSERT_FALSE(denied.ok());
  EXPECT_TRUE(denied.status().IsOutOfMemory());
  EXPECT_EQ(bm.PinnedBufferCount(), 0u);

  // one_shot: the next pin succeeds and the block is intact.
  auto repinned = bm.Pin(handle);
  ASSERT_TRUE(repinned.ok());
  repinned.MoveValue().Reset();
  handle.reset();
  EXPECT_EQ(bm.PinnedBufferCount(), 0u);
  EXPECT_EQ(bm.memory_used(), 0u);
}

TEST_F(BufferManagerFaultTest, FailedSpillWriteLeavesNoLeakedSlots) {
  FaultInjector injector;
  FaultInjectingFileSystem fault_fs(FileSystem::Default(), injector);
  // Room for two pages: allocating the third forces an eviction, whose
  // spill write we fail.
  BufferManager bm(dir_ + "/spillfail", 2 * kPageSize, EvictionPolicy::kMixed,
                   fault_fs);

  std::vector<std::shared_ptr<BlockHandle>> handles(3);
  auto a = bm.Allocate(kPageSize, &handles[0]);
  ASSERT_TRUE(a.ok());
  a.MoveValue().Reset();  // unpinned: eviction candidate
  auto b = bm.Allocate(kPageSize, &handles[1]);
  ASSERT_TRUE(b.ok());
  b.MoveValue().Reset();

  FaultInjector::Config config;
  config.fail_at = 1;
  config.site_mask = kFaultIoSites;
  injector.Reset(config);
  std::shared_ptr<BlockHandle> third;
  auto denied = bm.Allocate(kPageSize, &third);
  ASSERT_FALSE(denied.ok()) << "eviction should have needed the failed write";
  EXPECT_EQ(bm.temp_files().UsedSlots(), 0u) << "failed spill leaked a slot";
  EXPECT_EQ(bm.PinnedBufferCount(), 0u);
  EXPECT_GE(injector.faults_injected(), 1u);

  // The evicted candidate was re-enqueued: with the fault spent, the same
  // allocation now succeeds by spilling it.
  third.reset();
  auto retried = bm.Allocate(kPageSize, &third);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  // Async backends over-evict (spill_batch > 1 writes both unpinned pages in
  // one overlapped batch), so at least one but at most two slots are in use.
  EXPECT_GE(bm.temp_files().UsedSlots(), 1u);
  EXPECT_LE(bm.temp_files().UsedSlots(), 2u);
  retried.MoveValue().Reset();
  handles.clear();
  third.reset();
  EXPECT_EQ(bm.temp_files().UsedSlots(), 0u);
  EXPECT_EQ(bm.memory_used(), 0u);
}

TEST_F(BufferManagerFaultTest, FailedReloadReadKeepsSpillStateReclaimable) {
  FaultInjector injector;
  FaultInjectingFileSystem fault_fs(FileSystem::Default(), injector);
  BufferManager bm(dir_ + "/reloadfail", 2 * kPageSize, EvictionPolicy::kMixed,
                   fault_fs);

  std::vector<std::shared_ptr<BlockHandle>> handles(2);
  for (auto &handle : handles) {
    auto buffer = bm.Allocate(kPageSize, &handle);
    ASSERT_TRUE(buffer.ok());
    buffer.MoveValue().Reset();
  }
  // Evict handles[0] by filling the pool.
  std::shared_ptr<BlockHandle> filler;
  auto f = bm.Allocate(kPageSize, &filler);
  ASSERT_TRUE(f.ok());
  f.MoveValue().Reset();
  // >= because async backends over-evict: the batch may spill both pages.
  ASSERT_GE(bm.temp_files().UsedSlots(), 1u);

  FaultInjector::Config config;
  config.fail_at = 1;
  config.site_mask = FaultSiteBit(FaultSite::kRead);
  injector.Reset(config);
  auto denied = bm.Pin(handles[0]);
  ASSERT_FALSE(denied.ok());
  EXPECT_TRUE(denied.status().IsIOError());
  EXPECT_EQ(bm.PinnedBufferCount(), 0u);

  // The failed reload must not orphan the temp-file slot: dropping the
  // block reclaims it.
  handles.clear();
  filler.reset();
  EXPECT_EQ(bm.temp_files().UsedSlots(), 0u);
  EXPECT_EQ(bm.memory_used(), 0u);
}

//===----------------------------------------------------------------------===//
// Full-query fault sweeps (the headline deliverable)
//===----------------------------------------------------------------------===//

std::vector<LogicalTypeId> SourceTypes() {
  return {LogicalTypeId::kInt64, LogicalTypeId::kInt64,
          LogicalTypeId::kVarchar};
}

RangeSource MakeSource(idx_t total_rows, idx_t num_groups) {
  return RangeSource(
      SourceTypes(), total_rows,
      [num_groups](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          idx_t row = start + i;
          int64_t key = static_cast<int64_t>(row % num_groups);
          chunk.column(0).SetValue<int64_t>(i, key);
          chunk.column(1).SetValue<int64_t>(i, static_cast<int64_t>(row));
          chunk.column(2).SetString(i,
                                    "label_for_group_" + std::to_string(key));
        }
        return Status::OK();
      });
}

std::vector<AggregateRequest> TestAggregates() {
  return {{AggregateKind::kSum, 1},
          {AggregateKind::kCountStar, kInvalidIndex},
          {AggregateKind::kAnyValue, 2}};
}

/// Canonical (sorted) form of a collected result, for bit-identical
/// comparison across runs with unspecified row order.
std::vector<std::string> CanonicalRows(const MaterializedCollector &collector) {
  std::vector<std::string> rows;
  rows.reserve(collector.RowCount());
  for (const auto &row : collector.rows()) {
    std::string flat;
    for (const auto &value : row) {
      flat += value.ToString();
      flat += '|';
    }
    rows.push_back(std::move(flat));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class FaultSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_dir_ = ::testing::TempDir() + "ssagg_fault_sweep_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(base_dir_);
  }

  /// Small spilling workload: tight pool, every group unique, single
  /// thread so the k-th operation is the same operation on every run.
  struct SweepRun {
    Status status;
    std::vector<std::string> rows;
    idx_t in_place_partitions = 0;
    idx_t bypassed_rows = 0;
  };
  SweepRun RunOnce(const std::string &dir, FaultInjector &injector) {
    FaultInjectingFileSystem fault_fs(FileSystem::Default(), injector);
    SweepRun run;
    {
      BufferManager bm(dir, 20 * kPageSize, EvictionPolicy::kMixed, fault_fs);
      bm.SetFaultInjector(&injector);
      TaskExecutor executor(1);
      auto source = MakeSource(kRows, kRows);
      MaterializedCollector collector;
      HashAggregateConfig config;
      config.phase1_capacity = 512;
      config.radix_bits = kRadixBits;
      auto stats =
          RunGroupedAggregation(bm, source, {0}, TestAggregates(), collector,
                                executor, config);
      run.status = stats.ok() ? Status::OK() : stats.status();
      if (stats.ok()) {
        run.rows = CanonicalRows(collector);
        run.in_place_partitions = stats.value().phase2_in_place_partitions;
        run.bypassed_rows = stats.value().phase1_bypassed_rows;
      }
      // The no-leak invariant, asserted while the pool is still alive:
      // whatever happened, all pins were released, all temporary storage
      // reclaimed, and the whole memory charge returned.
      EXPECT_EQ(bm.PinnedBufferCount(), 0u) << "leaked pins";
      EXPECT_EQ(bm.temp_files().UsedSlots(), 0u) << "leaked temp slots";
      EXPECT_EQ(bm.temp_files().VariableBlockCount(), 0u)
          << "leaked temp files";
      EXPECT_EQ(bm.temp_files().CurrentSize(), 0u);
      EXPECT_EQ(bm.memory_used(), 0u) << "leaked memory charge";
    }
    return run;
  }

  void Sweep(uint32_t site_mask, const char *what) {
    std::string dir = base_dir_ + "/" + what;
    (void)FileSystem::Default().CreateDirectories(dir);

    // Learning run: armed but never firing; counts the fault-free
    // operation sequence and records the reference result.
    FaultInjector injector;
    FaultInjector::Config config;
    config.site_mask = site_mask;
    injector.Reset(config);
    SweepRun reference = RunOnce(dir, injector);
    ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
    idx_t total_ops = injector.ops_seen();
    ASSERT_GT(total_ops, 0u) << "workload must exercise " << what
                             << " operations for the sweep to mean anything";
    ASSERT_EQ(injector.faults_injected(), 0u);
    // Every partition of the unique workload is grouped in place, so the
    // sweep covers the pins that path holds from probe to emission.
    EXPECT_EQ(reference.in_place_partitions, idx_t{1} << kRadixBits);
    // Its sample is unique too, so phase 1 appends the rest of the input
    // without lookups: the sweep covers the bypass's allocations, its I/O
    // and the pins it drops.
    EXPECT_GT(reference.bypassed_rows, 0u);

    // Cap the number of swept indices to bound runtime; the stride still
    // covers the full range, ends included.
    constexpr idx_t kMaxPoints = 160;
    idx_t stride = std::max<idx_t>(1, total_ops / kMaxPoints);
    idx_t failures = 0;
    for (idx_t k = 1; k <= total_ops; k += stride) {
      SCOPED_TRACE(std::string(what) + ": fault at operation #" +
                   std::to_string(k));
      config.fail_at = k;
      injector.Reset(config);
      SweepRun run = RunOnce(dir, injector);
      ASSERT_EQ(injector.faults_injected(), 1u)
          << what << ": operation #" << k << " of " << total_ops
          << " was never reached";
      EXPECT_FALSE(run.status.ok())
          << what << ": injected fault at operation #" << k
          << " did not surface";
      failures++;
    }
    EXPECT_GT(failures, 0u);

    // One past the fault-free count: the injector never fires and the
    // result is bit-identical to the reference.
    config.fail_at = total_ops + 1;
    injector.Reset(config);
    SweepRun clean = RunOnce(dir, injector);
    ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
    EXPECT_EQ(injector.faults_injected(), 0u);
    EXPECT_EQ(clean.rows, reference.rows)
        << what << ": result changed with an armed but idle injector";
  }

  static constexpr idx_t kRows = 60000;
  static constexpr idx_t kRadixBits = 2;
  std::string base_dir_;
};

TEST_F(FaultSweepTest, EveryIoFailureDegradesToCleanStatus) {
  Sweep(kFaultIoSites, "io");
}

TEST_F(FaultSweepTest, EveryAllocationFailureDegradesToCleanStatus) {
  Sweep(kFaultMemorySites, "memory");
}

TEST_F(FaultSweepTest, CombinedIoAndMemorySweep) {
  Sweep(kFaultIoSites | kFaultMemorySites, "all");
}

// The async spill pipeline's own sites (submit, completion, coalesced
// writes). Every backend hits submit/complete — the sync backend inline,
// the async ones from their worker threads — so this sweep is meaningful
// under every SSAGG_IO_BACKEND setting the suite runs with.
TEST_F(FaultSweepTest, EveryAsyncIoFailureDegradesToCleanStatus) {
  Sweep(kFaultAsyncSites, "async");
}

//===----------------------------------------------------------------------===//
// Service-level fault sweeps (admission + grant grow/shrink/release)
//===----------------------------------------------------------------------===//

// Same k-sweep discipline as FaultSweepTest, but the workload runs through
// a QueryService so every swept operation can hit the multi-tenant paths:
// grant acquisition at admission (FaultSite::kGrant), on-demand grant
// growth inside ReserveMemory, grant-restricted eviction, and the
// spill-quota gate. Single session, single thread, sync-deterministic —
// the k-th operation is the same operation on every run. Whatever k, the
// query must come back with a clean Status and the service must quiesce
// with zero leaked pins/slots/charges/grants; at k = N+1 the result is
// bit-identical to the learning run.
class ServiceFaultSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_dir_ =
        ::testing::TempDir() + "ssagg_svc_sweep_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(base_dir_);
  }

  struct SweepRun {
    Status status;
    std::vector<std::string> rows;
    idx_t in_place_partitions = 0;
  };
  SweepRun RunOnce(const std::string &dir, FaultInjector &injector) {
    FaultInjectingFileSystem fault_fs(FileSystem::Default(), injector);
    SweepRun run;
    {
      BufferManager bm(dir, 20 * kPageSize, EvictionPolicy::kMixed, fault_fs);
      bm.SetFaultInjector(&injector);
      QueryServiceOptions options;
      options.max_concurrent = 1;
      options.threads = 1;
      options.min_grant_bytes = 2 * kPageSize;
      options.grant_chunk_bytes = kPageSize;
      // Generous quota (never the failure cause here), but nonzero so every
      // spill write runs through the quota charge/discharge pairing.
      options.spill_quota_bytes = 64 * kPageSize;
      QueryService service(bm, options);
      service.SetFaultInjector(&injector);

      auto source = MakeSource(kRows, kRows);
      MaterializedCollector collector;
      QuerySpec spec;
      spec.source = &source;
      spec.group_columns = {0};
      spec.aggregates = TestAggregates();
      spec.output = &collector;
      spec.config.phase1_capacity = 512;
      spec.config.radix_bits = 2;
      // Small initial grant so the run exercises many grant grows.
      spec.memory_estimate = 2 * kPageSize;

      auto stats = service.Execute(spec);
      run.status = stats.ok() ? Status::OK() : stats.status();
      if (stats.ok()) {
        run.rows = CanonicalRows(collector);
      }
      EXPECT_EQ(bm.PinnedBufferCount(), 0u) << "leaked pins";
      EXPECT_EQ(bm.temp_files().UsedSlots(), 0u) << "leaked temp slots";
      EXPECT_EQ(bm.temp_files().VariableBlockCount(), 0u)
          << "leaked temp files";
      EXPECT_EQ(bm.memory_used(), 0u) << "leaked memory charge";
      EXPECT_EQ(service.grant_pool().active_grants(), 0u) << "leaked grants";
      EXPECT_EQ(service.grant_pool().granted_total(), 0u)
          << "leaked grant bytes";
      EXPECT_EQ(service.grant_pool().used_total(), 0u)
          << "leaked grant charges";
    }
    return run;
  }

  void Sweep(uint32_t site_mask, const char *what) {
    std::string dir = base_dir_ + "/" + what;
    (void)FileSystem::Default().CreateDirectories(dir);

    FaultInjector injector;
    FaultInjector::Config config;
    config.site_mask = site_mask;
    injector.Reset(config);
    SweepRun reference = RunOnce(dir, injector);
    ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
    idx_t total_ops = injector.ops_seen();
    ASSERT_GT(total_ops, 0u) << "workload must exercise " << what
                             << " operations for the sweep to mean anything";
    // The grant paths specifically must be on the swept sequence when armed.
    if ((site_mask & FaultSiteBit(FaultSite::kGrant)) != 0) {
      ASSERT_GT(injector.ops_seen(FaultSite::kGrant), 0u)
          << "service workload never hit a grant operation";
    }
    ASSERT_EQ(injector.faults_injected(), 0u);

    // Unlike the raw-query sweep, a service run may legitimately ABSORB an
    // injected fault: a refused grant growth degrades to evicting the
    // query's own pages and the query still completes. The contract is
    // therefore: every k yields either a clean error Status or a successful
    // run whose result is bit-identical to the reference — and in both
    // cases RunOnce's leak checks hold.
    constexpr idx_t kMaxPoints = 120;
    idx_t stride = std::max<idx_t>(1, total_ops / kMaxPoints);
    idx_t surfaced = 0;
    idx_t absorbed = 0;
    for (idx_t k = 1; k <= total_ops; k += stride) {
      SCOPED_TRACE(std::string(what) + ": fault at operation #" +
                   std::to_string(k));
      config.fail_at = k;
      injector.Reset(config);
      SweepRun run = RunOnce(dir, injector);
      ASSERT_EQ(injector.faults_injected(), 1u)
          << what << ": operation #" << k << " of " << total_ops
          << " was never reached";
      if (run.status.ok()) {
        absorbed++;
        EXPECT_EQ(run.rows, reference.rows)
            << what << ": absorbed fault at operation #" << k
            << " changed the result";
      } else {
        surfaced++;
      }
    }
    EXPECT_GT(surfaced + absorbed, 0u);
    if (site_mask == FaultSiteBit(FaultSite::kGrant)) {
      // Grant-only sweep covers every grant op: op #1 is the admission
      // acquire, which must surface (nothing is running, waiting cannot
      // help); the growth faults must absorb by spilling.
      EXPECT_GT(surfaced, 0u) << what << ": no fault ever surfaced";
      EXPECT_GT(absorbed, 0u)
          << what << ": no grant-growth fault was absorbed by spilling";
    }

    // Bit-identical recovery at k = N+1.
    config.fail_at = total_ops + 1;
    injector.Reset(config);
    SweepRun clean = RunOnce(dir, injector);
    ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
    EXPECT_EQ(injector.faults_injected(), 0u);
    EXPECT_EQ(clean.rows, reference.rows)
        << what << ": result changed with an armed but idle injector";
  }

  static constexpr idx_t kRows = 60000;
  static constexpr idx_t kRadixBits = 2;
  std::string base_dir_;
};

TEST_F(ServiceFaultSweepTest, EveryGrantFailureDegradesToCleanStatus) {
  Sweep(FaultSiteBit(FaultSite::kGrant), "grant");
}

TEST_F(ServiceFaultSweepTest, EveryMemoryFailureDegradesToCleanStatus) {
  // kAllocate | kPin | kGrant: the full admission + reservation surface.
  Sweep(kFaultMemorySites, "svc_memory");
}

TEST_F(ServiceFaultSweepTest, CombinedIoAndGrantSweep) {
  Sweep(kFaultIoSites | kFaultMemorySites, "svc_all");
}

}  // namespace
}  // namespace ssagg
