// Multi-tenant QueryService suite: grant-pool accounting units, admission
// control semantics (queue, shed, timeout, FIFO), isolation equivalence
// (concurrent tight-grant results bit-identical to solo runs, across forced
// strategies and both probe paths), and the wall-clock soak that hammers
// everything at once. The soak is the suite's TSan centerpiece: N producer
// threads submit mixed small/spilling queries against one small pool while
// admission churns, and at quiesce every pin, temp slot, memory charge and
// grant byte must be back.

#include "service/query_service.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "buffer/memory_grant.h"
#include "execution/collectors.h"
#include "execution/range_source.h"
#include "testing/fault_injector.h"

namespace ssagg {
namespace {

//===----------------------------------------------------------------------===//
// MemoryGrantPool / GrantState units
//===----------------------------------------------------------------------===//

TEST(MemoryGrantPoolTest, AcquireChargeGrowReleaseRoundTrip) {
  MemoryGrantPool pool(idx_t{1} << 20, /*grow_chunk=*/idx_t{64} * 1024);
  EXPECT_EQ(pool.total(), idx_t{1} << 20);
  EXPECT_EQ(pool.active_grants(), 0u);

  auto acquired = pool.TryAcquire(/*initial=*/idx_t{128} * 1024,
                                  /*floor=*/idx_t{64} * 1024);
  ASSERT_TRUE(acquired.ok()) << acquired.status().ToString();
  MemoryGrant grant = acquired.MoveValue();
  GrantState &state = *grant.state();
  EXPECT_EQ(state.granted(), idx_t{128} * 1024);
  EXPECT_EQ(pool.granted_total(), idx_t{128} * 1024);

  // Charges within the grant never touch the pool.
  ASSERT_TRUE(state.Charge(idx_t{100} * 1024).ok());
  EXPECT_EQ(state.used(), idx_t{100} * 1024);
  EXPECT_EQ(state.granted(), idx_t{128} * 1024);

  // A charge past the grant grows it from the pool in chunk multiples.
  ASSERT_TRUE(state.Charge(idx_t{100} * 1024).ok());
  EXPECT_EQ(state.used(), idx_t{200} * 1024);
  EXPECT_GE(state.granted(), state.used());
  EXPECT_EQ(state.granted() % (idx_t{64} * 1024), 0u);
  EXPECT_EQ(pool.granted_total(), state.granted());
  EXPECT_GE(state.peak_granted(), state.granted());

  state.Discharge(idx_t{200} * 1024);
  EXPECT_EQ(state.used(), 0u);
  grant.Release();
  EXPECT_FALSE(grant.IsValid());
  EXPECT_EQ(pool.granted_total(), 0u);
  EXPECT_EQ(pool.active_grants(), 0u);
  EXPECT_EQ(pool.used_total(), 0u);
}

TEST(MemoryGrantPoolTest, ChargeFailsCleanlyWhenPoolExhausted) {
  MemoryGrantPool pool(idx_t{256} * 1024, /*grow_chunk=*/idx_t{64} * 1024);
  auto acquired = pool.TryAcquire(pool.total(), /*floor=*/pool.total());
  ASSERT_TRUE(acquired.ok());
  MemoryGrant grant = acquired.MoveValue();
  GrantState &state = *grant.state();
  ASSERT_TRUE(state.Charge(pool.total()).ok());

  // Grant full, pool dry, nothing reclaimable: a clean OutOfMemory whose
  // failed charge left used() untouched.
  Status denied = state.Charge(1);
  EXPECT_TRUE(denied.IsOutOfMemory()) << denied.ToString();
  EXPECT_EQ(state.used(), pool.total());

  state.Discharge(pool.total());
  grant.Release();
  EXPECT_EQ(pool.granted_total(), 0u);
}

TEST(MemoryGrantPoolTest, ReclaimsSlackFromIdleGrantsDownToFloor) {
  MemoryGrantPool pool(idx_t{1} << 20, /*grow_chunk=*/idx_t{64} * 1024);
  // First grant takes the whole pool but uses only a quarter.
  auto first = pool.TryAcquire(pool.total(), /*floor=*/idx_t{128} * 1024);
  ASSERT_TRUE(first.ok());
  MemoryGrant a = first.MoveValue();
  ASSERT_TRUE(a.state()->Charge(idx_t{256} * 1024).ok());

  // The second acquisition must shrink A's slack (granted - used) to fit.
  auto second =
      pool.TryAcquire(idx_t{512} * 1024, /*floor=*/idx_t{128} * 1024);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  MemoryGrant b = second.MoveValue();
  EXPECT_EQ(b.state()->granted(), idx_t{512} * 1024);
  EXPECT_GE(a.state()->granted(), a.state()->used());
  EXPECT_LE(pool.granted_total(), pool.total());

  a.state()->Discharge(idx_t{256} * 1024);
  a.Release();
  b.Release();
  EXPECT_EQ(pool.granted_total(), 0u);
}

TEST(MemoryGrantPoolTest, SpillQuotaGatesAndTracksLogicalBytes) {
  MemoryGrantPool pool(idx_t{1} << 20);
  auto acquired = pool.TryAcquire(idx_t{256} * 1024, idx_t{64} * 1024,
                                  /*spill_quota=*/2 * kPageSize);
  ASSERT_TRUE(acquired.ok());
  MemoryGrant grant = acquired.MoveValue();
  GrantState &state = *grant.state();

  EXPECT_TRUE(state.CanSpill(kPageSize));
  EXPECT_TRUE(state.TryChargeSpill(kPageSize));
  EXPECT_TRUE(state.TryChargeSpill(kPageSize));
  EXPECT_EQ(state.spilled(), 2 * kPageSize);
  EXPECT_FALSE(state.CanSpill(kPageSize));
  EXPECT_FALSE(state.TryChargeSpill(kPageSize));
  // A refused charge changed nothing; reclaiming spilled bytes reopens it.
  EXPECT_EQ(state.spilled(), 2 * kPageSize);
  state.DischargeSpill(kPageSize);
  EXPECT_TRUE(state.TryChargeSpill(kPageSize));

  state.DischargeSpill(2 * kPageSize);
  grant.Release();
}

TEST(MemoryGrantPoolTest, UnlimitedQuotaStillTracksSpilledBytes) {
  MemoryGrantPool pool(idx_t{1} << 20);
  auto acquired =
      pool.TryAcquire(idx_t{256} * 1024, idx_t{64} * 1024, /*spill_quota=*/0);
  ASSERT_TRUE(acquired.ok());
  MemoryGrant grant = acquired.MoveValue();
  EXPECT_TRUE(grant.state()->TryChargeSpill(kPageSize));
  EXPECT_EQ(grant.state()->spilled(), kPageSize);
  grant.state()->DischargeSpill(kPageSize);
  grant.Release();
}

//===----------------------------------------------------------------------===//
// Shared workload helpers
//===----------------------------------------------------------------------===//

RangeSource MakeGroupedSource(idx_t total_rows, idx_t num_groups) {
  return RangeSource(
      {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, total_rows,
      [num_groups](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          idx_t row = start + i;
          chunk.column(0).SetValue<int64_t>(
              i, static_cast<int64_t>(row % num_groups));
          chunk.column(1).SetValue<int64_t>(i, static_cast<int64_t>(row));
        }
        return Status::OK();
      });
}

/// A source whose first chunk blocks until the gate opens — for holding a
/// session in the running state while the test probes admission behaviour.
RangeSource MakeGatedSource(idx_t total_rows, idx_t num_groups,
                            std::atomic<bool> *gate,
                            std::atomic<bool> *entered = nullptr) {
  return RangeSource(
      {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, total_rows,
      [num_groups, gate, entered](DataChunk &chunk, idx_t start, idx_t count) {
        if (entered != nullptr) {
          entered->store(true, std::memory_order_release);
        }
        while (!gate->load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        for (idx_t i = 0; i < count; i++) {
          idx_t row = start + i;
          chunk.column(0).SetValue<int64_t>(
              i, static_cast<int64_t>(row % num_groups));
          chunk.column(1).SetValue<int64_t>(i, static_cast<int64_t>(row));
        }
        return Status::OK();
      });
}

std::vector<AggregateRequest> SumCountAggregates() {
  return {{AggregateKind::kSum, 1},
          {AggregateKind::kCountStar, kInvalidIndex}};
}

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

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "ssagg_svc_" + std::to_string(::getpid()) +
           "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    (void)FileSystem::Default().CreateDirectories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// The quiesce invariant: nothing running, nothing waiting, and every
  /// pin, temp slot, memory charge and grant byte returned.
  void ExpectQuiesced(BufferManager &bm, QueryService &service) {
    QueryServiceStats stats = service.stats();
    EXPECT_EQ(stats.active, 0u);
    EXPECT_EQ(stats.waiting, 0u);
    EXPECT_EQ(bm.PinnedBufferCount(), 0u) << "leaked pins";
    EXPECT_EQ(bm.temp_files().UsedSlots(), 0u) << "leaked temp slots";
    EXPECT_EQ(bm.temp_files().VariableBlockCount(), 0u) << "leaked temp files";
    EXPECT_EQ(bm.memory_used(), 0u) << "leaked memory charge";
    EXPECT_EQ(service.grant_pool().active_grants(), 0u) << "leaked grants";
    EXPECT_EQ(service.grant_pool().granted_total(), 0u)
        << "leaked grant bytes";
    EXPECT_EQ(service.grant_pool().used_total(), 0u) << "leaked grant charges";
  }

  std::string dir_;
};

//===----------------------------------------------------------------------===//
// Basic service semantics
//===----------------------------------------------------------------------===//

TEST_F(QueryServiceTest, SingleQueryCompletesAndAccountsItself) {
  constexpr idx_t kRows = 20000;
  constexpr idx_t kGroups = 256;
  BufferManager bm(dir_, 64 * kPageSize);
  QueryService service(bm);

  auto source = MakeGroupedSource(kRows, kGroups);
  CountingCollector collector;
  QuerySpec spec;
  spec.source = &source;
  spec.group_columns = {0};
  spec.aggregates = SumCountAggregates();
  spec.output = &collector;
  QueryProgress progress;

  auto stats = service.Execute(spec, /*profile=*/nullptr, &progress);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().unique_groups, kGroups);
  EXPECT_EQ(collector.TotalRows(), kGroups);

  QueryServiceStats svc = service.stats();
  EXPECT_EQ(svc.submitted, 1u);
  EXPECT_EQ(svc.admitted, 1u);
  EXPECT_EQ(svc.completed, 1u);
  EXPECT_EQ(svc.queued, 0u);
  EXPECT_EQ(svc.failed, 0u);
  EXPECT_EQ(progress.Poll().phase, QueryProgress::Phase::kDone);
  ExpectQuiesced(bm, service);
}

TEST_F(QueryServiceTest, RejectsSpecWithoutSourceOrOutput) {
  BufferManager bm(dir_, 16 * kPageSize);
  QueryService service(bm);
  QuerySpec spec;
  auto result = service.Execute(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  ExpectQuiesced(bm, service);
}

TEST_F(QueryServiceTest, QueuesPastConcurrencyCapAndReportsQueueWait) {
  constexpr idx_t kRows = 8000;
  constexpr idx_t kGroups = 64;
  BufferManager bm(dir_, 64 * kPageSize);
  QueryServiceOptions options;
  options.max_concurrent = 1;
  options.threads = 1;
  QueryService service(bm, options);

  std::atomic<bool> gate{false};
  std::atomic<bool> entered{false};
  auto blocker_source = MakeGatedSource(kRows, kGroups, &gate, &entered);
  CountingCollector blocker_sink;
  QuerySpec blocker;
  blocker.source = &blocker_source;
  blocker.group_columns = {0};
  blocker.aggregates = SumCountAggregates();
  blocker.output = &blocker_sink;

  std::thread first([&]() {
    auto result = service.Execute(blocker);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  // Second session must queue behind the gated one. Its progress shows
  // kQueued while it waits (the ssagg_stat blank-line fix).
  auto waiter_source = MakeGroupedSource(kRows, kGroups);
  CountingCollector waiter_sink;
  QuerySpec waiter;
  waiter.source = &waiter_source;
  waiter.group_columns = {0};
  waiter.aggregates = SumCountAggregates();
  waiter.output = &waiter_sink;
  QueryProgress waiter_progress;

  std::thread second([&]() {
    auto result = service.Execute(waiter, nullptr, &waiter_progress);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });
  // Wait until the service reports the queued session, then check its
  // introspection state from this foreign thread.
  while (service.stats().waiting == 0) {
    std::this_thread::yield();
  }
  EXPECT_EQ(waiter_progress.Poll().phase, QueryProgress::Phase::kQueued);
  auto sessions = service.Sessions();
  EXPECT_EQ(sessions.size(), 2u);

  gate.store(true, std::memory_order_release);
  first.join();
  second.join();

  QueryServiceStats svc = service.stats();
  EXPECT_EQ(svc.admitted, 2u);
  EXPECT_EQ(svc.completed, 2u);
  EXPECT_EQ(svc.queued, 1u);
  // The waiter really waited, and its handle reports the wait.
  EXPECT_GT(waiter_progress.Poll().queue_wait_ns, 0u);
  EXPECT_EQ(waiter_progress.Poll().phase, QueryProgress::Phase::kDone);
  EXPECT_EQ(waiter_sink.TotalRows(), kGroups);
  ExpectQuiesced(bm, service);
}

TEST_F(QueryServiceTest, ShedsWithAbortedWhenQueueIsFull) {
  constexpr idx_t kRows = 4000;
  BufferManager bm(dir_, 64 * kPageSize);
  QueryServiceOptions options;
  options.max_concurrent = 1;
  options.max_queue_depth = 0;  // no waiting room: beyond the cap, shed
  options.threads = 1;
  QueryService service(bm, options);

  std::atomic<bool> gate{false};
  std::atomic<bool> entered{false};
  auto blocker_source = MakeGatedSource(kRows, 16, &gate, &entered);
  CountingCollector blocker_sink;
  QuerySpec blocker;
  blocker.source = &blocker_source;
  blocker.group_columns = {0};
  blocker.aggregates = SumCountAggregates();
  blocker.output = &blocker_sink;
  std::thread first([&]() {
    auto result = service.Execute(blocker);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  auto shed_source = MakeGroupedSource(kRows, 16);
  CountingCollector shed_sink;
  QuerySpec shed;
  shed.source = &shed_source;
  shed.group_columns = {0};
  shed.aggregates = SumCountAggregates();
  shed.output = &shed_sink;
  auto result = service.Execute(shed);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted()) << result.status().ToString();

  gate.store(true, std::memory_order_release);
  first.join();

  QueryServiceStats svc = service.stats();
  EXPECT_EQ(svc.shed_queue_full, 1u);
  EXPECT_EQ(svc.completed, 1u);
  ExpectQuiesced(bm, service);
}

TEST_F(QueryServiceTest, ShedsWithTimeoutWhenAdmissionTakesTooLong) {
  constexpr idx_t kRows = 4000;
  BufferManager bm(dir_, 64 * kPageSize);
  QueryServiceOptions options;
  options.max_concurrent = 1;
  options.admission_timeout_seconds = 0.05;
  options.threads = 1;
  QueryService service(bm, options);

  std::atomic<bool> gate{false};
  std::atomic<bool> entered{false};
  auto blocker_source = MakeGatedSource(kRows, 16, &gate, &entered);
  CountingCollector blocker_sink;
  QuerySpec blocker;
  blocker.source = &blocker_source;
  blocker.group_columns = {0};
  blocker.aggregates = SumCountAggregates();
  blocker.output = &blocker_sink;
  std::thread first([&]() {
    auto result = service.Execute(blocker);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  auto timed_source = MakeGroupedSource(kRows, 16);
  CountingCollector timed_sink;
  QuerySpec timed;
  timed.source = &timed_source;
  timed.group_columns = {0};
  timed.aggregates = SumCountAggregates();
  timed.output = &timed_sink;
  auto result = service.Execute(timed);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTimeout()) << result.status().ToString();

  gate.store(true, std::memory_order_release);
  first.join();

  QueryServiceStats svc = service.stats();
  EXPECT_EQ(svc.shed_timeout, 1u);
  EXPECT_EQ(svc.completed, 1u);
  ExpectQuiesced(bm, service);
}

//===----------------------------------------------------------------------===//
// Isolation equivalence
//===----------------------------------------------------------------------===//

// Every query's result under maximum concurrency and tight per-query
// grants must be bit-identical to its solo run with the full pool — across
// the forced merge strategies and both probe paths. Spilling more because
// a neighbour holds the memory is allowed; answering differently is not.
struct IsolationParams {
  AggregateStrategy strategy;
  bool vectorized_probe;
};

class IsolationEquivalenceTest
    : public QueryServiceTest,
      public ::testing::WithParamInterface<IsolationParams> {};

TEST_P(IsolationEquivalenceTest, ConcurrentTightGrantsMatchSoloRuns) {
  constexpr idx_t kQueries = 4;
  constexpr idx_t kRows = 30000;
  // Per-query distinct group counts — different shapes, some spilling.
  constexpr idx_t kGroupCounts[kQueries] = {16, 600, 4000, 15000};
  const IsolationParams params = GetParam();

  HashAggregateConfig config;
  config.strategy = params.strategy;
  config.vectorized_probe = params.vectorized_probe;
  // Pinned floor: kQueries * 2 workers * 2^radix_bits append pages must fit
  // the concurrent pool (see concurrency_stress_test.cc) — radix_bits=2
  // keeps it at 32 of 48 pages.
  config.phase1_capacity = 1024;
  config.radix_bits = 2;

  // Solo references: one query at a time, full pool to itself.
  std::vector<std::vector<std::string>> reference(kQueries);
  {
    BufferManager bm(dir_ + "/solo", 64 * kPageSize);
    for (idx_t q = 0; q < kQueries; q++) {
      auto source = MakeGroupedSource(kRows, kGroupCounts[q]);
      MaterializedCollector collector;
      TaskExecutor executor(2);
      auto stats =
          RunGroupedAggregation(bm, source, {0}, SumCountAggregates(),
                                collector, executor, config);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      reference[q] = CanonicalRows(collector);
    }
  }

  // Concurrent runs: all queries at once on a pool a fraction of the solo
  // size, carved into tight grants.
  BufferManager bm(dir_ + "/conc", 48 * kPageSize);
  QueryServiceOptions options;
  options.max_concurrent = kQueries;
  options.min_grant_bytes = 4 * kPageSize;
  options.threads = 2;
  QueryService service(bm, options);

  std::vector<std::thread> threads;
  std::vector<Status> statuses(kQueries);
  std::vector<std::vector<std::string>> results(kQueries);
  for (idx_t q = 0; q < kQueries; q++) {
    threads.emplace_back([&, q]() {
      auto source = MakeGroupedSource(kRows, kGroupCounts[q]);
      MaterializedCollector collector;
      QuerySpec spec;
      spec.source = &source;
      spec.group_columns = {0};
      spec.aggregates = SumCountAggregates();
      spec.output = &collector;
      spec.config = config;
      spec.memory_estimate = 8 * kPageSize;
      auto stats = service.Execute(spec);
      statuses[q] = stats.ok() ? Status::OK() : stats.status();
      if (stats.ok()) {
        results[q] = CanonicalRows(collector);
      }
    });
  }
  for (auto &th : threads) {
    th.join();
  }

  for (idx_t q = 0; q < kQueries; q++) {
    ASSERT_TRUE(statuses[q].ok())
        << "query " << q << ": " << statuses[q].ToString();
    EXPECT_EQ(results[q], reference[q])
        << "query " << q << " answered differently under concurrency";
  }
  ExpectQuiesced(bm, service);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, IsolationEquivalenceTest,
    ::testing::Values(IsolationParams{AggregateStrategy::kAdaptive, true},
                      IsolationParams{AggregateStrategy::kCentralMerge, true},
                      IsolationParams{AggregateStrategy::kCentralMerge, false},
                      IsolationParams{AggregateStrategy::kRadixMerge, true},
                      IsolationParams{AggregateStrategy::kRadixMerge, false},
                      IsolationParams{AggregateStrategy::kAdaptive, false}),
    [](const ::testing::TestParamInfo<IsolationParams> &info) {
      std::string name = AggregateStrategyName(info.param.strategy);
      name += info.param.vectorized_probe ? "_vectorized" : "_scalar";
      return name;
    });

//===----------------------------------------------------------------------===//
// Spill-quota isolation
//===----------------------------------------------------------------------===//

// A query that cannot fit its working set in its grant *and* is out of
// spill quota must fail with a clean OutOfMemory — and leave no residue.
TEST_F(QueryServiceTest, SpillQuotaExhaustionFailsCleanly) {
  // ~7 MiB of unique-group payload against a 4 MiB pool: must spill.
  constexpr idx_t kRows = 300000;
  BufferManager bm(dir_, 16 * kPageSize);
  QueryServiceOptions options;
  options.max_concurrent = 1;
  options.min_grant_bytes = 4 * kPageSize;
  options.spill_quota_bytes = kPageSize;  // one page of quota: far too little
  options.threads = 1;
  QueryService service(bm, options);

  auto source = MakeGroupedSource(kRows, kRows);  // every group unique
  MaterializedCollector collector;
  QuerySpec spec;
  spec.source = &source;
  spec.group_columns = {0};
  spec.aggregates = SumCountAggregates();
  spec.output = &collector;
  spec.config.phase1_capacity = 512;
  spec.config.radix_bits = 2;
  spec.config.strategy = AggregateStrategy::kRadixMerge;
  spec.memory_estimate = 4 * kPageSize;

  auto result = service.Execute(spec);
  ASSERT_FALSE(result.ok()) << "a one-page spill quota cannot cover this";
  EXPECT_TRUE(result.status().IsOutOfMemory()) << result.status().ToString();
  EXPECT_EQ(service.stats().failed, 1u);
  ExpectQuiesced(bm, service);
}

//===----------------------------------------------------------------------===//
// Tight-grant concurrency regression
//===----------------------------------------------------------------------===//

// Two spilling queries sharing a pool whose grants cannot cover either
// working set. Each query keeps evicting its own pages to stay inside its
// grant; once everything resident is pinned the charge must overdraft and
// defer to the global limit instead of retrying. Regression test for a
// livelock where two concurrent grant-restricted eviction scans starved
// each other (each scan held the other query's queue entries aside and the
// dry-queue back-off counted mere scanners as eviction holders), spinning
// at full CPU with zero progress and neither query ever finishing.
TEST_F(QueryServiceTest, ConcurrentTightGrantSpillsDoNotStall) {
  constexpr idx_t kRows = 250000;
  auto run = [&](QueryService &service, MaterializedCollector &collector) {
    auto source = MakeGroupedSource(kRows, kRows);  // every group unique
    QuerySpec spec;
    spec.source = &source;
    spec.group_columns = {0};
    spec.aggregates = SumCountAggregates();
    spec.output = &collector;
    spec.config.phase1_capacity = 512;
    spec.config.radix_bits = 3;
    spec.threads = 1;  // cross-query contention is the point, not intra-query
    spec.memory_estimate = 8 * kPageSize;
    return service.Execute(spec);
  };

  // Reference: the same query, alone, with room to breathe.
  std::vector<std::string> reference;
  {
    (void)FileSystem::Default().CreateDirectories(dir_ + "/ref");
    BufferManager bm(dir_ + "/ref", 64 * kPageSize);
    QueryService service(bm);
    MaterializedCollector collector;
    auto result = run(service, collector);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    reference = CanonicalRows(collector);
  }

  // Tight grants, adequate pool: both queries admitted at once, each
  // granted a sixth of the pool — far under its working set, so both spend
  // the run evicting their own pages to stay inside the grant — while the
  // pool itself still covers the pinned floors (one worker x 8 partition
  // append pages per query in phase 1, one pinned partition per query in
  // phase 2), so only a *grant*-induced stall (the old livelock) can keep
  // this from finishing.
  BufferManager bm(dir_, 48 * kPageSize);
  QueryServiceOptions options;
  options.max_concurrent = 2;
  options.min_grant_bytes = 8 * kPageSize;
  options.grant_chunk_bytes = kPageSize;
  options.threads = 2;
  QueryService service(bm, options);

  uint64_t spilled_before =
      MetricsRegistry::Global().Value("io.spill_bytes_written");
  Status statuses[2];
  MaterializedCollector collectors[2];
  std::thread first(
      [&]() { statuses[0] = run(service, collectors[0]).status(); });
  statuses[1] = run(service, collectors[1]).status();
  first.join();

  for (idx_t q = 0; q < 2; q++) {
    ASSERT_TRUE(statuses[q].ok()) << statuses[q].ToString();
    EXPECT_EQ(CanonicalRows(collectors[q]), reference)
        << "query " << q << " answered differently under tight grants";
  }
  // Combined working sets exceed the pool, so the run is only meaningful as
  // a regression if memory pressure actually materialized.
  EXPECT_GT(MetricsRegistry::Global().Value("io.spill_bytes_written"),
            spilled_before);
  EXPECT_EQ(service.stats().completed, 2u);
  ExpectQuiesced(bm, service);
}

//===----------------------------------------------------------------------===//
// Concurrency soak
//===----------------------------------------------------------------------===//

// The headline stress: kProducers threads submit mixed small/spilling
// queries against one small pool for a fixed wall-clock budget, with live
// admission churn (the queue is short, so some submissions shed). Every
// query must either complete with the correct result or come back with a
// clean shed/timeout Status; at quiesce nothing may be leaked. Iteration
// counts are tuned so the test stays in seconds under TSan.
TEST_F(QueryServiceTest, MultiQuerySoakUnderAdmissionChurn) {
  constexpr idx_t kProducers = 8;
  constexpr auto kBudget = std::chrono::seconds(3);
  BufferManager bm(dir_, 48 * kPageSize);
  QueryServiceOptions options;
  options.max_concurrent = 4;
  options.max_queue_depth = 3;
  options.admission_timeout_seconds = 2.0;
  options.min_grant_bytes = 4 * kPageSize;
  options.threads = 2;
  QueryService service(bm, options);

  std::atomic<idx_t> wrong_results{0};
  std::atomic<idx_t> unexpected_errors{0};
  std::atomic<idx_t> completed{0};
  std::atomic<idx_t> shed{0};
  std::vector<std::string> error_samples(kProducers);

  auto producer = [&](idx_t tid) {
    const auto deadline = std::chrono::steady_clock::now() + kBudget;
    idx_t iteration = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      // Mixed shapes: small cache-resident queries interleaved with
      // wide spilling ones, different strategies.
      const bool heavy = (tid + iteration) % 3 == 0;
      const idx_t rows = heavy ? 20000 : 4000;
      const idx_t groups = heavy ? 8000 : 32;
      auto source = MakeGroupedSource(rows, groups);
      CountingCollector collector;
      QuerySpec spec;
      spec.source = &source;
      spec.group_columns = {0};
      spec.aggregates = SumCountAggregates();
      spec.output = &collector;
      spec.config.phase1_capacity = 1024;
      spec.config.radix_bits = 2;
      spec.threads = heavy ? 2 : 1;
      spec.memory_estimate = heavy ? 16 * kPageSize : 4 * kPageSize;
      QueryProgress progress;

      auto result = service.Execute(spec, nullptr, &progress);
      if (result.ok()) {
        completed.fetch_add(1, std::memory_order_relaxed);
        if (collector.TotalRows() != groups ||
            result.value().unique_groups != groups) {
          wrong_results.fetch_add(1, std::memory_order_relaxed);
        }
        if (progress.Poll().phase != QueryProgress::Phase::kDone) {
          wrong_results.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (result.status().IsAborted() || result.status().IsTimeout()) {
        // Clean shed under churn: expected. Back off a little so shedding
        // producers do not spin on a full queue.
        shed.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      } else {
        unexpected_errors.fetch_add(1, std::memory_order_relaxed);
        if (error_samples[tid].empty()) {
          error_samples[tid] = result.status().ToString();
        }
      }
      iteration++;
    }
  };

  std::vector<std::thread> producers;
  for (idx_t t = 0; t < kProducers; t++) {
    producers.emplace_back(producer, t);
  }
  for (auto &th : producers) {
    th.join();
  }

  std::string samples;
  for (const auto &sample : error_samples) {
    if (!sample.empty()) {
      samples += sample + " | ";
    }
  }
  EXPECT_EQ(unexpected_errors.load(), 0u) << samples;
  EXPECT_EQ(wrong_results.load(), 0u);
  // The soak must have actually run a meaningful number of sessions, and
  // have seen real concurrency pressure (8 producers vs cap 4 + queue 3
  // guarantees queueing; shedding depends on timing and is merely allowed).
  EXPECT_GE(completed.load(), kProducers) << "soak barely ran";
  QueryServiceStats svc = service.stats();
  EXPECT_EQ(svc.submitted, completed.load() + shed.load() + svc.failed);
  EXPECT_GT(svc.queued, 0u) << "soak never contended for admission";
  ExpectQuiesced(bm, service);
}

//===----------------------------------------------------------------------===//
// Grant fault injection (service-level admission paths)
//===----------------------------------------------------------------------===//

// An injected grant-acquisition failure at admission time (pool empty, so
// waiting cannot help) sheds the query with a clean Status and leaks
// nothing; once the one-shot fault is spent the service recovers fully.
TEST_F(QueryServiceTest, InjectedGrantFaultAtAdmissionShedsCleanly) {
  constexpr idx_t kRows = 8000;
  BufferManager bm(dir_, 64 * kPageSize);
  QueryServiceOptions options;
  options.threads = 1;
  QueryService service(bm, options);

  FaultInjector injector;
  FaultInjector::Config config;
  config.fail_at = 1;
  config.site_mask = FaultSiteBit(FaultSite::kGrant);
  injector.Reset(config);
  service.SetFaultInjector(&injector);

  auto source = MakeGroupedSource(kRows, 64);
  CountingCollector collector;
  QuerySpec spec;
  spec.source = &source;
  spec.group_columns = {0};
  spec.aggregates = SumCountAggregates();
  spec.output = &collector;

  auto denied = service.Execute(spec);
  ASSERT_FALSE(denied.ok());
  EXPECT_TRUE(denied.status().IsOutOfMemory()) << denied.status().ToString();
  EXPECT_EQ(injector.faults_injected(), 1u);
  ExpectQuiesced(bm, service);

  // One-shot fault spent: the same query now runs to completion.
  auto retry_source = MakeGroupedSource(kRows, 64);
  spec.source = &retry_source;
  auto result = service.Execute(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(collector.TotalRows(), 64u);
  ExpectQuiesced(bm, service);
}

}  // namespace
}  // namespace ssagg
