// Strategy equivalence and robustness (DESIGN.md section 11): every
// strategy the adaptive planner can pick — central, radix, and the adaptive
// selection itself — must produce identical results at 2 and 4 threads and
// under spill-forcing memory limits, on mixed input and on unique input
// (where the radix plan skips the phase-1 lookups); and the central plan
// (its tables sized at the decision, and their partitions joining the
// partition-wise phase 2) must degrade to a clean Status (no leaked pins,
// temp slots, or memory charges) when any I/O or allocation fails.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ssagg/ssagg.h"
#include "testing/fault_fs.h"
#include "testing/fault_injector.h"

namespace ssagg {
namespace {

std::vector<LogicalTypeId> SourceTypes() {
  return {LogicalTypeId::kInt64, LogicalTypeId::kInt64,
          LogicalTypeId::kVarchar};
}

/// Mixed-regime workload: a handful of heavy hitters, a mid-cardinality
/// tail, NULL group keys sprinkled in, and a string payload per group.
RangeSource MakeWorkload(idx_t total_rows, idx_t tail_groups) {
  return RangeSource(
      SourceTypes(), total_rows,
      [tail_groups](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          idx_t row = start + i;
          uint64_t r = HashUint64(row);
          int64_t key = r % 4 == 0
                            ? static_cast<int64_t>(r % 8)
                            : static_cast<int64_t>(8 + (r >> 8) % tail_groups);
          chunk.column(0).SetValue<int64_t>(i, key);
          chunk.column(1).SetValue<int64_t>(i, static_cast<int64_t>(row % 1000));
          // The payload is a function of the (post-NULL) group key so
          // AnyValue is deterministic across strategies and interleavings.
          if (r % 97 == 0) {
            chunk.column(0).validity().SetInvalid(i);
            chunk.column(2).SetString(i, "group_null");
          } else {
            chunk.column(2).SetString(i, "group_" + std::to_string(key));
          }
        }
        return Status::OK();
      });
}

/// High-cardinality variant with out-of-line string payloads: big enough
/// that even the central thread tables overflow a tight pool and spill,
/// so I/O fault sites are actually exercised on those paths.
RangeSource MakeSpillingWorkload(idx_t total_rows, idx_t groups) {
  return RangeSource(
      SourceTypes(), total_rows,
      [groups](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          idx_t row = start + i;
          int64_t key = static_cast<int64_t>(HashUint64(row) % groups);
          chunk.column(0).SetValue<int64_t>(i, key);
          chunk.column(1).SetValue<int64_t>(i, static_cast<int64_t>(row % 1000));
          chunk.column(2).SetString(
              i, "long_out_of_line_payload_string_for_group_" +
                     std::to_string(key) + "_padding_padding_padding");
        }
        return Status::OK();
      });
}

std::vector<AggregateRequest> TestAggregates() {
  return {{AggregateKind::kSum, 1},
          {AggregateKind::kCountStar, kInvalidIndex},
          {AggregateKind::kMin, 1},
          {AggregateKind::kAnyValue, 2}};
}

/// Unique-key workload, grouped by (key, label): every row is its own group
/// except the NULL-key rows, which share one. Labels and payloads are
/// stored out of line; some values are NULL.
std::vector<LogicalTypeId> UniqueTypes() {
  return {LogicalTypeId::kInt64, LogicalTypeId::kInt64,
          LogicalTypeId::kVarchar, LogicalTypeId::kVarchar};
}

RangeSource MakeUniqueWorkload(idx_t total_rows) {
  return RangeSource(
      UniqueTypes(), total_rows,
      [](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          idx_t row = start + i;
          uint64_t r = HashUint64(row);
          chunk.column(0).SetValue<int64_t>(i, static_cast<int64_t>(row));
          chunk.column(1).SetValue<int64_t>(i,
                                            static_cast<int64_t>(row % 1000));
          if (r % 13 == 0) {
            chunk.column(1).validity().SetInvalid(i);
          }
          // The payload is a function of the group, so ANY_VALUE is
          // deterministic.
          std::string group = std::to_string(row);
          if (r % 97 == 0) {
            chunk.column(0).validity().SetInvalid(i);
            group = "null";
          }
          chunk.column(2).SetString(i,
                                    "label_" + group + "_stored_out_of_line");
          chunk.column(3).SetString(i,
                                    "payload_" + group + "_stored_out_of_line");
        }
        return Status::OK();
      });
}

/// Every aggregate function.
std::vector<AggregateRequest> UniqueAggregates() {
  return {{AggregateKind::kSum, 1},   {AggregateKind::kCount, 1},
          {AggregateKind::kCountStar, kInvalidIndex},
          {AggregateKind::kMin, 1},   {AggregateKind::kMax, 1},
          {AggregateKind::kAvg, 1},   {AggregateKind::kAnyValue, 3}};
}

/// The query shapes the equivalence suite runs.
enum class Pipeline { kMixed, kUnique };

/// Canonical (sorted) form of a collected result, for comparison across
/// runs with unspecified row order.
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

//===----------------------------------------------------------------------===//
// Equivalence across strategies x memory limit x threads
//===----------------------------------------------------------------------===//

class StrategyEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_dir_ = ::testing::TempDir() + "ssagg_strategy_eq_" +
                std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }

  struct RunOutput {
    std::vector<std::string> rows;
    HashAggregateStats stats;
  };

  RunOutput Run(AggregateStrategy strategy, idx_t memory_pages,
                idx_t threads = 2, Pipeline pipeline = Pipeline::kMixed) {
    BufferManager bm(temp_dir_, memory_pages * kPageSize);
    TaskExecutor executor(threads);
    const bool unique = pipeline == Pipeline::kUnique;
    auto source = unique ? MakeUniqueWorkload(kUniqueRows)
                         : MakeWorkload(kRows, kTailGroups);
    MaterializedCollector collector;
    HashAggregateConfig config;
    config.phase1_capacity = 1024;  // small: resets + transitions happen
    config.radix_bits = 3;
    config.strategy = strategy;
    auto stats = RunGroupedAggregation(
        bm, source, unique ? std::vector<idx_t>{0, 2} : std::vector<idx_t>{0},
        unique ? UniqueAggregates() : TestAggregates(), collector, executor,
        config);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    RunOutput out;
    out.rows = CanonicalRows(collector);
    out.stats = stats.ok() ? stats.value() : HashAggregateStats{};
    EXPECT_EQ(bm.PinnedBufferCount(), 0u);
    EXPECT_EQ(bm.memory_used(), 0u);
    return out;
  }

  static constexpr idx_t kRows = 200000;
  static constexpr idx_t kTailGroups = 5000;
  static constexpr idx_t kUniqueRows = 60000;
  std::string temp_dir_;
};

TEST_F(StrategyEquivalenceTest, AllStrategiesAgreeOnAllPipelines) {
  for (Pipeline pipeline : {Pipeline::kMixed, Pipeline::kUnique}) {
    const bool unique = pipeline == Pipeline::kUnique;
    RunOutput reference = Run(AggregateStrategy::kRadixMerge,
                              /*memory_pages=*/2048, /*threads=*/2, pipeline);
    ASSERT_GT(reference.rows.size(),
              unique ? kUniqueRows / 2 : kTailGroups / 2);

    for (AggregateStrategy strategy :
         {AggregateStrategy::kAdaptive, AggregateStrategy::kCentralMerge,
          AggregateStrategy::kRadixMerge}) {
      // Ample memory, then a limit tight enough that the radix plan spills
      // (the central thread tables must survive the same pressure).
      for (idx_t pages : {idx_t{2048}, idx_t{96}}) {
        // 4 threads is where the cost models once advised a tree merge.
        for (idx_t threads : {idx_t{2}, idx_t{4}}) {
          SCOPED_TRACE(std::string("pipeline=") +
                       (unique ? "unique" : "mixed") + " strategy=" +
                       AggregateStrategyName(strategy) +
                       " pages=" + std::to_string(pages) +
                       " threads=" + std::to_string(threads));
          RunOutput run = Run(strategy, pages, threads, pipeline);
          EXPECT_EQ(run.rows, reference.rows);
          EXPECT_TRUE(run.stats.planner_decided);
          if (strategy != AggregateStrategy::kAdaptive) {
            EXPECT_TRUE(run.stats.planner.forced);
            EXPECT_EQ(run.stats.planner.strategy, strategy);
          }
          // Unique input: central looks every row up, the radix plan
          // appends the rows after the sample without a lookup.
          const bool bypass =
              unique && strategy != AggregateStrategy::kCentralMerge;
          EXPECT_EQ(run.stats.planner.phase1_bypass, bypass);
          if (bypass) {
            EXPECT_GT(run.stats.phase1_bypassed_rows, 0u);
          } else {
            EXPECT_EQ(run.stats.phase1_bypassed_rows, 0u);
          }
        }
      }
    }
  }
}

TEST_F(StrategyEquivalenceTest, AdaptivePicksCentralForMidCardinality) {
  // ~5k groups with ample memory: the central tables fit, so the planner
  // picks them.
  RunOutput run = Run(AggregateStrategy::kAdaptive, /*memory_pages=*/2048);
  ASSERT_TRUE(run.stats.planner_decided);
  EXPECT_FALSE(run.stats.planner.forced);
  EXPECT_NE(run.stats.planner.strategy, AggregateStrategy::kRadixMerge)
      << "estimated " << run.stats.planner.estimated_groups << " groups";
  // The estimate is within an order of magnitude of the truth.
  EXPECT_GT(run.stats.planner.estimated_groups, kTailGroups / 8);
  EXPECT_LT(run.stats.planner.estimated_groups, kTailGroups * 8);
}

TEST_F(StrategyEquivalenceTest, MisestimateResetsCentralTableSafely) {
  // The first sample window sees only 16 keys (the planner sizes a tiny
  // central table); afterwards the keyspace explodes. The table must keep
  // its size and reset at 2/3 fill like any phase-1 table, and the answer
  // must stay exact.
  constexpr idx_t kTotal = 400000;
  constexpr idx_t kLateKeys = 150000;
  BufferManager bm(temp_dir_, 2048 * kPageSize);
  // One thread: the lure only works if the sample window sees the 16-key
  // prefix, and a second worker's first morsel starts at kMorselSize
  // (122880) — inside the exploded keyspace — so whether the window stays
  // low-cardinality would be a scheduling race (it lost under ASan).
  TaskExecutor executor(1);
  RangeSource source(
      {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, kTotal,
      [](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          idx_t row = start + i;
          int64_t key = row < 65536
                            ? static_cast<int64_t>(row % 16)
                            : static_cast<int64_t>(HashUint64(row) % kLateKeys);
          chunk.column(0).SetValue<int64_t>(i, key);
          chunk.column(1).SetValue<int64_t>(i, 1);
        }
        return Status::OK();
      });
  MaterializedCollector collector;
  HashAggregateConfig config;
  config.phase1_capacity = 1024;
  config.radix_bits = 3;
  config.planner_sample_rows = 8192;
  auto stats = RunGroupedAggregation(bm, source, {0},
                                     {{AggregateKind::kSum, 1}}, collector,
                                     executor, config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const HashAggregateStats &s = stats.value();
  ASSERT_TRUE(s.planner_decided);
  // The planner was lured into the central plan, and its table reset.
  EXPECT_EQ(s.planner.strategy, AggregateStrategy::kCentralMerge);
  EXPECT_GT(s.phase1_resets, 0u);
  // The table never grew: no stretch between resets inserted more groups
  // than 2/3 of the larger of the sampling and the sized capacity.
  const auto per_reset = static_cast<idx_t>(
      static_cast<double>(
          std::max(config.phase1_capacity, s.planner.local_table_capacity)) *
      kHashTableResetFillRatio);
  EXPECT_LE(s.materialized_rows, (s.phase1_resets + 1) * per_reset);
  // Exactness: SUM of all-ones equals the row count; every group present.
  int64_t total = 0;
  for (const auto &row : collector.rows()) {
    total += row[1].GetInt64();
  }
  EXPECT_EQ(total, static_cast<int64_t>(kTotal));
  std::set<int64_t> keys;
  for (idx_t row = 0; row < kTotal; row++) {
    keys.insert(row < 65536
                    ? static_cast<int64_t>(row % 16)
                    : static_cast<int64_t>(HashUint64(row) % kLateKeys));
  }
  EXPECT_EQ(collector.RowCount(), keys.size());
}

TEST_F(StrategyEquivalenceTest, DirectIndexStaysExactWithUnsampledKeys) {
  // The sample window only sees keys in [100, 1100) (plus NULLs), so the
  // planner commits to a direct-index pointer cache over that span; later
  // every 7th row carries a key far outside it. Those chunks must take the
  // generic fallback and the result must match the forced radix plan.
  constexpr idx_t kTotal = 300000;
  auto make_source = [] {
    return RangeSource(
        SourceTypes(), kTotal, [](DataChunk &chunk, idx_t start, idx_t count) {
          for (idx_t i = 0; i < count; i++) {
            idx_t row = start + i;
            uint64_t r = HashUint64(row);
            int64_t key = static_cast<int64_t>(100 + r % 1000);
            if (row >= 65536 && row % 7 == 0) {
              key = static_cast<int64_t>(500000 + r % 50);
            }
            chunk.column(0).SetValue<int64_t>(i, key);
            chunk.column(1).SetValue<int64_t>(
                i, static_cast<int64_t>(row % 1000));
            if (r % 97 == 0) {
              chunk.column(0).validity().SetInvalid(i);
              chunk.column(2).SetString(i, "group_null");
            } else {
              chunk.column(2).SetString(i, "group_" + std::to_string(key));
            }
          }
          return Status::OK();
        });
  };
  auto run = [&](AggregateStrategy strategy) {
    BufferManager bm(temp_dir_, 2048 * kPageSize);
    // One thread: a second worker's first morsel starts at kMorselSize
    // (122880) — past the outlier rows — so whether its keys reach the
    // planner before the window closes would be a scheduling race, and the
    // engagement assertions below need a deterministic sample. Correctness
    // with concurrent threads rides on the multi-threaded equivalence
    // sweeps, where the cache may or may not engage per run.
    TaskExecutor executor(1);
    auto source = make_source();
    MaterializedCollector collector;
    HashAggregateConfig config;
    config.strategy = strategy;
    auto stats = RunGroupedAggregation(bm, source, {0}, TestAggregates(),
                                       collector, executor, config);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    RunOutput out;
    out.rows = CanonicalRows(collector);
    out.stats = stats.ok() ? stats.value() : HashAggregateStats{};
    return out;
  };
  RunOutput reference = run(AggregateStrategy::kRadixMerge);
  RunOutput adaptive = run(AggregateStrategy::kAdaptive);
  EXPECT_EQ(adaptive.rows, reference.rows);
  ASSERT_TRUE(adaptive.stats.planner_decided);
  EXPECT_TRUE(adaptive.stats.planner.direct_index);
  EXPECT_GT(adaptive.stats.ht.direct_hit_rows, 0u);
  // The out-of-range spikes force generic-path chunks.
  EXPECT_GT(adaptive.stats.ht.direct_fallback_chunks, 0u);
}

TEST_F(StrategyEquivalenceTest, DirectIndexWarmsUpOverAWideDenseSpan) {
  // 30,000 dense keys drawn uniformly: the sample spans nearly all of them,
  // so the central tables arm the direct index, but a 2,048-row chunk
  // keeps meeting a key not cached yet for about 150 chunks after the
  // decision. Each such fallback caches new keys, so it is warmup: the
  // index must survive it and serve the rest of the input.
  constexpr idx_t kTotal = idx_t{1} << 20;
  constexpr idx_t kGroups = 30000;
  auto key_of = [](idx_t row) {
    return static_cast<int64_t>(HashUint64(row) % kGroups);
  };
  std::map<int64_t, std::pair<int64_t, int64_t>> reference;  // sum, count
  for (idx_t row = 0; row < kTotal; row++) {
    auto &slot = reference[key_of(row)];
    slot.first += static_cast<int64_t>(row % 1000);
    slot.second++;
  }
  BufferManager bm(temp_dir_, 2048 * kPageSize);
  // One thread: the sample is the input's prefix.
  TaskExecutor executor(1);
  RangeSource source(
      {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, kTotal,
      [&](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          chunk.column(0).SetValue<int64_t>(i, key_of(start + i));
          chunk.column(1).SetValue<int64_t>(
              i, static_cast<int64_t>((start + i) % 1000));
        }
        return Status::OK();
      });
  MaterializedCollector collector;
  HashAggregateConfig config;
  config.strategy = AggregateStrategy::kCentralMerge;
  auto stats = RunGroupedAggregation(
      bm, source, {0},
      {{AggregateKind::kSum, 1}, {AggregateKind::kCountStar, kInvalidIndex}},
      collector, executor, config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const HashAggregateStats &s = stats.value();
  ASSERT_TRUE(s.planner.direct_index);
  EXPECT_GT(s.ht.direct_fallback_chunks, 64u);
  EXPECT_GT(s.ht.direct_hit_rows, 0u);
  std::map<int64_t, std::pair<int64_t, int64_t>> result;
  for (const auto &row : collector.rows()) {
    result[row[0].GetInt64()] = {row[1].GetInt64(), row[2].GetInt64()};
  }
  EXPECT_EQ(result, reference);
}

TEST_F(StrategyEquivalenceTest, DirectIndexStaysExactAcrossMidChunkResets) {
  // The sample sees keys [0, 64) only, so the central table is sized for
  // 64 groups and its direct index serves the next chunks. Then each chunk
  // leads with the 64 cached keys and fills the rest with new groups, so
  // the table resets in the middle of chunks, after those keys resolved;
  // the run ends on cached keys alone. The cache must be gone from the
  // first reset on: its rows' pages are unpinned, and at the tight limit
  // they are evicted.
  constexpr idx_t kTotal = 80 * kVectorSize;
  constexpr idx_t kCachedKeys = 64;
  auto key_of = [](idx_t row) -> int64_t {
    const idx_t chunk = row / kVectorSize;
    const idx_t offset = row % kVectorSize;
    if (chunk >= 32 && chunk < 48 && offset >= kCachedKeys) {
      return static_cast<int64_t>(1000000 + row);
    }
    return static_cast<int64_t>(offset % kCachedKeys);
  };
  std::map<int64_t, std::pair<int64_t, int64_t>> reference;  // sum, count
  for (idx_t row = 0; row < kTotal; row++) {
    auto &slot = reference[key_of(row)];
    slot.first += static_cast<int64_t>(row % 1000);
    slot.second++;
  }
  for (idx_t pages : {idx_t{2048}, idx_t{6}}) {
    SCOPED_TRACE("pages=" + std::to_string(pages));
    BufferManager bm(temp_dir_, pages * kPageSize);
    // One thread: chunks arrive in row order, so the sample is the prefix.
    TaskExecutor executor(1);
    RangeSource source(
        {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, kTotal,
        [&](DataChunk &chunk, idx_t start, idx_t count) {
          for (idx_t i = 0; i < count; i++) {
            chunk.column(0).SetValue<int64_t>(i, key_of(start + i));
            chunk.column(1).SetValue<int64_t>(
                i, static_cast<int64_t>((start + i) % 1000));
          }
          return Status::OK();
        });
    MaterializedCollector collector;
    HashAggregateConfig config;
    config.radix_bits = 1;
    config.phase1_capacity = 1024;
    config.planner_sample_rows = 8192;
    config.strategy = AggregateStrategy::kCentralMerge;
    QueryProfile profile;
    auto stats = RunGroupedAggregation(
        bm, source, {0},
        {{AggregateKind::kSum, 1}, {AggregateKind::kCountStar, kInvalidIndex}},
        collector, executor, config, &profile);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    const HashAggregateStats &s = stats.value();
    EXPECT_TRUE(s.planner.direct_index);
    // The decision comes with chunk 3; chunk 4 fills the cache and chunks
    // 5 to 31 are served from it. From chunk 33's reset on, nothing is.
    EXPECT_EQ(s.ht.direct_hit_rows, 27 * kVectorSize);
    EXPECT_GT(s.phase1_resets, 0u);
    if (pages < 64) {
      EXPECT_GT(profile.counters["bm.evictions_temporary_spilled"], 0u)
          << "nothing was evicted";
    }
    std::map<int64_t, std::pair<int64_t, int64_t>> result;
    for (const auto &row : collector.rows()) {
      result[row[0].GetInt64()] = {row[1].GetInt64(), row[2].GetInt64()};
    }
    EXPECT_EQ(result, reference);
    EXPECT_EQ(bm.PinnedBufferCount(), 0u);
    EXPECT_EQ(bm.memory_used(), 0u);
  }
}

TEST_F(StrategyEquivalenceTest, DirectIndexDeclinedForSparseKeys) {
  // A few hundred groups, but the keys are full 64-bit hashes: the sampled
  // span exceeds the pointer-cache cap, so the planner must keep the
  // regular central-merge probe path.
  constexpr idx_t kTotal = 120000;
  BufferManager bm(temp_dir_, 2048 * kPageSize);
  TaskExecutor executor(2);
  RangeSource source(
      {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, kTotal,
      [](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          idx_t row = start + i;
          chunk.column(0).SetValue<int64_t>(
              i, static_cast<int64_t>(HashUint64(HashUint64(row) % 500)));
          chunk.column(1).SetValue<int64_t>(i, 1);
        }
        return Status::OK();
      });
  MaterializedCollector collector;
  HashAggregateConfig config;
  auto stats = RunGroupedAggregation(bm, source, {0},
                                     {{AggregateKind::kSum, 1}}, collector,
                                     executor, config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats.value().planner_decided);
  EXPECT_NE(stats.value().planner.strategy, AggregateStrategy::kRadixMerge);
  EXPECT_FALSE(stats.value().planner.direct_index);
  EXPECT_EQ(stats.value().ht.direct_hit_rows, 0u);
  EXPECT_EQ(collector.RowCount(), 500u);
}

TEST_F(StrategyEquivalenceTest, ForcedStrategyEnvOverrideWins) {
  setenv("SSAGG_AGG_STRATEGY", "radix", 1);
  RunOutput run = Run(AggregateStrategy::kCentralMerge,
                      /*memory_pages=*/2048);
  unsetenv("SSAGG_AGG_STRATEGY");
  ASSERT_TRUE(run.stats.planner_decided);
  EXPECT_EQ(run.stats.planner.strategy, AggregateStrategy::kRadixMerge);
  EXPECT_TRUE(run.stats.planner.forced);

  // "tree" named a merge strategy that no longer exists.
  for (const char *name : {"tree", "bogus"}) {
    SCOPED_TRACE(name);
    setenv("SSAGG_AGG_STRATEGY", name, 1);
    BufferManager bm(temp_dir_, 64 * kPageSize);
    auto agg = PhysicalHashAggregate::Create(bm, SourceTypes(), {0},
                                             TestAggregates());
    unsetenv("SSAGG_AGG_STRATEGY");
    ASSERT_FALSE(agg.ok());
    EXPECT_TRUE(agg.status().IsInvalidArgument()) << agg.status().ToString();
    EXPECT_NE(agg.status().ToString().find("SSAGG_AGG_STRATEGY"),
              std::string::npos)
        << agg.status().ToString();
  }
}

//===----------------------------------------------------------------------===//
// Fault sweeps over the central plan
//===----------------------------------------------------------------------===//

class StrategyFaultSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_dir_ = ::testing::TempDir() + "ssagg_strategy_fault_" +
                std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(base_dir_);
  }

  struct SweepRun {
    Status status;
    std::vector<std::string> rows;
  };

  /// Single thread so the k-th operation is the same operation on every
  /// run; a tight pool so merge tables and materialized leftovers contend
  /// for memory mid-merge.
  SweepRun RunOnce(const std::string &dir, FaultInjector &injector,
                   AggregateStrategy strategy) {
    FaultInjectingFileSystem fault_fs(FileSystem::Default(), injector);
    SweepRun run;
    {
      // 3 MiB: the right-sized merge table (~4k groups) fits pinned, but
      // the pages materialized during the sampling window do not — they
      // spill, so the I/O fault sites fire on the central path too.
      BufferManager bm(dir, 12 * kPageSize, EvictionPolicy::kMixed, fault_fs);
      bm.SetFaultInjector(&injector);
      TaskExecutor executor(1);
      auto source = MakeSpillingWorkload(kRows, kGroups);
      MaterializedCollector collector;
      HashAggregateConfig config;
      config.phase1_capacity = 512;
      config.radix_bits = 2;
      config.strategy = strategy;
      auto stats = RunGroupedAggregation(bm, source, {0}, TestAggregates(),
                                         collector, executor, config);
      run.status = stats.ok() ? Status::OK() : stats.status();
      if (stats.ok()) {
        run.rows = CanonicalRows(collector);
      }
      // The no-leak invariant, asserted while the pool is still alive.
      EXPECT_EQ(bm.PinnedBufferCount(), 0u) << "leaked pins";
      EXPECT_EQ(bm.temp_files().UsedSlots(), 0u) << "leaked temp slots";
      EXPECT_EQ(bm.temp_files().VariableBlockCount(), 0u)
          << "leaked temp files";
      EXPECT_EQ(bm.memory_used(), 0u) << "leaked memory charge";
    }
    return run;
  }

  void Sweep(AggregateStrategy strategy, uint32_t site_mask,
             const char *what) {
    std::string dir = base_dir_ + "/" + AggregateStrategyName(strategy) + "_" +
                      what;
    (void)FileSystem::Default().CreateDirectories(dir);

    FaultInjector injector;
    FaultInjector::Config config;
    config.site_mask = site_mask;
    injector.Reset(config);
    SweepRun reference = RunOnce(dir, injector, strategy);
    ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
    idx_t total_ops = injector.ops_seen();
    ASSERT_GT(total_ops, 0u);
    ASSERT_EQ(injector.faults_injected(), 0u);

    constexpr idx_t kMaxPoints = 120;
    idx_t stride = std::max<idx_t>(1, total_ops / kMaxPoints);
    for (idx_t k = 1; k <= total_ops; k += stride) {
      SCOPED_TRACE(std::string(AggregateStrategyName(strategy)) + "/" + what +
                   ": fault at operation #" + std::to_string(k));
      config.fail_at = k;
      injector.Reset(config);
      SweepRun run = RunOnce(dir, injector, strategy);
      ASSERT_EQ(injector.faults_injected(), 1u);
      EXPECT_FALSE(run.status.ok()) << "injected fault did not surface";
    }

    // One past the fault-free count: bit-identical to the reference.
    config.fail_at = total_ops + 1;
    injector.Reset(config);
    SweepRun clean = RunOnce(dir, injector, strategy);
    ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
    EXPECT_EQ(injector.faults_injected(), 0u);
    EXPECT_EQ(clean.rows, reference.rows);
  }

  static constexpr idx_t kRows = 60000;
  static constexpr idx_t kGroups = 4000;
  std::string base_dir_;
};

TEST_F(StrategyFaultSweepTest, CentralMergeIoFailuresDegradeCleanly) {
  Sweep(AggregateStrategy::kCentralMerge, kFaultIoSites, "io");
}

TEST_F(StrategyFaultSweepTest, CentralMergeAllocationFailuresDegradeCleanly) {
  Sweep(AggregateStrategy::kCentralMerge, kFaultMemorySites, "memory");
}

}  // namespace
}  // namespace ssagg
