#include "core/physical_hash_aggregate.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <map>

#include "common/file_system.h"
#include "common/hash.h"
#include "core/run_aggregation.h"
#include "execution/collectors.h"
#include "execution/range_source.h"

namespace ssagg {
namespace {

class HashAggregateE2ETest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    temp_dir_ = ::testing::TempDir() + "ssagg_e2e_test_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  idx_t Threads() const { return static_cast<idx_t>(GetParam()); }
  std::string temp_dir_;
};

// Source schema: [int64 key, int64 value, varchar label]
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
          chunk.column(2).SetString(
              i, "label_for_group_" + std::to_string(key));
        }
        return Status::OK();
      });
}

// Per-group reference: key k receives rows k, k+G, k+2G, ...
void CheckSums(const MaterializedCollector &collector, idx_t total_rows,
               idx_t num_groups) {
  ASSERT_EQ(collector.RowCount(), num_groups);
  std::map<int64_t, std::pair<int64_t, int64_t>> seen;  // key -> (sum, count)
  for (const auto &row : collector.rows()) {
    ASSERT_EQ(row.size(), 4u);  // key, SUM, COUNT, ANY_VALUE(label)
    int64_t key = row[0].GetInt64();
    ASSERT_TRUE(seen.emplace(key, std::make_pair(row[1].GetInt64(),
                                                 row[2].GetInt64()))
                    .second)
        << "duplicate group " << key;
    EXPECT_EQ(row[3].GetString(), "label_for_group_" + std::to_string(key));
  }
  for (idx_t k = 0; k < num_groups; k++) {
    idx_t occurrences = (total_rows - k + num_groups - 1) / num_groups;
    int64_t expected_sum = 0;
    for (idx_t j = 0; j < occurrences; j++) {
      expected_sum += static_cast<int64_t>(k + j * num_groups);
    }
    auto it = seen.find(static_cast<int64_t>(k));
    ASSERT_NE(it, seen.end()) << "missing group " << k;
    EXPECT_EQ(it->second.first, expected_sum) << "sum of group " << k;
    EXPECT_EQ(it->second.second, static_cast<int64_t>(occurrences));
  }
}

TEST_P(HashAggregateE2ETest, LowCardinality) {
  BufferManager bm(temp_dir_, 512 * kPageSize);
  TaskExecutor executor(Threads());
  auto source = MakeSource(100000, 4);
  MaterializedCollector collector;
  HashAggregateConfig config;
  config.phase1_capacity = 4096;
  auto stats = RunGroupedAggregation(
      bm, source, {0},
      {{AggregateKind::kSum, 1},
       {AggregateKind::kCountStar, kInvalidIndex},
       {AggregateKind::kAnyValue, 2}},
      collector, executor, config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  CheckSums(collector, 100000, 4);
  // Low-cardinality: tiny materialization (4 groups per thread-run).
  EXPECT_LE(stats.value().materialized_rows, 4 * Threads() * 4u);
}

TEST_P(HashAggregateE2ETest, HighCardinalityInMemory) {
  BufferManager bm(temp_dir_, 2048 * kPageSize);
  TaskExecutor executor(Threads());
  constexpr idx_t kRows = 200000;
  // Fewer groups than the planner samples: the sample sees duplicates, so
  // phase 1 keeps looking groups up (and resetting) instead of bypassing.
  constexpr idx_t kGroups = 20000;
  auto source = MakeSource(kRows, kGroups);
  MaterializedCollector collector;
  HashAggregateConfig config;
  config.phase1_capacity = 4096;  // force resets: groups >> capacity
  config.radix_bits = 3;
  config.strategy = AggregateStrategy::kRadixMerge;
  auto stats = RunGroupedAggregation(
      bm, source, {0},
      {{AggregateKind::kSum, 1},
       {AggregateKind::kCountStar, kInvalidIndex},
       {AggregateKind::kAnyValue, 2}},
      collector, executor, config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  CheckSums(collector, kRows, kGroups);
  EXPECT_FALSE(stats.value().planner.phase1_bypass);
  EXPECT_EQ(stats.value().phase1_bypassed_rows, 0u);
  EXPECT_GT(stats.value().phase1_resets, 0u);
  // Duplicate groups across resets: more materialized rows than groups.
  EXPECT_GT(stats.value().materialized_rows, kGroups);
  EXPECT_EQ(stats.value().unique_groups, kGroups);
}

TEST_P(HashAggregateE2ETest, ExternalAggregationWithTinyMemoryLimit) {
  // Memory limit below the intermediate size: phase 1 must spill and
  // phase 2 must reload, with correct results. The limit respects the
  // algorithm's minimum (threads x partitions x 2 pinned build pages, plus
  // one aggregated partition per thread in phase 2 -- Section V).
  BufferManager bm(temp_dir_, 160 * kPageSize);  // 40 MiB
  TaskExecutor executor(Threads());
  constexpr idx_t kRows = 600000;
  constexpr idx_t kGroups = 600000;  // every group unique: worst case
  auto source = MakeSource(kRows, kGroups);
  MaterializedCollector collector;
  HashAggregateConfig config;
  config.phase1_capacity = 1024;  // keep pinned working set tiny
  config.radix_bits = 3;
  auto stats = RunGroupedAggregation(
      bm, source, {0},
      {{AggregateKind::kSum, 1},
       {AggregateKind::kCountStar, kInvalidIndex},
       {AggregateKind::kAnyValue, 2}},
      collector, executor, config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  CheckSums(collector, kRows, kGroups);
  auto snap = bm.Snapshot();
  EXPECT_GT(snap.temp_writes, 0u) << "expected spilling to temporary files";
  EXPECT_GT(snap.temp_reads, 0u);
  // Eager destruction: everything is freed afterwards.
  EXPECT_EQ(snap.temp_file_size, 0u);
  EXPECT_EQ(bm.memory_used(), 0u);
}

TEST_P(HashAggregateE2ETest, GroupByStringColumn) {
  BufferManager bm(temp_dir_, 512 * kPageSize);
  TaskExecutor executor(Threads());
  constexpr idx_t kRows = 50000;
  constexpr idx_t kGroups = 700;
  auto source = MakeSource(kRows, kGroups);
  MaterializedCollector collector;
  HashAggregateConfig config;
  config.phase1_capacity = 4096;
  auto stats = RunGroupedAggregation(
      bm, source, {2}, {{AggregateKind::kCountStar, kInvalidIndex}},
      collector, executor, config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(collector.RowCount(), kGroups);
  int64_t total = 0;
  for (const auto &row : collector.rows()) {
    total += row[1].GetInt64();
  }
  EXPECT_EQ(total, static_cast<int64_t>(kRows));
}

TEST_P(HashAggregateE2ETest, MultiColumnGroups) {
  BufferManager bm(temp_dir_, 512 * kPageSize);
  TaskExecutor executor(Threads());
  constexpr idx_t kRows = 60000;
  RangeSource source(
      SourceTypes(), kRows, [](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          idx_t row = start + i;
          chunk.column(0).SetValue<int64_t>(i, static_cast<int64_t>(row % 10));
          chunk.column(1).SetValue<int64_t>(i, static_cast<int64_t>(row % 7));
          chunk.column(2).SetString(i, "x");
        }
        return Status::OK();
      });
  MaterializedCollector collector;
  auto stats = RunGroupedAggregation(
      bm, source, {0, 1}, {{AggregateKind::kCountStar, kInvalidIndex}},
      collector, executor, HashAggregateConfig{});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(collector.RowCount(), 70u);  // 10 x 7 combinations
}

TEST_P(HashAggregateE2ETest, OffsetCollectorKeepsOneRow) {
  BufferManager bm(temp_dir_, 512 * kPageSize);
  TaskExecutor executor(Threads());
  constexpr idx_t kGroups = 12345;
  auto source = MakeSource(50000, kGroups);
  OffsetCollector collector(kGroups - 1);
  auto stats = RunGroupedAggregation(
      bm, source, {0}, {{AggregateKind::kCountStar, kInvalidIndex}},
      collector, executor, HashAggregateConfig{});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(collector.TotalRows(), kGroups);
  EXPECT_EQ(collector.kept_rows().size(), 1u);
}

TEST_P(HashAggregateE2ETest, EmptyInput) {
  BufferManager bm(temp_dir_, 512 * kPageSize);
  TaskExecutor executor(Threads());
  auto source = MakeSource(0, 1);
  MaterializedCollector collector;
  auto stats = RunGroupedAggregation(
      bm, source, {0}, {{AggregateKind::kCountStar, kInvalidIndex}},
      collector, executor, HashAggregateConfig{});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(collector.RowCount(), 0u);
}

TEST_P(HashAggregateE2ETest, NullResultsStayWithTheirGroups) {
  // Every even key has only NULL values, so its SUM and MIN are NULL; odd
  // keys have two values each. Partitions of 10,000 groups emit in several
  // chunks, and a NULL result must not carry over into the next chunk.
  BufferManager bm(temp_dir_, 512 * kPageSize);
  TaskExecutor executor(Threads());
  constexpr idx_t kGroups = 20000;
  constexpr idx_t kRows = 2 * kGroups;
  RangeSource source(
      {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, kRows,
      [](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          const idx_t row = start + i;
          const idx_t key = row % kGroups;
          chunk.column(0).SetValue<int64_t>(i, static_cast<int64_t>(key));
          chunk.column(1).SetValue<int64_t>(i, static_cast<int64_t>(row));
          if (key % 2 == 0) {
            chunk.column(1).validity().SetInvalid(i);
          }
        }
        return Status::OK();
      });
  MaterializedCollector collector;
  HashAggregateConfig config;
  config.strategy = AggregateStrategy::kRadixMerge;
  config.radix_bits = 1;
  auto stats = RunGroupedAggregation(
      bm, source, {0}, {{AggregateKind::kSum, 1}, {AggregateKind::kMin, 1}},
      collector, executor, config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(collector.RowCount(), kGroups);
  for (const auto &row : collector.rows()) {
    const int64_t key = row[0].GetInt64();
    if (key % 2 == 0) {
      EXPECT_TRUE(row[1].IsNull() && row[2].IsNull()) << "group " << key;
    } else {
      ASSERT_FALSE(row[1].IsNull() || row[2].IsNull()) << "group " << key;
      EXPECT_EQ(row[1].GetInt64(), 2 * key + static_cast<int64_t>(kGroups));
      EXPECT_EQ(row[2].GetInt64(), key);
    }
  }
}

TEST_P(HashAggregateE2ETest, UnfilledPhase1TablesNeverReset) {
  // 20,000 groups never fill a default phase-1 table (it resets at 2/3 of
  // 2^17 entries), and a central table resizes instead of resetting. Tables
  // torn down at the central transition or at Combine are not reset
  // either, so neither plan counts a reset.
  constexpr idx_t kRows = 100000;
  constexpr idx_t kGroups = 20000;
  for (AggregateStrategy strategy :
       {AggregateStrategy::kRadixMerge, AggregateStrategy::kCentralMerge}) {
    SCOPED_TRACE(AggregateStrategyName(strategy));
    BufferManager bm(temp_dir_, 512 * kPageSize);
    TaskExecutor executor(Threads());
    auto source = MakeSource(kRows, kGroups);
    MaterializedCollector collector;
    HashAggregateConfig config;
    config.strategy = strategy;
    auto stats = RunGroupedAggregation(
        bm, source, {0},
        {{AggregateKind::kSum, 1},
         {AggregateKind::kCountStar, kInvalidIndex},
         {AggregateKind::kAnyValue, 2}},
        collector, executor, config);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    CheckSums(collector, kRows, kGroups);
    EXPECT_EQ(stats.value().phase1_resets, 0u);
    EXPECT_EQ(stats.value().ht.resets, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, HashAggregateE2ETest,
                         ::testing::Values(1, 2, 4));

// Phase-2 (and early-compaction) tables are created at the capacity their
// partition needs: min(rows, 1.5 x the planner's group estimate per
// partition), so they neither resize nor take an entry array sized for
// duplicates that collapse.
class PartitionTableSizingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_dir_ = ::testing::TempDir() + "ssagg_sizing_test_" +
                std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  std::string temp_dir_;
};

// [int64 key, int64 value] with key = key_of(row) and value = row.
template <typename KeyFn>
RangeSource MakeKeyedSource(idx_t total_rows, KeyFn key_of) {
  return RangeSource(
      {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, total_rows,
      [key_of](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          const idx_t row = start + i;
          chunk.column(0).SetValue<int64_t>(i, key_of(row));
          chunk.column(1).SetValue<int64_t>(i, static_cast<int64_t>(row));
        }
        return Status::OK();
      });
}

// Checks SUM(value) and COUNT(*) per key against a reference built from the
// same key function.
template <typename KeyFn>
void CheckKeyedSums(const MaterializedCollector &collector, idx_t total_rows,
                    KeyFn key_of) {
  std::map<int64_t, std::pair<int64_t, int64_t>> expected;
  for (idx_t row = 0; row < total_rows; row++) {
    auto &entry = expected[key_of(row)];
    entry.first += static_cast<int64_t>(row);
    entry.second++;
  }
  ASSERT_EQ(collector.RowCount(), expected.size());
  for (const auto &row : collector.rows()) {
    auto it = expected.find(row[0].GetInt64());
    ASSERT_NE(it, expected.end()) << "unexpected group " << row[0].GetInt64();
    EXPECT_EQ(row[1].GetInt64(), it->second.first);
    EXPECT_EQ(row[2].GetInt64(), it->second.second);
    expected.erase(it);
  }
  EXPECT_TRUE(expected.empty());
}

const std::vector<AggregateRequest> kSumCount = {
    {AggregateKind::kSum, 1}, {AggregateKind::kCountStar, kInvalidIndex}};

TEST_F(PartitionTableSizingTest, AllUniqueKeysNeverResize) {
  // 8 partitions of ~12.5k groups each: a 1,024-slot start would double
  // four times per partition.
  BufferManager bm(temp_dir_, 512 * kPageSize);
  TaskExecutor executor(2);
  constexpr idx_t kRows = 100000;
  auto key_of = [](idx_t row) { return static_cast<int64_t>(row); };
  auto source = MakeKeyedSource(kRows, key_of);
  MaterializedCollector collector;
  HashAggregateConfig config;
  config.strategy = AggregateStrategy::kRadixMerge;
  config.radix_bits = 3;
  auto stats = RunGroupedAggregation(bm, source, {0}, kSumCount, collector,
                                     executor, config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  CheckKeyedSums(collector, kRows, key_of);
  EXPECT_EQ(stats.value().ht.resizes, 0u);
}

TEST_F(PartitionTableSizingTest, DuplicateHeavyPartitionsAreSizedFromGroups) {
  // 10k groups, 16 rows each on average, in random order. A 1,024-entry
  // phase-1 table resets every ~680 groups, so nearly every row reaches
  // phase 2 as its own materialized row. The 32k-row sample sees each
  // group ~3 times: it is not saturated and the estimate is close.
  BufferManager bm(temp_dir_, 512 * kPageSize);
  TaskExecutor executor(1);
  constexpr idx_t kRows = 160000;
  constexpr idx_t kGroups = 10000;
  constexpr idx_t kRadixBits = 2;
  auto key_of = [](idx_t row) {
    return static_cast<int64_t>(HashUint64(row) % kGroups);
  };
  auto source = MakeKeyedSource(kRows, key_of);
  MaterializedCollector collector;
  HashAggregateConfig config;
  config.strategy = AggregateStrategy::kRadixMerge;
  config.radix_bits = kRadixBits;
  config.phase1_capacity = 1024;
  auto stats = RunGroupedAggregation(bm, source, {0}, kSumCount, collector,
                                     executor, config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  CheckKeyedSums(collector, kRows, key_of);
  const HashAggregateStats &s = stats.value();
  ASSERT_GT(s.materialized_rows, 8 * s.unique_groups)
      << "phase 2 must see the duplicates";
  EXPECT_LT(s.planner.estimated_groups, 2 * kGroups);
  // Big enough for the groups: no partition table resized...
  EXPECT_EQ(s.ht.resizes, 0u);
  // ...and far smaller than an array sized for the rows would be.
  // With one thread, the largest non-paged charge is one partition's entry
  // array: the 1,024-entry phase-1 table is smaller, and gone by phase 2.
  const idx_t rows_per_partition = s.materialized_rows >> kRadixBits;
  const idx_t row_sized_bytes =
      std::bit_ceil(rows_per_partition + kVectorSize) * sizeof(uint64_t);
  const idx_t peak = bm.Snapshot().non_paged_peak;
  EXPECT_GT(peak, 0u);
  EXPECT_LE(2 * peak, row_sized_bytes)
      << "entry array of " << peak << " B for " << rows_per_partition
      << " rows per partition";
}

TEST_F(PartitionTableSizingTest, CentralTablesNeverResize) {
  // A central thread table gets one all-new chunk of room on top of the
  // estimate, like a phase-2 table, so it does not double on its first
  // chunk; its rows then go through the partition-wise phase 2.
  constexpr idx_t kRows = 200000;
  for (idx_t groups : {idx_t{28}, idx_t{1000}}) {
    SCOPED_TRACE("groups=" + std::to_string(groups));
    BufferManager bm(temp_dir_, 512 * kPageSize);
    TaskExecutor executor(2);
    auto key_of = [groups](idx_t row) {
      return static_cast<int64_t>(HashUint64(row) % groups);
    };
    auto source = MakeKeyedSource(kRows, key_of);
    MaterializedCollector collector;
    HashAggregateConfig config;
    config.strategy = AggregateStrategy::kCentralMerge;
    auto stats = RunGroupedAggregation(bm, source, {0}, kSumCount, collector,
                                       executor, config);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    CheckKeyedSums(collector, kRows, key_of);
    const HashAggregateStats &s = stats.value();
    EXPECT_FALSE(s.planner_demoted);
    EXPECT_EQ(s.ht.resizes, 0u);
    EXPECT_GT(s.phase2_in_place_partitions + s.phase2_copied_rows, 0u)
        << "phase 2 must run partition-wise";
  }
}

TEST_F(PartitionTableSizingTest, LowEstimateOnlyCostsResizes) {
  // The sampled first 32k rows cycle through 8 keys; every later row is a
  // new group. The estimate is far too low, so the tables start small and
  // grow; the answer stays exact.
  BufferManager bm(temp_dir_, 512 * kPageSize);
  TaskExecutor executor(1);
  constexpr idx_t kRows = 120000;
  constexpr idx_t kSampledRows = 32768;
  auto key_of = [](idx_t row) {
    return static_cast<int64_t>(row < kSampledRows ? row % 8 : row);
  };
  auto source = MakeKeyedSource(kRows, key_of);
  MaterializedCollector collector;
  HashAggregateConfig config;
  config.strategy = AggregateStrategy::kRadixMerge;
  config.radix_bits = 3;
  config.planner_sample_rows = kSampledRows;
  auto stats = RunGroupedAggregation(bm, source, {0}, kSumCount, collector,
                                     executor, config);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  CheckKeyedSums(collector, kRows, key_of);
  const idx_t groups = 8 + (kRows - kSampledRows);
  EXPECT_EQ(stats.value().unique_groups, groups);
  EXPECT_LT(stats.value().planner.estimated_groups, groups / 10);
}

// Phase 2 groups a near-unique radix partition in place, over its own rows
// (DESIGN.md section 4); a partition that fails the near-unique or the
// memory rule is copied into its table instead.
class Phase2InPlaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_dir_ = ::testing::TempDir() + "ssagg_in_place_test_" +
                std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  std::string temp_dir_;
};

TEST_F(Phase2InPlaceTest, NearUniqueSpilledPartitionsGroupInPlace) {
  // 40,000 VARCHAR keys; rows 40,000..51,999 repeat keys 0..11,999 long
  // after a phase-1 reset (a 1,024-entry table resets every 682 groups), so
  // 30% of the keys reach phase 2 twice. Every row carries a long ANY_VALUE
  // payload. At 6 MiB the phase-1 partitions spill, and phase 2 reloads
  // them, recomputing their string pointers.
  constexpr idx_t kGroups = 40000;
  constexpr idx_t kRows = kGroups + 12000;
  auto key_of = [](idx_t row) { return row < kGroups ? row : row - kGroups; };
  auto key_string = [](idx_t key) {
    return "group_key_" + std::to_string(key);
  };
  auto payload = [](idx_t key) {
    return "payload_of_group_" + std::to_string(key) +
           "_padded_well_past_the_inline_limit";
  };
  RangeSource source(
      {LogicalTypeId::kVarchar, LogicalTypeId::kInt64,
       LogicalTypeId::kVarchar},
      kRows, [&](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          const idx_t row = start + i;
          chunk.column(0).SetString(i, key_string(key_of(row)));
          chunk.column(1).SetValue<int64_t>(i, static_cast<int64_t>(row));
          chunk.column(2).SetString(i, payload(key_of(row)));
        }
        return Status::OK();
      });
  BufferManager bm(temp_dir_, 24 * kPageSize);
  {
    TaskExecutor executor(2);
    MaterializedCollector collector;
    HashAggregateConfig config;
    config.strategy = AggregateStrategy::kRadixMerge;
    config.radix_bits = 2;
    config.phase1_capacity = 1024;
    config.early_aggregation = EarlyAggMode::kOff;
    auto stats = RunGroupedAggregation(
        bm, source, {0},
        {{AggregateKind::kSum, 1},
         {AggregateKind::kCountStar, kInvalidIndex},
         {AggregateKind::kAnyValue, 2}},
        collector, executor, config);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();

    std::map<std::string, std::pair<int64_t, int64_t>> expected;
    for (idx_t row = 0; row < kRows; row++) {
      auto &entry = expected[key_string(key_of(row))];
      entry.first += static_cast<int64_t>(row);
      entry.second++;
    }
    ASSERT_EQ(collector.RowCount(), kGroups);
    for (const auto &row : collector.rows()) {
      auto it = expected.find(row[0].GetString());
      ASSERT_NE(it, expected.end()) << "unexpected group "
                                    << row[0].GetString();
      EXPECT_EQ(row[1].GetInt64(), it->second.first);
      EXPECT_EQ(row[2].GetInt64(), it->second.second);
      const idx_t key = std::stoull(row[0].GetString().substr(10));
      EXPECT_EQ(row[3].GetString(), payload(key));
      expected.erase(it);
    }
    EXPECT_TRUE(expected.empty());

    const HashAggregateStats &s = stats.value();
    EXPECT_EQ(s.materialized_rows, kRows) << "phase 2 must see the repeats";
    EXPECT_GT(bm.Snapshot().temp_reads, 0u)
        << "phase 2 must reload spilled partitions";
    EXPECT_EQ(s.phase2_in_place_partitions, idx_t{1} << config.radix_bits);
    EXPECT_EQ(s.phase2_copied_rows, 0u);
  }
  EXPECT_EQ(bm.PinnedBufferCount(), 0u);
  EXPECT_EQ(bm.memory_used(), 0u);
}

TEST_F(Phase2InPlaceTest, DuplicateHeavyPartitionsThatDoNotFitAreCopied) {
  // Each of 40,000 keys appears 8 times, once per 40,000-row period: the
  // planner's 8,192-row sample sees only distinct keys and calls the data
  // unique, and the 1,024-entry phase-1 table collapses nothing. Each
  // partition's 160,000 rows take more than the 4 MiB limit while its
  // 20,000 groups fit: in place would pin the whole partition and fail, so
  // the memory rule sends every partition down the copy path.
  constexpr idx_t kGroups = 40000;
  constexpr idx_t kRows = 8 * kGroups;
  auto key_of = [](idx_t row) { return static_cast<int64_t>(row % kGroups); };
  auto source = MakeKeyedSource(kRows, key_of);
  BufferManager bm(temp_dir_, 16 * kPageSize);
  {
    TaskExecutor executor(1);
    MaterializedCollector collector;
    HashAggregateConfig config;
    config.strategy = AggregateStrategy::kRadixMerge;
    config.radix_bits = 1;
    config.phase1_capacity = 1024;
    config.planner_sample_rows = 8192;
    config.early_aggregation = EarlyAggMode::kOff;
    auto stats = RunGroupedAggregation(bm, source, {0}, kSumCount, collector,
                                       executor, config);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    CheckKeyedSums(collector, kRows, key_of);
    const HashAggregateStats &s = stats.value();
    EXPECT_GT(s.planner.estimated_groups, kRows / 2)
        << "the estimate must call the data unique";
    EXPECT_EQ(s.materialized_rows, kRows);
    auto row_layout = AggregateRowLayout::Build(
        {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, {0}, kSumCount);
    ASSERT_TRUE(row_layout.ok());
    const idx_t partition_bytes = (s.materialized_rows >> config.radix_bits) *
                                  row_layout.value().layout.RowWidth();
    EXPECT_GT(partition_bytes, bm.memory_limit())
        << "a partition must not fit in memory at all";
    EXPECT_EQ(s.phase2_in_place_partitions, 0u);
    EXPECT_EQ(s.phase2_copied_rows, kRows);
  }
  EXPECT_EQ(bm.PinnedBufferCount(), 0u);
  EXPECT_EQ(bm.memory_used(), 0u);
}

}  // namespace
}  // namespace ssagg
