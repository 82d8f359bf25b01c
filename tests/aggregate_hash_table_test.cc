#include "core/grouped_aggregate_hash_table.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/file_system.h"
#include "common/random.h"
#include "common/value.h"
#include "testing/fault_injector.h"

namespace ssagg {
namespace {

class AggregateHashTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_dir_ = ::testing::TempDir() + "ssagg_ht_test_" + std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  std::string temp_dir_;
};

// Input chunk: [int64 key, double value, varchar name]
std::vector<LogicalTypeId> InputTypes() {
  return {LogicalTypeId::kInt64, LogicalTypeId::kDouble,
          LogicalTypeId::kVarchar};
}

void FillInput(DataChunk &chunk, const std::vector<int64_t> &keys,
               const std::vector<double> &values) {
  for (idx_t i = 0; i < keys.size(); i++) {
    chunk.column(0).SetValue<int64_t>(i, keys[i]);
    chunk.column(1).SetValue<double>(i, values[i]);
    chunk.column(2).SetString(
        i, "name_" + std::to_string(keys[i]) + "_with_long_tail_suffix");
  }
  chunk.SetCount(keys.size());
}

GroupedAggregateHashTable::Config SmallConfig() {
  GroupedAggregateHashTable::Config config;
  config.capacity = 1024;
  config.radix_bits = 2;
  return config;
}

/// Key of one group in test result maps: nullopt is the NULL group.
using GroupKey = std::optional<int64_t>;

/// Scans all partitions and accumulates finalized (sum, count) per group
/// key, SUMMING across duplicate group rows (a reset materializes the same
/// group again, so per-key totals are the meaningful invariant). The table
/// must have been built with {kSum, 1} and {kCountStar} aggregates.
std::map<GroupKey, std::pair<double, int64_t>> ScanSumCount(
    GroupedAggregateHashTable &ht) {
  std::map<GroupKey, std::pair<double, int64_t>> results;
  DataChunk layout_chunk(ht.layout().Types());
  DataChunk out(ht.OutputTypes());
  std::vector<data_ptr_t> ptrs(kVectorSize);
  for (idx_t p = 0; p < ht.data().PartitionCount(); p++) {
    TupleDataScanState scan;
    ht.data().partition(p).InitScan(scan);
    while (true) {
      auto more = ht.data().partition(p).Scan(scan, layout_chunk, ptrs.data());
      EXPECT_TRUE(more.ok()) << more.status().ToString();
      if (!more.ok() || !more.value()) {
        break;
      }
      ht.FinalizeChunk(layout_chunk, ptrs.data(), out);
      for (idx_t i = 0; i < out.size(); i++) {
        GroupKey key;
        if (out.column(0).validity().RowIsValid(i)) {
          key = out.column(0).GetValue<int64_t>(i);
        }
        auto &slot = results[key];
        slot.first += out.column(1).GetValue<double>(i);
        slot.second += out.column(2).GetValue<int64_t>(i);
      }
    }
  }
  return results;
}

/// Finds two distinct int64 keys whose hashes agree on both the slot index
/// (under `mask`) and the 16-bit salt: a forced salt collision that the
/// probe can only resolve with a full key comparison.
std::pair<int64_t, int64_t> FindSaltCollidingKeys(idx_t mask) {
  std::unordered_map<uint64_t, int64_t> seen;
  for (int64_t k = 0;; k++) {
    uint64_t bits;
    std::memcpy(&bits, &k, sizeof(k));
    hash_t h = HashUint64(bits);
    uint64_t signature = (h & mask) | (static_cast<uint64_t>(ExtractSalt(h))
                                       << 32);
    auto [it, inserted] = seen.emplace(signature, k);
    if (!inserted) {
      return {it->second, k};
    }
  }
}

TEST_F(AggregateHashTableTest, BasicSumCount) {
  BufferManager bm(temp_dir_, 256 * kPageSize);
  auto ht_res = GroupedAggregateHashTable::Create(
      bm, InputTypes(), {0},
      {{AggregateKind::kSum, 1}, {AggregateKind::kCountStar, kInvalidIndex}},
      SmallConfig());
  ASSERT_TRUE(ht_res.ok()) << ht_res.status().ToString();
  auto ht = ht_res.MoveValue();

  DataChunk input(InputTypes());
  FillInput(input, {1, 2, 1, 3, 2, 1}, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  ASSERT_TRUE(ht->AddChunk(input).ok());
  EXPECT_EQ(ht->Count(), 3u);
  EXPECT_EQ(ht->data().Count(), 3u);

  // Gather results: scan the partitions, finalize.
  std::map<int64_t, std::pair<double, int64_t>> results;
  DataChunk layout_chunk(ht->layout().Types());
  DataChunk out(ht->OutputTypes());
  std::vector<data_ptr_t> ptrs(kVectorSize);
  for (idx_t p = 0; p < ht->data().PartitionCount(); p++) {
    TupleDataScanState scan;
    ht->data().partition(p).InitScan(scan);
    while (true) {
      auto more = ht->data().partition(p).Scan(scan, layout_chunk,
                                               ptrs.data());
      ASSERT_TRUE(more.ok());
      if (!more.value()) {
        break;
      }
      ht->FinalizeChunk(layout_chunk, ptrs.data(), out);
      for (idx_t i = 0; i < out.size(); i++) {
        results[out.column(0).GetValue<int64_t>(i)] = {
            out.column(1).GetValue<double>(i),
            out.column(2).GetValue<int64_t>(i)};
      }
    }
  }
  ASSERT_EQ(results.size(), 3u);
  EXPECT_DOUBLE_EQ(results[1].first, 10.0);
  EXPECT_EQ(results[1].second, 3);
  EXPECT_DOUBLE_EQ(results[2].first, 7.0);
  EXPECT_EQ(results[2].second, 2);
  EXPECT_DOUBLE_EQ(results[3].first, 4.0);
  EXPECT_EQ(results[3].second, 1);
}

TEST_F(AggregateHashTableTest, StickyAnyValueStrings) {
  BufferManager bm(temp_dir_, 256 * kPageSize);
  auto ht = GroupedAggregateHashTable::Create(
                bm, InputTypes(), {0}, {{AggregateKind::kAnyValue, 2}},
                SmallConfig())
                .MoveValue();
  DataChunk input(InputTypes());
  FillInput(input, {7, 7, 8}, {0, 0, 0});
  ASSERT_TRUE(ht->AddChunk(input).ok());
  EXPECT_EQ(ht->Count(), 2u);
  // ANY_VALUE is a layout column: appended rows carry the string payload.
  EXPECT_EQ(ht->layout().ColumnCount(), 3u);  // key, hash, name

  DataChunk layout_chunk(ht->layout().Types());
  DataChunk out(ht->OutputTypes());
  std::vector<data_ptr_t> ptrs(kVectorSize);
  std::map<int64_t, std::string> names;
  for (idx_t p = 0; p < ht->data().PartitionCount(); p++) {
    TupleDataScanState scan;
    ht->data().partition(p).InitScan(scan);
    while (true) {
      auto more =
          ht->data().partition(p).Scan(scan, layout_chunk, ptrs.data());
      ASSERT_TRUE(more.ok());
      if (!more.value()) {
        break;
      }
      ht->FinalizeChunk(layout_chunk, ptrs.data(), out);
      for (idx_t i = 0; i < out.size(); i++) {
        names[out.column(0).GetValue<int64_t>(i)] =
            out.column(1).GetString(i).ToString();
      }
    }
  }
  EXPECT_EQ(names[7], "name_7_with_long_tail_suffix");
  EXPECT_EQ(names[8], "name_8_with_long_tail_suffix");
}

TEST_F(AggregateHashTableTest, GroupByStringKeys) {
  BufferManager bm(temp_dir_, 256 * kPageSize);
  auto ht = GroupedAggregateHashTable::Create(
                bm, InputTypes(), {2},
                {{AggregateKind::kCountStar, kInvalidIndex}}, SmallConfig())
                .MoveValue();
  DataChunk input(InputTypes());
  // Keys 10,11,10 produce names name_10..., name_11..., name_10...
  FillInput(input, {10, 11, 10}, {0, 0, 0});
  ASSERT_TRUE(ht->AddChunk(input).ok());
  EXPECT_EQ(ht->Count(), 2u);
}

TEST_F(AggregateHashTableTest, NullGroupsFormOneGroup) {
  BufferManager bm(temp_dir_, 256 * kPageSize);
  auto ht = GroupedAggregateHashTable::Create(
                bm, InputTypes(), {0},
                {{AggregateKind::kCountStar, kInvalidIndex}}, SmallConfig())
                .MoveValue();
  DataChunk input(InputTypes());
  FillInput(input, {1, 2, 3, 4}, {0, 0, 0, 0});
  input.column(0).validity().SetInvalid(1);
  input.column(0).validity().SetInvalid(3);
  ASSERT_TRUE(ht->AddChunk(input).ok());
  EXPECT_EQ(ht->Count(), 3u);  // {1}, {3}, {NULL}
}

TEST_F(AggregateHashTableTest, SumSkipsNullInputs) {
  BufferManager bm(temp_dir_, 256 * kPageSize);
  auto ht = GroupedAggregateHashTable::Create(
                bm, InputTypes(), {0}, {{AggregateKind::kSum, 1}},
                SmallConfig())
                .MoveValue();
  DataChunk input(InputTypes());
  FillInput(input, {1, 1, 1}, {5.0, 7.0, 100.0});
  input.column(1).validity().SetInvalid(2);
  ASSERT_TRUE(ht->AddChunk(input).ok());
  DataChunk layout_chunk(ht->layout().Types());
  DataChunk out(ht->OutputTypes());
  std::vector<data_ptr_t> ptrs(kVectorSize);
  for (idx_t p = 0; p < ht->data().PartitionCount(); p++) {
    TupleDataScanState scan;
    ht->data().partition(p).InitScan(scan);
    while (true) {
      auto more =
          ht->data().partition(p).Scan(scan, layout_chunk, ptrs.data());
      ASSERT_TRUE(more.ok());
      if (!more.value()) {
        break;
      }
      ht->FinalizeChunk(layout_chunk, ptrs.data(), out);
      ASSERT_EQ(out.size(), 1u);
      EXPECT_DOUBLE_EQ(out.column(1).GetValue<double>(0), 12.0);
    }
  }
}

TEST_F(AggregateHashTableTest, ResetKeepsTuplesAndDedupsPerRun) {
  BufferManager bm(temp_dir_, 256 * kPageSize);
  auto config = SmallConfig();
  config.capacity = 256;
  auto ht = GroupedAggregateHashTable::Create(
                bm, InputTypes(), {0},
                {{AggregateKind::kCountStar, kInvalidIndex}}, config)
                .MoveValue();
  DataChunk input(InputTypes());
  // Insert the same 100 keys, reset, insert again: the same group is
  // materialized twice (the paper's duplicate-groups effect), but the
  // pointer table only sees the current run.
  std::vector<int64_t> keys(100);
  std::vector<double> vals(100, 0.0);
  for (int i = 0; i < 100; i++) {
    keys[i] = i;
  }
  FillInput(input, keys, vals);
  ASSERT_TRUE(ht->AddChunk(input).ok());
  EXPECT_EQ(ht->Count(), 100u);
  ht->ClearPointerTable();
  EXPECT_EQ(ht->Count(), 0u);
  EXPECT_EQ(ht->data().Count(), 100u);  // tuples stay in place
  ASSERT_TRUE(ht->AddChunk(input).ok());
  EXPECT_EQ(ht->Count(), 100u);
  EXPECT_EQ(ht->data().Count(), 200u);  // duplicated groups across runs
  EXPECT_EQ(ht->stats().resets, 1u);
}

TEST_F(AggregateHashTableTest, NeedsResetAtTwoThirds) {
  BufferManager bm(temp_dir_, 256 * kPageSize);
  auto config = SmallConfig();
  config.capacity = 256;
  auto ht = GroupedAggregateHashTable::Create(
                bm, InputTypes(), {0},
                {{AggregateKind::kCountStar, kInvalidIndex}}, config)
                .MoveValue();
  DataChunk input(InputTypes());
  std::vector<int64_t> keys;
  std::vector<double> vals;
  for (int i = 0; i < 180; i++) {
    keys.push_back(i);
    vals.push_back(0);
  }
  FillInput(input, keys, vals);
  ASSERT_TRUE(ht->AddChunk(input).ok());
  // The reset threshold (256 * 2/3 ~ 170) was crossed inside the chunk, so
  // the table reset itself mid-chunk; all 180 groups were still
  // materialized exactly once.
  EXPECT_EQ(ht->stats().resets, 1u);
  EXPECT_EQ(ht->Count(), 10u);
  EXPECT_EQ(ht->data().Count(), 180u);
  // Below the threshold it must not trigger.
  auto ht2 = GroupedAggregateHashTable::Create(
                 bm, InputTypes(), {0},
                 {{AggregateKind::kCountStar, kInvalidIndex}}, config)
                 .MoveValue();
  keys.resize(100);
  vals.resize(100);
  FillInput(input, keys, vals);
  ASSERT_TRUE(ht2->AddChunk(input).ok());
  EXPECT_FALSE(ht2->NeedsReset());
}

TEST_F(AggregateHashTableTest, ResizableTableGrows) {
  BufferManager bm(temp_dir_, 256 * kPageSize);
  auto config = SmallConfig();
  config.capacity = 64;
  config.resizable = true;
  auto ht = GroupedAggregateHashTable::Create(
                bm, InputTypes(), {0},
                {{AggregateKind::kCountStar, kInvalidIndex}}, config)
                .MoveValue();
  DataChunk input(InputTypes());
  constexpr idx_t kGroups = 2000;
  for (idx_t start = 0; start < kGroups; start += kVectorSize) {
    idx_t n = std::min(kVectorSize, kGroups - start);
    std::vector<int64_t> keys(n);
    std::vector<double> vals(n, 0);
    for (idx_t i = 0; i < n; i++) {
      keys[i] = static_cast<int64_t>(start + i);
    }
    FillInput(input, keys, vals);
    ASSERT_TRUE(ht->AddChunk(input).ok());
  }
  EXPECT_EQ(ht->Count(), kGroups);
  EXPECT_GT(ht->stats().resizes, 3u);
  EXPECT_GE(ht->Capacity(), kGroups);
  // After growth, lookups still find the same groups (no duplicates).
  EXPECT_EQ(ht->data().Count(), kGroups);
}

TEST_F(AggregateHashTableTest, SaltAvoidsKeyComparisons) {
  BufferManager bm(temp_dir_, 512 * kPageSize);
  // Fill a third of a table's slots (about 1,400 groups in 4,096): probes
  // run over occupied slots of other groups, and the salt must skip almost
  // all of them without a key comparison. A 16-bit salt passes a foreign
  // slot with probability 2^-16, so a miss rate of 1 per 1,000 probe steps
  // is ~65x the expected one, while following every pointer would miss on
  // every collision step.
  auto config = SmallConfig();
  config.capacity = 4096;
  auto ht = GroupedAggregateHashTable::Create(
                bm, InputTypes(), {0},
                {{AggregateKind::kCountStar, kInvalidIndex}}, config)
                .MoveValue();
  DataChunk input(InputTypes());
  RandomEngine rng(7);
  constexpr idx_t kRows = 8 * 256;
  for (int c = 0; c < 8; c++) {
    std::vector<int64_t> keys(256);
    std::vector<double> vals(256, 0);
    for (auto &k : keys) {
      k = static_cast<int64_t>(rng.NextRange(2500));
    }
    FillInput(input, keys, vals);
    ASSERT_TRUE(ht->AddChunk(input).ok());
  }
  const auto &stats = ht->stats();
  // Collisions happened: some rows stepped past a slot of another group.
  EXPECT_GT(stats.probe_steps, kRows + stats.key_compare_misses);
  EXPECT_LT(stats.key_compare_misses * 1000, stats.probe_steps);
}

TEST_F(AggregateHashTableTest, CombineSourceChunkMergesStates) {
  BufferManager bm(temp_dir_, 512 * kPageSize);
  auto make_ht = [&](bool resizable) {
    auto config = SmallConfig();
    config.capacity = 1024;
    config.resizable = resizable;
    return GroupedAggregateHashTable::Create(
               bm, InputTypes(), {0},
               {{AggregateKind::kSum, 1},
                {AggregateKind::kCountStar, kInvalidIndex}},
               config)
        .MoveValue();
  };
  auto src1 = make_ht(false);
  auto src2 = make_ht(false);
  DataChunk input(InputTypes());
  FillInput(input, {1, 2, 3}, {1.0, 2.0, 3.0});
  ASSERT_TRUE(src1->AddChunk(input).ok());
  FillInput(input, {2, 3, 4}, {20.0, 30.0, 40.0});
  ASSERT_TRUE(src2->AddChunk(input).ok());

  // Phase 2: merge both sources into a target, per partition.
  auto target = make_ht(true);
  DataChunk layout_chunk(src1->layout().Types());
  std::vector<data_ptr_t> ptrs(kVectorSize);
  for (auto *src : {src1.get(), src2.get()}) {
    for (idx_t p = 0; p < src->data().PartitionCount(); p++) {
      TupleDataScanState scan;
      src->data().partition(p).InitScan(scan);
      while (true) {
        auto more =
            src->data().partition(p).Scan(scan, layout_chunk, ptrs.data());
        ASSERT_TRUE(more.ok());
        if (!more.value()) {
          break;
        }
        ASSERT_TRUE(
            target->CombineSourceChunk(layout_chunk, ptrs.data()).ok());
      }
    }
  }
  EXPECT_EQ(target->Count(), 4u);

  std::map<int64_t, std::pair<double, int64_t>> results;
  DataChunk out(target->OutputTypes());
  for (idx_t p = 0; p < target->data().PartitionCount(); p++) {
    TupleDataScanState scan;
    target->data().partition(p).InitScan(scan);
    while (true) {
      auto more =
          target->data().partition(p).Scan(scan, layout_chunk, ptrs.data());
      ASSERT_TRUE(more.ok());
      if (!more.value()) {
        break;
      }
      target->FinalizeChunk(layout_chunk, ptrs.data(), out);
      for (idx_t i = 0; i < out.size(); i++) {
        results[out.column(0).GetValue<int64_t>(i)] = {
            out.column(1).GetValue<double>(i),
            out.column(2).GetValue<int64_t>(i)};
      }
    }
  }
  ASSERT_EQ(results.size(), 4u);
  EXPECT_DOUBLE_EQ(results[1].first, 1.0);
  EXPECT_DOUBLE_EQ(results[2].first, 22.0);
  EXPECT_DOUBLE_EQ(results[3].first, 33.0);
  EXPECT_DOUBLE_EQ(results[4].first, 40.0);
  EXPECT_EQ(results[2].second, 2);
}

TEST_F(AggregateHashTableTest, LargeRandomAggregationMatchesReference) {
  BufferManager bm(temp_dir_, 1024 * kPageSize);
  auto config = SmallConfig();
  config.capacity = 4096;
  config.radix_bits = 3;
  auto ht = GroupedAggregateHashTable::Create(
                bm, InputTypes(), {0},
                {{AggregateKind::kSum, 1},
                 {AggregateKind::kMin, 1},
                 {AggregateKind::kMax, 1},
                 {AggregateKind::kCountStar, kInvalidIndex}},
                config)
                .MoveValue();
  RandomEngine rng(123);
  std::map<int64_t, std::tuple<double, double, double, int64_t>> reference;
  DataChunk input(InputTypes());
  constexpr int kChunks = 20;
  for (int c = 0; c < kChunks; c++) {
    std::vector<int64_t> keys(kVectorSize);
    std::vector<double> vals(kVectorSize);
    for (idx_t i = 0; i < kVectorSize; i++) {
      keys[i] = static_cast<int64_t>(rng.NextRange(500));
      vals[i] = static_cast<double>(rng.NextRange(1000));
      auto it = reference.find(keys[i]);
      if (it == reference.end()) {
        reference[keys[i]] = {vals[i], vals[i], vals[i], 1};
      } else {
        std::get<0>(it->second) += vals[i];
        std::get<1>(it->second) = std::min(std::get<1>(it->second), vals[i]);
        std::get<2>(it->second) = std::max(std::get<2>(it->second), vals[i]);
        std::get<3>(it->second)++;
      }
    }
    FillInput(input, keys, vals);
    ASSERT_TRUE(ht->AddChunk(input).ok());
    // No reset: capacity comfortably holds 500 groups.
  }
  EXPECT_EQ(ht->Count(), reference.size());

  DataChunk layout_chunk(ht->layout().Types());
  DataChunk out(ht->OutputTypes());
  std::vector<data_ptr_t> ptrs(kVectorSize);
  idx_t seen = 0;
  for (idx_t p = 0; p < ht->data().PartitionCount(); p++) {
    TupleDataScanState scan;
    ht->data().partition(p).InitScan(scan);
    while (true) {
      auto more =
          ht->data().partition(p).Scan(scan, layout_chunk, ptrs.data());
      ASSERT_TRUE(more.ok());
      if (!more.value()) {
        break;
      }
      ht->FinalizeChunk(layout_chunk, ptrs.data(), out);
      for (idx_t i = 0; i < out.size(); i++) {
        int64_t key = out.column(0).GetValue<int64_t>(i);
        auto &ref = reference.at(key);
        EXPECT_DOUBLE_EQ(out.column(1).GetValue<double>(i), std::get<0>(ref));
        EXPECT_DOUBLE_EQ(out.column(2).GetValue<double>(i), std::get<1>(ref));
        EXPECT_DOUBLE_EQ(out.column(3).GetValue<double>(i), std::get<2>(ref));
        EXPECT_EQ(out.column(4).GetValue<int64_t>(i), std::get<3>(ref));
        seen++;
      }
    }
  }
  EXPECT_EQ(seen, reference.size());
}

// --- Vectorized-probe edge cases ---------------------------------------

// Duplicate brand-new keys within ONE chunk must collapse to one group:
// the claim-then-backfill insert routes the second occurrence of a key
// through the compare pass of the same round.
TEST_F(AggregateHashTableTest, DuplicateNewKeysWithinOneChunk) {
  BufferManager bm(temp_dir_, 256 * kPageSize);
  auto ht = GroupedAggregateHashTable::Create(
                bm, InputTypes(), {0},
                {{AggregateKind::kSum, 1},
                 {AggregateKind::kCountStar, kInvalidIndex}},
                SmallConfig())
                .MoveValue();
  DataChunk input(InputTypes());
  std::vector<int64_t> keys(kVectorSize);
  std::vector<double> vals(kVectorSize);
  for (idx_t i = 0; i < kVectorSize; i++) {
    keys[i] = static_cast<int64_t>(i % 4);  // 4 new keys, each repeated 512x
    vals[i] = 1.0;
  }
  FillInput(input, keys, vals);
  ASSERT_TRUE(ht->AddChunk(input).ok());
  EXPECT_EQ(ht->Count(), 4u);
  EXPECT_EQ(ht->data().Count(), 4u);  // no duplicate materialization
  auto results = ScanSumCount(*ht);
  ASSERT_EQ(results.size(), 4u);
  for (auto &[key, sum_count] : results) {
    EXPECT_DOUBLE_EQ(sum_count.first, 512.0);
    EXPECT_EQ(sum_count.second, 512);
  }
}

// Two different keys with identical slot index AND identical salt: the
// salt check cannot tell them apart, so only the full key comparison
// (hash-prefix pass first) keeps them in separate groups.
TEST_F(AggregateHashTableTest, SaltCollisionWithDifferingKeys) {
  BufferManager bm(temp_dir_, 256 * kPageSize);
  auto config = SmallConfig();
  auto [k1, k2] = FindSaltCollidingKeys(config.capacity - 1);
  ASSERT_NE(k1, k2);
  auto ht = GroupedAggregateHashTable::Create(
                bm, InputTypes(), {0},
                {{AggregateKind::kSum, 1},
                 {AggregateKind::kCountStar, kInvalidIndex}},
                config)
                .MoveValue();
  DataChunk input(InputTypes());
  // Interleaved occurrences of both keys in one chunk: k1 inserts, k2
  // salt-matches k1's entry, fails the key compare, advances, inserts.
  FillInput(input, {k1, k2, k1, k2, k2, k1}, {1, 10, 2, 20, 30, 3});
  ASSERT_TRUE(ht->AddChunk(input).ok());
  EXPECT_EQ(ht->Count(), 2u);
  EXPECT_GE(ht->stats().key_compare_misses, 1u);
  auto results = ScanSumCount(*ht);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(results[k1].first, 6.0);
  EXPECT_EQ(results[k1].second, 3);
  EXPECT_DOUBLE_EQ(results[k2].first, 60.0);
  EXPECT_EQ(results[k2].second, 3);
}

// NULL group keys inside a batch with duplicates: all NULLs are one group,
// and NULL never matches a non-NULL key even on a hash collision.
TEST_F(AggregateHashTableTest, NullGroupKeysInVectorizedBatch) {
  BufferManager bm(temp_dir_, 256 * kPageSize);
  auto ht = GroupedAggregateHashTable::Create(
                bm, InputTypes(), {0},
                {{AggregateKind::kSum, 1},
                 {AggregateKind::kCountStar, kInvalidIndex}},
                SmallConfig())
                .MoveValue();
  DataChunk input(InputTypes());
  std::vector<int64_t> keys(kVectorSize);
  std::vector<double> vals(kVectorSize);
  for (idx_t i = 0; i < kVectorSize; i++) {
    keys[i] = static_cast<int64_t>(i % 8);
    vals[i] = 1.0;
  }
  FillInput(input, keys, vals);
  std::map<GroupKey, std::pair<double, int64_t>> reference;
  for (idx_t i = 0; i < kVectorSize; i++) {
    GroupKey key;
    if (i % 5 == 0) {
      input.column(0).validity().SetInvalid(i);  // every 5th row is NULL
    } else {
      key = keys[i];
    }
    auto &slot = reference[key];
    slot.first += vals[i];
    slot.second++;
  }
  ASSERT_TRUE(ht->AddChunk(input).ok());
  EXPECT_EQ(ht->Count(), 9u);  // 8 int keys + the NULL group
  EXPECT_EQ(ScanSumCount(*ht), reference);
}

// A fixed-size phase-1 table resets its pointer table MID-chunk once the
// reset budget is exhausted; rows after the reset re-materialize already
// seen groups, but per-key totals must still be exact.
TEST_F(AggregateHashTableTest, MidChunkPointerTableResetWithDuplicates) {
  BufferManager bm(temp_dir_, 256 * kPageSize);
  auto config = SmallConfig();
  config.capacity = 256;  // reset threshold ~170 < 300 distinct keys
  auto ht = GroupedAggregateHashTable::Create(
                bm, InputTypes(), {0},
                {{AggregateKind::kSum, 1},
                 {AggregateKind::kCountStar, kInvalidIndex}},
                config)
                .MoveValue();
  DataChunk input(InputTypes());
  std::vector<int64_t> keys(kVectorSize);
  std::vector<double> vals(kVectorSize);
  std::map<GroupKey, std::pair<double, int64_t>> reference;
  for (idx_t i = 0; i < kVectorSize; i++) {
    keys[i] = static_cast<int64_t>(i % 300);
    vals[i] = static_cast<double>(i);
    auto &slot = reference[keys[i]];
    slot.first += vals[i];
    slot.second++;
  }
  FillInput(input, keys, vals);
  ASSERT_TRUE(ht->AddChunk(input).ok());
  EXPECT_GE(ht->stats().resets, 1u);
  EXPECT_GT(ht->data().Count(), 300u);  // duplicated groups across the reset
  EXPECT_EQ(ScanSumCount(*ht), reference);
}

// Presize rebuilds the entry array at the new capacity with every group it
// held: the same keys are found again, not materialized a second time, and
// the rebuild is not counted as a resize. A denied allocation leaves the
// table as it was.
TEST_F(AggregateHashTableTest, PresizeRehomesGroupsWithoutAResize) {
  FaultInjector injector({.fail_at = 0, .site_mask = kFaultMemorySites});
  BufferManager bm(temp_dir_, 256 * kPageSize);
  bm.SetFaultInjector(&injector);
  auto config = SmallConfig();
  config.capacity = 256;
  auto ht = GroupedAggregateHashTable::Create(
                bm, InputTypes(), {0},
                {{AggregateKind::kSum, 1},
                 {AggregateKind::kCountStar, kInvalidIndex}},
                config)
                .MoveValue();
  std::vector<int64_t> keys(kVectorSize);
  std::vector<double> vals(kVectorSize);
  std::map<GroupKey, std::pair<double, int64_t>> reference;
  for (idx_t i = 0; i < kVectorSize; i++) {
    keys[i] = static_cast<int64_t>(i % 100);
    vals[i] = static_cast<double>(i);
    auto &slot = reference[keys[i]];
    slot.first += 2 * vals[i];  // the chunk goes in twice
    slot.second += 2;
  }
  DataChunk input(InputTypes());
  FillInput(input, keys, vals);
  ASSERT_TRUE(ht->AddChunk(input).ok());
  injector.Reset({.fail_at = 1, .site_mask = kFaultMemorySites});
  auto denied = ht->Presize(4096, 0, 0);
  EXPECT_EQ(denied.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(ht->Capacity(), 256u);
  EXPECT_EQ(ht->Count(), 100u);
  injector.Reset({.fail_at = 0, .site_mask = kFaultMemorySites});
  ASSERT_TRUE(ht->Presize(4096, 0, 0).ok());
  EXPECT_EQ(ht->Capacity(), 4096u);
  EXPECT_EQ(ht->Count(), 100u);
  ASSERT_TRUE(ht->AddChunk(input).ok());
  EXPECT_EQ(ht->Count(), 100u);
  EXPECT_EQ(ht->stats().inserts, 100u);
  EXPECT_EQ(ht->data().Count(), 100u);
  EXPECT_EQ(ht->stats().resizes, 0u);
  EXPECT_EQ(ht->stats().resets, 0u);
  EXPECT_EQ(ScanSumCount(*ht), reference);
}

// A central table (presized, direct index armed) that resets in the middle
// of a chunk must drop its pointer cache there: a cache backfilled with the
// rows resolved before the reset would point into pages whose pins the
// reset released, and a tight pool evicts those pages. The cache serves
// rows before the reset, and the sums stay exact at every limit.
TEST_F(AggregateHashTableTest, DirectIndexDroppedAtMidChunkReset) {
  constexpr idx_t kCachedKeys = 64;  // the cache's window: keys [0, 64)
  for (idx_t pages : {idx_t{1024}, idx_t{8}}) {
    SCOPED_TRACE("pages=" + std::to_string(pages));
    BufferManager bm(temp_dir_, pages * kPageSize);
    auto config = SmallConfig();
    config.radix_bits = 0;  // one partition, so its first page fills
    // Wide rows with out-of-line payloads: a page holds fewer rows than the
    // table takes before its reset.
    auto ht = GroupedAggregateHashTable::Create(
                  bm, InputTypes(), {0},
                  {{AggregateKind::kSum, 1},
                   {AggregateKind::kCountStar, kInvalidIndex},
                   {AggregateKind::kAnyValue, 2},
                   {AggregateKind::kMin, 1},
                   {AggregateKind::kMax, 1}},
                  config)
                  .MoveValue();
    ASSERT_TRUE(ht->Presize(8192, 0, kCachedKeys).ok());  // resets at 5461

    std::map<GroupKey, std::pair<double, int64_t>> reference;
    DataChunk input(InputTypes());
    int64_t next_new_key = 1000;
    // One chunk: `cached` rows of keys in the window, then new groups.
    auto feed = [&](idx_t cached) {
      std::vector<int64_t> keys(kVectorSize);
      std::vector<double> vals(kVectorSize);
      for (idx_t i = 0; i < kVectorSize; i++) {
        keys[i] = i < cached ? static_cast<int64_t>(i % kCachedKeys)
                             : next_new_key++;
        vals[i] = static_cast<double>(i % 7);
        auto &slot = reference[keys[i]];
        slot.first += vals[i];
        slot.second++;
      }
      FillInput(input, keys, vals);
      return ht->AddChunk(input);
    };
    // The first chunk fills the cache, the second is served from it.
    ASSERT_TRUE(feed(kVectorSize).ok());
    ASSERT_TRUE(feed(kVectorSize).ok());
    EXPECT_EQ(ht->stats().direct_hit_rows, kVectorSize);
    // 64 + 4,096 groups, then the cached keys lead a chunk whose new groups
    // reach the reset threshold after they were resolved.
    ASSERT_TRUE(feed(0).ok());
    ASSERT_TRUE(feed(0).ok());
    EXPECT_EQ(ht->stats().resets, 0u);
    ASSERT_TRUE(feed(kCachedKeys).ok());
    EXPECT_EQ(ht->stats().resets, 1u);
    // New groups only, so that a tight pool evicts what the reset unpinned;
    // then the cached keys again, which must not reach those rows.
    for (int c = 0; c < 6; c++) {
      ASSERT_TRUE(feed(0).ok());
    }
    for (int c = 0; c < 4; c++) {
      ASSERT_TRUE(feed(kVectorSize).ok());
    }
    EXPECT_EQ(ht->stats().direct_hit_rows, kVectorSize);
    if (pages < 64) {
      EXPECT_GT(bm.temp_files().UsedSlots(), 0u) << "nothing was evicted";
    }
    EXPECT_EQ(ScanSumCount(*ht), reference);
  }
}

// The probe pipeline must match a std::map reference over randomized chunks
// — including NULL keys, mid-stream resets (non-resizable) and resizes
// (resizable).
TEST_F(AggregateHashTableTest, ProbeMatchesReferenceRandomized) {
  for (bool resizable : {false, true}) {
    BufferManager bm(temp_dir_, 1024 * kPageSize);
    auto config = SmallConfig();
    config.capacity = resizable ? 64 : 256;
    config.resizable = resizable;
    auto ht = GroupedAggregateHashTable::Create(
                  bm, InputTypes(), {0},
                  {{AggregateKind::kSum, 1},
                   {AggregateKind::kCountStar, kInvalidIndex}},
                  config)
                  .MoveValue();
    RandomEngine rng(99);
    std::map<GroupKey, std::pair<double, int64_t>> reference;
    DataChunk input(InputTypes());
    for (int c = 0; c < 12; c++) {
      std::vector<int64_t> keys(kVectorSize);
      std::vector<double> vals(kVectorSize);
      for (idx_t i = 0; i < kVectorSize; i++) {
        keys[i] = static_cast<int64_t>(rng.NextRange(400));
        vals[i] = static_cast<double>(rng.NextRange(1000));
      }
      input.Reset();  // clear the previous iteration's NULL marks
      FillInput(input, keys, vals);
      for (idx_t i = 0; i < kVectorSize; i++) {
        if (rng.NextRange(16) == 0) {
          input.column(0).validity().SetInvalid(i);
        }
      }
      for (idx_t i = 0; i < kVectorSize; i++) {
        const bool valid = input.column(0).validity().RowIsValid(i);
        auto &slot = reference[valid ? GroupKey{keys[i]} : GroupKey{}];
        slot.first += vals[i];
        slot.second++;
      }
      ASSERT_TRUE(ht->AddChunk(input).ok());
      if (!resizable && ht->NeedsReset()) {
        ht->ClearPointerTable();
      }
    }
    EXPECT_GT(ht->stats().probe_rounds, 0u);
    if (resizable) {
      EXPECT_GT(ht->stats().resizes, 0u);
    } else {
      EXPECT_GT(ht->stats().resets, 0u);
    }
    EXPECT_EQ(ScanSumCount(*ht), reference);
  }
}

// The phase-2 path: merging materialized source rows via CombineSourceChunk
// must give the sources' own per-key totals.
TEST_F(AggregateHashTableTest, CombineSourceChunkMatchesPhase1Totals) {
  BufferManager bm(temp_dir_, 1024 * kPageSize);
  auto make_source = [&]() {
    auto config = SmallConfig();
    config.capacity = 256;
    return GroupedAggregateHashTable::Create(
               bm, InputTypes(), {0},
               {{AggregateKind::kSum, 1},
                {AggregateKind::kCountStar, kInvalidIndex}},
               config)
        .MoveValue();
  };
  // Sources with overlapping keys and forced resets (duplicated groups in
  // the materialized data, the phase-2 input shape).
  auto src1 = make_source();
  auto src2 = make_source();
  RandomEngine rng(1234);
  DataChunk input(InputTypes());
  for (int c = 0; c < 4; c++) {
    std::vector<int64_t> keys(kVectorSize);
    std::vector<double> vals(kVectorSize);
    for (idx_t i = 0; i < kVectorSize; i++) {
      keys[i] = static_cast<int64_t>(rng.NextRange(500));
      vals[i] = static_cast<double>(rng.NextRange(100));
    }
    FillInput(input, keys, vals);
    auto &src = (c % 2 == 0) ? src1 : src2;
    ASSERT_TRUE(src->AddChunk(input).ok());
    if (src->NeedsReset()) {
      src->ClearPointerTable();
    }
  }
  auto config = SmallConfig();
  config.capacity = 64;
  config.resizable = true;
  auto target = GroupedAggregateHashTable::Create(
                    bm, InputTypes(), {0},
                    {{AggregateKind::kSum, 1},
                     {AggregateKind::kCountStar, kInvalidIndex}},
                    config)
                    .MoveValue();
  DataChunk layout_chunk(src1->layout().Types());
  std::vector<data_ptr_t> ptrs(kVectorSize);
  for (auto *src : {src1.get(), src2.get()}) {
    for (idx_t p = 0; p < src->data().PartitionCount(); p++) {
      TupleDataScanState scan;
      src->data().partition(p).InitScan(scan);
      while (true) {
        auto more =
            src->data().partition(p).Scan(scan, layout_chunk, ptrs.data());
        ASSERT_TRUE(more.ok());
        if (!more.value()) {
          break;
        }
        ASSERT_TRUE(
            target->CombineSourceChunk(layout_chunk, ptrs.data()).ok());
      }
    }
  }
  // The direct phase-1 totals, summed across both sources.
  auto direct = ScanSumCount(*src1);
  for (auto &[key, sum_count] : ScanSumCount(*src2)) {
    auto &slot = direct[key];
    slot.first += sum_count.first;
    slot.second += sum_count.second;
  }
  EXPECT_EQ(target->Count(), direct.size());
  EXPECT_EQ(ScanSumCount(*target), direct);
}

// The probe under denied allocations: every k-th memory denial must surface
// as a clean kOutOfMemory with nothing pinned or charged, and a fault-free
// rerun must still match the unpressured reference exactly.
TEST_F(AggregateHashTableTest, ProbeUnderAllocationPressureFailsCleanly) {
  constexpr int kChunks = 6;
  constexpr idx_t kKeyRange = 300;
  // One deterministic input stream, reused for every run.
  std::vector<std::vector<int64_t>> all_keys(kChunks);
  std::vector<std::vector<double>> all_vals(kChunks);
  std::map<GroupKey, std::pair<double, int64_t>> reference;
  RandomEngine rng(0xA110C);
  for (int c = 0; c < kChunks; c++) {
    all_keys[c].resize(kVectorSize);
    all_vals[c].resize(kVectorSize);
    for (idx_t i = 0; i < kVectorSize; i++) {
      all_keys[c][i] = static_cast<int64_t>(rng.NextRange(kKeyRange));
      all_vals[c][i] = static_cast<double>(rng.NextRange(1000));
      auto &slot = reference[GroupKey{all_keys[c][i]}];
      slot.first += all_vals[c][i];
      slot.second++;
    }
  }

  // Runs the whole aggregation; returns the first error or fills `out` on
  // success. Checks the buffer pool unwound either way.
  auto run = [&](FaultInjector *injector,
                 std::map<GroupKey, std::pair<double, int64_t>> *out) {
    Status status = Status::OK();
    BufferManager bm(temp_dir_, 1024 * kPageSize);
    if (injector != nullptr) {
      bm.SetFaultInjector(injector);
    }
    {
      auto config = SmallConfig();
      config.capacity = 64;
      config.resizable = true;
      auto ht_res = GroupedAggregateHashTable::Create(
          bm, InputTypes(), {0},
          {{AggregateKind::kSum, 1},
           {AggregateKind::kCountStar, kInvalidIndex}},
          config);
      if (!ht_res.ok()) {
        status = ht_res.status();
      } else {
        auto ht = std::move(ht_res).MoveValue();
        DataChunk input(InputTypes());
        for (int c = 0; c < kChunks && status.ok(); c++) {
          input.Reset();
          FillInput(input, all_keys[c], all_vals[c]);
          status = ht->AddChunk(input);
        }
        if (status.ok() && out != nullptr) {
          *out = ScanSumCount(*ht);
        }
      }
    }
    EXPECT_EQ(bm.PinnedBufferCount(), 0u);
    EXPECT_EQ(bm.memory_used(), 0u);
    return status;
  };

  // Learning run: armed but never firing, to count memory operations.
  FaultInjector injector({.fail_at = 0, .site_mask = kFaultMemorySites});
  std::map<GroupKey, std::pair<double, int64_t>> healthy;
  ASSERT_TRUE(run(&injector, &healthy).ok());
  EXPECT_EQ(healthy, reference);
  // Recount without the result scan: the sweep runs below skip it, so
  // fail_at must index the build-only operation sequence.
  injector.Reset({.fail_at = 0, .site_mask = kFaultMemorySites});
  ASSERT_TRUE(run(&injector, nullptr).ok());
  const idx_t total_ops = injector.ops_seen();
  ASSERT_GT(total_ops, 0u);

  // Deny the k-th memory operation across the range.
  const idx_t stride = std::max<idx_t>(1, total_ops / 48);
  for (idx_t k = 1; k <= total_ops; k += stride) {
    injector.Reset({.fail_at = k, .site_mask = kFaultMemorySites});
    auto status = run(&injector, nullptr);
    ASSERT_EQ(injector.faults_injected(), 1u) << "fail_at=" << k;
    ASSERT_FALSE(status.ok()) << "fail_at=" << k;
    EXPECT_EQ(status.code(), StatusCode::kOutOfMemory) << "fail_at=" << k;
  }

  // Disarmed rerun through the same injector: back to exact results.
  injector.Reset({.fail_at = 0, .site_mask = kFaultMemorySites});
  std::map<GroupKey, std::pair<double, int64_t>> recovered;
  ASSERT_TRUE(run(&injector, &recovered).ok());
  EXPECT_EQ(recovered, reference);
}

/// One group as phase 2 emits it: the finalized output row and the raw
/// bytes of the group row's aggregate states.
struct EmittedGroup {
  std::vector<Value> output;
  std::string states;
  bool operator==(const EmittedGroup &) const = default;
};

/// Drains `scan` over `rows`, whose groups `ht` built, in emission order.
std::vector<EmittedGroup> DrainGroups(GroupedAggregateHashTable &ht,
                                      TupleDataCollection &rows,
                                      TupleDataScanState &scan) {
  DataChunk layout_chunk(ht.layout().Types());
  DataChunk out(ht.OutputTypes());
  std::vector<data_ptr_t> ptrs(kVectorSize);
  const idx_t aggr_offset = ht.layout().AggregateOffset();
  std::vector<EmittedGroup> groups;
  while (true) {
    auto more = rows.Scan(scan, layout_chunk, ptrs.data());
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) {
      break;
    }
    ht.FinalizeChunk(layout_chunk, ptrs.data(), out);
    for (idx_t i = 0; i < out.size(); i++) {
      EmittedGroup group;
      for (idx_t c = 0; c < out.ColumnCount(); c++) {
        group.output.push_back(Value::FromVector(out.column(c), i));
      }
      group.states.assign(reinterpret_cast<const char *>(ptrs[i]) +
                              aggr_offset,
                          ht.layout().AggregateWidth());
      groups.push_back(std::move(group));
    }
  }
  return groups;
}

/// Phase 2 through the copy path: merges `source` into `target` and emits
/// the target's own rows.
std::vector<EmittedGroup> GroupByCopy(GroupedAggregateHashTable &target,
                                      TupleDataCollection &source) {
  DataChunk layout_chunk(target.layout().Types());
  std::vector<data_ptr_t> ptrs(kVectorSize);
  TupleDataScanState scan;
  source.InitScan(scan);
  while (true) {
    auto more = source.Scan(scan, layout_chunk, ptrs.data());
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) {
      break;
    }
    EXPECT_TRUE(target.CombineSourceChunk(layout_chunk, ptrs.data()).ok());
  }
  target.ReleasePointerTable();
  TupleDataCollection &result = target.data().partition(0);
  TupleDataScanState result_scan;
  result.InitScan(result_scan, /*destroy_after_scan=*/true);
  return DrainGroups(target, result, result_scan);
}

/// Phase 2 in place, as the operator runs it: a probe pass over the group
/// and hash columns holding every page pinned, then one emission pass
/// that skips absorbed rows and destroys the pages.
std::vector<EmittedGroup> GroupInPlace(GroupedAggregateHashTable &ht,
                                       TupleDataCollection &source) {
  std::vector<uint64_t> absorbed((source.Count() + 63) / 64, 0);
  DataChunk group_chunk(ht.layout().Types());
  std::vector<data_ptr_t> ptrs(kVectorSize);
  TupleDataScanState scan;
  source.InitScan(scan);
  scan.column_count = ht.row_layout().hash_column + 1;
  scan.hold_pins = true;
  idx_t first_row = 0;
  while (true) {
    auto more = source.Scan(scan, group_chunk, ptrs.data());
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) {
      break;
    }
    EXPECT_TRUE(
        ht.CombineInPlace(group_chunk, ptrs.data(), first_row, absorbed.data())
            .ok());
    first_row += group_chunk.size();
  }
  ht.ReleasePointerTable();
  source.InitScan(scan, /*destroy_after_scan=*/true);
  scan.skip_rows = absorbed.data();
  return DrainGroups(ht, source, scan);
}

// Every aggregate kind over [int64 key, double value, varchar payload].
const std::vector<AggregateRequest> kAllAggregates = {
    {AggregateKind::kCountStar, kInvalidIndex}, {AggregateKind::kCount, 1},
    {AggregateKind::kSum, 1},  {AggregateKind::kMin, 1},
    {AggregateKind::kMax, 1},  {AggregateKind::kAvg, 1},
    {AggregateKind::kAnyValue, 2}};

/// A random chunk: keys in [0, key_range) with 1 in 16 NULL, values with 1
/// in 8 NULL, and a payload naming the row, so that ANY_VALUE shows which
/// row of a group won.
void FillRandomInput(DataChunk &chunk, RandomEngine &rng, idx_t key_range,
                     idx_t first_row) {
  chunk.Reset();
  for (idx_t i = 0; i < kVectorSize; i++) {
    if (rng.NextRange(16) == 0) {
      chunk.column(0).validity().SetInvalid(i);
      chunk.column(0).SetValue<int64_t>(i, 0);
    } else {
      chunk.column(0).SetValue<int64_t>(
          i, static_cast<int64_t>(rng.NextRange(key_range)));
    }
    if (rng.NextRange(8) == 0) {
      chunk.column(1).validity().SetInvalid(i);
      chunk.column(1).SetValue<double>(i, 0);
    } else {
      chunk.column(1).SetValue<double>(
          i, static_cast<double>(rng.NextRange(1000)) - 500.0);
    }
    chunk.column(2).SetString(i, "payload_of_input_row_" +
                                     std::to_string(first_row + i));
  }
  chunk.SetCount(kVectorSize);
}

/// A phase-1 table (one partition) fed `chunks` random chunks: its 256
/// entries reset every 170 groups, so its rows repeat keys within and
/// across the chunks phase 2 scans.
std::unique_ptr<GroupedAggregateHashTable> MakePhase1Source(
    BufferManager &bm, uint64_t seed, int chunks, idx_t key_range) {
  auto config = SmallConfig();
  config.capacity = 256;
  config.radix_bits = 0;
  auto ht = GroupedAggregateHashTable::Create(bm, InputTypes(), {0},
                                              kAllAggregates, config)
                .MoveValue();
  RandomEngine rng(seed);
  DataChunk input(InputTypes());
  for (int c = 0; c < chunks; c++) {
    FillRandomInput(input, rng, key_range, c * kVectorSize);
    EXPECT_TRUE(ht->AddChunk(input).ok());
  }
  ht->ClearPointerTable();
  return ht;
}

std::unique_ptr<GroupedAggregateHashTable> MakePhase2Table(BufferManager &bm,
                                                           idx_t capacity) {
  auto config = SmallConfig();
  config.capacity = capacity;
  config.radix_bits = 0;
  config.resizable = true;
  return GroupedAggregateHashTable::Create(bm, InputTypes(), {0},
                                           kAllAggregates, config)
      .MoveValue();
}

// Phase 2 in place must give exactly what the copy path gives: the same
// groups (the NULL group included), in the same first-occurrence order,
// with the same states and the first row's ANY_VALUE.
TEST_F(AggregateHashTableTest, InPlaceMatchesCopyPathRandomized) {
  BufferManager bm(temp_dir_, 1024 * kPageSize);
  constexpr int kChunks = 6;
  constexpr idx_t kKeyRange = 600;
  // In place mutates its source rows, so each path gets its own copy of the
  // same input.
  auto copy_source = MakePhase1Source(bm, 77, kChunks, kKeyRange);
  auto in_place_source = MakePhase1Source(bm, 77, kChunks, kKeyRange);
  TupleDataCollection &copy_rows = copy_source->data().partition(0);
  TupleDataCollection &in_place_rows = in_place_source->data().partition(0);
  ASSERT_EQ(copy_rows.Count(), in_place_rows.Count());
  ASSERT_GT(copy_rows.Count(), 2 * kKeyRange) << "phase 2 must see repeats";

  auto copy_table = MakePhase2Table(bm, 4096);
  auto in_place_table = MakePhase2Table(bm, 4096);
  auto copied = GroupByCopy(*copy_table, copy_rows);
  auto grouped = GroupInPlace(*in_place_table, in_place_rows);
  EXPECT_EQ(in_place_table->data().Count(), 0u)
      << "an in-place table materializes nothing";
  EXPECT_EQ(bm.PinnedBufferCount(), 0u);

  ASSERT_EQ(copied.size(), kKeyRange + 1);  // every key, and NULL
  EXPECT_EQ(grouped.size(), copied.size());
  EXPECT_TRUE(grouped == copied);
  bool saw_null = false;
  for (const auto &group : grouped) {
    saw_null = saw_null || group.output[0].IsNull();
  }
  EXPECT_TRUE(saw_null);
}

// An in-place table that starts at 1,024 entries and outgrows them while
// probing rebuilds its entry array from the entries' rows and stays exact.
TEST_F(AggregateHashTableTest, InPlaceResizeMidBuildStaysExact) {
  BufferManager bm(temp_dir_, 1024 * kPageSize);
  constexpr int kChunks = 8;
  constexpr idx_t kKeyRange = 5000;
  auto reference_source = MakePhase1Source(bm, 99, kChunks, kKeyRange);
  auto source = MakePhase1Source(bm, 99, kChunks, kKeyRange);
  auto reference_table = MakePhase2Table(bm, 16384);
  auto table = MakePhase2Table(bm, 1024);
  auto expected =
      GroupByCopy(*reference_table, reference_source->data().partition(0));
  auto grouped = GroupInPlace(*table, source->data().partition(0));
  EXPECT_EQ(reference_table->stats().resizes, 0u);
  EXPECT_GT(table->stats().resizes, 0u);
  EXPECT_GT(expected.size(), 4000u);
  EXPECT_TRUE(grouped == expected);

  // And against the input itself: COUNT(*) per key.
  std::map<GroupKey, int64_t> counts;
  RandomEngine rng(99);
  DataChunk input(InputTypes());
  for (int c = 0; c < kChunks; c++) {
    FillRandomInput(input, rng, kKeyRange, c * kVectorSize);
    for (idx_t i = 0; i < kVectorSize; i++) {
      GroupKey key;
      if (input.column(0).validity().RowIsValid(i)) {
        key = input.column(0).GetValue<int64_t>(i);
      }
      counts[key]++;
    }
  }
  ASSERT_EQ(grouped.size(), counts.size());
  for (const auto &group : grouped) {
    GroupKey key;
    if (!group.output[0].IsNull()) {
      key = group.output[0].GetInt64();
    }
    EXPECT_EQ(group.output[1].GetInt64(), counts[key]);
  }
}

}  // namespace
}  // namespace ssagg
