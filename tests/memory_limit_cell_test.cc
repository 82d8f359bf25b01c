// The wide all-unique cell of the memory-limit table (ROADMAP item 1):
// lineitem SF 8 grouped by (suppkey, partkey, orderkey), every other column
// through ANY_VALUE, in 48 MiB with 2 threads. Its intermediates are about
// 2.1x the limit. The query must return the exact answer both at the
// library defaults and at the benchmark harness's radix bits and phase-1
// capacity.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "common/file_system.h"
#include "common/mutex.h"
#include "ssagg/ssagg.h"

namespace ssagg {
namespace {

/// Order-independent fingerprint of a multiset of rows: the row count and
/// two sums of per-row hashes over every column.
struct Fingerprint {
  idx_t rows = 0;
  uint64_t sum = 0;
  uint64_t mixed_sum = 0;

  void Add(const DataChunk &chunk) {
    std::vector<idx_t> columns(chunk.ColumnCount());
    std::iota(columns.begin(), columns.end(), idx_t{0});
    std::vector<hash_t> hashes(chunk.size());
    ChunkHash(chunk, columns, hashes.data());
    for (hash_t h : hashes) {
      sum += h;
      mixed_sum += HashUint64(h);
    }
    rows += chunk.size();
  }
  void Add(const Fingerprint &other) {
    rows += other.rows;
    sum += other.sum;
    mixed_sum += other.mixed_sum;
  }
  bool operator==(const Fingerprint &other) const {
    return rows == other.rows && sum == other.sum &&
           mixed_sum == other.mixed_sum;
  }
};

/// Fingerprints the query's output without materializing it.
class FingerprintSink : public DataSink {
 public:
  Result<std::unique_ptr<LocalSinkState>> InitLocal() override {
    return std::unique_ptr<LocalSinkState>(new Local());
  }
  Status Sink(DataChunk &chunk, LocalSinkState &state) override {
    static_cast<Local &>(state).fingerprint.Add(chunk);
    return Status::OK();
  }
  Status Combine(LocalSinkState &state) override {
    ScopedLock guard(lock_);
    total_.Add(static_cast<Local &>(state).fingerprint);
    return Status::OK();
  }
  Fingerprint total() const {
    ScopedLock guard(lock_);
    return total_;
  }

 private:
  struct Local : public LocalSinkState {
    Fingerprint fingerprint;
  };
  mutable Mutex lock_{LockRank::kUnranked, "FingerprintSink::lock_"};
  Fingerprint total_ SSAGG_GUARDED_BY(lock_);
};

class MemoryLimitCellTest : public ::testing::Test {
 protected:
  static constexpr double kScaleFactor = 8;
  static constexpr idx_t kMemoryLimit = idx_t{48} << 20;
  static constexpr idx_t kThreads = 2;

  void SetUp() override {
    temp_dir_ = ::testing::TempDir() + "ssagg_cell_" +
                std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  void TearDown() override { std::filesystem::remove_all(temp_dir_); }

  /// The oracle: every group key of the input is distinct (distinct key
  /// hashes prove it), so the exact answer is the projected input itself,
  /// one row per group, with ANY_VALUE returning that row's values.
  static Fingerprint ExpectedAnswer(const tpch::LineitemGenerator &gen,
                                    const tpch::GroupingQuery &query) {
    DataChunk chunk(tpch::LineitemGenerator::ColumnTypes(query.projection));
    Fingerprint expected;
    std::vector<hash_t> key_hashes(gen.RowCount());
    for (idx_t start = 0; start < gen.RowCount(); start += kVectorSize) {
      const idx_t count = std::min(kVectorSize, gen.RowCount() - start);
      chunk.Reset();
      chunk.SetCount(count);
      EXPECT_TRUE(gen.FillChunk(chunk, query.projection, start, count).ok());
      ChunkHash(chunk, query.group_columns, key_hashes.data() + start);
      expected.Add(chunk);
    }
    std::sort(key_hashes.begin(), key_hashes.end());
    EXPECT_EQ(std::unique(key_hashes.begin(), key_hashes.end()),
              key_hashes.end())
        << "group keys repeat: the oracle does not apply";
    return expected;
  }

  void RunCell(idx_t radix_bits, idx_t phase1_capacity) {
    tpch::LineitemGenerator gen(kScaleFactor);
    const auto query = tpch::BuildGroupingQuery(tpch::TableIGroupings()[12],
                                                /*wide=*/true);
    const Fingerprint expected = ExpectedAnswer(gen, query);

    BufferManager bm(temp_dir_, kMemoryLimit);
    TaskExecutor executor(kThreads);
    auto source = gen.MakeSource(query.projection);
    FingerprintSink sink;
    HashAggregateConfig config;
    config.radix_bits = radix_bits;
    config.phase1_capacity = phase1_capacity;
    auto stats = RunGroupedAggregation(bm, *source, query.group_columns,
                                       query.aggregates, sink, executor,
                                       config);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_TRUE(sink.total() == expected)
        << "got " << sink.total().rows << " rows, expected " << expected.rows;
    EXPECT_GT(bm.Snapshot().temp_writes, 0u) << "the cell must spill";
    EXPECT_EQ(bm.PinnedBufferCount(), 0u);
    EXPECT_EQ(bm.memory_used(), 0u);
  }

  std::string temp_dir_;
};

TEST_F(MemoryLimitCellTest, WideUniqueSf8In48MiBAtLibraryDefaults) {
  const HashAggregateConfig defaults;
  RunCell(defaults.radix_bits, defaults.phase1_capacity);
}

/// bench/harness_util.h runs every paper figure at these two values.
TEST_F(MemoryLimitCellTest, WideUniqueSf8In48MiBAtBenchDefaults) {
  RunCell(/*radix_bits=*/5, /*phase1_capacity=*/idx_t{1} << 15);
}

}  // namespace
}  // namespace ssagg
