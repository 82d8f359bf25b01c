// Phase-1 lookup bypass (DESIGN.md sections 4 and 11): when the planner's
// sample is (nearly) unique on the radix plan, every later row is appended
// straight into its radix partition without a phase-1 lookup. These tests
// cover the decision, the pinned set it leaves (only each partition's write
// pages), a sample that mispredicts, and the trace that explains it.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/file_system.h"
#include "common/mutex.h"
#include "ssagg/ssagg.h"

namespace ssagg {
namespace {

Result<std::string> ReadWholeFile(const std::string &path) {
  SSAGG_ASSIGN_OR_RETURN(
      auto handle, FileSystem::Default().Open(path, FileOpenFlags{}));
  SSAGG_ASSIGN_OR_RETURN(idx_t size, handle->FileSize());
  std::string contents(size, '\0');
  SSAGG_RETURN_NOT_OK(handle->Read(contents.data(), size, 0));
  return contents;
}

class Phase1BypassTest : public ::testing::Test {
 protected:
  void SetUp() override {
    temp_dir_ = ::testing::TempDir() + "ssagg_bypass_" +
                std::to_string(::getpid());
    (void)FileSystem::Default().CreateDirectories(temp_dir_);
  }
  void TearDown() override { std::filesystem::remove_all(temp_dir_); }

  std::string temp_dir_;
};

//===----------------------------------------------------------------------===//
// The decision
//===----------------------------------------------------------------------===//

/// Decides on `rows` sampled hashes of keys 0..rows-1 taken modulo `keys`.
PlannerDecision Decide(AggregateStrategy strategy, idx_t rows, idx_t keys) {
  AggregatePlanner::Options options;
  options.strategy = strategy;
  options.sample_rows = rows;
  options.total_rows = idx_t{1} << 22;
  options.memory_limit_bytes = idx_t{1} << 30;
  AggregatePlanner planner(options, MetricsRegistry::Global());
  planner.RegisterThread();
  std::vector<hash_t> hashes(rows);
  for (idx_t i = 0; i < rows; i++) {
    hashes[i] = HashUint64(i % keys);
  }
  planner.Observe(hashes.data(), rows);
  EXPECT_TRUE(planner.decided());
  PlannerDecision decision = planner.decision();
  EXPECT_EQ(planner.phase1_bypass(), decision.phase1_bypass);
  return decision;
}

TEST_F(Phase1BypassTest, OnlyASaturatedRadixSampleBypasses) {
  constexpr idx_t kSample = 8192;
  // A unique sample: the cost models pick radix, and nothing to look up.
  PlannerDecision unique =
      Decide(AggregateStrategy::kAdaptive, kSample, kSample);
  EXPECT_EQ(unique.strategy, AggregateStrategy::kRadixMerge);
  EXPECT_TRUE(unique.phase1_bypass);
  EXPECT_TRUE(
      Decide(AggregateStrategy::kRadixMerge, kSample, kSample).phase1_bypass);
  // Every key twice: the lookups pay, even on a forced radix plan.
  EXPECT_FALSE(Decide(AggregateStrategy::kRadixMerge, kSample, kSample / 2)
                   .phase1_bypass);
  // Central thread tables always look up.
  EXPECT_FALSE(Decide(AggregateStrategy::kCentralMerge, kSample, kSample)
                   .phase1_bypass);
}

//===----------------------------------------------------------------------===//
// The pinned set
//===----------------------------------------------------------------------===//

/// What the pinned-set probe shares between the source and the sink.
struct PinRecord {
  Mutex lock{LockRank::kUnranked, "PinRecord::lock"};
  idx_t sink_threads SSAGG_GUARDED_BY(lock) = 0;
  idx_t bypassing_threads SSAGG_GUARDED_BY(lock) = 0;
  idx_t reads SSAGG_GUARDED_BY(lock) = 0;
  idx_t max_pins SSAGG_GUARDED_BY(lock) = 0;
};

/// Reads the buffer manager's pinned buffers at each GetData, once every
/// sink thread has appended a bypassed chunk (the first one drops the pages
/// it wrote while the planner sampled).
class PinReadingSource : public DataSource {
 public:
  PinReadingSource(DataSource &inner, BufferManager &bm, PinRecord &record)
      : inner_(inner), bm_(bm), record_(record) {}

  std::vector<LogicalTypeId> Types() const override { return inner_.Types(); }
  Result<std::unique_ptr<LocalSourceState>> InitLocal() override {
    return inner_.InitLocal();
  }
  Result<bool> GetData(DataChunk &chunk, LocalSourceState &state) override {
    {
      ScopedLock guard(record_.lock);
      if (record_.sink_threads > 0 &&
          record_.bypassing_threads == record_.sink_threads) {
        record_.reads++;
        record_.max_pins = std::max(record_.max_pins, bm_.PinnedBufferCount());
      }
    }
    return inner_.GetData(chunk, state);
  }
  [[nodiscard]] idx_t EstimatedRowCount() const override {
    return inner_.EstimatedRowCount();
  }

 private:
  DataSource &inner_;
  BufferManager &bm_;
  PinRecord &record_;
};

/// Runs the aggregate's Sink calls one at a time, under the lock the source
/// reads under, so that a read never catches a thread inside an append.
class SerializedSink : public DataSink {
 public:
  SerializedSink(PhysicalHashAggregate &agg, PinRecord &record)
      : agg_(agg), record_(record) {}

  Result<std::unique_ptr<LocalSinkState>> InitLocal() override {
    auto local = std::make_unique<Local>();
    SSAGG_ASSIGN_OR_RETURN(local->inner, agg_.InitLocal());
    ScopedLock guard(record_.lock);
    record_.sink_threads++;
    return std::unique_ptr<LocalSinkState>(std::move(local));
  }
  Status Sink(DataChunk &chunk, LocalSinkState &state) override {
    auto &local = static_cast<Local &>(state);
    ScopedLock guard(record_.lock);
    const bool bypassing = agg_.planner().phase1_bypass();
    SSAGG_RETURN_NOT_OK(agg_.Sink(chunk, *local.inner));
    if (bypassing && !local.bypassed) {
      local.bypassed = true;
      record_.bypassing_threads++;
    }
    return Status::OK();
  }
  Status Combine(LocalSinkState &state) override {
    auto &local = static_cast<Local &>(state);
    ScopedLock guard(record_.lock);
    return agg_.Combine(*local.inner);
  }

 private:
  struct Local : public LocalSinkState {
    std::unique_ptr<LocalSinkState> inner;
    bool bypassed = false;
  };

  PhysicalHashAggregate &agg_;
  PinRecord &record_;
};

TEST_F(Phase1BypassTest, PinsOnlyEachPartitionsWritePages) {
  constexpr idx_t kRows = 200000;
  constexpr idx_t kThreads = 2;
  constexpr idx_t kRadixBits = 2;
  // Ample memory: nothing is evicted, so every page the bypass kept pinned
  // shows up in the count.
  BufferManager bm(temp_dir_, 2048 * kPageSize);
  TaskExecutor executor(kThreads);
  const std::vector<LogicalTypeId> types = {LogicalTypeId::kInt64,
                                            LogicalTypeId::kVarchar};
  RangeSource rows(types, kRows,
                   [](DataChunk &chunk, idx_t start, idx_t count) {
                     for (idx_t i = 0; i < count; i++) {
                       const idx_t row = start + i;
                       chunk.column(0).SetValue<int64_t>(
                           i, static_cast<int64_t>(row));
                       // Out of line: the rows also fill heap pages.
                       chunk.column(1).SetString(
                           i, "payload_stored_out_of_line_" +
                                  std::to_string(row));
                     }
                     return Status::OK();
                   });
  HashAggregateConfig config;
  config.radix_bits = kRadixBits;
  auto agg = PhysicalHashAggregate::Create(
      bm, types, {0},
      {{AggregateKind::kCountStar, kInvalidIndex},
       {AggregateKind::kAnyValue, 1}},
      config);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  PinRecord record;
  PinReadingSource source(rows, bm, record);
  SerializedSink sink(*agg.value(), record);
  ASSERT_TRUE(executor.RunPipeline(source, sink).ok());
  CountingCollector collector;
  ASSERT_TRUE(agg.value()->EmitResults(collector, executor).ok());

  const HashAggregateStats stats = agg.value()->stats();
  ASSERT_TRUE(stats.planner.phase1_bypass);
  EXPECT_GT(stats.phase1_bypassed_rows, kRows / 2);
  EXPECT_EQ(stats.phase1_resets, 0u);
  EXPECT_EQ(collector.TotalRows(), kRows);
  ScopedLock guard(record.lock);
  ASSERT_GT(record.reads, 10u);
  // A row page and a heap page per partition and thread. Every page written
  // since the last reset would be several times that.
  EXPECT_LE(record.max_pins, kThreads * (idx_t{1} << kRadixBits) * 2);
  EXPECT_GT(record.max_pins, 0u);
}

//===----------------------------------------------------------------------===//
// A sample that mispredicts
//===----------------------------------------------------------------------===//

/// Keys of the mispredicting input: within each morsel, the keys recur
/// every 50,000 rows (longer than the planner's 32,768-row sample, shorter
/// than the 87,381-row reset window); morsels never share keys. Whichever
/// morsel starts a worker samples, the sample is unique.
int64_t RecurringKey(idx_t row) {
  constexpr idx_t kPeriod = 50000;
  return static_cast<int64_t>(row / kMorselSize * kMorselSize +
                              row % kMorselSize % kPeriod);
}

TEST_F(Phase1BypassTest, MispredictedBypassCostsOnlyMaterialization) {
  // The unique sample makes the planner bypass, although phase-1 lookups
  // would have folded the later repeats. The answer must stay exact; the
  // price is that every row is materialized.
  constexpr idx_t kRows = 2 * kMorselSize;
  struct Expected {
    int64_t sum = 0;
    int64_t count = 0;
    int64_t min = 0;
    int64_t max = 0;
  };
  std::map<int64_t, Expected> expected;
  for (idx_t row = 0; row < kRows; row++) {
    auto [it, inserted] = expected.try_emplace(RecurringKey(row));
    const auto value = static_cast<int64_t>(row);
    it->second.sum += value;
    it->second.count++;
    it->second.min = inserted ? value : std::min(it->second.min, value);
    it->second.max = inserted ? value : std::max(it->second.max, value);
  }
  for (idx_t threads : {idx_t{1}, idx_t{2}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    BufferManager bm(temp_dir_, 1024 * kPageSize);
    TaskExecutor executor(threads);
    RangeSource source({LogicalTypeId::kInt64, LogicalTypeId::kInt64}, kRows,
                       [](DataChunk &chunk, idx_t start, idx_t count) {
                         for (idx_t i = 0; i < count; i++) {
                           const idx_t row = start + i;
                           chunk.column(0).SetValue<int64_t>(
                               i, RecurringKey(row));
                           chunk.column(1).SetValue<int64_t>(
                               i, static_cast<int64_t>(row));
                         }
                         return Status::OK();
                       });
    MaterializedCollector collector;
    QueryProfile profile;
    auto stats = RunGroupedAggregation(
        bm, source, {0},
        {{AggregateKind::kSum, 1},
         {AggregateKind::kCountStar, kInvalidIndex},
         {AggregateKind::kMin, 1},
         {AggregateKind::kMax, 1}},
        collector, executor, HashAggregateConfig{}, &profile);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(profile.Counter("agg.phase1_bypass"), 1u);
    EXPECT_EQ(stats.value().materialized_rows, kRows);
    EXPECT_EQ(stats.value().unique_groups, expected.size());

    ASSERT_EQ(collector.RowCount(), expected.size());
    for (const auto &row : collector.rows()) {
      auto it = expected.find(row[0].GetInt64());
      ASSERT_NE(it, expected.end()) << "unexpected group " << row[0].GetInt64();
      EXPECT_EQ(row[1].GetInt64(), it->second.sum);
      EXPECT_EQ(row[2].GetInt64(), it->second.count);
      EXPECT_EQ(row[3].GetInt64(), it->second.min);
      EXPECT_EQ(row[4].GetInt64(), it->second.max);
    }
    EXPECT_EQ(bm.PinnedBufferCount(), 0u);
    EXPECT_EQ(bm.memory_used(), 0u);
  }
}

//===----------------------------------------------------------------------===//
// The explanation
//===----------------------------------------------------------------------===//

TEST_F(Phase1BypassTest, FlightDumpShowsWhyPhase1StoppedProbing) {
  FlightRecorder &flight = FlightRecorder::Global();
  // The rings are process-global: only this query's decision may be read.
  flight.Clear();
  constexpr idx_t kRows = 100000;
  BufferManager bm(temp_dir_, 1024 * kPageSize);
  TaskExecutor executor(1);
  RangeSource source({LogicalTypeId::kInt64}, kRows,
                     [](DataChunk &chunk, idx_t start, idx_t count) {
                       for (idx_t i = 0; i < count; i++) {
                         chunk.column(0).SetValue<int64_t>(
                             i, static_cast<int64_t>(start + i));
                       }
                       return Status::OK();
                     });
  CountingCollector collector;
  auto stats = RunGroupedAggregation(
      bm, source, {0}, {{AggregateKind::kCountStar, kInvalidIndex}},
      collector, executor);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats.value().planner.phase1_bypass);

  const std::string dump_dir = temp_dir_ + "/dump";
  ASSERT_TRUE(FileSystem::Default().CreateDirectories(dump_dir).ok());
  const std::string saved_dir = flight.dump_directory();
  flight.SetDumpDirectory(dump_dir);
  const std::string path = flight.DumpAnomaly("bypass_test");
  flight.SetDumpDirectory(saved_dir);
  ASSERT_FALSE(path.empty());
  auto contents = ReadWholeFile(path);
  ASSERT_TRUE(contents.ok());
  auto parsed = Json::Parse(contents.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // The instant carries the sample's distinct count: at least 9 in 10 of
  // the sampled rows, which is the rule that chose the bypass.
  const idx_t sampled = stats.value().planner.sampled_rows;
  bool seen = false;
  for (const Json &event : parsed.value().Find("traceEvents")->elements()) {
    if (event.Find("name")->AsString() != "planner.phase1_bypass") {
      continue;
    }
    seen = true;
    EXPECT_EQ(event.Find("ph")->AsString(), "i");
    const uint64_t distinct = event.Find("args")->Find("v")->AsUint();
    EXPECT_GE(distinct * 10, sampled * 9);
    EXPECT_LE(distinct, sampled);
  }
  EXPECT_TRUE(seen) << "the dump lacks planner.phase1_bypass";
}

}  // namespace
}  // namespace ssagg
