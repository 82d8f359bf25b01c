// Tests for the observability subsystem: metrics-registry exactness under
// concurrency, JSON round trips, trace-event well-formedness, and the
// QueryProfile counters of a spilling aggregation against the
// temporary-file manager's ground truth.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/file_system.h"
#include "common/hash.h"
#include "common/mutex.h"
#include "core/run_aggregation.h"
#include "execution/collectors.h"
#include "execution/range_source.h"
#include "observe/flight_recorder.h"
#include "observe/json.h"
#include "observe/metrics.h"
#include "observe/profile.h"
#include "observe/progress.h"
#include "observe/trace.h"

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

// ---------------------------------------------------------------- metrics

TEST(MetricsRegistryTest, ConcurrentUpdatesSumExactly) {
  MetricsRegistry registry;
  idx_t key_a = registry.KeyId("test.a");
  idx_t key_b = registry.KeyId("test.b");
  ASSERT_NE(key_a, key_b);
  EXPECT_EQ(registry.KeyId("test.a"), key_a) << "key ids must be stable";

  constexpr idx_t kThreads = 8;
  constexpr uint64_t kIncrements = 100000;
  std::vector<std::thread> threads;
  for (idx_t t = 0; t < kThreads; t++) {
    threads.emplace_back([&registry, key_a, key_b, t]() {
      for (uint64_t i = 0; i < kIncrements; i++) {
        registry.Add(key_a, 1);
        registry.Add(key_b, t + 1);
      }
    });
  }
  for (auto &thread : threads) {
    thread.join();
  }
  // Exactness: every increment from every (now joined) thread is retained —
  // shards outlive their threads.
  EXPECT_EQ(registry.Value("test.a"), kThreads * kIncrements);
  uint64_t expected_b = 0;
  for (idx_t t = 0; t < kThreads; t++) {
    expected_b += (t + 1) * kIncrements;
  }
  EXPECT_EQ(registry.Value("test.b"), expected_b);

  auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.at("test.a"), kThreads * kIncrements);
  EXPECT_EQ(snapshot.at("test.b"), expected_b);

  registry.Reset();
  EXPECT_EQ(registry.Value("test.a"), 0u);
  EXPECT_EQ(registry.KeyCount(), 2u) << "Reset keeps keys registered";
}

TEST(MetricsRegistryTest, TwoRegistriesDoNotAlias) {
  // Alternating between registries on one thread exercises the one-entry
  // thread-local shard cache: a stale cache hit would cross-count.
  MetricsRegistry first;
  MetricsRegistry second;
  idx_t key_first = first.KeyId("x");
  idx_t key_second = second.KeyId("x");
  for (int i = 0; i < 1000; i++) {
    first.Add(key_first, 1);
    second.Add(key_second, 2);
  }
  EXPECT_EQ(first.Value("x"), 1000u);
  EXPECT_EQ(second.Value("x"), 2000u);
}

TEST(MetricsRegistryTest, ScopedTimerAccumulatesNanoseconds) {
  MetricsRegistry registry;
  idx_t key = registry.KeyId("test.elapsed_ns");
  {
    ScopedTimerNs timer(registry, key);
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < 100000; i++) {
      sink += i;
    }
  }
  EXPECT_GT(registry.Value("test.elapsed_ns"), 0u);
}

// ------------------------------------------------------------------- json

TEST(JsonTest, RoundTripPreservesStructureAndValues) {
  Json doc = Json::Object();
  doc.Set("uint", Json(uint64_t(1) << 63 | 7));
  doc.Set("int", Json(int64_t(-42)));
  doc.Set("double", Json(2.5));
  doc.Set("bool", Json(true));
  doc.Set("null", Json());
  doc.Set("string", Json("quote\" backslash\\ newline\n tab\t"));
  Json array = Json::Array();
  array.Push(Json(uint64_t(1)));
  array.Push(Json("two"));
  Json nested = Json::Object();
  nested.Set("deep", Json(uint64_t(3)));
  array.Push(std::move(nested));
  doc.Set("array", std::move(array));

  for (int indent : {0, 2}) {
    auto parsed = Json::Parse(doc.Dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const Json &p = parsed.value();
    EXPECT_EQ(p.Find("uint")->AsUint(), uint64_t(1) << 63 | 7)
        << "counters must survive bit-exactly";
    EXPECT_EQ(p.Find("int")->AsInt(), -42);
    EXPECT_EQ(p.Find("double")->AsDouble(), 2.5);
    EXPECT_TRUE(p.Find("bool")->AsBool());
    EXPECT_TRUE(p.Find("null")->IsNull());
    EXPECT_EQ(p.Find("string")->AsString(),
              "quote\" backslash\\ newline\n tab\t");
    const Json *arr = p.Find("array");
    ASSERT_TRUE(arr != nullptr && arr->IsArray());
    ASSERT_EQ(arr->elements().size(), 3u);
    EXPECT_EQ(arr->elements()[0].AsUint(), 1u);
    EXPECT_EQ(arr->elements()[1].AsString(), "two");
    EXPECT_EQ(arr->elements()[2].Find("deep")->AsUint(), 3u);
  }
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  for (const char *bad : {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
                          "{\"a\":1} trailing"}) {
    EXPECT_FALSE(Json::Parse(bad).ok()) << "accepted: " << bad;
  }
}

TEST(JsonTest, ParsesUnicodeEscapes) {
  auto parsed = Json::Parse("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().AsString(), "A\xc3\xa9");
}

// ------------------------------------------------------------------ trace

struct SpanEvent {
  uint64_t tid;
  uint64_t start;
  uint64_t end;
};

/// Spans on one thread's track must be laminar: any two either disjoint or
/// one containing the other (RAII spans cannot partially overlap).
void CheckLaminarNesting(const std::vector<SpanEvent> &spans) {
  for (idx_t i = 0; i < spans.size(); i++) {
    for (idx_t j = i + 1; j < spans.size(); j++) {
      const SpanEvent &a = spans[i];
      const SpanEvent &b = spans[j];
      if (a.tid != b.tid) {
        continue;
      }
      bool disjoint = a.end <= b.start || b.end <= a.start;
      bool a_in_b = b.start <= a.start && a.end <= b.end;
      bool b_in_a = a.start <= b.start && b.end <= a.end;
      EXPECT_TRUE(disjoint || a_in_b || b_in_a)
          << "spans partially overlap on tid " << a.tid << ": [" << a.start
          << "," << a.end << ") vs [" << b.start << "," << b.end << ")";
    }
  }
}

TEST(TraceTest, RoundTripsWithWellFormedNesting) {
  FlightRecorder &recorder = FlightRecorder::Global();
  recorder.Clear();

  {
    TraceSpan outer("outer", "test", 1);
    {
      TraceSpan inner("inner", "test");
      TraceInstant("tick", "test", 7);
    }
    TraceSpan sibling("sibling", "test");
  }
  std::thread worker([]() {
    TraceSpan outer("thread_outer", "test");
    TraceSpan inner("thread_inner", "test");
  });
  worker.join();
  TraceCounter("cnt", 42);
  ASSERT_GE(recorder.EventCount(), 7u);

  // Round trip: everything the recorder dumps must parse back.
  auto parsed = Json::Parse(recorder.ToJson().Dump(1));
  recorder.Clear();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Find("droppedEvents")->AsUint(), 0u);
  const Json *events = parsed.value().Find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->IsArray());

  std::vector<SpanEvent> spans;
  bool saw_instant = false;
  bool saw_counter = false;
  for (const Json &event : events->elements()) {
    // Chrome-trace required fields.
    ASSERT_TRUE(event.Find("name") != nullptr);
    ASSERT_TRUE(event.Find("ph") != nullptr);
    ASSERT_TRUE(event.Find("pid") != nullptr);
    ASSERT_TRUE(event.Find("tid") != nullptr);
    ASSERT_TRUE(event.Find("ts") != nullptr);
    const std::string &phase = event.Find("ph")->AsString();
    if (phase == "X") {
      const Json *dur = event.Find("dur");
      ASSERT_TRUE(dur != nullptr) << "complete event without dur";
      uint64_t ts = event.Find("ts")->AsUint();
      spans.push_back(
          {event.Find("tid")->AsUint(), ts, ts + dur->AsUint()});
    } else if (phase == "i") {
      saw_instant = true;
      EXPECT_EQ(event.Find("s")->AsString(), "t");
      EXPECT_EQ(event.Find("args")->Find("v")->AsUint(), 7u);
    } else if (phase == "C") {
      saw_counter = true;
      EXPECT_EQ(event.Find("args")->Find("value")->AsUint(), 42u);
    }
  }
  EXPECT_EQ(spans.size(), 5u);
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_counter);
  CheckLaminarNesting(spans);

  // The two spans of the worker thread must be on their own track.
  std::vector<uint64_t> tids;
  for (const auto &span : spans) {
    tids.push_back(span.tid);
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), 2u);
}

TEST(TraceTest, DisabledRecorderStaysSilent) {
  FlightRecorder &recorder = FlightRecorder::Global();
  recorder.SetEnabled(false);
  recorder.Clear();
  {
    TraceSpan span("ignored", "test");
    TraceInstant("ignored", "test");
    TraceCounter("ignored", 1);
  }
  EXPECT_EQ(recorder.EventCount(), 0u);
  recorder.SetEnabled(true);
}

// ---------------------------------------------------------------- profile

TEST(QueryProfileTest, SpillCountersMatchTemporaryFileGroundTruth) {
  std::string temp_dir = ::testing::TempDir() + "ssagg_observe_test_" + std::to_string(::getpid());
  ASSERT_TRUE(FileSystem::Default().CreateDirectories(temp_dir).ok());
  // Trace the query too: a spilling run must produce balanced spans.
  FlightRecorder &recorder = FlightRecorder::Global();
  recorder.Clear();

  // Memory limit below the intermediate size: phase 1 must spill and
  // phase 2 reload (mirrors the external-aggregation e2e test).
  BufferManager bm(temp_dir, 160 * kPageSize);
  TaskExecutor executor(2);
  // All-unique keys at ~32 B of row each: well past the 40 MiB limit.
  constexpr idx_t kRows = 2000000;
  RangeSource source({LogicalTypeId::kInt64, LogicalTypeId::kInt64}, kRows,
                     [](DataChunk &chunk, idx_t start, idx_t count) {
                       for (idx_t i = 0; i < count; i++) {
                         auto row = static_cast<int64_t>(start + i);
                         chunk.column(0).SetValue<int64_t>(i, row);
                         chunk.column(1).SetValue<int64_t>(i, row * 2);
                       }
                       return Status::OK();
                     });
  CountingCollector collector;
  HashAggregateConfig config;
  config.phase1_capacity = 1024;
  config.radix_bits = 3;
  QueryProfile profile;
  auto stats = RunGroupedAggregation(bm, source, {0},
                                     {{AggregateKind::kSum, 1}}, collector,
                                     executor, config, &profile);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(collector.TotalRows(), kRows);

  // Ground truth: the temporary-file manager's own byte accounting.
  TemporaryFileManager &temp_files = bm.temp_files();
  EXPECT_GT(temp_files.BytesWritten(), 0u) << "query was expected to spill";
  EXPECT_EQ(profile.Counter("io.spill_bytes_written"),
            temp_files.BytesWritten());
  EXPECT_EQ(profile.Counter("io.spill_bytes_read"), temp_files.BytesRead());

  BufferManagerSnapshot snapshot = bm.Snapshot();
  EXPECT_EQ(profile.Counter("io.spill_writes"), snapshot.temp_writes);
  EXPECT_EQ(profile.Counter("io.spill_reads"), snapshot.temp_reads);
  EXPECT_EQ(profile.Counter("bm.evictions_temporary_spilled"),
            snapshot.evicted_temporary_count);

  // Operator and executor counters made it into the profile.
  EXPECT_EQ(profile.Counter("agg.unique_groups"), kRows);
  EXPECT_EQ(profile.Counter("exec.rows"), kRows);
  EXPECT_GT(profile.phase1_seconds, 0.0);
  EXPECT_GT(profile.phase2_seconds, 0.0);
  EXPECT_EQ(profile.threads, 2u);

  // The trace of the spilling query: spans parse and nest per thread, and
  // the spill I/O shows up.
  auto parsed = Json::Parse(recorder.ToJson().Dump());
  recorder.Clear();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::vector<SpanEvent> spans;
  bool saw_spill_write = false;
  bool saw_spill_read = false;
  for (const Json &event : parsed.value().Find("traceEvents")->elements()) {
    const std::string &name = event.Find("name")->AsString();
    saw_spill_write |= name == "spill.write";
    saw_spill_read |= name == "spill.read";
    if (event.Find("ph")->AsString() == "X") {
      uint64_t ts = event.Find("ts")->AsUint();
      spans.push_back(
          {event.Find("tid")->AsUint(), ts, ts + event.Find("dur")->AsUint()});
    }
  }
  EXPECT_TRUE(saw_spill_write);
  EXPECT_TRUE(saw_spill_read);
  CheckLaminarNesting(spans);

  // The profile serializes and round-trips.
  auto profile_round_trip = Json::Parse(profile.ToJson().Dump(2));
  ASSERT_TRUE(profile_round_trip.ok());
  EXPECT_EQ(profile_round_trip.value()
                .Find("counters")
                ->Find("io.spill_bytes_written")
                ->AsUint(),
            temp_files.BytesWritten());
}

// ------------------------------------------------------------- histograms

TEST(HistogramTest, BucketMappingIsMonotoneAndContiguous) {
  // Every reachable bucket's lower bound must map back into that bucket,
  // and the bounds must tile the uint64 range without gaps or overlaps.
  // Indexes above BucketIndex(~0) are unreachable (their lower bound would
  // be >= 2^64) and report a saturated upper bound instead.
  const idx_t last_bucket = HistogramSnapshot::BucketIndex(~uint64_t{0});
  EXPECT_EQ(last_bucket + 5, HistogramSnapshot::kBuckets);
  EXPECT_EQ(HistogramSnapshot::BucketUpperBound(last_bucket), ~uint64_t{0});
  for (idx_t b = 0; b <= last_bucket; b++) {
    uint64_t lower = HistogramSnapshot::BucketLowerBound(b);
    EXPECT_EQ(HistogramSnapshot::BucketIndex(lower), b) << "bucket " << b;
    if (b < last_bucket) {
      EXPECT_EQ(HistogramSnapshot::BucketUpperBound(b),
                HistogramSnapshot::BucketLowerBound(b + 1));
      EXPECT_EQ(HistogramSnapshot::BucketIndex(
                    HistogramSnapshot::BucketUpperBound(b) - 1),
                b)
          << "upper bound of bucket " << b << " is not inclusive";
    }
  }
  // Monotone: a larger value never lands in a smaller bucket.
  idx_t last = 0;
  for (uint64_t v = 0; v < 100000; v += 17) {
    idx_t bucket = HistogramSnapshot::BucketIndex(v);
    EXPECT_GE(bucket, last);
    last = bucket;
  }
  EXPECT_LT(HistogramSnapshot::BucketIndex(~uint64_t{0}),
            HistogramSnapshot::kBuckets);
}

// The histogram shards must lose nothing under concurrency: the merged
// snapshot is compared bucket-for-bucket against a mutex-protected
// reference fed the exact same values.
TEST(HistogramTest, ConcurrentRecordsMatchMutexedReference) {
  MetricsRegistry registry;
  idx_t hist = registry.HistogramId("test.latency_ns");
  EXPECT_EQ(registry.HistogramId("test.latency_ns"), hist)
      << "histogram ids must be stable";

  Mutex ref_lock;
  HistogramSnapshot reference;

  constexpr idx_t kThreads = 8;
  constexpr idx_t kRecords = 50000;
  std::vector<std::thread> threads;
  for (idx_t t = 0; t < kThreads; t++) {
    threads.emplace_back([&registry, &ref_lock, &reference, hist, t]() {
      HistogramSnapshot local;
      for (idx_t i = 0; i < kRecords; i++) {
        // Deterministic pseudo-random spread across many octaves.
        uint64_t value = HashUint64(t * kRecords + i) >> (i % 48);
        registry.Record(hist, value);
        local.buckets[HistogramSnapshot::BucketIndex(value)]++;
        local.count++;
        local.sum += value;
        local.max = std::max(local.max, value);
      }
      ScopedLock guard(ref_lock);
      reference.Merge(local);
    });
  }
  for (auto &thread : threads) {
    thread.join();
  }

  HistogramSnapshot merged = registry.Histogram("test.latency_ns");
  EXPECT_EQ(merged.count, reference.count);
  EXPECT_EQ(merged.sum, reference.sum);
  EXPECT_EQ(merged.max, reference.max);
  for (idx_t b = 0; b < HistogramSnapshot::kBuckets; b++) {
    EXPECT_EQ(merged.buckets[b], reference.buckets[b]) << "bucket " << b;
  }
  // Percentiles are ordered and bounded by the observed extremes.
  EXPECT_LE(merged.Percentile(0.5), merged.Percentile(0.99));
  EXPECT_LE(merged.Percentile(0.99), merged.max);
  EXPECT_EQ(merged.Percentile(1.0), merged.max);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucketError) {
  MetricsRegistry registry;
  idx_t hist = registry.HistogramId("test.uniform");
  for (uint64_t v = 1; v <= 10000; v++) {
    registry.Record(hist, v);
  }
  HistogramSnapshot snap = registry.Histogram("test.uniform");
  EXPECT_EQ(snap.count, 10000u);
  // Log-linear buckets are at most 25% wide, so every percentile of a
  // uniform distribution must land within ~25% of the exact answer.
  EXPECT_NEAR(static_cast<double>(snap.Percentile(0.5)), 5000.0, 1300.0);
  EXPECT_NEAR(static_cast<double>(snap.Percentile(0.9)), 9000.0, 2300.0);
  EXPECT_EQ(snap.Percentile(1.0), 10000u);
}

TEST(MetricsRegistryTest, RenderPrometheusExposesCountersAndHistograms) {
  MetricsRegistry registry;
  registry.Add(registry.KeyId("test.spills"), 5);
  registry.Record("test.lat_ns", 100);
  registry.Record("test.lat_ns", 200);
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE ssagg_test_spills counter"), std::string::npos)
      << text;
  EXPECT_NE(text.find("ssagg_test_spills 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ssagg_test_lat_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("ssagg_test_lat_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("ssagg_test_lat_ns_sum 300"), std::string::npos);
  EXPECT_NE(text.find("ssagg_test_lat_ns_count 2"), std::string::npos);
}

// -------------------------------------------------------- flight recorder

TEST(FlightRecorderTest, RingWrapsAndDumpParsesAsChromeTrace) {
  std::string dir = ::testing::TempDir() + "ssagg_flight_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(FileSystem::Default().CreateDirectories(dir).ok());

  std::string trace_path = dir + "/trace.json";
  FlightRecorder recorder(FlightRecorder::kRingEvents, trace_path);
  recorder.SetDumpDirectory(dir);
  // Overfill the ring threefold: only the newest kRingEvents may survive.
  constexpr idx_t kTotal = 3 * FlightRecorder::kRingEvents;
  for (idx_t i = 0; i < kTotal; i++) {
    recorder.Record("wrap_event", "test", 'X', /*ts_us=*/i, /*dur_us=*/1,
                    /*arg=*/i);
  }
  EXPECT_EQ(recorder.EventCount(), FlightRecorder::kRingEvents);

  // The anomaly dump and the trace flush share one writer and one schema.
  std::string path = recorder.DumpAnomaly("unit_test");
  ASSERT_FALSE(path.empty());
  ASSERT_TRUE(recorder.FlushTrace().ok());
  for (const std::string &file : {path, trace_path}) {
    SCOPED_TRACE(file);
    auto contents = ReadWholeFile(file);
    ASSERT_TRUE(contents.ok()) << contents.status().ToString();
    auto parsed = Json::Parse(contents.value());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

    const Json *reason = parsed.value().Find("flightReason");
    if (file == path) {
      ASSERT_TRUE(reason != nullptr);
      EXPECT_EQ(reason->AsString(), "unit_test");
    } else {
      EXPECT_TRUE(reason == nullptr);
    }
    // A wrapped ring says how much it lost instead of truncating silently.
    EXPECT_EQ(parsed.value().Find("droppedEvents")->AsUint(),
              2 * FlightRecorder::kRingEvents);
    const Json *events = parsed.value().Find("traceEvents");
    ASSERT_TRUE(events != nullptr && events->IsArray());
    ASSERT_EQ(events->elements().size(), FlightRecorder::kRingEvents);
    // The retained window is exactly the newest events, in order.
    uint64_t expected = kTotal - FlightRecorder::kRingEvents;
    for (const Json &event : events->elements()) {
      EXPECT_EQ(event.Find("name")->AsString(), "wrap_event");
      EXPECT_EQ(event.Find("ph")->AsString(), "X");
      EXPECT_EQ(event.Find("args")->Find("v")->AsUint(), expected);
      expected++;
    }
  }

  recorder.Clear();
  EXPECT_EQ(recorder.EventCount(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorderTest, QueryErrorDumpsFlightRecording) {
  std::string dir = ::testing::TempDir() + "ssagg_flight_err_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(FileSystem::Default().CreateDirectories(dir).ok());
  std::string temp_dir = dir + "/pool";
  ASSERT_TRUE(FileSystem::Default().CreateDirectories(temp_dir).ok());

  FlightRecorder &flight = FlightRecorder::Global();
  std::string saved_dir = flight.dump_directory();
  flight.SetDumpDirectory(dir);
  // The rings are process-global: forget the events of earlier queries in
  // this process, so every planner.strategy in the dump is this query's.
  flight.Clear();

  // A source that fails mid-stream: RunGroupedAggregation must return the
  // error AND leave a parseable flight dump behind. All 100,000 rows are one
  // morsel, so one thread reads up to the failure, and the planner has
  // decided by then (64 keys: the central plan).
  BufferManager bm(temp_dir, 256 * kPageSize);
  TaskExecutor executor(2);
  RangeSource source({LogicalTypeId::kInt64, LogicalTypeId::kInt64}, 100000,
                     [](DataChunk &chunk, idx_t start, idx_t count) {
                       if (start > 20000) {
                         return Status::IOError("synthetic source failure");
                       }
                       for (idx_t i = 0; i < count; i++) {
                         auto row = static_cast<int64_t>(start + i);
                         chunk.column(0).SetValue<int64_t>(i, row % 64);
                         chunk.column(1).SetValue<int64_t>(i, row);
                       }
                       return Status::OK();
                     });
  CountingCollector collector;
  QueryProgress progress;
  HashAggregateConfig config;
  config.planner_sample_rows = 8192;
  auto stats = RunGroupedAggregation(bm, source, {0},
                                     {{AggregateKind::kSum, 1}}, collector,
                                     executor, config, nullptr, &progress);
  flight.SetDumpDirectory(saved_dir);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(progress.Poll().phase, QueryProgress::Phase::kFailed);

  // Exactly the query_error dump, and it parses as Chrome trace JSON with
  // real events in it (the flight recorder runs even without SSAGG_TRACE).
  std::vector<std::string> dumps;
  for (const auto &entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      dumps.push_back(entry.path().string());
    }
  }
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_NE(dumps[0].find("query_error"), std::string::npos) << dumps[0];
  auto contents = ReadWholeFile(dumps[0]);
  ASSERT_TRUE(contents.ok());
  auto parsed = Json::Parse(contents.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json *events = parsed.value().Find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->IsArray());
  EXPECT_GT(events->elements().size(), 0u);
  // The dump carries the planner's decision.
  bool saw_strategy = false;
  for (const Json &event : events->elements()) {
    if (event.Find("name")->AsString() == "planner.strategy") {
      saw_strategy = true;
      EXPECT_EQ(event.Find("ph")->AsString(), "i");
      EXPECT_EQ(event.Find("args")->Find("v")->AsUint(),
                static_cast<uint64_t>(AggregateStrategy::kCentralMerge));
    }
  }
  EXPECT_TRUE(saw_strategy) << "query_error dump lacks planner.strategy";
  std::filesystem::remove_all(dir);
}

TEST(FlightRecorderTest, OomRejectionRecordsTheRefusedRequest) {
  std::string dir = ::testing::TempDir() + "ssagg_flight_oom_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(FileSystem::Default().CreateDirectories(dir).ok());

  // Two pinned pages fill the pool, so nothing can be evicted for an odd-
  // sized third allocation.
  constexpr idx_t kRequest = 777777;
  BufferManager bm(dir, 2 * kPageSize);
  std::shared_ptr<BlockHandle> b0, b1, b2;
  auto h0 = bm.Allocate(kPageSize, &b0);
  auto h1 = bm.Allocate(kPageSize, &b1);
  ASSERT_TRUE(h0.ok() && h1.ok());
  auto refused = bm.Allocate(kRequest, &b2);
  ASSERT_FALSE(refused.ok());
  ASSERT_TRUE(refused.status().IsOutOfMemory());

  FlightRecorder &flight = FlightRecorder::Global();
  std::string saved_dir = flight.dump_directory();
  flight.SetDumpDirectory(dir);
  std::string path = flight.DumpAnomaly("oom_test");
  flight.SetDumpDirectory(saved_dir);
  ASSERT_FALSE(path.empty());
  auto contents = ReadWholeFile(path);
  ASSERT_TRUE(contents.ok());
  auto parsed = Json::Parse(contents.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // The refusal carries the request size; the counters recorded right after
  // it on the same thread say what held the pool.
  // Instants carry their value as args.v, counters as args.value.
  auto value_of = [](const Json &event) -> uint64_t {
    const Json *args = event.Find("args");
    if (args == nullptr) {
      return 0;
    }
    const Json *v = args->Find("v");
    if (v == nullptr) {
      v = args->Find("value");
    }
    return v != nullptr ? v->AsUint() : 0;
  };
  const Json *rejection = nullptr;
  uint64_t memory_used = 0;
  uint64_t pinned = 0;
  for (const Json &event : parsed.value().Find("traceEvents")->elements()) {
    const std::string &name = event.Find("name")->AsString();
    if (name == "oom_rejection" && value_of(event) == kRequest) {
      rejection = &event;
      continue;
    }
    if (rejection == nullptr ||
        event.Find("tid")->AsUint() != rejection->Find("tid")->AsUint()) {
      continue;
    }
    if (name == "bm.memory_used") {
      memory_used = value_of(event);
    } else if (name == "bm.pinned_buffers") {
      pinned = value_of(event);
    }
  }
  ASSERT_TRUE(rejection != nullptr) << "no oom_rejection carrying the request";
  EXPECT_EQ(memory_used, 2 * kPageSize);
  EXPECT_EQ(pinned, 2u);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ thread slots

TEST(ThreadSlotsTest, ThreadChurnReusesSlotsAndStaysExact) {
  // The task executor spawns fresh threads per pipeline: each joined
  // thread's ring and shard must pass to the next thread, with their
  // contents kept, instead of piling up.
  FlightRecorder recorder;
  MetricsRegistry registry;
  idx_t counter = registry.KeyId("test.churn");
  idx_t hist = registry.HistogramId("test.churn_ns");
  constexpr idx_t kCycles = 64;
  for (idx_t i = 0; i < kCycles; i++) {
    std::thread worker([&, i]() {
      recorder.Record("churn", "test", 'X', recorder.NowMicros(), 1, i);
      registry.Add(counter, i + 1);
      registry.Record(hist, i);
    });
    worker.join();
  }
  EXPECT_LE(recorder.RingCount(), 2u);
  EXPECT_LE(registry.ShardCount(), 2u);
  EXPECT_EQ(recorder.EventCount(), kCycles);
  EXPECT_EQ(registry.Value("test.churn"), kCycles * (kCycles + 1) / 2);
  HistogramSnapshot snap = registry.Histogram("test.churn_ns");
  EXPECT_EQ(snap.count, kCycles);
  EXPECT_EQ(snap.sum, kCycles * (kCycles - 1) / 2);
  EXPECT_EQ(snap.max, kCycles - 1);
}

TEST(ThreadSlotsTest, OwnersMayDieBeforeTheirThreads) {
  // Thread exit releases its slots without touching the (destroyed) owner.
  auto recorder = std::make_unique<FlightRecorder>();
  auto registry = std::make_unique<MetricsRegistry>();
  idx_t counter = registry->KeyId("test.orphan");
  idx_t hist = registry->HistogramId("test.orphan_ns");
  std::atomic<int> stage{0};
  std::thread worker([&]() {
    recorder->Record("orphan", "test", 'i', 0, 0, kInvalidIndex);
    registry->Add(counter, 1);
    registry->Record(hist, 1);
    stage.store(1);
    while (stage.load() != 2) {
      std::this_thread::yield();
    }
  });
  while (stage.load() != 1) {
    std::this_thread::yield();
  }
  EXPECT_EQ(registry->Value("test.orphan"), 1u);
  recorder.reset();
  registry.reset();
  stage.store(2);
  worker.join();
}

// ---------------------------------------------------------------- progress

TEST(QueryProgressTest, MonotoneWhilePolledDuringSpillingQuery) {
  std::string temp_dir = ::testing::TempDir() + "ssagg_progress_" +
                         std::to_string(::getpid());
  ASSERT_TRUE(FileSystem::Default().CreateDirectories(temp_dir).ok());
  BufferManager bm(temp_dir, 160 * kPageSize);
  TaskExecutor executor(2);
  constexpr idx_t kRows = 2000000;
  RangeSource source({LogicalTypeId::kInt64, LogicalTypeId::kInt64}, kRows,
                     [](DataChunk &chunk, idx_t start, idx_t count) {
                       for (idx_t i = 0; i < count; i++) {
                         auto row = static_cast<int64_t>(start + i);
                         chunk.column(0).SetValue<int64_t>(i, row);
                         chunk.column(1).SetValue<int64_t>(i, row * 2);
                       }
                       return Status::OK();
                     });
  CountingCollector collector;
  HashAggregateConfig config;
  config.phase1_capacity = 1024;
  config.radix_bits = 3;

  QueryProgress progress;
  std::atomic<bool> stop{false};
  std::atomic<idx_t> polls{0};
  std::thread poller([&]() {
    uint64_t last_rows = 0;
    uint8_t last_phase = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      QueryProgress::Snapshot snap = progress.Poll();
      EXPECT_GE(snap.rows_consumed, last_rows) << "rows went backwards";
      EXPECT_GE(static_cast<uint8_t>(snap.phase), last_phase)
          << "phase went backwards";
      double fraction = snap.Fraction();
      EXPECT_GE(fraction, 0.0);
      EXPECT_LE(fraction, 1.0);
      last_rows = snap.rows_consumed;
      last_phase = static_cast<uint8_t>(snap.phase);
      polls.fetch_add(1);
      std::this_thread::yield();
    }
  });

  auto stats = RunGroupedAggregation(bm, source, {0},
                                     {{AggregateKind::kSum, 1}}, collector,
                                     executor, config, nullptr, &progress);
  stop.store(true);
  poller.join();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(polls.load(), 0u);

  QueryProgress::Snapshot final_snap = progress.Poll();
  EXPECT_EQ(final_snap.phase, QueryProgress::Phase::kDone);
  EXPECT_EQ(final_snap.rows_consumed, kRows);
  EXPECT_EQ(final_snap.estimated_total_rows, kRows);
  EXPECT_GT(final_snap.estimated_groups, 0u) << "planner estimate missing";
  EXPECT_GT(final_snap.bytes_spilled, 0u) << "query was expected to spill";
  // The spilling query must surface nonzero spill-write latency tails.
  auto it = final_snap.histograms.find("io.spill_write_latency_ns");
  ASSERT_TRUE(it != final_snap.histograms.end())
      << "spill write latency histogram missing from progress snapshot";
  EXPECT_GT(it->second.count, 0u);
  EXPECT_GT(it->second.Percentile(0.99), 0u);

  // The snapshot serializes to parseable JSON.
  auto parsed = Json::Parse(final_snap.ToJson().Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().Find("rows_consumed")->AsUint(), kRows);
}

}  // namespace
}  // namespace ssagg
