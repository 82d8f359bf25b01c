// Cardinality sweep for the adaptive strategy planner (DESIGN.md section
// 11): runs the full aggregation operator over group counts 10 .. 10M in
// dense and sparse key distributions, once per forced strategy (central,
// radix) and once with the adaptive planner, all with ample memory so the
// strategies are compared without spill noise.
//
// The interesting readouts: at low cardinality the right-sized central
// thread tables stay cache-resident and beat the radix plan's
// materialize-everything pipeline; at high cardinality the radix plan wins
// and the adaptive run must track it (its sampling overhead is the gap).
// The adaptive column also reports which strategy was picked, the
// planner's cardinality estimate — drift against the truth column is a
// calibration bug — and the thread count the cost models priced with.
//
// Env: SSAGG_BENCH_MAX_GROUPS caps the group axis (default 10M);
// SSAGG_BENCH_THREADS / SSAGG_BENCH_TMPDIR as usual. Writes
// results/bench_strategy_adaptive.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/file_system.h"
#include "harness_util.h"

using namespace ssagg;         // NOLINT(build/namespaces)
using namespace ssagg::bench;  // NOLINT(build/namespaces)

namespace {

struct RunResult {
  double seconds = 0;
  double rows_per_sec = 0;
  idx_t groups = 0;
  HashAggregateStats stats;
};

/// Deterministic pre-generated key stream (dense: uniform in [0, groups);
/// sparse: `groups` distinct random 64-bit values), so the measured source
/// is a memcpy and the aggregation pipeline dominates the signal.
std::vector<int64_t> MakeKeys(bool sparse, idx_t groups, idx_t rows) {
  std::vector<int64_t> keys;
  keys.reserve(rows);
  for (idx_t row = 0; row < rows; row++) {
    uint64_t g = HashUint64(row) % groups;
    keys.push_back(static_cast<int64_t>(
        sparse ? HashUint64(g ^ 0xabcdef12345678ULL) : g));
  }
  return keys;
}

RunResult RunOnce(AggregateStrategy strategy, const std::vector<int64_t> &keys,
                  const BenchOptions &options) {
  // Ample memory: the sweep compares merge strategies, not spill behavior.
  BufferManager bm(options.temp_dir, 4096ULL << 20);
  TaskExecutor executor(options.threads);
  idx_t rows = keys.size();
  static const std::vector<int64_t> kOnes(kVectorSize, 1);
  RangeSource source(
      {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, rows,
      [&keys](DataChunk &chunk, idx_t start, idx_t count) {
        std::memcpy(chunk.column(0).data(), keys.data() + start,
                    count * sizeof(int64_t));
        std::memcpy(chunk.column(1).data(), kOnes.data(),
                    count * sizeof(int64_t));
        return Status::OK();
      });
  CountingCollector collector;
  // Engine defaults, NOT the spill-tuned bench AggConfig: the baseline this
  // sweep pins is the static default plan (2^17-entry phase-1 tables sized
  // for the general case); the planner's right-sized tables are the point.
  HashAggregateConfig config;
  config.strategy = strategy;
  auto start = std::chrono::steady_clock::now();
  auto stats = RunGroupedAggregation(bm, source, {0},
                                     {{AggregateKind::kSum, 1}}, collector,
                                     executor, config);
  auto end = std::chrono::steady_clock::now();
  if (!stats.ok()) {
    SSAGG_LOG_ERROR("%s failed: %s", AggregateStrategyName(strategy),
                    stats.status().ToString().c_str());
    std::exit(1);
  }
  RunResult result;
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.rows_per_sec =
      result.seconds > 0 ? static_cast<double>(rows) / result.seconds : 0;
  result.groups = collector.TotalRows();
  result.stats = stats.MoveValue();
  return result;
}

/// Median-of-N wrapper (SSAGG_BENCH_RUNS; the paper uses the median of 5):
/// this container's timings are noisy enough that single runs routinely
/// swing +-30%.
RunResult RunOne(AggregateStrategy strategy, const std::vector<int64_t> &keys,
                 const BenchOptions &options) {
  std::vector<RunResult> runs;
  for (idx_t i = 0; i < std::max<idx_t>(options.runs, 1); i++) {
    runs.push_back(RunOnce(strategy, keys, options));
  }
  std::sort(runs.begin(), runs.end(),
            [](const RunResult &a, const RunResult &b) {
              return a.seconds < b.seconds;
            });
  return runs[runs.size() / 2];
}

idx_t EnvIdx(const char *name, idx_t fallback) {
  const char *value = std::getenv(name);
  return value != nullptr ? static_cast<idx_t>(std::strtoull(value, nullptr,
                                                             10))
                          : fallback;
}

std::string Fmt(const char *format, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

Json RunJson(const RunResult &r) {
  Json object = Json::Object();
  object.Set("seconds", r.seconds);
  object.Set("rows_per_sec", r.rows_per_sec);
  object.Set("result_groups", r.groups);
  object.Set("materialized_rows", r.stats.materialized_rows);
  object.Set("chosen_strategy",
             AggregateStrategyName(r.stats.planner.strategy));
  object.Set("advised_strategy",
             AggregateStrategyName(r.stats.planner.advised));
  object.Set("estimated_groups", r.stats.planner.estimated_groups);
  object.Set("planner_threads", r.stats.planner.threads);
  object.Set("sampling_seconds", r.stats.sampling_seconds);
  object.Set("phase1_resets", r.stats.phase1_resets);
  return object;
}

}  // namespace

int main() {
  BenchOptions options = BenchOptions::FromEnv();
  idx_t max_groups = EnvIdx("SSAGG_BENCH_MAX_GROUPS", 10'000'000);
  (void)FileSystem::Default().CreateDirectories(options.temp_dir);

  std::vector<idx_t> group_counts = {10, 1'000, 100'000, 1'000'000,
                                     10'000'000};
  const std::vector<AggregateStrategy> forced = {
      AggregateStrategy::kCentralMerge, AggregateStrategy::kRadixMerge};

  std::printf("Strategy sweep: forced central/radix vs the adaptive "
              "planner\n(%llu threads, SUM over int64 keys, ample "
              "memory)\n\n",
              static_cast<unsigned long long>(options.threads));
  std::vector<int> widths = {7, 9, 8, 10, 10, 10, 9, 12, 9};
  PrintRule(widths);
  PrintRow({"dist", "groups", "rows M", "central s", "radix s", "adapt s",
            "picked", "est groups", "priced T"},
           widths);
  PrintRule(widths);

  Json configs = Json::Array();
  for (bool sparse : {false, true}) {
    for (idx_t groups : group_counts) {
      if (groups > max_groups) {
        continue;
      }
      idx_t rows = std::max<idx_t>(idx_t(1) << 22, 2 * groups);
      auto keys = MakeKeys(sparse, groups, rows);
      std::vector<RunResult> results;
      for (AggregateStrategy strategy : forced) {
        results.push_back(RunOne(strategy, keys, options));
      }
      RunResult adaptive = RunOne(AggregateStrategy::kAdaptive, keys, options);

      PrintRow({sparse ? "sparse" : "dense", std::to_string(groups),
                Fmt("%.1f", static_cast<double>(rows) / 1e6),
                Fmt("%.2f", results[0].seconds),
                Fmt("%.2f", results[1].seconds),
                Fmt("%.2f", adaptive.seconds),
                AggregateStrategyName(adaptive.stats.planner.strategy),
                std::to_string(adaptive.stats.planner.estimated_groups),
                std::to_string(adaptive.stats.planner.threads)},
               widths);
      std::fflush(stdout);

      Json config = Json::Object();
      config.Set("distribution", sparse ? "sparse" : "dense");
      config.Set("groups", groups);
      config.Set("rows", rows);
      config.Set("central", RunJson(results[0]));
      config.Set("radix", RunJson(results[1]));
      config.Set("adaptive", RunJson(adaptive));
      configs.Push(std::move(config));
    }
  }
  PrintRule(widths);
  std::printf("\n'picked' / 'est groups' / 'priced T' come from the "
              "adaptive run's planner\ndecision; the forced columns share "
              "the same data and configuration. Adaptive\nshould track the "
              "per-row winner, paying only the sampling window.\n");

  Json payload = Json::Object();
  payload.Set("configs", std::move(configs));
  return WriteResultsJson("bench_strategy_adaptive", options,
                          std::move(payload))
                 .empty()
             ? 1
             : 0;
}
