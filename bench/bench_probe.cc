// Micro-benchmark for the grouped-aggregate probe pipeline: drives
// GroupedAggregateHashTable::AddChunk directly (no operator, no TPC-H data)
// so the measured loop is find-or-create-group plus the count update and
// nothing else. Two key distributions:
//
//   dense   keys uniform in [0, G)           -- the classic grouping shape
//   sparse  G distinct random 64-bit keys    -- no locality in key values
//
// crossed with group counts 10 .. 10M, each run through the round-based
// probe pipeline. The small group counts stay in L1/L2; from ~1M groups the
// pointer table and the materialized rows exceed the last-level cache and
// every probe is a memory stall — the regime the prefetch + selection-vector
// pipeline targets. Its speedup over a row-at-a-time probe is recorded in
// DESIGN.md section 6 and EXPERIMENTS.md.
//
// Prints rows/sec plus the pipeline counters and writes
// results/bench_probe.json (relative to the working directory).
//
// Env: SSAGG_BENCH_MAX_GROUPS caps the group-count axis (default 10M),
// SSAGG_BENCH_TMPDIR overrides the buffer-manager temp dir.

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
  GroupedAggregateHashTable::Stats stats;
};

/// One timed build: aggregates `keys` (count(*) per key) into a fresh
/// resizable table. The timed region is the AddChunk loop only.
RunResult RunProbe(const std::vector<int64_t> &keys,
                   const std::string &temp_dir) {
  // Keys + hash column + count state: 32 B/row; size the limit so even the
  // 10M-group run never spills (spill I/O would swamp the probe signal).
  BufferManager bm(temp_dir, 4096ULL << 20);
  GroupedAggregateHashTable::Config config;
  config.capacity = 1ULL << 14;  // grows by doubling: exercises Resize
  config.radix_bits = 4;         // exercises the partition-aware append
  config.resizable = true;
  auto ht_res = GroupedAggregateHashTable::Create(
      bm, {LogicalTypeId::kInt64}, {0},
      {{AggregateKind::kCountStar, kInvalidIndex}}, config);
  if (!ht_res.ok()) {
    SSAGG_LOG_ERROR("create failed: %s",
                    ht_res.status().ToString().c_str());
    std::exit(1);
  }
  auto ht = ht_res.MoveValue();

  DataChunk input({LogicalTypeId::kInt64});
  auto start = std::chrono::steady_clock::now();
  for (idx_t offset = 0; offset < keys.size(); offset += kVectorSize) {
    idx_t count = std::min<idx_t>(kVectorSize, keys.size() - offset);
    std::memcpy(input.column(0).data(), keys.data() + offset,
                count * sizeof(int64_t));
    input.SetCount(count);
    Status status = ht->AddChunk(input);
    if (!status.ok()) {
      SSAGG_LOG_ERROR("AddChunk failed: %s", status.ToString().c_str());
      std::exit(1);
    }
  }
  auto end = std::chrono::steady_clock::now();

  RunResult result;
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.rows_per_sec =
      result.seconds > 0 ? static_cast<double>(keys.size()) / result.seconds
                         : 0;
  result.groups = ht->Count();
  result.stats = ht->stats();
  return result;
}

/// Deterministic key stream: dense draws uniformly from [0, groups);
/// sparse draws from `groups` distinct random 64-bit values.
std::vector<int64_t> MakeKeys(bool sparse, idx_t groups, idx_t rows) {
  RandomEngine rng(0x5eedULL + groups * 2 + (sparse ? 1 : 0));
  std::vector<int64_t> keyspace;
  if (sparse) {
    keyspace.reserve(groups);
    for (idx_t i = 0; i < groups; i++) {
      keyspace.push_back(static_cast<int64_t>(rng.NextUint64()));
    }
  }
  std::vector<int64_t> keys;
  keys.reserve(rows);
  for (idx_t i = 0; i < rows; i++) {
    idx_t g = rng.NextRange(groups);
    keys.push_back(sparse ? keyspace[g] : static_cast<int64_t>(g));
  }
  return keys;
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
  const auto &s = r.stats;
  Json object = Json::Object();
  object.Set("seconds", Json(r.seconds));
  object.Set("rows_per_sec", Json(r.rows_per_sec));
  object.Set("groups", Json(static_cast<uint64_t>(r.groups)));
  object.Set("probe_steps", Json(s.probe_steps));
  object.Set("probe_rounds", Json(s.probe_rounds));
  object.Set("prefetches", Json(s.prefetches));
  object.Set("key_compares", Json(s.key_compares));
  object.Set("key_compare_misses", Json(s.key_compare_misses));
  object.Set("inserts", Json(s.inserts));
  object.Set("resizes", Json(s.resizes));
  return object;
}

}  // namespace

int main() {
  idx_t max_groups = EnvIdx("SSAGG_BENCH_MAX_GROUPS", 10'000'000);
  const char *tmp_env = std::getenv("SSAGG_BENCH_TMPDIR");
  std::string temp_dir =
      tmp_env != nullptr ? std::string(tmp_env) : "/tmp/ssagg_bench_probe";
  (void)FileSystem::Default().CreateDirectories(temp_dir);

  std::vector<idx_t> group_counts = {10, 1'000, 100'000, 1'000'000,
                                     10'000'000};
  std::printf("Probe pipeline micro-benchmark: find-or-create-groups\n"
              "(resizable table, radix_bits=4, count(*) per int64 key)\n\n");
  std::vector<int> widths = {7, 9, 9, 9, 8, 12};
  PrintRule(widths);
  PrintRow({"dist", "groups", "rows M", "M rows/s", "rounds", "prefetches"},
           widths);
  PrintRule(widths);

  Json configs = Json::Array();
  for (bool sparse : {false, true}) {
    for (idx_t groups : group_counts) {
      if (groups > max_groups) {
        continue;
      }
      idx_t rows = std::max<idx_t>(idx_t(1) << 22, 2 * groups);
      const char *distribution = sparse ? "sparse" : "dense";
      RunResult run = RunProbe(MakeKeys(sparse, groups, rows), temp_dir);
      PrintRow({distribution, std::to_string(groups),
                Fmt("%.1f", static_cast<double>(rows) / 1e6),
                Fmt("%.1f", run.rows_per_sec / 1e6),
                std::to_string(run.stats.probe_rounds),
                std::to_string(run.stats.prefetches)},
               widths);
      Json config = Json::Object();
      config.Set("distribution", Json(distribution));
      config.Set("groups", Json(static_cast<uint64_t>(groups)));
      config.Set("rows", Json(static_cast<uint64_t>(rows)));
      config.Set("run", RunJson(run));
      configs.Push(std::move(config));
    }
  }
  PrintRule(widths);

  Json payload = Json::Object();
  payload.Set("vector_size", Json(static_cast<uint64_t>(kVectorSize)));
  payload.Set("configs", std::move(configs));
  return WriteResultsJson("bench_probe", BenchOptions::FromEnv(),
                          std::move(payload))
                 .empty()
             ? 1
             : 0;
}
