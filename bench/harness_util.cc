#include "harness_util.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/file_system.h"

namespace ssagg {
namespace bench {

namespace {
idx_t EnvIdx(const char *name, idx_t fallback) {
  const char *value = std::getenv(name);
  return value ? static_cast<idx_t>(std::strtoull(value, nullptr, 10))
               : fallback;
}
double EnvDouble(const char *name, double fallback) {
  const char *value = std::getenv(name);
  return value ? std::strtod(value, nullptr) : fallback;
}
}  // namespace

BenchOptions BenchOptions::FromEnv() {
  BenchOptions options;
  options.threads = EnvIdx("SSAGG_BENCH_THREADS", options.threads);
  options.timeout_seconds =
      EnvDouble("SSAGG_BENCH_TIMEOUT", options.timeout_seconds);
  options.memory_limit =
      EnvIdx("SSAGG_BENCH_MEMORY_MB", options.memory_limit >> 20) << 20;
  options.scale_cap = EnvIdx("SSAGG_BENCH_SF_CAP", options.scale_cap);
  options.runs = EnvIdx("SSAGG_BENCH_RUNS", options.runs);
  if (const char *dir = std::getenv("SSAGG_BENCH_TMPDIR")) {
    options.temp_dir = dir;
  }
  options.radix_bits = EnvIdx("SSAGG_BENCH_RADIX_BITS", options.radix_bits);
  options.phase1_capacity =
      EnvIdx("SSAGG_BENCH_PHASE1_CAPACITY", options.phase1_capacity);
  return options;
}

Json BenchOptions::ToJson() const {
  Json object = Json::Object();
  object.Set("threads", Json(static_cast<uint64_t>(threads)));
  object.Set("timeout_seconds", Json(timeout_seconds));
  object.Set("memory_limit", Json(static_cast<uint64_t>(memory_limit)));
  object.Set("scale_cap", Json(static_cast<uint64_t>(scale_cap)));
  object.Set("runs", Json(static_cast<uint64_t>(runs)));
  object.Set("temp_dir", Json(temp_dir));
  object.Set("radix_bits", Json(static_cast<uint64_t>(radix_bits)));
  object.Set("phase1_capacity",
             Json(static_cast<uint64_t>(phase1_capacity)));
  return object;
}

const char *SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kRobust:
      return "Robust (ours)";
    case SystemKind::kClickHouse:
      return "ClickHouse-model";
    case SystemKind::kHyPer:
      return "HyPer-model";
    case SystemKind::kUmbra:
      return "Umbra-model";
  }
  return "?";
}

const char *SystemShortName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kRobust:
      return "Du";
    case SystemKind::kClickHouse:
      return "Cl";
    case SystemKind::kHyPer:
      return "Hy";
    case SystemKind::kUmbra:
      return "Um";
  }
  return "?";
}

const std::vector<SystemKind> &AllSystems() {
  static const std::vector<SystemKind> *systems = new std::vector<SystemKind>{
      SystemKind::kRobust, SystemKind::kClickHouse, SystemKind::kHyPer,
      SystemKind::kUmbra};
  return *systems;
}

std::string QueryResult::Cell() const {
  if (tag != ' ') {
    return std::string(1, tag);
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), seconds < 10 ? "%.2f" : "%.1f",
                seconds);
  return buffer;
}

Json SnapshotJson(const BufferManagerSnapshot &snapshot) {
  Json object = Json::Object();
  auto set = [&](const char *key, idx_t value) {
    object.Set(key, Json(static_cast<uint64_t>(value)));
  };
  set("memory_used", snapshot.memory_used);
  set("memory_limit", snapshot.memory_limit);
  set("persistent_bytes_in_memory", snapshot.persistent_bytes_in_memory);
  set("temporary_bytes_in_memory", snapshot.temporary_bytes_in_memory);
  set("non_paged_bytes", snapshot.non_paged_bytes);
  set("temp_file_size", snapshot.temp_file_size);
  set("temp_file_peak", snapshot.temp_file_peak);
  set("evicted_persistent_count", snapshot.evicted_persistent_count);
  set("evicted_temporary_count", snapshot.evicted_temporary_count);
  set("reused_buffers", snapshot.reused_buffers);
  set("temp_writes", snapshot.temp_writes);
  set("temp_reads", snapshot.temp_reads);
  set("spill_bytes_written", snapshot.spill_bytes_written);
  set("spill_bytes_read", snapshot.spill_bytes_read);
  set("spill_raw_bytes", snapshot.spill_raw_bytes);
  set("spill_coalesced_writes", snapshot.spill_coalesced_writes);
  set("spill_coalesced_pages", snapshot.spill_coalesced_pages);
  set("prefetch_issued", snapshot.prefetch_issued);
  set("prefetch_completed", snapshot.prefetch_completed);
  object.Set("spill_write_seconds", Json(snapshot.spill_write_seconds));
  object.Set("spill_read_seconds", Json(snapshot.spill_read_seconds));
  set("spill_slot_reuses", snapshot.spill_slot_reuses);
  set("spill_variable_files", snapshot.spill_variable_files);
  set("oom_rejections", snapshot.oom_rejections);
  set("frame_pool_bytes", snapshot.frame_pool_bytes);
  set("frames_mapped", snapshot.frames_mapped);
  return object;
}

Json QueryResult::ToJson() const {
  Json object = Json::Object();
  object.Set("seconds", Json(seconds));
  object.Set("tag", Json(std::string(1, tag)));
  object.Set("result_rows", Json(static_cast<uint64_t>(result_rows)));
  if (skipped) {
    object.Set("skipped", Json(true));
  }
  object.Set("snapshot", SnapshotJson(snapshot));
  object.Set("profile", profile.ToJson());
  return object;
}

std::string WriteResultsJson(const std::string &bench_name,
                             const BenchOptions &options, Json payload) {
  Json document = Json::Object();
  document.Set("bench", Json(bench_name));
  document.Set("options", options.ToJson());
  for (const auto &member : payload.members()) {
    document.Set(member.first, member.second);
  }
  Status status = FileSystem::Default().CreateDirectories("results");
  std::string path = "results/" + bench_name + ".json";
  std::FILE *f = status.ok() ? std::fopen(path.c_str(), "w") : nullptr;
  if (f == nullptr) {
    SSAGG_LOG_ERROR("cannot write %s", path.c_str());
    return "";
  }
  std::string text = document.Dump(2);
  text.push_back('\n');
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return path;
}

namespace {

char TagFromStatus(const Status &status) {
  if (status.ok()) {
    return ' ';
  }
  if (status.IsTimeout()) {
    return 'T';
  }
  if (status.IsAborted() || status.IsOutOfMemory()) {
    return 'A';
  }
  return 'E';
}

QueryResult RunOnce(SystemKind system, const tpch::LineitemGenerator &gen,
                    const tpch::GroupingQuery &query,
                    const BenchOptions &options) {
  QueryResult result;
  BufferManager bm(options.temp_dir, options.memory_limit);
  TaskExecutor executor(options.threads);
  executor.SetDeadline(options.timeout_seconds);
  auto source = gen.MakeSource(query.projection);
  CountingCollector collector;

  // Attribute registry growth to this query for every system model; the
  // robust path gets the richer profile from RunGroupedAggregation itself.
  RegistryDelta delta;
  bool profile_filled = false;

  auto start = std::chrono::steady_clock::now();
  Status status;
  switch (system) {
    case SystemKind::kRobust: {
      auto stats = RunGroupedAggregation(bm, *source, query.group_columns,
                                         query.aggregates, collector,
                                         executor, options.AggConfig(),
                                         &result.profile);
      status = stats.ok() ? Status::OK() : stats.status();
      profile_filled = true;
      break;
    }
    case SystemKind::kUmbra: {
      status = RunInMemoryAggregation(bm, *source, query.group_columns,
                                      query.aggregates, collector, executor,
                                      options.AggConfig(), nullptr);
      break;
    }
    case SystemKind::kHyPer: {
      SwitchExternalConfig config;
      config.in_memory = options.AggConfig();
      config.sort.temp_directory = options.temp_dir;
      config.sort.run_memory_bytes =
          std::max<idx_t>(options.memory_limit / (options.threads * 4),
                          4ULL << 20);
      status = RunSwitchExternalAggregation(bm, *source, query.group_columns,
                                            query.aggregates, collector,
                                            executor, config, nullptr);
      break;
    }
    case SystemKind::kClickHouse: {
      TwoLevelSpillAggregate::Config config;
      config.temp_directory = options.temp_dir;
      status = RunSpillPartitionAggregation(bm, *source, query.group_columns,
                                            query.aggregates, collector,
                                            executor, config, nullptr);
      break;
    }
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.tag = TagFromStatus(status);
  result.result_rows = collector.TotalRows();
  result.snapshot = bm.Snapshot();
  if (!profile_filled) {
    result.profile.threads = executor.num_threads();
    result.profile.total_seconds = result.seconds;
    delta.AddTo(result.profile);
    const ExecutorStats &exec = executor.stats();
    result.profile.AddTiming("exec.worker_seconds", exec.worker_seconds);
    result.profile.AddTiming("exec.source_seconds", exec.source_seconds);
    result.profile.AddTiming("exec.sink_seconds", exec.sink_seconds);
    result.profile.AddTiming("exec.combine_seconds", exec.combine_seconds);
  }
  return result;
}

}  // namespace

QueryResult RunGroupingQuery(SystemKind system,
                             const tpch::LineitemGenerator &generator,
                             const tpch::Grouping &grouping, bool wide,
                             const BenchOptions &options) {
  auto query = tpch::BuildGroupingQuery(grouping, wide);
  QueryResult best;
  for (idx_t run = 0; run < options.runs; run++) {
    QueryResult r = RunOnce(system, generator, query, options);
    r.profile.query = std::string(SystemShortName(system)) + ":" +
                      grouping.Name() + (wide ? "/wide" : "/narrow");
    if (run == 0 || (r.ok() && r.seconds < best.seconds)) {
      best = r;
    }
    if (!r.ok()) {
      break;  // failures are deterministic; no point repeating
    }
  }
  return best;
}

std::string NormalizedGeoMeanCell(const std::vector<QueryResult> &system,
                                  const std::vector<QueryResult> &baseline) {
  double log_sum = 0;
  idx_t count = 0;
  for (idx_t i = 0; i < system.size(); i++) {
    if (!system[i].ok()) {
      return std::string(1, system[i].tag == ' ' ? 'A' : system[i].tag);
    }
    if (!baseline[i].ok() || baseline[i].seconds <= 0 ||
        system[i].seconds <= 0) {
      continue;
    }
    log_sum += std::log(system[i].seconds / baseline[i].seconds);
    count++;
  }
  if (count == 0) {
    return "-";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", std::exp(log_sum / count));
  return buffer;
}

void PrintRule(const std::vector<int> &widths) {
  for (int w : widths) {
    std::fputc('+', stdout);
    for (int i = 0; i < w + 2; i++) {
      std::fputc('-', stdout);
    }
  }
  std::puts("+");
}

void PrintRow(const std::vector<std::string> &cells,
              const std::vector<int> &widths) {
  for (idx_t i = 0; i < cells.size(); i++) {
    std::printf("| %*s ", widths[i], cells[i].c_str());
  }
  std::puts("|");
}

std::string FormatBytes(idx_t bytes) {
  char buffer[32];
  if (bytes >= (1ULL << 30)) {
    std::snprintf(buffer, sizeof(buffer), "%.2f GiB",
                  static_cast<double>(bytes) / (1ULL << 30));
  } else if (bytes >= (1ULL << 20)) {
    std::snprintf(buffer, sizeof(buffer), "%.1f MiB",
                  static_cast<double>(bytes) / (1ULL << 20));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.1f KiB",
                  static_cast<double>(bytes) / 1024.0);
  }
  return buffer;
}

}  // namespace bench
}  // namespace ssagg
