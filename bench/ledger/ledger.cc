// Aggregation ledger program (see README.md next to this file). One process
// runs one workload and prints its raw measurements as one JSON object on
// stdout; run.py pools several processes into the ledger's metrics.
//
//   ssagg_ledger --workload W --seed S --oracle
//   ssagg_ledger --workload W --seed S --queries N --expect ROWS:CHECKSUM
//                --temp-dir DIR [--deadline-s T] [--traced --trace-file PATH]
//
// A measuring process builds the system objects and runs one cold query
// (setup_s), runs kWarmupQueries unmeasured queries, then the measured
// window of N queries (fewer if --deadline-s passes first). Every query's
// result is checked against the oracle's row count and checksum. --traced
// replaces the plain query path with timed wrappers and in-memory spans and
// reports per-layer numbers under "layers".
//
// Only public library APIs are used. Engine counters are read by name from
// QueryProfile and the metrics registry, so a renamed counter shows up as a
// null layer metric instead of breaking this build.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "ssagg/ssagg.h"

using namespace ssagg;  // NOLINT(build/namespaces)

namespace {

// ---- Workloads ------------------------------------------------------------

struct Workload {
  const char *name;
  int grouping;         // Table I grouping id
  bool wide;            // plus ANY_VALUE of every other lineitem column
  double scale_factor;  // one unit is 60,012 lineitem rows
  idx_t memory_mib;
  bool service;  // closed loop of kServiceClients through one QueryService
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    {"inmem_unique", 13, false, 32, 192, false},
    {"spill_wide", 13, true, 6, 48, false},
    {"lowcard_scan", 3, false, 64, 192, false},
    {"service_contended", 13, false, 16, 64, true},
};
constexpr idx_t kQueryThreads = 2;  // single-query workloads
constexpr idx_t kServiceClients = 4;
constexpr idx_t kServiceSlots = 2;
constexpr idx_t kServiceThreads = 1;  // workers per session
constexpr idx_t kWarmupQueries = 2;
// --seed S shifts the generated row range by S * 2^28 rows: new keys, same
// distributions and group counts.
constexpr idx_t kSeedRowShift = idx_t{1} << 28;
constexpr double kMiB = 1024.0 * 1024.0;

// ---- Clocks ---------------------------------------------------------------

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}
int64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
double Sec(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---- Order-independent result checksum -------------------------------------

inline uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string_view ValueBytes(const Vector &vector, idx_t row) {
  if (vector.type() == LogicalTypeId::kVarchar) {
    return vector.GetString(row).View();
  }
  return {reinterpret_cast<const char *>(vector.data() + row * vector.width()),
          vector.width()};
}

// One multiply per 8-byte word (a bijection of the running state for each
// word); RowHashes finishes every row with Mix. The checksum runs inside the
// measured query, so it is kept cheap.
inline uint64_t Absorb(uint64_t h, uint64_t word) {
  return (h ^ word) * 0x9e3779b97f4a7c15ULL;
}

uint64_t AbsorbBytes(uint64_t h, std::string_view bytes) {
  h = Absorb(h, bytes.size());
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    h = Absorb(h, word);
  }
  if (i < bytes.size()) {
    uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, bytes.size() - i);
    h = Absorb(h, word);
  }
  return h;
}

/// Per-row hash of the first `columns` columns. A result's checksum is the
/// wrapping sum over its rows, so it does not depend on emit order.
void RowHashes(const DataChunk &chunk, idx_t columns, uint64_t *out) {
  std::fill(out, out + chunk.size(), 0);
  for (idx_t c = 0; c < columns; c++) {
    const Vector &vector = chunk.column(c);
    if (vector.type() == LogicalTypeId::kVarchar || vector.width() > 8) {
      for (idx_t r = 0; r < chunk.size(); r++) {
        out[r] = AbsorbBytes(out[r], ValueBytes(vector, r));
      }
      continue;
    }
    for (idx_t r = 0; r < chunk.size(); r++) {
      uint64_t word = 0;
      std::memcpy(&word, vector.data() + r * vector.width(), vector.width());
      out[r] = Absorb(out[r], word);
    }
  }
  for (idx_t r = 0; r < chunk.size(); r++) {
    out[r] = Mix(out[r]);
  }
}

/// What a correct result looks like: its row count and the checksum of its
/// group keys. ANY_VALUE columns are not checked: any row's value is
/// correct.
struct Expected {
  uint64_t rows = 0;
  uint64_t checksum = 0;
  bool valid = false;
};

// ---- Inputs ---------------------------------------------------------------

struct Input {
  Input(const Workload &w, uint64_t seed)
      : workload(w),
        generator(w.scale_factor),
        grouping(tpch::TableIGroupings()[w.grouping - 1]),
        query(tpch::BuildGroupingQuery(grouping, w.wide)),
        row_offset(seed * kSeedRowShift) {}

  [[nodiscard]] idx_t rows() const { return generator.RowCount(); }
  [[nodiscard]] idx_t key_columns() const { return query.group_columns.size(); }

  [[nodiscard]] std::unique_ptr<RangeSource> MakeSource() const {
    return std::make_unique<RangeSource>(
        tpch::LineitemGenerator::ColumnTypes(query.projection), rows(),
        [this](DataChunk &chunk, idx_t start, idx_t count) {
          return generator.FillChunk(chunk, query.projection,
                                     row_offset + start, count);
        });
  }

  const Workload &workload;
  tpch::LineitemGenerator generator;
  tpch::Grouping grouping;
  tpch::GroupingQuery query;
  idx_t row_offset;
};

/// Single-threaded reference: distinct group keys in a std::unordered_set,
/// independent of every engine data structure. The thin queries select only
/// their keys and the wide ones add only ANY_VALUE columns, so the keys are
/// all there is to check.
Result<Expected> RunOracle(const Input &input) {
  const std::vector<idx_t> &columns = input.grouping.columns;
  DataChunk chunk(tpch::LineitemGenerator::ColumnTypes(columns));
  std::vector<uint64_t> hashes(kVectorSize);
  std::unordered_set<std::string> groups;
  std::string key;
  Expected expected;
  for (idx_t start = 0; start < input.rows(); start += kVectorSize) {
    idx_t count = std::min<idx_t>(kVectorSize, input.rows() - start);
    chunk.Reset();
    SSAGG_RETURN_NOT_OK(input.generator.FillChunk(
        chunk, columns, input.row_offset + start, count));
    RowHashes(chunk, columns.size(), hashes.data());
    for (idx_t r = 0; r < count; r++) {
      key.clear();
      for (idx_t c = 0; c < columns.size(); c++) {
        std::string_view bytes = ValueBytes(chunk.column(c), r);
        auto size = static_cast<uint32_t>(bytes.size());
        key.append(reinterpret_cast<const char *>(&size), sizeof(size));
        key.append(bytes);
      }
      if (groups.insert(key).second) {
        expected.checksum += hashes[r];
      }
    }
  }
  expected.rows = groups.size();
  expected.valid = true;
  return expected;
}

// ---- Spans ----------------------------------------------------------------

struct Span {
  const char *name;
  uint64_t query;
  uint64_t id;
  uint64_t parent;  // 0: root
  uint32_t tid;
  int64_t start_ns;
  int64_t end_ns;
};

uint64_t NextSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tag = next.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

/// Thread-safe in-memory span buffer of one query.
class SpanLog {
 public:
  explicit SpanLog(uint64_t query) : query_(query) {}

  void Add(const char *name, uint64_t id, uint64_t parent, int64_t start_ns,
           int64_t end_ns) {
    std::lock_guard<std::mutex> guard(mutex_);
    spans_.push_back({name, query_, id, parent, ThreadTag(), start_ns, end_ns});
  }

  /// Seconds of [begin, end] covered by the union of the named spans.
  [[nodiscard]] double Covered(const char *name, int64_t begin,
                               int64_t end) const {
    std::vector<std::pair<int64_t, int64_t>> intervals;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      for (const Span &span : spans_) {
        if (std::strcmp(span.name, name) == 0) {
          intervals.emplace_back(std::max(span.start_ns, begin),
                                 std::min(span.end_ns, end));
        }
      }
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t reach = begin;
    for (const auto &[lo, hi] : intervals) {
      int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    return Sec(covered);
  }

  void MoveTo(std::vector<Span> &out) {
    std::lock_guard<std::mutex> guard(mutex_);
    out.insert(out.end(), spans_.begin(), spans_.end());
    spans_.clear();
  }

 private:
  const uint64_t query_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

Status WriteChromeTrace(const std::string &path, const std::vector<Span> &spans,
                        int64_t epoch_ns) {
  FILE *file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IOError("cannot write " + path);
  }
  std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); i++) {
    const Span &s = spans[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":%" PRIu64
                 ",\"id\":%" PRIu64 ",\"parent\":%" PRIu64 "}}\n",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.start_ns - epoch_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.query,
                 s.id, s.parent);
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0 ? Status::OK()
                                : Status::IOError("cannot write " + path);
}

// ---- Sinks and sources ----------------------------------------------------

/// Final sink of every ledger query: counts rows and sums RowHashes. When
/// `log` is set it also times each call (thread CPU) and records "emit"
/// spans, so phase-2 self time can exclude this benchmark overhead.
class ChecksumSink : public DataSink {
 public:
  ChecksumSink(idx_t key_columns, SpanLog *log, uint64_t parent)
      : key_columns_(key_columns), log_(log), parent_(parent) {}

  Result<std::unique_ptr<LocalSinkState>> InitLocal() override {
    return std::unique_ptr<LocalSinkState>(new Local());
  }

  Status Sink(DataChunk &chunk, LocalSinkState &state) override {
    auto &local = static_cast<Local &>(state);
    int64_t wall0 = log_ != nullptr ? WallNs() : 0;
    int64_t cpu0 = log_ != nullptr ? ThreadCpuNs() : 0;
    RowHashes(chunk, key_columns_, local.hashes.data());
    for (idx_t r = 0; r < chunk.size(); r++) {
      local.checksum += local.hashes[r];
    }
    local.rows += chunk.size();
    if (log_ != nullptr) {
      local.cpu_ns += ThreadCpuNs() - cpu0;
      log_->Add("emit", NextSpanId(), parent_, wall0, WallNs());
    }
    return Status::OK();
  }

  Status Combine(LocalSinkState &state) override {
    auto &local = static_cast<Local &>(state);
    rows_.fetch_add(local.rows, std::memory_order_relaxed);
    checksum_.fetch_add(local.checksum, std::memory_order_relaxed);
    cpu_ns_.fetch_add(local.cpu_ns, std::memory_order_relaxed);
    return Status::OK();
  }

  [[nodiscard]] Expected result() const {
    return {rows_.load(), checksum_.load()};
  }
  [[nodiscard]] int64_t cpu_ns() const { return cpu_ns_.load(); }

 private:
  struct Local : public LocalSinkState {
    uint64_t rows = 0;
    uint64_t checksum = 0;
    int64_t cpu_ns = 0;
    std::vector<uint64_t> hashes = std::vector<uint64_t>(kVectorSize);
  };

  const idx_t key_columns_;
  SpanLog *const log_;
  const uint64_t parent_;
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> checksum_{0};
  std::atomic<int64_t> cpu_ns_{0};
};

/// Wraps DataSource::GetData: thread CPU inside each call ("scan" spans).
class TimedSource : public DataSource {
 public:
  TimedSource(DataSource &inner, SpanLog &log, uint64_t parent)
      : inner_(inner), log_(log), parent_(parent) {}

  std::vector<LogicalTypeId> Types() const override { return inner_.Types(); }
  [[nodiscard]] idx_t EstimatedRowCount() const override {
    return inner_.EstimatedRowCount();
  }

  Result<std::unique_ptr<LocalSourceState>> InitLocal() override {
    return inner_.InitLocal();
  }

  Result<bool> GetData(DataChunk &chunk, LocalSourceState &state) override {
    int64_t wall0 = WallNs();
    int64_t cpu0 = ThreadCpuNs();
    auto more = inner_.GetData(chunk, state);
    scan_ns_.fetch_add(ThreadCpuNs() - cpu0, std::memory_order_relaxed);
    log_.Add("scan", NextSpanId(), parent_, wall0, WallNs());
    return more;
  }

  [[nodiscard]] int64_t scan_ns() const { return scan_ns_.load(); }

 private:
  DataSource &inner_;
  SpanLog &log_;
  const uint64_t parent_;
  std::atomic<int64_t> scan_ns_{0};
};

/// Wraps the aggregate's phase-1 Sink and Combine: thread CPU per call and
/// "sink"/"combine" spans.
class TimedSink : public DataSink {
 public:
  TimedSink(DataSink &inner, SpanLog &log, uint64_t parent)
      : inner_(inner), log_(log), parent_(parent) {}

  Result<std::unique_ptr<LocalSinkState>> InitLocal() override {
    return inner_.InitLocal();
  }
  Status Sink(DataChunk &chunk, LocalSinkState &state) override {
    return Timed("sink", sink_ns_, [&] { return inner_.Sink(chunk, state); });
  }
  Status Combine(LocalSinkState &state) override {
    return Timed("combine", combine_ns_,
                 [&] { return inner_.Combine(state); });
  }

  [[nodiscard]] int64_t sink_ns() const { return sink_ns_.load(); }
  [[nodiscard]] int64_t combine_ns() const { return combine_ns_.load(); }

 private:
  template <typename F>
  Status Timed(const char *name, std::atomic<int64_t> &total, F call) {
    int64_t wall0 = WallNs();
    int64_t cpu0 = ThreadCpuNs();
    Status status = call();
    total.fetch_add(ThreadCpuNs() - cpu0, std::memory_order_relaxed);
    log_.Add(name, NextSpanId(), parent_, wall0, WallNs());
    return status;
  }

  DataSink &inner_;
  SpanLog &log_;
  const uint64_t parent_;
  std::atomic<int64_t> sink_ns_{0};
  std::atomic<int64_t> combine_ns_{0};
};

// ---- Per-layer accumulation -----------------------------------------------

using Maybe = std::optional<double>;

/// Engine counters and timings the layer metrics read, by name.
const char *const kProfileKeys[] = {
    "agg.ht_probe_steps",    "agg.ht_key_compares",
    "agg.ht_key_compare_misses", "agg.phase1_resets",
    "agg.materialized_rows", "agg.unique_groups",
    "agg.estimated_groups",  "agg.planner_demoted",
    "agg.ht_resizes",        "agg.sampling_seconds",
    "exec.worker_seconds",   "exec.source_seconds",
    "exec.sink_seconds",     "exec.combine_seconds",
};

Maybe ProfileValue(const QueryProfile &profile, const std::string &key) {
  if (auto it = profile.counters.find(key); it != profile.counters.end()) {
    return static_cast<double>(it->second);
  }
  if (auto it = profile.timings.find(key); it != profile.timings.end()) {
    return it->second;
  }
  return std::nullopt;
}

/// Sums over the traced window's queries. Guarded by `mutex` because the
/// service's clients add concurrently.
struct LayerSums {
  std::mutex mutex;
  idx_t queries = 0;
  double scan_cpu_s = 0;
  double sink_cpu_s = 0;
  double combine_cpu_s = 0;
  double emit_cpu_s = 0;
  double phase2_cpu_s = 0;
  double phase2_self_s = 0;
  double materialized_bytes = 0;
  double attributed_frac = 0;  // per-query (layer time / query wall), summed
  std::map<std::string, Maybe> profile;  // kProfileKeys

  void AddProfile(const QueryProfile &p) {
    for (const char *key : kProfileKeys) {
      auto value = ProfileValue(p, key);
      auto [it, fresh] = profile.emplace(key, value);
      if (!fresh) {
        it->second = it->second && value ? Maybe(*it->second + *value)
                                         : std::nullopt;
      }
    }
  }

  /// (exec source + sink + combine per thread + phase-2 wall) / query wall.
  static double Attributed(const QueryProfile &p, idx_t threads,
                           double phase2_s, double query_s) {
    double worker = ProfileValue(p, "exec.source_seconds").value_or(0) +
                    ProfileValue(p, "exec.sink_seconds").value_or(0) +
                    ProfileValue(p, "exec.combine_seconds").value_or(0);
    return (worker / static_cast<double>(threads) + phase2_s) / query_s;
  }
};

/// Registry counters and histograms, read by name at the window's start
/// and end; a key missing at the end yields a null metric.
class RegistryWindow {
 public:
  RegistryWindow()
      : counters_(MetricsRegistry::Global().Snapshot()),
        hists_(MetricsRegistry::Global().HistogramSnapshots()) {}

  void Close() {
    for (auto &[key, value] : MetricsRegistry::Global().Snapshot()) {
      delta_[key] = value - counters_[key];
    }
    for (auto &[key, hist] : MetricsRegistry::Global().HistogramSnapshots()) {
      hist.Subtract(hists_[key]);
      hist_delta_[key] = hist;
    }
  }

  [[nodiscard]] Maybe Counter(const std::string &key) const {
    auto it = delta_.find(key);
    if (it == delta_.end()) {
      return std::nullopt;
    }
    return static_cast<double>(it->second);
  }
  [[nodiscard]] const HistogramSnapshot *Histogram(
      const std::string &key) const {
    auto it = hist_delta_.find(key);
    return it == hist_delta_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, HistogramSnapshot> hists_;
  std::map<std::string, uint64_t> delta_;
  std::map<std::string, HistogramSnapshot> hist_delta_;
};

Maybe Div(Maybe a, Maybe b) {
  if (!a || !b) {
    return std::nullopt;
  }
  return *b == 0 ? 0.0 : *a / *b;
}
Maybe Add(Maybe a, Maybe b) {
  return a && b ? Maybe(*a + *b) : std::nullopt;
}
Json ToJson(Maybe value) { return value ? Json(*value) : Json(); }

// ---- The measuring process --------------------------------------------------

struct Options {
  const Workload *workload = nullptr;
  uint64_t seed = 1;
  idx_t queries = 0;
  double deadline_s = 0;  // the window stops early past this; 0: no limit
  bool oracle = false;
  bool traced = false;
  Expected expect;
  std::string temp_dir;
  std::string trace_file;
};

class Ledger {
 public:
  Ledger(const Input &input, const Options &options, int64_t start_ns)
      : input_(input),
        options_(options),
        start_ns_(start_ns),
        bm_(options.temp_dir, input.workload.memory_mib << 20) {}

  int Run();

 private:
  /// Checks one query's outcome against the oracle; returns pass/fail.
  bool Check(const Status &status, const ChecksumSink &sink,
             const HashAggregateStats *stats);

  /// One untraced query: RunGroupedAggregation or QueryService::Execute.
  bool PlainQuery(TaskExecutor *executor, QueryService *service);
  /// One traced single-query run: RunGroupedAggregation's two steps on the
  /// same objects, wrapped in TimedSource / TimedSink / ChecksumSink spans.
  bool TracedQuery(TaskExecutor &executor);
  /// One traced service query. The service owns the operator, so only the
  /// source and output are wrapped; sink, combine, phase-2 CPU and
  /// materialized bytes stay 0 (not measurable there).
  bool TracedServiceQuery(QueryService &service);

  /// Runs the measured window; fills latencies_.
  void Window(TaskExecutor *executor, QueryService *service);
  Json Layers(const RegistryWindow &registry, const BufferManagerSnapshot &s0,
              const BufferManagerSnapshot &s1);

  const Input &input_;
  const Options &options_;
  const int64_t start_ns_;
  BufferManager bm_;

  std::mutex mutex_;  // guards the fields below (service clients)
  idx_t attempted_ = 0;
  idx_t failed_ = 0;
  std::vector<std::string> errors_;
  std::set<int> strategies_;
  std::vector<double> latencies_;
  uint64_t rows_ok_ = 0;

  std::atomic<uint64_t> next_query_{1};
  LayerSums sums_;
  std::vector<Span> spans_;
};

bool Ledger::Check(const Status &status, const ChecksumSink &sink,
                   const HashAggregateStats *stats) {
  std::lock_guard<std::mutex> guard(mutex_);
  attempted_++;
  std::string error;
  Expected got = sink.result();
  if (!status.ok()) {
    error = status.ToString();
  } else if (got.rows != options_.expect.rows ||
             got.checksum != options_.expect.checksum) {
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "wrong result: %" PRIu64 " rows checksum %" PRIu64
                  " (expected %" PRIu64 " rows checksum %" PRIu64 ")",
                  got.rows, got.checksum, options_.expect.rows,
                  options_.expect.checksum);
    error = buffer;
  }
  if (!error.empty()) {
    failed_++;
    if (errors_.size() < 5) {
      errors_.push_back(error);
    }
    return false;
  }
  if (stats != nullptr && stats->planner_decided) {
    strategies_.insert(static_cast<int>(stats->planner.strategy));
  }
  return true;
}

bool Ledger::PlainQuery(TaskExecutor *executor, QueryService *service) {
  auto source = input_.MakeSource();
  ChecksumSink sink(input_.key_columns(), nullptr, 0);
  Result<HashAggregateStats> result = Status::Internal("not run");
  if (service != nullptr) {
    QuerySpec spec;
    spec.source = source.get();
    spec.group_columns = input_.query.group_columns;
    spec.aggregates = input_.query.aggregates;
    spec.output = &sink;
    result = service->Execute(spec);
  } else {
    result = RunGroupedAggregation(bm_, *source, input_.query.group_columns,
                                   input_.query.aggregates, sink, *executor);
  }
  return Check(result.ok() ? Status::OK() : result.status(), sink,
               result.ok() ? &result.value() : nullptr);
}

bool Ledger::TracedQuery(TaskExecutor &executor) {
  SpanLog log(next_query_.fetch_add(1));
  const uint64_t query_id = NextSpanId();
  const uint64_t phase1_id = NextSpanId();
  const uint64_t phase2_id = NextSpanId();
  auto source = input_.MakeSource();
  TimedSource timed_source(*source, log, phase1_id);
  ChecksumSink output(input_.key_columns(), &log, phase2_id);

  int64_t query0 = WallNs();
  HashAggregateConfig config;
  config.expected_input_rows = timed_source.EstimatedRowCount();
  ExecutorStats exec0 = executor.stats();
  auto created = PhysicalHashAggregate::Create(
      bm_, timed_source.Types(), input_.query.group_columns,
      input_.query.aggregates, config);
  if (!created.ok()) {
    return Check(created.status(), output, nullptr);
  }
  std::unique_ptr<PhysicalHashAggregate> agg = created.MoveValue();
  TimedSink timed_sink(*agg, log, phase1_id);

  int64_t phase1_0 = WallNs();
  Status status = executor.RunPipeline(timed_source, timed_sink);
  int64_t phase1_1 = WallNs();
  log.Add("phase1", phase1_id, query_id, phase1_0, phase1_1);
  double materialized = static_cast<double>(agg->MaterializedBytes());

  int64_t phase2_0 = WallNs();
  int64_t cpu0 = ProcessCpuNs();
  if (status.ok()) {
    status = agg->EmitResults(output, executor);
  }
  int64_t cpu1 = ProcessCpuNs();
  int64_t phase2_1 = WallNs();
  log.Add("phase2", phase2_id, query_id, phase2_0, phase2_1);

  HashAggregateStats stats = agg->stats();
  agg.reset();
  int64_t query1 = WallNs();
  log.Add("query", query_id, 0, query0, query1);
  bool ok = Check(status, output, &stats);

  // The profile RunGroupedAggregation would fill, read back by name.
  QueryProfile profile;
  AddAggregateStats(stats, profile);
  ExecutorStats exec1 = executor.stats();
  profile.AddTiming("exec.worker_seconds",
                    exec1.worker_seconds - exec0.worker_seconds);
  profile.AddTiming("exec.source_seconds",
                    exec1.source_seconds - exec0.source_seconds);
  profile.AddTiming("exec.sink_seconds",
                    exec1.sink_seconds - exec0.sink_seconds);
  profile.AddTiming("exec.combine_seconds",
                    exec1.combine_seconds - exec0.combine_seconds);

  double phase2_s = Sec(phase2_1 - phase2_0);
  double emit_s = Sec(output.cpu_ns());
  std::lock_guard<std::mutex> guard(sums_.mutex);
  sums_.queries++;
  sums_.scan_cpu_s += Sec(timed_source.scan_ns());
  sums_.sink_cpu_s += Sec(timed_sink.sink_ns());
  sums_.combine_cpu_s += Sec(timed_sink.combine_ns());
  sums_.emit_cpu_s += emit_s;
  sums_.phase2_cpu_s += Sec(cpu1 - cpu0) - emit_s;
  sums_.phase2_self_s += phase2_s - log.Covered("emit", phase2_0, phase2_1);
  sums_.materialized_bytes += materialized;
  sums_.attributed_frac += LayerSums::Attributed(
      profile, executor.num_threads(), phase2_s, Sec(query1 - query0));
  sums_.AddProfile(profile);
  log.MoveTo(spans_);
  return ok;
}

bool Ledger::TracedServiceQuery(QueryService &service) {
  SpanLog log(next_query_.fetch_add(1));
  const uint64_t query_id = NextSpanId();
  auto source = input_.MakeSource();
  TimedSource timed_source(*source, log, query_id);
  ChecksumSink output(input_.key_columns(), &log, query_id);
  QuerySpec spec;
  spec.source = &timed_source;
  spec.group_columns = input_.query.group_columns;
  spec.aggregates = input_.query.aggregates;
  spec.output = &output;
  QueryProfile profile;

  int64_t query0 = WallNs();
  auto result = service.Execute(spec, &profile);
  int64_t query1 = WallNs();
  log.Add("query", query_id, 0, query0, query1);
  bool ok = Check(result.ok() ? Status::OK() : result.status(), output,
                  result.ok() ? &result.value() : nullptr);

  double emit_s = Sec(output.cpu_ns());
  std::lock_guard<std::mutex> guard(sums_.mutex);
  sums_.queries++;
  sums_.scan_cpu_s += Sec(timed_source.scan_ns());
  sums_.emit_cpu_s += emit_s;
  sums_.phase2_self_s +=
      profile.phase2_seconds - log.Covered("emit", query0, query1);
  sums_.attributed_frac +=
      LayerSums::Attributed(profile, kServiceThreads, profile.phase2_seconds,
                            profile.total_seconds);
  sums_.AddProfile(profile);
  log.MoveTo(spans_);
  return ok;
}

void Ledger::Window(TaskExecutor *executor, QueryService *service) {
  const int64_t deadline =
      options_.deadline_s > 0
          ? WallNs() + static_cast<int64_t>(options_.deadline_s * 1e9)
          : INT64_MAX;
  auto timed = [&](auto query) {
    if (WallNs() > deadline) {
      return false;
    }
    int64_t t0 = WallNs();
    bool ok = query();
    double seconds = Sec(WallNs() - t0);
    std::lock_guard<std::mutex> guard(mutex_);
    latencies_.push_back(seconds);
    if (ok) {
      rows_ok_ += input_.rows();
    }
    return true;
  };
  if (service == nullptr) {
    for (idx_t q = 0; q < options_.queries; q++) {
      if (!timed([&] {
            return options_.traced ? TracedQuery(*executor)
                                   : PlainQuery(executor, nullptr);
          })) {
        break;
      }
    }
    return;
  }
  // Closed loop: each client sends its next query when the last returns.
  std::vector<std::thread> clients;
  for (idx_t c = 0; c < kServiceClients; c++) {
    idx_t share = options_.queries / kServiceClients +
                  (c < options_.queries % kServiceClients ? 1 : 0);
    clients.emplace_back([&, share] {
      for (idx_t q = 0; q < share; q++) {
        if (!timed([&] {
              return options_.traced ? TracedServiceQuery(*service)
                                     : PlainQuery(nullptr, service);
            })) {
          break;
        }
      }
    });
  }
  for (auto &client : clients) {
    client.join();
  }
}

Json Ledger::Layers(const RegistryWindow &reg, const BufferManagerSnapshot &s0,
                    const BufferManagerSnapshot &s1) {
  const LayerSums &s = sums_;
  const double q = static_cast<double>(s.queries);
  const double rows = q * static_cast<double>(input_.rows());
  auto p = [&](const char *key) -> Maybe {
    auto it = s.profile.find(key);
    return it == s.profile.end() ? std::nullopt : it->second;
  };
  auto hist_count = [&](const char *key) -> Maybe {
    const HistogramSnapshot *h = reg.Histogram(key);
    return h ? Maybe(static_cast<double>(h->count)) : std::nullopt;
  };
  // Percentile of a nanosecond histogram, in units of `unit_ns`.
  auto hist_pct = [&](const char *key, double q, double unit_ns) -> Maybe {
    const HistogramSnapshot *h = reg.Histogram(key);
    return h ? Maybe(static_cast<double>(h->Percentile(q)) / unit_ns)
             : std::nullopt;
  };
  Maybe written = reg.Counter("io.spill_bytes_written");
  Maybe read = reg.Counter("io.spill_bytes_read");
  Maybe raw = reg.Counter("io.spill_raw_bytes");
  Maybe evictions =
      Add(Add(reg.Counter("bm.evictions_persistent"),
              reg.Counter("bm.evictions_temporary_spilled")),
          reg.Counter("bm.evictions_temporary_destroyed"));

  Maybe busy = Div(Add(p("exec.source_seconds"),
                       Add(p("exec.sink_seconds"), p("exec.combine_seconds"))),
                   p("exec.worker_seconds"));

  Json out = Json::Object();
  out.Set("execution.scan_cpu_s", s.scan_cpu_s / q);
  out.Set("execution.worker_idle_frac",
          ToJson(busy ? Maybe(1.0 - *busy) : std::nullopt));
  out.Set("core.phase1_sink_cpu_s", s.sink_cpu_s / q);
  out.Set("core.phase1_combine_cpu_s", s.combine_cpu_s / q);
  out.Set("core.probe_steps_per_row",
          ToJson(Div(p("agg.ht_probe_steps"), rows)));
  out.Set("core.key_compares_per_row",
          ToJson(Div(p("agg.ht_key_compares"), rows)));
  out.Set("core.compare_miss_ratio", ToJson(Div(p("agg.ht_key_compare_misses"),
                                                p("agg.ht_key_compares"))));
  out.Set("core.phase1_resets", ToJson(Div(p("agg.phase1_resets"), q)));
  out.Set("core.dup_factor", ToJson(Div(p("agg.materialized_rows"),
                                        p("agg.unique_groups"))));
  out.Set("core.planner_strategy",
          strategies_.size() == 1
              ? Json(static_cast<double>(*strategies_.begin()))
              : Json());
  // |estimated / true groups - 1|: the planner's sampling error.
  Maybe ratio = Div(Div(p("agg.estimated_groups"), q),
                    static_cast<double>(options_.expect.rows));
  out.Set("core.planner_estimate_error",
          ToJson(ratio ? Maybe(std::abs(*ratio - 1.0)) : std::nullopt));
  out.Set("core.planner_demoted", ToJson(Div(p("agg.planner_demoted"), q)));
  out.Set("core.sampling_s", ToJson(Div(p("agg.sampling_seconds"), q)));
  out.Set("layout.materialized_mib", s.materialized_bytes / q / kMiB);
  out.Set("core.phase2_self_s", s.phase2_self_s / q);
  out.Set("core.phase2_cpu_s", s.phase2_cpu_s / q);
  out.Set("core.ht_resizes", ToJson(Div(p("agg.ht_resizes"), q)));
  out.Set("emit.cpu_s", s.emit_cpu_s / q);

  out.Set("buffer.evictions_per_query", ToJson(Div(evictions, q)));
  out.Set("buffer.spill_write_bytes_per_row", ToJson(Div(written, rows)));
  out.Set("buffer.spill_read_bytes_per_row", ToJson(Div(read, rows)));
  out.Set("buffer.reload_ratio", ToJson(Div(read, written)));
  out.Set("buffer.spill_write_blocked_s",
          (s1.spill_write_seconds - s0.spill_write_seconds) / q);
  out.Set("buffer.spill_read_blocked_s",
          (s1.spill_read_seconds - s0.spill_read_seconds) / q);
  out.Set("buffer.pin_waits", ToJson(Div(hist_count("bm.pin_wait_ns"), q)));
  out.Set("buffer.pin_wait_p99_us",
          ToJson(hist_pct("bm.pin_wait_ns", 0.99, 1e3)));
  out.Set("buffer.evict_select_p99_us",
          ToJson(hist_pct("bm.evict_select_ns", 0.99, 1e3)));
  out.Set("buffer.temp_peak_mib",
          static_cast<double>(s1.temp_file_peak) / kMiB);
  out.Set("buffer.oom_rejections",
          ToJson(Div(reg.Counter("bm.oom_rejections"), q)));
  // The synchronous backend keeps no per-write latency histogram, so writes
  // report their mean; demand reads are recorded on every backend.
  out.Set("io.spill_write_latency_mean_us",
          ToJson(Div(Div(reg.Counter("io.spill_write_ns"), 1e3),
                     reg.Counter("io.spill_writes"))));
  out.Set("io.spill_read_latency_p99_us",
          ToJson(hist_pct("io.spill_read_latency_ns", 0.99, 1e3)));
  out.Set("io.pages_per_coalesced_write",
          ToJson(Div(reg.Counter("io.spill_coalesced_pages"),
                     reg.Counter("io.spill_coalesced_writes"))));
  // Logical per physical spilled byte; 1.0 when nothing spilled.
  out.Set("compression.ratio",
          ToJson(written && *written == 0 ? Maybe(1.0) : Div(raw, written)));
  if (input_.workload.service) {
    out.Set("service.queue_wait_p50_s",
            ToJson(hist_pct("svc.queue_wait_ns", 0.5, 1e9)));
    out.Set("service.queue_wait_p90_s",
            ToJson(hist_pct("svc.queue_wait_ns", 0.9, 1e9)));
    out.Set("service.grant_overdraft_mib",
            ToJson(Div(Div(reg.Counter("svc.grant_overdraft_bytes"), q),
                       kMiB)));
    out.Set("service.grant_grow_mib",
            ToJson(Div(Div(reg.Counter("svc.grant_grow_bytes"), q), kMiB)));
  } else {
    // No service in this process: the layer is bypassed, not unmeasured.
    for (const char *key :
         {"service.queue_wait_p50_s", "service.queue_wait_p90_s",
          "service.grant_overdraft_mib", "service.grant_grow_mib"}) {
      out.Set(key, 0.0);
    }
  }
  out.Set("trace.unattributed_frac", 1.0 - s.attributed_frac / q);
  return out;
}

int Ledger::Run() {
  const Workload &w = input_.workload;
  std::unique_ptr<TaskExecutor> executor;
  std::unique_ptr<QueryService> service;
  if (w.service) {
    QueryServiceOptions service_options;
    service_options.max_concurrent = kServiceSlots;
    service_options.threads = kServiceThreads;
    service = std::make_unique<QueryService>(bm_, service_options);
  } else {
    executor = std::make_unique<TaskExecutor>(kQueryThreads);
  }
  PlainQuery(executor.get(), service.get());  // cold query
  const double setup_s = Sec(WallNs() - start_ns_);
  for (idx_t i = 0; i < kWarmupQueries; i++) {
    PlainQuery(executor.get(), service.get());
  }

  RegistryWindow registry;
  BufferManagerSnapshot snap0 = bm_.Snapshot();
  int64_t cpu0 = ProcessCpuNs();
  int64_t wall0 = WallNs();
  Window(executor.get(), service.get());
  const double window_s = Sec(WallNs() - wall0);
  const double window_cpu_s = Sec(ProcessCpuNs() - cpu0);
  registry.Close();
  BufferManagerSnapshot snap1 = bm_.Snapshot();

  // Quiesce: every query's pages, pins, temp-file bytes and grants are back.
  std::string leak;
  if (snap1.memory_used != 0 || snap1.pinned_buffers != 0 ||
      snap1.temp_file_size != 0) {
    leak = "buffer manager holds " + std::to_string(snap1.memory_used) +
           " bytes, " + std::to_string(snap1.pinned_buffers) + " pins, " +
           std::to_string(snap1.temp_file_size) + " temp-file bytes";
  }
  if (service != nullptr && (service->grant_pool().granted_total() != 0 ||
                             service->grant_pool().used_total() != 0 ||
                             service->grant_pool().active_grants() != 0)) {
    leak += (leak.empty() ? "" : "; ") + std::string("grant pool not empty");
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Json doc = Json::Object();
  doc.Set("workload", w.name);
  doc.Set("seed", options_.seed);
  doc.Set("traced", options_.traced);
  doc.Set("queries", static_cast<uint64_t>(latencies_.size()));
  // --deadline-s stopped the window before --queries.
  doc.Set("truncated", latencies_.size() < options_.queries);
  doc.Set("input_rows_per_query", static_cast<uint64_t>(input_.rows()));
  doc.Set("setup_s", setup_s);
  doc.Set("window_s", window_s);
  doc.Set("window_cpu_s", window_cpu_s);
  Json latencies = Json::Array();
  for (double l : latencies_) {
    latencies.Push(l);
  }
  doc.Set("latencies_s", std::move(latencies));
  doc.Set("input_rows_ok", rows_ok_);
  doc.Set("attempted", static_cast<uint64_t>(attempted_));
  doc.Set("failed", static_cast<uint64_t>(failed_));
  Json errors = Json::Array();
  for (const auto &e : errors_) {
    errors.Push(e);
  }
  doc.Set("errors", std::move(errors));
  Json strategies = Json::Array();
  for (int s : strategies_) {
    strategies.Push(s);
  }
  doc.Set("strategies", std::move(strategies));
  doc.Set("quiesced", leak.empty());
  if (!leak.empty()) {
    doc.Set("leak", leak);
  }
  doc.Set("peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0);
  if (options_.traced) {
    doc.Set("layers", Layers(registry, snap0, snap1));
    Status st = WriteChromeTrace(options_.trace_file, spans_, start_ns_);
    if (!st.ok()) {
      std::fprintf(stderr, "ssagg_ledger: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::printf("%s\n", doc.Dump().c_str());
  return 0;
}

int Usage(const char *message) {
  std::fprintf(stderr,
               "ssagg_ledger: %s\nusage: ssagg_ledger --workload W --seed S "
               "(--oracle | --queries N --expect ROWS:CHECKSUM "
               "--temp-dir DIR [--deadline-s T] "
               "[--traced --trace-file PATH])\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char **argv) {
  const int64_t start_ns = WallNs();
  Options options;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto need = [&]() {
      if (value == nullptr) {
        std::exit(Usage(("missing value for " + arg).c_str()));
      }
      i++;
      return std::string(value);
    };
    if (arg == "--workload") {
      std::string name = need();
      for (const Workload &w : kWorkloads) {
        if (name == w.name) {
          options.workload = &w;
        }
      }
      if (options.workload == nullptr) {
        return Usage(("unknown workload " + name).c_str());
      }
    } else if (arg == "--seed") {
      options.seed = std::strtoull(need().c_str(), nullptr, 10);
    } else if (arg == "--queries") {
      options.queries = std::strtoull(need().c_str(), nullptr, 10);
    } else if (arg == "--deadline-s") {
      options.deadline_s = std::strtod(need().c_str(), nullptr);
    } else if (arg == "--expect") {
      std::string text = need();
      options.expect.valid =
          std::sscanf(text.c_str(), "%" SCNu64 ":%" SCNu64,
                      &options.expect.rows, &options.expect.checksum) == 2;
    } else if (arg == "--temp-dir") {
      options.temp_dir = need();
    } else if (arg == "--trace-file") {
      options.trace_file = need();
    } else if (arg == "--oracle") {
      options.oracle = true;
    } else if (arg == "--traced") {
      options.traced = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload == nullptr) {
    return Usage("--workload is required");
  }
  Input input(*options.workload, options.seed);
  if (options.oracle) {
    auto expected = RunOracle(input);
    if (!expected.ok()) {
      std::fprintf(stderr, "ssagg_ledger: %s\n",
                   expected.status().ToString().c_str());
      return 1;
    }
    std::printf("{\"rows\":%" PRIu64 ",\"checksum\":%" PRIu64 "}\n",
                expected.value().rows, expected.value().checksum);
    return 0;
  }
  if (!options.expect.valid || options.queries == 0 ||
      options.temp_dir.empty() ||
      (options.traced && options.trace_file.empty())) {
    return Usage("a measuring run needs --queries, --expect and --temp-dir "
                 "(and --trace-file when --traced)");
  }
  Status dir = FileSystem::Default().CreateDirectories(options.temp_dir);
  if (!dir.ok()) {
    std::fprintf(stderr, "ssagg_ledger: %s\n", dir.ToString().c_str());
    return 1;
  }
  Ledger ledger(input, options, start_ns);
  return ledger.Run();
}
