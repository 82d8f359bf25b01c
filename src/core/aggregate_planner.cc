#include "core/aggregate_planner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "common/hash.h"
#include "observe/metrics.h"
#include "observe/trace.h"

namespace ssagg {

namespace {

idx_t NextPowerOfTwo(idx_t v) {
  idx_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

/// Inverts the uniform-occupancy expectation d = D * (1 - exp(-m/D)) for D:
/// with m sampled rows drawn from D equally likely groups, d is the
/// expected number of distinct groups seen. Monotonically increasing in D,
/// so a bisection over [d, upper] recovers D from the measured d.
double InvertExpectedDistinct(double sampled_rows, double sample_distinct,
                              double upper) {
  auto expected = [&](double total) {
    return total * (1.0 - std::exp(-sampled_rows / total));
  };
  double lo = sample_distinct;
  if (expected(upper) <= sample_distinct) {
    return upper;
  }
  double hi = upper;
  for (int i = 0; i < 64; i++) {
    double mid = 0.5 * (lo + hi);
    if (expected(mid) < sample_distinct) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// Distinct groups a sample of m rows with d distinct projects onto the
/// whole input of total_rows rows. A sample where nearly every row was a
/// new group (d > ~0.9 m) carries no upper bound — the inversion's signal
/// (m - d) is then smaller than the estimator's own error — so it is
/// extrapolated linearly, which errs high (toward the robust radix plan).
double ExtrapolateGroups(double sampled_rows, double sample_distinct,
                         idx_t total_rows, bool *saturated) {
  *saturated = sample_distinct >= 0.9 * sampled_rows;
  if (sampled_rows <= 0) {
    *saturated = true;
    return 1;
  }
  const bool rows_known = total_rows != kInvalidIndex;
  double total =
      rows_known ? static_cast<double>(total_rows) : sampled_rows * 1024;
  if (total <= sampled_rows) {
    return sample_distinct;
  }
  if (*saturated) {
    return sample_distinct * (total / sampled_rows);
  }
  return InvertExpectedDistinct(sampled_rows, sample_distinct, total);
}

}  // namespace

const char *AggregateStrategyName(AggregateStrategy s) {
  switch (s) {
    case AggregateStrategy::kAdaptive:
      return "adaptive";
    case AggregateStrategy::kCentralMerge:
      return "central";
    case AggregateStrategy::kRadixMerge:
      return "radix";
  }
  return "unknown";
}

std::optional<AggregateStrategy> ParseAggregateStrategy(
    const std::string &name) {
  if (name == "adaptive") return AggregateStrategy::kAdaptive;
  if (name == "central") return AggregateStrategy::kCentralMerge;
  if (name == "radix") return AggregateStrategy::kRadixMerge;
  return std::nullopt;
}

Result<std::optional<AggregateStrategy>> AggregateStrategyFromEnv() {
  const char *env = std::getenv("SSAGG_AGG_STRATEGY");
  if (env == nullptr || env[0] == '\0') {
    return std::optional<AggregateStrategy>{};
  }
  auto parsed = ParseAggregateStrategy(env);
  if (!parsed) {
    return Status::InvalidArgument(
        std::string("SSAGG_AGG_STRATEGY must be adaptive|central|radix, "
                    "got \"") +
        env + "\"");
  }
  return std::optional<AggregateStrategy>{*parsed};
}

void HllEstimator::Observe(const hash_t *hashes, idx_t count) {
  for (idx_t i = 0; i < count; i++) {
    // Re-mix: the table consumes the hash's low bits (slot offset), middle
    // bits (radix partition) and top 16 (salt); the estimator must see
    // decorrelated bits or dense-key workloads skew the registers.
    hash_t h = HashUint64(hashes[i] ^ 0x9e3779b97f4a7c15ULL);
    idx_t reg = h >> (64 - kRegisterBits);
    uint64_t rest = h << kRegisterBits | (idx_t{1} << (kRegisterBits - 1));
    auto rank = static_cast<uint8_t>(__builtin_clzll(rest) + 1);
    if (rank > registers_[reg]) {
      registers_[reg] = rank;
    }
  }
}

double HllEstimator::Estimate() const {
  constexpr double m = static_cast<double>(kRegisterCount);
  const double alpha = 0.7213 / (1.0 + 1.079 / m);
  double inverse_sum = 0;
  idx_t zero_registers = 0;
  for (uint8_t reg : registers_) {
    inverse_sum += std::ldexp(1.0, -static_cast<int>(reg));
    zero_registers += reg == 0 ? 1 : 0;
  }
  double estimate = alpha * m * m / inverse_sum;
  if (estimate <= 2.5 * m && zero_registers > 0) {
    // Linear counting: exact regime for the small cardinalities where the
    // central-merge decision lives.
    estimate = m * std::log(m / static_cast<double>(zero_registers));
  }
  return estimate;
}

namespace {

double Phase1ProbeSeconds(const PlannerInputs &in, const AggregateCostModel &m,
                          double footprint_bytes) {
  const double rows = in.total_rows != kInvalidIndex
                          ? static_cast<double>(in.total_rows)
                          : static_cast<double>(in.sampled_rows);
  const double threads = static_cast<double>(std::max<idx_t>(1, in.threads));
  return rows * m.ProbeNs(footprint_bytes) / threads * 1e-9;
}

/// Footprint of a right-sized central thread table: entry array plus
/// the group rows themselves (they are revisited on every combine).
double LocalTableFootprint(const PlannerInputs &in) {
  double entries =
      static_cast<double>(NextPowerOfTwo(static_cast<idx_t>(
          std::max(1024.0, 4.0 * in.estimated_groups)))) *
      8.0;
  return entries + in.estimated_groups *
                       static_cast<double>(in.row_width_bytes);
}

double EmitSeconds(const PlannerInputs &in, const AggregateCostModel &m) {
  const double threads = static_cast<double>(std::max<idx_t>(1, in.threads));
  const double emit_par =
      std::min(threads, static_cast<double>(std::max<idx_t>(
                            1, in.radix_partitions)));
  return (in.estimated_groups * m.emit_row_ns / emit_par +
          emit_par * m.task_ns) *
         1e-9;
}

}  // namespace

double CentralMergeCost(const PlannerInputs &in, const AggregateCostModel &m) {
  const double threads = static_cast<double>(std::max<idx_t>(1, in.threads));
  double seconds = Phase1ProbeSeconds(in, m, LocalTableFootprint(in));
  // T-1 sequential merges of ~D rows each, on one thread (the retired
  // central phase 2; see the header).
  seconds += (threads - 1) * in.estimated_groups * m.merge_row_ns * 1e-9;
  seconds += threads * m.table_setup_ns * 1e-9;
  return seconds + EmitSeconds(in, m);
}

double RadixMergeCost(const PlannerInputs &in, const AggregateCostModel &m) {
  const double threads = static_cast<double>(std::max<idx_t>(1, in.threads));
  const double rows = in.total_rows != kInvalidIndex
                          ? static_cast<double>(in.total_rows)
                          : static_cast<double>(in.sampled_rows);
  const double fill_capacity =
      static_cast<double>(in.phase1_capacity) * in.reset_fill_ratio;
  // Live entry lines + the working set of group rows actually touched.
  double footprint =
      std::min(4.0 * in.estimated_groups,
               static_cast<double>(in.phase1_capacity)) *
          8.0 +
      std::min(in.estimated_groups, fill_capacity) *
          static_cast<double>(in.row_width_bytes);
  double seconds = Phase1ProbeSeconds(in, m, footprint);
  // Rows materialized into partitions: every thread emits each of its
  // groups at least once; as the group set approaches and passes the reset
  // threshold the fixed table starts thrashing and re-materializes at the
  // sampled rows-per-group rate. The risk ramps in from half fill (LRU-less
  // resets evict hot groups well before the table is nominally full) to
  // full thrash at 1.5x fill, instead of the old all-or-nothing step at
  // exactly fill_capacity that let borderline group counts score radix as
  // thrash-free.
  double materialized = threads * in.estimated_groups;
  const double risk =
      std::min(1.0, in.estimated_groups / fill_capacity - 0.5);
  if (risk > 0.0) {
    materialized = std::max(
        materialized, risk * rows / std::max(1.0, in.reduction_ratio));
  }
  materialized = std::min(materialized, rows);
  const double partitions =
      static_cast<double>(std::max<idx_t>(1, in.radix_partitions));
  seconds += materialized * m.merge_row_ns / threads * 1e-9;
  seconds += partitions * (m.task_ns + m.table_setup_ns) * 1e-9;
  return seconds + EmitSeconds(in, m);
}

AggregatePlanner::AggregatePlanner(Options options, MetricsRegistry &registry)
    : options_(options),
      registry_(registry),
      base_spill_bytes_(registry.Value("io.spill_bytes_written")),
      base_evictions_(registry.Value("bm.evictions_temporary_spilled") +
                      registry.Value("bm.evictions_temporary_destroyed")) {}

void AggregatePlanner::RegisterThread() {
  threads_.fetch_add(1, std::memory_order_relaxed);
}

void AggregatePlanner::Observe(const hash_t *hashes, idx_t count) {
  if (!sampling() || count == 0) {
    return;
  }
  auto start = std::chrono::steady_clock::now();
  ScopedLock guard(lock_);
  if (decided_.load(std::memory_order_relaxed)) {
    return;  // another thread closed the window while we waited
  }
  hll_.Observe(hashes, count);
  observed_rows_ += count;
  if (observed_rows_ >= options_.sample_rows) {
    DecideLocked();
  }
  sampling_seconds_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
}

void AggregatePlanner::ObserveKeyRange(int64_t min_key, int64_t max_key) {
  if (!sampling() || !options_.enable_direct_index) {
    return;
  }
  ScopedLock guard(lock_);
  if (decided_.load(std::memory_order_relaxed)) {
    return;
  }
  if (!key_range_seen_) {
    key_min_ = min_key;
    key_max_ = max_key;
    key_range_seen_ = true;
    return;
  }
  key_min_ = std::min(key_min_, min_key);
  key_max_ = std::max(key_max_, max_key);
}

void AggregatePlanner::EnsureDecided() {
  if (decided()) {
    return;
  }
  ScopedLock guard(lock_);
  if (!decided_.load(std::memory_order_relaxed)) {
    DecideLocked();
  }
}

void AggregatePlanner::DecideLocked() {
  TraceSpan span("planner.decide", "agg", observed_rows_);
  PlannerInputs in;
  in.threads = std::max<idx_t>(1, threads_.load(std::memory_order_relaxed));
  in.total_rows = options_.total_rows;
  in.sampled_rows = observed_rows_;
  in.phase1_capacity = options_.phase1_capacity;
  in.radix_partitions = options_.radix_partitions;
  in.row_width_bytes = options_.row_width_bytes;
  in.memory_limit_bytes = options_.memory_limit_bytes;
  in.reset_fill_ratio = options_.reset_fill_ratio;

  double sample_distinct =
      std::min(static_cast<double>(std::max<idx_t>(1, observed_rows_)),
               std::max(1.0, hll_.Estimate()));
  bool saturated = false;
  in.estimated_groups =
      std::max(1.0, ExtrapolateGroups(static_cast<double>(observed_rows_),
                                      sample_distinct, options_.total_rows,
                                      &saturated));
  in.reduction_ratio =
      static_cast<double>(std::max<idx_t>(1, observed_rows_)) /
      sample_distinct;

  PlannerDecision d;
  d.estimated_groups = static_cast<idx_t>(in.estimated_groups);
  d.reduction_ratio = in.reduction_ratio;
  d.sampled_rows = observed_rows_;
  d.threads = in.threads;
  d.central_cost = CentralMergeCost(in, options_.cost_model);
  d.radix_cost = RadixMergeCost(in, options_.cost_model);

  // Hard gates before the cost comparison: central keeps ~D fully
  // aggregated rows per thread pinned in resizable tables, so it is only
  // admissible when that provably fits. Radix is the only strategy whose
  // footprint does not scale with cardinality (the paper's robustness
  // argument), so everything uncertain lands there.
  constexpr idx_t kMaxCentralGroups = idx_t{1} << 21;
  const double local_bytes =
      static_cast<double>(in.threads) * LocalTableFootprint(in);
  bool admissible =
      !saturated && in.estimated_groups <= kMaxCentralGroups &&
      (options_.memory_limit_bytes == 0 ||
       local_bytes <= 0.25 * static_cast<double>(options_.memory_limit_bytes));

  // Ties break toward central, the simpler table.
  d.advised = admissible && d.central_cost <= d.radix_cost
                  ? AggregateStrategy::kCentralMerge
                  : AggregateStrategy::kRadixMerge;
  d.forced = options_.strategy != AggregateStrategy::kAdaptive;
  d.strategy = d.forced ? options_.strategy : d.advised;
  // A saturated sample carries no evidence of duplicates, so the radix
  // plan's fixed tables would only pay for probes that miss.
  d.phase1_bypass = saturated && d.strategy == AggregateStrategy::kRadixMerge;

  const double groups = in.estimated_groups;
  // Room for the estimate plus one all-new chunk below the fill ratio, as
  // phase-2 tables get: the probe round's grow check reserves a whole chunk,
  // so a table without that room doubles on its first chunk.
  const double chunk_headroom =
      (groups + static_cast<double>(kVectorSize)) / options_.reset_fill_ratio +
      1;
  d.local_table_capacity = NextPowerOfTwo(static_cast<idx_t>(std::min(
      std::max(chunk_headroom, 4.0 * groups), std::ldexp(1.0, 22))));

  // Direct-index fast path: worth it exactly where central lives (a small,
  // hot group set), and only when the single int64 key's sampled span fits
  // the pointer cache. Unsampled out-of-range keys are handled by the
  // table's chunk-wise fallback, so this is a performance bet, not a
  // correctness bet.
  if (options_.enable_direct_index && key_range_seen_ &&
      d.strategy == AggregateStrategy::kCentralMerge) {
    const uint64_t span = static_cast<uint64_t>(key_max_) -
                          static_cast<uint64_t>(key_min_) + 1;
    if (span != 0 && span <= kDirectIndexMaxRange) {
      d.direct_index = true;
      d.direct_min = key_min_;
      d.direct_range = static_cast<idx_t>(span);
    }
  }

  decision_ = d;
  // Instant markers: which strategy won and at what estimated size. They
  // always reach the flight recorder, so any later dump shows the decision.
  TraceInstant("planner.strategy", "agg", static_cast<idx_t>(d.strategy));
  TraceInstant("planner.estimated_groups", "agg", d.estimated_groups);
  TraceInstant("planner.sampling_us", "agg",
               static_cast<idx_t>(sampling_seconds_ * 1e6));
  if (d.direct_index) {
    TraceInstant("planner.direct_range", "agg", d.direct_range);
  }
  if (d.phase1_bypass) {
    // Why phase 1 stops probing: the sample's distinct count, beside the
    // sampled rows that planner.decide carries.
    TraceInstant("planner.phase1_bypass", "agg",
                 static_cast<idx_t>(sample_distinct));
  }
  decided_.store(true, std::memory_order_release);
  sampling_done_.store(true, std::memory_order_release);
}

PlannerDecision AggregatePlanner::decision() const {
  ScopedLock guard(lock_);
  return decision_;
}

bool AggregatePlanner::SpillPressure() {
  if (pressure_seen_.load(std::memory_order_relaxed)) {
    return true;
  }
  // Rate-limit the registry walk: one snapshot read every 64 calls.
  if (pressure_poll_.fetch_add(1, std::memory_order_relaxed) % 64 != 0) {
    return false;
  }
  uint64_t spill = registry_.Value("io.spill_bytes_written");
  uint64_t evictions = registry_.Value("bm.evictions_temporary_spilled") +
                       registry_.Value("bm.evictions_temporary_destroyed");
  if (spill > base_spill_bytes_ || evictions > base_evictions_) {
    pressure_seen_.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool AggregatePlanner::ShouldEarlyAggregate() {
  switch (options_.early_agg) {
    case EarlyAggMode::kOff:
      return false;
    case EarlyAggMode::kOn:
      return true;
    case EarlyAggMode::kAuto:
      break;
  }
  if (!decided()) {
    return false;  // no duplication evidence yet
  }
  PlannerDecision d = decision();
  if (d.strategy != AggregateStrategy::kRadixMerge) {
    // Central tables are sized to hold every group; nothing to compact.
    return false;
  }
  if (d.reduction_ratio < 2.0) {
    // Compaction cannot shrink mostly-unique data; the 1.6x CPU cost of the
    // ablation would buy nothing.
    return false;
  }
  return SpillPressure();
}

double AggregatePlanner::sampling_seconds() const {
  ScopedLock guard(lock_);
  return sampling_seconds_;
}

}  // namespace ssagg
