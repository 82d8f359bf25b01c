#ifndef SSAGG_CORE_AGGREGATE_PLANNER_H_
#define SSAGG_CORE_AGGREGATE_PLANNER_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <string>

#include "common/constants.h"
#include "common/mutex.h"
#include "common/status.h"

namespace ssagg {

class MetricsRegistry;

/// Which phase-1 table each thread aggregates into (PAPERS.md "Global Hash
/// Tables Strike Back!": the best table shape flips with group
/// cardinality). Either way, phase 2 is the same partition-wise merge: every
/// thread table is radix-partitioned with the query's fan-out, and its
/// partitions join the exchange at Combine. The values are recorded in
/// profiles and the ledger, so they do not move (2 is unused).
enum class AggregateStrategy : uint8_t {
  /// Sample the first chunks, estimate cardinality, pick one of the two
  /// concrete strategies below with the cost models.
  kAdaptive = 0,
  /// Each thread keeps one right-sized resizable table, so every group is
  /// materialized once per thread. Wins at low cardinality, where the table
  /// stays cache-resident and phase 2 has almost nothing to merge.
  kCentralMerge = 1,
  /// The paper's two-phase radix plan: fixed-size thread tables that reset
  /// at 2/3 fill and materialize into 2^radix_bits spillable partitions.
  /// The robust external default; the only strategy whose memory footprint
  /// does not scale with cardinality.
  kRadixMerge = 3,
};

const char *AggregateStrategyName(AggregateStrategy s);
/// Parses "adaptive" / "central" / "radix" (case-sensitive).
std::optional<AggregateStrategy> ParseAggregateStrategy(
    const std::string &name);
/// Forced override from the SSAGG_AGG_STRATEGY environment variable.
/// Returns nullopt when unset; InvalidArgument on an unknown value.
Result<std::optional<AggregateStrategy>> AggregateStrategyFromEnv();

/// Whether phase 1 compacts its own spilled-about-to-be partitions.
enum class EarlyAggMode : uint8_t {
  kOff = 0,
  kOn = 1,
  /// Planner decides at run time: only when the pool is under pressure
  /// (ratio reached AND the metrics registry shows spill writes/evictions
  /// since the query started) and the sampled reduction ratio says
  /// compaction can actually shrink the data.
  kAuto = 2,
};

/// HyperLogLog over 2^kRegisterBits registers, fed with the group hashes the
/// aggregation already computes. Hashes are re-mixed on the way in: the
/// table uses the low bits for the slot offset, the top 16 as the salt and
/// the partition selector in between, so the estimator must not reuse the
/// same bit ranges raw.
class HllEstimator {
 public:
  static constexpr idx_t kRegisterBits = 12;
  static constexpr idx_t kRegisterCount = idx_t{1} << kRegisterBits;

  void Observe(const hash_t *hashes, idx_t count);
  /// Distinct estimate with the linear-counting small-range correction
  /// (exact to ~1% below a few thousand groups, +-1.6% asymptotically).
  [[nodiscard]] double Estimate() const;

 private:
  uint8_t registers_[kRegisterCount] = {};
};

/// Cost-model constants, in nanoseconds per row/group/task. Calibrated on
/// the container this repo is developed in (see DESIGN.md section 11 for
/// the recalibration procedure against bench_probe and
/// bench_strategy_adaptive); decisions only depend on ratios, so they
/// survive hardware changes that scale all memory tiers together.
struct AggregateCostModel {
  /// Per-row probe+combine cost by probe-structure footprint tier.
  double probe_l1_ns = 6.0;    // table fits in ~L1/L2 (<= 256 KiB)
  double probe_l2_ns = 9.0;    // <= 4 MiB
  double probe_dram_ns = 14.0;  // beyond LLC
  /// Per-row cost of scanning materialized rows and merging them into a
  /// resizable table (phase 2, and the central plan's transition).
  double merge_row_ns = 25.0;
  /// Per-group cost of finalizing and emitting an output row.
  double emit_row_ns = 15.0;
  /// Fixed cost of scheduling one task.
  double task_ns = 30000.0;
  /// Fixed cost of standing up one resizable merge table.
  double table_setup_ns = 20000.0;

  /// Per-row probe cost as a function of footprint, interpolated linearly
  /// in log2(bytes) between the anchors 256 KiB -> probe_l1_ns,
  /// 4 MiB -> probe_l2_ns and 32 MiB -> probe_dram_ns (clamped outside).
  /// The earlier step function had a cliff at exactly 4 MiB: a footprint of
  /// 4.00 MiB (e.g. 100k sparse groups at 40-byte rows) still scored the
  /// in-LLC rate while the real working set already spilled past it, so the
  /// planner picked radix where central measured 2.4x faster (DESIGN.md
  /// section 12's recalibration sweep).
  [[nodiscard]] double ProbeNs(double footprint_bytes) const {
    constexpr double kL1Log2 = 18.0;    // 256 KiB
    constexpr double kLlcLog2 = 22.0;   // 4 MiB
    constexpr double kDramLog2 = 25.0;  // 32 MiB
    const double lg = std::log2(std::max(1.0, footprint_bytes));
    if (lg <= kL1Log2) return probe_l1_ns;
    if (lg >= kDramLog2) return probe_dram_ns;
    if (lg <= kLlcLog2) {
      const double t = (lg - kL1Log2) / (kLlcLog2 - kL1Log2);
      return probe_l1_ns + t * (probe_l2_ns - probe_l1_ns);
    }
    const double t = (lg - kLlcLog2) / (kDramLog2 - kLlcLog2);
    return probe_l2_ns + t * (probe_dram_ns - probe_l2_ns);
  }
};

/// Everything the cost models see. Rows are totals across all threads.
struct PlannerInputs {
  idx_t threads = 1;
  /// Total input rows (kInvalidIndex when the source cannot estimate).
  idx_t total_rows = kInvalidIndex;
  idx_t sampled_rows = 0;
  /// Estimated distinct groups over the whole input.
  double estimated_groups = 1;
  /// sampled_rows / sample_distinct: rows per group within the sample.
  double reduction_ratio = 1;
  idx_t phase1_capacity = 0;
  idx_t radix_partitions = 1;
  idx_t row_width_bytes = 0;
  idx_t memory_limit_bytes = 0;
  double reset_fill_ratio = 2.0 / 3.0;
};

/// The two cost models the planner compares. Each returns estimated
/// wall-clock seconds for phase 1 + merge + emit under that strategy.
/// CentralMergeCost still prices the sequential merge of the thread tables
/// that phase 2 ran before it became partition-wise for every plan; the
/// constants are left as they are so that decisions do not move until the
/// model is refitted (ROADMAP item 2).
double CentralMergeCost(const PlannerInputs &in, const AggregateCostModel &m);
double RadixMergeCost(const PlannerInputs &in, const AggregateCostModel &m);

/// The chosen plan plus everything needed to explain it (QueryProfile /
/// trace / stats all report from here).
struct PlannerDecision {
  /// What the query actually runs (forced override wins over the model).
  AggregateStrategy strategy = AggregateStrategy::kRadixMerge;
  /// What the cost model picked (== strategy unless forced).
  AggregateStrategy advised = AggregateStrategy::kRadixMerge;
  bool forced = false;
  idx_t estimated_groups = 0;
  double reduction_ratio = 1;
  idx_t sampled_rows = 0;
  /// Pipeline threads the cost models priced with: those that had called
  /// InitLocal when the decision was made, which can be fewer than the
  /// executor runs.
  idx_t threads = 0;
  /// Cost-model outputs, in estimated seconds.
  double central_cost = 0;
  double radix_cost = 0;
  /// Initial entry-array capacity for central thread tables.
  idx_t local_table_capacity = 0;
  /// Central tables above this many groups demote the query to radix
  /// (misestimate guard).
  idx_t demote_group_limit = 0;
  /// Perfect-hash fast path: the query groups by a single int64 key whose
  /// sampled value span fits kDirectIndexMaxRange, so central thread
  /// tables index group-row pointers by key value directly (no hashing, no
  /// probe). Keys outside [direct_min, direct_min + direct_range) that the
  /// sample never saw fall back to the generic path chunk-wise at run time.
  bool direct_index = false;
  int64_t direct_min = 0;
  idx_t direct_range = 0;
  /// Phase-1 lookup bypass: the radix plan with a saturated sample (at
  /// least 9 in 10 sampled rows were distinct), so phase-1 probes would
  /// almost never find a group. Threads then append every row straight
  /// into its radix partition, and phase 2 does all the grouping.
  bool phase1_bypass = false;
};

/// Per-query planner: accumulates the sampling phase, makes the strategy
/// decision once, then serves cheap post-decision queries (effective
/// strategy under demotion, early-aggregation advice from live spill
/// pressure). Thread-safe; the post-decision fast path is one relaxed load.
class AggregatePlanner {
 public:
  struct Options {
    AggregateStrategy strategy = AggregateStrategy::kAdaptive;
    EarlyAggMode early_agg = EarlyAggMode::kAuto;
    /// Rows observed (across all threads) before deciding.
    idx_t sample_rows = 32768;
    idx_t phase1_capacity = kPhase1HashTableCapacity;
    idx_t radix_partitions = 16;
    double reset_fill_ratio = 2.0 / 3.0;
    idx_t row_width_bytes = 32;
    idx_t memory_limit_bytes = 0;
    /// Total input rows if the source knows (kInvalidIndex otherwise).
    idx_t total_rows = kInvalidIndex;
    /// Whether the operator's layout admits the direct-index fast path (a
    /// single int64 group key) and the caller wants it considered.
    bool enable_direct_index = false;
    AggregateCostModel cost_model;
  };

  /// Widest key span (pointer-cache slots) the direct-index fast path will
  /// take on: 2^16 slots = 512 KiB of pointers, small enough that a dense
  /// low-cardinality key stream keeps the cache hot.
  static constexpr idx_t kDirectIndexMaxRange = idx_t{1} << 16;

  AggregatePlanner(Options options, MetricsRegistry &registry);

  /// True once the decision is made: when the sample window fills, or on
  /// EnsureDecided. Forced strategies go through the window too.
  [[nodiscard]] bool decided() const {
    return decided_.load(std::memory_order_acquire);
  }
  /// True while Observe still wants hashes. Forced strategies sample too —
  /// the hypothetical "advised" decision is reported for calibration (the
  /// early-agg ablation bench relies on it) — but the window closes with
  /// the decision either way.
  [[nodiscard]] bool sampling() const {
    return !sampling_done_.load(std::memory_order_acquire);
  }

  /// Accounts one registered pipeline thread (the cost models need T).
  void RegisterThread();

  /// Feeds one chunk's group hashes to the estimator; makes the decision
  /// once the sample window fills.
  void Observe(const hash_t *hashes, idx_t count);

  /// Feeds one sampled chunk's int64 key extremes (valid rows only) to the
  /// direct-index candidate range. Call before Observe — the window may
  /// close inside it.
  void ObserveKeyRange(int64_t min_key, int64_t max_key);

  /// Decides now with whatever was sampled (Combine/EmitResults call this
  /// so tiny inputs that never fill the window still get a decision).
  void EnsureDecided();

  /// The decision; EnsureDecided must have run (or decided() be true).
  [[nodiscard]] PlannerDecision decision() const;

  /// The decision's strategy, downgraded to radix after demotion.
  [[nodiscard]] AggregateStrategy EffectiveStrategy() const {
    if (demoted_.load(std::memory_order_acquire)) {
      return AggregateStrategy::kRadixMerge;
    }
    return decision().strategy;
  }

  /// Misestimate guard: a central thread table outgrew the decision's
  /// demote_group_limit, so every thread falls back to the fixed radix
  /// tables (the retired table's rows join the exchange like any other).
  void Demote();
  [[nodiscard]] bool demoted() const {
    return demoted_.load(std::memory_order_acquire);
  }

  /// The decision's phase1_bypass, readable without the planner lock.
  [[nodiscard]] bool phase1_bypass() const {
    return phase1_bypass_.load(std::memory_order_acquire);
  }

  /// EarlyAggMode::kAuto runtime signal: true when the sampled reduction
  /// ratio says compaction can shrink the data at least ~2x AND the metrics
  /// registry has seen spill writes or pool evictions since this planner
  /// was constructed. kOn always returns true, kOff always false. The
  /// registry read is rate-limited; callers may invoke this per chunk.
  [[nodiscard]] bool ShouldEarlyAggregate();

  /// Cumulative wall-clock seconds spent inside Observe (the <3% sampling
  /// overhead acceptance criterion is measured from this).
  [[nodiscard]] double sampling_seconds() const;

  [[nodiscard]] const Options &options() const { return options_; }

 private:
  void DecideLocked() SSAGG_REQUIRES(lock_);
  [[nodiscard]] bool SpillPressure();

  Options options_;
  MetricsRegistry &registry_;

  std::atomic<bool> decided_{false};
  std::atomic<bool> sampling_done_{false};
  std::atomic<bool> demoted_{false};
  std::atomic<bool> phase1_bypass_{false};
  std::atomic<idx_t> threads_{0};

  // Spill-pressure baseline captured at construction; results cached
  // between rate-limited registry reads.
  uint64_t base_spill_bytes_;
  uint64_t base_evictions_;
  std::atomic<uint32_t> pressure_poll_ = 0;
  std::atomic<bool> pressure_seen_{false};

  mutable Mutex lock_{LockRank::kPlanner, "AggregatePlanner::lock_"};
  HllEstimator hll_ SSAGG_GUARDED_BY(lock_);
  idx_t observed_rows_ SSAGG_GUARDED_BY(lock_) = 0;
  bool key_range_seen_ SSAGG_GUARDED_BY(lock_) = false;
  int64_t key_min_ SSAGG_GUARDED_BY(lock_) = 0;
  int64_t key_max_ SSAGG_GUARDED_BY(lock_) = 0;
  double sampling_seconds_ SSAGG_GUARDED_BY(lock_) = 0;
  PlannerDecision decision_ SSAGG_GUARDED_BY(lock_);
};

}  // namespace ssagg

#endif  // SSAGG_CORE_AGGREGATE_PLANNER_H_
