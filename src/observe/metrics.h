#ifndef SSAGG_OBSERVE_METRICS_H_
#define SSAGG_OBSERVE_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/constants.h"
#include "common/mutex.h"
#include "common/status.h"
#include "observe/thread_slots.h"

namespace ssagg {

/// Merged view of one histogram: log-linear buckets (4 sub-buckets per
/// power of two, so relative bucket width is bounded by 25%), total count,
/// sum and max. Values are whatever unit the recording site used — by
/// convention nanoseconds for *_ns keys.
struct HistogramSnapshot {
  /// 4 linear sub-buckets per octave over a uint64 range: values 0..3 get
  /// exact buckets, then bucket = octave*4 + sub. 64 octaves * 4 = 256.
  static constexpr idx_t kBuckets = 256;

  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::array<uint64_t, kBuckets> buckets{};

  /// Maps a value to its bucket index (log-linear, monotone, contiguous:
  /// values 0..7 get exact buckets 0..7, then each octave spans 4 buckets).
  [[nodiscard]] static idx_t BucketIndex(uint64_t value) {
    if (value < 4) {
      return static_cast<idx_t>(value);
    }
    int octave = 63 - __builtin_clzll(value);
    auto sub = static_cast<idx_t>((value >> (octave - 2)) & 3);
    return static_cast<idx_t>(octave) * 4 + sub - 4;
  }
  /// Smallest value that lands in bucket `index`.
  [[nodiscard]] static uint64_t BucketLowerBound(idx_t index) {
    if (index < 4) {
      return index;
    }
    uint64_t octave = (index + 4) / 4;
    uint64_t sub = (index + 4) % 4;
    return (uint64_t{1} << octave) + sub * (uint64_t{1} << (octave - 2));
  }
  /// First value that lands *above* bucket `index` (exclusive upper bound,
  /// saturating: the top octave's bound 2^64 is not representable, so every
  /// bucket from the last reachable one — BucketIndex(~0) == kBuckets - 5 —
  /// upward reports UINT64_MAX).
  [[nodiscard]] static uint64_t BucketUpperBound(idx_t index) {
    if (index + 5 >= kBuckets) {
      return ~uint64_t{0};
    }
    return BucketLowerBound(index + 1);
  }

  void Merge(const HistogramSnapshot &other) {
    count += other.count;
    sum += other.sum;
    max = max > other.max ? max : other.max;
    for (idx_t i = 0; i < kBuckets; i++) {
      buckets[i] += other.buckets[i];
    }
  }
  /// Saturating per-field subtraction; used for per-query deltas against a
  /// baseline snapshot. `max` keeps the current max (not subtractable).
  void Subtract(const HistogramSnapshot &baseline) {
    count = count > baseline.count ? count - baseline.count : 0;
    sum = sum > baseline.sum ? sum - baseline.sum : 0;
    for (idx_t i = 0; i < kBuckets; i++) {
      buckets[i] = buckets[i] > baseline.buckets[i]
                       ? buckets[i] - baseline.buckets[i]
                       : 0;
    }
  }

  /// Interpolated percentile (q in [0,1]); 0 when empty. Within the target
  /// bucket the mass is assumed uniform, and the result is clamped to the
  /// observed max so p100 is exact.
  [[nodiscard]] uint64_t Percentile(double q) const;
  [[nodiscard]] double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Process-wide metrics registry with thread-local sharded counters.
///
/// Counters are addressed by stable string keys ("bm.spill_bytes_written",
/// "exec.morsels", ...). A key resolves once to a dense id; increments then
/// touch only the calling thread's shard — a plain array slot written with
/// relaxed atomics, so the hot path takes no lock and shares no cache line
/// with other threads. Snapshot() walks all shards under the registry lock
/// and sums per key, which is exact: shards come from a ThreadSlots pool,
/// so a joined worker's shard keeps its counts and passes to the next new
/// thread (the task executor spawns fresh threads per pipeline, and their
/// counts must not vanish with them, nor their shards pile up).
///
/// Timers are counters holding nanoseconds; see ScopedTimerNs.
///
/// Convention for key names: "<subsystem>.<counter>"; *_bytes, *_ns
/// suffixes for units.
class MetricsRegistry {
 public:
  /// Up to this many distinct keys per registry; a shard is one fixed
  /// array of this many slots (8 KiB), so key ids never invalidate.
  static constexpr idx_t kMaxKeys = 1024;
  /// Up to this many distinct histograms per registry. Histogram storage is
  /// allocated lazily per shard on the owning thread's first Record, so
  /// counter-only threads stay at 8 KiB.
  static constexpr idx_t kMaxHistograms = 64;

  MetricsRegistry();
  ~MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// The default registry every instrumented subsystem records into.
  static MetricsRegistry &Global();

  /// Resolves a key to its dense id, creating it on first use. Takes the
  /// registry lock; call once and cache the id near hot paths.
  [[nodiscard]] idx_t KeyId(const std::string &key);

  /// Lock-free: bumps the calling thread's shard slot.
  void Add(idx_t key_id, uint64_t delta) {
    SSAGG_DASSERT(key_id < kMaxKeys);
    shards_.Local(lock_).values[key_id].fetch_add(delta,
                                                   std::memory_order_relaxed);
  }
  /// Convenience slow path: resolves the key every call.
  void Add(const std::string &key, uint64_t delta) { Add(KeyId(key), delta); }

  /// Sum of one key across all shards.
  [[nodiscard]] uint64_t Value(const std::string &key) const;

  /// All keys summed across shards. Keys that were registered but never
  /// incremented report 0.
  [[nodiscard]] std::map<std::string, uint64_t> Snapshot() const;

  /// Resolves a histogram key to its dense id, creating it on first use.
  /// Histogram ids are a separate namespace from counter ids. Takes the
  /// registry lock; call once and cache the id near hot paths.
  [[nodiscard]] idx_t HistogramId(const std::string &key);

  /// Lock-free: bumps one bucket + sum + max of the calling thread's
  /// histogram shard. Same discipline as Add — relaxed atomics on storage
  /// owned by this thread, merged exactly on read.
  void Record(idx_t hist_id, uint64_t value) {
    SSAGG_DASSERT(hist_id < kMaxHistograms);
    Shard &shard = shards_.Local(lock_);
    HistogramShard *h = shard.histograms.load(std::memory_order_acquire);
    if (h == nullptr) {
      h = AllocateHistogramShard(shard);
    }
    idx_t bucket = HistogramSnapshot::BucketIndex(value);
    h->counts[hist_id][bucket].fetch_add(1, std::memory_order_relaxed);
    h->sums[hist_id].fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = h->maxes[hist_id].load(std::memory_order_relaxed);
    while (value > seen && !h->maxes[hist_id].compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }
  /// Convenience slow path: resolves the key every call.
  void Record(const std::string &key, uint64_t value) {
    Record(HistogramId(key), value);
  }

  /// Merged view of one histogram across all shards; empty snapshot for an
  /// unknown key.
  [[nodiscard]] HistogramSnapshot Histogram(const std::string &key) const;

  /// All histograms merged across shards, keyed by name.
  [[nodiscard]] std::map<std::string, HistogramSnapshot> HistogramSnapshots()
      const;

  /// Prometheus text exposition (version 0.0.4) of every counter and
  /// histogram. Key names are sanitized ('.' -> '_') and prefixed "ssagg_";
  /// histograms emit cumulative le-buckets (non-empty buckets plus +Inf),
  /// _sum and _count.
  [[nodiscard]] std::string RenderPrometheus() const;

  /// Zeroes every slot of every shard (keys stay registered). Counts from
  /// concurrent writers may land before or after the reset, as usual for
  /// monotonic counters.
  void Reset();

  [[nodiscard]] idx_t KeyCount() const;
  /// Shards allocated so far: at most the peak number of live threads.
  [[nodiscard]] idx_t ShardCount() const;

 private:
  struct HistogramShard {
    std::atomic<uint64_t> counts[kMaxHistograms][HistogramSnapshot::kBuckets];
    std::atomic<uint64_t> sums[kMaxHistograms];
    std::atomic<uint64_t> maxes[kMaxHistograms];
    HistogramShard() {
      for (auto &row : counts) {
        for (auto &c : row) {
          c.store(0, std::memory_order_relaxed);
        }
      }
      for (idx_t i = 0; i < kMaxHistograms; i++) {
        sums[i].store(0, std::memory_order_relaxed);
        maxes[i].store(0, std::memory_order_relaxed);
      }
    }
  };

  struct Shard {
    std::atomic<uint64_t> values[kMaxKeys];
    /// Lazily allocated by the owning thread on its first Record; freed with
    /// the shard. Readers load with acquire under the registry lock.
    std::atomic<HistogramShard *> histograms{nullptr};
    Shard() {
      for (auto &value : values) {
        value.store(0, std::memory_order_relaxed);
      }
    }
    ~Shard() { delete histograms.load(std::memory_order_acquire); }
  };

  /// Slow path of Record: allocates the calling thread's histogram block.
  /// Only the shard-owning thread writes `histograms`, so a plain release
  /// store publishes it.
  HistogramShard *AllocateHistogramShard(Shard &shard);
  HistogramSnapshot MergedHistogramLocked(idx_t hist_id) const
      SSAGG_REQUIRES(lock_);

  /// Protects key registration and the shard pool's slow path. The hot
  /// path (Add) is annotation-exempt by construction: it touches only the
  /// calling thread's shard through relaxed atomics (see DESIGN.md
  /// section 9), and a shard, once handed out, lives as long as the pool.
  mutable Mutex lock_{LockRank::kMetricsRegistry, "MetricsRegistry::lock_"};
  std::vector<std::string> keys_ SSAGG_GUARDED_BY(lock_);   // id -> key
  std::unordered_map<std::string, idx_t> key_ids_
      SSAGG_GUARDED_BY(lock_);                              // key -> id
  std::vector<std::string> hist_keys_ SSAGG_GUARDED_BY(lock_);
  std::unordered_map<std::string, idx_t> hist_key_ids_ SSAGG_GUARDED_BY(lock_);
  ThreadSlots<Shard> shards_;
};

/// Adds the elapsed wall-clock nanoseconds to a registry counter when it
/// goes out of scope.
class ScopedTimerNs {
 public:
  ScopedTimerNs(MetricsRegistry &registry, idx_t key_id)
      : registry_(registry),
        key_id_(key_id),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimerNs() {
    auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_.Add(
        key_id_,
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
  }

  ScopedTimerNs(const ScopedTimerNs &) = delete;
  ScopedTimerNs &operator=(const ScopedTimerNs &) = delete;

 private:
  MetricsRegistry &registry_;
  idx_t key_id_;
  std::chrono::steady_clock::time_point start_;
};

/// Records the elapsed wall-clock nanoseconds into a registry histogram when
/// it goes out of scope. Sites that also need a counter keep their existing
/// ScopedTimerNs; the two compose.
class ScopedHistogramTimerNs {
 public:
  ScopedHistogramTimerNs(MetricsRegistry &registry, idx_t hist_id)
      : registry_(registry),
        hist_id_(hist_id),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedHistogramTimerNs() {
    auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_.Record(
        hist_id_,
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
  }

  ScopedHistogramTimerNs(const ScopedHistogramTimerNs &) = delete;
  ScopedHistogramTimerNs &operator=(const ScopedHistogramTimerNs &) = delete;

 private:
  MetricsRegistry &registry_;
  idx_t hist_id_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ssagg

#endif  // SSAGG_OBSERVE_METRICS_H_
