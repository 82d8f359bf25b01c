#ifndef SSAGG_OBSERVE_PROFILE_H_
#define SSAGG_OBSERVE_PROFILE_H_

#include <map>
#include <string>

#include "common/constants.h"
#include "observe/json.h"
#include "observe/metrics.h"

namespace ssagg {

/// One query's observability snapshot: wall-clock phase timings plus every
/// counter the instrumented layers produced while the query ran — operator
/// stats ("agg.*"), executor stats ("exec.*"), buffer-manager and
/// temporary-file deltas ("bm.*", "io.*"). Counters are flat dotted keys so
/// two profiles diff mechanically (scripts/bench_report.py); ToJson() emits
/// them under "counters" in sorted order for stable files.
///
/// Filled by RunGroupedAggregation (pass a QueryProfile out-pointer) and
/// embedded in bench results by bench::WriteResultsJson.
struct QueryProfile {
  std::string query;
  idx_t threads = 0;
  double total_seconds = 0;
  double phase1_seconds = 0;
  double phase2_seconds = 0;

  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> timings;  // seconds, e.g. "exec.busy_seconds"
  /// Per-query latency distributions (spill I/O, eviction, morsel sinks,
  /// ...); ToJson emits count/p50/p90/p99/max per key under "histograms".
  std::map<std::string, HistogramSnapshot> histograms;

  void AddCounter(const std::string &key, uint64_t value) {
    counters[key] += value;
  }
  void AddTiming(const std::string &key, double seconds) {
    timings[key] += seconds;
  }
  /// 0 when the key was never recorded.
  uint64_t Counter(const std::string &key) const {
    auto it = counters.find(key);
    return it == counters.end() ? 0 : it->second;
  }

  Json ToJson() const;
};

/// Computes the delta a query contributed to the (cumulative, process-wide)
/// metrics registry: construct before the query, call TakeDelta after.
class RegistryDelta {
 public:
  explicit RegistryDelta(MetricsRegistry &registry = MetricsRegistry::Global())
      : registry_(registry),
        begin_(registry.Snapshot()),
        hist_begin_(registry.HistogramSnapshots()) {}

  /// Adds each counter key's growth since construction to
  /// `profile.counters`, and each histogram's delta (buckets/count/sum
  /// subtracted; max taken as-is) to `profile.histograms`.
  void AddTo(QueryProfile &profile) const;

 private:
  MetricsRegistry &registry_;
  std::map<std::string, uint64_t> begin_;
  std::map<std::string, HistogramSnapshot> hist_begin_;
};

}  // namespace ssagg

#endif  // SSAGG_OBSERVE_PROFILE_H_
