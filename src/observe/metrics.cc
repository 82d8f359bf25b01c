#include "observe/metrics.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace ssagg {

uint64_t HistogramSnapshot::Percentile(double q) const {
  if (count == 0) {
    return 0;
  }
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (idx_t i = 0; i < kBuckets; i++) {
    if (buckets[i] == 0) {
      continue;
    }
    uint64_t next = cumulative + buckets[i];
    if (static_cast<double>(next) >= target) {
      // Interpolate within the bucket assuming uniform mass.
      uint64_t lo = BucketLowerBound(i);
      uint64_t hi = BucketUpperBound(i);
      double fraction =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(buckets[i]);
      if (fraction < 0.0) {
        fraction = 0.0;
      }
      double value = static_cast<double>(lo) +
                     fraction * static_cast<double>(hi - lo);
      // Clamp in double space: near the top octave the interpolated value
      // can round to 2^64, where the uint64 cast would be undefined.
      if (value >= static_cast<double>(max)) {
        return max;
      }
      return value < 0.0 ? 0 : static_cast<uint64_t>(value);
    }
    cumulative = next;
  }
  return max;
}

MetricsRegistry::MetricsRegistry() { keys_.reserve(64); }

MetricsRegistry &MetricsRegistry::Global() {
  // Leaked intentionally: instrumented subsystems may record during static
  // destruction (e.g., atexit trace flushing).
  static MetricsRegistry *global = new MetricsRegistry();
  return *global;
}

idx_t MetricsRegistry::KeyId(const std::string &key) {
  ScopedLock guard(lock_);
  auto it = key_ids_.find(key);
  if (it != key_ids_.end()) {
    return it->second;
  }
  SSAGG_ASSERT(keys_.size() < kMaxKeys);
  idx_t id = keys_.size();
  keys_.push_back(key);
  key_ids_.emplace(key, id);
  return id;
}

idx_t MetricsRegistry::HistogramId(const std::string &key) {
  ScopedLock guard(lock_);
  auto it = hist_key_ids_.find(key);
  if (it != hist_key_ids_.end()) {
    return it->second;
  }
  SSAGG_ASSERT(hist_keys_.size() < kMaxHistograms);
  idx_t id = hist_keys_.size();
  hist_keys_.push_back(key);
  hist_key_ids_.emplace(key, id);
  return id;
}

MetricsRegistry::HistogramShard *MetricsRegistry::AllocateHistogramShard(
    Shard &shard) {
  auto *block = new HistogramShard();
  // Release pairs with the acquire load in readers; only the owning thread
  // ever stores, so there is no allocation race.
  shard.histograms.store(block, std::memory_order_release);
  return block;
}

HistogramSnapshot MetricsRegistry::MergedHistogramLocked(idx_t hist_id) const {
  HistogramSnapshot merged;
  shards_.ForEach(lock_, [&](Shard &shard) {
    HistogramShard *h = shard.histograms.load(std::memory_order_acquire);
    if (h == nullptr) {
      return;
    }
    HistogramSnapshot part;
    for (idx_t b = 0; b < HistogramSnapshot::kBuckets; b++) {
      part.buckets[b] = h->counts[hist_id][b].load(std::memory_order_relaxed);
      part.count += part.buckets[b];
    }
    part.sum = h->sums[hist_id].load(std::memory_order_relaxed);
    part.max = h->maxes[hist_id].load(std::memory_order_relaxed);
    merged.Merge(part);
  });
  return merged;
}

HistogramSnapshot MetricsRegistry::Histogram(const std::string &key) const {
  ScopedLock guard(lock_);
  auto it = hist_key_ids_.find(key);
  if (it == hist_key_ids_.end()) {
    return HistogramSnapshot{};
  }
  return MergedHistogramLocked(it->second);
}

std::map<std::string, HistogramSnapshot> MetricsRegistry::HistogramSnapshots()
    const {
  ScopedLock guard(lock_);
  std::map<std::string, HistogramSnapshot> result;
  for (idx_t id = 0; id < hist_keys_.size(); id++) {
    result[hist_keys_[id]] = MergedHistogramLocked(id);
  }
  return result;
}

namespace {
std::string PrometheusName(const std::string &key) {
  std::string name = "ssagg_";
  for (char c : key) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    name.push_back(ok ? c : '_');
  }
  return name;
}

void AppendFormat(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendFormat(std::string &out, const char *fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  int n = vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (n > 0) {
    out.append(buffer, static_cast<size_t>(n) < sizeof(buffer)
                           ? static_cast<size_t>(n)
                           : sizeof(buffer) - 1);
  }
}
}  // namespace

std::string MetricsRegistry::RenderPrometheus() const {
  std::string out;
  auto counters = Snapshot();
  for (const auto &[key, value] : counters) {
    std::string name = PrometheusName(key);
    AppendFormat(out, "# TYPE %s counter\n", name.c_str());
    AppendFormat(out, "%s %" PRIu64 "\n", name.c_str(), value);
  }
  auto histograms = HistogramSnapshots();
  for (const auto &[key, snap] : histograms) {
    std::string name = PrometheusName(key);
    AppendFormat(out, "# TYPE %s histogram\n", name.c_str());
    uint64_t cumulative = 0;
    for (idx_t b = 0; b < HistogramSnapshot::kBuckets; b++) {
      if (snap.buckets[b] == 0) {
        continue;
      }
      cumulative += snap.buckets[b];
      // The le bound is this bucket's inclusive upper edge.
      AppendFormat(out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                   name.c_str(), HistogramSnapshot::BucketUpperBound(b) - 1,
                   cumulative);
    }
    AppendFormat(out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name.c_str(),
                 snap.count);
    AppendFormat(out, "%s_sum %" PRIu64 "\n", name.c_str(), snap.sum);
    AppendFormat(out, "%s_count %" PRIu64 "\n", name.c_str(), snap.count);
  }
  return out;
}

uint64_t MetricsRegistry::Value(const std::string &key) const {
  ScopedLock guard(lock_);
  auto it = key_ids_.find(key);
  if (it == key_ids_.end()) {
    return 0;
  }
  uint64_t sum = 0;
  shards_.ForEach(lock_, [&](Shard &shard) {
    sum += shard.values[it->second].load(std::memory_order_relaxed);
  });
  return sum;
}

std::map<std::string, uint64_t> MetricsRegistry::Snapshot() const {
  ScopedLock guard(lock_);
  std::vector<uint64_t> sums(keys_.size(), 0);
  shards_.ForEach(lock_, [&](Shard &shard) {
    for (idx_t id = 0; id < sums.size(); id++) {
      sums[id] += shard.values[id].load(std::memory_order_relaxed);
    }
  });
  std::map<std::string, uint64_t> result;
  for (idx_t id = 0; id < keys_.size(); id++) {
    result[keys_[id]] = sums[id];
  }
  return result;
}

void MetricsRegistry::Reset() {
  ScopedLock guard(lock_);
  const idx_t keys = keys_.size();
  const idx_t hists = hist_keys_.size();
  shards_.ForEach(lock_, [&](Shard &shard) {
    for (idx_t id = 0; id < keys; id++) {
      shard.values[id].store(0, std::memory_order_relaxed);
    }
    HistogramShard *h = shard.histograms.load(std::memory_order_acquire);
    if (h == nullptr) {
      return;
    }
    for (idx_t id = 0; id < hists; id++) {
      for (idx_t b = 0; b < HistogramSnapshot::kBuckets; b++) {
        h->counts[id][b].store(0, std::memory_order_relaxed);
      }
      h->sums[id].store(0, std::memory_order_relaxed);
      h->maxes[id].store(0, std::memory_order_relaxed);
    }
  });
}

idx_t MetricsRegistry::KeyCount() const {
  ScopedLock guard(lock_);
  return keys_.size();
}

idx_t MetricsRegistry::ShardCount() const {
  ScopedLock guard(lock_);
  return shards_.Count(lock_);
}

}  // namespace ssagg
