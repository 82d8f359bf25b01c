// Live query introspection demo and metrics dump entry point.
//
// Runs a deliberately memory-starved (spilling) aggregation while a
// separate thread polls its QueryProgress handle, printing a live status
// line: phase, rows consumed, completion fraction, the planner's group
// estimate, spill volume and the p99 spill-write latency — all without
// touching the query threads (the handle is a few relaxed atomics plus a
// registry delta).
//
// Afterwards it prints the buffer manager's page frames (mapped, and idle in
// its frame pool), the process-wide MetricsRegistry in Prometheus text
// exposition format (what a /metrics endpoint would serve) and, when
// SSAGG_FLIGHT_DUMP is set, writes a flight-recorder dump of the query's
// last trace events.
//
// Usage:
//   ssagg_stat                         # live progress + Prometheus dump
//   SSAGG_FLIGHT_DUMP=/tmp ssagg_stat  # ... plus a flight dump in /tmp

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "ssagg/ssagg.h"

using namespace ssagg;  // NOLINT(build/namespaces)

namespace {

constexpr idx_t kRows = 1500000;

RangeSource MakeSource() {
  return RangeSource(
      {LogicalTypeId::kInt64, LogicalTypeId::kInt64}, kRows,
      [](DataChunk &chunk, idx_t start, idx_t count) {
        for (idx_t i = 0; i < count; i++) {
          auto row = static_cast<int64_t>(start + i);
          chunk.column(0).SetValue<int64_t>(
              i, static_cast<int64_t>(HashUint64(row) % kRows));
          chunk.column(1).SetValue<int64_t>(i, row);
        }
        return Status::OK();
      });
}

void PrintStatusLine(const QueryProgress::Snapshot &snap) {
  uint64_t p99_spill_us = 0;
  auto it = snap.histograms.find("io.spill_write_latency_ns");
  if (it != snap.histograms.end()) {
    p99_spill_us = it->second.Percentile(0.99) / 1000;
  }
  // A session parked in a QueryService admission queue reports kQueued (not
  // a blank pending line); once admitted, the wait it served is latched.
  if (snap.phase == QueryProgress::Phase::kQueued) {
    std::printf("\r[queued ] waiting for admission...                        "
                "                    ");
    std::fflush(stdout);
    return;
  }
  std::printf("\r[%-7s] %3.0f%%  rows %9llu/%llu  D-hat %8llu  "
              "spilled %6llu MiB  spill p99 %6llu us",
              QueryProgress::PhaseName(snap.phase), snap.Fraction() * 100.0,
              static_cast<unsigned long long>(snap.rows_consumed),
              static_cast<unsigned long long>(snap.estimated_total_rows),
              static_cast<unsigned long long>(snap.estimated_groups),
              static_cast<unsigned long long>(snap.bytes_spilled >> 20),
              static_cast<unsigned long long>(p99_spill_us));
  if (snap.queue_wait_ns > 0) {
    std::printf("  queued %llu ms",
                static_cast<unsigned long long>(snap.queue_wait_ns / 1000000));
  }
  std::printf("   ");
  std::fflush(stdout);
}

}  // namespace

int main() {
  BufferManager bm("/tmp/ssagg_stat", 64ULL << 20);
  TaskExecutor executor(2);
  auto source = MakeSource();
  CountingCollector sink;
  HashAggregateConfig config;
  config.phase1_capacity = 1ULL << 15;
  config.radix_bits = 5;

  QueryProgress progress;
  std::atomic<bool> done{false};
  std::thread poller([&]() {
    while (!done.load(std::memory_order_relaxed)) {
      PrintStatusLine(progress.Poll());
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  auto stats = RunGroupedAggregation(bm, source, {0},
                                     {{AggregateKind::kSum, 1}}, sink,
                                     executor, config, nullptr, &progress);
  done.store(true);
  poller.join();
  PrintStatusLine(progress.Poll());
  std::printf("\n\n");
  if (!stats.ok()) {
    SSAGG_LOG_ERROR("query failed: %s", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("groups: %llu  (phase1 %.2fs, phase2 %.2fs)\n",
              static_cast<unsigned long long>(stats.value().unique_groups),
              stats.value().phase1_seconds, stats.value().phase2_seconds);
  // The query's page frames now sit idle in the frame pool for the next
  // query; idle plus charged memory stays within the limit.
  BufferManagerSnapshot pool = bm.Snapshot();
  std::printf("page frames: %llu mapped, %llu MiB idle in the frame pool "
              "(limit %llu MiB)\n\n",
              static_cast<unsigned long long>(pool.frames_mapped),
              static_cast<unsigned long long>(pool.frame_pool_bytes >> 20),
              static_cast<unsigned long long>(pool.memory_limit >> 20));

  std::printf("---- Prometheus exposition (process lifetime) ----\n%s",
              MetricsRegistry::Global().RenderPrometheus().c_str());

  FlightRecorder &flight = FlightRecorder::Global();
  if (!flight.dump_directory().empty()) {
    std::string path = flight.DumpAnomaly("ssagg_stat");
    std::printf("\nflight recording (%llu events): %s\n",
                static_cast<unsigned long long>(flight.EventCount()),
                path.empty() ? "(dump cap reached)" : path.c_str());
  } else {
    std::printf("\n(set SSAGG_FLIGHT_DUMP=<dir> to keep a flight-recorder "
                "dump of the last trace events)\n");
  }
  return 0;
}
