#!/usr/bin/env bash
# Builds the tree and runs the test suite, then repeats the run under
# ASan+UBSan and under TSan (SSAGG_SANITIZE wires the flags through the
# whole tree). The batched-append and pointer-recomputation code paths are
# exactly where the sanitizers earn their keep.
#
# The plain build additionally runs a profile smoke step: a memory-limited
# (spilling) query with SSAGG_TRACE on, asserting that the emitted profile
# saw real spill I/O, that the trace's spans are balanced per thread, that
# no event was dropped, and that the planner's decision is in the trace.
#
# The sanitizer build additionally re-runs the fault-injection sweeps on
# their own: every injected I/O and allocation failure unwinds under
# ASan+UBSan, which is where leaked pins and double-frees on error paths
# actually surface.
#
# The TSan build is the runtime half of the concurrency gate (DESIGN.md
# section 9): the compile half is Clang's -Wthread-safety over the
# annotations in src/common/mutex.h, so the TSan leg also fails if the
# build log contains any thread-safety diagnostic (belt and braces when the
# compiler is Clang but SSAGG_THREAD_SAFETY_ANALYSIS was overridden off).
#
# The plain build also runs a spill-I/O smoke step: the same spilling query
# once per I/O backend (sync, threadpool, io_uring) with spill compression
# on, asserting that every backend spills, that compressed bytes written
# stay below the raw spill volume, and that the query's result row count is
# identical across backends.
#
# The plain build also runs a strategy smoke step: two canned queries at
# the planner's cardinality extremes, asserting the adaptive planner picks
# central thread tables for a handful of groups and the radix plan for ~1M
# groups (DESIGN.md section 11), with its decision visible in the profile
# JSON. The central run must also show that its phase 2 ran partition-wise,
# that its planner-sized tables never resized, and that tables torn down
# at the transition and at Combine were not counted as resets.
#
# Copy guard: the radix run of the strategy smoke and the spilling run of
# the profile smoke group unique input, so phase 2 must take every
# partition in place and copy none of its rows (DESIGN.md section 4).
#
# Bypass guard: the same two runs must skip the phase-1 lookups after
# their unique sample (agg.phase1_bypass 1); the radix run must also read
# bypassed rows and no phase-1 reset, and the central run must not bypass.
#
# The plain build also runs the memory-limit cell: SF 8 wide grouping 13 in
# 48 MiB with 2 threads, 20 times at each of two fan-out settings, each run
# checked against an oracle (ROADMAP item 1).
#
# The plain build also runs an observe smoke step (DESIGN.md section 12):
# a spilling query must surface nonzero spill-latency percentiles in its
# profile histograms, and a fault-injection run under SSAGG_FLIGHT_DUMP
# must leave flight-recorder dumps that parse as Chrome trace JSON.
#
# The plain build also runs a service smoke step (DESIGN.md section 13):
# a batch of concurrent spilling queries through the multi-tenant
# QueryService on a deliberately small pool, asserting that oversubscribed
# concurrency levels report nonzero queue-wait percentiles, that every
# query completes, and that the grant pool quiesces with zero leaked bytes.
#
# The static-analysis half of the concurrency gate is scripts/ssagg_analyze.py
# (DESIGN.md section 14): --analyze-only proves the analyzer against its
# canary corpus, then runs it over the tree. The runtime half of the lock
# hierarchy is the debug lock-rank checker (SSAGG_LOCK_RANK_CHECKS), which
# the sanitizer builds below enable automatically — an out-of-hierarchy
# acquisition aborts the stress/soak tests instead of deadlocking them.
#
# Usage: scripts/check.sh
#   [--asan-only|--plain-only|--tsan-only|--spill-io-only|--strategy-only|
#    --observe-only|--service-only|--analyze-only]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
MODE="${1:-all}"

run_build() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

profile_smoke() {
  local dir="$1"
  echo "=== profile smoke (spilling query + trace) ==="
  local work
  work=$(mktemp -d)
  # SF 16 wide grouping 13 (all-unique groups) at 64 MiB must spill.
  (cd "$work" && SSAGG_BENCH_MEMORY_MB=64 SSAGG_BENCH_THREADS=2 \
      SSAGG_BENCH_TMPDIR="$work/tmp" SSAGG_TRACE="$work/trace.json" \
      "$OLDPWD/$dir/bench/bench_single_query" 16 wide 13 du)
  python3 - "$work/results/bench_single_query.json" "$work/trace.json" <<'EOF'
import collections, json, sys
results_path, trace_path = sys.argv[1], sys.argv[2]
with open(results_path) as f:
    doc = json.load(f)
counters = doc["result"]["profile"]["counters"]
spilled = counters.get("io.spill_bytes_written", 0)
assert spilled > 0, f"profile saw no spill: {counters}"
assert counters.get("io.spill_bytes_read", 0) > 0, "nothing read back"
# Copy guard: unique groups are grouped in place in phase 2, even when the
# partitions were spilled; phase 2 copies none of their rows.
assert counters.get("agg.phase2_copied_rows") == 0, \
    f"phase 2 copied rows of unique input: {counters}"
assert counters.get("agg.phase2_in_place_partitions", 0) > 0, \
    f"no phase-2 partition went in place: {counters}"
# Bypass guard: the unique sample makes phase 1 append without lookups.
assert counters.get("agg.phase1_bypass") == 1, \
    f"unique input did not bypass the phase-1 lookups: {counters}"
with open(trace_path) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace is empty"
# The traced run must fit the enlarged rings, and the planner's decision
# must reach the trace.
assert trace["droppedEvents"] == 0, f"trace lost {trace['droppedEvents']} events"
assert any(e["name"] == "planner.strategy" for e in events), \
    "planner.strategy missing from the trace"
# Complete events (ph == "X") must be balanced: per thread, spans are
# laminar — any two either nest or are disjoint (no partial overlap).
by_tid = collections.defaultdict(list)
for e in events:
    if e["ph"] == "X":
        assert e["dur"] >= 0, e
        by_tid[e["tid"]].append((e["ts"], e["ts"] + e["dur"]))
names = {e["name"] for e in events if e["ph"] == "X"}
assert "query" in names and "spill.write" in names, names
for tid, spans in by_tid.items():
    # Sweep in start order (outer span first on ties); the stack holds the
    # end times of currently-open ancestors.
    spans.sort(key=lambda span: (span[0], -span[1]))
    stack = []
    for start, end in spans:
        while stack and start >= stack[-1]:
            stack.pop()
        assert not stack or end <= stack[-1], \
            f"overlapping spans on tid {tid}"
        stack.append(end)
print(f"profile smoke ok: {spilled} spill bytes, "
      f"{sum(len(s) for s in by_tid.values())} spans on {len(by_tid)} threads")
EOF
  rm -rf "$work"
}

spill_io_smoke() {
  local dir="$1"
  echo "=== spill I/O smoke (backend sweep, compressed < raw) ==="
  local work
  work=$(mktemp -d)
  local backend
  for backend in sync threadpool io_uring; do
    # SF 16 wide grouping 13 (all-unique groups) at 64 MiB must spill.
    (cd "$work" && SSAGG_BENCH_MEMORY_MB=64 SSAGG_BENCH_THREADS=2 \
        SSAGG_BENCH_TMPDIR="$work/tmp-$backend" \
        SSAGG_IO_BACKEND="$backend" SSAGG_SPILL_COMPRESSION=1 \
        "$OLDPWD/$dir/bench/bench_single_query" 16 wide 13 du)
    mv "$work/results/bench_single_query.json" "$work/$backend.json"
  done
  python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
rows = {}
for backend in ("sync", "threadpool", "io_uring"):
    with open(f"{work}/{backend}.json") as f:
        doc = json.load(f)
    counters = doc["result"]["profile"]["counters"]
    raw = counters.get("io.spill_raw_bytes", 0)
    written = counters.get("io.spill_bytes_written", 0)
    assert raw > 0, f"{backend}: query did not spill: {counters}"
    assert 0 < written < raw, \
        f"{backend}: compression did not shrink spill: {written} vs {raw}"
    rows[backend] = doc["result"]["result_rows"]
    print(f"spill io smoke ok [{backend}]: {written} written / {raw} raw "
          f"({written / raw:.2f}x)")
assert len(set(rows.values())) == 1, f"row counts diverge: {rows}"
EOF
  rm -rf "$work"
}

strategy_smoke() {
  local dir="$1"
  echo "=== strategy smoke (planner picks central at ~4 groups, radix at ~1M) ==="
  local work
  work=$(mktemp -d)
  # Grouping 1 (returnflag/linestatus): 4 groups -> central merge.
  (cd "$work" && SSAGG_BENCH_THREADS=2 SSAGG_BENCH_TMPDIR="$work/tmp" \
      "$OLDPWD/$dir/bench/bench_single_query" 4 thin 1 du)
  mv "$work/results/bench_single_query.json" "$work/low.json"
  # Grouping 13 (all-unique) at SF 18: ~1.08M groups -> radix merge.
  (cd "$work" && SSAGG_BENCH_THREADS=2 SSAGG_BENCH_TMPDIR="$work/tmp" \
      "$OLDPWD/$dir/bench/bench_single_query" 18 thin 13 du)
  mv "$work/results/bench_single_query.json" "$work/high.json"
  python3 - "$work" <<'EOF'
import json, sys
work = sys.argv[1]
# AggregateStrategy enum values: 1 central, 3 radix.
for name, expected, label in (("low", 1, "central"), ("high", 3, "radix")):
    with open(f"{work}/{name}.json") as f:
        doc = json.load(f)
    counters = doc["result"]["profile"]["counters"]
    chosen = counters.get("agg.chosen_strategy")
    estimated = counters.get("agg.estimated_groups")
    assert counters.get("agg.planner_forced") == 0, counters
    assert chosen == expected, \
        f"{name}-cardinality query chose strategy {chosen}, wanted {label}: " \
        f"estimated_groups={estimated}"
    copied = counters.get("agg.phase2_copied_rows")
    in_place = counters.get("agg.phase2_in_place_partitions", 0)
    if name == "low":
        # One phase 2 for every plan: the central thread tables' partitions
        # are aggregated partition-wise, like the radix plan's.
        assert copied + in_place > 0, \
            f"central phase 2 did not run partition-wise: {counters}"
        # Planner-sized central tables leave a chunk of headroom, and a
        # table torn down is released, not reset.
        resizes = counters.get("agg.ht_resizes")
        resets = counters.get("agg.phase1_resets")
        assert resizes == 0 and resets == 0, \
            f"central run read {resizes} resizes and {resets} resets"
        # Central thread tables always look their groups up.
        assert counters.get("agg.phase1_bypass") == 0, \
            f"central run bypassed the phase-1 lookups: {counters}"
    if name == "high":
        # Copy guard: the radix plan groups unique partitions in place.
        assert copied == 0 and in_place > 0, \
            f"phase 2 copied {copied} rows, {in_place} partitions in place"
        # Bypass guard: after its unique sample, phase 1 appends every row
        # without a lookup, so it never resets.
        bypass = counters.get("agg.phase1_bypass")
        bypassed = counters.get("agg.phase1_bypassed_rows", 0)
        resets = counters.get("agg.phase1_resets")
        assert bypass == 1 and bypassed > 0 and resets == 0, \
            f"radix run read phase1_bypass {bypass}, {bypassed} bypassed " \
            f"rows and {resets} resets"
    print(f"strategy smoke ok [{name}]: chose {label}, "
          f"estimated {estimated} groups")
EOF
  rm -rf "$work"
}

memory_cell_smoke() {
  local dir="$1"
  echo "=== memory-limit cell (SF 8 wide unique in 48 MiB, 20 runs) ==="
  # ROADMAP item 1's cell fails or not depending on how the threads'
  # phase-1 work interleaves: one pass proves little, so it runs 20 times
  # at the library defaults and at the benchmark harness's settings, each
  # checked against the oracle.
  "$dir/tests/ssagg_tests" --gtest_filter='MemoryLimitCellTest.*' \
      --gtest_repeat=20 --gtest_brief=1
}

observe_smoke() {
  local dir="$1"
  echo "=== observe smoke (latency histograms + flight dumps) ==="
  local work
  work=$(mktemp -d)
  # The spilling query's profile must carry the new latency histograms with
  # nonzero tails (p99 spill-write latency is the headline number).
  (cd "$work" && SSAGG_BENCH_MEMORY_MB=64 SSAGG_BENCH_THREADS=2 \
      SSAGG_BENCH_TMPDIR="$work/tmp" \
      "$OLDPWD/$dir/bench/bench_single_query" 16 wide 13 du)
  python3 - "$work/results/bench_single_query.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
profile = doc["result"]["profile"]
hists = profile.get("histograms", {})
for key in ("io.spill_write_latency_ns", "io.spill_read_latency_ns",
            "query.latency_ns", "exec.morsel_sink_ns"):
    assert key in hists, f"missing histogram {key}: {sorted(hists)}"
    assert hists[key]["count"] > 0, (key, hists[key])
    assert hists[key]["p50"] <= hists[key]["p99"] <= hists[key]["max"], \
        (key, hists[key])
p99 = hists["io.spill_write_latency_ns"]["p99"]
assert p99 > 0, hists["io.spill_write_latency_ns"]
print(f"observe smoke ok: spill write p99 {p99} ns, "
      f"{len(hists)} histograms in the profile")
EOF
  # Injected faults must leave flight-recorder dumps behind, and every dump
  # must be valid Chrome trace JSON carrying real events.
  mkdir "$work/flight"
  SSAGG_FLIGHT_DUMP="$work/flight" "$dir/tests/ssagg_tests" \
      --gtest_filter='FaultSweepTest.*' >/dev/null
  python3 - "$work/flight" <<'EOF'
import glob, json, sys
dumps = sorted(glob.glob(sys.argv[1] + "/ssagg_flight_*.json"))
assert dumps, "fault sweep under SSAGG_FLIGHT_DUMP produced no flight dumps"
events = 0
for path in dumps:
    with open(path) as f:
        doc = json.load(f)
    assert doc.get("flightReason"), f"{path}: missing flightReason"
    assert isinstance(doc.get("traceEvents"), list), path
    for e in doc["traceEvents"]:
        assert "name" in e and "ph" in e and "ts" in e and "tid" in e, e
    events += len(doc["traceEvents"])
assert events > 0, "flight dumps carried no events"
print(f"observe smoke ok: {len(dumps)} flight dumps, {events} events")
EOF
  rm -rf "$work"
}

service_smoke() {
  local dir="$1"
  echo "=== service smoke (admission control + grants under concurrency) ==="
  # The service-level unit, isolation-equivalence, soak and fault-sweep
  # tests — cheap enough to re-run standalone as the smoke's first gate.
  "$dir/tests/ssagg_tests" \
      --gtest_filter='MemoryGrantPoolTest.*:QueryServiceTest.*:Strategies/IsolationEquivalenceTest.*:ServiceFaultSweepTest.*' \
      >/dev/null
  local work
  work=$(mktemp -d)
  # 12 queries against caps of 1/2/4/8: at every oversubscribed level part
  # of the batch has to queue, so the queue-wait histogram must carry a
  # nonzero tail. The 96 MiB pool keeps the batch feasible (each query has
  # an irreducible pinned + non-paged floor the hard limit must cover) while
  # grants still tighten as concurrency rises. The bench itself exits
  # nonzero if any query fails or any grant leaks.
  SSAGG_BENCH_MEMORY=$((96 << 20)) SSAGG_BENCH_TEMPDIR="$work/tmp" \
      "$dir/bench/bench_multi_tenant" 400000 12 50000 | tee "$work/mt.txt"
  python3 - "$work/mt.txt" <<'EOF'
import sys
rows = {}
for line in open(sys.argv[1]):
    parts = line.split()
    if parts and parts[0].isdigit():
        rows[int(parts[0])] = parts
assert set(rows) == {1, 2, 4, 8}, f"missing sweep rows: {sorted(rows)}"
# Columns: concurrency seconds q/s speedup shed p50_us p99_us peak_grant.
for concurrency in (4, 8):
    p99 = int(rows[concurrency][6])
    assert p99 > 0, \
        f"concurrency {concurrency}: queue-wait p99 is zero — " \
        f"admission never queued anyone: {rows[concurrency]}"
print("service smoke ok: queue-wait percentiles live, grants quiesced")
EOF
  rm -rf "$work"
}

if [[ "$MODE" == "--analyze-only" ]]; then
  echo "=== ssagg-analyze self-test (canary corpus) ==="
  python3 scripts/ssagg_analyze.py --self-test
  echo "=== ssagg-analyze (lock hierarchy + Status/RAII flow) ==="
  python3 scripts/ssagg_analyze.py
  echo "all checks passed"
  exit 0
fi

if [[ "$MODE" == "--service-only" ]]; then
  service_smoke build
  echo "all checks passed"
  exit 0
fi

if [[ "$MODE" == "--spill-io-only" ]]; then
  spill_io_smoke build
  echo "all checks passed"
  exit 0
fi

if [[ "$MODE" == "--observe-only" ]]; then
  observe_smoke build
  echo "all checks passed"
  exit 0
fi

if [[ "$MODE" == "--strategy-only" ]]; then
  strategy_smoke build
  echo "all checks passed"
  exit 0
fi

if [[ "$MODE" != "--asan-only" && "$MODE" != "--tsan-only" ]]; then
  echo "=== plain build + ctest ==="
  run_build build
  profile_smoke build
  spill_io_smoke build
  strategy_smoke build
  memory_cell_smoke build
  observe_smoke build
  service_smoke build
fi

fault_sweep_smoke() {
  local dir="$1"
  echo "=== fault sweep smoke (sanitized error-path unwinding) ==="
  "$dir/tests/ssagg_tests" \
      --gtest_filter='FaultSweepTest.*:SortSpillSweepTest.*:PartitionSpillSweepTest.*:SpillStressTest.*'
}

if [[ "$MODE" != "--plain-only" && "$MODE" != "--tsan-only" ]]; then
  echo "=== ASan+UBSan build + ctest ==="
  run_build build-san -DSSAGG_SANITIZE=address,undefined
  fault_sweep_smoke build-san
fi

tsan_build() {
  local dir="$1"
  cmake -B "$dir" -S . -DSSAGG_SANITIZE=thread
  # Fail if the compiler emitted any thread-safety diagnostic: the CMake
  # option promotes them to errors under Clang, but a stray warning (e.g.
  # with the option overridden) must not slip through either.
  local log
  log=$(mktemp)
  cmake --build "$dir" -j "$JOBS" 2>&1 | tee "$log"
  if grep -q '\-Wthread-safety' "$log"; then
    echo "thread-safety analysis warnings in the TSan build (see above)" >&2
    rm -f "$log"
    exit 1
  fi
  rm -f "$log"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

if [[ "$MODE" != "--plain-only" && "$MODE" != "--asan-only" ]]; then
  echo "=== TSan build + ctest ==="
  tsan_build build-tsan
fi

echo "all checks passed"
