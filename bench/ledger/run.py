#!/usr/bin/env python3
"""Aggregation ledger runner: builds ssagg_ledger, runs workloads, prints every
metric by name with its unit, and exits non-zero if any result is wrong.

  run.py --workload W --seed S --seconds T --trace 0|1   one run (last line:
                                                        the result JSON)
  run.py --set NAME [--seconds T]                        a full set: 10 runs of
                                                        every workload (seeds
                                                        1..10) plus one traced
                                                        run each, written to
                                                        results/ledger/NAME.json
  run.py --smoke                                         1 process, 3 queries
                                                        per workload, traced
                                                        run included

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build" / "ledger"
RESULTS = ROOT / "results" / "ledger"
PROGRAM = BUILD / "ssagg_ledger"

# Measured-window seconds per query on the reference host (4 shared vCPUs;
# for the service, window seconds per completed query). A run's window is a
# fixed query count sized from these, so that peak_rss_mib, which grows with
# every query, compares cleanly across commits of different speed.
SECONDS_PER_QUERY = {
    "inmem_unique": 0.21,
    "spill_wide": 0.20,
    "lowcard_scan": 0.18,
    "service_contended": 0.10,
}
# A process stops its window at DEADLINE_FACTOR times its share of --seconds,
# so that a slow commit cannot stretch a run without bound. Only a commit
# about twice as slow as the reference host gets there, and its latencies
# then fail their bounds anyway; a cut window is reported as truncated, since
# its peak_rss_mib covers fewer queries.
DEADLINE_FACTOR = 2.0
E2E_PROCESSES = 3  # fresh processes per end-to-end run (setup_s is their median)
REPEATS = 10  # seeds 1..REPEATS per workload in a full set
SMOKE_QUERIES = 3
PROGRAM_TIMEOUT_S = 40  # per process; a run starts at most four
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and incrementally builds build/ledger (a no-op when current)."""
    for step in (["cmake", "-S", str(HERE), "-B", str(BUILD)],
                 ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)]):
        proc = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build failed: " + " ".join(step))


def hermetic_env():
    """The environment minus every SSAGG_* knob (I/O backend, compression,
    strategy, trace, flight dump, log level): library defaults only."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SSAGG_")}


def ssagg_ledger(args):
    try:
        proc = subprocess.run([str(PROGRAM), *args], cwd=ROOT,
                              env=hermetic_env(), capture_output=True,
                              text=True, timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"ssagg_ledger {' '.join(args)} ran over {PROGRAM_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"ssagg_ledger {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def quantile(values, q):
    """Linear interpolation between closest ranks (values need not be sorted)."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def run_workload(workload, seed, seconds, trace, smoke=False):
    """One run: the oracle, then the measuring processes. Returns
    (metrics, correctness dict, raw process outputs)."""
    common = ["--workload", workload, "--seed", str(seed)]
    tmp = BUILD / "tmp" / str(os.getpid())
    try:
        oracle = ssagg_ledger(common + ["--oracle"])
        expect = f"{oracle['rows']}:{oracle['checksum']}"
        processes = 1 if smoke or trace else E2E_PROCESSES
        share_s = seconds / (processes + (1 if trace else 0))
        queries = SMOKE_QUERIES if smoke else max(
            1, round(share_s / SECONDS_PER_QUERY[workload]))
        measure = common + ["--queries", str(queries), "--expect", expect]
        if not smoke:
            measure += ["--deadline-s", str(DEADLINE_FACTOR * share_s)]
        outs = [ssagg_ledger(measure + ["--temp-dir", str(tmp / str(i))])
                for i in range(processes)]
        if trace:
            RESULTS.mkdir(parents=True, exist_ok=True)
            outs.append(ssagg_ledger(measure + [
                "--temp-dir", str(tmp / "traced"), "--traced",
                "--trace-file", str(RESULTS / f"{workload}.trace.json")]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [o for o in outs if not o["traced"]]
    # Every process checked every query against the oracle; the traced run
    # must also reproduce the untraced planner strategy.
    problems = [f"{o['workload']}: {e}" for o in outs for e in o["errors"]]
    problems += [f"{o['workload']}: {o['leak']}" for o in outs
                 if not o["quiesced"]]
    if len({tuple(o["strategies"]) for o in outs}) != 1:
        problems.append("planner strategies differ between processes: "
                        + str([o["strategies"] for o in outs]))
    check = {
        "correct": not problems,
        "attempted": sum(o["attempted"] for o in outs),
        "failed": sum(o["failed"] for o in outs),
        "problems": problems,
        "strategies": outs[0]["strategies"],
        # Processes whose window the deadline cut: their peak_rss_mib covers
        # fewer queries, so the run is not comparable to one that was not cut.
        "truncated": sum(o["truncated"] for o in outs),
    }

    latencies = [l for o in plain for l in o["latencies_s"]]
    if trace:
        traced = outs[-1]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = (
            statistics.median(traced["latencies_s"])
            / statistics.median(latencies) - 1)
    else:
        metrics = {
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": quantile(latencies, 0.9),
            "throughput_rows_s": sum(o["input_rows_ok"] for o in plain)
            / sum(o["window_s"] for o in plain),
            "cpu_s_per_query": sum(o["window_cpu_s"] for o in plain)
            / sum(o["queries"] for o in plain),
            "peak_rss_mib": statistics.median(o["peak_rss_mib"] for o in plain),
            "setup_s": statistics.median(o["setup_s"] for o in plain),
        }
    return metrics, check, outs


def environment():
    # The ceiling keeps git from searching above the checkout.
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True,
                            env={**os.environ,
                                 "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    compiler = None
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.+)$", cache.read_text(), re.M)
        if m:
            version = subprocess.run([m.group(1), "--version"],
                                     capture_output=True, text=True)
            compiler = version.stdout.splitlines()[0] if version.stdout else m.group(1)
    return {
        "git_commit": commit.stdout.strip() if commit.returncode == 0 else None,
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def spec_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def print_metrics(spec, workload, metrics, trace):
    for m in spec_metrics(spec, trace):
        value = metrics.get(m["name"])
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {workload:18} {m['name']:34} {shown:>14} {m['unit']}")


def warn_truncated(workload, check):
    if check["truncated"]:
        print(f"  NOT COMPARABLE: {workload}: the deadline cut "
              f"{check['truncated']} window(s) short; peak_rss_mib covers "
              "fewer queries")


def result_line(spec, metrics, check, trace):
    return {
        "correct": check["correct"],
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                    for m in spec_metrics(spec, trace)},
    }


def single(args, spec):
    metrics, check, outs = run_workload(args.workload, args.seed, args.seconds,
                                        args.trace == 1)
    out_dir = RESULTS / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"environment": environment(), "workload": args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "metrics": metrics, "check": check, "processes": outs}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1))
    print_metrics(spec, args.workload, metrics, args.trace == 1)
    for problem in check["problems"]:
        print(f"  WRONG: {problem}")
    warn_truncated(args.workload, check)
    print(json.dumps(result_line(spec, metrics, check, args.trace == 1)))
    return 0 if check["correct"] else 1


def full_set(args, spec):
    runs = []
    correct = True
    for trace in (0, 1):
        for i in range(REPEATS if trace == 0 else 1):
            for w in spec["workloads"]:
                metrics, check, _ = run_workload(w["name"], i + 1, args.seconds,
                                                 trace == 1)
                correct &= check["correct"]
                runs.append({"workload": w["name"], "seed": i + 1,
                             "trace": trace, "metrics": metrics, "check": check})
                print(f"{w['name']} seed {i + 1} trace {trace}: "
                      f"{'ok' if check['correct'] else check['problems']}",
                      flush=True)
                warn_truncated(w["name"], check)
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.set}.json"
    path.write_text(json.dumps({"environment": environment(),
                                "seconds": args.seconds, "runs": runs}, indent=1))
    for trace in (0, 1):
        for w in spec["workloads"]:
            rows = [r["metrics"] for r in runs
                    if r["workload"] == w["name"] and r["trace"] == trace]
            print_metrics(spec, w["name"], {
                m["name"]: statistics.median(r[m["name"]] for r in rows)
                if all(r.get(m["name"]) is not None for r in rows) else None
                for m in spec_metrics(spec, trace)}, trace == 1)
    print(f"wrote {path}")
    return 0 if correct else 1


def smoke(spec):
    """Every metric of BENCHMARK.json is emitted, named and unit-tagged, and
    every correctness check passes, on a few queries per workload."""
    errors = []
    if len(spec["end_to_end"]) > 16 or len(spec["per_layer"]) > 128:
        errors.append("too many metrics")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    errors += [f"bad name {n!r}" for n in names if not NAME_RE.match(n)]
    if len(set(names)) != len(names):
        errors.append("duplicate names")
    for w in spec["workloads"]:
        for trace in (False, True):
            metrics, check, _ = run_workload(w["name"], 1, 0, trace, smoke=True)
            line = result_line(spec, metrics, check, trace)
            errors += [f"{w['name']}: {p}" for p in check["problems"]]
            for name, entry in line["metrics"].items():
                if not isinstance(entry["value"], (int, float)) or not entry["unit"]:
                    errors.append(f"{w['name']}: {name} not emitted with a unit")
            print(f"smoke {w['name']} trace={int(trace)}: "
                  f"{len(line['metrics'])} metrics, "
                  f"{'ok' if check['correct'] else 'WRONG'}", flush=True)
    for e in errors:
        print(f"  FAIL: {e}")
    print("smoke: " + ("FAIL" if errors else "ok"))
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set", help="run a full set and save it under this name")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        fail(f"unknown workload {args.workload!r}; one of {known}")
    if not (args.smoke or args.set or args.workload):
        fail("give --workload, --set or --smoke")
    build()
    if args.smoke:
        return smoke(spec)
    if args.set:
        return full_set(args, spec)
    return single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
