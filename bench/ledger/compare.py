#!/usr/bin/env python3
"""Compares two ledger result sets (run.py --set) against BENCHMARK.json.

  compare.py A.json B.json          A is the parent, B the change
  compare.py --self A.json B.json   two sets of one commit must agree

For each (workload, end-to-end metric) it prints both sides' median and
quartiles and a verdict:

  worse         B's median is worse than A's by more than the bound
  better        B wins at least 9/10 of the seed-paired runs and the medians
                differ by more than A's own quartile distance (or, when a
                spread exceeds the bound, every B run beats every A run)
  unresolved    a side's spread (quartile distance / median) exceeds the
                bound, so the bound cannot be checked
  within bound  none of the above

--self instead checks agreement: every spread within its bound (setup_s
excepted) and no median, setup_s included, differing from the other set's
by more than its bound, in either direction.

peak_rss_mib is "not comparable" on a workload where the deadline cut any
window short in either set (a cut window runs fewer queries, and peak RSS
grows with every query).

Failed queries are counted per workload; B may fail no more often than A.
The exit code is non-zero on any "worse", disagreement, not comparable or
missing value, or extra failure. Per-layer medians of the traced runs are
printed alongside, without verdicts.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def series(result_set, workload, trace, metric):
    runs = sorted((r for r in result_set["runs"]
                   if r["workload"] == workload and r["trace"] == trace),
                  key=lambda r: r["seed"])
    return [r["metrics"].get(metric) for r in runs]


def truncated(result_set, workload):
    """Processes of the workload's end-to-end runs whose window was cut."""
    return sum(r["check"]["truncated"] for r in result_set["runs"]
               if r["workload"] == workload and r["trace"] == 0)


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def cell(s):
    return f"{s[0]:.5g} [{s[1]:.5g}, {s[2]:.5g}]"


def verdict(a, b, metric):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    med_a, q1_a, q3_a, spread_a = summary(a)
    med_b, _, _, spread_b = summary(b)
    worse_by = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a

    def beats(x, y):
        return x < y if lower else x > y

    if max(spread_a, spread_b) > bound:
        if all(beats(x, y) for x in b for y in a):
            return "better", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = list(zip(a, b))
    wins = sum(beats(y, x) for x, y in pairs)
    if (wins >= 0.9 * len(pairs) and beats(med_b, med_a)
            and abs(med_b - med_a) > q3_a - q1_a):
        return "better", worse_by
    return "within bound", worse_by


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--self", dest="self_check", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())

    print(f"A: {args.a} ({a['environment'].get('git_commit')})")
    print(f"B: {args.b} ({b['environment'].get('git_commit')})")
    print(f"{'workload':18} {'metric':18} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'worse_by':>9} {'spread A/B':>13}  verdict")
    disagreements = []
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            va = series(a, w["name"], 0, m["name"])
            vb = series(b, w["name"], 0, m["name"])
            if len(va) < 2 or len(vb) < 2 or None in va + vb:
                print(f"{w['name']:18} {m['name']:18} missing values")
                disagreements.append((w["name"], m["name"], "missing"))
                continue
            sa, sb = summary(va), summary(vb)
            label, worse_by = verdict(va, vb, m)
            if args.self_check:
                spread_ok = m["name"] == "setup_s" or max(sa[3], sb[3]) <= m["bound"]
                agree = spread_ok and abs(worse_by) <= m["bound"]
                label = "agree" if agree else "DISAGREE"
            if m["name"] == "peak_rss_mib" and (truncated(a, w["name"])
                                                or truncated(b, w["name"])):
                label = "not comparable"
            if label in ("worse", "DISAGREE", "not comparable"):
                disagreements.append((w["name"], m["name"], label))
            print(f"{w['name']:18} {m['name']:18} {cell(sa):>34} {cell(sb):>34} "
                  f"{worse_by:>+9.1%} {sa[3]:>6.1%}/{sb[3]:<6.1%} {label}"
                  f" (bound {m['bound']:.0%})")

    # A failed query (error Status, shed, or wrong checksum) is never within
    # bound: B may fail no more often than A.
    print("\nfailed / attempted queries (all runs):")
    for w in spec["workloads"]:
        counts = [(sum(r["check"]["failed"] for r in s["runs"] if r["workload"] == w["name"]),
                   sum(r["check"]["attempted"] for r in s["runs"] if r["workload"] == w["name"]))
                  for s in (a, b)]
        worse = counts[1][0] * max(counts[0][1], 1) > counts[0][0] * max(counts[1][1], 1)
        print(f"  {w['name']:18} A {counts[0][0]}/{counts[0][1]}  B {counts[1][0]}/{counts[1][1]}"
              + ("  WORSE" if worse else ""))
        if worse:
            disagreements.append((w["name"], "failed", "worse"))

    print("\nper-layer medians of the traced runs (A -> B):")
    for w in spec["workloads"]:
        for m in spec["per_layer"]:
            va = [v for v in series(a, w["name"], 1, m["name"]) if v is not None]
            vb = [v for v in series(b, w["name"], 1, m["name"]) if v is not None]
            if va or vb:
                med = [f"{statistics.median(v):.5g}" if v else "null"
                       for v in (va, vb)]
                print(f"  {w['name']:18} {m['name']:34} {med[0]:>12} -> "
                      f"{med[1]:<12} {m['unit']}")

    if args.self_check:
        print("\nself-agreement: " + ("ok" if not disagreements else
                                      f"FAIL {disagreements}"))
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
