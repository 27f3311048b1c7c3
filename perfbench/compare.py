#!/usr/bin/env python3
"""Compares two sets of perfbench results, workload by workload.

  python3 perfbench/compare.py BASE NEW
  python3 perfbench/compare.py --overhead DIR

BASE, NEW and DIR are directories of result files written by
perfbench/run.py (copies of .bench_build/perfbench/results/ taken after
running each side). For each workload and end-to-end metric the first form prints
both sides' median and quartiles and the change against the bound in
BENCHMARK.json; the second prints the tracing overhead, traced runs minus
untraced runs. Runs whose stamps differ (host cores, SPLASH_THREADS, kernel
backend, cache topology, replica precision, model dims) are refused; only
the git SHA may differ. So are sides run for different --seconds or on
different sets of seeds: both sides of a workload must cover the same seeds.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import ROOT, stamp_key  # noqa: E402


def load(directory, trace):
    by_workload = {}
    for p in sorted(Path(directory).glob("*.json")):
        r = json.loads(p.read_text())
        if r.get("trace") == trace and "e2e" in r:
            by_workload.setdefault(r["workload"], []).append(r)
    return by_workload


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def same_stamp(runs, what):
    keys = {stamp_key(r["stamp"]) for r in runs}
    if len(keys) > 1:
        print(f"refused: {what} mixes unlike stamps:\n  " + "\n  ".join(keys))
        return False
    return True


def same_inputs(b, n, what):
    seconds = {r["seconds"] for r in b + n}
    if len(seconds) > 1:
        print(f"refused: {what} mixes run lengths {sorted(seconds)}")
        return False
    bs, ns = sorted({r["seed"] for r in b}), sorted({r["seed"] for r in n})
    if bs != ns:
        print(f"refused: {what} compares seeds {bs} with seeds {ns}")
        return False
    return True


def compare(base, new, spec, overhead):
    ok = True
    for workload in sorted(set(base) & set(new)):
        b, n = base[workload], new[workload]
        if not (same_stamp(b + n, workload) and same_inputs(b, n, workload)):
            ok = False
            continue
        print(f"== {workload}: {len(b)} vs {len(n)} runs")
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["e2e"][name]["value"] for r in b]
            nv = [r["e2e"][name]["value"] for r in n]
            bq1, bmed, bq3 = summary(bv)
            nq1, nmed, nq3 = summary(nv)
            change = (nmed - bmed) / bmed if bmed else 0.0
            if overhead:
                print(f"  {name:16} untraced {bmed:12.6g}  traced {nmed:12.6g}"
                      f"  overhead {change:+.1%}")
                continue
            worse = -change if m["better"] == "higher" else change
            spread = (bq3 - bq1) / bmed if bmed else 0.0
            if worse > m["bound"]:
                verdict = "WORSE than bound"
            elif spread > m["bound"]:
                verdict = "unresolved (base spread above bound)"
            else:
                verdict = "within bound"
            print(f"  {name:16} base {bmed:12.6g} [{bq1:.6g}, {bq3:.6g}]"
                  f"  new {nmed:12.6g} [{nq1:.6g}, {nq3:.6g}]"
                  f"  {change:+.1%} (bound {m['bound']:.0%}) {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dirs", nargs="+")
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.overhead:
        if len(args.dirs) != 1:
            ap.error("--overhead takes one directory")
        ok = compare(load(args.dirs[0], 0), load(args.dirs[0], 1), spec, True)
    else:
        if len(args.dirs) != 2:
            ap.error("give BASE and NEW directories")
        ok = compare(load(args.dirs[0], 0), load(args.dirs[1], 0), spec, False)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
