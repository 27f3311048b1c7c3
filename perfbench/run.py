#!/usr/bin/env python3
"""End-to-end benchmark of the SPLASH service: one workload per invocation.

Builds perfbench_driver (the library from source plus perfbench/driver.cc)
into .bench_build/ at the repository root, runs the workload, checks the
outputs, prints a report and, as the last line, one JSON object:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Usage:

  python3 perfbench/run.py --workload edge_ingest --seed 1 --seconds 10 \
      --trace 0 [--record-reference]

Every run also leaves its full result (stamp, all figures, checks) in
.bench_build/perfbench/results/ under a name of its own, so repeated runs
build up a set; perfbench/compare.py compares such sets.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = BUILD / "results"
REFERENCE = HERE / "reference.json"
DRIVER_TIMEOUT_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; build output to stderr."""
    for need in ("CMakeLists.txt", "serve/service.h", "core/splash.h"):
        if not (ROOT / need).is_file():
            fail(f"no source tree: {ROOT / need} is missing")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return BUILD / "perfbench_driver"


def cache_topology():
    """'L1d:48K L1i:32K L2:2048K L3:107520K' from sysfs (cpu0)."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    parts = []
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        parts.append(f"L{level}{suffix}:{size}")
    return " ".join(parts) or "unknown"


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def stamp_key(stamp):
    """The part of a stamp two runs must share to be compared."""
    return ";".join(f"{k}={v}" for k, v in sorted(stamp.items())
                    if k != "git_sha")


def parse(lines):
    out = {"stamp": {}, "e2e": {}, "named": {}, "layers": {}, "dists": [],
           "ops": [], "checks": [], "info": [], "total": None, "result": {}}
    for line in lines:
        f = line.rstrip("\n").split("\t")
        kind = f[0]
        if kind == "STAMP":
            out["stamp"][f[1]] = f[2]
        elif kind in ("E2E", "NAMED", "LAYER"):
            dest = {"E2E": "e2e", "NAMED": "named", "LAYER": "layers"}[kind]
            out[dest][f[1]] = {"value": float(f[2]), "unit": f[3],
                               "n": int(f[4])}
        elif kind == "DIST":
            out["dists"].append({"name": f[1], "unit": f[2], "n": int(f[3]),
                                 "p50": float(f[4]), "tail_label": f[5],
                                 "tail": float(f[6])})
        elif kind == "OPS":
            out["ops"].append({"phase": f[1], "attempted": int(f[2]),
                               "succeeded": int(f[3]), "failed": int(f[4])})
        elif kind == "CHECK":
            out["checks"].append({"name": f[1], "ok": f[2] == "pass",
                                  "detail": f[3] if len(f) > 3 else ""})
        elif kind == "TOTAL":
            out["total"] = (int(f[1]), int(f[2]))
        elif kind == "RESULT":
            out["result"][f[1]] = float(f[2])
        elif kind == "INFO":
            out["info"].append(f[1])
    return out


def reference_check(res, seed, record):
    """offline_replay: test_metric must equal the reference recorded for
    this stamp and seed; with no reference, the in-run stability check
    stands alone."""
    metric = res["result"].get("test_metric")
    if metric is None:
        return
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    key = stamp_key(res["stamp"])
    if record:
        refs.setdefault(key, {})[str(seed)] = metric
        REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    want = refs.get(key, {}).get(str(seed))
    if want is None:
        res["checks"].append({"name": "test_metric_reference", "ok": True,
                              "detail": "no reference for this stamp and seed"})
    else:
        res["checks"].append({"name": "test_metric_reference",
                              "ok": metric == want,
                              "detail": f"{metric!r} vs reference {want!r}"})


def report(res, args):
    p = print
    p(f"== perfbench {args.workload} seed={args.seed} seconds={args.seconds}"
      f" trace={args.trace}")
    for k, v in sorted(res["stamp"].items()):
        p(f"  stamp {k:18} {v}")
    p("-- end-to-end")
    for name, m in res["named"].items():
        p(f"  {name:22} {m['value']:>16.6g} {m['unit']:10} n={m['n']}")
    p("-- timings (median, highest percentile with >= 10 samples beyond, n)")
    for d in res["dists"]:
        p(f"  {d['name']:30} p50 {d['p50']:>10.4g} {d['tail_label']:>5} "
          f"{d['tail']:>10.4g} {d['unit']:3} n={d['n']}")
    p("-- operations (attempted / succeeded / failed)")
    for o in res["ops"]:
        p(f"  {o['phase']:22} {o['attempted']:>10} {o['succeeded']:>10} "
          f"{o['failed']:>6}")
    if res["layers"]:
        p("-- per layer (0 = layer not exercised by this workload)")
        for name, m in res["layers"].items():
            p(f"  {name:30} {m['value']:>14.6g} {m['unit']:7} n={m['n']}")
        ap = res["layers"].get("apply.batch_p50_ms", {}).get("value", 0)
        if ap > 0:
            rp = res["layers"]["trace.replayed_ms_per_batch"]["value"]
            p(f"  replayed spans per batch {rp:.3f} ms beside "
              f"apply.batch_p50_ms {ap:.3f} ms")
    for info in res["info"]:
        p(f"  info: {info}")
    p("-- checks")
    for c in res["checks"]:
        p(f"  {'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's offline test_metric as the "
                         "reference for its stamp and seed")
    args = ap.parse_args()
    binary = build()
    run_id = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
              f"{time.time_ns()}-{os.getpid()}")

    scratch = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    # One pool thread unless the caller sets SPLASH_THREADS: with several,
    # each parallel step waits for its slowest thread, so a thread that the
    # host's hypervisor deschedules stalls the whole step.
    env = dict(os.environ)
    env.setdefault("SPLASH_THREADS", "1")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(scratch, ignore_errors=True)
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    spans = scratch / "spans.tsv"
    if spans.is_file():
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        shutil.move(str(spans), str(traces / f"{run_id}.tsv"))
    shutil.rmtree(scratch, ignore_errors=True)

    res = parse(proc.stdout.splitlines())
    res["stamp"].update({
        "nproc": str(os.cpu_count()),
        "splash_threads": env["SPLASH_THREADS"],
        "cache": cache_topology(),
        "git_sha": git_sha(),
    })
    if res["total"] is None:
        print(proc.stdout, end="")
        fail(f"driver exited with {proc.returncode} before reporting")
    reference_check(res, args.seed, args.record_reference)

    # A failed op or check fails the run.
    attempted, failed = res["total"]
    correct = (proc.returncode == 0 and failed == 0 and attempted > 0 and
               all(c["ok"] for c in res["checks"]))

    key = "end_to_end" if args.trace == 0 else "per_layer"
    source = res["e2e"] if args.trace == 0 else res["layers"]
    metrics = {}
    for m in spec[key]:
        if m["name"] not in source:
            fail(f"driver did not report {m['name']}")
        metrics[m["name"]] = {"value": source[m["name"]]["value"],
                              "unit": m["unit"]}

    report(res, args)

    full = dict(res, workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, correct=correct)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{run_id}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True))

    print(f"verdict: {'PASS' if correct else 'FAIL'}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
