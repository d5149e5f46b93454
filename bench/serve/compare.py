#!/usr/bin/env python3
"""Repeat runs of the pawsd benchmark, and compare two sets of them.

  compare.py collect --out A.json [--runs 10] [--seed 1] [--workload W ...]
                     [--trace 0|1]
      Runs the benchmark command from BENCHMARK.json once per seed
      (seed, seed+1, ...) for every workload, stores every result in
      A.json, and prints each metric's median and its quartile spread
      (Q3 - Q1) / median.

  compare.py A.json B.json
      Applies BENCHMARK.json's bounds: for every workload, each end-to-end
      median of B may be worse than A's by at most the metric's bound; and
      each per-layer count (unit "count", from traced runs) must be
      exactly equal for every (workload, seed) both files ran. A metric
      whose spread across A's runs is wider than its bound cannot be
      judged by it: its row reads "unresolved" (or "better" when every run
      of B beats every run of A) and does not fail. Prints one row per
      workload x metric; exits 1 when any row fails.

Python 3 standard library only. Run from anywhere inside the checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """(Q3 - Q1) / median, as the acceptance check computes it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def collect(args):
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs = []
    for workload in workloads:
        for seed in range(args.seed, args.seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"compare.py: {workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
            result = json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed,
                         "trace": args.trace, "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']}",
                  file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump({"runs": runs}, f, indent=1)
    for workload in workloads:
        results = [r["result"] for r in runs if r["workload"] == workload]
        for metric in sorted(results[0]["metrics"]):
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            print(f"{workload:14} {metric:32} median {statistics.median(values):12.6g}"
                  f" {unit:6} spread {spread(values):7.2%}")


def values(runs, workload):
    """Metric name -> its value in every untraced run of `workload`."""
    by_metric = {}
    for r in runs:
        if r["workload"] == workload and r["trace"] == 0:
            for name, m in r["result"]["metrics"].items():
                by_metric.setdefault(name, []).append(m["value"])
    return by_metric


def compare(path_a, path_b):
    spec = load_spec()
    with open(path_a) as f:
        a = json.load(f)["runs"]
    with open(path_b) as f:
        b = json.load(f)["runs"]
    failed = False
    for run in a + b:
        if not run["result"]["correct"] or run["result"]["failed"]:
            print(f"{run['workload']:14} seed {run['seed']}: incorrect answers  FAIL")
            failed = True
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for w in (w["name"] for w in spec["workloads"]):
        vals_a, vals_b = values(a, w), values(b, w)
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in vals_a or name not in vals_b:
                continue
            med_a = statistics.median(vals_a[name])
            med_b = statistics.median(vals_b[name])
            change = (med_b - med_a) / med_a
            lower = m["better"] == "lower"
            if spread(vals_a[name]) > m["bound"]:
                beats = (max(vals_b[name]) < min(vals_a[name]) if lower
                         else min(vals_b[name]) > max(vals_a[name]))
                verdict = "better" if beats else "unresolved"
            else:
                worse = change if lower else -change
                verdict = "ok" if worse <= m["bound"] else "FAIL"
            failed |= verdict == "FAIL"
            print(f"{w:14} {name:18} {med_a:12.6g} -> {med_b:12.6g}"
                  f" {m['unit']:6} {change:+8.2%}  bound {m['bound']:.0%}"
                  f"  spread {spread(vals_a[name]):6.1%}  {verdict}")
        traced_a = {r["seed"]: r["result"]["metrics"] for r in a
                    if r["workload"] == w and r["trace"] == 1}
        traced_b = {r["seed"]: r["result"]["metrics"] for r in b
                    if r["workload"] == w and r["trace"] == 1}
        seeds = sorted(set(traced_a) & set(traced_b))
        for name in counts if seeds else []:
            diff = [s for s in seeds
                    if traced_a[s][name]["value"] != traced_b[s][name]["value"]]
            failed |= bool(diff)
            verdict = (f"differs on seed {diff[0]}: "
                       f"{traced_a[diff[0]][name]['value']:.0f} -> "
                       f"{traced_b[diff[0]][name]['value']:.0f}  FAIL"
                       if diff else f"equal on {len(seeds)} seeds  ok")
            print(f"{w:14} {name:32} {verdict}")
    return 1 if failed else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "collect":
        p = argparse.ArgumentParser(prog="compare.py collect")
        p.add_argument("--out", required=True)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--workload", action="append")
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        collect(p.parse_args(sys.argv[2:]))
        return 0
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(sys.argv[1], sys.argv[2])


if __name__ == "__main__":
    sys.exit(main())
