#!/usr/bin/env python3
"""Steadiness check: two alternating sets of runs per workload.

Usage (from the repository root)::

    python3 perfbench/steady.py                     # 10 runs per set, all workloads
    python3 perfbench/steady.py --runs 5 --workloads churn_btc

Each run is a fresh ``perfbench/run.py`` process with its own seed; the
runs of set A and set B alternate (A1 B1 A2 B2 ...) so slow drift of the
machine lands in both sets alike.  For every end-to-end metric it prints
each set's median and quartiles (and those of both sets pooled), the
spread (interquartile distance over the median) and the set-to-set
difference of the medians, both against
the metric's bound in ``BENCHMARK.json``; and each set's share of failed
operations, which must be identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> tuple:
    """(median, Q1, Q3, spread) with Python's default quartiles."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(better: str, base: float, other: float) -> float:
    """Share of ``base`` by which ``other`` is worse (negative = better)."""
    if not base:
        return 0.0
    return (base - other) / base if better == "higher" else \
        (other - base) / base


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed", type=int, default=1000,
                    help="first seed; every run gets its own")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be >= 2 (quartiles need two values)")
    metrics = spec["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        if workload not in names:
            ap.error(f"unknown workload {workload!r}")
        sets = {"A": [], "B": []}
        t0 = time.perf_counter()
        for i in range(args.runs):
            for j, name in enumerate(sets):
                seed = args.seed + 2 * i + j
                sets[name].append(run_once(workload, seed, args.seconds))
        took = time.perf_counter() - t0
        print(f"\n{workload}: {args.runs} runs per set, "
              f"{args.seconds} rounds each, {took:.0f} s")
        print(f"  {'metric':<14}{'set':>4}{'median':>14}{'Q1':>14}{'Q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = {}
            for set_name, docs in sets.items():
                vals = [d["metrics"][name]["value"] for d in docs]
                med, q1, q3, spread = summarize(vals)
                meds[set_name] = med
                flag = ""
                if spread > bound:
                    flag, ok = "  SPREAD > BOUND", False
                print(f"  {name:<14}{set_name:>4}{med:>14.6g}{q1:>14.6g}"
                      f"{q3:>14.6g}{spread:>9.4f}{bound:>7.3f}{flag}")
            vals = [d["metrics"][name]["value"]
                    for docs in sets.values() for d in docs]
            med, q1, q3, spread = summarize(vals)
            print(f"  {name:<14}{'all':>4}{med:>14.6g}{q1:>14.6g}"
                  f"{q3:>14.6g}{spread:>9.4f}{bound:>7.3f}")
            diff = worse_by(m["better"], meds["A"], meds["B"])
            flag = ""
            if abs(diff) > bound:
                flag, ok = "  SETS DIFFER BY > BOUND", False
            print(f"  {name:<14}  B vs A median: {diff:+.4f} "
                  f"(at most {bound} either way){flag}")
        shares = {}
        for set_name, docs in sets.items():
            attempted = sum(d["attempted"] for d in docs)
            failed = sum(d["failed"] for d in docs)
            shares[set_name] = (failed, attempted)
            print(f"  failed {set_name}: {failed} of {attempted}")
        (fa, aa), (fb, ab) = shares["A"], shares["B"]
        if fa * ab != fb * aa:
            print("  FAILED SHARE DIFFERS BETWEEN SETS")
            ok = False
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
