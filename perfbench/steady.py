#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of one commit, compared.

    python3 perfbench/steady.py --runs 10                # every workload
    python3 perfbench/steady.py --workloads serve_mixed --runs 5 --sets 1

Run from the root of a checkout. Each set runs every chosen workload --runs
times, each time with another seed, through perfbench/run.py. For each
workload and end-to-end metric of BENCHMARK.json it prints each set's
median and quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) /
median, and whether the two sets agree: every spread within the metric's
bound, the two medians apart by no more than the bound (as a share of the
first, in either direction), and the same share of failed operations in
both sets. Runs last BENCHMARK.json's run_seconds; set s, run i uses seed
100 + 1000 * s + i. Exits 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_BASE = 100


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    workloads = args.workloads.split(",")
    for wl in workloads:
        if wl not in names:
            ap.error(f"unknown workload {wl}")
    # Sets are the outer loop, so the two sets of a workload are as far
    # apart in time as a whole set of every workload.
    raw = {wl: [] for wl in workloads}
    for s in range(args.sets):
        for wl in workloads:
            results = []
            for i in range(args.runs):
                seed = SEED_BASE + 1000 * s + i
                results.append(run_once(wl, seed, bench["run_seconds"]))
                print(f"# {wl} set {s + 1} run {i + 1}/{args.runs} "
                      f"seed {seed}", file=sys.stderr, flush=True)
            raw[wl].append(results)

    ok = True
    for wl in workloads:
        sets = raw[wl]
        print(f"== {wl}")
        shares = []
        for results in sets:
            att = sum(r["attempted"] for r in results)
            shares.append(sum(r["failed"] for r in results) / att)
            if not all(r["correct"] for r in results):
                print("   an output check failed")
                ok = False
        print(f"   failed share per set: {shares}")
        if len(set(shares)) > 1:
            ok = False
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            line = f"   {name:<18}"
            meds = []
            for results in sets:
                vals = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                meds.append(med)
                good = spread <= bound
                ok = ok and good
                line += (f" | med {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                         f"spread {spread:.3f}{'' if good else ' (>bound)'}")
            if len(meds) == 2:
                drift = (meds[1] - meds[0]) / meds[0]
                agree = abs(drift) <= bound
                ok = ok and agree
                line += (f" | drift {drift:+.3f} bound {bound} "
                         f"{'agree' if agree else 'DISAGREE'}")
            print(line, flush=True)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
