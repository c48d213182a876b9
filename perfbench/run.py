#!/usr/bin/env python3
"""Run one workload of the knor benchmark and print its JSON result line.

    python3 perfbench/run.py --workload im_converge --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The script builds knor_perfbench from the
checkout's own sources (perfbench/CMakeLists.txt compiles ../src; the build
is incremental), writes the workload's inputs from --seed, runs the checker's
self-test, then the measured run. The last line of standard output is the
measured run's JSON object. The exit code is nonzero when the build, the
self-test or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("im_converge", "sem_converge", "dist_uniform", "serve_mixed")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "knor", "knor.hpp")):
        raise RuntimeError("no knor sources under src/ next to perfbench/")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, timeout=300, **quiet)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"],
                   check=True, timeout=800, **quiet)
    return os.path.join(bdir, "knor_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build(build_dir())
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", out_dir]

    t0 = time.monotonic()
    subprocess.run([exe, "gen"] + common, check=True, timeout=120,
                   stdout=sys.stderr)
    log(f"generated input in {time.monotonic() - t0:.2f} s")
    subprocess.run([exe, "selftest"], check=True, timeout=60,
                   stdout=sys.stderr)

    cmd = [exe, "run"] + common + ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    for suffix in (".kmat", ".queries.kmat"):
        try:
            os.remove(os.path.join(out_dir, args.workload + suffix))
        except FileNotFoundError:
            pass
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        log(f"measured run printed nothing (exit {proc.returncode})")
        return 1
    result = json.loads(lines[-1])
    print(json.dumps(result))
    if proc.returncode != 0 or not result.get("correct"):
        log(f"output checks failed (exit {proc.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError) as exc:
        log(f"error: {exc}")
        sys.exit(1)
