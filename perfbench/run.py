#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The build lives in .bench_build/ (or
$CARGO_TARGET_DIR when set); build output goes to stderr so the last line
of stdout is the benchmark's JSON result. Exits non-zero, without a
result line, when the build fails or a run times out. A run whose checks
fail exits non-zero after its result line (correct: false).

An untraced run (--trace 0) is PROCESSES timed processes of
--seconds / PROCESSES each, one after another. Each end-to-end metric is
the median over them, and operations are summed.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("analytics", "analytics-1w", "txn", "ingest")
# The contract allows 180 s per run; stop the children well before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
# On a shared 4-core virtual machine the speed of the same work varied by
# about 8% (IQR / median) from one process to the next, in 5-s and 30-s
# runs alike; a median over processes damps that (NOTES.md, "Measured
# spread").
PROCESSES = 5


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out):
    os.makedirs(out, exist_ok=True)
    cmake_dir = os.path.join(out, "cmake")
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    # One build at a time per checkout; concurrent runs wait here.
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                      "-j", "4"])
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, timeout=BUILD_TIMEOUT_S).returncode
            if rc != 0:
                print(f"perfbench: build step failed ({rc}): {' '.join(cmd)}",
                      file=sys.stderr)
                return None
    return os.path.join(cmake_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in [1, 60]")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if binary is None:
        return 1
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    processes = 1 if args.trace else PROCESSES
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for _ in range(processes):
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / processes),
               "--trace", str(args.trace), "--work-dir", work]
        rc, result = run_child(cmd, deadline)
        if rc != 0:
            return rc
        results.append(result)
    print(json.dumps(combine(results)))
    return 0


def run_child(cmd, deadline):
    """Runs one benchmark process; forwards its report lines to stdout.

    Returns (exit code, parsed result). On a failed check the child's own
    result line is forwarded too, so it stays the last line of stdout.
    """
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1, None
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        return proc.returncode or 1, None
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    return 0, json.loads(lines[-1])


def combine(results):
    """One result from several processes: medians of metrics, summed ops."""
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
