#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fs-durable --seed 1 --seconds 30 --trace 0

The library and the driver are compiled from the checkout's sources into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench). The driver's
standard output is passed through; its last line is the result object.
Exits non-zero, without a result, if the build or the run fails.

    python3 perfbench/run.py --check-counts [--workload <name>]

runs each workload twice with one client, the same seed and a fixed op
budget, and reports whether the exact count metrics repeat.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fs-durable", "web-login", "net-stream"]
RUN_TIMEOUT_S = 170
# Counts the driver reads from the kernel, the recorder and the disk model;
# with one client and one seed they should repeat exactly.
COUNT_METRICS_PREFIXES = ("kernel.syscalls_per_op", "store.device_writes_per_kop")
COUNT_OPS = {"fs-durable": 2000, "web-login": 200, "net-stream": 40}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def run_driver(binary, args):
    """Runs the driver; returns (exit code, stdout lines)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("the run did not finish within %d s" % RUN_TIMEOUT_S)
        return 3, []
    return proc.returncode, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return res


def check_counts(binary, workloads):
    repeat_all = True
    for w in workloads:
        results = []
        for _ in range(2):
            code, lines = run_driver(binary, [
                "--workload", w, "--seed", "7", "--seconds", "60", "--trace", "1",
                "--clients", "1", "--ops", str(COUNT_OPS[w]), "--setup-reps", "1"])
            res = parse_result(lines)
            if code != 0 or res is None:
                log("%s: run failed" % w)
                return 1
            results.append(res["metrics"])
        names = [n for n in results[0]
                 if n.startswith(COUNT_METRICS_PREFIXES) or
                 (n.startswith("kernel.") and n.endswith(".per_op"))]
        differ = [n for n in names if results[0][n]["value"] != results[1][n]["value"]]
        repeat_all = repeat_all and not differ
        print("%s: %d count metrics, %s" % (
            w, len(names), "all repeat exactly" if not differ else
            "differ: " + ", ".join("%s (%r vs %r)" % (n, results[0][n]["value"],
                                                       results[1][n]["value"])
                                   for n in differ)))
    print("counts repeat exactly on every workload" if repeat_all
          else "some counts do not repeat")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--check-counts", action="store_true")
    args = ap.parse_args()
    if not args.check_counts and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        log("build failed")
        return 2
    if args.check_counts:
        return check_counts(binary, [args.workload] if args.workload else WORKLOADS)

    code, lines = run_driver(binary, [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds",
        str(args.seconds), "--trace", args.trace])
    if code != 0 or parse_result(lines) is None:
        log("the run failed (exit code %d)" % code)
        return code if code != 0 else 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
