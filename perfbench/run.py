#!/usr/bin/env python3
"""Build the router from source and run one benchmark workload.

    python3 perfbench/run.py --workload full_table --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The first run configures and builds
the benchmark (and the router library it links) under .bench_build/;
later runs only rebuild what changed. Build output goes to stderr. The
run prints one line describing the machine, then, as its last line, the
result object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer table (see perfbench/README.md). Exits non-zero, without a
result line, if the build or the run fails.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "xrp_perfbench")
RUN_TIMEOUT_S = 170

# Threads each workload runs while it is timed.
THREADS = {
    "full_table": "1: BGP, RIB and FEA share one event loop",
    "download_1m": "4: BGP, RIB and FEA threads plus the driver",
    "churn": "1: BGP, RIB and FEA share one event loop",
    "igp_flap": "1: the whole fleet shares one event loop",
}


def build():
    """Configure once, then build the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "xrp_perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def valid_result(obj):
    return (isinstance(obj, dict)
            and set(obj) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(obj["attempted"], int) and obj["attempted"] >= 1
            and isinstance(obj["failed"], int)
            and isinstance(obj["metrics"], dict))


def run(args, extra=()):
    """Runs the built binary; returns the parsed result or None."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: exit code {done.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if valid_result(result) else None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(THREADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not build():
        return 1
    result = run(args)
    if result is None:
        return 1
    print(json.dumps({"machine": {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "threads": THREADS[args.workload],
        "workload": args.workload,
        "seed": args.seed,
    }}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
