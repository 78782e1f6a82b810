#!/usr/bin/env python3
"""Small-size self-test of every benchmark workload.

    python3 perfbench/selftest.py

Builds the benchmark like run.py, then runs each workload at a small
scale, untraced and traced. Asserts that every metric BENCHMARK.json
names is emitted, finite and carries its unit, and that the run has no
failures. Then runs each workload with one FIB entry deleted behind the
router's back and asserts that exactly one failure is reported.
"""
import json
import math
import os
import subprocess
import sys

import run

ROOT = os.path.dirname(run.HERE)
SCALE = "0.02"


def invoke(workload, trace, *extra):
    cmd = [run.BINARY, "--workload", workload, "--seed", "7", "--seconds",
           "1", "--trace", str(trace), "--scale", SCALE, *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    assert done.returncode == 0, f"{cmd}: exit {done.returncode}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert run.valid_result(result), f"{cmd}: malformed result {result}"
    return result


def check_metrics(workload, result, specs):
    metrics = result["metrics"]
    for spec in specs:
        name = spec["name"]
        assert name in metrics, f"{workload}: {name} missing"
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            f"{workload}: {name} = {value} is not finite"
        assert metrics[name]["unit"] == spec["unit"], \
            f"{workload}: {name} has unit {metrics[name]['unit']}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if not run.build():
        return 1
    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = invoke(name, trace)
            check_metrics(name, result, bench[key])
            assert result["failed"] == 0 and result["correct"], \
                f"{name} trace={trace}: {result['failed']} failed"
        injected = invoke(name, 0, "--inject-fib-delete")
        assert injected["failed"] == 1 and not injected["correct"], \
            f"{name}: injected FIB deletion counted {injected['failed']} times"
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
