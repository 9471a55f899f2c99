#!/usr/bin/env python3
"""Smoke test of the benchmark: a few checked operations per workload.

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json, runs `perfbench/run.py` untraced
and traced with an operation cap, and asserts that the last stdout line
is the result object: all operations checked correct, and every metric
BENCHMARK.json names printed with its unit and a finite value (the
benchmark prints a broken value, such as a 0/0 rate, as null).
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OPS = 6


def run(workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "120",
           "--trace", str(trace), "--ops", str(OPS)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    assert done.returncode == 0, f"{cmd} exited {done.returncode}"
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            assert result["correct"] is True, f"{label}: {result}"
            assert result["failed"] == 0 and result["attempted"] >= OPS, f"{label}: {result}"
            metrics = result["metrics"]
            assert list(metrics) == [m["name"] for m in spec], f"{label}: {list(metrics)}"
            for m in spec:
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}"
                value = got["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), \
                    f"{label}: {m['name']} = {value}"
                if trace == 0:
                    assert value > 0, f"{label}: {m['name']} = {value}"
            print(f"ok: {label}: {result['attempted']} operations, {len(metrics)} metrics")


if __name__ == "__main__":
    main()
