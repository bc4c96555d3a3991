#!/usr/bin/env python3
"""Fast self-test of the benchmark.

Runs every workload named in BENCHMARK.json at tiny n, in both modes, and
asserts that the last stdout line is the result object, that it names
exactly the metrics BENCHMARK.json lists (end-to-end with --trace 0,
per-layer with --trace 1) with their units, that every check passed, and
that failed_share is 0.  Run from the root of a checkout:

    python3 perfbench/selftest.py
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload, trace, result, expected):
    where = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: correct is false"
    assert result["failed"] == 0, f"{where}: {result['failed']} checks failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        f"{where}: missing {sorted(set(expected) - set(metrics))}, "
        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        value = metrics[name]["value"]
        assert metrics[name]["unit"] == unit, f"{where}: {name} unit"
        assert isinstance(value, (int, float)) and math.isfinite(value), name
        if trace == 0:
            assert value != 0, f"{where}: end-to-end metric {name} reads 0"
    if trace == 1:
        assert metrics["failed_share"]["value"] == 0, where


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check(workload, trace, run(workload, trace), sets[trace])
            print(f"ok  {workload} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
