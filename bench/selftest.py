#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks, from the root of a checkout, that

- every count metric of ``--trace 1`` repeats exactly between two runs of
  each workload on one seed, and both runs are correct;
- a ``--trace 0`` run of each workload is correct with no failed invocation;
- in a directory holding only ``BENCHMARK.json`` and ``bench/``, the
  benchmark exits nonzero without printing a result.

Takes about two minutes on a 2-core machine.
"""

import json
import os
import shutil
import subprocess
import sys

from run import PER_LAYER_UNITS, ROOT, WORK, WORKLOADS

SEED = "7"
COUNTS = [name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes")]


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    for name in WORKLOADS:
        args = ["--workload", name, "--seed", SEED, "--seconds", "1"]
        first, second = (result(bench(ROOT, *args, "--trace", "1")) for _ in range(2))
        assert first["correct"] and second["correct"], name
        for metric in COUNTS:
            a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
            assert a == b, f"{name}: {metric} differs between runs: {a} != {b}"
        e2e = result(bench(ROOT, *args, "--trace", "0"))
        assert e2e["correct"] and e2e["failed"] == 0, f"{name}: {e2e}"
        print(f"{name}: counts repeat, trace 0 correct ({e2e['attempted']} invocations)")

    bare = WORK / f"bare-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("_work"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, "--workload", "sim-small-n", "--seed", SEED, "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark ran without the package sources"
    assert not proc.stdout.strip(), f"benchmark printed a result without sources: {proc.stdout}"
    print("without src/: exits", proc.returncode, "and prints no result")


if __name__ == "__main__":
    main()
