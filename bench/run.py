#!/usr/bin/env python3
"""Benchmark of onestep: campaign throughput, CSV estimate latency, and
per-module stage times.

    python3 bench/run.py --workload sim-small-n --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 0     # every workload in turn

Runs from the root of a checkout and imports the package from ``src/``.
With ``--trace 0`` it runs ``onestep simulate`` and ``onestep estimate`` as
a user does, one invocation at a time (a closed loop with one client), and
reports the end-to-end metrics.  With ``--trace 1`` it replays the same
work through the public functions of each module (``bench/work.py``) and
reports per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines
before it give every metric with its unit, sample count and tail
percentile.  A result file with provenance goes to ``bench/_work/results``.

``python3 bench/run.py --record-reference`` rewrites ``bench/reference.json``,
the output digests of every workload at the reference seed.  It is only to
be run when a change to the program is meant to change its outputs.

Workloads, the layer each metric covers, and why: see ``bench/README.md``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from work import describe, read_rows

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference.json"

# Outputs are checked against reference.json at this seed in every run.
REFERENCE_SEED = 20250819
SIM_OUTPUTS = ("records.csv", "summary.csv", "qq.csv", "hist.csv")
REPLAY_CHECKS = 8
OP_TIMEOUT_S = 120.0

# Every workload pairs a campaign with an estimate input of the same shape,
# because each workload reports every end-to-end metric.  Their rationale
# is in README.md.
WORKLOADS = {
    "sim-small-n": {
        "campaign": {
            "model": "mm", "sigma": 0.05, "n": 500, "replications": 2000,
            "noise": "gaussian", "pipeline": "one_step_weighted",
        },
        "threads": 1,
        "estimate": {"model": "mm", "pipeline": "one_step_weighted", "n": 500, "sigma": 0.05},
    },
    "sim-large-n": {
        "campaign": {
            "model": "sqrt", "sigma": 0.05, "n": 20000, "replications": 50,
            "noise": "scaled-laplace", "pipeline": "newton_oracle",
        },
        "threads": 2,
        "estimate": {"model": "sqrt", "pipeline": "newton_oracle", "n": 20000, "sigma": 0.05},
    },
    "estimate-csv": {
        "campaign": {
            "model": "mm", "sigma": 0.05, "n": 200000, "replications": 4,
            "noise": "gaussian", "pipeline": "one_step_weighted",
        },
        "threads": 1,
        "estimate": {"model": "mm", "pipeline": "one_step_weighted", "n": 200000, "sigma": 0.05},
    },
}

END_TO_END_UNITS = {
    "sim_reps_per_s": "rep/s",
    "estimate_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "montecarlo.draw_us": "us",
    "montecarlo.summarize_ms": "ms",
    "montecarlo.thread_speedup": "ratio",
    "montecarlo.degenerate_count": "count",
    "regression.preliminary_us": "us",
    "estimators.update_us": "us",
    "estimators.studentize_us": "us",
    "estimators.score_evals_per_rep": "count",
    "core.score_sums_ns_per_obs": "ns",
    "normal.quantile_us": "us",
    "cli.simulate_io_s": "s",
    "cli.estimate_io_s": "s",
    "cli.input_bytes": "bytes",
    "cli.output_bytes": "bytes",
}


# The speed of a shared host drifts by tens of percent, over seconds and over
# minutes, and both the start-up and the computing of an invocation drift
# with it, though not always alike.  So each timed invocation is also
# reported scaled by the time of a calibration process, a stand-in
# invocation without onestep, run just before and just after its round:
# seconds on a host where that process takes CALIBRATION_REFERENCE_S.  The
# end-to-end metrics are these scaled times.
CALIBRATION_REFERENCE_S = 0.300
CALIBRATION_SCRIPT = """
import numpy
x = numpy.arange(1 << 19, dtype=float)
for _ in range(8):
    numpy.sqrt(x * 1.5 + 2.0).sum()
buffer = bytes(range(256)) * (1 << 14)
for _ in range(10):
    bytearray(buffer).count(0)
acc = 0
for i in range(300000):
    acc += i * i
"""


def calibration_run():
    """Wall seconds of a fixed stand-in invocation.

    A fresh interpreter that imports numpy, works on long arrays, copies a
    4 MiB buffer and runs bytecode arithmetic, as an invocation of onestep
    does.  It imports nothing from onestep, so no change to the program
    moves it.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CALIBRATION_SCRIPT], cwd=ROOT, env=child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"the calibration process failed:\n{proc.stderr.decode()[-2000:]}")
    return elapsed


class Clock:
    """Scales wall times by the host speed measured around them.

    A calibration runs after each round of operations, and each operation
    is scaled by the mean of the calibrations just before and just after
    its round.
    """

    def __init__(self):
        calibration_run()  # warm-up
        self.last = calibration_run()
        self.samples = [self.last]
        self.pending = []

    def scale_later(self, result, key):
        """Marks result[key] as a time to scale at the end of the round."""
        self.pending.append((result, key))
        return result

    def end_round(self):
        """Calibrates, and adds "scaled_s" to the results of the round."""
        now = calibration_run()
        self.samples.append(now)
        speed = 0.5 * (self.last + now)
        for result, key in self.pending:
            result["scaled_s"] = result[key] * CALIBRATION_REFERENCE_S / speed
        self.last, self.pending = now, []


class BenchError(Exception):
    """The benchmark itself could not run."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("ONESTEP_THREADS", None)
    return env


def work(task, args, timeout=150):
    """Run a bench/work.py task in a fresh process; returns its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "work.py"), task, json.dumps(args)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"work.py {task} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Inputs:
    """A workload's campaign config and estimate CSV for one seed."""

    def __init__(self, workload, seed, directory):
        self.dir = directory
        directory.mkdir(parents=True)
        c = workload["campaign"]
        self.replications = c["replications"]
        self.config = directory / "campaign.cfg"
        self.config.write_text(
            f"model = {c['model']}\ntheta_true = 1.0\nsigma = {c['sigma']!r}\n"
            f"n = {c['n']}\nreplications = {c['replications']}\nseed = {seed}\n"
            f"noise = {c['noise']}\npipeline = {c['pipeline']}\n"
        )
        self.estimate = dict(workload["estimate"], seed=seed)
        self.data = directory / "data.csv"
        work("inputs", {"csv": str(self.data), "data": self.estimate})
        self.out = directory / "sim"
        self.report = directory / "report.csv"

    def digests(self):
        with open(self.out / "records.csv") as fh:
            first = fh.readline()
        return {
            "program_config_digest": first.split("config=")[-1].strip(),
            "config_sha256": sha256(self.config),
            "data_sha256": sha256(self.data),
        }

    def input_bytes(self):
        return self.config.stat().st_size + self.data.stat().st_size


def spawn(argv, err_path):
    """Run one command; returns (exit code, wall seconds, peak RSS in MB).

    The peak comes from wait4, so it is the child's own: this process stays
    far smaller than any invocation measured (it never imports numpy), and
    the kernel counts the parent's resident set into a vfork child's peak.
    """
    start = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def simulate(inputs, threads):
    for name in SIM_OUTPUTS + ("manifest.json",):
        (inputs.out / name).unlink(missing_ok=True)
    argv = [sys.executable, "-m", "onestep", "simulate", str(inputs.config),
            "--out", str(inputs.out), "--threads", str(threads)]
    rc, wall, peak = spawn(argv, inputs.dir / "simulate.err")
    files = [inputs.out / name for name in SIM_OUTPUTS]
    return {
        "kind": "simulate", "inputs": inputs, "threads": threads, "rc": rc,
        "wall_s": wall, "peak_mb": peak,
        "digests": {f.name: sha256(f) for f in files if f.exists()},
        "bytes": sum(f.stat().st_size for f in files if f.exists()),
    }


def estimate(inputs):
    inputs.report.unlink(missing_ok=True)
    spec = inputs.estimate
    argv = [sys.executable, "-m", "onestep", "estimate", str(inputs.data),
            "--model", spec["model"], "--pipeline", spec["pipeline"], "--out", str(inputs.report)]
    rc, wall, peak = spawn(argv, inputs.dir / "estimate.err")
    exists = inputs.report.exists()
    return {
        "kind": "estimate", "inputs": inputs, "rc": rc, "wall_s": wall, "peak_mb": peak,
        "digests": {"report.csv": sha256(inputs.report)} if exists else {},
        "bytes": inputs.report.stat().st_size if exists else 0,
    }


def grade(ops, expected):
    """Mark each op ok when it exited 0 and wrote exactly the expected bytes.

    expected maps (inputs, kind) to digests; a pair not in it takes the
    digests of its first op, which the caller verifies separately.
    """
    for op in ops:
        key = (op["inputs"], op["kind"])
        if key not in expected and op["rc"] == 0:
            expected[key] = op["digests"]
        op["ok"] = op["rc"] == 0 and op["digests"] == expected.get(key)


def replay_args(inputs):
    """Arguments of the work.py tasks that replay what the command line wrote."""
    return {
        "config": str(inputs.config),
        "records": str(inputs.out / "records.csv"),
        "report": str(inputs.report),
        "estimate": inputs.estimate,
    }


def check(inputs):
    """Mismatches, by command, between the outputs and an in-process replay.

    The replay covers REPLAY_CHECKS replications spread over the campaign
    and the whole estimate.
    """
    last = inputs.replications - 1
    reps = sorted({round(k * last / (REPLAY_CHECKS - 1)) for k in range(REPLAY_CHECKS)})
    return work("check", dict(replay_args(inputs), reps=reps))


def run_end_to_end(name, workload, seed, seconds, run_dir):
    reference = json.loads(REFERENCE.read_text())["workloads"][name]
    ref = Inputs(workload, REFERENCE_SEED, run_dir / "reference")
    own = Inputs(workload, seed, run_dir / "seed")

    # This first set-up process also writes the bytecode caches; it is not counted.
    work("setup", {"config": str(own.config)})

    # Closed loop, one invocation at a time: the first round runs the
    # reference inputs (the output gate) and doubles as warm-up, so it is not
    # timed; later rounds run the seed's inputs, at least two of them.
    # A set-up sample follows each round, so that all three metrics are
    # sampled across the whole run and drifts in machine speed hit them alike.
    ops = []
    setups = []
    clock = Clock()
    start = time.monotonic()
    rounds = 0
    while rounds < 3 or time.monotonic() - start < seconds:
        inputs = ref if rounds == 0 else own
        rounds += 1
        ops.append(clock.scale_later(simulate(inputs, workload["threads"]), "wall_s"))
        ops.append(clock.scale_later(estimate(inputs), "wall_s"))
        setup = clock.scale_later(work("setup", {"config": str(own.config)}), "setup_s")
        if inputs is own:
            setups.append(setup)
        clock.end_round()
    timed = [op for op in ops if op["inputs"] is own]
    if workload["threads"] != 1:
        ops.append(simulate(ref, 1))  # outputs must not depend on the thread count

    expected = {(ref, "simulate"): reference["simulate"], (ref, "estimate"): reference["estimate"]}
    grade(ops, expected)
    problems = []
    if all(op["ok"] for op in ops if op["inputs"] is own):
        for kind, mismatches in check(own).items():
            problems += mismatches
            for op in ops:
                if mismatches and op["inputs"] is own and op["kind"] == kind:
                    op["ok"] = False

    sims = [op for op in timed if op["kind"] == "simulate"]
    ests = [op for op in timed if op["kind"] == "estimate"]
    peaks = [op["peak_mb"] for op in timed]
    stats = {
        "sim_reps_per_s": describe([own.replications / op["scaled_s"] for op in sims], True),
        "estimate_wall_s": describe([op["scaled_s"] for op in ests]),
        "setup_s": describe([s["scaled_s"] for s in setups]),
        "peak_rss_mb": {"max": max(peaks), "samples": len(peaks)},
        "unscaled_sim_reps_per_s": describe([own.replications / op["wall_s"] for op in sims], True),
        "unscaled_estimate_wall_s": describe([op["wall_s"] for op in ests]),
        "unscaled_setup_s": describe([s["setup_s"] for s in setups]),
        "calibration_s": describe(clock.samples),
    }
    metrics = {
        "sim_reps_per_s": stats["sim_reps_per_s"]["median"],
        "estimate_wall_s": stats["estimate_wall_s"]["median"],
        "setup_s": stats["setup_s"]["median"],
        "peak_rss_mb": max(peaks),
    }
    details = {
        "numpy": setups[0]["numpy"],
        "onestep": setups[0]["onestep"],
        "config_digests": {"reference": safe_digests(ref), "seed": safe_digests(own)},
        "tracing_overhead_s": None,
        "problems": problems,
    }
    return ops, metrics, stats, details


def run_traced(name, workload, seed, seconds, run_dir):
    own = Inputs(workload, seed, run_dir / "seed")
    start = time.monotonic()
    ops = []
    for _ in range(3):
        ops.append(simulate(own, workload["threads"]))
        ops.append(estimate(own))
    grade(ops, {})
    if not all(op["ok"] for op in ops):
        raise BenchError("a command-line invocation failed or its outputs differ between runs")
    remaining = max(seconds - (time.monotonic() - start), 0.0)
    trace = work("trace", dict(replay_args(own), seconds=remaining), timeout=170)
    problems = trace["problems"]
    summary = read_rows(own.out / "summary.csv")[0]
    if trace["degenerate_count"] != int(summary["degenerate_count"]):
        problems.append("replayed degenerate count differs from summary.csv")

    spans = trace["spans_ns"]
    sim_wall = statistics.median(op["wall_s"] for op in ops if op["kind"] == "simulate")
    est_wall = statistics.median(op["wall_s"] for op in ops if op["kind"] == "estimate")
    run_s = trace["run_s"]
    us = lambda span: spans[span]["median"] / 1e3
    metrics = {
        "montecarlo.draw_us": us("montecarlo.draw"),
        "montecarlo.summarize_ms": statistics.median(trace["summarize_ms"]),
        "montecarlo.thread_speedup": statistics.median(run_s["1"]) / statistics.median(run_s["2"]),
        "montecarlo.degenerate_count": trace["degenerate_count"],
        "regression.preliminary_us": us("regression.preliminary"),
        "estimators.update_us": us("estimators.update"),
        "estimators.studentize_us": us("estimators.studentize"),
        "estimators.score_evals_per_rep": trace["score_evals_per_rep"],
        "core.score_sums_ns_per_obs": spans["core.score_sums"]["median"] / trace["n"],
        "normal.quantile_us": us("normal.quantile"),
        "cli.simulate_io_s": sim_wall - statistics.median(run_s[str(workload["threads"])]),
        "cli.estimate_io_s": est_wall - statistics.median(trace["estimate_compute_s"]),
        "cli.input_bytes": own.input_bytes(),
        "cli.output_bytes": ops[0]["bytes"] + ops[1]["bytes"],
    }
    stats = {f"{span}_ns": desc for span, desc in spans.items()}
    details = {
        "numpy": trace["numpy"],
        "onestep": trace["onestep"],
        "config_digests": {"seed": safe_digests(own)},
        "tracing_overhead_s": trace["tracing_overhead_s"],
        "replay_passes": trace["passes"],
        "traced_pass_s": trace["traced_pass_s"],
        "untraced_run_s": trace["untraced_run_s"],
        "problems": problems,
    }
    return ops, metrics, stats, details


def safe_digests(inputs):
    return inputs.digests() if (inputs.out / "records.csv").exists() else None


def git_commit():
    """The checked-out commit, or None outside a git repository or without git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the package sources, which identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed, details):
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": details.pop("numpy"),
        "onestep": details.pop("onestep"),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload_seed": seed,
        "reference_seed": REFERENCE_SEED,
        "config_digests": details.pop("config_digests"),
        "tracing_overhead_s": details.pop("tracing_overhead_s"),
    }


def record_reference():
    """Write reference.json from the current program's outputs at REFERENCE_SEED."""
    run_dir = WORK / f"reference-{os.getpid()}"
    result = {"seed": REFERENCE_SEED, "src_sha256": source_digest(), "workloads": {}}
    try:
        for name, workload in WORKLOADS.items():
            inputs = Inputs(workload, REFERENCE_SEED, run_dir / name)
            ops = [simulate(inputs, workload["threads"]), estimate(inputs), simulate(inputs, 1)]
            grade(ops, {})
            mismatches = sum(check(inputs).values(), [])
            if not all(op["ok"] for op in ops) or mismatches:
                raise BenchError(f"{name}: outputs failed their checks: {mismatches}")
            result["workloads"][name] = {"simulate": ops[0]["digests"], "estimate": ops[1]["digests"]}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {REFERENCE}")


def print_report(name, seed, trace, ops, metrics, units, stats):
    failed = sum(not op["ok"] for op in ops)
    print(f"workload {name}, seed {seed}, trace {trace}: {len(ops)} invocations, "
          f"{failed} failed, error_rate {failed / len(ops):.4g}")
    for metric, value in metrics.items():
        print(f"  {metric:32s} {value:14.6g} {units[metric]}")
    for key, desc in stats.items():
        stat = "max" if "max" in desc else "median"
        line = f"  ({key}: {stat} {desc[stat]:.6g} of {desc['samples']} samples"
        if "tail" in desc:
            line += f", p{desc['tail_pct']:.1f} {desc['tail']:.6g}"
        print(line + ")")


def bench(name, seed, seconds, trace):
    """One run of one workload; prints its report and result line, returns correct."""
    run_dir = WORK / f"{name}-{seed}-{trace}-{os.getpid()}"
    runner = run_traced if trace else run_end_to_end
    try:
        ops, metrics, stats, details = runner(name, WORKLOADS[name], seed, seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    failed = sum(not op["ok"] for op in ops)
    problems = details["problems"]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "provenance": provenance(seed, details),
        "error_rate": failed / len(ops),
        "stats": stats,
        "invocations": [
            {k: v for k, v in op.items() if k not in ("inputs", "digests")} for op in ops
        ],
        **details,
        **result,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    print_report(name, seed, trace, ops, metrics, units, stats)
    for problem in problems[:5]:
        print(f"  problem: {problem}")
    if len(problems) > 5:
        print(f"  ... and {len(problems) - 5} more problems")
    print(f"  result file: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return result["correct"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "onestep" / "cli.py").is_file():
        print(f"error: no onestep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = [bench(name, args.seed, args.seconds, args.trace) for name in names]
    return 0 if all(correct) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
