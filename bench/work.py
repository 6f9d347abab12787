"""In-process tasks of the onestep benchmark, each run in a fresh process.

    python3 bench/work.py <task> '<json arguments>'

prints one JSON object on its last line.  ``run.py`` starts these with
``PYTHONPATH=src`` so that they import the package from the checkout.

Tasks:

- ``inputs``: write the estimate input CSV of a workload.
- ``setup``: time importing onestep, parsing the campaign config and
  ``montecarlo.build_scenario``; the clock starts before the import.
- ``check``: replay chosen replications and recompute the estimate through
  the public functions, and list every value that differs from what the
  command line wrote.
- ``trace``: the per-layer run: times each public call of a replication,
  counts score evaluations, and checks every replication bit for bit.

Only json, sys and time are imported at module level, so that ``setup``
measures close to the whole import of onestep and numpy.
"""

import json
import sys
import time

# Philox key word that no campaign uses: campaigns key replication r by
# (seed, r) with r far below this.
DATA_KEY = 2**64 - 1
THETA_TRUE = 1.0


def describe(samples, higher_is_better=False):
    """Median, and the most extreme percentile with at least ten worse samples.

    For a time that is the high tail; for a rate (higher_is_better) the low one.
    """
    import statistics

    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "samples": n}
    if n > 10:
        if higher_is_better:
            out["tail_pct"], out["tail"] = 100.0 * 10 / n, ordered[10]
        else:
            out["tail_pct"], out["tail"] = 100.0 * (n - 10) / n, ordered[n - 11]
    return out


def make_data(spec):
    """Columns x, a, b, w of a generated estimate input, from spec["seed"].

    a and b follow the default design grid, w are known positive variance
    weights, and x = f(a, b; theta) + sigma * noise / sqrt(w).
    """
    import numpy as np

    n = spec["n"]
    rng = np.random.Generator(np.random.Philox(key=np.array([spec["seed"], DATA_KEY], np.uint64)))
    i = np.arange(n, dtype=np.float64)
    a = 0.5 + 2.0 * i / (n - 1)
    b = 0.2 + i / (n - 1)
    w = 0.5 + rng.random(n)
    if spec["model"] == "mm":
        mean = a / (1.0 + b * THETA_TRUE)
        noise = rng.standard_normal(n)
    else:  # sqrt
        mean = np.sqrt(1.0 + a * THETA_TRUE)
        noise = rng.laplace(0.0, 2.0**-0.5, n)
    x = mean + spec["sigma"] * noise / np.sqrt(w)
    return {"x": x, "a": a, "b": b, "w": w}


def task_inputs(args):
    cols = make_data(args["data"])
    with open(args["csv"], "w") as fh:
        fh.write("x,a,b,w\n")
        fh.writelines(
            f"{x!r},{a!r},{b!r},{w!r}\n"
            for x, a, b, w in zip(*(cols[k].tolist() for k in "xabw"))
        )
    return {}


def task_setup(args):
    start = time.perf_counter()
    import pathlib

    import onestep
    from onestep import cli, montecarlo

    cfg = cli._sim_config_from_file(pathlib.Path(args["config"]))
    montecarlo.build_scenario(cfg)
    elapsed = time.perf_counter() - start

    import numpy

    return {"setup_s": elapsed, "numpy": numpy.__version__, "onestep": onestep.__version__}


def read_rows(path):
    """Data rows of a CSV the command line wrote (schema comment line skipped)."""
    import csv

    with open(path, newline="") as fh:
        fh.readline()
        return list(csv.DictReader(fh))


class Spans:
    """Durations in ns of named calls, collected per name.

    Calls are timed one at a time (spans do not nest), so a duration is
    also the self time of its layer.
    """

    def __init__(self):
        self.ns = {}

    def __call__(self, name):
        self.name = name
        return self

    def __enter__(self):
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc):
        self.ns.setdefault(self.name, []).append(time.perf_counter_ns() - self.start)


class Campaign:
    """A campaign config replayed one replication at a time.

    The replication mirrors montecarlo's: the keyed Philox draw per
    (seed, r), then the scenario's preliminary, the pipeline and
    studentize.  The pipeline is rebuilt here around a copy of the
    estimating family whose m_terms and m_prime_terms count their calls.
    """

    def __init__(self, config_path):
        import dataclasses
        import math
        import pathlib

        import numpy as np

        from onestep import cli, estimators, montecarlo
        from onestep.core import Sample
        from onestep.errors import EstimationError

        self.np, self.Sample, self.EstimationError = np, Sample, EstimationError
        self.studentize = estimators.studentize
        self.cfg = cli._sim_config_from_file(pathlib.Path(config_path))
        self.scn = montecarlo.build_scenario(self.cfg)
        self.score_evals = 0
        fam, wf = self.scn.fam, self.scn.wf
        self.fam = dataclasses.replace(
            fam, m_terms=self._counted(fam.m_terms), m_prime_terms=self._counted(fam.m_prime_terms)
        )
        if self.cfg.pipeline == "one_step_weighted":
            self.update = lambda ts, s: estimators.one_step_weighted(self.fam, wf, ts, s).theta_hat
        elif self.cfg.pipeline == "newton_oracle":
            # the tolerances montecarlo.build_scenario gives the oracle
            self.update = lambda ts, s: estimators.newton_solve(
                self.fam, wf, ts, s, max_iter=100, tol=1e-9
            )
        else:
            raise ValueError(f"the benchmark does not replay pipeline {self.cfg.pipeline!r}")
        laplace_scale = 1.0 / math.sqrt(2.0)
        self.unit_noise = {
            "gaussian": lambda rng, n: rng.standard_normal(n),
            "scaled-laplace": lambda rng, n: rng.laplace(0.0, laplace_scale, n),
        }[self.cfg.noise]

    def _counted(self, fn):
        def counted(t, xs):
            self.score_evals += 1
            return fn(t, xs)

        return counted

    def replicate(self, r, span):
        """(theta_star, theta_hat, z_stud) of replication r, and its sample."""
        np, cfg, scn = self.np, self.cfg, self.scn
        with span("montecarlo.draw"):
            rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, r], dtype=np.uint64)))
            x = scn.mean + scn.noise_sd * self.unit_noise(rng, cfg.n)
            s = self.Sample(x=x, a=scn.model.a, b=scn.sample_b)
        try:
            with span("regression.preliminary"):
                theta_star = scn.preliminary(s)
            with span("estimators.update"):
                theta_hat = self.update(theta_star, s)
            with span("estimators.studentize"):
                d_star, _ = self.studentize(self.fam, scn.wf, theta_star, theta_hat, s, cfg.alpha)
        except self.EstimationError:
            nan = float("nan")
            return (nan, nan, nan), s
        return (theta_star, theta_hat, d_star * (theta_hat - cfg.theta_true)), s


def record_mismatch(r, values, row):
    """A message if a replayed replication differs from its records.csv row."""
    if [repr(v) for v in values] != [row["theta_star"], row["theta_hat"], row["z_stud"]]:
        return [f"replication {r}: replay {values!r} != records.csv {row!r}"]
    return []


def estimate_compute(spec, cols):
    """What `onestep estimate` computes on these columns, through the public API.

    Returns the report values (theta_star, theta_hat, d_star, ci_lo, ci_hi,
    denominator) and the seconds spent from model build to studentize.
    """
    import numpy as np

    from onestep import estimators, regression
    from onestep.core import Sample

    s = Sample(x=cols["x"], a=cols["a"], b=cols["b"], w_known=cols["w"])
    start = time.perf_counter()
    if spec["model"] == "mm":
        model = regression.mm_model(s.a, s.b, sigma=1.0, weights=s.w_known)
        theta_star = regression.preliminary_mm(np.ones(s.n), s)
    else:
        model = regression.sqrt_model(s.a, sigma=1.0, weights=s.w_known)
        theta_star = regression.preliminary_sqrt(regression.default_contrasts(s, "sum_zero"), s)
    fam, wf = regression.to_families(model)
    if spec["pipeline"] == "one_step_weighted":
        res = estimators.one_step_weighted(fam, wf, theta_star, s)
        theta_hat, denominator = res.theta_hat, res.denominator
    else:  # newton_oracle, with the command line's default tolerances
        theta_hat, denominator = estimators.newton_solve(fam, wf, theta_star, s), float("nan")
    d_star, ci = estimators.studentize(fam, wf, theta_star, theta_hat, s, 0.05)
    elapsed = time.perf_counter() - start
    return [theta_star, theta_hat, d_star, ci[0], ci[1], denominator], elapsed


def report_mismatches(values, report_path):
    row = read_rows(report_path)[0]
    keys = ["theta_star", "theta_hat", "d_star", "ci_lo", "ci_hi", "denominator"]
    got = [row[k] for k in keys]
    want = [repr(v) for v in values]
    return [] if got == want else [f"report.csv {got} != recomputed {want}"]


def task_check(args):
    campaign = Campaign(args["config"])
    records = read_rows(args["records"])
    bad = []
    for r in args["reps"]:
        bad += record_mismatch(r, campaign.replicate(r, Spans())[0], records[r])
    values, _ = estimate_compute(args["estimate"], make_data(args["estimate"]))
    return {"simulate": bad, "estimate": report_mismatches(values, args["report"])}


def task_trace(args):
    import math
    import statistics

    import numpy

    import onestep
    from onestep import montecarlo
    from onestep.core import score_sums
    from onestep.normal import normal_quantile

    deadline = time.monotonic() + args["seconds"]
    campaign = Campaign(args["config"])
    cfg, scn = campaign.cfg, campaign.scn

    # Untraced campaigns, for the thread speed-up and for the part of a
    # simulate invocation spent outside run().
    run_s = {1: [], 2: []}
    for _ in range(2):
        for threads in (1, 2):
            start = time.perf_counter()
            records, _ = montecarlo.run(cfg, threads)
            run_s[threads].append(time.perf_counter() - start)

    summarize_ms = []
    for _ in range(5):
        start = time.perf_counter()
        montecarlo.summarize(cfg, scn, records)
        summarize_ms.append((time.perf_counter() - start) * 1e3)

    # Replay every replication, repeatedly until the deadline.  Each pass
    # must match records.csv and give the same counts as the first pass.
    expected = read_rows(args["records"])
    spans = Spans()
    level = 1.0 - 0.5 * cfg.alpha
    problems = []
    passes = []
    while not passes or time.monotonic() < deadline:
        campaign.score_evals = 0
        degenerate = 0
        extra_ns = 0
        start = time.perf_counter()
        for r in range(cfg.replications):
            values, s = campaign.replicate(r, spans)
            if math.isnan(values[0]):
                degenerate += 1
            else:
                t0 = time.perf_counter_ns()
                with spans("core.score_sums"):
                    score_sums(scn.fam, scn.wf, values[0], s)
                with spans("normal.quantile"):
                    normal_quantile(level)
                extra_ns += time.perf_counter_ns() - t0
            problems += record_mismatch(r, values, expected[r])
        wall_s = time.perf_counter() - start - extra_ns * 1e-9
        passes.append((wall_s, campaign.score_evals, degenerate))
        if passes[-1][1:] != passes[0][1:]:
            problems.append("score evaluation or degenerate counts differ between replay passes")

    cols = make_data(args["estimate"])
    compute_s = []
    for _ in range(3):
        values, elapsed = estimate_compute(args["estimate"], cols)
        compute_s.append(elapsed)
    problems += report_mismatches(values, args["report"])

    traced_s, score_evals, degenerate = passes[0]
    untraced = statistics.median(run_s[1])
    return {
        "problems": problems,
        "numpy": numpy.__version__,
        "onestep": onestep.__version__,
        "passes": len(passes),
        "spans_ns": {name: describe(ns) for name, ns in spans.ns.items()},
        "n": cfg.n,
        "score_evals_per_rep": score_evals / cfg.replications,
        "degenerate_count": degenerate,
        "run_s": run_s,
        "summarize_ms": summarize_ms,
        "estimate_compute_s": compute_s,
        "traced_pass_s": traced_s,
        "untraced_run_s": untraced,
        "tracing_overhead_s": traced_s - untraced,
    }


TASKS = {"inputs": task_inputs, "setup": task_setup, "check": task_check, "trace": task_trace}

if __name__ == "__main__":
    print(json.dumps(TASKS[sys.argv[1]](json.loads(sys.argv[2]))))
