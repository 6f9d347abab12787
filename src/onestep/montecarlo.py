"""Reproducible simulation harness for the one-step estimators.

Replications are pure functions of (seed, replication index): noise comes
from a counter-based generator keyed by both, so any execution order or
degree of parallelism produces identical records.  Aggregation walks the
records in replication order with exact summation, making the whole run
deterministic down to the last bit.

The estimator is regression.estimation_sequence (preliminary, the update
the config's pipeline names, studentizer), the function `onestep estimate`
calls too; _outcomes runs it on the scenario's model and families and
derives z, z_stud and coverage.  It takes the replications of a block
together as the rows of one Sample with (B, n) responses, and each row's
outcome is bitwise the one its own Sample gives.  A block in which any row
fails is evaluated again one row at a time through _outcomes on each row's
Sample, so a degenerate replication fails exactly as it would alone; a
block of one row takes that per-row path at once.  Each record travels as
a row of its fields in SimulationRecord order, and run builds the
SimulationRecords once all rows are in.

With more than one worker, the blocks are split into contiguous shares.
The calling process evaluates the first; each other share goes to a child
made with os.fork (core.run_forked) after the scenario is built, which
sends its rows back through a pipe as one float64 array and exits.

Fixed design grids (documented here, used by every scenario):

    a_i = 0.5 + 2 i / (n - 1),   i = 0..n-1
    b_i = 0.2 + i / (n - 1)

The saturation-curve scenario has the variance weight w(t) = 1 + t^2,
which varies with the parameter but is the same for every observation, so
its noise is homoscedastic; the other scenarios use unit variance weights.
The partially linear scenario fixes g(t) = t^2.  Preliminary estimators
use default_contrasts (sum-zero for the square-root and linear scenarios,
b-orthogonal for the partially linear one) and all-ones coefficients for
the saturation curve.
"""

from __future__ import annotations

import math
import os
from dataclasses import Field, dataclass, field, fields
from functools import partial
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .core import (
    EstimatingFamily,
    Sample,
    WeightFamily,
    _wide_sum,
    asymptotic_moments,
    run_forked,
    usable_cpus,
)
from .errors import ConfigError, DegenerateError, EmptyInputError, EstimationError, NonFiniteError
from .normal import normal_cdf, normal_quantile
from .regression import (
    PIPELINES,
    RegressionModel,
    check_pipeline,
    estimation_sequence,
    linear_model,
    mm_model,
    moment_provider,
    plinear_g,
    plinear_g_prime,
    plinear_g_second,
    plinear_model,
    resolve_preliminary,
    sqrt_model,
    to_families,
)

__all__ = [
    "MODEL_IDS",
    "NOISE_KINDS",
    "PIPELINES",
    "SimConfig",
    "SimulationRecord",
    "SimSummary",
    "run",
    "rows_per_block",
    "worker_count",
    "ks_statistic",
    "normal_cdf",
    "normal_quantile",
]

MODEL_IDS = ("sqrt", "plinear", "mm", "custom-linear")
NOISE_KINDS = ("gaussian", "scaled-uniform", "scaled-laplace")
COVARIATE_SPECS = ("default-grid",)

_UNIFORM_HALF_WIDTH = math.sqrt(3.0)
_LAPLACE_SCALE = 1.0 / math.sqrt(2.0)

# A block holds about this many responses.  At n = 500 its 65 rows make the
# row-wise sums several times cheaper per row than one sum per replication,
# its (B, n) temporaries stay a few hundred kB each, and from n = 2**15 on a
# block is one replication, as before blocks existed.
_BLOCK_ELEMENTS = 2**15


def config_key(f: Field) -> str:
    """The config-file key of SimConfig field f: its metadata's "key", else its name."""
    return f.metadata.get("key", f.name)


@dataclass(frozen=True)
class SimConfig:
    """Validated simulation settings.  Invalid values raise ConfigError.

    The fields are the keys of a campaign's config file, one table for
    `onestep simulate` and this check alike: a field's key is config_key,
    its annotation parses the value, and a field without a default is a
    required key.  A field whose metadata lists "allowed" values takes
    those alone, checked in field order.
    """

    model_id: str = field(metadata={"key": "model", "allowed": MODEL_IDS})
    theta_true: float
    sigma: float
    n: int
    replications: int
    seed: int
    noise: str = field(default="gaussian", metadata={"allowed": NOISE_KINDS})
    alpha: float = 0.05
    pipeline: str = field(default="one_step_weighted", metadata={"allowed": PIPELINES})
    covariate_spec: str = field(
        default="default-grid", metadata={"key": "covariates", "allowed": COVARIATE_SPECS}
    )

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            allowed = f.metadata.get("allowed")
            if allowed is not None and value not in allowed:
                raise ConfigError(f"{config_key(f)} must be one of {allowed}, got {value!r}")
            if f.name == "pipeline":
                # the closed-form pipeline needs the mm model; a config with
                # that defect and a bad later key is named for this one
                check_pipeline(value, self.model_id)
        if not isinstance(self.n, int) or self.n < 2:
            raise ConfigError(f"n must be an integer >= 2, got {self.n!r}")
        if not isinstance(self.replications, int) or self.replications < 1:
            raise ConfigError(f"replications must be a positive integer, got {self.replications!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not (isinstance(self.theta_true, float) and math.isfinite(self.theta_true)):
            raise ConfigError(f"theta_true must be a finite real, got {self.theta_true!r}")
        if not (isinstance(self.sigma, float) and math.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"sigma must be a positive real, got {self.sigma!r}")
        if not (isinstance(self.alpha, float) and 0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha!r}")


@dataclass(frozen=True)
class SimulationRecord:
    """Per-replication outcome; degenerate replications carry NaN estimates."""

    rep: int
    theta_star: float
    theta_hat: float
    z: float
    z_stud: float
    covered: bool
    degenerate: bool


@dataclass(frozen=True)
class SimSummary:
    """Campaign aggregates over the non-degenerate replications."""

    mean_z: float
    var_z: float
    ks_z: float
    ks_zstud: float
    coverage: float
    var_ratio: float
    mse_star: float
    mse_hat: float
    degenerate_count: int


def ks_statistic(values: Sequence[float], cdf: Callable[[float], float]) -> float:
    """One-sample Kolmogorov-Smirnov distance of values against cdf.

    D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the order
    statistics.  Raises EmptyInputError on an empty sequence.
    """
    arr = np.sort(np.asarray(values, dtype=np.float64))
    n = arr.size
    if n == 0:
        raise EmptyInputError("cannot compute a KS distance of an empty sample")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("KS input contains non-finite values")
    f = np.fromiter((cdf(v) for v in arr), np.float64, n)
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    upper = np.max(grid - f)
    lower = np.max(f - (grid - 1.0 / n))
    return float(max(upper, lower))


def default_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The documented fixed covariate grids for an n-point design, frozen read-only."""
    i = np.arange(n, dtype=np.float64)
    a = 0.5 + 2.0 * i / (n - 1)
    b = 0.2 + i / (n - 1)
    a.flags.writeable = b.flags.writeable = False
    return a, b


@dataclass(frozen=True)
class Scenario:
    """Everything a replication needs, prebuilt once per campaign."""

    model: RegressionModel
    fam: EstimatingFamily
    wf: WeightFamily
    mean: np.ndarray
    noise_sd: np.ndarray | np.float64  # 0-d when it is one value for every index
    sample_b: np.ndarray | None
    preliminary: Callable[[Sample], float]
    z_scale: float
    i_nh: float
    j_nh: float


def build_model(model_id: str, n: int, sigma: float) -> RegressionModel:
    """Scenario model on the default grid."""
    a, b = default_grid(n)
    if model_id == "sqrt":
        return sqrt_model(a, sigma=sigma)
    if model_id == "plinear":
        return plinear_model(
            a, b, plinear_g, plinear_g_prime, sigma=sigma, g_second=plinear_g_second
        )
    if model_id == "mm":
        return mm_model(
            a,
            b,
            sigma=sigma,
            weight_fn=lambda t: 1.0 + t * t,
            weight_fn_prime=lambda t: 2.0 * t,
        )
    if model_id == "custom-linear":
        return linear_model(a, sigma=sigma)
    raise ConfigError(f"unknown model {model_id!r}")


def build_scenario(cfg: SimConfig) -> Scenario:
    """Resolve a config into model, families, preliminary, noise and asymptotic moments."""
    model = build_model(cfg.model_id, cfg.n, cfg.sigma)
    fam, wf = to_families(model)
    theta = cfg.theta_true
    # the moments first, while the fewest other vectors are alive: their
    # sums hold the most vectors of length n at once
    i_nh, j_nh = asymptotic_moments(moment_provider(model), wf, theta, model.n)
    z_scale = j_nh / math.sqrt(i_nh)
    mean = model.values("f", theta)
    mean.flags.writeable = False
    w = model.values("w", theta)
    # a w that is one value for every index (a view with stride 0) keeps
    # noise_sd 0-d, computed on that value
    noise_sd = cfg.sigma / np.sqrt(w[0] if w.strides == (0,) else w)
    preliminary = resolve_preliminary(model, Sample(x=mean, a=model.a, b=model.b))
    return Scenario(
        model=model,
        fam=fam,
        wf=wf,
        mean=mean,
        noise_sd=noise_sd,
        sample_b=model.b,
        preliminary=preliminary,
        z_scale=z_scale,
        i_nh=i_nh,
        j_nh=j_nh,
    )


def _unit_noise(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    if kind == "gaussian":
        return rng.standard_normal(n)
    if kind == "scaled-uniform":
        return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, n)
    return rng.laplace(0.0, _LAPLACE_SCALE, n)


def rows_per_block(n: int) -> int:
    """Replications evaluated together when each has n observations."""
    return max(1, _BLOCK_ELEMENTS // n)


def _draw(cfg: SimConfig, scn: Scenario, reps: range) -> np.ndarray:
    """Responses of replications reps: row i from the Philox stream keyed (seed, reps[i]).

    One generator serves the block.  Before each row it is set to its state
    when new (zero counter, empty buffer) under the key (seed, r), so the
    row's draws are those of a fresh Generator(Philox(key=[seed, r])).  One
    state dict serves every row: only the second key word changes.  Gaussian
    rows are drawn into the block itself; numpy's uniform and laplace take
    no out argument.
    """
    bitgen = np.random.Philox(key=np.array([cfg.seed, reps[0]], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]
    x = np.empty((len(reps), cfg.n))
    for i, r in enumerate(reps):
        key[1] = r
        bitgen.state = fresh
        if cfg.noise == "gaussian":
            rng.standard_normal(out=x[i])
        else:
            x[i] = _unit_noise(cfg.noise, rng, cfg.n)
    x *= scn.noise_sd
    x += scn.mean
    return x


def _outcomes(cfg: SimConfig, scn: Scenario, s: Sample) -> tuple:
    """(theta_star, theta_hat, z, z_stud, covered) of s, through estimation_sequence.

    Floats for one sample, one value per row for a block of them.  Raises the
    EstimationError of the first step that fails.
    """
    est: dict = {}
    estimation_sequence(
        scn.model, scn.fam, scn.wf, scn.preliminary, cfg.pipeline, s, cfg.alpha, est,
        newton_tol=1e-9,
    )
    err = est["theta_hat"] - cfg.theta_true
    covered = (est["ci_lo"] <= cfg.theta_true) & (cfg.theta_true <= est["ci_hi"])
    return est["theta_star"], est["theta_hat"], scn.z_scale * err, est["d_star"] * err, covered


def _replicate_block(cfg: SimConfig, scn: Scenario, reps: range) -> list[tuple]:
    """The records of replications reps, each a row in SimulationRecord field order."""
    x = _draw(cfg, scn, reps)
    x.flags.writeable = False  # the block and its rows' Samples take x without a copy
    # A block of one row (n > 2**14) takes the per-row path: its (1, n)
    # arrays run slower than vectors.  Evaluating such rows as (1, n) blocks
    # instead was slower in 8 of 8 alternations on sqrt, n = 20000,
    # newton_oracle, 2 threads (median +6%).
    if len(reps) > 1:
        block = Sample(x=x, a=scn.model.a, b=scn.sample_b)
        try:
            outcomes = _outcomes(cfg, scn, block)
        except EstimationError:
            pass  # evaluate each row alone, so a failing row fails as it would alone
        else:
            return list(zip(reps, *(v.tolist() for v in outcomes), repeat(False)))
    rows = []
    for r, row in zip(reps, x):
        s = Sample(x=row, a=scn.model.a, b=scn.sample_b)
        try:
            rows.append((r, *_outcomes(cfg, scn, s), False))
        except EstimationError:
            rows.append((r, math.nan, math.nan, math.nan, math.nan, False, True))
    return rows


def _records(rows) -> list[SimulationRecord]:
    """SimulationRecords of rows in field order, from this process or a worker's pipe.

    A degenerate record holds math.nan itself, so records compare equal
    however their rows travelled.
    """
    nan = math.nan
    return [
        SimulationRecord(int(rep), nan, nan, nan, nan, covered=False, degenerate=True)
        if degenerate
        else SimulationRecord(int(rep), *values, covered=bool(covered), degenerate=False)
        for rep, *values, covered, degenerate in rows
    ]


def _mean(values: np.ndarray, name: str) -> float:
    return _wide_sum(values, name) / values.size


def _sample_var(values: np.ndarray, center: float, name: str) -> float:
    if values.size < 2:
        return math.nan
    return _wide_sum(np.square(values - center), name) / (values.size - 1)


def summarize(cfg: SimConfig, scn: Scenario, records: Sequence[SimulationRecord]) -> SimSummary:
    """Aggregate records (in replication order) into a campaign summary."""
    valid = [rec for rec in records if not rec.degenerate]
    if not valid:
        raise DegenerateError("every replication degenerated; nothing to summarize")
    zs = np.array([rec.z for rec in valid])
    z_studs = np.array([rec.z_stud for rec in valid])
    stars = np.array([rec.theta_star for rec in valid])
    hats = np.array([rec.theta_hat for rec in valid])
    mean_z = _mean(zs, "z")
    var_hat = _sample_var(hats, _mean(hats, "theta_hat"), "squared theta_hat deviations")
    asvar = scn.i_nh / (scn.j_nh * scn.j_nh)
    theta = cfg.theta_true
    return SimSummary(
        mean_z=mean_z,
        var_z=_sample_var(zs, mean_z, "squared z deviations"),
        ks_z=ks_statistic(zs, normal_cdf),
        ks_zstud=ks_statistic(z_studs, normal_cdf),
        coverage=sum(rec.covered for rec in valid) / len(valid),
        var_ratio=var_hat / asvar,
        mse_star=_mean(np.square(stars - theta), "squared theta_star errors"),
        mse_hat=_mean(np.square(hats - theta), "squared theta_hat errors"),
        degenerate_count=len(records) - len(valid),
    )


def worker_count(cfg: SimConfig, threads: int) -> int:
    """Processes run(cfg, threads) evaluates the campaign's blocks on.

    As many as threads asks for, but no more than there are blocks of
    rows_per_block(n) replications or processors this process may run on
    (core.usable_cpus), and one where os.fork does not exist.
    """
    if threads < 1:
        raise ConfigError(f"threads must be a positive integer, got {threads!r}")
    if not hasattr(os, "fork"):
        return 1
    blocks = -(-cfg.replications // rows_per_block(cfg.n))
    return min(threads, blocks, usable_cpus())


def _evaluate(cfg: SimConfig, scn: Scenario, blocks: Sequence[range]) -> list:
    return [row for reps in blocks for row in _replicate_block(cfg, scn, reps)]


def run(cfg: SimConfig, threads: int = 1) -> tuple[list[SimulationRecord], SimSummary]:
    """Execute a campaign.

    Records come back ordered by replication index and are identical for any
    threads value; estimator failures inside a replication are recorded as
    degenerate rather than aborting the run.  The blocks of rows_per_block(n)
    replications are split into worker_count(cfg, threads) contiguous
    shares, all but the first evaluated in forked child processes.  An
    exception that escapes a block, in this process or a child, is raised
    here, and no child outlives the call.  A fork copies only the calling
    thread, so with threads > 1 no other thread may hold a lock a block needs.
    """
    workers = worker_count(cfg, threads)
    scn = build_scenario(cfg)
    reps, size = range(cfg.replications), rows_per_block(cfg.n)
    blocks = [reps[start : start + size] for start in range(0, len(reps), size)]
    cuts = [k * len(blocks) // workers for k in range(workers + 1)]
    shares = [blocks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    rows, *sent = run_forked([partial(_evaluate, cfg, scn, share) for share in shares])
    for share_rows in sent:
        if isinstance(share_rows, Exception):
            raise share_rows
        rows += share_rows.reshape(-1, len(fields(SimulationRecord))).tolist()
    records = _records(rows)
    return records, summarize(cfg, scn, records)
