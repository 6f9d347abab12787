"""Reproducible simulation harness for the one-step estimators.

Replications are pure functions of (seed, replication index): noise comes
from a counter-based generator keyed by both, so any execution order or
degree of parallelism produces identical records.  Aggregation walks the
records in replication order with exact summation, making the whole run
deterministic down to the last bit.

Replications are evaluated in blocks: the rows of a (B, n) SampleBlock go
through the preliminary, the pipeline and the studentizer together, and
each row's record is bitwise the one its own Sample gives.  A block in
which any row fails is evaluated again one row at a time, so a degenerate
replication fails exactly as it would alone.

Fixed design grids (documented here, used by every scenario):

    a_i = 0.5 + 2 i / (n - 1),   i = 0..n-1
    b_i = 0.2 + i / (n - 1)

The saturation-curve scenario is heteroscedastic with w(t) = 1 + t^2; the
other scenarios use unit variance weights.  The partially linear scenario
fixes g(t) = t^2.  Preliminary estimators use default_contrasts (sum-zero
for the square-root and linear scenarios, b-orthogonal for the partially
linear one) and all-ones coefficients for the saturation curve.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    EstimatingFamily,
    Sample,
    SampleBlock,
    WeightFamily,
    asymptotic_moments,
    exact_sum,
)
from .errors import ConfigError, DegenerateError, EmptyInputError, EstimationError
from .estimators import EstimateResult, studentize
from .normal import normal_cdf, normal_quantile
from .regression import (
    PIPELINES,
    RegressionModel,
    check_pipeline,
    linear_model,
    mm_model,
    moment_provider,
    plinear_model,
    resolve_pipeline,
    resolve_preliminary,
    sqrt_model,
    studentizer_centering,
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


@dataclass(frozen=True)
class SimConfig:
    """Validated simulation settings.  Invalid values raise ConfigError."""

    model_id: str
    theta_true: float
    sigma: float
    n: int
    replications: int
    seed: int
    noise: str = "gaussian"
    alpha: float = 0.05
    pipeline: str = "one_step_weighted"
    covariate_spec: str = "default-grid"

    def __post_init__(self) -> None:
        if self.model_id not in MODEL_IDS:
            raise ConfigError(f"model must be one of {MODEL_IDS}, got {self.model_id!r}")
        if self.noise not in NOISE_KINDS:
            raise ConfigError(f"noise must be one of {NOISE_KINDS}, got {self.noise!r}")
        check_pipeline(self.pipeline, self.model_id)
        if self.covariate_spec not in COVARIATE_SPECS:
            raise ConfigError(
                f"covariates must be one of {COVARIATE_SPECS}, got {self.covariate_spec!r}"
            )
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
        raise EstimationError("KS input contains non-finite values")
    f = np.fromiter((cdf(v) for v in arr), np.float64, n)
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    upper = np.max(grid - f)
    lower = np.max(f - (grid - 1.0 / n))
    return float(max(upper, lower))


def default_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The documented fixed covariate grids for an n-point design."""
    i = np.arange(n, dtype=np.float64)
    a = 0.5 + 2.0 * i / (n - 1)
    b = 0.2 + i / (n - 1)
    return a, b


def plinear_g(t: float) -> float:
    """Nonlinear component fixed by the partially linear scenario."""
    return t * t


def plinear_g_prime(t: float) -> float:
    return 2.0 * t


def plinear_g_second(t: float) -> float:
    return 2.0


@dataclass(frozen=True)
class Scenario:
    """Everything a replication needs, prebuilt once per campaign."""

    model: RegressionModel
    fam: EstimatingFamily
    wf: WeightFamily
    mean: np.ndarray
    noise_sd: np.ndarray
    sample_b: np.ndarray | None
    preliminary: Callable[[Sample | SampleBlock], float]
    pipeline: Callable[[float | np.ndarray, Sample | SampleBlock], EstimateResult]
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
    """Resolve a config into model, families, preliminary, and pipeline."""
    model = build_model(cfg.model_id, cfg.n, cfg.sigma)
    fam, wf = to_families(model)
    theta = cfg.theta_true
    mean = model.values("f", theta)
    noise_sd = cfg.sigma / np.sqrt(model.values("w", theta))
    preliminary = resolve_preliminary(model, Sample(x=mean, a=model.a, b=model.b))
    update = resolve_pipeline(cfg.pipeline, model, fam, wf, newton_tol=1e-9)

    i_nh, j_nh = asymptotic_moments(moment_provider(model), wf, theta, model.n)
    z_scale = j_nh / math.sqrt(i_nh)
    return Scenario(
        model=model,
        fam=fam,
        wf=wf,
        mean=mean,
        noise_sd=noise_sd,
        sample_b=model.b,
        preliminary=preliminary,
        pipeline=update,
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
    row's draws are those of a fresh Generator(Philox(key=[seed, r])).
    """
    bitgen = np.random.Philox(key=np.array([cfg.seed, reps[0]], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state
    x = np.empty((len(reps), cfg.n))
    for i, r in enumerate(reps):
        fresh["state"]["key"] = np.array([cfg.seed, r], dtype=np.uint64)
        bitgen.state = fresh
        x[i] = _unit_noise(cfg.noise, rng, cfg.n)
    x *= scn.noise_sd
    x += scn.mean
    return x


def _update_and_studentize(cfg: SimConfig, scn: Scenario, theta_star, s: Sample | SampleBlock):
    """(theta_hat, d_star, ci) from the preliminary theta_star on s."""
    res = scn.pipeline(theta_star, s)
    d_star, ci = studentize(
        scn.fam, scn.wf, theta_star, res.theta_hat, s, cfg.alpha,
        centering=studentizer_centering(cfg.pipeline, res),
    )
    return res.theta_hat, d_star, ci


def _replicate(cfg: SimConfig, scn: Scenario, r: int, s: Sample) -> SimulationRecord:
    try:
        theta_star = scn.preliminary(s)
        theta_hat, d_star, ci = _update_and_studentize(cfg, scn, theta_star, s)
    except EstimationError:
        nan = math.nan
        return SimulationRecord(r, nan, nan, nan, nan, covered=False, degenerate=True)
    err = theta_hat - cfg.theta_true
    return SimulationRecord(
        rep=r,
        theta_star=theta_star,
        theta_hat=theta_hat,
        z=scn.z_scale * err,
        z_stud=d_star * err,
        covered=bool(ci[0] <= cfg.theta_true <= ci[1]),
        degenerate=False,
    )


def _replicate_block(cfg: SimConfig, scn: Scenario, reps: range) -> list[SimulationRecord]:
    x = _draw(cfg, scn, reps)
    # a single row gains nothing from the block form, whose (1, n) arrays
    # run slower than vectors, so it takes the per-replication path below
    if len(reps) > 1:
        block = SampleBlock(x=x, a=scn.model.a, b=scn.sample_b)
        try:
            theta_star = scn.preliminary(block)
            theta_hat, d_star, (lo, hi) = _update_and_studentize(cfg, scn, theta_star, block)
        except EstimationError:
            pass  # evaluate each row alone, so a failing row fails as it would alone
        else:
            err = theta_hat - cfg.theta_true
            covered = (lo <= cfg.theta_true) & (cfg.theta_true <= hi)
            return [
                SimulationRecord(r, *values, covered=ok, degenerate=False)
                for r, *values, ok in zip(
                    reps,
                    theta_star.tolist(),
                    theta_hat.tolist(),
                    (scn.z_scale * err).tolist(),
                    (d_star * err).tolist(),
                    covered.tolist(),
                )
            ]
    return [
        _replicate(cfg, scn, r, Sample(x=row, a=scn.model.a, b=scn.sample_b))
        for r, row in zip(reps, x)
    ]


def _mean(values: np.ndarray) -> float:
    return exact_sum(values) / values.size


def _sample_var(values: np.ndarray, center: float) -> float:
    if values.size < 2:
        return math.nan
    return exact_sum(np.square(values - center)) / (values.size - 1)


def summarize(cfg: SimConfig, scn: Scenario, records: Sequence[SimulationRecord]) -> SimSummary:
    """Aggregate records (in replication order) into a campaign summary."""
    valid = [rec for rec in records if not rec.degenerate]
    if not valid:
        raise DegenerateError("every replication degenerated; nothing to summarize")
    zs = np.array([rec.z for rec in valid])
    z_studs = np.array([rec.z_stud for rec in valid])
    stars = np.array([rec.theta_star for rec in valid])
    hats = np.array([rec.theta_hat for rec in valid])
    mean_z = _mean(zs)
    var_hat = _sample_var(hats, _mean(hats))
    asvar = scn.i_nh / (scn.j_nh * scn.j_nh)
    theta = cfg.theta_true
    return SimSummary(
        mean_z=mean_z,
        var_z=_sample_var(zs, mean_z),
        ks_z=ks_statistic(zs, normal_cdf),
        ks_zstud=ks_statistic(z_studs, normal_cdf),
        coverage=sum(rec.covered for rec in valid) / len(valid),
        var_ratio=var_hat / asvar,
        mse_star=_mean(np.square(stars - theta)),
        mse_hat=_mean(np.square(hats - theta)),
        degenerate_count=len(records) - len(valid),
    )


def run(cfg: SimConfig, threads: int = 1) -> tuple[list[SimulationRecord], SimSummary]:
    """Execute a campaign.

    Records come back ordered by replication index and are identical for any
    threads value; estimator failures inside a replication are recorded as
    degenerate rather than aborting the run.  The threads share out the
    blocks of rows_per_block(n) replications; no more of them start than
    there are blocks or processors.
    """
    if threads < 1:
        raise ConfigError(f"threads must be a positive integer, got {threads!r}")
    scn = build_scenario(cfg)
    reps, size = range(cfg.replications), rows_per_block(cfg.n)
    blocks = [reps[start : start + size] for start in range(0, len(reps), size)]
    evaluate = lambda reps: _replicate_block(cfg, scn, reps)
    workers = min(threads, len(blocks), os.cpu_count() or 1)
    if workers == 1:
        results = map(evaluate, blocks)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(evaluate, blocks))
    records = [rec for block in results for rec in block]
    return records, summarize(cfg, scn, records)
