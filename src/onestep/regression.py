"""Nonlinear regression models and their one-step estimators.

A model here is a fixed-design mean function f_i(t) with derivatives, a
variance-weight function w_i(t) scaling Var X_i = sigma^2 / w_i(t), and an
open parameter domain.  The quasi-likelihood estimating equation is

    sum_i w_i(t) f_i'(t) (x_i - f_i(t)) = 0,

which maps onto the core layer via h_i(t) = w_i(t) f_i'(t) and
M_i(t, x) = x - f_i(t).  The module ships three concrete mean families
(square-root, partially linear, saturation curve a_i / (1 + b_i t)) with
explicit preliminary estimators, plus the adapters between representations.

The preliminary estimators, lse_one_step and mm_closed_form also take a
SampleBlock with a (B,) parameter vector, and the model evaluators take a
(B, 1) parameter column, giving one row per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .core import (
    FULL_LINE,
    EstimatingFamily,
    Interval,
    MomentProvider,
    Sample,
    SampleBlock,
    WeightFamily,
    _all_finite,
    _column,
    _require_finite,
    _require_in_domain,
    _vanishes,
    exact_sum,
)
from .errors import (
    ConstraintError,
    DegenerateDenominatorError,
    DegenerateError,
    DivisionByZeroError,
    MissingDerivativeError,
    NonFiniteError,
)
from .estimators import EstimateResult

__all__ = [
    "RegressionModel",
    "Contrasts",
    "linear_model",
    "sqrt_model",
    "plinear_model",
    "mm_model",
    "to_families",
    "generalized_families",
    "moment_provider",
    "weighted_one_step",
    "lse_one_step",
    "asymptotic_variance",
    "default_contrasts",
    "preliminary_sqrt",
    "preliminary_plinear",
    "plinear_one_step",
    "preliminary_mm",
    "mm_one_step",
    "mm_closed_form",
]

ContrastKind = Literal["sum_zero", "b_orthogonal"]

# Relative step used when a weight derivative must be approximated.
_FD_STEP = 1e-6


@dataclass(frozen=True)
class RegressionModel:
    """Mean function family with variance weights on an open domain.

    f, f_prime, f_second, w, w_prime are scalar evaluators (index, t).
    The *_values fields evaluate all indices at once and must agree with
    the scalar path bitwise; factories in this module always provide them.
    a and b hold the covariate grids when the model has them, and kind
    names the family for dispatch ("linear", "sqrt", "plinear", "mm", or
    "custom").
    """

    n: int
    f: Callable[[int, float], float]
    f_prime: Callable[[int, float], float]
    w: Callable[[int, float], float]
    sigma: float
    domain: Interval = FULL_LINE
    f_second: Callable[[int, float], float] | None = None
    w_prime: Callable[[int, float], float] | None = None
    f_values: Callable[[float], np.ndarray] | None = None
    f_prime_values: Callable[[float], np.ndarray] | None = None
    f_second_values: Callable[[float], np.ndarray] | None = None
    w_values: Callable[[float], np.ndarray] | None = None
    w_prime_values: Callable[[float], np.ndarray] | None = None
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    kind: str = "custom"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("model must cover at least one observation")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")


@dataclass(frozen=True)
class Contrasts:
    """A contrast vector c with the linear constraint it is meant to satisfy."""

    c: np.ndarray
    constraint_kind: ContrastKind

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=np.float64)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("contrast vector must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise NonFiniteError("contrast vector contains non-finite entries")
        if self.constraint_kind not in ("sum_zero", "b_orthogonal"):
            raise ValueError(f"unknown constraint kind {self.constraint_kind!r}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "c", c)


def _covariate(name: str, values, *, positive: bool = False) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    if positive and np.any(arr <= 0.0):
        raise ValueError(f"{name} entries must be strictly positive")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _const_weight_vector(weights, n: int) -> np.ndarray:
    if weights is None:
        w = np.ones(n)
    else:
        w = _covariate("weights", weights).copy()
        if w.size != n:
            raise ValueError(f"weights have length {w.size}, expected {n}")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
    w.flags.writeable = False
    return w


def _per_observation(value, n: int) -> np.ndarray:
    """A value shared by all n observations, repeated along the last axis."""
    return np.full(np.shape(value)[:-1] + (n,), value, dtype=np.float64)


def _check_sample(model: RegressionModel, s: Sample | SampleBlock) -> None:
    if s.n != model.n:
        raise ValueError(f"sample has {s.n} observations, model expects {model.n}")


# --- vector evaluation helpers with scalar fallback ---

def _f_vec(model: RegressionModel, t: float) -> np.ndarray:
    _require_in_domain(t, model.domain)
    if model.f_values is not None:
        return np.asarray(model.f_values(t), dtype=np.float64)
    return np.fromiter((model.f(i, t) for i in range(model.n)), np.float64, model.n)


def _fp_vec(model: RegressionModel, t: float) -> np.ndarray:
    _require_in_domain(t, model.domain)
    if model.f_prime_values is not None:
        return np.asarray(model.f_prime_values(t), dtype=np.float64)
    return np.fromiter((model.f_prime(i, t) for i in range(model.n)), np.float64, model.n)


def _fsec_vec(model: RegressionModel, t: float) -> np.ndarray:
    _require_in_domain(t, model.domain)
    if model.f_second_values is not None:
        return np.asarray(model.f_second_values(t), dtype=np.float64)
    if model.f_second is None:
        raise MissingDerivativeError("model carries no second derivative of f")
    return np.fromiter((model.f_second(i, t) for i in range(model.n)), np.float64, model.n)


def _w_vec(model: RegressionModel, t: float) -> np.ndarray:
    _require_in_domain(t, model.domain)
    if model.w_values is not None:
        return np.asarray(model.w_values(t), dtype=np.float64)
    return np.fromiter((model.w(i, t) for i in range(model.n)), np.float64, model.n)


def _wp_vec(model: RegressionModel, t: float) -> np.ndarray | None:
    if model.w_prime_values is not None:
        return np.asarray(model.w_prime_values(t), dtype=np.float64)
    if model.w_prime is not None:
        return np.fromiter((model.w_prime(i, t) for i in range(model.n)), np.float64, model.n)
    return None


# --- model factories ---

def linear_model(a, sigma: float = 1.0, weights=None) -> RegressionModel:
    """Straight line through the origin: f_i(t) = a_i t."""
    a = _covariate("a", a)
    n = a.size
    wv = _const_weight_vector(weights, n)
    return RegressionModel(
        n=n,
        f=lambda i, t: float(a[i] * t),
        f_prime=lambda i, t: float(a[i]),
        f_second=lambda i, t: 0.0,
        w=lambda i, t: float(wv[i]),
        w_prime=lambda i, t: 0.0,
        sigma=sigma,
        domain=FULL_LINE,
        f_values=lambda t: a * t,
        f_prime_values=lambda t: a,
        f_second_values=lambda t: np.zeros(n),
        w_values=lambda t: wv,
        w_prime_values=lambda t: np.zeros(n),
        a=a,
        kind="linear",
    )


def sqrt_model(a, sigma: float = 1.0, weights=None) -> RegressionModel:
    """Square-root mean: f_i(t) = sqrt(1 + a_i t) with a_i > 0.

    The domain is the largest open interval on which every 1 + a_i t stays
    positive; evaluation outside it raises DomainError rather than clamping.
    """
    a = _covariate("a", a, positive=True)
    n = a.size
    wv = _const_weight_vector(weights, n)
    domain = Interval(-1.0 / float(np.max(a)), math.inf)

    def f(i: int, t: float) -> float:
        _require_in_domain(t, domain)
        return math.sqrt(1.0 + a[i] * t)

    def f_prime(i: int, t: float) -> float:
        _require_in_domain(t, domain)
        return float(a[i] / (2.0 * np.sqrt(1.0 + a[i] * t)))

    def f_second(i: int, t: float) -> float:
        _require_in_domain(t, domain)
        u = 1.0 + a[i] * t
        return float(-(a[i] * a[i]) / (4.0 * u * np.sqrt(u)))

    return RegressionModel(
        n=n,
        f=f,
        f_prime=f_prime,
        f_second=f_second,
        w=lambda i, t: float(wv[i]),
        w_prime=lambda i, t: 0.0,
        sigma=sigma,
        domain=domain,
        f_values=lambda t: np.sqrt(1.0 + a * t),
        f_prime_values=lambda t: a / (2.0 * np.sqrt(1.0 + a * t)),
        f_second_values=lambda t: -(a * a) / (4.0 * (1.0 + a * t) * np.sqrt(1.0 + a * t)),
        w_values=lambda t: wv,
        w_prime_values=lambda t: np.zeros(n),
        a=a,
        kind="sqrt",
    )


def plinear_model(
    a,
    b,
    g: Callable[[float], float],
    g_prime: Callable[[float], float],
    sigma: float = 1.0,
    weights=None,
    g_second: Callable[[float], float] | None = None,
    domain: Interval = FULL_LINE,
) -> RegressionModel:
    """Partially linear mean: f_i(t) = a_i t + b_i g(t), g a scalar function."""
    a = _covariate("a", a)
    b = _covariate("b", b)
    if b.size != a.size:
        raise ValueError("a and b must have equal length")
    n = a.size
    wv = _const_weight_vector(weights, n)

    def f(i: int, t: float) -> float:
        _require_in_domain(t, domain)
        return float(a[i] * t + b[i] * g(t))

    def f_prime(i: int, t: float) -> float:
        _require_in_domain(t, domain)
        return float(a[i] + b[i] * g_prime(t))

    f_second = None
    f_second_values = None
    if g_second is not None:
        def f_second(i: int, t: float) -> float:
            _require_in_domain(t, domain)
            return float(b[i] * g_second(t))

        def f_second_values(t: float) -> np.ndarray:
            return b * g_second(t)

    return RegressionModel(
        n=n,
        f=f,
        f_prime=f_prime,
        f_second=f_second,
        w=lambda i, t: float(wv[i]),
        w_prime=lambda i, t: 0.0,
        sigma=sigma,
        domain=domain,
        f_values=lambda t: a * t + b * g(t),
        f_prime_values=lambda t: a + b * g_prime(t),
        f_second_values=f_second_values,
        w_values=lambda t: wv,
        w_prime_values=lambda t: np.zeros(n),
        a=a,
        b=b,
        kind="plinear",
    )


def mm_model(
    a,
    b,
    sigma: float = 1.0,
    weights=None,
    weight_fn: Callable[[float], float] | None = None,
    weight_fn_prime: Callable[[float], float] | None = None,
) -> RegressionModel:
    """Saturation curve: f_i(t) = a_i / (1 + b_i t) with a_i, b_i > 0.

    Variance weights are either constant per observation (weights) or a
    shared function of the parameter (weight_fn, with optional derivative).
    """
    if weights is not None and weight_fn is not None:
        raise ValueError("pass constant weights or weight_fn, not both")
    a = _covariate("a", a, positive=True)
    b = _covariate("b", b, positive=True)
    if b.size != a.size:
        raise ValueError("a and b must have equal length")
    n = a.size
    domain = Interval(-1.0 / float(np.max(b)), math.inf)

    def f(i: int, t: float) -> float:
        _require_in_domain(t, domain)
        return float(a[i] / (1.0 + b[i] * t))

    def f_prime(i: int, t: float) -> float:
        _require_in_domain(t, domain)
        q = 1.0 + b[i] * t
        return float(-(a[i] * b[i]) / (q * q))

    def f_second(i: int, t: float) -> float:
        _require_in_domain(t, domain)
        q = 1.0 + b[i] * t
        return float(2.0 * a[i] * b[i] * b[i] / (q * q * q))

    if weight_fn is not None:
        w = lambda i, t: float(weight_fn(t))
        w_values = lambda t: _per_observation(weight_fn(t), n)
        if weight_fn_prime is not None:
            w_prime = lambda i, t: float(weight_fn_prime(t))
            w_prime_values = lambda t: _per_observation(weight_fn_prime(t), n)
        else:
            w_prime = None
            w_prime_values = None
    else:
        wv = _const_weight_vector(weights, n)
        w = lambda i, t: float(wv[i])
        w_values = lambda t: wv
        w_prime = lambda i, t: 0.0
        w_prime_values = lambda t: np.zeros(n)

    return RegressionModel(
        n=n,
        f=f,
        f_prime=f_prime,
        f_second=f_second,
        w=w,
        w_prime=w_prime,
        sigma=sigma,
        domain=domain,
        f_values=lambda t: a / (1.0 + b * t),
        f_prime_values=lambda t: -(a * b) / np.square(1.0 + b * t),
        f_second_values=lambda t: 2.0 * a * b * b / (1.0 + b * t) ** 3,
        w_values=w_values,
        w_prime_values=w_prime_values,
        a=a,
        b=b,
        kind="mm",
    )


# --- adapters to the core layer ---

def to_families(model: RegressionModel) -> tuple[EstimatingFamily, WeightFamily]:
    """Quasi-likelihood families: M_i = x - f_i(t), h_i = w_i(t) f_i'(t).

    The weight derivative h' = w' f' + w f'' is attached when the model has a
    second derivative of f; a missing analytic w' is replaced by a central
    difference and the family is marked h_prime_exact=False.
    """
    fam = EstimatingFamily(
        m=lambda i, t, x: float(x - model.f(i, t)),
        m_prime=lambda i, t, x: float(-model.f_prime(i, t)),
        domain=model.domain,
        m_terms=lambda t, xs: xs - _f_vec(model, t),
        m_prime_terms=lambda t, xs: -_fp_vec(model, t),
    )

    def h(i: int, t: float) -> float:
        return float(model.w(i, t) * model.f_prime(i, t))

    h_values = lambda t: _w_vec(model, t) * _fp_vec(model, t)

    h_prime = None
    h_prime_values = None
    exact = True
    if model.f_second is not None or model.f_second_values is not None:
        if model.w_prime is not None or model.w_prime_values is not None:
            def wp_scalar(i: int, t: float) -> float:
                if model.w_prime is not None:
                    return float(model.w_prime(i, t))
                return float(_wp_vec(model, t)[i])

            wp_vec = lambda t: _wp_vec(model, t)
        else:
            exact = False

            def wp_scalar(i: int, t: float) -> float:
                d = _FD_STEP * (1.0 + abs(t))
                return float((model.w(i, t + d) - model.w(i, t - d)) / (2.0 * d))

            def wp_vec(t: float) -> np.ndarray:
                d = _FD_STEP * (1.0 + abs(t))
                return (_w_vec(model, t + d) - _w_vec(model, t - d)) / (2.0 * d)

        def h_prime(i: int, t: float) -> float:
            fsec = model.f_second(i, t) if model.f_second is not None \
                else float(_fsec_vec(model, t)[i])
            return float(wp_scalar(i, t) * model.f_prime(i, t) + model.w(i, t) * fsec)

        h_prime_values = lambda t: wp_vec(t) * _fp_vec(model, t) + _w_vec(model, t) * _fsec_vec(model, t)

    wf = WeightFamily(
        h=h,
        h_prime=h_prime,
        domain=model.domain,
        h_values=h_values,
        h_prime_values=h_prime_values,
        h_prime_exact=exact,
    )
    return fam, wf


def generalized_families(
    model: RegressionModel,
    g: Callable[[int, float], float],
    g_prime: Callable[[int, float], float],
    g_values: Callable[[float], np.ndarray] | None = None,
    g_prime_values: Callable[[float], np.ndarray] | None = None,
) -> tuple[EstimatingFamily, WeightFamily]:
    """Families for scores transformed by per-observation factors g_i(t):

    M_i = g_i(t) (x - f_i(t)),  h_i = w_i(t) f_i'(t) / g_i(t).

    The induced estimating equation is identical to the quasi-likelihood one,
    but the one-step update differs because the frozen weights differ.
    Raises DivisionByZeroError wherever g_i(t) = 0.
    """

    def g_vec(t: float) -> np.ndarray:
        if g_values is not None:
            return np.asarray(g_values(t), dtype=np.float64)
        return np.fromiter((g(i, t) for i in range(model.n)), np.float64, model.n)

    def gp_vec(t: float) -> np.ndarray:
        if g_prime_values is not None:
            return np.asarray(g_prime_values(t), dtype=np.float64)
        return np.fromiter((g_prime(i, t) for i in range(model.n)), np.float64, model.n)

    fam = EstimatingFamily(
        m=lambda i, t, x: float(g(i, t) * (x - model.f(i, t))),
        m_prime=lambda i, t, x: float(
            g_prime(i, t) * (x - model.f(i, t)) - g(i, t) * model.f_prime(i, t)
        ),
        domain=model.domain,
        m_terms=lambda t, xs: g_vec(t) * (xs - _f_vec(model, t)),
        m_prime_terms=lambda t, xs: gp_vec(t) * (xs - _f_vec(model, t)) - g_vec(t) * _fp_vec(model, t),
    )

    def h(i: int, t: float) -> float:
        gi = g(i, t)
        if gi == 0.0:
            raise DivisionByZeroError(f"transform factor vanishes at index {i}, t={t!r}")
        return float(model.w(i, t) * model.f_prime(i, t) / gi)

    def h_values(t: float) -> np.ndarray:
        gv = g_vec(t)
        if np.any(gv == 0.0):
            raise DivisionByZeroError(f"transform factor vanishes at t={t!r}")
        return _w_vec(model, t) * _fp_vec(model, t) / gv

    wf = WeightFamily(h=h, h_prime=None, domain=model.domain, h_values=h_values)
    return fam, wf


def moment_provider(model: RegressionModel) -> MomentProvider:
    """Model moments: E M_i^2 = sigma^2 / w_i(theta), E M_i' = -f_i'(theta)."""
    s2 = model.sigma * model.sigma
    return MomentProvider(
        e_m2=lambda i, t: float(s2 / model.w(i, t)),
        e_mprime=lambda i, t: float(-model.f_prime(i, t)),
        e_m2_values=lambda t: s2 / _w_vec(model, t),
        e_mprime_values=lambda t: -_fp_vec(model, t),
    )


# --- generic one-step updates ---

def weighted_one_step(model: RegressionModel, theta_star: float, s: Sample) -> EstimateResult:
    """Quasi-likelihood one-step:

    theta_hat = theta_star + sum w f' (x - f) / sum w f'^2, all at theta_star.
    """
    _check_sample(model, s)
    wfp = _w_vec(model, theta_star) * _fp_vec(model, theta_star)
    resid = s.x - _f_vec(model, theta_star)
    num_terms = wfp * resid
    den_terms = wfp * _fp_vec(model, theta_star)
    _require_finite("update terms", num_terms)
    _require_finite("denominator terms", den_terms)
    den = exact_sum(den_terms)
    if _vanishes(den, den_terms):
        raise DegenerateDenominatorError("weighted design sum is numerically zero")
    theta_hat = theta_star + exact_sum(num_terms) / den
    if not math.isfinite(theta_hat):
        raise NonFiniteError("one-step update is not finite")
    return EstimateResult(theta_star=theta_star, theta_hat=theta_hat, denominator=den)


def lse_one_step(
    model: RegressionModel, theta_star: float | np.ndarray, s: Sample | SampleBlock
) -> EstimateResult:
    """One Newton step on the least-squares normal equation:

    theta_hat = theta_star + sum (x - f) f' / sum (f'^2 - (x - f) f'').
    Requires the model's second derivative.
    """
    _check_sample(model, s)
    if model.f_second is None and model.f_second_values is None:
        raise MissingDerivativeError("least-squares step needs f''")
    t = _column(theta_star, s)
    fp = _fp_vec(model, t)
    resid = s.x - _f_vec(model, t)
    num_terms = resid * fp
    den_terms = fp * fp - resid * _fsec_vec(model, t)
    _require_finite("update terms", num_terms)
    _require_finite("denominator terms", den_terms)
    den = exact_sum(den_terms)
    if _vanishes(den, den_terms):
        raise DegenerateDenominatorError("curvature sum is numerically zero")
    theta_hat = theta_star + exact_sum(num_terms) / den
    if not _all_finite(theta_hat):
        raise NonFiniteError("one-step update is not finite")
    return EstimateResult(theta_star=theta_star, theta_hat=theta_hat, denominator=den)


def asymptotic_variance(model: RegressionModel, theta: float, n: int | None = None) -> float:
    """Asymptotic variance sigma^2 / sum_{i<n} w_i(theta) f_i'(theta)^2."""
    if n is None:
        n = model.n
    if not 1 <= n <= model.n:
        raise ValueError(f"n must lie in 1..{model.n}")
    terms = (_w_vec(model, theta) * np.square(_fp_vec(model, theta)))[:n]
    _require_finite("information terms", terms)
    total = exact_sum(terms)
    if total <= 0.0:
        raise DegenerateError("information sum is zero")
    return model.sigma * model.sigma / total


# --- contrasts and explicit preliminary estimators ---

def _validate_sum_zero(c: np.ndarray) -> None:
    if abs(exact_sum(c)) > 1e-12 * exact_sum(np.abs(c)):
        raise ConstraintError("contrast coefficients must sum to zero")


def _validate_b_orthogonal(c: np.ndarray, b: np.ndarray | None) -> None:
    if b is None:
        return
    prods = c * b
    if abs(exact_sum(prods)) > 1e-12 * exact_sum(np.abs(prods)):
        raise ConstraintError("contrast coefficients must be orthogonal to b")


def default_contrasts(s: Sample, kind: ContrastKind) -> Contrasts:
    """Deterministic contrast choice from the design.

    sum_zero: center a and rescale to unit max-norm.
    b_orthogonal: remove the projection of a onto b, then rescale.

    Raises DegenerateDenominatorError when the construction collapses (a
    constant, or a proportional to b) or the induced denominator vanishes.
    """
    a = s.a
    n = s.n
    if kind == "sum_zero":
        c = a - exact_sum(a) / n
        c = c - exact_sum(c) / n
    elif kind == "b_orthogonal":
        b = s.b if s.b is not None else np.zeros(n)
        bb = exact_sum(b * b)
        c = a - (exact_sum(a * b) / bb) * b if bb > 0.0 else a.copy()
        if bb > 0.0:
            c = c - (exact_sum(c * b) / bb) * b
    else:
        raise ValueError(f"unknown constraint kind {kind!r}")
    peak = float(np.max(np.abs(c)))
    if peak <= 1e-12 * max(1.0, float(np.max(np.abs(a)))):
        raise DegenerateDenominatorError(
            "design admits no informative contrast of this kind"
        )
    c = c / peak
    if kind == "sum_zero":
        w = s.w_known if s.w_known is not None else np.ones(n)
        den_terms = c * w * a
    else:
        den_terms = c * a
    if _vanishes(exact_sum(den_terms), den_terms):
        raise DegenerateDenominatorError("contrast denominator is numerically zero")
    return Contrasts(c=c, constraint_kind=kind)


def preliminary_sqrt(c: Contrasts, s: Sample | SampleBlock) -> float | np.ndarray:
    """Explicit start for the square-root mean with known constant weights:

    theta_star = sum c w (x^2 - 1) / sum c w a, requiring sum c = 0 so the
    noise square's bias cancels across observations.
    """
    cv = c.c
    if cv.size != s.n:
        raise ValueError(f"contrast length {cv.size} does not match sample size {s.n}")
    _validate_sum_zero(cv)
    w = s.w_known if s.w_known is not None else np.ones(s.n)
    den_terms = cv * w * s.a
    den = exact_sum(den_terms)
    if _vanishes(den, den_terms):
        raise DegenerateDenominatorError("contrast denominator is numerically zero")
    num = exact_sum(cv * w * (np.square(s.x) - 1.0))
    theta = num / den
    if not _all_finite(theta):
        raise NonFiniteError("preliminary estimate is not finite")
    return theta


def preliminary_plinear(c: Contrasts, s: Sample | SampleBlock) -> float | np.ndarray:
    """Explicit start for the partially linear mean:

    theta_star = sum c x / sum c a, requiring sum c b = 0 so the nonlinear
    term g(theta) drops out regardless of g.
    """
    cv = c.c
    if cv.size != s.n:
        raise ValueError(f"contrast length {cv.size} does not match sample size {s.n}")
    _validate_b_orthogonal(cv, s.b)
    den_terms = cv * s.a
    den = exact_sum(den_terms)
    if _vanishes(den, den_terms):
        raise DegenerateDenominatorError("contrast denominator is numerically zero")
    theta = exact_sum(cv * s.x) / den
    if not _all_finite(theta):
        raise NonFiniteError("preliminary estimate is not finite")
    return theta


def plinear_one_step(
    g: Callable[[float], float],
    g_prime: Callable[[float], float],
    theta_star: float,
    s: Sample,
    w=None,
) -> EstimateResult:
    """Weighted one-step for f_i(t) = a_i t + b_i g(t).

    w may be None (unit weights), a constant vector, or a callable mapping t
    to a value broadcastable over the sample.
    """
    b = s.b if s.b is not None else np.zeros(s.n)
    if w is None:
        wv = np.ones(s.n)
    elif callable(w):
        wv = np.broadcast_to(np.asarray(w(theta_star), dtype=np.float64), (s.n,)).copy()
    else:
        wv = _const_weight_vector(w, s.n)
    gv = float(g(theta_star))
    slope = s.a + b * float(g_prime(theta_star))
    resid = s.x - (s.a * theta_star + b * gv)
    num_terms = wv * slope * resid
    den_terms = wv * slope * slope
    _require_finite("update terms", num_terms)
    _require_finite("denominator terms", den_terms)
    den = exact_sum(den_terms)
    if _vanishes(den, den_terms):
        raise DegenerateDenominatorError("weighted design sum is numerically zero")
    theta_hat = theta_star + exact_sum(num_terms) / den
    if not math.isfinite(theta_hat):
        raise NonFiniteError("one-step update is not finite")
    return EstimateResult(theta_star=theta_star, theta_hat=theta_hat, denominator=den)


def preliminary_mm(c, s: Sample | SampleBlock) -> float | np.ndarray:
    """Explicit start for the saturation curve:

    theta_star = sum c (a - x) / sum c b x.  Any fixed coefficient vector c
    works; no linear constraint is required.
    """
    cv = _covariate("c", c)
    if cv.size != s.n:
        raise ValueError(f"coefficient length {cv.size} does not match sample size {s.n}")
    if s.b is None:
        raise ValueError("sample carries no b covariate")
    den_terms = cv * s.b * s.x
    den = exact_sum(den_terms)
    if _vanishes(den, den_terms):
        raise DegenerateDenominatorError("coefficient denominator is numerically zero")
    theta = exact_sum(cv * (s.a - s.x)) / den
    if not _all_finite(theta):
        raise NonFiniteError("preliminary estimate is not finite")
    return theta


def mm_one_step(model: RegressionModel, theta_star: float, s: Sample) -> EstimateResult:
    """Termwise one-step for the saturation curve:

    theta_hat = theta_star
        - sum (x - a/(1+b t)) w a b / (1+b t)^2 / sum w a^2 b^2 / (1+b t)^4.
    """
    _check_sample(model, s)
    if model.a is None or model.b is None:
        raise ValueError("model does not carry the a, b covariates this update needs")
    _require_in_domain(theta_star, model.domain)
    a, b = model.a, model.b
    q = 1.0 + b * theta_star
    wv = _w_vec(model, theta_star)
    # p = a b / q^2 is shared by both sums so that the update agrees bitwise
    # with the quasi-likelihood step through the generic adapter
    p = (a * b) / np.square(q)
    wp = wv * p
    num_terms = wp * (s.x - a / q)
    den_terms = wp * p
    _require_finite("update terms", num_terms)
    _require_finite("denominator terms", den_terms)
    den = exact_sum(den_terms)
    if _vanishes(den, den_terms):
        raise DegenerateDenominatorError("design sum is numerically zero")
    theta_hat = theta_star - exact_sum(num_terms) / den
    if not math.isfinite(theta_hat):
        raise NonFiniteError("one-step update is not finite")
    return EstimateResult(theta_star=theta_star, theta_hat=theta_hat, denominator=den)


def mm_closed_form(
    model: RegressionModel, theta_star: float | np.ndarray, s: Sample | SampleBlock
) -> float | np.ndarray:
    """Closed-form refinement for the saturation curve:

    theta = sum w a b (a - x) / (1+b t)^3 / sum w a b^2 x / (1+b t)^3,
    with t = theta_star.  Algebraically identical to the weighted one-step
    under the transformed score g_i(t) = 1 + b_i t.
    """
    _check_sample(model, s)
    if model.a is None or model.b is None:
        raise ValueError("model does not carry the a, b covariates this update needs")
    t = _column(theta_star, s)
    _require_in_domain(t, model.domain)
    a, b = model.a, model.b
    q3 = (1.0 + b * t) ** 3
    wv = _w_vec(model, t)
    num_terms = wv * a * b * (a - s.x) / q3
    den_terms = wv * a * np.square(b) * s.x / q3
    _require_finite("numerator terms", num_terms)
    _require_finite("denominator terms", den_terms)
    den = exact_sum(den_terms)
    if _vanishes(den, den_terms):
        raise DegenerateDenominatorError("response-weighted design sum is numerically zero")
    theta = exact_sum(num_terms) / den
    if not _all_finite(theta):
        raise NonFiniteError("closed-form estimate is not finite")
    return theta
