"""Nonlinear regression models, their one-step estimators, and the pipeline table.

A model here is a fixed-design mean function f_i(t) with derivatives, a
variance-weight function w_i(t) scaling Var X_i = sigma^2 / w_i(t), and an
open parameter domain.  Vector evaluators that give every observation at
once define it, and model.values reads them after a domain check.  The
adapters and lse_one_step read them through _reader instead, which checks
the domain once per parameter value and evaluates each of them once there.
The quasi-likelihood estimating equation is

    sum_i w_i(t) f_i'(t) (x_i - f_i(t)) = 0,

which maps onto the core layer via h_i(t) = w_i(t) f_i'(t) and
M_i(t, x) = x - f_i(t).  The module ships three concrete mean families
(square-root, partially linear, saturation curve a_i / (1 + b_i t)) with
explicit preliminary estimators; the adapters to the core families, on
which one_step_weighted takes every model's quasi-likelihood step; the
least-squares step lse_one_step; and what the command line and the
simulation harness share:
resolve_preliminary, each model kind's preliminary estimator;
check_pipeline, which names the updates they accept; and
estimation_sequence, the one function both run the estimator through
(preliminary, the update a pipeline name selects, studentize).

The preliminary estimators, lse_one_step and mm_closed_form also take a
block, a Sample whose x has B rows, with a (B,) parameter vector, and the
model evaluators take a (B, 1) parameter column, giving one row per sample.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Literal

import numpy as np

from .core import (
    FULL_LINE,
    EstimatingFamily,
    Interval,
    MomentProvider,
    Sample,
    WeightFamily,
    _all_finite,
    _as_array,
    _checked_sum,
    _column,
    _evaluate,
    _finite,
    _finite_extremes,
    _ratio,
    _require_in_domain,
    _unit_scaled,
    _wide_sum,
    exact_sum,
)
from .errors import (
    ConfigError,
    ConstraintError,
    DegenerateDenominatorError,
    DivisionByZeroError,
    MissingDerivativeError,
    NonFiniteError,
)
from .estimators import (
    EstimateResult,
    _newton_root,
    _newton_update,
    one_step_factorized,
    one_step_weighted,
    studentize,
)

__all__ = [
    "RegressionModel",
    "Contrasts",
    "PIPELINES",
    "linear_model",
    "sqrt_model",
    "plinear_model",
    "mm_model",
    "to_families",
    "generalized_families",
    "moment_provider",
    "lse_one_step",
    "default_contrasts",
    "preliminary_sqrt",
    "preliminary_plinear",
    "preliminary_mm",
    "mm_closed_form",
    "check_pipeline",
    "resolve_preliminary",
    "estimation_sequence",
]

ContrastKind = Literal["sum_zero", "b_orthogonal"]

# The names lse_one_step's term checks give its two sums.
_UPDATE_TERMS = ("update terms", "denominator terms")


@dataclass(frozen=True)
class RegressionModel:
    """Mean function family with variance weights on an open domain.

    The vector evaluators f_values, f_prime_values, f_second_values,
    w_values and w_prime_values define the model: each maps t, or a (B, 1)
    column of parameter values, to one value per observation;
    f_second_values and w_prime_values are optional.  values(name, t)
    evaluates one of them after checking that t lies in the domain.  a and
    b hold the covariate grids when the model has them, and kind names the
    family for dispatch ("linear", "sqrt", "plinear", "mm", or "custom").
    """

    n: int
    f_values: Callable[[float], np.ndarray]
    f_prime_values: Callable[[float], np.ndarray]
    w_values: Callable[[float], np.ndarray]
    sigma: float
    domain: Interval = FULL_LINE
    f_second_values: Callable[[float], np.ndarray] | None = None
    w_prime_values: Callable[[float], np.ndarray] | None = None
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    kind: str = "custom"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("model must cover at least one observation")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")

    def values(self, name: str, t) -> np.ndarray:
        """The evaluator {name}_values at t, name one of f, f_prime, f_second, w, w_prime.

        Raises DomainError (NonFiniteError) unless t lies in the domain,
        MissingDerivativeError when the model does not carry the evaluator,
        and ValueError when it gives neither n values per row nor one 0-d
        value for every index (core._evaluate's width rule).
        """
        _require_in_domain(t, self.domain)
        values = getattr(self, f"{name}_values")
        if values is None:
            raise MissingDerivativeError(f"model carries no {name}_values")
        return _evaluate(values, self.n, t)


@dataclass(frozen=True)
class Contrasts:
    """A contrast vector c, validated and frozen read-only.

    Each preliminary checks the linear constraint it needs c to satisfy.
    """

    c: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _as_array("contrast vector", self.c))

    @cached_property
    def sums_to_zero(self) -> bool:
        """Whether c sums to zero, to 1e-12 of sum |c|; c is read-only, so one test serves."""
        return _sums_to_zero(self.c)

    def orthogonal_to(self, b: np.ndarray) -> bool:
        """Whether c b sums to zero, to 1e-12 of sum |c b|, with b scaled by _unit_scaled.

        b is scaled as default_contrasts projects on it.  b is a Sample's
        read-only covariate, so the verdict is kept for the last b tested:
        a campaign, whose b is one array, tests it once.
        """
        kept = self.__dict__.get("_orthogonal_to")
        if kept is None or kept[0] is not b:
            verdict = _sums_to_zero(self.c * _unit_scaled(b)[0])
            kept = self.__dict__["_orthogonal_to"] = (b, verdict)
        return kept[1]

    def denominator(self, a: np.ndarray, w_known: np.ndarray | None) -> float:
        """The checked sum of c w a, w = w_known or 1: a contrast preliminary's denominator.

        The sum is kept for the last a and w_known, by identity, as
        orthogonal_to keeps its verdict: a campaign, whose design is one
        set of arrays, sums it once.  A sum that raises is not kept.
        """
        kept = self.__dict__.get("_denominator")
        if kept is None or kept[0] is not a or kept[1] is not w_known:
            cw = self.c if w_known is None else self.c * w_known
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                terms = cw * a
            den = _checked_sum(
                terms, "denominator terms", "contrast denominator is numerically zero"
            )
            kept = self.__dict__["_denominator"] = (a, w_known, den)
        return kept[2]


def _contrast_ratio(c: Contrasts, num_terms: np.ndarray, a: np.ndarray, w_known) -> float:
    """sum num_terms / c.denominator(a, w_known), checked as _ratio checks a ratio.

    The numerator terms are checked first, then the denominator, then the
    numerator's sum, as _ratio orders them.
    """
    extremes = _finite_extremes(num_terms, "numerator terms")
    den = c.denominator(a, w_known)
    theta = _wide_sum(num_terms, "numerator terms", extremes) / den
    return _finite(theta, "preliminary estimate is not finite")


def _constant_weights(weights, n: int) -> dict:
    """w_values and w_prime_values of variance weights constant in t (a 0-d one by default)."""
    wv = 1.0 if weights is None else _as_array("weights", weights, n=n, positive=True)
    return {"w_values": lambda t: wv, "w_prime_values": lambda t: 0.0}


def _per_observation(value, n: int) -> np.ndarray:
    """A value shared by all n observations, broadcast along the last axis (read-only)."""
    return np.broadcast_to(np.asarray(value, dtype=np.float64), np.shape(value)[:-1] + (n,))


def _cube(q: np.ndarray) -> np.ndarray:
    """q^3 as q^2 q, the same bits on every CPU; numpy picks q ** 3's pow kernel by CPU."""
    return np.square(q) * q


def _check_sample(model: RegressionModel, s: Sample) -> None:
    if s.n != model.n:
        raise ValueError(f"sample has {s.n} observations, model expects {model.n}")


# --- model factories ---

def linear_model(a, sigma: float = 1.0, weights=None) -> RegressionModel:
    """Straight line through the origin: f_i(t) = a_i t."""
    a = _as_array("a", a)
    n = a.size
    return RegressionModel(
        n=n,
        sigma=sigma,
        domain=FULL_LINE,
        f_values=lambda t: a * t,
        f_prime_values=lambda t: a,
        f_second_values=lambda t: 0.0,
        **_constant_weights(weights, n),
        a=a,
        kind="linear",
    )


def sqrt_model(a, sigma: float = 1.0, weights=None) -> RegressionModel:
    """Square-root mean: f_i(t) = sqrt(1 + a_i t) with a_i > 0.

    The domain is the largest open interval on which every 1 + a_i t stays
    positive; evaluation outside it raises DomainError rather than clamping.
    """
    a = _as_array("a", a, positive=True)
    n = a.size
    return RegressionModel(
        n=n,
        sigma=sigma,
        domain=Interval(-1.0 / float(np.max(a)), math.inf),
        f_values=lambda t: np.sqrt(1.0 + a * t),
        f_prime_values=lambda t: a / (2.0 * np.sqrt(1.0 + a * t)),
        f_second_values=lambda t: -(a * a) / (4.0 * (1.0 + a * t) * np.sqrt(1.0 + a * t)),
        **_constant_weights(weights, n),
        a=a,
        kind="sqrt",
    )


def plinear_g(t: float) -> float:
    """Nonlinear component of the partially linear scenario and of ``estimate --model plinear``."""
    return t * t


def plinear_g_prime(t: float) -> float:
    return 2.0 * t


def plinear_g_second(t: float) -> float:
    return 2.0


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
    a = _as_array("a", a)
    b = _as_array("b", b)
    if b.size != a.size:
        raise ValueError("a and b must have equal length")
    n = a.size
    return RegressionModel(
        n=n,
        sigma=sigma,
        domain=domain,
        f_values=lambda t: a * t + b * g(t),
        f_prime_values=lambda t: a + b * g_prime(t),
        f_second_values=None if g_second is None else lambda t: b * g_second(t),
        **_constant_weights(weights, n),
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
    shared function of the parameter (weight_fn, with optional derivative
    weight_fn_prime).  Without weight_fn_prime, a weight_fn model's families
    (to_families) carry no h', so one_step_factorized raises
    MissingDerivativeError on them.
    """
    if weights is not None and weight_fn is not None:
        raise ValueError("pass constant weights or weight_fn, not both")
    a = _as_array("a", a, positive=True)
    b = _as_array("b", b, positive=True)
    if b.size != a.size:
        raise ValueError("a and b must have equal length")
    n = a.size
    if weight_fn is None:
        w_evaluators = _constant_weights(weights, n)
    else:
        w_evaluators = {"w_values": lambda t: _per_observation(weight_fn(t), n)}
        if weight_fn_prime is not None:
            w_evaluators["w_prime_values"] = lambda t: _per_observation(weight_fn_prime(t), n)
    return RegressionModel(
        n=n,
        sigma=sigma,
        domain=Interval(-1.0 / float(np.max(b)), math.inf),
        f_values=lambda t: a / (1.0 + b * t),
        f_prime_values=lambda t: -(a * b) / np.square(1.0 + b * t),
        f_second_values=lambda t: 2.0 * a * b * b / _cube(1.0 + b * t),
        **w_evaluators,
        a=a,
        b=b,
        kind="mm",
    )


# --- adapters to the core layer ---

def _reader(model: RegressionModel) -> Callable[..., np.ndarray]:
    """at(name, t): model.values(name, t), evaluated once per parameter value in each thread.

    Each thread keeps the model's values at the last parameter value it
    evaluated, keyed by the bytes of t.  The domain is checked once, when
    that value changes, and a value that fails the check is not kept; each
    evaluator then runs once there, through core._evaluate.  at(name, t,
    keep=False) evaluates without keeping the values, for an evaluator read
    once per parameter value: they would hold a vector of length n (a block
    of them) until the next value.  The adapters read only the evaluators
    the model carries.
    """
    point = threading.local()

    def at(name: str, t, keep: bool = True) -> np.ndarray:
        arr = np.asarray(t)
        key = (arr.shape, arr.dtype.str, arr.tobytes())
        if getattr(point, "key", None) != key:
            _require_in_domain(t, model.domain)
            point.key, point.values = key, {}
        if not keep:
            return _evaluate(getattr(model, f"{name}_values"), model.n, t)
        if name not in point.values:
            point.values[name] = _evaluate(getattr(model, f"{name}_values"), model.n, t)
        return point.values[name]

    return at


def to_families(model: RegressionModel) -> tuple[EstimatingFamily, WeightFamily]:
    """Quasi-likelihood families: M_i = x - f_i(t), h_i = w_i(t) f_i'(t).

    The weight derivative h' = w' f' + w f'' is attached when the model
    carries both f'' and w'; otherwise the family carries no h'.  The
    families read the model through _reader, so the terms of one update or
    studentizer check the domain once and evaluate f, f', w and their
    derivatives once each.  Only M reads f, once per parameter value, so f
    is not kept.
    """
    at = _reader(model)
    fam = EstimatingFamily(
        domain=model.domain,
        m_terms=lambda t, xs: xs - at("f", t, keep=False),
        m_prime_terms=lambda t, xs: -at("f_prime", t),
    )
    h_prime_values = None
    if model.f_second_values is not None and model.w_prime_values is not None:
        h_prime_values = lambda t: (
            at("w_prime", t) * at("f_prime", t) + at("w", t) * at("f_second", t)
        )
    return fam, WeightFamily(lambda t: at("w", t) * at("f_prime", t), h_prime_values)


def generalized_families(
    model: RegressionModel,
    g_values: Callable[[float], np.ndarray],
    g_prime_values: Callable[[float], np.ndarray],
) -> tuple[EstimatingFamily, WeightFamily]:
    """Families for scores transformed by per-observation factors g_i(t):

    M_i = g_i(t) (x - f_i(t)),  h_i = w_i(t) f_i'(t) / g_i(t).

    The induced estimating equation is identical to the quasi-likelihood one,
    but the one-step update differs because the frozen weights differ.
    g_values and g_prime_values evaluate g and g' at every index at once, or
    give one 0-d value for all.  Raises DivisionByZeroError wherever
    g_i(t) = 0.  The model is read through _reader, as to_families reads it.
    """
    at = _reader(model)
    g_vec = lambda t: _evaluate(g_values, model.n, t)
    gp_vec = lambda t: _evaluate(g_prime_values, model.n, t)
    fam = EstimatingFamily(
        domain=model.domain,
        m_terms=lambda t, xs: g_vec(t) * (xs - at("f", t)),
        m_prime_terms=lambda t, xs: gp_vec(t) * (xs - at("f", t)) - g_vec(t) * at("f_prime", t),
    )

    def h_values(t: float) -> np.ndarray:
        gv = g_vec(t)
        if np.any(gv == 0.0):
            raise DivisionByZeroError(f"transform factor vanishes at t={t!r}")
        return at("w", t) * at("f_prime", t) / gv

    return fam, WeightFamily(h_values=h_values)


def moment_provider(model: RegressionModel) -> MomentProvider:
    """Model moments: E M_i^2 = sigma^2 / w_i(theta), E M_i' = -f_i'(theta)."""
    s2 = model.sigma * model.sigma
    return MomentProvider(
        e_m2_values=lambda t: s2 / model.values("w", t),
        e_mprime_values=lambda t: -model.values("f_prime", t),
    )


# --- the least-squares step ---

def lse_one_step(
    model: RegressionModel, theta_star: float | np.ndarray, s: Sample
) -> EstimateResult:
    """One Newton step on the least-squares normal equation:

    theta_hat = theta_star + sum (x - f) f' / sum (f'^2 - (x - f) f'').
    Requires the model's second derivative.  The model is read through
    _reader, so theta_star is checked against the domain once.
    """
    _check_sample(model, s)
    if model.f_second_values is None:
        raise MissingDerivativeError("least-squares step needs f''")
    at = _reader(model)
    t = _column(theta_star, s)
    fp = at("f_prime", t)
    misfit = at("f", t) - s.x
    return _newton_update(
        theta_star, misfit * fp, fp * fp + misfit * at("f_second", t),
        "curvature sum is numerically zero", _UPDATE_TERMS,
    )


# --- contrasts and explicit preliminary estimators ---

def _sums_to_zero(terms: np.ndarray) -> bool:
    """Whether |sum terms| <= 1e-12 sum |terms|, both sums exact.

    The terms are first scaled by _unit_scaled, so neither sum overflows,
    however large or small the terms.  Raises NonFiniteError when a term is
    not finite.
    """
    if not _all_finite(terms):
        raise NonFiniteError("contrast terms are not finite")
    scaled, _ = _unit_scaled(terms)
    return abs(exact_sum(scaled)) <= 1e-12 * exact_sum(np.abs(scaled))


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
        c = a - _wide_sum(a, "covariate a") / n
        c = c - _wide_sum(c, "centered covariate a") / n
    elif kind == "b_orthogonal":
        # The projection does not depend on the scale of b.  Scaled by
        # _unit_scaled, a * b cannot overflow and b * b cannot underflow.
        b = _unit_scaled(s.b)[0] if s.b is not None else np.zeros(n)
        bb = _wide_sum(b * b, "covariate b squared")
        c = a - (_wide_sum(a * b, "projection terms") / bb) * b if bb > 0.0 else a.copy()
        if bb > 0.0:
            c = c - (_wide_sum(c * b, "projection terms") / bb) * b
    else:
        raise ValueError(f"unknown constraint kind {kind!r}")
    peak = float(np.max(np.abs(c)))
    if peak <= 1e-12 * max(1.0, float(np.max(np.abs(a)))):
        raise DegenerateDenominatorError(
            "design admits no informative contrast of this kind"
        )
    contrasts = Contrasts(c=c / peak)
    if kind == "sum_zero":
        w = s.w_known if s.w_known is not None else 1.0
        den_terms = contrasts.c * w * a
    else:
        den_terms = contrasts.c * a
    _checked_sum(
        den_terms, "contrast denominator terms", "contrast denominator is numerically zero"
    )
    return contrasts


def preliminary_sqrt(c: Contrasts, s: Sample) -> float | np.ndarray:
    """Explicit start for the square-root mean with known constant weights:

    theta_star = sum c w (x^2 - 1) / sum c w a, requiring sum c = 0 so the
    noise square's bias cancels across observations.
    """
    cv = c.c
    if cv.size != s.n:
        raise ValueError(f"contrast length {cv.size} does not match sample size {s.n}")
    if not c.sums_to_zero:
        raise ConstraintError("contrast coefficients must sum to zero")
    cw = cv if s.w_known is None else cv * s.w_known
    with np.errstate(over="ignore", invalid="ignore"):  # _contrast_ratio raises on non-finite terms
        num_terms = cw * (np.square(s.x) - 1.0)
    return _contrast_ratio(c, num_terms, s.a, s.w_known)


def preliminary_plinear(c: Contrasts, s: Sample) -> float | np.ndarray:
    """Explicit start for the partially linear mean:

    theta_star = sum c x / sum c a, requiring sum c b = 0 so the nonlinear
    term g(theta) drops out regardless of g.
    """
    cv = c.c
    if cv.size != s.n:
        raise ValueError(f"contrast length {cv.size} does not match sample size {s.n}")
    with np.errstate(over="ignore", invalid="ignore"):  # _contrast_ratio raises on non-finite terms
        if s.b is not None and not c.orthogonal_to(s.b):
            raise ConstraintError("contrast coefficients must be orthogonal to b")
        num_terms = cv * s.x
    return _contrast_ratio(c, num_terms, s.a, None)


def preliminary_mm(c, s: Sample) -> float | np.ndarray:
    """Explicit start for the saturation curve:

    theta_star = sum c (a - x) / sum c b x.  Any fixed coefficient vector c
    works; no linear constraint is required.  A 0-d c stands for every index.
    """
    cv = _as_array("c", c, ndim=(0, 1))
    if cv.ndim and cv.size != s.n:
        raise ValueError(f"coefficient length {cv.size} does not match sample size {s.n}")
    if s.b is None:
        raise ValueError("sample carries no b covariate")
    with np.errstate(over="ignore", invalid="ignore"):  # _ratio raises on non-finite terms
        num_terms, den_terms = cv * (s.a - s.x), cv * s.b * s.x
    theta, _ = _ratio(num_terms, den_terms, "coefficient denominator is numerically zero")
    return _finite(theta, "preliminary estimate is not finite")


def mm_closed_form(
    model: RegressionModel, theta_star: float | np.ndarray, s: Sample
) -> float | np.ndarray:
    """Closed-form refinement for the saturation curve:

    theta = sum w a b (a - x) / (1+b t)^3 / sum w a b^2 x / (1+b t)^3,
    with t = theta_star.  Algebraically identical to the weighted one-step
    under the transformed score g_i(t) = 1 + b_i t.
    """
    _check_sample(model, s)
    if model.a is None or model.b is None:
        raise ValueError("model does not carry the a, b covariates this update needs")
    a, b = model.a, model.b
    t = _column(theta_star, s)
    wv = model.values("w", t)
    q3 = _cube(1.0 + b * t)
    theta, _ = _ratio(
        wv * a * b * (a - s.x) / q3, wv * a * np.square(b) * s.x / q3,
        "response-weighted design sum is numerically zero",
    )
    return _finite(theta, "closed-form estimate is not finite")


# --- the preliminary and pipeline tables ---

# The explicit preliminary of each model kind but mm, with the constraint
# its contrasts satisfy.
_CONTRAST_PRELIMINARIES = {
    "sqrt": (preliminary_sqrt, "sum_zero"),
    "plinear": (preliminary_plinear, "b_orthogonal"),
    "linear": (preliminary_plinear, "sum_zero"),
}


def resolve_preliminary(
    model: RegressionModel, design: Sample, coefficients: np.ndarray | None = None
) -> Callable[[Sample], float | np.ndarray]:
    """The model's explicit preliminary estimator, as a function of the sample.

    Its coefficients are the given ones or else the default for the design:
    all ones for mm, default_contrasts (sum-zero for sqrt and linear,
    b-orthogonal for plinear) otherwise.  mm's are frozen here, once, so
    that preliminary_mm takes them without a copy; its all ones are one 0-d
    1.0, whose products are exact, so they hold no vector of length n.
    """
    if model.kind == "mm":
        c = _as_array("c", 1.0 if coefficients is None else coefficients, ndim=(0, 1))
        return lambda s: preliminary_mm(c, s)
    if model.kind not in _CONTRAST_PRELIMINARIES:
        raise ConfigError(f"no explicit preliminary for a {model.kind!r} model")
    estimator, constraint = _CONTRAST_PRELIMINARIES[model.kind]
    if coefficients is None:
        contrasts = default_contrasts(design, constraint)
    else:
        contrasts = Contrasts(coefficients)
    return lambda s: estimator(contrasts, s)


PIPELINES = (
    "one_step_weighted",
    "one_step_factorized",
    "lse_one_step",
    "mm_closed_form",
    "newton_oracle",
)


def check_pipeline(name: str, model_kind: str) -> None:
    """Raise ConfigError unless name is a pipeline that applies to a model of model_kind."""
    if name not in PIPELINES:
        raise ConfigError(f"pipeline must be one of {PIPELINES}, got {name!r}")
    if name == "mm_closed_form" and model_kind != "mm":
        raise ConfigError("the closed-form pipeline applies to the mm model only")


def estimation_sequence(
    model: RegressionModel,
    fam: EstimatingFamily,
    wf: WeightFamily,
    preliminary: Callable[[Sample], float | np.ndarray],
    pipeline: str,
    s: Sample,
    alpha: float,
    out: dict,
    newton_tol: float,
) -> None:
    """The estimator: preliminary, the update named pipeline, then studentize.

    fam and wf are the model's families (to_families).  Fills out with
    theta_star, theta_hat, denominator, d_star, ci_lo and ci_hi, in that
    order: floats for one sample, one value per row for a block.  A step
    that fails raises its EstimationError and leaves the values of the steps
    before it in out.  mm_closed_form and newton_oracle have no single
    Newton denominator and report it as NaN; newton_oracle solves to
    |score| <= newton_tol.  Raises ConfigError as check_pipeline does,
    before any step.
    """
    check_pipeline(pipeline, model.kind)
    out["theta_star"] = theta_star = preliminary(s)
    centering = None
    if pipeline == "one_step_weighted":
        res = one_step_weighted(fam, wf, theta_star, s)
        # its denominator is sum_i h_i(theta_star) M_i'(theta_star, x_i), the
        # studentizer's numerator, so studentize takes it as computed
        centering = res.denominator
    elif pipeline == "one_step_factorized":
        res = one_step_factorized(fam, wf, theta_star, s)
    elif pipeline == "lse_one_step":
        res = lse_one_step(model, theta_star, s)
    elif pipeline == "mm_closed_form":
        res = EstimateResult(theta_star, mm_closed_form(model, theta_star, s), math.nan)
    else:  # newton_oracle
        # its first derivative sum, when it forms one, is the studentizer's
        # numerator too
        theta_hat, centering = _newton_root(fam, wf, theta_star, s, 100, newton_tol)
        res = EstimateResult(theta_star, theta_hat, math.nan)
    out["theta_hat"], out["denominator"] = res.theta_hat, res.denominator
    out["d_star"], (out["ci_lo"], out["ci_hi"]) = studentize(
        fam, wf, theta_star, res.theta_hat, s, alpha, centering=centering
    )
