"""One-step estimators, studentization, weight optimality, and a root oracle.

A one-step estimator takes a preliminary value theta_star and performs a
single Newton update of the weighted estimating equation, with the weights
frozen at theta_star.  Its asymptotic variance is I/J^2 from
core.asymptotic_moments; the studentizer removes the unknown moments so
confidence intervals need no variance plug-in.

one_step_weighted, one_step_factorized, studentize and newton_solve also
take a block, a Sample whose x has B rows, with a (B,) parameter vector and
return one value per row, each bitwise what the call gives on that row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FULL_LINE,
    EstimatingFamily,
    MomentProvider,
    Sample,
    WeightFamily,
    _checked_sum,
    _column,
    _finite,
    _moment_sums,
    _ratio,
    _require_finite,
    _require_in_domain,
    _score_terms,
    m_prime_values,
    m_values,
    moment_values,
    weight_prime_values,
    weight_values,
)
from .errors import (
    DegenerateDenominatorError,
    DegenerateError,
    DomainError,
    NoConvergenceError,
    SignMismatchError,
    ZeroVarianceError,
)
from .normal import normal_quantile

__all__ = [
    "EstimateResult",
    "one_step_weighted",
    "one_step_factorized",
    "studentize",
    "optimal_weights",
    "efficiency_ratio",
    "newton_solve",
    "unit_weights",
]

# Sums of squares at or below this are treated as an exact zero.  A sum of
# squares cannot cancel, so any genuinely nonzero residual clears this floor,
# while a perfect fit (all terms zero) does not.
VARIANCE_FLOOR = 1e-300

MAX_HALVINGS = 50


@dataclass(frozen=True)
class EstimateResult:
    """A one-step estimate with the quantities needed to report it.

    denominator is the Newton denominator actually used by the producing
    operation (sign convention follows that operation's update formula).
    """

    theta_star: float
    theta_hat: float
    denominator: float


def unit_weights() -> WeightFamily:
    """The constant weight family h_i(t) = 1."""
    return WeightFamily(h_values=lambda t: 1.0, h_prime_values=lambda t: 0.0)


def _newton_update(
    theta_star: float, num_terms: np.ndarray, den_terms: np.ndarray,
    degenerate: str = "one-step denominator {!r} is numerically zero",
    names: tuple[str, str] = ("score terms", "score derivative terms"),
) -> EstimateResult:
    """theta_star - sum num_terms / sum den_terms, checked: the end of every one-step update."""
    ratio, den = _ratio(num_terms, den_terms, degenerate, names)
    theta_hat = _finite(
        theta_star - ratio, "one-step update is not finite", DegenerateDenominatorError
    )
    return EstimateResult(theta_star=theta_star, theta_hat=theta_hat, denominator=den)


def one_step_weighted(
    fam: EstimatingFamily, wf: WeightFamily, theta_star: float | np.ndarray, s: Sample
) -> EstimateResult:
    """Single Newton step on sum_i h_i(t) M_i(t, x_i), weights frozen at theta_star.

    theta_hat = theta_star - sum h_i M_i / sum h_i M_i', both sums at
    theta_star.  Invariant under h -> c h for any c != 0.
    """
    num_terms, den_terms = _score_terms(fam, wf, _column(theta_star, s), s)
    return _newton_update(theta_star, num_terms, den_terms)


def one_step_factorized(
    fam: EstimatingFamily, wf: WeightFamily, theta_star: float | np.ndarray, s: Sample
) -> EstimateResult:
    """One-step variant whose denominator differentiates the weights too.

    theta_hat = theta_star - sum h_i M_i / (sum h_i M_i' + sum h_i' M_i).
    Raises MissingDerivativeError unless the weight family carries its
    derivative.
    """
    t = _column(theta_star, s)
    _require_in_domain(t, fam.domain)
    hp = weight_prime_values(wf, t, s.n)
    h = weight_values(wf, t, s.n)
    m = m_values(fam, t, s.x)
    num_terms = h * m
    # both halves h M' and h' M in one array, for one exact sum per row
    den_terms = np.empty(s.x.shape[:-1] + (2 * s.n,))
    np.multiply(h, m_prime_values(fam, t, s.x), out=den_terms[..., :s.n])
    np.multiply(hp, m, out=den_terms[..., s.n:])
    return _newton_update(theta_star, num_terms, den_terms)


def studentize(
    fam: EstimatingFamily,
    wf: WeightFamily,
    theta_star: float | np.ndarray,
    theta_hat: float | np.ndarray,
    s: Sample,
    alpha: float = 0.05,
    *,
    centering: float | np.ndarray | None = None,
) -> tuple[float, tuple[float, float]]:
    """Self-normalizing statistic d_star and a level (1 - alpha) interval.

    d_star = sum_i h_i(theta_star) M_i'(theta_star, x_i)
             / sqrt(sum_i h_i(theta_hat)^2 M_i(theta_hat, x_i)^2).

    The numerator is evaluated at the preliminary point, the denominator at
    the one-step point.  d_star * (theta_hat - theta) is asymptotically
    standard normal, so the interval is theta_hat -+ z_{1-alpha/2} / |d_star|.

    centering, when given, is that numerator as one_step_weighted's
    denominator, or the first score derivative sum of newton_solve started
    at theta_star, from the same fam, wf and s: the same exact sum of the
    same terms, already checked to be finite and not to vanish.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    t_star, t_hat = _column(theta_star, s), _column(theta_hat, s)
    for t in (t_star, t_hat) if centering is None else (t_hat,):
        _require_in_domain(t, fam.domain)
    if centering is None:
        centering = _checked_sum(
            weight_values(wf, t_star, s.n) * m_prime_values(fam, t_star, s.x),
            "studentizer numerator terms", "studentizer centering sum is numerically zero",
        )
    ssq = _checked_sum(
        np.square(weight_values(wf, t_hat, s.n) * m_values(fam, t_hat, s.x)),
        "studentizer variance terms",
    )
    if np.any(ssq <= VARIANCE_FLOOR):
        raise DegenerateDenominatorError("studentizer variance sum is zero")
    # math.sqrt keeps a single sample's d_star a float; both are correctly rounded
    d_star = centering / (np.sqrt(ssq) if isinstance(ssq, np.ndarray) else math.sqrt(ssq))
    half = normal_quantile(1.0 - 0.5 * alpha) / abs(d_star)
    return d_star, (theta_hat - half, theta_hat + half)


def optimal_weights(mp: MomentProvider, theta: float, n: int) -> WeightFamily:
    """Variance-minimizing weights h_i = E M_i'(theta) / E M_i^2(theta).

    The returned family is constant in t (frozen at theta), with an exactly
    zero derivative.  Raises ZeroVarianceError if any second moment vanishes.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    e2, ed = moment_values(mp, theta, n)
    if np.any(e2 == 0.0):
        raise ZeroVarianceError("optimal weights undefined where E M^2 = 0")
    ho = ed / e2
    ho.flags.writeable = False
    return WeightFamily(h_values=lambda t: ho, h_prime_values=lambda t: 0.0)


def efficiency_ratio(
    wf: WeightFamily, mp: MomentProvider, theta: float, n: int
) -> tuple[float, float]:
    """Variance ratio of a weight family against the optimal family, with bound.

    ratio = (I_h / J_h^2) / (I_opt / J_opt^2) >= 1, where the optimal variance
    is (sum_i (E M_i')^2 / E M_i^2)^-1.

    bound = 1 + (sqrt(H/h) - 1)^2 / (2 sqrt(H/h)) with h and H the smallest
    and largest of h_i(theta) / h_opt_i(theta) over indices with E M_i' != 0.
    Note the provable guarantee is ratio <= bound^2; ratio <= bound itself
    can fail (see the test suite for a two-point counterexample).

    The ratio is invariant under a global sign flip of the weights, so a
    family whose ratios are all negative is flipped before the sign check;
    mixed signs raise SignMismatchError.  theta that is not finite raises
    NonFiniteError; a model's evaluators check its domain.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _require_in_domain(theta, FULL_LINE)
    h = weight_values(wf, theta, n)
    _require_finite("weights", h)
    e2, ed = moment_values(mp, theta, n)
    if np.any(e2 == 0.0):
        raise ZeroVarianceError("optimal weights undefined where E M^2 = 0")
    active = ed != 0.0
    if not np.any(active):
        raise DegenerateError("every E M_i' is zero; no information at theta")
    ratios = h[active] * e2[active] / ed[active]
    if np.all(ratios < 0.0):
        ratios = -ratios
    elif not np.all(ratios > 0.0):
        raise SignMismatchError(
            "weight signs do not match the optimal weight signs at every index"
        )
    i_nh, j_nh = _moment_sums(h, e2, ed)
    quality = _checked_sum(ed[active] * ed[active] / e2[active], "information terms")
    ratio = (i_nh / (j_nh * j_nh)) * quality
    spread = float(np.max(ratios) / np.min(ratios))
    root = math.sqrt(spread)
    bound = 1.0 + (root - 1.0) ** 2 / (2.0 * root)
    return ratio, bound


def newton_solve(
    fam: EstimatingFamily,
    wf: WeightFamily,
    theta_start: float | np.ndarray,
    s: Sample,
    max_iter: int = 100,
    tol: float = 1e-10,
) -> float | np.ndarray:
    """Damped Newton root of the weighted score with weights frozen at the start.

    Solves sum_i h_i(theta_start) M_i(t, x_i) = 0 for t, halving each Newton
    step (at most 50 times) until the absolute score decreases and the
    iterate stays inside fam's domain.  Returns t with |score(t)| <= tol.
    A block is solved row by row, since rows take different numbers of steps.

    Raises NoConvergenceError when the budget is exhausted and
    DegenerateDenominatorError when the score derivative is numerically zero.
    """
    return _newton_root(fam, wf, theta_start, s, max_iter, tol)[0]


def _newton_root(
    fam: EstimatingFamily, wf: WeightFamily, theta_start, s: Sample, max_iter: int, tol: float,
):
    """(newton_solve's root, its first score derivative sum), one of each per row of a block.

    That derivative sum is sum_i h_i(theta_start) M_i'(theta_start, x_i),
    studentize's centering, checked as studentize checks it.  It is None
    for a row whose score already vanishes at its start, where no
    derivative is formed, and for a block that holds such a row.
    """
    if s.x.ndim == 2:
        starts = _column(theta_start, s)[:, 0].tolist()
        solved = [
            _newton_root(fam, wf, start, Sample(row, s.a, s.b, s.w_known), max_iter, tol)
            for row, start in zip(s.x, starts)
        ]
        roots = np.array([root for root, _ in solved])
        firsts = [first for _, first in solved]
        return roots, None if None in firsts else np.array(firsts)
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    _require_in_domain(theta_start, fam.domain)
    h = weight_values(wf, theta_start, s.n)
    _require_finite("weights", h)

    def score(t: float) -> float:
        return _checked_sum(h * m_values(fam, t, s.x), "score terms")

    t = float(theta_start)
    g = score(t)
    first = None
    for _ in range(max_iter):
        if abs(g) <= tol:
            return t, first
        der = _checked_sum(
            h * m_prime_values(fam, t, s.x), "score derivative terms",
            "score derivative is numerically zero",
        )
        if first is None:
            first = der
        step = g / der
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            candidate = t - step
            if fam.domain.contains(candidate):
                g_cand = score(candidate)
                if abs(g_cand) < abs(g):
                    t, g = candidate, g_cand
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            raise NoConvergenceError(
                "damped step failed to decrease the score within 50 halvings"
            )
    if abs(g) <= tol:
        return t, first
    raise NoConvergenceError(f"no root located within {max_iter} iterations")
