"""Data model and evaluation layer for weighted estimating equations.

The central objects are a fixed-design sample, a family of per-observation
estimating functions M_i(t, x) with derivatives in t, a family of
parameter-dependent weights h_i(t), and a moment provider giving
E M_i^2(t, X_i) and E M_i'(t, X_i) for variance work.

Each family is defined by vector evaluators that give every index at once
(m_terms, h_values, e_m2_values, ...); the per-index accessors (fam.m,
wf.h, mp.e_m2, ...) read entry i of those vectors.  A family may instead be
built from per-index callables alone, which the *_values functions here
evaluate index by index.

All reductions over observations go through exact_sum, which returns the
correctly rounded exact sum and is therefore bitwise equal to math.fsum.
That makes every score sum reproducible bitwise under permutation of the
observation indices and under any chunked or threaded evaluation order,
which the simulation harness relies on.

A SampleBlock stacks B samples of one design as the rows of a (B, n)
matrix.  The estimators that accept one take a (B,) parameter vector,
evaluate the families at it as a (B, 1) column, and sum row by row, so each
row's result is bitwise what the same call gives on that row's Sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import DegenerateDenominatorError, DegenerateError, DomainError, NonFiniteError

__all__ = [
    "FULL_LINE",
    "Interval",
    "Sample",
    "SampleBlock",
    "EstimatingFamily",
    "WeightFamily",
    "MomentProvider",
    "score_sums",
    "asymptotic_moments",
    "weight_values",
    "weight_prime_values",
    "m_values",
    "m_prime_values",
    "moment_values",
    "degeneracy_tolerance",
    "exact_sum",
]

# Scale factor for relative degeneracy checks on signed sums.
DEGENERACY_SCALE = 1e-12

# Below this many terms (in all, for a block) math.fsum over Python lists
# beats the vectorized extraction in exact_sum, whose fixed cost is eight
# numpy calls per round.
# Measured on x86-64 with numpy 2.4 over score-term vectors: the two paths cost
# the same near 750 terms; at 1024 the vectorized one takes 0.68 of the time.
_VECTOR_SUM_MIN_TERMS = 1024


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi).  Either bound may be infinite."""

    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi) or not self.lo < self.hi:
            raise ValueError(f"invalid interval ({self.lo}, {self.hi})")

    def contains(self, t: float) -> bool:
        return self.lo < t < self.hi


FULL_LINE = Interval()


def _as_array(
    name: str, values, *, n: int | None = None, ndim: int = 1, positive: bool = False
) -> np.ndarray:
    """values as a validated, copied and read-only float64 array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {('one', 'two')[ndim - 1]}-dimensional")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if n is not None and arr.shape[-1] != n:
        raise ValueError(f"{name} has length {arr.shape[-1]}, expected {n}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    if positive and np.any(arr <= 0.0):
        raise ValueError(f"{name} entries must be strictly positive")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _freeze_design(obj, n: int) -> None:
    """Validate, copy and freeze the covariates a, b and w_known of obj."""
    object.__setattr__(obj, "a", _as_array("a", obj.a, n=n))
    if obj.b is not None:
        object.__setattr__(obj, "b", _as_array("b", obj.b, n=n))
    if obj.w_known is not None:
        object.__setattr__(obj, "w_known", _as_array("w_known", obj.w_known, n=n, positive=True))


@dataclass(frozen=True)
class Sample:
    """Observed responses with their fixed design covariates.

    x is required; a holds the primary covariate, b an optional secondary
    covariate, and w_known optional strictly positive known variance weights.
    All arrays are validated, copied, and frozen read-only.
    """

    x: np.ndarray
    a: np.ndarray
    b: np.ndarray | None = None
    w_known: np.ndarray | None = None

    def __post_init__(self) -> None:
        x = _as_array("x", self.x)
        object.__setattr__(self, "x", x)
        _freeze_design(self, x.size)

    @property
    def n(self) -> int:
        return int(self.x.size)


class SampleBlock:
    """B samples of one fixed design: row r of x holds the responses of sample r.

    x has shape (B, n); a, b and w_known are shared by every row and are
    validated, copied and frozen as in Sample.  A plain class, unlike
    Sample, because building a dataclass costs a millisecond at import.
    """

    __slots__ = ("x", "a", "b", "w_known")

    def __init__(self, x, a, b=None, w_known=None) -> None:
        self.x = _as_array("x", x, ndim=2)
        self.a, self.b, self.w_known = a, b, w_known
        _freeze_design(self, self.x.shape[1])

    @property
    def n(self) -> int:
        return int(self.x.shape[1])

    @property
    def rows(self) -> int:
        return int(self.x.shape[0])

    def sample(self, r: int) -> Sample:
        """Row r as a Sample."""
        return Sample(x=self.x[r], a=self.a, b=self.b, w_known=self.w_known)


def _column(t, s: Sample | SampleBlock):
    """The parameter as the evaluators take it: t for a Sample, a (B, 1) column for a block."""
    if isinstance(s, SampleBlock):
        t = np.asarray(t, dtype=np.float64)
        if t.shape != (s.rows,):
            raise ValueError(f"a block of {s.rows} rows needs a ({s.rows},) parameter vector")
        return t[:, None]
    return t


def _entry(values, i: int, *args) -> float:
    """Entry i of values(*args): the per-index accessor of a vector evaluator."""
    vals = np.asarray(values(*args), dtype=np.float64)
    return float(vals[i] if vals.ndim else vals)


def _index_accessors(family, *pairs: tuple[str, str], optional: str = "") -> None:
    """Set each (scalar, vector) accessor of family to entry i of its vector evaluator.

    A scalar the caller gave is kept, and one derived before (as when
    dataclasses.replace swaps the vector evaluator) is derived again.
    """
    for scalar, vector in pairs:
        given, values = getattr(family, scalar), getattr(family, vector)
        derived = isinstance(given, partial) and given.func is _entry
        if values is not None and (given is None or derived):
            object.__setattr__(family, scalar, partial(_entry, values))
        elif given is None and scalar != optional:
            raise ValueError(f"{type(family).__name__} needs {vector} or {scalar}")


@dataclass(frozen=True)
class EstimatingFamily:
    """Per-observation estimating functions M_i(t, x) and their t-derivatives.

    m_terms(t, xs) and m_prime_terms(t, xs) define the family: they evaluate
    every index at once against the responses xs (a vector, or a (B, n)
    block with t a (B, 1) column), broadcasting over a scalar x too.  m and
    m_prime are the per-index accessors (index, parameter, response), which
    read entry i of those vectors.  A family built from m and m_prime alone
    is evaluated index by index.
    """

    m: Callable[[int, float, float], float] | None = None
    m_prime: Callable[[int, float, float], float] | None = None
    domain: Interval = FULL_LINE
    m_terms: Callable[[float, np.ndarray], np.ndarray] | None = None
    m_prime_terms: Callable[[float, np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        _index_accessors(self, ("m", "m_terms"), ("m_prime", "m_prime_terms"))


@dataclass(frozen=True)
class WeightFamily:
    """Parameter-dependent weights h_i(t), optionally with derivatives.

    h_values(t) and h_prime_values(t) define the family, one value per
    index; h and h_prime are the per-index accessors (index, parameter),
    which read entry i of those vectors, or define a family given by them
    alone.  h_prime is the analytic derivative of h when available.
    Adapters that fall back to a finite-difference derivative mark it by
    setting h_prime_exact to False so downstream consumers can surface a
    warning.
    """

    h: Callable[[int, float], float] | None = None
    h_prime: Callable[[int, float], float] | None = None
    domain: Interval = FULL_LINE
    h_values: Callable[[float], np.ndarray] | None = None
    h_prime_values: Callable[[float], np.ndarray] | None = None
    h_prime_exact: bool = True

    def __post_init__(self) -> None:
        _index_accessors(self, ("h", "h_values"), ("h_prime", "h_prime_values"), optional="h_prime")


@dataclass(frozen=True)
class MomentProvider:
    """Supplies E M_i^2(t, X_i) >= 0 and E M_i'(t, X_i) for each index.

    As in the families, the *_values evaluators define it and e_m2 and
    e_mprime read one index, or define it alone.
    """

    e_m2: Callable[[int, float], float] | None = None
    e_mprime: Callable[[int, float], float] | None = None
    e_m2_values: Callable[[float], np.ndarray] | None = None
    e_mprime_values: Callable[[float], np.ndarray] | None = None

    def __post_init__(self) -> None:
        _index_accessors(self, ("e_m2", "e_m2_values"), ("e_mprime", "e_mprime_values"))


def _require_in_domain(t, domain: Interval) -> None:
    """Raise unless t (a float, or an array of parameter values) lies inside domain."""
    if isinstance(t, np.ndarray):
        if not _all_finite(t):
            raise NonFiniteError("a parameter value is not finite")
        if not np.all((domain.lo < t) & (t < domain.hi)):
            raise DomainError(f"a parameter value lies outside domain ({domain.lo}, {domain.hi})")
        return
    if math.isnan(t) or math.isinf(t):
        raise NonFiniteError(f"parameter value {t!r} is not finite")
    if not domain.contains(t):
        raise DomainError(f"parameter {t!r} outside domain ({domain.lo}, {domain.hi})")


def _all_finite(values) -> bool:
    return bool(np.isfinite(values).all())


def _require_finite(name: str, terms: np.ndarray) -> None:
    if not _all_finite(terms):
        raise NonFiniteError(f"non-finite value in {name}")


def _evaluate(vector, scalar, n: int, t, xs=None) -> np.ndarray:
    """vector(t), or vector(t, xs), as float64; without a vector evaluator,
    scalar(i, t), or scalar(i, t, xs[i]), at every index i < n.

    The one bridge from per-index callables to vectors.  Raises ValueError
    when a vector evaluator gives other than n values per row, except that
    one evaluated against responses may give a single value for all.
    """
    if vector is None:
        if xs is None:
            items = (scalar(i, t) for i in range(n))
        else:
            items = (scalar(i, t, x) for i, x in enumerate(xs))
        return np.fromiter(items, dtype=np.float64, count=n)
    vals = np.asarray(vector(t) if xs is None else vector(t, xs), dtype=np.float64)
    width = vals.shape[-1] if vals.ndim > 1 else vals.size  # per row of a block
    if width != n and (vals.ndim or xs is None):
        raise ValueError(f"a vector evaluator returned {width} values, expected {n}")
    return vals


def weight_values(wf: WeightFamily, t: float, n: int) -> np.ndarray:
    """Evaluate h_i(t) for i = 0..n-1 as a float64 vector (rows of it for a (B, 1) t)."""
    return _evaluate(wf.h_values, wf.h, n, t)


def weight_prime_values(wf: WeightFamily, t: float, n: int) -> np.ndarray:
    """Evaluate h_i'(t) for i = 0..n-1; requires the family to carry it."""
    if wf.h_prime is None:
        raise ValueError("weight family carries no derivative")
    return _evaluate(wf.h_prime_values, wf.h_prime, n, t)


def m_values(fam: EstimatingFamily, t: float, xs: np.ndarray) -> np.ndarray:
    """Evaluate M_i(t, x_i) across the sample."""
    return _evaluate(fam.m_terms, fam.m, xs.shape[-1], t, xs)


def m_prime_values(fam: EstimatingFamily, t: float, xs: np.ndarray) -> np.ndarray:
    """Evaluate M_i'(t, x_i) across the sample."""
    vals = _evaluate(fam.m_prime_terms, fam.m_prime, xs.shape[-1], t, xs)
    if vals.ndim == 0:
        vals = np.full(xs.shape, float(vals))
    return vals


def moment_values(mp: MomentProvider, theta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (E M_i^2, E M_i') vectors at theta."""
    e2 = _evaluate(mp.e_m2_values, mp.e_m2, n, theta)
    ed = _evaluate(mp.e_mprime_values, mp.e_mprime, n, theta)
    _require_finite("second moments", e2)
    _require_finite("derivative moments", ed)
    if np.any(e2 < 0.0):
        raise ValueError("E M^2 must be nonnegative")
    return e2, ed


def exact_sum(values):
    """Correctly rounded sum of float64 values, bitwise equal to math.fsum.

    A 2-D array gives one such sum per row, as a float64 vector; any other
    input is summed as one flat vector, the one-row case, and gives a float.

    Fewer than _VECTOR_SUM_MIN_TERMS values in all go to math.fsum as lists.
    More are split by error-free extraction (Rump, Ogita and Oishi,
    "Accurate floating-point summation", SIAM J. Sci. Comput. 2008): with
    sigma a power of two at least 2(n+1) times max|p| over the whole block,
    each q = (sigma + p) - sigma is a multiple of 2**-53 sigma and p - q is
    exact, so numpy sums the q of a row exactly in any order.  One sigma
    serves every row, since it bounds each row's peak.  Repeating on the
    residual p - q until it vanishes leaves a few exact partial sums per
    row: one is the sum, two are rounded by one IEEE add, more by math.fsum.

    Each round takes at least 53 - lg bits off sigma, lg = n.bit_length() + 1;
    the first residual lies within 2**-53 sigma, so the second round takes
    its sigma from that bound and only the other rounds measure the peak.
    Rows of like scale need two rounds and a last look at the residual.
    Rows whose magnitudes lie 2**e apart cost about e / (53 - lg) rounds
    more, fewer where the peak skips a gap: the smaller rows wait, unchanged,
    until the peak comes down to them.  Rows with non-finite values or
    magnitudes near overflow, rows still nonzero once the peak is deep in the
    subnormals, and rows whose sum is zero go to math.fsum as they are, so
    its exceptions, NaN/inf results and signed zeros hold.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        v = v.ravel()
        if v.size < _VECTOR_SUM_MIN_TERMS:
            return math.fsum(v.tolist())
        return float(_extracted_sums(v[None, :])[0])
    if v.size < _VECTOR_SUM_MIN_TERMS:
        return np.array([math.fsum(row) for row in v.tolist()], dtype=np.float64)
    return _extracted_sums(v)


def _extracted_sums(v: np.ndarray) -> np.ndarray:
    """exact_sum of each row of a nonempty (B, n) block, by extraction with one sigma per round."""
    rows, n = v.shape
    lg = n.bit_length() + 1
    parts: list[np.ndarray] = []  # one exact partial sum per row and round
    slow = None  # rows left to math.fsum, once there are any
    p = v
    q = np.empty_like(v)
    k = None  # the next sigma's exponent, when known without a pass over p
    while True:
        if k is None:
            peak = max(float(p.max()), -float(p.min()))
            if peak == 0.0:
                break
            k = math.frexp(peak)[1] + lg
            if not math.isfinite(peak) or k > 1022:
                # only the first round can see these rows: set them aside as zeros
                row_peak = np.maximum(p.max(axis=1), -p.min(axis=1))
                slow = ~np.isfinite(row_peak) | (np.frexp(row_peak)[1] + lg > 1022)
                p = p.copy()  # the caller's values stay intact
                p[slow] = 0.0
                k = None
                continue
            if k < -1021:
                tiny = (p != 0.0).any(axis=1)
                slow = tiny if slow is None else slow | tiny
                break
        sigma = math.ldexp(1.0, k)
        np.add(p, sigma, out=q)
        np.subtract(q, sigma, out=q)
        parts.append(q.sum(axis=1))
        # the first residual is a new array, so the caller's values stay intact
        p = p - q if p is v else np.subtract(p, q, out=p)
        # the first residual lies within 2**-53 sigma, which bounds the
        # second round's sigma without a pass over it
        k = k - 53 + lg if len(parts) == 1 and k - 53 + lg >= -1021 else None
    if len(parts) > 2:
        out = np.array([math.fsum(row) for row in np.stack(parts, axis=1).tolist()])
    elif parts:
        out = parts[0] + parts[1] if len(parts) == 2 else parts[0]
    else:
        out = np.zeros(rows)
    if slow is not None or np.count_nonzero(out) < rows:
        redo = out == 0.0 if slow is None else slow | (out == 0.0)
        for r in np.flatnonzero(redo).tolist():
            out[r] = math.fsum(v[r].tolist())
    return out


def degeneracy_tolerance(terms: np.ndarray, total=None):
    """Relative tolerance below which a signed sum of these terms counts as zero.

    It is DEGENERACY_SCALE * (1 + exact_sum(|terms|)), one value per row of a
    2-D array.  total, the exact sum of terms, spares that second sum for
    every row whose terms share one sign, where |total| equals it bit for bit.
    """
    terms = np.asarray(terms, dtype=np.float64)
    if total is None:
        return DEGENERACY_SCALE * (1.0 + exact_sum(np.abs(terms)))
    mixed = (terms.min(axis=-1) < 0.0) & (terms.max(axis=-1) > 0.0)
    if terms.ndim < 2:
        size = exact_sum(np.abs(terms)) if mixed else abs(total)
    else:
        size = np.abs(total)
        if mixed.any():
            size[mixed] = exact_sum(np.abs(terms[mixed]))
    return DEGENERACY_SCALE * (1.0 + size)


def _vanishes(total, terms: np.ndarray) -> bool:
    """Whether an exact sum of terms (any row's, for a block) counts as zero."""
    return bool(np.any(abs(total) <= degeneracy_tolerance(terms, total)))


def _ratio(num_terms, den_terms, degenerate: str,
           names: tuple[str, str] = ("numerator terms", "denominator terms")):
    """(exact sum of num_terms / exact sum of den_terms, the latter sum).

    Every one-step update and explicit preliminary divides two such sums
    (one per row of a block).  Raises NonFiniteError naming names[0] or
    names[1] when a term is not finite, and DegenerateDenominatorError with
    the message degenerate, formatted with the denominator, when the
    denominator vanishes against its terms.
    """
    _require_finite(names[0], num_terms)
    _require_finite(names[1], den_terms)
    den = exact_sum(den_terms)
    if _vanishes(den, den_terms):
        raise DegenerateDenominatorError(degenerate.format(den))
    return exact_sum(num_terms) / den, den


def _finite(value, message: str, error: type[Exception] = NonFiniteError):
    """value (a float, or one per row of a block), unless any of it is not finite."""
    if not _all_finite(value):
        raise error(message)
    return value


def _score_terms(fam: EstimatingFamily, wf: WeightFamily, t, s: Sample | SampleBlock):
    """The terms h_i(t) M_i(t, x_i) and h_i(t) M_i'(t, x_i), t checked against both domains."""
    _require_in_domain(t, fam.domain)
    _require_in_domain(t, wf.domain)
    h = weight_values(wf, t, s.n)
    return h * m_values(fam, t, s.x), h * m_prime_values(fam, t, s.x)


def score_sums(
    fam: EstimatingFamily, wf: WeightFamily, t: float, s: Sample
) -> tuple[float, float]:
    """Weighted score sum and its t-derivative sum at t.

    Returns (sum_i h_i(t) M_i(t, x_i), sum_i h_i(t) M_i'(t, x_i)).  Both
    reductions are exact (correctly rounded), hence invariant bitwise under
    permutation of the observation indices.

    Raises DomainError if t is outside either family's domain and
    NonFiniteError if any term fails to be finite.
    """
    num_terms, den_terms = _score_terms(fam, wf, t, s)
    _require_finite("score terms", num_terms)
    _require_finite("score derivative terms", den_terms)
    return exact_sum(num_terms), exact_sum(den_terms)


def asymptotic_moments(
    mp: MomentProvider, wf: WeightFamily, theta: float, n: int
) -> tuple[float, float]:
    """Variance and centering sums (I, J) of the weighted estimating equation.

    I = sum_i h_i(theta)^2 E M_i^2(theta, X_i),
    J = sum_i h_i(theta) E M_i'(theta, X_i).

    The ratio I / J^2 is the asymptotic variance of the normalized estimator
    and is invariant under rescaling every h_i by the same nonzero constant.

    Raises DegenerateError when I vanishes or J is numerically zero.
    """
    _require_in_domain(theta, wf.domain)
    if n < 1:
        raise ValueError("n must be at least 1")
    h = weight_values(wf, theta, n)
    _require_finite("weights", h)
    return _moment_sums(h, *moment_values(mp, theta, n))


def _moment_sums(h: np.ndarray, e2: np.ndarray, ed: np.ndarray) -> tuple[float, float]:
    """I = sum_i h_i^2 E M_i^2 and J = sum_i h_i E M_i', unless either vanishes."""
    i_terms = h * h * e2
    j_terms = h * ed
    i_nh = exact_sum(i_terms)
    j_nh = exact_sum(j_terms)
    if i_nh <= 0.0:
        raise DegenerateError("variance sum I is zero")
    if _vanishes(j_nh, j_terms):
        raise DegenerateError("centering sum J is numerically zero")
    return i_nh, j_nh
