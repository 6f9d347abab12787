"""Data model and evaluation layer for weighted estimating equations.

The central objects are a fixed-design sample, a family of per-observation
estimating functions M_i(t, x) with derivatives in t, a family of
parameter-dependent weights h_i(t), and a moment provider giving
E M_i^2(t, X_i) and E M_i'(t, X_i) for variance work.

Each family is defined by vector evaluators that give every index at once
(m_terms, h_values, e_m2_values, ...).  An evaluator returns n values per
row, or one 0-d value that stands for every index (see _evaluate).

All reductions over observations go through exact_sum, which returns the
correctly rounded exact sum and is therefore bitwise equal to math.fsum.
That makes every score sum reproducible bitwise under permutation of the
observation indices and under any chunked or threaded evaluation order,
which the simulation harness relies on.

A Sample whose responses x form a (B, n) matrix is a block: B samples of
one design, one per row.  The estimators that accept one take a (B,)
parameter vector, evaluate the families at it as a (B, 1) column, and sum
row by row, so each row's result is bitwise what the same call gives on the
Sample of that row alone.

run_forked is the one way work is spread over processes, for `onestep
simulate`'s campaign and `onestep estimate`'s CSV reader alike: it calls
the first of its calls itself and each other one in a child made with
os.fork, which sends back a float64 array through a pipe.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DegenerateError,
    DomainError,
    MissingDerivativeError,
    NonFiniteError,
)

__all__ = [
    "FULL_LINE",
    "Interval",
    "Sample",
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
    name: str, values, *, n: int | None = None, ndim: tuple[int, ...] = (1,),
    positive: bool = False,
) -> np.ndarray:
    """values as a validated, read-only float64 array, copied unless already frozen.

    Every check runs either way.  An array that _frozen vouches for is kept
    as it is; anything else (a list, a writable array, a view of one, an
    array over a bytearray) is copied and the copy made read-only, so no
    later write by the caller reaches the result.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in ndim:
        allowed = " or ".join(f"{('zero', 'one', 'two')[k]}-dimensional" for k in ndim)
        raise ValueError(f"{name} must be {allowed}, got {arr.ndim} dimensions")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if n is not None and arr.shape[-1] != n:
        raise ValueError(f"{name} has length {arr.shape[-1]}, expected {n}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    if positive and np.any(arr <= 0.0):
        raise ValueError(f"{name} entries must be strictly positive")
    if not _frozen(arr):
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


def _frozen(arr: np.ndarray) -> bool:
    """Whether arr is C-contiguous and read-only, and no writable memory backs it.

    That is, arr owns its data or views a read-only array that owns its own.
    """
    if arr.flags.writeable or not arr.flags.c_contiguous:
        return False
    owner = arr if arr.base is None else arr.base
    return isinstance(owner, np.ndarray) and owner.flags.owndata and not owner.flags.writeable


@dataclass(frozen=True)
class Sample:
    """Observed responses with their fixed design covariates.

    x holds the (n,) responses of one sample, or a (B, n) block whose rows
    are B samples of one design; a holds the primary covariate, b an
    optional secondary covariate, and w_known optional strictly positive
    known variance weights, each of length n and shared by every row.  All
    arrays are validated and frozen read-only: copied unless already frozen
    (core._as_array), so a row of a frozen block passes as it is.
    """

    x: np.ndarray
    a: np.ndarray
    b: np.ndarray | None = None
    w_known: np.ndarray | None = None

    def __post_init__(self) -> None:
        x = _as_array("x", self.x, ndim=(1, 2))
        n = x.shape[-1]
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "a", _as_array("a", self.a, n=n))
        if self.b is not None:
            object.__setattr__(self, "b", _as_array("b", self.b, n=n))
        if self.w_known is not None:
            object.__setattr__(
                self, "w_known", _as_array("w_known", self.w_known, n=n, positive=True)
            )

    @property
    def n(self) -> int:
        return int(self.x.shape[-1])


def _column(t, s: Sample):
    """The parameter as the evaluators take it: t for one sample, a (B, 1) column for a block."""
    if s.x.ndim == 2:
        rows = s.x.shape[0]
        t = np.asarray(t, dtype=np.float64)
        if t.shape != (rows,):
            raise ValueError(f"a block of {rows} rows needs a ({rows},) parameter vector")
        return t[:, None]
    return t


@dataclass(frozen=True)
class EstimatingFamily:
    """Per-observation estimating functions M_i(t, x) and their t-derivatives.

    m_terms(t, xs) and m_prime_terms(t, xs) evaluate every index at once
    against the responses xs (a vector, or a (B, n) block with t a (B, 1)
    column).  domain is the open parameter set of the estimating equation,
    the one domain its updates, studentizer and Newton solver check t
    against; the weights carry none.
    """

    m_terms: Callable[[float, np.ndarray], np.ndarray]
    m_prime_terms: Callable[[float, np.ndarray], np.ndarray]
    domain: Interval = FULL_LINE


@dataclass(frozen=True)
class WeightFamily:
    """Parameter-dependent weights h_i(t), optionally with derivatives.

    h_values(t) and h_prime_values(t) give one value per index.
    h_prime_values is the analytic derivative of h, None when the family
    carries none.  The weights are evaluated only at parameter values the
    estimating family's domain admits.
    """

    h_values: Callable[[float], np.ndarray]
    h_prime_values: Callable[[float], np.ndarray] | None = None


@dataclass(frozen=True)
class MomentProvider:
    """Supplies E M_i^2(t, X_i) >= 0 and E M_i'(t, X_i) for each index."""

    e_m2_values: Callable[[float], np.ndarray]
    e_mprime_values: Callable[[float], np.ndarray]


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


def _extremes(terms: np.ndarray) -> tuple[float, float]:
    """(largest, smallest) of all terms: the one scan of a checked sum.

    A checked sum takes from it its finite check, its first extraction
    sigma (_extracted_sums) and its sign test (_tolerance).  NaN propagates
    through both, so the terms are all finite exactly when these two are.
    Taken over a whole block, not row by row: a row-wise max over a
    (65, 500) block costs twice the block-wide one.
    """
    return float(terms.max()), float(terms.min())


def _finite_extremes(terms: np.ndarray, name: str) -> tuple[float, float]:
    """_extremes(terms), unless a term is not finite: then raises NonFiniteError naming name."""
    top, bottom = _extremes(terms)
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise NonFiniteError(f"non-finite value in {name}")
    return top, bottom


def _evaluate(values, n: int, t, xs=None) -> np.ndarray:
    """values(t), or values(t, xs), as float64 with n values per row.

    Every evaluator's result passes through here.  One with n values per
    row is kept as it is.  A 0-d result stands for every index: it is
    broadcast to the shape of xs, or without responses to shape(t)[:-1] +
    (n,), one row per row of a (B, 1) column t, as a read-only view with
    stride 0 that holds the one value.  Any other width raises ValueError.
    """
    vals = np.asarray(values(t) if xs is None else values(t, xs), dtype=np.float64)
    if vals.ndim == 0:
        return np.broadcast_to(vals, np.shape(t)[:-1] + (n,) if xs is None else xs.shape)
    if vals.shape[-1] != n:
        raise ValueError(f"an evaluator returned {vals.shape[-1]} values per row, expected {n}")
    return vals


def weight_values(wf: WeightFamily, t: float, n: int) -> np.ndarray:
    """Evaluate h_i(t) for i = 0..n-1 as a float64 vector (rows of it for a (B, 1) t)."""
    return _evaluate(wf.h_values, n, t)


def weight_prime_values(wf: WeightFamily, t: float, n: int) -> np.ndarray:
    """Evaluate h_i'(t) for i = 0..n-1.

    Raises MissingDerivativeError when the family carries no derivative.
    """
    if wf.h_prime_values is None:
        raise MissingDerivativeError("weight family carries no derivative")
    return _evaluate(wf.h_prime_values, n, t)


def m_values(fam: EstimatingFamily, t: float, xs: np.ndarray) -> np.ndarray:
    """Evaluate M_i(t, x_i) across the sample."""
    return _evaluate(fam.m_terms, xs.shape[-1], t, xs)


def m_prime_values(fam: EstimatingFamily, t: float, xs: np.ndarray) -> np.ndarray:
    """Evaluate M_i'(t, x_i) across the sample."""
    return _evaluate(fam.m_prime_terms, xs.shape[-1], t, xs)


def moment_values(mp: MomentProvider, theta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (E M_i^2, E M_i') vectors at theta."""
    e2 = _evaluate(mp.e_m2_values, n, theta)
    ed = _evaluate(mp.e_mprime_values, n, theta)
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
    serves every row, since it bounds each row's peak.

    The first round usually settles the block.  Its residual lies within
    2**-53 sigma.  Summed as ceil(sqrt(n))-term blocks and then across them,
    each row misses its exact sum by less than E/2, E = min(L + m, n) n
    2**-104 sigma with L = ceil(sqrt(n)) and m = n // L, in any order inside
    and across the blocks (Blanchard, Higham and Mary, SIAM J. Sci. Comput.
    2020).  TwoSum splits each row's exact part plus that float sum into
    hi + lo exactly; when every row has |lo| + E below half the gap under
    |hi|, hi is each row's correctly rounded sum and the block is done
    (_certified_sums gives the derivation).  A certified sum passes over its
    terms five times after the scan for the extremes: add, subtract and sum
    for the parts, subtract and sum for the residual.  E grows like n**2.5
    against the peak, about 2**-57 of it at n = 200,000, so a sum near or
    below its peak, such as a one-step numerator, certifies there.

    Any other block goes on extracting: a row that cancels to near zero, a
    sum on or near a tie, a zero sum, or rows set aside as below.  Repeating
    on the residual p - q until it vanishes leaves a few exact partial sums
    per row: one is the sum, two are rounded by one IEEE add, more by
    math.fsum.  Each round takes at least 53 - lg bits off sigma,
    lg = n.bit_length() + 1; the second round takes its sigma from the first
    residual's bound and only the other rounds measure the peak.  Rows
    whose magnitudes lie 2**e apart cost about e / (53 - lg) rounds more,
    fewer where the peak skips a gap: the smaller rows wait, unchanged,
    until the peak comes down to them.  Rows with non-finite values or
    magnitudes near overflow, rows still nonzero once the peak is deep in the
    subnormals, and rows whose sum is zero go to math.fsum as they are, so
    its exceptions, NaN/inf results and signed zeros hold.  The caller's
    values are never written.

    The first sigma comes from one scan for the largest and smallest value
    (_extremes); a checked sum (_checked_sum) hands in the scan it made for
    its own checks.
    """
    return _exact_sum(values)


def _exact_sum(values, extremes=None):
    """exact_sum(values), with extremes, when given, the _extremes of values."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        v = v.ravel()
        if v.size < _VECTOR_SUM_MIN_TERMS:
            return math.fsum(v.tolist())
        return float(_extracted_sums(v[None, :], extremes)[0])
    if v.size < _VECTOR_SUM_MIN_TERMS:
        return np.array([math.fsum(row) for row in v.tolist()], dtype=np.float64)
    return _extracted_sums(v, extremes)


def _extracted_sums(v: np.ndarray, extremes=None) -> np.ndarray:
    """exact_sum of each row of a nonempty (B, n) block, by extraction with one sigma per round.

    extremes, when given, are v's _extremes, which spare the first round
    its pass for the peak.
    """
    rows, n = v.shape
    lg = n.bit_length() + 1
    parts: list[np.ndarray] = []  # one exact partial sum per row and round
    slow = None  # rows left to math.fsum, once there are any
    p = v
    q = np.empty_like(v)  # each round's parts, then the first residual
    # the peak magnitude of p, when known without a pass over it, and the
    # next sigma's exponent, when known without the peak
    peak = None if extremes is None else max(extremes[0], -extremes[1])
    k = None
    while True:
        if k is None:
            if peak is None:
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
                k = peak = None
                continue
            if k < -1021:
                tiny = (p != 0.0).any(axis=1)
                slow = tiny if slow is None else slow | tiny
                break
        sigma = math.ldexp(1.0, k)
        np.add(p, sigma, out=q)
        np.subtract(q, sigma, out=q)
        parts.append(q.sum(axis=1))
        if len(parts) > 1:
            np.subtract(p, q, out=p)
        else:
            # the first residual takes q's buffer, so the caller's values stay intact
            np.subtract(p, q, out=q)
            if slow is None:
                certified = _certified_sums(parts[0], q, k)
                if certified is not None:
                    return certified
            p, q = q, (np.empty_like(v) if p is v else p)
        # the first residual lies within 2**-53 sigma, which bounds the
        # second round's sigma without a pass over it
        k = k - 53 + lg if len(parts) == 1 and k - 53 + lg >= -1021 else None
        peak = None
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


def _certified_sums(exact: np.ndarray, residual: np.ndarray, k: int) -> np.ndarray | None:
    """exact plus each row's sum of residual, rounded correctly, or None unless every row is certified.

    exact holds each row's exact sum of the first round's parts, and
    residual the (B, n) first residual, each term within 2**(k-53).  Each
    row of residual is summed in blocks (_blocked_sums): m = n // L blocks
    of L = ceil(sqrt(n)) terms and a tail, each summed in whatever order
    numpy takes, then their sums.  Every term passes through at most
    L - 1 + m additions, and at most n - 1 in any order, so with
    c = min(L + m, n) the float sum R lies within gamma_{c-1} n 2**(k-53)
    of the row's exact sum (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 4.2; Blanchard, Higham and Mary, "A class of
    fast and accurate summation algorithms", SIAM J. Sci. Comput. 2020;
    gamma_j = j u / (1 - j u), u = 2**-53, and an addition that underflows
    is exact), which is at most half of E = c n 2**(k-104).  TwoSum splits
    exact + R into hi + lo exactly, so the row's exact sum lies within
    |lo| + E/2 of hi.  Where |lo| + E < g/2, g the gap just below |hi| (the
    smaller of its two gaps), hi is that sum correctly rounded, math.fsum's
    bits: no other double and no tie lies that close.  Rounding is monotone
    and g/2 a double, so the test in float64 errs on no row's side.  A
    zero hi (g = 0), a tie and a row cancelling to near zero fail it; an E
    below the normal range, no longer exact, is not tried.
    """
    n = residual.shape[1]
    length = math.isqrt(n - 1) + 1
    bound = math.ldexp(min(length + n // length, n) * n, k - 104)
    if bound < 2.0**-1022:
        return None
    rest = _blocked_sums(residual, length)
    hi = exact + rest
    back = hi - exact
    lo = (exact - (hi - back)) + (rest - back)
    magnitude = np.abs(hi)
    gap = magnitude - np.nextafter(magnitude, 0.0)
    return hi if bool((np.abs(lo) + bound < 0.5 * gap).all()) else None


def _blocked_sums(residual: np.ndarray, length: int) -> np.ndarray:
    """Each row's float64 sum of residual, taken as blocks of length terms and a tail.

    The full blocks are a (B, n // length, length) view of the rows, each
    summed along its terms, then summed across; the tail's sum is added
    last.  np.einsum sums the blocks in about a third of .sum(axis=2)'s
    time for a (65, 500) residual, and faster than a plain row sum at
    n = 200,000 (x86-64, numpy 2.4).
    """
    rows, n = residual.shape
    cut = n - n % length
    blocks = residual[:, :cut].reshape(rows, cut // length, length)
    return np.einsum("ijk->ij", blocks).sum(axis=1) + residual[:, cut:].sum(axis=1)


def degeneracy_tolerance(terms: np.ndarray, total=None):
    """Relative tolerance below which a signed sum of these terms counts as zero.

    It is DEGENERACY_SCALE * (1 + exact_sum(|terms|)), one value per row of a
    2-D array.  total, the exact sum of terms, spares that second sum for
    every row whose terms share one sign, where |total| equals it bit for bit.
    A row whose sum of |terms| passes the largest double still gets a finite
    tolerance (see _magnitude_tolerance).
    """
    terms = np.asarray(terms, dtype=np.float64)
    if total is None:
        return _magnitude_tolerance(terms)
    return _tolerance(terms, total, _extremes(terms))


def _tolerance(terms: np.ndarray, total, extremes):
    """degeneracy_tolerance(terms, total), its sign test read off terms' _extremes.

    Only a block whose terms take both signs is tested row by row.
    """
    top, bottom = extremes
    if not bottom < 0.0 < top:
        return DEGENERACY_SCALE * (1.0 + abs(total))
    if terms.ndim < 2:
        return _magnitude_tolerance(terms)
    mixed = (terms.min(axis=-1) < 0.0) & (terms.max(axis=-1) > 0.0)
    tolerance = DEGENERACY_SCALE * (1.0 + np.abs(total))
    if mixed.any():
        tolerance[mixed] = _magnitude_tolerance(terms[mixed])
    return tolerance


def _unit_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(values * 2**-shift, shift), shift taking the peak magnitude of finite values into [0.5, 1).

    np.ldexp takes the exponent itself, so this holds for a subnormal peak,
    whose 2**-shift passes the largest double, as for a huge one.  The
    scaling is exact except for values it takes below the normal range, which
    move a sum of the scaled values by less than n 2**-1074.  All zeros come
    back as they are, with shift 0.
    """
    shift = math.frexp(float(np.max(np.abs(values))))[1]
    return np.ldexp(values, -shift), shift


def _scaled_sum(values: np.ndarray, name: str, factor: float = 1.0) -> float:
    """factor * exact_sum(values) for a vector whose partial sums pass the largest double.

    The values are summed scaled by _unit_scaled, so math.fsum cannot
    overflow, and the sum times factor is scaled back.  Raises
    NonFiniteError naming name when the result passes the largest double.
    """
    scaled, shift = _unit_scaled(values)
    try:
        return math.ldexp(factor * exact_sum(scaled), shift)
    except OverflowError:
        raise NonFiniteError(f"the exact sum of {name} lies beyond the largest double") from None


def _wide_sum(values: np.ndarray, name: str, extremes=None):
    """exact_sum(values), also where partial sums pass the largest double but the sum does not.

    Only a row for which math.fsum raises OverflowError is summed again,
    by _scaled_sum; the other rows keep exact_sum's bits.  name names the
    values in the error for a sum past the largest double; extremes, when
    given, are their _extremes.
    """
    try:
        return _exact_sum(values, extremes)
    except OverflowError:
        pass
    if values.ndim == 2:
        return np.array([_wide_sum(row, name) for row in values])
    return _scaled_sum(values, name)


def _magnitude_tolerance(terms: np.ndarray):
    """DEGENERACY_SCALE * (1 + exact_sum(|terms|)), per row of a 2-D array.

    Where that sum passes the largest double, and math.fsum raises
    OverflowError, a row's tolerance is _scaled_sum of its magnitudes with
    factor DEGENERACY_SCALE; the 1 is then far below its last bit.
    """
    magnitudes = np.abs(terms)
    try:
        return DEGENERACY_SCALE * (1.0 + exact_sum(magnitudes))
    except OverflowError:
        pass
    if magnitudes.ndim == 2:
        return np.array([_magnitude_tolerance(row) for row in magnitudes])
    return _scaled_sum(magnitudes, "term magnitudes", DEGENERACY_SCALE)


def _checked_sum(terms: np.ndarray, name: str, degenerate: str | None = None,
                 error: type[DegenerateError] = DegenerateDenominatorError):
    """The exact sum of terms (one per row of a block), checked.

    Every sum of derived terms goes through here.  Raises NonFiniteError
    naming name when a term is not finite.  Partial sums past the largest
    double are no error (_wide_sum); a sum itself past it raises
    NonFiniteError.  When degenerate is given and the sum (any row's)
    vanishes against its terms (degeneracy_tolerance), raises error with the
    message degenerate, formatted with the sum.

    The terms are scanned once for their largest and smallest value
    (_extremes), and that scan serves all three: the finite check, the
    first sigma of the extraction and the tolerance's sign test.  Only a
    block whose terms take both signs is scanned again, row by row, for the
    sign test of each row.
    """
    extremes = _finite_extremes(terms, name)
    total = _wide_sum(terms, name, extremes)
    if degenerate is not None and np.any(abs(total) <= _tolerance(terms, total, extremes)):
        raise error(degenerate.format(total))
    return total


def _ratio(num_terms, den_terms, degenerate: str,
           names: tuple[str, str] = ("numerator terms", "denominator terms")):
    """(exact sum of num_terms / exact sum of den_terms, the latter sum).

    Every one-step update and explicit preliminary divides two such sums
    (one per row of a block), checked by _checked_sum: names name the two
    sets of terms, degenerate is the message for a vanishing denominator.
    The numerator is scanned once too, its finite check first.
    """
    extremes = _finite_extremes(num_terms, names[0])
    den = _checked_sum(den_terms, names[1], degenerate)
    return _wide_sum(num_terms, names[0], extremes) / den, den


def _finite(value, message: str, error: type[Exception] = NonFiniteError):
    """value (a float, or one per row of a block), unless any of it is not finite."""
    if not _all_finite(value):
        raise error(message)
    return value


def _score_terms(fam: EstimatingFamily, wf: WeightFamily, t, s: Sample):
    """The terms h_i(t) M_i(t, x_i) and h_i(t) M_i'(t, x_i), t checked against fam's domain."""
    _require_in_domain(t, fam.domain)
    h = weight_values(wf, t, s.n)
    return h * m_values(fam, t, s.x), h * m_prime_values(fam, t, s.x)


def score_sums(
    fam: EstimatingFamily, wf: WeightFamily, t: float, s: Sample
) -> tuple[float, float]:
    """Weighted score sum and its t-derivative sum at t.

    Returns (sum_i h_i(t) M_i(t, x_i), sum_i h_i(t) M_i'(t, x_i)).  Both
    reductions are exact (correctly rounded), hence invariant bitwise under
    permutation of the observation indices.

    Raises DomainError if t is outside the estimating family's domain and
    NonFiniteError if any term fails to be finite.
    """
    num_terms, den_terms = _score_terms(fam, wf, t, s)
    extremes = _finite_extremes(num_terms, "score terms")
    den = _checked_sum(den_terms, "score derivative terms")
    return _wide_sum(num_terms, "score terms", extremes), den


def asymptotic_moments(
    mp: MomentProvider, wf: WeightFamily, theta: float, n: int
) -> tuple[float, float]:
    """Variance and centering sums (I, J) of the weighted estimating equation.

    I = sum_i h_i(theta)^2 E M_i^2(theta, X_i),
    J = sum_i h_i(theta) E M_i'(theta, X_i).

    The ratio I / J^2 is the asymptotic variance of the normalized estimator
    and is invariant under rescaling every h_i by the same nonzero constant.

    Raises NonFiniteError when theta is not finite and DegenerateError when
    I vanishes or J is numerically zero.  A model's evaluators check its
    domain themselves.
    """
    _require_in_domain(theta, FULL_LINE)
    if n < 1:
        raise ValueError("n must be at least 1")
    h = weight_values(wf, theta, n)
    _require_finite("weights", h)
    return _moment_sums(h, *moment_values(mp, theta, n))


def _moment_sums(h: np.ndarray, e2: np.ndarray, ed: np.ndarray) -> tuple[float, float]:
    """I = sum_i h_i^2 E M_i^2 and J = sum_i h_i E M_i', unless either vanishes."""
    i_nh = _checked_sum(h * h * e2, "variance terms")
    if i_nh <= 0.0:
        raise DegenerateError("variance sum I is zero")
    j_nh = _checked_sum(
        h * ed, "centering terms", "centering sum J is numerically zero", DegenerateError
    )
    return i_nh, j_nh


# --- forked workers ---

def usable_cpus() -> int:
    """The processors this process may run on: its CPU affinity, where the platform reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(call: Callable[[], object], write_fd: int, inherited: list[int]):
    """In a forked child: send call()'s result as float64 bytes, or the exception it raised, and exit.

    inherited are the read ends of the parent's pipes, which the child has
    no use for, closed first.  The exception carries the child's traceback
    as a note, since pickling drops it.  Exits with status 0 once the array
    is sent, 1 once the pickled exception is, and 2 when neither is.  Never
    returns, so the child runs none of its parent's code.
    """
    status = 2
    try:
        for fd in inherited:
            os.close(fd)
        try:
            payload, sent = np.ascontiguousarray(call(), dtype=np.float64), 0
        except Exception as exc:
            from traceback import format_tb

            trace = "".join(format_tb(exc.__traceback__))
            exc.add_note(f"raised in worker process {os.getpid()}:\n{trace.rstrip()}")
            try:
                payload = pickle.dumps(exc)
            except Exception:  # an exception that does not pickle still names itself
                payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            sent = 1
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = sent
    finally:
        os._exit(status)


def _received(pid: int, status: int, payload: bytes) -> np.ndarray | Exception:
    """The flat float64 array a child sent, or the exception it sent, or a ChildProcessError."""
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        return np.frombuffer(payload)
    if code == 1:
        return pickle.loads(payload)  # written by the child forked from this process
    how = f"signal {-code}" if code < 0 else f"status {code}"
    return ChildProcessError(f"worker process {pid} ended with {how} and sent no result")


def run_forked(calls: Sequence[Callable[[], object]]) -> list:
    """calls[0]() made here, then what each other call sent from a forked child, in order.

    Each other call runs in a child made with os.fork before calls[0] runs
    here.  What a child sends is np.asarray(call(), np.float64), received
    as a flat, read-only array over the bytes read from its pipe; or, when
    the call raised, the exception itself (not raised here), with the
    child's traceback as a note; or a ChildProcessError when the child
    ended without sending either.  If anything raises here, calls[0]
    included, before every child has sent, the children are killed.  Every
    child is reaped before this returns or raises.  A fork copies only the
    calling thread, so no other thread may hold a lock the calls need.
    """
    pids: list[int] = []
    unread: list[int] = []  # read ends of the children's pipes, still open
    payloads: list[bytes] = []
    try:
        for call in calls[1:]:
            read_fd, write_fd = os.pipe()
            unread.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(call, write_fd, inherited=unread)
            finally:
                os.close(write_fd)  # in this process only: the child has exited
            pids.append(pid)
        first = calls[0]()
        while unread:
            with open(unread.pop(0), "rb") as pipe:
                payloads.append(pipe.read())
    finally:
        for fd in unread:
            os.close(fd)
        if len(payloads) < len(pids):
            from signal import SIGKILL

            for pid in pids:
                os.kill(pid, SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    return [first, *map(_received, pids, statuses, payloads)]
