"""Standard normal distribution helpers.

The cdf goes through the complementary error function, which keeps absolute
error near machine precision over the whole real line.  The quantile inverts
the cdf by bisection on an expanding bracket, and returns bit for bit what
that bisection returns.  It skips the bisection's first levels: a rational
approximation, refined once through the cdf, names the cell of a deep level
that holds the root, and the cdf at the cell's two ends certifies it (see
normal_quantile).  The approximation only decides where the bisection goes
on, never its result, so the accuracy is limited only by the cdf itself.
"""

from __future__ import annotations

import math

from .errors import DomainError, NonFiniteError

__all__ = ["normal_cdf", "normal_quantile"]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# normal_cdf at the ends the bracket expansion tries, -2**k and 2**k: the
# same for every level, so each is computed once.  The cdf is 0.0 at -64 and
# 1.0 at 16, so no level in (0, 1) expands past them.
_CDF_AT_MINUS = [0.5 * math.erfc(2.0**k / _SQRT2) for k in range(7)]
_CDF_AT_PLUS = [0.5 * math.erfc(-(2.0**k) / _SQRT2) for k in range(5)]

# A bracket is certified only where Phi rises across it by at least this
# many units in the last place of p, so that the cdf's rounding (a few
# units) cannot order any point outside it differently from Phi.
_MARGIN_ULPS = 2.0**10


def normal_cdf(x: float) -> float:
    """Phi(x) for finite real x, accurate to well under 1e-10 absolute."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise NonFiniteError(f"normal_cdf requires finite x, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse of normal_cdf on (0, 1) by bracketing bisection.

    The returned q satisfies |normal_cdf(q) - p| <= 1e-9 (far better in
    practice: the bracket is narrowed to machine precision).  q is bit for
    bit what bisection from the expanded bracket [lo, hi] returns; only the
    levels it runs through differ.

    The bisection's level-J brackets split [lo, hi] into 2**J equal cells,
    and it forms them exactly while their ends fit in 53 bits.  A close
    start (_start) names the cell [l, h] that holds the root, and the cdf
    at its two ends certifies it: normal_cdf(l) < p <= normal_cdf(h).  J is
    the deepest level at which Phi still rises by 2**10 units in the last
    place of p across one cell, far above the cdf's rounding error, so that
    every point the skipped levels would have probed lies a cell or more
    outside [l, h] and compares with p as l or h does.  The
    bisection then goes on from [l, h], with 200 - J steps left of its 200.
    It starts from [lo, hi] instead when either end fails its check (as
    where the root is a point of the grid, p = 0.5 among them), or no level
    J >= 1 has that margin (p below about 2**-1055, a subnormal), or Phi's
    slope would change by more than 2**-10 across a cell (p within about
    2**-32 of 1).
    """
    p = float(p)
    if math.isnan(p) or not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must lie in (0, 1), got {p!r}")
    # the bracket [-2**a, 2**b]: -1 doubled while the cdf there exceeds p,
    # and 1 doubled while it falls short of p
    a = b = 0
    while _CDF_AT_MINUS[a] > p:
        a += 1
    while _CDF_AT_PLUS[b] < p:
        b += 1
    lo, hi, level = _certified_bracket(p, -(2.0**a), 2.0**b, abs(a - b))
    # normal_cdf written out: every point probed here is finite, so its
    # check is spared and the value is the same expression's, bit for bit
    erfc = math.erfc
    for _ in range(200 - level):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if 0.5 * erfc(-mid / _SQRT2) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _certified_bracket(p: float, lo: float, hi: float, gap: int) -> tuple[float, float, int]:
    """(l, h, J): the level-J bisection bracket of [lo, hi] that holds p's quantile, certified.

    gap is the difference of the exponents of -lo and hi, both powers of
    two.  (lo, hi, 0) when no level can be certified; see normal_quantile.
    """
    x, density = _start(p)
    if not (density > 0.0 and lo < x < hi):
        return lo, hi, 0
    width = hi - lo
    # the deepest level across whose cells Phi rises by the margin (frexp's
    # exponent less one is the floor of log2); the level-J cells are exact
    # multiples of 2**-J of the narrower half of [lo, hi], so J + gap must
    # stay within 53 bits
    deepest = math.frexp(density * width / (_MARGIN_ULPS * math.ulp(p)))[1] - 1
    level = min(52 - gap, deepest)
    if level < 1:
        return lo, hi, 0
    cell = math.ldexp(width, -level)
    if cell * abs(x) > 2.0**-10:
        return lo, hi, 0
    j = min(int((x - lo) / cell), 2**level - 1)
    l, h = lo + j * cell, lo + (j + 1) * cell
    if 0.5 * math.erfc(-l / _SQRT2) < p and not 0.5 * math.erfc(-h / _SQRT2) < p:
        return l, h, level
    return lo, hi, 0


def _start(p: float) -> tuple[float, float]:
    """(x, phi(x)): Acklam's approximation of the quantile of p after one Halley step.

    phi is the normal density at the approximation, before the step; it is
    0.0 where it underflows, and then x is the approximation itself.
    """
    # P. J. Acklam's rational approximation, relative error below 1.2e-9:
    # in sqrt(-2 log p) in the tails, in p - 1/2 between them
    tail = min(p, 1.0 - p)
    if tail < 0.02425:
        q = math.sqrt(-2.0 * math.log(tail))
        x = (((((-7.784894002430293e-03 * q - 3.223964580411365e-01) * q
                - 2.400758277161838e00) * q - 2.549732539343734e00) * q
              + 4.374664141464968e00) * q + 2.938163982698783e00) / (
            (((7.784695709041462e-03 * q + 3.224671290700398e-01) * q
              + 2.445134137142996e00) * q + 3.754408661907416e00) * q + 1.0)
        if p > 0.5:
            x = -x
    else:
        q = p - 0.5
        r = q * q
        x = (((((-3.969683028665376e01 * r + 2.209460984245205e02) * r
                - 2.759285104469687e02) * r + 1.383577518672690e02) * r
              - 3.066479806614716e01) * r + 2.506628277459239e00) * q / (
            ((((-5.447609879822406e01 * r + 1.615858368580409e02) * r
               - 1.556989798598866e02) * r + 6.680131188771972e01) * r
             - 1.328068155288572e01) * r + 1.0)
    density = math.exp(-0.5 * x * x) / _SQRT_2PI
    if density > 0.0:
        # Halley's step on Phi(x) - p, whose derivatives are phi and -x phi
        u = (0.5 * math.erfc(-x / _SQRT2) - p) / density
        x -= u / (1.0 + 0.5 * x * u)
    return x, density

