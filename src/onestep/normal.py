"""Standard normal distribution helpers.

The cdf goes through the complementary error function, which keeps absolute
error near machine precision over the whole real line.  The quantile inverts
the cdf by bisection on an expanding bracket; no series approximation is
involved, so its accuracy is limited only by the cdf itself.
"""

from __future__ import annotations

import math

from .errors import DomainError, NonFiniteError

__all__ = ["normal_cdf", "normal_quantile"]

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x: float) -> float:
    """Phi(x) for finite real x, accurate to well under 1e-10 absolute."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise NonFiniteError(f"normal_cdf requires finite x, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse of normal_cdf on (0, 1) by bracketing bisection.

    The returned q satisfies |normal_cdf(q) - p| <= 1e-9 (far better in
    practice: the bracket is narrowed to machine precision).
    """
    p = float(p)
    if math.isnan(p) or not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must lie in (0, 1), got {p!r}")
    # normal_cdf written out: every point probed here is finite, so its
    # check is spared and the value is the same expression's, bit for bit
    erfc = math.erfc
    lo, hi = -1.0, 1.0
    while 0.5 * erfc(-lo / _SQRT2) > p:
        lo *= 2.0
    while 0.5 * erfc(-hi / _SQRT2) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if 0.5 * erfc(-mid / _SQRT2) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
