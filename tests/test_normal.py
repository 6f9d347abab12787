"""Tests for the normal distribution helpers and the KS statistic."""

import math

import numpy as np
import pytest
from scipy import special, stats

from onestep import ks_statistic, normal_cdf, normal_quantile
from onestep.errors import DomainError, EmptyInputError, NonFiniteError


def test_cdf_fixed_values():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(-1.0) == pytest.approx(0.15865525393145705, abs=1e-15)
    assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-15)


def test_cdf_symmetry_and_monotonicity():
    grid = np.linspace(-8.0, 8.0, 401)
    vals = [normal_cdf(float(v)) for v in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for v in grid:
        assert normal_cdf(float(v)) + normal_cdf(float(-v)) == pytest.approx(1.0, abs=1e-15)


def test_cdf_matches_reference():
    grid = np.linspace(-6.0, 6.0, 241)
    for v in grid:
        assert normal_cdf(float(v)) == pytest.approx(float(special.ndtr(v)), abs=1e-10)


def test_cdf_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        normal_cdf(math.nan)
    with pytest.raises(NonFiniteError):
        normal_cdf(math.inf)


def test_quantile_fixed_value():
    assert normal_quantile(0.975) == pytest.approx(1.9599639845400543, abs=1e-9)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)


def test_quantile_round_trip():
    for p in np.linspace(0.001, 0.999, 97):
        q = normal_quantile(float(p))
        assert normal_cdf(q) == pytest.approx(float(p), abs=1e-9)


def test_quantile_matches_reference():
    for p in (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.975, 0.99, 0.999):
        assert normal_quantile(p) == pytest.approx(float(special.ndtri(p)), abs=1e-9)


def test_quantile_domain():
    for p in (0.0, 1.0, -0.5, 1.5, math.nan):
        with pytest.raises(DomainError):
            normal_quantile(p)


def test_ks_two_point_example():
    # {-1, 1} against the standard normal: the largest gap sits just left of
    # +1, where the empirical cdf is 1/2 but Phi(1) = 0.8413...
    d = ks_statistic([-1.0, 1.0], normal_cdf)
    assert d == pytest.approx(0.3413447460685429, abs=1e-12)


def test_ks_degenerate_sample():
    # a single point at the median: D = 1/2
    assert ks_statistic([0.0], normal_cdf) == pytest.approx(0.5, abs=1e-12)


def test_ks_perfect_grid():
    # order statistics placed exactly at the (i - 1/2)/n quantiles give D = 1/(2n)
    n = 20
    pts = [normal_quantile((i + 0.5) / n) for i in range(n)]
    assert ks_statistic(pts, normal_cdf) == pytest.approx(1.0 / (2 * n), abs=1e-9)


def test_ks_matches_reference():
    rng = np.random.Generator(np.random.Philox(key=np.array([21, 0], dtype=np.uint64)))
    for trial in range(10):
        data = rng.normal(0.0, 1.0, int(rng.integers(5, 200)))
        ours = ks_statistic(data, normal_cdf)
        ref = stats.kstest(data, "norm").statistic
        assert ours == pytest.approx(float(ref), abs=1e-10)


def test_ks_empty_and_nonfinite():
    with pytest.raises(EmptyInputError):
        ks_statistic([], normal_cdf)
    for values in ([math.nan, 0.0], [1.0, math.nan], [math.inf]):
        with pytest.raises(NonFiniteError, match="^KS input contains non-finite values$"):
            ks_statistic(values, normal_cdf)


def test_ks_permutation_invariant():
    data = [0.3, -1.2, 2.0, 0.0, -0.4]
    assert ks_statistic(data, normal_cdf) == ks_statistic(list(reversed(data)), normal_cdf)


def _bisected_quantile(p):
    """normal_quantile as it was written through normal_cdf: the bit-for-bit oracle."""
    lo, hi = -1.0, 1.0
    while normal_cdf(lo) > p:
        lo *= 2.0
    while normal_cdf(hi) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_quantile_is_the_bisection_through_the_cdf_bit_for_bit():
    levels = [(i + 0.5) / m for m in (1, 2, 7, 1999, 2000) for i in range(m)]
    levels += [1e-300, 0.5, 1.0 - 2.0**-53]
    rng = np.random.Generator(np.random.Philox(key=np.array([32, 0], dtype=np.uint64)))
    levels += rng.uniform(0.0, 1.0, 10_000).tolist()
    # within 1e-300 ... 1e-16 of 0, and of 1 as far as doubles reach
    levels += (10.0 ** -rng.uniform(16.0, 300.0, 300)).tolist()
    levels += [10.0**-k for k in range(16, 301)]
    levels += [1.0 - k * 2.0**-53 for k in range(1, 200)]
    levels += [1.0 - 10.0**-k for k in range(10, 17)]
    # a root on the bisection grid of [-1, 1]: the cdf there equals p, so the
    # start's cell may have it as its lower end and fail its certification
    levels += [normal_cdf(s * k * 2.0**-j) for s in (1, -1) for k in (1, 3, 5) for j in (3, 20, 40)]
    for p in levels:
        # float.hex tells the sign of zero apart as well
        assert normal_quantile(p).hex() == _bisected_quantile(p).hex(), p
    assert math.copysign(1.0, normal_quantile(0.5)) == math.copysign(1.0, _bisected_quantile(0.5))


def test_quantile_takes_few_erfc_calls(monkeypatch):
    # the qq levels of a 2,000-replication campaign: bisection from the
    # expanded bracket takes about 56 calls per level
    erfc, calls = math.erfc, [0]

    def counted(x):
        calls[0] += 1
        return erfc(x)

    monkeypatch.setattr(math, "erfc", counted)
    m = 2000
    for i in range(m):
        normal_quantile((i + 0.5) / m)
    assert calls[0] / m <= 20
