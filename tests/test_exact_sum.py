"""Property tests: exact_sum is bitwise equal to math.fsum on both of its paths,
and the degeneracy tolerance built on it keeps its value when given the sum."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onestep.core import (
    _VECTOR_SUM_MIN_TERMS,
    DEGENERACY_SCALE,
    _ratio,
    degeneracy_tolerance,
    exact_sum,
)
from onestep.errors import NonFiniteError

CROSSOVER = _VECTOR_SUM_MIN_TERMS

# lengths on both sides of the switch between the list and vector paths
lengths = st.one_of(
    st.integers(0, CROSSOVER - 1),
    st.integers(CROSSOVER - 2, CROSSOVER + 2),
    st.integers(CROSSOVER, 4 * CROSSOVER),
)
seeds = st.integers(0, 2**32 - 1)


def outcome(total):
    """Bits of a result, or the exception it raised; float.hex keeps the sign of zero."""
    try:
        return total().hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def assert_matches_fsum(v):
    v = np.asarray(v, dtype=np.float64)
    expected = outcome(lambda: math.fsum(v.tolist()))
    assert outcome(lambda: exact_sum(v)) == expected


def cancellation_pairs(rng, n):
    x = rng.standard_normal((n + 1) // 2) * 2.0 ** rng.integers(-60, 60, (n + 1) // 2)
    v = np.concatenate([x, -x * (1.0 + 2.0**-52)])[:n]
    return rng.permutation(v)


def subnormals(rng, n):
    v = rng.integers(-(2**40), 2**40, n) * 2.0**-1074
    v[rng.random(n) < 0.05] *= 2.0**60  # a few just above the normal range
    return v


def half_ulp_ties(rng, n):
    v = np.zeros(max(n, 4))
    v[:3] = [1.0, 2.0**-53, rng.choice([-1.0, 1.0]) * 2.0**-53]
    if rng.random() < 0.5:  # a tail that breaks the tie
        v[rng.integers(3, v.size)] = rng.choice([-1.0, 1.0]) * 2.0**-106
    return rng.permutation(v)


def wide_exponents(rng, n):
    return rng.uniform(-1.0, 1.0, n) * 2.0 ** rng.integers(-1000, 1001, n)


def same_sign(rng, n):
    # the largest total for a given peak, so the headroom above each
    # extracted part is tested at its limit
    return rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0, n)


FAMILIES = [cancellation_pairs, subnormals, half_ulp_ties, wide_exponents, same_sign]


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(FAMILIES), n=lengths, seed=seeds)
def test_matches_fsum_bitwise(family, n, seed):
    assert_matches_fsum(family(np.random.default_rng(seed), n))


@settings(max_examples=100, deadline=None)
@given(
    head=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
    n=lengths,
    seed=seeds,
)
def test_matches_fsum_on_drawn_floats(head, n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(max(n, len(head)))
    v[: len(head)] = head
    assert_matches_fsum(rng.permutation(v))


@settings(max_examples=100, deadline=None)
@given(n=lengths, seed=seeds, sign=st.sampled_from([-1.0, 1.0]))
def test_near_overflow_raises_like_fsum(n, seed, sign):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(max(n, 2))
    v[:2] = sign * 1.7e308
    v = rng.permutation(v)
    with pytest.raises(OverflowError):
        math.fsum(v.tolist())
    with pytest.raises(OverflowError):
        exact_sum(v)


@settings(max_examples=100, deadline=None)
@given(
    n=lengths,
    seed=seeds,
    specials=st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), min_size=1, max_size=3),
)
def test_nonfinite_input_matches_fsum(n, seed, specials):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(max(n, len(specials)))
    v[rng.choice(v.size, len(specials), replace=False)] = specials
    assert_matches_fsum(v)


def test_signed_zeros_and_empty_input():
    for n in (0, 1, CROSSOVER - 1, CROSSOVER, 3 * CROSSOVER):
        assert_matches_fsum(np.full(n, -0.0))
        assert_matches_fsum(np.zeros(n))


def test_permutation_gives_identical_bits():
    rng = np.random.default_rng(20000)
    v = rng.laplace(size=20000) * 2.0 ** rng.integers(-30, 30, 20000)
    total = exact_sum(v)
    for _ in range(5):
        assert exact_sum(rng.permutation(v)).hex() == total.hex()
    assert total.hex() == math.fsum(v.tolist()).hex()


def test_input_is_left_untouched():
    v = np.random.default_rng(3).standard_normal(4 * CROSSOVER)
    v.flags.writeable = False
    before = v.copy()
    exact_sum(v)
    assert np.array_equal(v, before)


def signed_row(rng, n, kind):
    v = rng.standard_normal(n) * 2.0 ** rng.integers(-40, 40, n)
    v[rng.random(n) < 0.2] = 0.0
    v[rng.random(n) < 0.2] = -0.0
    if kind == "nonnegative":
        return np.where(v < 0.0, -v, v)
    if kind == "nonpositive":
        return np.where(v > 0.0, -v, v)
    if kind == "zeros":
        return np.where(rng.random(n) < 0.5, 0.0, -0.0)
    return v


@settings(max_examples=150, deadline=None)
@given(
    kinds=st.lists(
        st.sampled_from(["nonnegative", "nonpositive", "zeros", "mixed"]), min_size=1, max_size=6
    ),
    n=lengths.filter(bool),
    seed=seeds,
)
def test_tolerance_from_the_signed_sum_is_unchanged(kinds, n, seed):
    rng = np.random.default_rng(seed)
    block = np.stack([signed_row(rng, n, kind) for kind in kinds])
    want = [DEGENERACY_SCALE * (1.0 + math.fsum(np.abs(row).tolist())) for row in block]
    got = degeneracy_tolerance(block, exact_sum(block))
    assert [t.hex() for t in got.tolist()] == [t.hex() for t in want]
    row = block[0]
    assert degeneracy_tolerance(row, exact_sum(row)).hex() == want[0].hex()
    assert degeneracy_tolerance(row).hex() == want[0].hex()


@pytest.mark.parametrize("n", [CROSSOVER - 1, CROSSOVER, 20000, 200000])
@pytest.mark.parametrize("family", [cancellation_pairs, wide_exponents, same_sign])
def test_vector_and_one_row_block_agree(family, n):
    # a vector is the one-row case of the row-wise loop
    v = family(np.random.default_rng(n), n)
    want = math.fsum(v.tolist()).hex()
    assert exact_sum(v).hex() == want
    assert [total.hex() for total in exact_sum(v[None, :]).tolist()] == [want]


def tolerance_from_fractions(row):
    """DEGENERACY_SCALE * (1 + sum |row|) in exact rational arithmetic, rounded once."""
    return float(Fraction(DEGENERACY_SCALE) * (1 + sum(Fraction(abs(t)) for t in row.tolist())))


@pytest.mark.parametrize("n", [3, CROSSOVER + 5])
def test_tolerance_is_finite_when_the_magnitudes_overflow(n):
    # sum |terms| passes the largest double; fsum raises OverflowError on it,
    # yet the terms and their signed sum are finite
    huge = np.zeros(n)
    huge[:3] = [8e307, 8e307, -1.6e308]
    same_sign = np.zeros(n)
    same_sign[:2] = [1e308, 1e308]
    ordinary = np.random.default_rng(n).standard_normal(n)
    with pytest.raises(OverflowError):
        exact_sum(np.abs(huge))

    want = tolerance_from_fractions(huge)
    assert math.isfinite(want)
    for tolerance in (degeneracy_tolerance(huge), degeneracy_tolerance(huge, exact_sum(huge))):
        assert math.isclose(tolerance, want, rel_tol=4e-16)

    block = np.stack([ordinary, huge, same_sign])
    ordinary_bits = degeneracy_tolerance(ordinary).hex()
    assert ordinary_bits == (DEGENERACY_SCALE * (1.0 + math.fsum(np.abs(ordinary).tolist()))).hex()
    # same_sign's own sum overflows, so only the form without totals applies to it
    totals = exact_sum(block[:2])
    for got in (degeneracy_tolerance(block)[:2], degeneracy_tolerance(block[:2], totals)):
        assert got[0].hex() == ordinary_bits
        assert math.isclose(got[1], want, rel_tol=4e-16)
    assert math.isclose(
        degeneracy_tolerance(block)[2], tolerance_from_fractions(same_sign), rel_tol=4e-16
    )


def sum_from_fractions(row):
    """The exact sum of row in rational arithmetic, rounded once."""
    return float(sum(Fraction(t) for t in row.tolist()))


@pytest.mark.parametrize("n", [3, CROSSOVER + 5])
def test_ratio_takes_sums_whose_partial_sums_overflow(n):
    # the sqrt preliminary's terms at x^2 = 3, 2, 1.5 with contrasts 8e307,
    # 8e307, -1.6e308: fsum's partial sums pass the largest double, and it
    # raises OverflowError, yet both exact sums are finite
    num, den, past = np.zeros(n), np.zeros(n), np.zeros(n)
    num[:3] = np.array([8e307, 8e307, -1.6e308]) * (np.square(np.sqrt([3.0, 2.0, 1.5])) - 1.0)
    den[:3] = [1.6e308, 8e307, -1.6e308]
    past[:3] = [1e308, 1e308, -1e307]  # its exact sum passes the largest double too
    for terms in (num, den, past):
        with pytest.raises(OverflowError):
            exact_sum(terms)
    want = sum_from_fractions(num) / sum_from_fractions(den)
    assert want == 2.0000000000000004
    assert [v.hex() for v in _ratio(num, den, "{}")] == [want.hex(), (8e307).hex()]

    rng = np.random.default_rng(n)
    ordinary, ordinary_den = rng.standard_normal(n), rng.uniform(1.0, 2.0, n)
    ratios, dens = _ratio(np.stack([ordinary, num]), np.stack([ordinary_den, den]), "{}")
    ordinary_ratio = math.fsum(ordinary.tolist()) / math.fsum(ordinary_den.tolist())
    assert [v.hex() for v in ratios.tolist()] == [ordinary_ratio.hex(), want.hex()]
    assert dens[1] == 8e307

    with pytest.raises(NonFiniteError):
        _ratio(past, den, "{}")
    with pytest.raises(NonFiniteError):
        _ratio(np.stack([ordinary, past]), np.stack([ordinary_den, den]), "{}")
