"""Tests for the data model and score evaluation layer."""

import math

import numpy as np
import pytest

from onestep import (
    EstimatingFamily,
    Interval,
    MomentProvider,
    Sample,
    WeightFamily,
    asymptotic_moments,
    score_sums,
)
from onestep.core import (
    degeneracy_tolerance,
    m_prime_values,
    m_values,
    moment_values,
    weight_values,
)
from onestep.errors import DegenerateError, DomainError, NonFiniteError
from onestep.regression import sqrt_model


def linear_family():
    # M_i(t, x) = x - a_i t with a = (1, 2)
    a = np.array([1.0, 2.0])
    return EstimatingFamily(
        m_terms=lambda t, xs: xs - a * t,
        m_prime_terms=lambda t, xs: -a,
    )


def linear_weights():
    a = np.array([1.0, 2.0])
    return WeightFamily(h_values=lambda t: a, h_prime_values=lambda t: 0.0)


def test_interval_validation():
    iv = Interval(-1.0, 2.0)
    assert iv.contains(0.0)
    assert not iv.contains(-1.0)  # open at both ends
    assert not iv.contains(2.0)
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)


def test_sample_validation_and_freezing():
    s = Sample(x=[1.0, 3.0], a=[1.0, 2.0])
    assert s.n == 2
    assert not s.x.flags.writeable
    with pytest.raises(ValueError):
        Sample(x=[1.0, 2.0], a=[1.0])  # length mismatch
    assert Sample(x=[[1.0]], a=[1.0]).n == 1  # a block of one row
    ranks = "x must be one-dimensional or two-dimensional"
    with pytest.raises(ValueError, match=f"{ranks}, got 3 dimensions"):
        Sample(x=[[[1.0]]], a=[1.0])
    with pytest.raises(ValueError, match=f"{ranks}, got 0 dimensions"):
        Sample(x=1.0, a=[1.0])
    with pytest.raises(ValueError):
        Sample(x=[], a=[])
    with pytest.raises(NonFiniteError):
        Sample(x=[1.0, math.nan], a=[1.0, 2.0])
    with pytest.raises(ValueError):
        Sample(x=[1.0, 2.0], a=[1.0, 2.0], w_known=[1.0, 0.0])


def test_sample_input_is_copied():
    raw = np.array([1.0, 2.0])
    s = Sample(x=raw, a=[1.0, 2.0])
    raw[0] = 99.0
    assert s.x[0] == 1.0


def frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def test_frozen_arrays_pass_without_a_copy():
    # read-only, C-contiguous float64 arrays that own their data, and rows
    # of such a block, are taken as they are, by every constructor
    a, b, w = frozen([1.0, 2.0, 3.0]), frozen([0.5, 0.25, 2.0]), frozen([1.0, 4.0, 2.0])
    x = frozen([[1.0, 3.0, 2.0], [2.0, 1.0, 5.0]])
    s = Sample(x=x[1], a=a, b=b, w_known=w)
    assert s.a is a and s.b is b and s.w_known is w
    assert s.x.base is x
    block = Sample(x=x, a=a, b=b, w_known=w)
    assert block.x is x and block.a is a and block.b is b and block.w_known is w
    assert block.n == 3
    model = sqrt_model(a, weights=w)
    assert model.a is a and model.values("w", 1.0) is w
    # the checks still run on an array that is not copied
    with pytest.raises(NonFiniteError):
        Sample(x=frozen([1.0, math.inf]), a=a[:2])
    with pytest.raises(ValueError, match="strictly positive"):
        Sample(x=a, a=a, w_known=frozen([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError, match="has length 2, expected 3"):
        Sample(x=a, a=frozen([1.0, 2.0]))


def test_arrays_that_writable_memory_backs_are_copied():
    raw = np.array([1.0, 2.0, 3.0])
    view = raw[:]
    view.flags.writeable = False  # read-only, but raw can still write to it
    held = bytearray(np.array([1.0, 2.0, 3.0]).tobytes())
    over_bytes = np.frombuffer(held)
    over_bytes.flags.writeable = False  # read-only, but held can still write to it
    column = frozen([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])[:, 0]  # not contiguous
    for values in (raw, view, np.frombuffer(held), over_bytes, column):
        s = Sample(x=values, a=values)
        assert not np.shares_memory(s.x, values) and not np.shares_memory(s.a, values)
        assert not s.x.flags.writeable
    raw[0] = 9.0
    held[:8] = np.array([9.0]).tobytes()
    assert Sample(x=view, a=view).x[0] == 9.0  # the copy is taken when Sample is built
    s = Sample(x=over_bytes, a=over_bytes)
    held[:8] = np.array([7.0]).tobytes()
    assert s.x[0] == 9.0


def test_score_sums_linear_example():
    # a = (1, 2), x = (1, 3): at t = 0 the score is sum a_i x_i = 7 and the
    # derivative sum is -sum a_i^2 = -5.
    s = Sample(x=[1.0, 3.0], a=[1.0, 2.0])
    num, den = score_sums(linear_family(), linear_weights(), 0.0, s)
    assert num == 7.0
    assert den == -5.0
    num1, den1 = score_sums(linear_family(), linear_weights(), 1.0, s)
    assert num1 == 2.0
    assert den1 == -5.0


def test_score_sums_permutation_invariance():
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    for trial in range(50):
        n = int(rng.integers(2, 40))
        a = rng.uniform(0.5, 3.0, n)
        x = rng.normal(0.0, 2.0, n)
        t = float(rng.uniform(-1.0, 1.0))

        def make(av, xv):
            fam = EstimatingFamily(
                m_terms=lambda tt, xs: xs - av * tt,
                m_prime_terms=lambda tt, xs: -av,
            )
            wf = WeightFamily(h_values=lambda tt: av)
            return fam, wf, Sample(x=xv, a=av)

        fam, wf, s = make(a, x)
        base = score_sums(fam, wf, t, s)
        perm = rng.permutation(n)
        fam2, wf2, s2 = make(a[perm], x[perm])
        shuffled = score_sums(fam2, wf2, t, s2)
        # exact summation makes the sums identical bitwise, not merely close
        assert base == shuffled


def test_score_sums_weight_scaling():
    # theta_hat depends on h only through the ratio of the two sums; the sums
    # themselves scale linearly.  Exact for c = 2 (a power of two).
    s = Sample(x=[1.0, 3.0], a=[1.0, 2.0])
    fam = linear_family()
    a = np.array([1.0, 2.0])
    num, den = score_sums(fam, WeightFamily(h_values=lambda t: a), 0.5, s)
    num2, den2 = score_sums(fam, WeightFamily(h_values=lambda t: 2.0 * a), 0.5, s)
    assert num2 == 2.0 * num
    assert den2 == 2.0 * den
    num3, den3 = score_sums(fam, WeightFamily(h_values=lambda t: 3.0 * a), 0.5, s)
    assert num3 == pytest.approx(3.0 * num, rel=1e-14)
    assert den3 == pytest.approx(3.0 * den, rel=1e-14)


def test_score_sums_domain_errors():
    s = Sample(x=[1.0, 3.0], a=[1.0, 2.0])
    dom = Interval(-1.0, 1.0)
    fam = EstimatingFamily(
        m_terms=lambda t, xs: xs - t,
        m_prime_terms=lambda t, xs: -1.0,
        domain=dom,
    )
    wf = WeightFamily(h_values=lambda t: 1.0, domain=dom)
    with pytest.raises(DomainError):
        score_sums(fam, wf, 2.0, s)
    with pytest.raises(NonFiniteError):
        score_sums(fam, wf, math.nan, s)
    with pytest.raises(NonFiniteError):
        score_sums(fam, wf, math.inf, s)


def test_score_sums_rejects_nonfinite_terms():
    s = Sample(x=[1.0, 2.0], a=[1.0, 2.0])
    fam = EstimatingFamily(
        m_terms=lambda t, xs: np.array([0.0, math.inf]),
        m_prime_terms=lambda t, xs: -1.0,
    )
    wf = WeightFamily(h_values=lambda t: 1.0)
    with pytest.raises(NonFiniteError):
        score_sums(fam, wf, 0.0, s)


def test_evaluators_return_n_values_per_row_or_one_for_all():
    xs = np.array([0.5, 1.5, 2.5])
    block = np.stack([xs, xs + 1.0])
    column = np.array([[0.2], [0.7]])
    short = EstimatingFamily(m_terms=lambda t, x: x[..., :2], m_prime_terms=lambda t, x: -1.0)
    with pytest.raises(ValueError, match="returned 2 values per row, expected 3"):
        m_values(short, 0.7, xs)
    with pytest.raises(ValueError, match="returned 2 values per row, expected 3"):
        m_values(short, column, block)
    with pytest.raises(ValueError, match="returned 4 values per row, expected 3"):
        weight_values(WeightFamily(h_values=lambda t: np.ones(4)), 0.7, 3)
    # a one-value vector is a width like any other, not a value for every index
    with pytest.raises(ValueError, match="returned 1 values per row, expected 3"):
        weight_values(WeightFamily(h_values=lambda t: np.ones(1)), 0.7, 3)
    mp = MomentProvider(e_m2_values=lambda t: np.ones(2), e_mprime_values=lambda t: -1.0)
    with pytest.raises(ValueError, match="returned 2 values per row, expected 3"):
        moment_values(mp, 0.7, 3)
    with pytest.raises(ValueError, match="returned 2 values per row, expected 3"):
        score_sums(short, WeightFamily(h_values=lambda t: 1.0), 0.7, Sample(x=xs, a=xs))
    # a 0-d value stands for every index: the shape of the responses, or of
    # the rows of t with n values each
    assert m_prime_values(short, 0.7, xs).tolist() == [-1.0] * 3
    assert m_prime_values(short, column, block).shape == (2, 3)
    wf = WeightFamily(h_values=lambda t: 2.0)
    assert weight_values(wf, 0.7, 3).tolist() == [2.0] * 3
    assert weight_values(wf, column, 3).shape == (2, 3)
    # held once, as a read-only view with stride 0: a write to it raises
    for vals in (
        m_prime_values(short, 0.7, xs), m_prime_values(short, column, block),
        weight_values(wf, 0.7, 3), weight_values(wf, column, 3),
    ):
        assert not any(vals.strides) and not vals.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            vals[..., 0] = 5.0


def test_asymptotic_moments_linear():
    # h = a, E M^2 = 1, E M' = -a: I = sum a^2 = 5, J = -sum a^2 = -5.
    a = np.array([1.0, 2.0])
    mp = MomentProvider(e_m2_values=lambda t: 1.0, e_mprime_values=lambda t: -a)
    wf = WeightFamily(h_values=lambda t: a)
    i_nh, j_nh = asymptotic_moments(mp, wf, 0.3, 2)
    assert i_nh == 5.0
    assert j_nh == -5.0


def test_asymptotic_moments_scale_invariance():
    rng = np.random.Generator(np.random.Philox(key=np.array([8, 0], dtype=np.uint64)))
    for trial in range(30):
        n = int(rng.integers(2, 15))
        e2 = rng.uniform(0.2, 3.0, n)
        ed = -rng.uniform(0.2, 3.0, n)
        h = rng.uniform(0.1, 2.0, n)
        c = float(rng.uniform(0.5, 4.0))
        mp = MomentProvider(e_m2_values=lambda t: e2, e_mprime_values=lambda t: ed)
        i1, j1 = asymptotic_moments(mp, WeightFamily(h_values=lambda t: h), 0.0, n)
        i2, j2 = asymptotic_moments(mp, WeightFamily(h_values=lambda t: c * h), 0.0, n)
        # I/J^2 is the invariant quantity
        assert i2 / j2**2 == pytest.approx(i1 / j1**2, rel=1e-12)


def test_asymptotic_moments_degenerate():
    mp = MomentProvider(e_m2_values=lambda t: 0.0, e_mprime_values=lambda t: -1.0)
    wf = WeightFamily(h_values=lambda t: 1.0)
    with pytest.raises(DegenerateError):
        asymptotic_moments(mp, wf, 0.0, 3)
    mp2 = MomentProvider(e_m2_values=lambda t: 1.0, e_mprime_values=lambda t: 0.0)
    with pytest.raises(DegenerateError):
        asymptotic_moments(mp2, wf, 0.0, 3)


def test_moment_validation():
    mp = MomentProvider(e_m2_values=lambda t: -1.0, e_mprime_values=lambda t: -1.0)
    wf = WeightFamily(h_values=lambda t: 1.0)
    with pytest.raises(ValueError):
        asymptotic_moments(mp, wf, 0.0, 2)


def test_degeneracy_tolerance_scales_with_terms():
    small = degeneracy_tolerance(np.array([1.0, -1.0]))
    large = degeneracy_tolerance(np.array([1e6, -1e6]))
    assert small < large
    assert small >= 1e-12
