"""Tests for the one-step updates, studentization, and weight optimality."""

import math

import numpy as np
import pytest
from scipy import optimize

from onestep import (
    EstimatingFamily,
    Interval,
    MomentProvider,
    Sample,
    WeightFamily,
    efficiency_ratio,
    newton_solve,
    one_step_factorized,
    one_step_weighted,
    optimal_weights,
    studentize,
    unit_weights,
)
from onestep.core import m_values, score_sums, weight_prime_values, weight_values
from onestep.errors import (
    DegenerateDenominatorError,
    MissingDerivativeError,
    NoConvergenceError,
    SignMismatchError,
    ZeroVarianceError,
)


def linear_setup():
    a = np.array([1.0, 2.0])
    fam = EstimatingFamily(
        m_terms=lambda t, xs: xs - a * t,
        m_prime_terms=lambda t, xs: -a,
    )
    wf = WeightFamily(h_values=lambda t: a, h_prime_values=lambda t: 0.0)
    s = Sample(x=[1.0, 3.0], a=a)
    return fam, wf, s


def mm_setup():
    # f_i(t) = a_i / (1 + b_i t) with a = (2, 3), b = (1, 2); the weighted
    # score uses h = f' whose t-derivative is f''.
    a = np.array([2.0, 3.0])
    b = np.array([1.0, 2.0])
    domain = Interval(-0.5, math.inf)

    fam = EstimatingFamily(
        m_terms=lambda t, xs: xs - a / (1.0 + b * t),
        m_prime_terms=lambda t, xs: a * b / (1.0 + b * t) ** 2,
        domain=domain,
    )
    wf = WeightFamily(
        h_values=lambda t: -a * b / (1.0 + b * t) ** 2,
        h_prime_values=lambda t: 2.0 * a * b**2 / (1.0 + b * t) ** 3,
    )
    s = Sample(x=[1.1, 0.9], a=a, b=b)
    return fam, wf, s


def test_one_step_weighted_linear_from_two_starts():
    fam, wf, s = linear_setup()
    r0 = one_step_weighted(fam, wf, 0.0, s)
    r1 = one_step_weighted(fam, wf, 1.0, s)
    # the weighted score is linear in t, so a single step lands on the root
    # sum a x / sum a^2 = 7/5 from anywhere
    assert r0.theta_hat == 1.4
    assert r1.theta_hat == 1.4
    assert r0.denominator == -5.0
    assert r0.theta_star == 0.0


def test_one_step_equals_weighted_with_unit_weights():
    # with unit weights the update is the plain Newton step on sum_i M_i
    fam, _, s = linear_setup()
    weighted = one_step_weighted(fam, unit_weights(), 0.3, s)
    den = math.fsum(-s.a)
    assert weighted.theta_hat == 0.3 - math.fsum(s.x - s.a * 0.3) / den
    assert weighted.denominator == den


def test_one_step_weighted_scale_invariance():
    fam, wf, s = linear_setup()
    doubled = WeightFamily(h_values=lambda t: 2.0 * wf.h_values(t))
    base = one_step_weighted(fam, wf, 0.25, s)
    scaled = one_step_weighted(fam, doubled, 0.25, s)
    assert scaled.theta_hat == base.theta_hat
    assert scaled.denominator == 2.0 * base.denominator


def test_one_step_degenerate_denominator():
    a = np.array([1.0, 2.0])
    fam = EstimatingFamily(
        m_terms=lambda t, xs: xs - a * t,
        m_prime_terms=lambda t, xs: 0.0,
    )
    with pytest.raises(DegenerateDenominatorError):
        one_step_weighted(fam, unit_weights(), 0.0, Sample(x=[1.0, 3.0], a=a))


def test_one_step_factorized_example():
    fam, wf, s = mm_setup()
    res = one_step_factorized(fam, wf, 1.0, s)
    # frozen: num = 1/60, den = -11/15, update = 1 - num/den = 45/44
    assert res.denominator == pytest.approx(-0.7333333333333333, rel=1e-15)
    assert res.theta_hat == pytest.approx(1.0227272727272727, rel=1e-15)
    # the plain weighted step on the same data uses only sum h m' and differs
    plain = one_step_weighted(fam, wf, 1.0, s)
    assert plain.theta_hat != res.theta_hat


def test_one_step_factorized_needs_weight_derivative():
    fam, wf, s = mm_setup()
    bare = WeightFamily(h_values=wf.h_values)
    with pytest.raises(MissingDerivativeError):
        one_step_factorized(fam, bare, 1.0, s)


def test_weight_prime_values_names_a_missing_derivative():
    _, wf, _ = mm_setup()
    bare = WeightFamily(h_values=wf.h_values)
    with pytest.raises(MissingDerivativeError, match="carries no derivative"):
        weight_prime_values(bare, 1.0, 2)


def test_one_step_factorized_constant_weights_reduce_to_weighted():
    fam, wf, s = mm_setup()
    const = WeightFamily(h_values=lambda t: wf.h_values(1.0), h_prime_values=lambda t: 0.0)
    a = one_step_weighted(fam, const, 1.0, s)
    b = one_step_factorized(fam, const, 1.0, s)
    assert a.theta_hat == b.theta_hat


def test_studentize_example():
    fam, wf, s = linear_setup()
    d_star, ci = studentize(fam, wf, 0.0, 1.4, s)
    # numerator: sum a (-a) = -5 at theta_star = 0; denominator: residuals at
    # theta_hat = 1.4 give sum of squares 0.32
    assert d_star == pytest.approx(-8.838834764831844, rel=1e-15)
    half = 1.9599639845400543 / abs(d_star)
    assert ci[0] == pytest.approx(1.4 - half, rel=1e-12)
    assert ci[1] == pytest.approx(1.4 + half, rel=1e-12)
    assert ci[0] < 1.4 < ci[1]


def test_studentize_narrows_with_alpha():
    fam, wf, s = linear_setup()
    _, wide = studentize(fam, wf, 0.0, 1.4, s, alpha=0.01)
    _, narrow = studentize(fam, wf, 0.0, 1.4, s, alpha=0.20)
    assert wide[0] < narrow[0] < narrow[1] < wide[1]


def test_studentize_alpha_validation():
    fam, wf, s = linear_setup()
    for alpha in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(Exception):
            studentize(fam, wf, 0.0, 1.4, s, alpha=alpha)


def test_studentize_perfect_fit_degenerates():
    # residuals identically zero at theta_hat: the variance sum is an exact
    # zero and no interval exists
    fam, wf, _ = linear_setup()
    s = Sample(x=[0.5, 1.0], a=[1.0, 2.0])  # x = a * 0.5 exactly
    with pytest.raises(DegenerateDenominatorError):
        studentize(fam, wf, 0.4, 0.5, s)


def test_studentize_evaluation_points():
    # numerator terms are taken at theta_star, variance terms at theta_hat;
    # swapping the points must change the statistic on asymmetric data
    fam, wf, s = mm_setup()
    d_a, _ = studentize(fam, wf, 1.0, 1.02, s)
    d_b, _ = studentize(fam, wf, 1.02, 1.0, s)
    assert d_a != d_b


def test_optimal_weights_ratio_is_one():
    rng = np.random.Generator(np.random.Philox(key=np.array([31, 0], dtype=np.uint64)))
    for trial in range(50):
        n = int(rng.integers(2, 20))
        e2 = rng.uniform(0.2, 3.0, n)
        ed = -rng.uniform(0.2, 3.0, n)
        mp = MomentProvider(e_m2_values=lambda t: e2, e_mprime_values=lambda t: ed)
        ho = optimal_weights(mp, 0.0, n)
        ratio, bound = efficiency_ratio(ho, mp, 0.0, n)
        assert ratio == pytest.approx(1.0, abs=1e-13)
        assert bound == pytest.approx(1.0, abs=1e-13)


def test_optimal_weights_values_and_zero_variance():
    e2 = np.array([1.0, 4.0])
    ed = np.array([-2.0, -2.0])
    mp = MomentProvider(e_m2_values=lambda t: e2, e_mprime_values=lambda t: ed)
    ho = optimal_weights(mp, 0.0, 2)
    assert weight_values(ho, 0.0, 2)[0] == -2.0
    assert weight_values(ho, 0.0, 2)[1] == -0.5
    assert weight_prime_values(ho, 0.0, 2)[0] == 0.0
    bad = MomentProvider(e_m2_values=lambda t: 0.0, e_mprime_values=lambda t: -1.0)
    with pytest.raises(ZeroVarianceError):
        optimal_weights(bad, 0.0, 2)


def test_efficiency_ratio_two_point_example():
    # E M' = (-1, -1), E M^2 = (1, 1) make the optimal weights (-1, -1);
    # h = (1, 4) has per-index ratios (-1, -4), spread 4.  The variance ratio
    # is 2*17/25 * ... = 1.36 while the first-power bound evaluates to 1.25:
    # the ratio genuinely exceeds it, only the squared bound 1.5625 holds.
    mp = MomentProvider(e_m2_values=lambda t: 1.0, e_mprime_values=lambda t: -1.0)
    wf = WeightFamily(h_values=lambda t: np.array([1.0, 4.0]))
    ratio, bound = efficiency_ratio(wf, mp, 0.0, 2)
    assert ratio == pytest.approx(1.36, rel=1e-15)
    assert bound == pytest.approx(1.25, rel=1e-15)
    assert ratio > bound
    assert ratio <= bound * bound


def test_efficiency_ratio_provable_sandwich():
    # property: 1 <= ratio <= bound^2 <= spread, for random sign-consistent
    # weight families
    rng = np.random.Generator(np.random.Philox(key=np.array([32, 0], dtype=np.uint64)))
    for trial in range(400):
        n = int(rng.integers(2, 21))
        e2 = rng.uniform(0.1, 5.0, n)
        ed = -rng.uniform(0.1, 5.0, n)
        h = (ed / e2) * rng.uniform(0.2, 5.0, n)
        mp = MomentProvider(e_m2_values=lambda t: e2, e_mprime_values=lambda t: ed)
        wf = WeightFamily(h_values=lambda t: h)
        ratio, bound = efficiency_ratio(wf, mp, 0.0, n)
        ratios = np.abs(h * e2 / ed)
        spread = float(np.max(ratios) / np.min(ratios))
        assert 1.0 <= ratio * (1.0 + 1e-12)
        assert ratio <= bound * bound * (1.0 + 1e-12)
        assert bound * bound <= spread * (1.0 + 1e-12)


def test_efficiency_ratio_sign_handling():
    mp = MomentProvider(e_m2_values=lambda t: 1.0, e_mprime_values=lambda t: -1.0)
    up = WeightFamily(h_values=lambda t: np.array([1.0, 4.0]))
    down = WeightFamily(h_values=lambda t: np.array([-1.0, -4.0]))
    r_up, b_up = efficiency_ratio(up, mp, 0.0, 2)
    r_down, b_down = efficiency_ratio(down, mp, 0.0, 2)
    assert r_up == r_down
    assert b_up == b_down
    mixed = WeightFamily(h_values=lambda t: np.array([1.0, -4.0]))
    with pytest.raises(SignMismatchError):
        efficiency_ratio(mixed, mp, 0.0, 2)


def test_newton_solve_linear_in_one_iteration():
    a = np.array([1.0, 2.0])
    calls = {"m": 0}

    def m_terms(t, xs):
        calls["m"] += 1
        return xs - a * t

    fam = EstimatingFamily(m_terms=m_terms, m_prime_terms=lambda t, xs: -a)
    wf = WeightFamily(h_values=lambda t: a)
    s = Sample(x=[1.0, 3.0], a=a)
    root = newton_solve(fam, wf, 0.0, s)
    assert root == pytest.approx(1.4, rel=1e-15)
    # one score evaluation at the start plus one at the accepted candidate
    assert calls["m"] == 2


def test_newton_solve_matches_bracketing_root():
    fam, wf, s = mm_setup()
    ours = newton_solve(fam, wf, 0.2, s, tol=1e-12)

    def frozen_score(t):
        return float(np.sum(weight_values(wf, 0.2, s.n) * m_values(fam, t, s.x)))

    ref = optimize.brentq(frozen_score, 0.5, 2.0, xtol=1e-13)
    assert ours == pytest.approx(ref, abs=1e-9)


def test_newton_solve_freezes_weights_at_start():
    fam, wf, s = mm_setup()
    start = 0.8
    root = newton_solve(fam, wf, start, s, tol=1e-12)
    frozen = WeightFamily(h_values=lambda t: wf.h_values(start), h_prime_values=lambda t: 0.0)
    at_frozen, _ = score_sums(fam, frozen, root, s)
    at_live, _ = score_sums(fam, wf, root, s)
    assert abs(at_frozen) <= 1e-12
    # the live-weight score does not vanish at this root
    assert abs(at_live) > 1e-6


def test_newton_solve_budget_exhaustion():
    fam, wf, s = mm_setup()
    with pytest.raises(NoConvergenceError):
        newton_solve(fam, wf, 0.2, s, max_iter=1, tol=1e-15)


def test_newton_solve_respects_domain():
    fam, wf, s = mm_setup()
    root = newton_solve(fam, wf, 0.2, s, tol=1e-12)
    assert fam.domain.contains(root)


def test_newton_solve_argument_validation():
    fam, wf, s = mm_setup()
    with pytest.raises(ValueError):
        newton_solve(fam, wf, 0.2, s, max_iter=0)
    with pytest.raises(ValueError):
        newton_solve(fam, wf, 0.2, s, tol=0.0)
