"""Tests for the regression model zoo, adapters, and explicit estimators."""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from onestep import (
    Contrasts,
    Interval,
    RegressionModel,
    Sample,
    default_contrasts,
    generalized_families,
    linear_model,
    lse_one_step,
    mm_closed_form,
    mm_model,
    moment_provider,
    one_step_factorized,
    one_step_weighted,
    plinear_model,
    preliminary_mm,
    preliminary_plinear,
    preliminary_sqrt,
    sqrt_model,
    to_families,
)
from onestep.core import (
    m_prime_values,
    m_values,
    moment_values,
    weight_prime_values,
    weight_values,
)
from onestep.errors import (
    ConfigError,
    ConstraintError,
    DegenerateDenominatorError,
    DivisionByZeroError,
    DomainError,
    MissingDerivativeError,
    NonFiniteError,
)
from onestep import regression
from onestep.montecarlo import default_grid
from termwise import mm_one_step, plinear_one_step, weighted_one_step


def mm_example():
    model = mm_model([2.0, 3.0], [1.0, 2.0])
    s = Sample(x=[1.1, 0.9], a=[2.0, 3.0], b=[1.0, 2.0])
    return model, s


def plinear_example():
    model = plinear_model(
        [1.0, 2.0, 3.0],
        [1.0, 1.0, 2.0],
        g=lambda t: t * t,
        g_prime=lambda t: 2.0 * t,
        g_second=lambda t: 2.0,
    )
    s = Sample(x=[2.05, 2.97, 5.02], a=[1.0, 2.0, 3.0], b=[1.0, 1.0, 2.0])
    return model, s


# --- factories ---

def test_factory_validation():
    with pytest.raises(ValueError):
        sqrt_model([1.0, -2.0])  # a must be positive
    with pytest.raises(ValueError):
        mm_model([1.0], [0.0])  # b must be positive
    with pytest.raises(ValueError):
        mm_model([1.0, 2.0], [1.0])  # length mismatch
    with pytest.raises(ValueError):
        mm_model([1.0], [1.0], weights=[2.0], weight_fn=lambda t: 1.0)
    with pytest.raises(ValueError):
        linear_model([1.0, 2.0], sigma=0.0)
    with pytest.raises(ValueError):
        linear_model([1.0, 2.0], weights=[1.0, -1.0])


def test_sqrt_model_domain():
    model = sqrt_model([1.0, 4.0])
    assert model.domain.lo == -0.25
    assert model.values("f", 0.0)[0] == 1.0
    with pytest.raises(DomainError):
        model.values("f", -0.3)
    with pytest.raises(DomainError):
        model.values("f_prime", -0.25)  # boundary itself is excluded


def test_mm_model_domain():
    model = mm_model([1.0, 1.0], [1.0, 2.0])
    assert model.domain.lo == -0.5
    with pytest.raises(DomainError):
        model.values("f", -0.5)


def test_model_evaluators_refuse_the_domain_bound():
    # every evaluator of a model with a finite domain bound, and of its
    # families and moment provider, raises DomainError at the bound itself,
    # each family evaluator twice, so a failed check is not remembered
    a, b = default_grid(2000)
    models = [
        mm_example()[0],
        plinear_example()[0],
        linear_model(a, weights=1.0 + b),
        sqrt_model(a),
        plinear_model(
            a, b, g=lambda t: t * t, g_prime=lambda t: 2.0 * t, g_second=lambda t: 2.0,
            domain=Interval(-1.0, 3.0),
        ),
        mm_model(a, b, weight_fn=lambda t: 1.0 + t * t, weight_fn_prime=lambda t: 2.0 * t),
        mm_model(a, b, weights=1.0 + a),
    ]
    bounded = 0
    for model in models:
        if not math.isfinite(model.domain.lo):
            continue
        bounded += 1
        n, lo = model.n, model.domain.lo  # the open domain excludes its bound
        xs = np.ones(n)
        for name in ("f", "f_prime", "f_second", "w", "w_prime"):
            with pytest.raises(DomainError):
                model.values(name, lo)
        fam, wf = to_families(model)
        gfam, gwf = generalized_families(model, lambda t: 2.0, lambda t: 0.0)
        mp = moment_provider(model)
        evaluators = (
            lambda: m_values(fam, lo, xs), lambda: m_prime_values(fam, lo, xs),
            lambda: weight_values(wf, lo, n), lambda: weight_prime_values(wf, lo, n),
            lambda: m_values(gfam, lo, xs), lambda: m_prime_values(gfam, lo, xs),
            lambda: weight_values(gwf, lo, n),
        )
        for evaluate in evaluators + evaluators + (
            lambda: mp.e_m2_values(lo), lambda: mp.e_mprime_values(lo)
        ):
            with pytest.raises(DomainError):
                evaluate()
    assert bounded == 5


def counting_model(calls):
    """A model on (0, inf) whose f, f' and w append their name to calls when they run."""

    def counted(name, evaluate):
        def values(t):
            calls.append(name)
            return evaluate(t)

        return values

    return RegressionModel(
        n=2, sigma=1.0, domain=Interval(0.0, math.inf),
        f_values=counted("f", lambda t: np.array([1.0, 2.0]) * t),
        f_prime_values=counted("f_prime", lambda t: np.array([1.0, 2.0])),
        w_values=counted("w", lambda t: 1.0 + t),
    )


def test_model_values_evaluate_once_per_parameter_value():
    # repeated reads at one t run each evaluator once and give the same
    # object; t is keyed by its bytes, so a numpy scalar of the same value
    # hits and a (1, 1) column does not
    calls = []
    model = counting_model(calls)
    f = model.values("f", 1.0)
    assert model.values("f", 1.0) is f and model.values("f", np.float64(1.0)) is f
    assert model.values("w", 1.0) is model.values("w", 1.0)
    assert calls == ["f", "w"]
    assert model.values("f", np.array([[1.0]])).shape == (1, 2)
    assert calls == ["f", "w", "f"]
    # keep=False evaluates without keeping, and takes a kept value as it is
    assert model.values("f_prime", 2.0, keep=False) is not model.values("f_prime", 2.0, keep=False)
    assert calls[3:] == ["f_prime", "f_prime"]
    w = model.values("w", 2.0)
    assert model.values("w", 2.0, keep=False) is w
    assert calls[5:] == ["w"]


def test_model_values_keep_no_value_outside_the_domain():
    # a value outside the domain, or not finite, raises on every call
    # without running an evaluator, and the values kept at the last value in
    # the domain stay; a missing evaluator raises on every call too
    calls = []
    model = counting_model(calls)
    f = model.values("f", 1.0)
    for _ in range(2):
        with pytest.raises(DomainError):
            model.values("f", -1.0)
        with pytest.raises(DomainError):
            model.values("w", 0.0)
        with pytest.raises(NonFiniteError):
            model.values("f", math.nan)
        with pytest.raises(MissingDerivativeError, match="model carries no f_second_values"):
            model.values("f_second", 1.0)
        with pytest.raises(MissingDerivativeError, match="model carries no w_prime_values"):
            model.values("w_prime", 1.0)
    assert model.values("f", 1.0) is f
    assert calls == ["f"]


def test_model_values_stay_out_of_the_fields():
    # ==, the hash, repr and dataclasses.fields ignore what values keeps,
    # and a model made by dataclasses.replace starts with nothing kept
    calls = []
    model = counting_model(calls)
    before = (hash(model), repr(model))
    model.values("f", 1.0)
    assert (hash(model), repr(model)) == before
    fields = [field.name for field in dataclasses.fields(model)]
    assert fields == list(RegressionModel.__annotations__) == list(dataclasses.asdict(model))
    copy = dataclasses.replace(model)
    assert copy == model and hash(copy) == hash(model) and repr(copy) == repr(model)
    copy.values("f", 1.0)
    assert calls == ["f", "f"]
    assert copy.values("f", 1.0) is not model.values("f", 1.0)
    assert calls == ["f", "f"]


def test_model_values_are_kept_per_thread():
    # another thread reading at another value leaves this thread's values
    calls = []
    model = counting_model(calls)
    f = model.values("f", 1.0)
    with ThreadPoolExecutor(max_workers=1) as pool:
        other = pool.submit(model.values, "f", 2.0).result()
        assert pool.submit(model.values, "f", 2.0).result() is other
    assert model.values("f", 1.0) is f
    assert calls == ["f", "f"]


@pytest.mark.parametrize("width", [1, 2])
def test_model_evaluators_take_the_families_width_rule(width):
    # a custom model's f_values of the wrong width is named, neither
    # broadcast silently (width 1) nor left to numpy's broadcast error
    model = RegressionModel(
        n=3, sigma=1.0,
        f_values=lambda t: np.full(width, t),
        f_prime_values=lambda t: np.ones(3),
        w_values=lambda t: np.ones(3),
    )
    s = Sample(x=[1.0, 2.0, 1.5], a=[1.0, 1.0, 1.0])
    message = f"an evaluator returned {width} values per row, expected 3"
    with pytest.raises(ValueError, match=message):
        one_step_weighted(*to_families(model), 0.5, s)


def test_heteroscedastic_mm_weights():
    model = mm_model(
        [2.0, 3.0], [1.0, 2.0],
        weight_fn=lambda t: 1.0 + t * t,
        weight_fn_prime=lambda t: 2.0 * t,
    )
    assert model.values("w", 2.0)[0] == 5.0
    assert model.values("w_prime", 2.0)[1] == 4.0
    assert np.array_equal(model.w_values(3.0), np.array([10.0, 10.0]))


# --- adapters ---

def test_to_families_score_shape():
    model, s = mm_example()
    fam, wf = to_families(model)
    # M = x - f and h = w f' at a point checked by hand
    assert m_values(fam, 0.0, s.x)[0] == pytest.approx(1.1 - 2.0, rel=1e-15)
    assert m_prime_values(fam, 0.0, s.x)[0] == pytest.approx(2.0, rel=1e-15)  # -f' = ab
    assert weight_values(wf, 0.0, s.n)[0] == pytest.approx(-2.0, rel=1e-15)
    assert wf.h_prime_values is not None


def test_to_families_weight_derivative():
    # h = w f' has derivative w' f' + w f''; check against a central difference
    model = mm_model(
        [2.0, 3.0], [1.0, 2.0],
        weight_fn=lambda t: 1.0 + t * t,
        weight_fn_prime=lambda t: 2.0 * t,
    )
    _, wf = to_families(model)
    t, d = 0.4, 1e-5
    numeric = (weight_values(wf, t + d, 2) - weight_values(wf, t - d, 2)) / (2 * d)
    analytic = weight_prime_values(wf, t, 2)
    assert np.allclose(analytic, numeric, rtol=1e-8, atol=1e-8)
    assert wf.h_prime_values is not None


def test_to_families_without_weight_derivative_carries_no_h_prime():
    # weight_fn without its derivative: the families carry no h', so the
    # factorized step raises MissingDerivativeError, also next to the domain
    # bound -0.5 that a difference quotient would have probed past
    model = mm_model([2.0, 3.0], [1.0, 2.0], weight_fn=lambda t: 1.0 + t * t)
    fam, wf = to_families(model)
    assert wf.h_prime_values is None
    s = Sample(x=[1.1, 0.9], a=[2.0, 3.0], b=[1.0, 2.0])
    for theta_star in (0.4, -0.4999999):
        with pytest.raises(MissingDerivativeError):
            one_step_factorized(fam, wf, theta_star, s)
    res = one_step_weighted(fam, wf, 0.4, s)
    fp = -np.array([2.0, 6.0]) / np.square(1.0 + np.array([1.0, 2.0]) * 0.4)
    h = 1.16 * fp
    resid = s.x - np.array([2.0, 3.0]) / (1.0 + np.array([1.0, 2.0]) * 0.4)
    expected = 0.4 - math.fsum(h * resid) / math.fsum(-h * fp)
    assert res.theta_hat == pytest.approx(expected, rel=1e-12)


def test_weighted_one_step_matches_core_adapter_bitwise():
    rng = np.random.Generator(np.random.Philox(key=np.array([41, 0], dtype=np.uint64)))
    for trial in range(50):
        n = int(rng.integers(2, 30))
        a = rng.uniform(0.5, 3.0, n)
        b = rng.uniform(0.2, 2.0, n)
        x = rng.uniform(0.1, 3.0, n)
        ts = float(rng.uniform(0.2, 1.5))
        model = mm_model(a, b, weights=rng.uniform(0.5, 2.0, n))
        s = Sample(x=x, a=a, b=b)
        fam, wf = to_families(model)
        direct = weighted_one_step(model, ts, s)
        via_core = one_step_weighted(fam, wf, ts, s)
        assert direct == via_core.theta_hat


def test_generalized_families_zero_factor():
    model, s = mm_example()
    fam, wf = generalized_families(
        model,
        g_values=lambda t: t,  # vanishes at t = 0
        g_prime_values=lambda t: 1.0,
    )
    with pytest.raises(DivisionByZeroError):
        weight_values(wf, 0.0, model.n)
    assert m_values(fam, 1.0, s.x)[0] == pytest.approx(1.1 - 1.0, rel=1e-12)


def test_moment_provider_values():
    model = mm_model([2.0, 3.0], [1.0, 2.0], sigma=0.5, weights=[1.0, 4.0])
    mp = moment_provider(model)
    e2, _ = moment_values(mp, 1.0, model.n)
    assert e2[0] == pytest.approx(0.25, rel=1e-15)
    assert e2[1] == pytest.approx(0.0625, rel=1e-15)
    assert moment_values(mp, 0.0, model.n)[1][0] == pytest.approx(2.0, rel=1e-15)  # -f'(0) = ab


# --- contrasts and preliminary estimators ---

def test_default_contrasts_sum_zero():
    s = Sample(x=np.zeros(5), a=[1.0, 2.0, 3.0, 4.0, 5.0])
    c = default_contrasts(s, "sum_zero")
    assert abs(math.fsum(c.c)) < 1e-14
    assert np.max(np.abs(c.c)) == 1.0
    assert c.sums_to_zero


def test_default_contrasts_b_orthogonal():
    s = Sample(
        x=np.zeros(4), a=[1.0, 2.0, 3.0, 4.0], b=[1.0, 1.0, 2.0, 2.0]
    )
    c = default_contrasts(s, "b_orthogonal")
    assert abs(math.fsum(c.c * s.b)) < 1e-14
    assert np.max(np.abs(c.c)) == 1.0


def test_b_orthogonal_contrast_keeps_the_unscaled_bits_in_the_normal_range():
    # the projection on b unscaled, as oracle: where a * b and b * b stay
    # normal, scaling b by a power of two changes no bit
    rng = np.random.default_rng(5)
    for scale in (2.0**-300, 1e-5, 1.0, 3.7, 1e5, 2.0**300):
        a = rng.uniform(-2.0, 2.0, 50)
        b = rng.uniform(0.1, 2.0, 50) * scale
        bb = regression._wide_sum(b * b, "b squared")
        c = a - (regression._wide_sum(a * b, "a b") / bb) * b
        c = c - (regression._wide_sum(c * b, "c b") / bb) * b
        c = c / np.max(np.abs(c))
        got = default_contrasts(Sample(x=np.zeros(50), a=a, b=b), "b_orthogonal").c
        assert got.view(np.uint64).tolist() == c.view(np.uint64).tolist()


def test_default_contrasts_degenerate_designs():
    flat = Sample(x=np.zeros(3), a=[2.0, 2.0, 2.0])
    with pytest.raises(DegenerateDenominatorError):
        default_contrasts(flat, "sum_zero")
    proportional = Sample(x=np.zeros(3), a=[1.0, 2.0, 3.0], b=[2.0, 4.0, 6.0])
    with pytest.raises(DegenerateDenominatorError):
        default_contrasts(proportional, "b_orthogonal")


def test_contrasts_validation():
    with pytest.raises(ValueError):
        Contrasts(c=[])


def test_preliminary_sqrt_example():
    s = Sample(
        x=[math.sqrt(2.0) + 0.04, 1.95],
        a=[1.0, 3.0],
        w_known=[1.0, 2.0],
    )
    c = Contrasts(c=[-1.0, 1.0])
    assert preliminary_sqrt(c, s) == pytest.approx(0.8980525830020305, rel=1e-15)


def test_preliminary_sqrt_constraint_enforced():
    s = Sample(x=[1.0, 2.0], a=[1.0, 3.0])
    bad = Contrasts(c=[1.0, 1.0])
    with pytest.raises(ConstraintError):
        preliminary_sqrt(bad, s)


def test_sum_zero_is_tested_once_per_contrast_vector(monkeypatch):
    calls = []
    sums_to_zero = regression._sums_to_zero
    monkeypatch.setattr(
        regression, "_sums_to_zero", lambda terms: calls.append(None) or sums_to_zero(terms)
    )
    s = Sample(x=[1.0, 2.0], a=[1.0, 3.0])
    good = Contrasts(c=[-1.0, 1.0])
    bad = Contrasts(c=[1.0, 1.0])
    assert preliminary_sqrt(good, s) == preliminary_sqrt(good, s)
    for _ in range(2):
        with pytest.raises(ConstraintError):
            preliminary_sqrt(bad, s)
    assert len(calls) == 2


def test_contrast_denominator_is_summed_once_per_design(monkeypatch):
    calls = []
    checked_sum = regression._checked_sum
    monkeypatch.setattr(
        regression, "_checked_sum", lambda *args: calls.append(None) or checked_sum(*args)
    )
    rng = np.random.default_rng(32)
    n = 1500  # above the exact-sum crossover
    a, w = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 1.5, n)
    c = Contrasts(c=np.tile([-1.0, 1.0], n // 2))
    s = Sample(x=rng.uniform(0.5, 2.0, n), a=a, w_known=w)
    block = Sample(x=np.stack([s.x, s.x[::-1]]), a=s.a, w_known=s.w_known)
    cw = c.c * s.w_known
    for x, theta in zip(block.x, preliminary_sqrt(c, block)):
        want = math.fsum((cw * (np.square(x) - 1.0)).tolist()) / math.fsum((cw * a).tolist())
        assert theta.hex() == want.hex()
    assert preliminary_sqrt(c, s) == preliminary_sqrt(c, block)[0]
    assert len(calls) == 1
    # another design, even with the same values, is summed again; plinear
    # sums c a, without the known weights
    preliminary_sqrt(c, Sample(x=s.x, a=a.copy(), w_known=s.w_known))
    preliminary_plinear(c, Sample(x=s.x, a=s.a))
    assert len(calls) == 3
    # a denominator that raises is not kept
    flat = Sample(x=s.x, a=np.ones(n))
    for _ in range(2):
        with pytest.raises(DegenerateDenominatorError, match="^contrast denominator is num"):
            preliminary_plinear(c, flat)
    assert len(calls) == 5


def test_b_orthogonality_is_tested_once_per_contrast_vector_and_b(monkeypatch):
    calls = []
    sums_to_zero = regression._sums_to_zero
    monkeypatch.setattr(
        regression, "_sums_to_zero", lambda terms: calls.append(None) or sums_to_zero(terms)
    )
    s = Sample(x=[1.0, 2.0, 4.0], a=[1.0, 3.0, 2.0], b=[1.0, 1.0, 1.0])
    good = Contrasts(c=[-1.0, 1.0, 0.0])
    bad = Contrasts(c=[1.0, 1.0, 0.0])
    block = Sample(x=[[1.0, 2.0, 4.0], [2.0, 1.0, 3.0]], a=s.a, b=s.b)
    assert block.b is s.b  # frozen arrays pass as they are: one b for the campaign
    assert preliminary_plinear(good, s) == preliminary_plinear(good, block)[0]
    for _ in range(2):
        with pytest.raises(ConstraintError, match="orthogonal to b"):
            preliminary_plinear(bad, block)
    assert len(calls) == 2
    # another b, even with the same values, is tested again
    preliminary_plinear(good, Sample(x=s.x, a=s.a, b=[1.0, 1.0, 1.0]))
    assert len(calls) == 3
    # a contrast of the wrong length is named before its orthogonality
    with pytest.raises(ValueError, match="contrast length 2 does not match sample size 3"):
        preliminary_plinear(Contrasts(c=[1.0, 1.0]), s)
    assert len(calls) == 3


def test_contrast_constraints_are_tested_at_any_scale():
    # sum |c| overflows a double in each case below
    assert Contrasts(c=[1e308, -1e308, 0.0]).sums_to_zero
    lopsided = Contrasts(c=[1e308, 1e308, -1e308])
    with pytest.raises(ConstraintError):
        preliminary_sqrt(lopsided, Sample(x=[1.0, 2.0, 3.0], a=[1.0, 2.0, 3.0]))
    s = Sample(x=[1.0, 2.0, 3.0], a=[1.0, 2.0, 3.0], b=[1.0, 1.0, 1.5])
    with pytest.raises(ConstraintError):
        preliminary_plinear(Contrasts(c=[1e308, 1e308, -1e308]), s)
    # c * b overflows in both cases below; b is scaled to a unit peak first
    overflowing = Contrasts(c=[1e308, 1e308, -1.6e308])
    with pytest.raises(ConstraintError):
        preliminary_plinear(overflowing, s)
    assert Contrasts(c=[1e308, 1e308, -1e308 / 0.75]).orthogonal_to(s.b)
    # a power-of-two scale changes no decision
    for c in ([-1.0, 1.0, 0.0], [1.0, 1.0, -2.0 + 2.0**-40], [3.0, -1.0, -2.0]):
        decisions = {
            Contrasts(c=np.array(c) * scale).sums_to_zero
            for scale in (2.0**-1000, 1.0, 2.0**1000)
        }
        assert len(decisions) == 1


def test_sqrt_one_step_example():
    s = Sample(
        x=[math.sqrt(2.0) + 0.04, 1.95],
        a=[1.0, 3.0],
        w_known=[1.0, 2.0],
    )
    c = Contrasts(c=[-1.0, 1.0])
    ts = preliminary_sqrt(c, s)
    model = sqrt_model([1.0, 3.0], weights=[1.0, 2.0])
    assert weighted_one_step(model, ts, s) == pytest.approx(0.9509793104958609, rel=1e-14)


def test_lse_one_step_example():
    model = sqrt_model([1.0, 3.0])
    s = Sample(x=[1.40, 2.05], a=[1.0, 3.0])
    res = lse_one_step(model, 0.9, s)
    assert res.theta_hat == pytest.approx(1.0361723539544934, rel=1e-14)
    assert res.denominator == pytest.approx(0.7817280827130578, rel=1e-14)


def test_lse_one_step_needs_second_derivative():
    model = plinear_model(
        [1.0, 2.0], [1.0, 1.0], g=lambda t: t * t, g_prime=lambda t: 2.0 * t
    )
    s = Sample(x=[1.0, 2.0], a=[1.0, 2.0], b=[1.0, 1.0])
    with pytest.raises(MissingDerivativeError):
        lse_one_step(model, 0.5, s)


def test_lse_matches_weighted_when_f_is_linear():
    # with f'' = 0 and unit weights the two updates share every term
    a = np.array([1.0, 2.0, 3.0])
    model = linear_model(a)
    s = Sample(x=[1.1, 1.9, 3.2], a=a)
    lse = lse_one_step(model, 0.4, s)
    wos = one_step_weighted(*to_families(model), 0.4, s)
    assert lse.theta_hat == wos.theta_hat


def test_preliminary_plinear_example():
    _, s = plinear_example()
    c = Contrasts(c=[-1.0, 1.0, 0.0])
    assert preliminary_plinear(c, s) == pytest.approx(0.92, rel=1e-15)


def test_preliminary_plinear_constraint_enforced():
    _, s = plinear_example()
    bad = Contrasts(c=[1.0, 1.0, 0.0])
    with pytest.raises(ConstraintError):
        preliminary_plinear(bad, s)


def test_plinear_one_step_example():
    _, s = plinear_example()
    c = Contrasts(c=[-1.0, 1.0, 0.0])
    ts = preliminary_plinear(c, s)
    res = plinear_one_step(lambda t: t * t, lambda t: 2.0 * t, ts, s)
    assert res == pytest.approx(1.0042805960233474, rel=1e-14)


def test_plinear_one_step_matches_adapter():
    model, s = plinear_example()
    fam, wf = to_families(model)
    direct = plinear_one_step(lambda t: t * t, lambda t: 2.0 * t, 0.92, s)
    via_core = one_step_weighted(fam, wf, 0.92, s)
    assert direct == via_core.theta_hat


def test_preliminary_mm_example():
    _, s = mm_example()
    assert preliminary_mm([1.0, 1.0], s) == pytest.approx(1.0344827586206897, rel=1e-15)


def test_preliminary_mm_needs_b():
    s = Sample(x=[1.0, 2.0], a=[1.0, 2.0])
    with pytest.raises(ValueError):
        preliminary_mm([1.0, 1.0], s)


def test_mm_default_preliminary_gives_the_bits_of_explicit_ones():
    # the default coefficients are one 0-d 1.0, which holds no vector of
    # length n; a product by 1.0 is exact, so they give np.ones(n)'s bits
    n = 500
    a, b = default_grid(n)
    model = mm_model(a, b)
    x = model.f_values(1.0) + 0.05 * np.random.default_rng(3).standard_normal((65, n))
    design = Sample(x=x[0], a=a, b=b)
    default = regression.resolve_preliminary(model, design)
    explicit = regression.resolve_preliminary(model, design, np.ones(n))
    for s in (design, Sample(x=x, a=a, b=b)):
        assert np.asarray(default(s)).tobytes() == np.asarray(explicit(s)).tobytes()


def test_preliminary_overflow_is_not_finite_rather_than_degenerate():
    # terms that overflow used to pass their inf to the degeneracy check,
    # which called the denominator numerically zero
    _, s = mm_example()
    with pytest.raises(NonFiniteError):
        preliminary_mm([1e308, 1e308], s)


def test_mm_one_step_example():
    model, s = mm_example()
    ts = preliminary_mm([1.0, 1.0], s)
    assert mm_one_step(model, ts, s) == pytest.approx(1.023344553403785, rel=1e-14)


def test_mm_one_step_matches_adapter():
    rng = np.random.Generator(np.random.Philox(key=np.array([42, 0], dtype=np.uint64)))
    for trial in range(50):
        n = int(rng.integers(2, 25))
        a = rng.uniform(0.5, 3.0, n)
        b = rng.uniform(0.2, 2.0, n)
        x = rng.uniform(0.1, 3.0, n)
        ts = float(rng.uniform(0.2, 1.5))
        model = mm_model(a, b)
        s = Sample(x=x, a=a, b=b)
        direct = mm_one_step(model, ts, s)
        via = one_step_weighted(*to_families(model), ts, s)
        # the reference negates the adapter's terms exactly, so they agree bit for bit
        assert direct == via.theta_hat


def test_mm_closed_form_example():
    model, s = mm_example()
    ts = preliminary_mm([1.0, 1.0], s)
    assert mm_closed_form(model, ts, s) == pytest.approx(1.0232671844840509, rel=1e-13)


def test_mm_closed_form_equals_transformed_one_step():
    # the closed form is the weighted one-step under the transformed score
    # M_i = (1 + b_i t)(x - f_i); the two implementations agree analytically
    model, s = mm_example()
    b = np.asarray(model.b)
    fam, wf = generalized_families(
        model, g_values=lambda t: 1.0 + b * t, g_prime_values=lambda t: b
    )
    ts = preliminary_mm([1.0, 1.0], s)
    closed = mm_closed_form(model, ts, s)
    via = one_step_weighted(fam, wf, ts, s)
    assert closed == pytest.approx(via.theta_hat, rel=1e-13)


def test_mm_closed_form_differs_from_plain_one_step():
    model, s = mm_example()
    ts = preliminary_mm([1.0, 1.0], s)
    assert mm_closed_form(model, ts, s) != one_step_weighted(*to_families(model), ts, s).theta_hat


# --- noiseless exactness ---

def test_noiseless_recovery_all_models():
    theta = 0.7
    for n in (2, 10, 100):
        i = np.arange(n, dtype=np.float64)
        a = 0.5 + 2.0 * i / (n - 1)
        b = 0.2 + i / (n - 1)

        sq = sqrt_model(a)
        s = Sample(x=sq.f_values(theta), a=a)
        c = default_contrasts(s, "sum_zero")
        ts = preliminary_sqrt(c, s)
        assert ts == pytest.approx(theta, abs=1e-10)
        hat = one_step_weighted(*to_families(sq), ts, s).theta_hat
        assert hat == pytest.approx(theta, abs=1e-10)
        assert lse_one_step(sq, ts, s).theta_hat == pytest.approx(theta, abs=1e-10)

        pl = plinear_model(
            a, b, g=lambda t: t * t, g_prime=lambda t: 2.0 * t, g_second=lambda t: 2.0
        )
        s = Sample(x=pl.f_values(theta), a=a, b=b)
        c = default_contrasts(s, "b_orthogonal")
        ts = preliminary_plinear(c, s)
        assert ts == pytest.approx(theta, abs=1e-10)
        hat = one_step_weighted(*to_families(pl), ts, s).theta_hat
        assert hat == pytest.approx(theta, abs=1e-10)

        mm = mm_model(a, b)
        s = Sample(x=mm.f_values(theta), a=a, b=b)
        ts = preliminary_mm(np.ones(n), s)
        assert ts == pytest.approx(theta, abs=1e-10)
        hat = one_step_weighted(*to_families(mm), ts, s).theta_hat
        assert hat == pytest.approx(theta, abs=1e-10)
        assert mm_closed_form(mm, ts, s) == pytest.approx(theta, abs=1e-10)


@pytest.mark.parametrize(
    "pipeline,message",
    [
        (
            "gradient_descent",
            "pipeline must be one of ('one_step_weighted', 'one_step_factorized', "
            "'lse_one_step', 'mm_closed_form', 'newton_oracle'), got 'gradient_descent'",
        ),
        ("mm_closed_form", "the closed-form pipeline applies to the mm model only"),
    ],
)
def test_estimation_sequence_checks_the_pipeline_before_any_step(pipeline, message):
    a, _ = default_grid(20)
    model = sqrt_model(a)
    fam, wf = to_families(model)
    s = Sample(x=model.f_values(0.7), a=a)

    def preliminary(s):
        raise AssertionError("the preliminary ran before the pipeline check")

    out = {}
    with pytest.raises(ConfigError) as excinfo:
        regression.estimation_sequence(
            model, fam, wf, preliminary, pipeline, s, 0.05, out, newton_tol=1e-9
        )
    assert str(excinfo.value) == message
    assert out == {}


# --- the failures of the least-squares step ---

def _plinear_failing(a, b, w=None):
    # f = a t and f' = a - b: b sets the slope, and no term involves g or f''
    return plinear_model(
        a, b, g=lambda t: 0.0, g_prime=lambda t: -1.0, weights=w, g_second=lambda t: 0.0
    )


# update: (its call on theta_star, a, b, x, weights, its vanishing-denominator message)
TERMWISE_UPDATES = {
    "lse_one_step": (
        lambda t, a, b, x, w: lse_one_step(_plinear_failing(a, b, w), t, Sample(x=x, a=a, b=b)),
        "curvature sum is numerically zero",
    ),
}
# case: (theta_star, a, b, x, weights) for the partially linear mean above
TERMWISE_FAILURES = {
    "vanishing_denominator": (0.5, [1.0, 2.0], [1.0, 2.0], [1.0, 2.0], None),
    "non_finite_update_term": (0.0, [1e10, 1e10], [0.0, 0.0], [1e300, -1e300], None),
    "non_finite_denominator_term": (0.0, [1e200, 1e200], [0.0, 0.0], [0.0, 0.0], None),
    "non_finite_update": (1.0, [1e-3, 1e-3], [0.0, 0.0], [1e306, 1e306], None),
}


@pytest.mark.parametrize("case", list(TERMWISE_FAILURES))
@pytest.mark.parametrize("update", list(TERMWISE_UPDATES))
def test_termwise_update_failures_keep_their_class_and_text(update, case):
    # numpy's overflow warnings are silenced, as the command line silences them
    call, degenerate = TERMWISE_UPDATES[update]
    error, message = {
        "vanishing_denominator": (DegenerateDenominatorError, degenerate),
        "non_finite_update_term": (NonFiniteError, "non-finite value in update terms"),
        "non_finite_denominator_term": (NonFiniteError, "non-finite value in denominator terms"),
        "non_finite_update": (DegenerateDenominatorError, "one-step update is not finite"),
    }[case]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(Exception) as exc:
        call(*TERMWISE_FAILURES[case])
    assert (type(exc.value), str(exc.value)) == (error, message)
