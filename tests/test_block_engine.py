"""The block engine: row-wise exact sums and campaigns evaluated in (B, n) blocks.

Every check compares against a replication replayed on its own, through
the public functions on a one-row Sample, as campaigns ran before blocks.
"""

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onestep import SimConfig, core, estimators, montecarlo, regression, run
from onestep.core import (
    _VECTOR_SUM_MIN_TERMS,
    EstimatingFamily,
    Sample,
    WeightFamily,
    exact_sum,
)
from onestep.errors import DegenerateDenominatorError, EstimationError
from onestep.estimators import (
    _newton_root,
    newton_solve,
    one_step_factorized,
    one_step_weighted,
    studentize,
    unit_weights,
)
from onestep.montecarlo import (
    MODEL_IDS,
    NOISE_KINDS,
    PIPELINES,
    SimulationRecord,
    _draw,
    _replicate_block,
    _unit_noise,
    build_scenario,
    rows_per_block,
)
from onestep.regression import (
    lse_one_step,
    mm_closed_form,
    preliminary_mm,
    to_families,
)

# --- row-wise exact sums ---


def row_bits(v):
    """Bits of math.fsum of each row, or the exception it raised."""
    out = []
    for row in v.tolist():
        try:
            out.append(math.fsum(row).hex())
        except (OverflowError, ValueError) as exc:
            out.append(type(exc).__name__)
    return out


def assert_rows_match_fsum(v):
    want = row_bits(v)
    raised = [bits for bits in want if bits.endswith("Error")]
    if raised:  # the first row whose math.fsum raises raises the same
        with pytest.raises({"OverflowError": OverflowError, "ValueError": ValueError}[raised[0]]):
            exact_sum(v)
    else:
        assert [total.hex() for total in exact_sum(v).tolist()] == want


def scaled_row(rng, n, kind):
    if kind == "zeros":
        return np.zeros(n) if rng.random() < 0.5 else np.full(n, -0.0)
    if kind == "subnormal":
        return rng.integers(-(2**40), 2**40, n) * 2.0**-1074
    if kind == "huge":
        return rng.uniform(-1.0, 1.0, n) * 2.0**1020
    if kind == "cancel":
        x = rng.standard_normal((n + 1) // 2) * 2.0 ** rng.integers(-60, 60, (n + 1) // 2)
        return rng.permutation(np.concatenate([x, -x * (1.0 + 2.0**-52)])[:n])
    if kind == "same-sign":
        return rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0, n)
    return rng.standard_normal(n) * 2.0 ** int(rng.integers(-900, 900))


ROW_KINDS = ["zeros", "subnormal", "huge", "cancel", "same-sign", "scaled"]


@settings(max_examples=150, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=2, max_size=9),
    n=st.one_of(st.integers(1, 40), st.integers(_VECTOR_SUM_MIN_TERMS - 2, 3000)),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_sums_match_fsum_per_row(kinds, n, seed):
    # rows of very different magnitudes share one block; zero rows, rows
    # near overflow and subnormal rows take math.fsum row by row
    rng = np.random.default_rng(seed)
    v = np.stack([scaled_row(rng, n, kind) for kind in kinds])
    if "huge" in kinds and rng.random() < 0.5:
        v[kinds.index("huge"), :2] = 1.7e308  # a row whose sum overflows
    assert_rows_match_fsum(v)


def test_row_sums_shapes_and_nonfinite_rows():
    assert exact_sum(np.zeros((0, 5))).shape == (0,)
    assert exact_sum(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]
    one = np.random.default_rng(1).standard_normal((1, 3000))
    assert exact_sum(one).tolist() == [math.fsum(one[0].tolist())]
    v = np.random.default_rng(2).standard_normal((4, 1200))
    v[1, 7], v[2, 9] = math.nan, -math.inf
    assert_rows_match_fsum(v)
    # any other input is one flat vector and gives a float, on both sides of
    # the switch to extraction: a list, a nested list, a 3-D array, a 0-d value
    rng = np.random.default_rng(3)
    for shape in ((3, 11, 31), (4, 16, 16), (2, 3, 1000)):
        cube = rng.standard_normal(shape) * 2.0 ** rng.integers(-40, 40, shape)
        want = math.fsum(cube.ravel().tolist()).hex()
        for values in (cube.ravel().tolist(), cube.tolist(), cube):
            total = exact_sum(values)
            assert type(total) is float and total.hex() == want
    for value in (2.5, np.float64(-0.0), np.array(-3.0)):
        total = exact_sum(value)
        assert type(total) is float and total.hex() == math.fsum([float(value)]).hex()


# --- campaigns: blocks against a replay one replication at a time ---


def replay(cfg):
    """Records as each replication gives them alone, through the public functions."""
    scn = build_scenario(cfg)
    records = []
    for r in range(cfg.replications):
        rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, r], dtype=np.uint64)))
        x = scn.mean + scn.noise_sd * _unit_noise(cfg.noise, rng, cfg.n)
        records.append(replay_row(cfg, scn, r, Sample(x=x, a=scn.model.a, b=scn.sample_b)))
    return records


# theta_hat of each pipeline through its public update, at the campaign's newton tolerance
REPLAY_UPDATES = {
    "one_step_weighted": lambda scn, ts, s: one_step_weighted(scn.fam, scn.wf, ts, s).theta_hat,
    "one_step_factorized": lambda scn, ts, s: one_step_factorized(scn.fam, scn.wf, ts, s).theta_hat,
    "lse_one_step": lambda scn, ts, s: lse_one_step(scn.model, ts, s).theta_hat,
    "mm_closed_form": lambda scn, ts, s: mm_closed_form(scn.model, ts, s),
    "newton_oracle": lambda scn, ts, s: newton_solve(
        scn.fam, scn.wf, ts, s, max_iter=100, tol=1e-9
    ),
}


def replay_row(cfg, scn, r, s):
    try:
        theta_star = scn.preliminary(s)
        theta_hat = REPLAY_UPDATES[cfg.pipeline](scn, theta_star, s)
        d_star, ci = studentize(scn.fam, scn.wf, theta_star, theta_hat, s, cfg.alpha)
    except EstimationError:
        nan = math.nan
        return SimulationRecord(r, nan, nan, nan, nan, covered=False, degenerate=True)
    err = theta_hat - cfg.theta_true
    return SimulationRecord(
        r, theta_star, theta_hat, scn.z_scale * err, d_star * err,
        covered=bool(ci[0] <= cfg.theta_true <= ci[1]), degenerate=False,
    )


def campaign(model_id, pipeline, noise, n, replications, seed=5):
    return SimConfig(
        model_id=model_id, theta_true=1.0, sigma=0.05, n=n,
        replications=replications, seed=seed, noise=noise, pipeline=pipeline,
    )


# n = 40 and 700 sit below the exact-sum crossover and 1500 above it; at 700
# and 1500 the replication counts leave a ragged last block
SIZES = {40: 30, 700: rows_per_block(700) + 4, 1500: rows_per_block(1500) + 4}
COMBOS = [
    (model_id, pipeline)
    for model_id in MODEL_IDS
    for pipeline in PIPELINES
    if pipeline != "mm_closed_form" or model_id == "mm"
]


@pytest.mark.parametrize("n", sorted(SIZES))
@pytest.mark.parametrize("noise", NOISE_KINDS)
@pytest.mark.parametrize("model_id,pipeline", COMBOS)
def test_blocks_match_replay(model_id, pipeline, noise, n):
    cfg = campaign(model_id, pipeline, noise, n, SIZES[n])
    records, _ = run(cfg)
    assert repr(records) == repr(replay(cfg))


def test_block_with_a_failing_row(monkeypatch):
    # an all-zero response row makes the mm preliminary's denominator vanish
    cfg = campaign("mm", "one_step_weighted", "gaussian", 500, 30)
    draw = montecarlo._draw

    def draw_with_zero_row(cfg, scn, reps):
        x = draw(cfg, scn, reps)
        x[3] = 0.0
        return x

    monkeypatch.setattr(montecarlo, "_draw", draw_with_zero_row)
    records, summary = run(cfg)
    scn = build_scenario(cfg)
    block = Sample(x=draw_with_zero_row(cfg, scn, range(5)), a=scn.model.a, b=scn.sample_b)
    with pytest.raises(DegenerateDenominatorError):
        preliminary_mm(np.ones(cfg.n), block)
    expected = replay(cfg)
    expected[3] = replay_row(cfg, scn, 3, Sample(x=np.zeros(cfg.n), a=scn.model.a, b=scn.sample_b))
    assert [rec.rep for rec in records if rec.degenerate] == [3]
    assert summary.degenerate_count == 1
    assert repr(records) == repr(expected)


def test_threads_share_ragged_blocks():
    cfg = campaign("sqrt", "one_step_weighted", "scaled-uniform", 700, 3 * rows_per_block(700) + 5)
    base = repr(run(cfg, threads=1))
    assert repr(run(cfg, threads=2)) == base
    assert repr(run(cfg, threads=3)) == base


def test_threads_keep_their_own_model_values():
    # to_families remembers the model's values at the last parameter value in
    # each thread; more threads than cores, switching every microsecond over
    # one scenario, must still give every block the records it gives alone
    cfg = campaign("mm", "one_step_weighted", "gaussian", 500, 12 * rows_per_block(500))
    scn = build_scenario(cfg)
    size = rows_per_block(cfg.n)
    blocks = [range(start, start + size) for start in range(0, cfg.replications, size)]
    alone = [repr(_replicate_block(cfg, scn, reps)) for reps in blocks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2 * (os.cpu_count() or 1) + 2) as pool:
            futures = [pool.submit(_replicate_block, cfg, scn, reps) for reps in blocks]
            together = [repr(future.result(timeout=120)) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert together == alone


def test_rows_per_block_follows_the_element_budget():
    assert rows_per_block(500) == 65
    assert rows_per_block(20000) == 1
    assert rows_per_block(2**15) == 1
    assert rows_per_block(2) == 2**14


@pytest.mark.parametrize("noise", NOISE_KINDS)
def test_reused_generator_draws_as_fresh_ones(noise):
    cfg = campaign("mm", "one_step_weighted", noise, 300, 1, seed=2**64 - 2)
    scn = build_scenario(cfg)
    reps = range(5, 12)
    x = _draw(cfg, scn, reps)
    for i, r in enumerate(reps):
        rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, r], dtype=np.uint64)))
        fresh = scn.mean + scn.noise_sd * _unit_noise(noise, rng, cfg.n)
        assert x[i].tobytes() == fresh.tobytes()


# --- the work of one block ---


def test_mm_block_evaluates_each_term_once_per_parameter_value(monkeypatch):
    # per block: f, f' and w once at theta_star and once at theta_hat, and five
    # row-wise sums (two each for the preliminary and the update, one for the
    # studentizer's variance; its centering sum is the update's denominator)
    cfg = campaign("mm", "one_step_weighted", "gaussian", 500, 1)
    scn = build_scenario(cfg)
    calls, row_sums = {}, [0]
    summed = core._exact_sum

    def counted(name):
        evaluate = getattr(scn.model, f"{name}_values")

        def values(t):
            calls[name] = calls.get(name, 0) + 1
            return evaluate(t)

        return values

    def counted_sum(v, extremes=None):
        row_sums[0] += np.ndim(v) == 2
        return summed(v, extremes)

    names = ("f", "f_prime", "f_second", "w", "w_prime")
    model = replace(scn.model, **{f"{name}_values": counted(name) for name in names})
    fam, wf = to_families(model)
    scn = replace(scn, model=model, fam=fam, wf=wf)
    # every exact sum, exact_sum's and the checked sums' alike, goes through it
    monkeypatch.setattr(core, "_exact_sum", counted_sum)
    records = _replicate_block(cfg, scn, range(rows_per_block(cfg.n)))
    assert not any(row[-1] for row in records)
    assert calls == {"f": 2, "f_prime": 2, "w": 2}
    assert row_sums[0] == 5


def _domain_checks_per_block(monkeypatch, pipeline):
    """Domain checks made by one 65-row mm block at n = 500 under pipeline."""
    cfg = campaign("mm", pipeline, "gaussian", 500, 1)
    scn = build_scenario(cfg)
    checks = [0]
    require = core._require_in_domain

    def counted(t, domain):
        checks[0] += 1
        return require(t, domain)

    for module in (core, estimators, regression):
        monkeypatch.setattr(module, "_require_in_domain", counted)
    records = _replicate_block(cfg, scn, range(rows_per_block(cfg.n)))
    assert len(records) == 65 and not any(row[-1] for row in records)
    return checks[0]


def test_mm_block_checks_the_domain_once_per_parameter_value(monkeypatch):
    # a sim-small-n block: the update and the studentizer each check their
    # parameter column against the domain once, and the families' reader
    # once more when it first evaluates the model there
    assert _domain_checks_per_block(monkeypatch, "one_step_weighted") == 4


def test_mm_lse_block_checks_the_domain_once_per_parameter_value(monkeypatch):
    # lse_one_step reads f, f' and f'' at theta_star through its own reader,
    # one check; the studentizer checks theta_star and theta_hat, and the
    # families' reader each of them once more
    assert _domain_checks_per_block(monkeypatch, "lse_one_step") == 5


def test_studentize_takes_the_newton_first_derivative_bit_for_bit():
    cfg = campaign("sqrt", "newton_oracle", "scaled-laplace", 1500, 1)
    scn = build_scenario(cfg)
    x = _draw(cfg, scn, range(3))
    block = Sample(x=x, a=scn.model.a, b=scn.sample_b)
    for s in (block, Sample(x=x[1], a=block.a, b=block.b)):
        theta_star = scn.preliminary(s)
        root, first = _newton_root(scn.fam, scn.wf, theta_star, s, 100, 1e-9)
        assert first is not None
        assert repr(root) == repr(newton_solve(scn.fam, scn.wf, theta_star, s, 100, 1e-9))
        alone = studentize(scn.fam, scn.wf, theta_star, root, s, 0.1)
        given = studentize(scn.fam, scn.wf, theta_star, root, s, 0.1, centering=first)
        assert repr(given) == repr(alone)
        # a start whose score is within tol forms no derivative
        assert _newton_root(scn.fam, scn.wf, theta_star, s, 100, 1e300)[1] is None


def test_studentize_takes_the_update_denominator_bit_for_bit():
    cfg = campaign("mm", "one_step_weighted", "scaled-laplace", 500, 1)
    scn = build_scenario(cfg)
    x = _draw(cfg, scn, range(9))
    block = Sample(x=x, a=scn.model.a, b=scn.sample_b)
    for s in (block, Sample(x=x[4], a=block.a, b=block.b)):
        theta_star = scn.preliminary(s)
        res = one_step_weighted(scn.fam, scn.wf, theta_star, s)
        alone = studentize(scn.fam, scn.wf, theta_star, res.theta_hat, s, 0.1)
        given = studentize(
            scn.fam, scn.wf, theta_star, res.theta_hat, s, 0.1, centering=res.denominator
        )
        assert repr(given) == repr(alone)


def test_a_vanishing_centering_sum_still_raises_from_the_update():
    # h M' sums to zero: the update refuses it before studentize could take it
    signs = np.array([1.0, -1.0, 2.0, -2.0])
    fam = EstimatingFamily(
        m_terms=lambda t, xs: xs - t, m_prime_terms=lambda t, xs: signs * np.ones_like(xs)
    )
    wf = unit_weights()
    s = Sample(x=[0.5, 1.0, 1.5, 2.0], a=np.ones(4))
    block = Sample(x=np.stack([s.x, s.x + 1.0]), a=s.a)
    for sample, theta_star in ((s, 1.0), (block, np.array([1.0, 2.0]))):
        with pytest.raises(DegenerateDenominatorError, match="one-step denominator"):
            one_step_weighted(fam, wf, theta_star, sample)
        with pytest.raises(DegenerateDenominatorError, match="centering sum"):
            studentize(fam, wf, theta_star, theta_star, sample)


def test_families_take_a_block_row_by_row():
    # a t-dependent h beside vector m, and 0-d evaluators (unit_weights() and
    # a constant M') broadcast over the block: each block row is bitwise what
    # that row's own Sample gives, in a block of four rows and of one
    a = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    x = 0.9 * a + 0.1 * np.random.default_rng(3).standard_normal((4, a.size))
    theta = np.array([0.8, 0.85, 0.9, 0.95])
    vector = EstimatingFamily(m_terms=lambda t, xs: xs - a * t, m_prime_terms=lambda t, xs: -a)
    t_dependent = WeightFamily(
        h_values=lambda t: a / (1.0 + t * t),
        h_prime_values=lambda t: -2.0 * a * t / (1.0 + t * t) ** 2,
    )
    constant = EstimatingFamily(
        m_terms=lambda t, xs: xs - 1.5 * t, m_prime_terms=lambda t, xs: -1.5
    )

    def bits(values):
        return [float(v).hex() for v in np.ravel(values)]

    families = ((vector, t_dependent), (constant, unit_weights()))
    blocks = ((x, theta), (x[2][None, :], theta[2:3]))
    for (fam, wf), (rows, ts) in product(families, blocks):
        block = Sample(x=rows, a=a)
        hat = one_step_weighted(fam, wf, ts, block).theta_hat
        factorized = one_step_factorized(fam, wf, ts, block).theta_hat
        d_star, (lo, hi) = studentize(fam, wf, ts, hat, block)
        root = newton_solve(fam, wf, ts, block)
        assert hat.shape == factorized.shape == d_star.shape == ts.shape
        for r, t in enumerate(ts.tolist()):
            s = Sample(x=rows[r], a=a)
            row_hat = one_step_weighted(fam, wf, t, s).theta_hat
            row_d, row_ci = studentize(fam, wf, t, row_hat, s)
            assert bits(hat[r]) == bits(row_hat)
            assert bits(factorized[r]) == bits(one_step_factorized(fam, wf, t, s).theta_hat)
            assert bits([d_star[r], lo[r], hi[r]]) == bits([row_d, *row_ci])
            assert bits(root[r]) == bits(newton_solve(fam, wf, t, s))
