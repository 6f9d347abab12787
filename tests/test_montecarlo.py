"""Tests for the simulation harness: configs, determinism, aggregation."""

import math
import warnings

import numpy as np
import pytest

from onestep import SimConfig, SimSummary, SimulationRecord, montecarlo, run
from onestep.errors import ConfigError, DegenerateError, DomainError
from onestep.montecarlo import (
    _unit_noise,
    build_model,
    build_scenario,
    default_grid,
    summarize,
)


def small_cfg(**overrides):
    base = dict(
        model_id="mm",
        theta_true=1.0,
        sigma=0.05,
        n=40,
        replications=60,
        seed=7,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(model_id="cubic")
    with pytest.raises(ConfigError):
        small_cfg(noise="cauchy")
    with pytest.raises(ConfigError):
        small_cfg(pipeline="gradient_descent")
    with pytest.raises(ConfigError):
        small_cfg(covariate_spec="random")
    with pytest.raises(ConfigError):
        small_cfg(n=1)
    with pytest.raises(ConfigError):
        small_cfg(replications=0)
    with pytest.raises(ConfigError):
        small_cfg(seed=-1)
    with pytest.raises(ConfigError):
        small_cfg(seed=2**64)
    with pytest.raises(ConfigError):
        small_cfg(sigma=0.0)
    with pytest.raises(ConfigError):
        small_cfg(theta_true=math.inf)
    with pytest.raises(ConfigError):
        small_cfg(alpha=1.0)
    with pytest.raises(ConfigError):
        # the closed form exists for the saturation curve only
        small_cfg(model_id="sqrt", pipeline="mm_closed_form")


def test_default_grid_endpoints():
    a, b = default_grid(5)
    assert a[0] == 0.5 and a[-1] == 2.5
    assert b[0] == 0.2 and b[-1] == 1.2
    assert a.size == b.size == 5


def test_build_model_kinds():
    assert build_model("sqrt", 10, 0.1).kind == "sqrt"
    assert build_model("plinear", 10, 0.1).kind == "plinear"
    assert build_model("mm", 10, 0.1).kind == "mm"
    assert build_model("custom-linear", 10, 0.1).kind == "linear"


def test_unit_noise_moments():
    rng = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
    for kind in ("gaussian", "scaled-uniform", "scaled-laplace"):
        draw = _unit_noise(kind, rng, 200_000)
        assert abs(float(np.mean(draw))) < 0.01
        assert float(np.var(draw)) == pytest.approx(1.0, abs=0.02)


def test_thread_count_does_not_change_results():
    cfg = small_cfg()
    rec1, sum1 = run(cfg, threads=1)
    rec4, sum4 = run(cfg, threads=4)
    rec8, sum8 = run(cfg, threads=8)
    assert rec1 == rec4 == rec8
    assert sum1 == sum4 == sum8


def test_thread_count_does_not_change_results_on_long_vectors():
    # n above the exact-sum crossover, so every reduction takes the vector path
    cfg = SimConfig(
        model_id="sqrt",
        theta_true=1.0,
        sigma=0.5,
        n=4096,
        replications=6,
        seed=11,
        noise="scaled-laplace",
        pipeline="newton_oracle",
    )
    rec1, sum1 = run(cfg, threads=1)
    rec2, sum2 = run(cfg, threads=2)
    assert repr(rec1) + repr(sum1) == repr(rec2) + repr(sum2)


def test_worker_pool_is_capped_by_blocks_and_processors(monkeypatch):
    # a recorder in place of the pool runs the blocks serially, so the huge
    # thread count below starts no thread
    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    cfg = small_cfg(n=2**15, replications=6)  # one replication per block
    expected = repr(run(cfg, threads=1))
    assert requested == []
    assert repr(run(cfg, threads=10**6)) == expected
    assert requested == [4]
    assert repr(run(small_cfg(n=2**14, replications=6), threads=10**6)[0]) == repr(
        run(small_cfg(n=2**14, replications=6))[0]
    )
    assert requested == [4, 3]  # three blocks of two
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
    assert repr(run(cfg, threads=10**6)) == expected
    assert requested == [4, 3]  # one processor: no pool


@pytest.mark.parametrize("model_id", ["sqrt", "mm"])
def test_theta_true_outside_the_domain_raises_domain_error(model_id):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        with pytest.raises(DomainError, match=r"parameter -5\.0 outside domain \(-0\.[48]"):
            build_scenario(small_cfg(model_id=model_id, theta_true=-5.0))


def test_replications_are_keyed_by_index():
    # each replication depends only on (seed, rep), so a shorter campaign is a
    # prefix of a longer one
    long_rec, _ = run(small_cfg(replications=20))
    short_rec, _ = run(small_cfg(replications=8))
    assert long_rec[:8] == short_rec


def test_seed_changes_results():
    rec_a, _ = run(small_cfg(seed=1))
    rec_b, _ = run(small_cfg(seed=2))
    assert rec_a != rec_b


def test_noise_kinds_run_clean():
    for noise in ("gaussian", "scaled-uniform", "scaled-laplace"):
        _, summary = run(small_cfg(noise=noise))
        assert summary.degenerate_count == 0
        assert math.isfinite(summary.ks_z)
        assert 0.0 <= summary.coverage <= 1.0


def test_all_models_and_pipelines_run_clean():
    for model_id in ("sqrt", "plinear", "mm", "custom-linear"):
        for pipeline in ("one_step_weighted", "lse_one_step", "newton_oracle"):
            _, summary = run(small_cfg(model_id=model_id, pipeline=pipeline))
            assert summary.degenerate_count == 0
    _, summary = run(small_cfg(pipeline="mm_closed_form"))
    assert summary.degenerate_count == 0
    _, summary = run(small_cfg(pipeline="one_step_factorized"))
    assert summary.degenerate_count == 0


def test_records_are_ordered_and_complete():
    cfg = small_cfg(replications=25)
    records, _ = run(cfg)
    assert [r.rep for r in records] == list(range(25))


def test_z_scale_matches_model_moments():
    cfg = small_cfg()
    scn = build_scenario(cfg)
    assert scn.z_scale == pytest.approx(scn.j_nh / math.sqrt(scn.i_nh), rel=1e-15)
    assert scn.i_nh > 0.0


def test_summarize_skips_degenerate_records():
    cfg = small_cfg(replications=4)
    scn = build_scenario(cfg)
    good = SimulationRecord(
        rep=0, theta_star=1.0, theta_hat=1.01, z=0.3, z_stud=0.2,
        covered=True, degenerate=False,
    )
    good2 = SimulationRecord(
        rep=1, theta_star=1.0, theta_hat=0.99, z=-0.4, z_stud=-0.5,
        covered=False, degenerate=False,
    )
    bad = SimulationRecord(
        rep=2, theta_star=math.nan, theta_hat=math.nan, z=math.nan,
        z_stud=math.nan, covered=False, degenerate=True,
    )
    summary = summarize(cfg, scn, [good, good2, bad])
    assert summary.degenerate_count == 1
    assert summary.coverage == 0.5
    assert math.isfinite(summary.ks_z)
    assert summary.mse_hat == pytest.approx((0.01**2 + 0.01**2) / 2, rel=1e-10)


def test_summarize_all_degenerate_raises():
    cfg = small_cfg(replications=1)
    scn = build_scenario(cfg)
    bad = SimulationRecord(
        rep=0, theta_star=math.nan, theta_hat=math.nan, z=math.nan,
        z_stud=math.nan, covered=False, degenerate=True,
    )
    with pytest.raises(DegenerateError):
        summarize(cfg, scn, [bad])


def test_run_rejects_bad_thread_count():
    with pytest.raises(ConfigError):
        run(small_cfg(), threads=0)


def test_summary_is_plausible_at_moderate_size():
    _, summary = run(small_cfg(n=200, replications=400, seed=3))
    assert isinstance(summary, SimSummary)
    assert abs(summary.mean_z) < 0.25
    assert 0.7 < summary.var_z < 1.3
    assert summary.ks_z < 0.1
    assert 0.85 <= summary.coverage <= 1.0
    assert summary.mse_star > 0.0 and summary.mse_hat > 0.0
