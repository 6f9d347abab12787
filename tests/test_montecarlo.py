"""Tests for the simulation harness: configs, determinism, aggregation."""

import dataclasses
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from onestep import SimConfig, SimSummary, SimulationRecord, montecarlo, run
from onestep.core import Sample, usable_cpus
from onestep.errors import ConfigError, DegenerateError, DomainError
from onestep.estimators import one_step_weighted, studentize
from onestep.montecarlo import (
    MODEL_IDS,
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


def set_cpus(monkeypatch, count: int) -> None:
    """Make worker_count see count processors, through the affinity as under taskset."""
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_worker_pool_is_capped_by_blocks_and_processors(monkeypatch):
    # the counting fork forks for real, so the runs below never ask for more
    # processors than the host has; the caps beyond it are read off
    # worker_count, which run() follows
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(montecarlo.os, "fork", counting_fork)
    cpus = usable_cpus()
    cfg = small_cfg(n=2**15, replications=6)  # one replication per block
    expected = repr(run(cfg, threads=1))
    assert forks == []
    assert repr(run(cfg, threads=10**6)) == expected
    assert len(forks) == min(6, cpus) - 1
    three_blocks = small_cfg(n=2**14, replications=6)  # three blocks of two
    assert repr(run(three_blocks, threads=10**6)[0]) == repr(run(three_blocks)[0])
    assert len(forks) == min(6, cpus) - 1 + min(3, cpus) - 1

    forks.clear()
    set_cpus(monkeypatch, 4)
    assert montecarlo.worker_count(cfg, 1) == 1
    assert montecarlo.worker_count(cfg, 10**6) == 4
    assert montecarlo.worker_count(three_blocks, 10**6) == 3
    set_cpus(monkeypatch, 1)
    assert repr(run(cfg, threads=10**6)) == expected
    assert forks == []  # one processor: no child
    # where the platform reports no affinity, os.cpu_count caps the pool
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    assert montecarlo.worker_count(cfg, 10**6) == 4
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
    assert montecarlo.worker_count(cfg, 10**6) == 1
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    monkeypatch.delattr(montecarlo.os, "fork")
    assert montecarlo.worker_count(cfg, 10**6) == 1
    assert repr(run(cfg, threads=10**6)) == expected  # no fork: serial


def test_workers_are_capped_by_the_processors_the_process_may_run_on(monkeypatch):
    # under taskset or a cpuset the host has more processors than this
    # process may use, and workers beyond those would not run in parallel
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    set_cpus(monkeypatch, 1)
    assert montecarlo.worker_count(small_cfg(n=2**15, replications=6), 4) == 1


@pytest.mark.parametrize(
    "model_id, pipeline, vectors",
    [
        ("mm", "one_step_weighted", 9),
        ("sqrt", "newton_oracle", 10),
        ("plinear", "one_step_weighted", 11),
        ("mm", "one_step_factorized", 17),
    ],
)
def test_a_campaign_holds_few_vectors_of_length_n(model_id, pipeline, vectors):
    # at large n the vectors of length n set the memory: frozen arrays are
    # not copied, constants (noise_sd, mm's all-ones coefficients) are not
    # filled out, f is not kept once M has read it, and a sum whose first
    # extraction round is certified holds one buffer of its length, so the
    # scenario and one replication at a time stay within this many of them
    # (numpy's buffers are what tracemalloc sees)
    n = 100_000
    cfg = small_cfg(model_id=model_id, pipeline=pipeline, n=n, replications=2, sigma=0.1)
    run(dataclasses.replace(cfg, n=50))  # what any first run allocates once
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= vectors * 8 * n, f"peak {peak / (8 * n):.2f} vectors of length n"


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_a_constant_noise_sd_stays_one_value(model_id):
    # every campaign model's w is one value for every index, so noise_sd is
    # 0-d, and the responses it scales are those of the filled-out vector
    scn = build_scenario(small_cfg(model_id=model_id, sigma=0.1))
    assert np.ndim(scn.noise_sd) == 0
    filled = 0.1 / np.sqrt(np.array(scn.model.values("w", 1.0)))
    assert filled.shape == scn.mean.shape
    noise = _unit_noise("scaled-laplace", np.random.default_rng(5), scn.mean.size)
    x = scn.mean + scn.noise_sd * noise
    assert x.tobytes() == (scn.mean + filled * noise).tobytes()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_exception_in_a_child_reaches_the_caller(monkeypatch):
    # two workers: the second share, blocks 3-5, goes to the one child
    set_cpus(monkeypatch, 2)
    evaluate = montecarlo._replicate_block

    def replicate_block(cfg, scn, reps):
        if reps[0] >= 4:
            raise LookupError(f"no block at {reps[0]}")
        return evaluate(cfg, scn, reps)

    monkeypatch.setattr(montecarlo, "_replicate_block", replicate_block)
    with pytest.raises(LookupError) as info:
        run(small_cfg(n=2**15, replications=6), threads=2)
    assert str(info.value) == "no block at 4"
    assert any(note.startswith("raised in worker process") for note in info.value.__notes__)
    _assert_no_child_left()


def test_exception_in_the_caller_kills_and_reaps_the_child(monkeypatch):
    # the caller's share fails at once while the child sleeps in its block:
    # the child is killed, not waited for
    set_cpus(monkeypatch, 2)

    def replicate_block(cfg, scn, reps):
        if reps[0] == 0:
            raise LookupError("no block at 0")
        time.sleep(60)

    monkeypatch.setattr(montecarlo, "_replicate_block", replicate_block)
    start = time.monotonic()
    with pytest.raises(LookupError, match="no block at 0"):
        run(small_cfg(n=2**15, replications=2), threads=2)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_forked_records_match_serial_ones_with_degenerate_rows(monkeypatch):
    # degenerate records travel as NaN rows and must come back holding
    # math.nan itself, as serial ones do, or they would not compare equal;
    # with blocks of 16 rows, the child's share is replications 16-39
    set_cpus(monkeypatch, 2)
    cfg = small_cfg(model_id="sqrt", theta_true=0.01, sigma=3.0, n=2048, replications=40)
    serial = run(cfg, threads=1)
    assert any(rec.degenerate for rec in serial[0][16:])
    assert run(cfg, threads=2) == serial
    _assert_no_child_left()


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


# Short campaigns of every model and pipeline, one digest line each.
_CAMPAIGN_DIGESTS = """
import hashlib
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from onestep import SimConfig, run
from onestep.montecarlo import MODEL_IDS, PIPELINES

print(" ".join(name for name in __cpu_dispatch__ if __cpu_features__.get(name)))
for model_id in MODEL_IDS:
    for pipeline in PIPELINES:
        if pipeline == "mm_closed_form" and model_id != "mm":
            continue
        cfg = SimConfig(
            model_id=model_id, theta_true=1.0, sigma=0.1, n=700, replications=20, seed=3,
            noise="scaled-laplace", pipeline=pipeline,
        )
        print(model_id, pipeline, hashlib.sha256(repr(run(cfg)).encode()).hexdigest())
"""


def _campaign_digests(**env) -> list[str]:
    """The lines _CAMPAIGN_DIGESTS prints in a child process with env added to os.environ."""
    cp = subprocess.run(
        [sys.executable, "-c", _CAMPAIGN_DIGESTS],
        capture_output=True, text=True, env=dict(os.environ, **env),
    )
    assert cp.returncode == 0, cp.stderr
    return cp.stdout.splitlines()


# _CAMPAIGN_DIGESTS' campaign lines as numpy 2.4.6 on glibc 2.36 (x86-64) gave them
_RECORDED_PLATFORM = ("2.4.6", "glibc 2.36")
_RECORDED_DIGESTS = """
sqrt one_step_weighted a13f6a65ddd1d9ab5269f0bd367463cdc339b231ec586535a21d6a87065f1577
sqrt one_step_factorized fea627d35e118ed34d7f1507f988377351865a9d2221b1750bf709602f8e261a
sqrt lse_one_step fea627d35e118ed34d7f1507f988377351865a9d2221b1750bf709602f8e261a
sqrt newton_oracle c90e5393edc4ad380b781e4b209ee1c15c2fba9fb09b4da6ed4575dd478b1ec0
plinear one_step_weighted b5dc71d472549af8773d85a5c8ec1b53c9503d0c01c5df76f44322a58a0600d9
plinear one_step_factorized 7603e2526282a4cbf16a347de5236afa021e71e9be97ed1868500537fd4e503a
plinear lse_one_step 7603e2526282a4cbf16a347de5236afa021e71e9be97ed1868500537fd4e503a
plinear newton_oracle 43502c84ffd587d61de510bafa9ad9c0876332a9b32e4fd796209c222ff57af3
mm one_step_weighted 68432c3d09290f6e4bdbd4532ebd9158f36d8869db9de9a5fa93e6b4b728aa6f
mm one_step_factorized 9955f845bf52a1b18a24b686012cf23364762996131a65d18d5f71a7bc45eabe
mm lse_one_step b8c4bfd54551a4218054c2f1f8bf53eb92858e05c8bddcf07770c0bf3e998f57
mm mm_closed_form 72223884f84d5d6b986714cbd8f17297709fb1b20887de1afc3a0a473891466b
mm newton_oracle c4d0ae8265edbe9ea797afa3436c12bead2ffb1ac9b9e962e01a21dfc161328d
custom-linear one_step_weighted d8a421057574222e8160a657441d7f4455025d96ecd1bd825ac080437ab76f8c
custom-linear one_step_factorized d8a421057574222e8160a657441d7f4455025d96ecd1bd825ac080437ab76f8c
custom-linear lse_one_step d8a421057574222e8160a657441d7f4455025d96ecd1bd825ac080437ab76f8c
custom-linear newton_oracle d8a421057574222e8160a657441d7f4455025d96ecd1bd825ac080437ab76f8c
"""


def test_campaigns_give_the_recorded_bits():
    # Every model and pipeline is pinned here, not only the benchmark's three
    # configs; another numpy or libm may round a transcendental differently
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        libc = None
    here = (np.__version__, libc)
    if here != _RECORDED_PLATFORM:
        pytest.skip(f"digests were recorded with numpy and libc {_RECORDED_PLATFORM}, not {here}")
    assert _campaign_digests()[1:] == _RECORDED_DIGESTS.strip().splitlines()


def test_campaigns_give_the_same_bits_without_cpu_dispatch():
    # numpy picks some kernels (pow among them) by the CPU it runs on; with
    # every dispatch target this host offers disabled, a child process stands
    # in for a CPU without them.  numpy 2.4 names targets like X86_V4.
    umath = pytest.importorskip(
        "numpy._core._multiarray_umath", reason="numpy before 2.0 keeps its dispatch table elsewhere"
    )
    active = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    if not active:
        pytest.skip("numpy dispatches no kernel by CPU on this host, so there is nothing to disable")

    here = _campaign_digests()
    baseline = _campaign_digests(NPY_DISABLE_CPU_FEATURES=" ".join(active))
    assert here[0] == " ".join(active)
    assert baseline[0] == ""
    assert len(here) == 1 + 4 * 4 + 1  # four pipelines per model, mm_closed_form on mm
    assert baseline[1:] == here[1:]


def test_records_are_ordered_and_complete():
    cfg = small_cfg(replications=25)
    records, _ = run(cfg)
    assert [r.rep for r in records] == list(range(25))


def test_z_scale_matches_model_moments():
    cfg = small_cfg()
    scn = build_scenario(cfg)
    assert scn.z_scale == pytest.approx(scn.j_nh / math.sqrt(scn.i_nh), rel=1e-15)
    assert scn.i_nh > 0.0


@pytest.mark.parametrize("model_id", ["mm", "sqrt"])
def test_counted_score_evaluators_replay_the_scenario(model_id):
    # bench/work.py counts score evaluations by swapping counting wrappers
    # into the scenario's family with dataclasses.replace: the replaced
    # family must give the same bits and call both wrappers
    scn = build_scenario(small_cfg(model_id=model_id))
    calls = {"m_terms": 0, "m_prime_terms": 0}

    def counted(name):
        evaluate = getattr(scn.fam, name)

        def wrapper(t, xs):
            calls[name] += 1
            return evaluate(t, xs)

        return wrapper

    fam = dataclasses.replace(
        scn.fam, m_terms=counted("m_terms"), m_prime_terms=counted("m_prime_terms")
    )
    noise = _unit_noise("gaussian", np.random.default_rng(11), scn.mean.size)
    s = Sample(x=scn.mean + scn.noise_sd * noise, a=scn.model.a, b=scn.sample_b)
    ts = scn.preliminary(s)
    outputs = []
    for family in (scn.fam, fam):
        res = one_step_weighted(family, scn.wf, ts, s)
        d_star, ci = studentize(family, scn.wf, ts, res.theta_hat, s)
        outputs.append([float(v).hex() for v in (res.theta_hat, res.denominator, d_star, *ci)])
    assert outputs[0] == outputs[1]
    assert calls["m_terms"] > 0 and calls["m_prime_terms"] > 0


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
