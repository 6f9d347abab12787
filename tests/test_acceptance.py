"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the detail lines.
Campaign sizes follow the calibration runs documented in the README; the
fixed seeds there were frozen before the assertions were written.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from onestep import (
    EstimatingFamily,
    MomentProvider,
    Sample,
    SimConfig,
    WeightFamily,
    default_contrasts,
    efficiency_ratio,
    generalized_families,
    linear_model,
    lse_one_step,
    mm_closed_form,
    mm_model,
    mm_one_step,
    one_step_weighted,
    optimal_weights,
    plinear_model,
    plinear_one_step,
    preliminary_mm,
    preliminary_plinear,
    preliminary_sqrt,
    run,
    sqrt_model,
    studentize,
    to_families,
    weighted_one_step,
)
from onestep.montecarlo import default_grid

MAIN_SEED = 20250819
MONOTONE_SEEDS = (3, 4, 7)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def rng_for(label: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([label, 0], dtype=np.uint64)))


@pytest.fixture(scope="module")
def mm_main_campaign():
    cfg = SimConfig(
        model_id="mm", theta_true=1.0, sigma=0.05, n=500,
        replications=2000, seed=MAIN_SEED,
    )
    return run(cfg)


@pytest.fixture(scope="module")
def sqrt_main_campaign():
    cfg = SimConfig(
        model_id="sqrt", theta_true=1.0, sigma=0.05, n=500,
        replications=2000, seed=MAIN_SEED,
    )
    return run(cfg)


def test_criterion_01_noiseless_exactness():
    theta = 0.7
    worst = 0.0
    for n in (2, 10, 100):
        a, b = default_grid(n)

        sq = sqrt_model(a)
        s = Sample(x=sq.f_values(theta), a=a)
        ts = preliminary_sqrt(default_contrasts(s, "sum_zero"), s)
        values = [
            ts,
            weighted_one_step(sq, ts, s).theta_hat,
            lse_one_step(sq, ts, s).theta_hat,
        ]

        pl = plinear_model(
            a, b, g=lambda t: t * t, g_prime=lambda t: 2.0 * t, g_second=lambda t: 2.0
        )
        s = Sample(x=pl.f_values(theta), a=a, b=b)
        ts = preliminary_plinear(default_contrasts(s, "b_orthogonal"), s)
        values += [
            ts,
            plinear_one_step(lambda t: t * t, lambda t: 2.0 * t, ts, s).theta_hat,
            weighted_one_step(pl, ts, s).theta_hat,
            lse_one_step(pl, ts, s).theta_hat,
        ]

        mm = mm_model(a, b)
        s = Sample(x=mm.f_values(theta), a=a, b=b)
        ts = preliminary_mm(np.ones(n), s)
        values += [
            ts,
            mm_one_step(mm, ts, s).theta_hat,
            mm_closed_form(mm, ts, s),
            weighted_one_step(mm, ts, s).theta_hat,
            lse_one_step(mm, ts, s).theta_hat,
        ]
        worst = max(worst, max(abs(v - theta) for v in values))
    ok = worst <= 1e-10
    report(1, ok, f"noiseless recovery, worst |error| = {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_02_linear_exactness():
    rng = rng_for(102)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 50))
        a = rng.uniform(0.5, 3.0, n)
        x = rng.normal(0.0, 2.0, n)
        start = float(rng.uniform(-10.0, 10.0))
        model = linear_model(a)
        s = Sample(x=x, a=a)
        fam, wf = to_families(model)
        hat = one_step_weighted(fam, wf, start, s).theta_hat
        exact = math.fsum(a * x) / math.fsum(a * a)
        worst = max(worst, abs(hat - exact) / abs(exact))
    ok = worst <= 1e-12
    report(2, ok, f"linear one-step vs least squares, worst rel = {worst:.3e} (tol 1e-12)")
    assert ok


def test_criterion_03_algebraic_identity():
    rng = rng_for(103)
    worst_forms = 0.0
    worst_transformed = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 20))
        a = rng.uniform(0.5, 3.0, n)
        b = rng.uniform(0.2, 2.0, n)
        w = rng.uniform(0.5, 2.0, n)
        theta = float(rng.uniform(0.2, 1.5))
        ts = theta * float(rng.uniform(0.8, 1.2))
        model = mm_model(a, b, weights=w)
        x = model.f_values(theta) + rng.normal(0.0, 0.05, n)
        if np.any(x <= 0.0):
            continue
        s = Sample(x=x, a=a, b=b)

        ratio_form = mm_closed_form(model, ts, s)
        # the second printed arrangement: an update from theta_star
        q = 1.0 + b * ts
        num = math.fsum((x - a / q) * w * a * b / q**2)
        den = math.fsum(w * a * b**2 * x / q**3)
        update_form = ts - num / den
        worst_forms = max(worst_forms, abs(ratio_form - update_form) / abs(ratio_form))

        fam, wf = generalized_families(
            model, g_values=lambda t: 1.0 + b * t, g_prime_values=lambda t: b
        )
        via = one_step_weighted(fam, wf, ts, s).theta_hat
        worst_transformed = max(
            worst_transformed, abs(ratio_form - via) / abs(ratio_form)
        )
    ok = worst_forms <= 1e-12 and worst_transformed <= 1e-12
    report(
        3,
        ok,
        f"closed-form arrangements agree to {worst_forms:.3e}, "
        f"transformed one-step to {worst_transformed:.3e} (tol 1e-12)",
    )
    assert ok


def test_criterion_04_adapter_coherence():
    rng = rng_for(104)
    worst = {"mm": 0.0, "plinear": 0.0, "lse-linear": 0.0}
    for trial in range(1000):
        n = int(rng.integers(2, 15))
        ts = float(rng.uniform(0.3, 1.4))

        a = rng.uniform(0.5, 3.0, n)
        b = rng.uniform(0.2, 2.0, n)
        w = rng.uniform(0.5, 2.0, n)
        model = mm_model(a, b, weights=w)
        s = Sample(x=rng.uniform(0.1, 3.0, n), a=a, b=b)
        fam, wf = to_families(model)
        direct = mm_one_step(model, ts, s).theta_hat
        via = one_step_weighted(fam, wf, ts, s).theta_hat
        worst["mm"] = max(worst["mm"], abs(direct - via) / abs(via))

        model = plinear_model(
            a, b, g=lambda t: t * t, g_prime=lambda t: 2.0 * t,
            g_second=lambda t: 2.0, weights=w,
        )
        s = Sample(x=rng.normal(0.0, 1.0, n), a=a, b=b)
        fam, wf = to_families(model)
        direct = plinear_one_step(
            lambda t: t * t, lambda t: 2.0 * t, ts, s, w=w
        ).theta_hat
        via = one_step_weighted(fam, wf, ts, s).theta_hat
        worst["plinear"] = max(worst["plinear"], abs(direct - via) / abs(via))

        model = linear_model(a)  # f'' = 0: the least-squares step drops its term
        s = Sample(x=rng.normal(0.0, 1.0, n), a=a)
        fam, wf = to_families(model)
        direct = lse_one_step(model, ts, s).theta_hat
        via = one_step_weighted(fam, wf, ts, s).theta_hat
        worst["lse-linear"] = max(worst["lse-linear"], abs(direct - via) / abs(via))
    peak = max(worst.values())
    ok = peak <= 1e-14
    report(
        4,
        ok,
        "adapter agreement, worst rel "
        + ", ".join(f"{k}={v:.3e}" for k, v in worst.items())
        + " (tol 1e-14)",
    )
    assert ok


def test_criterion_05_asymptotic_normality(mm_main_campaign):
    _, summary = mm_main_campaign
    monotone = []
    for seed in MONOTONE_SEEDS:
        ks = {}
        for n in (50, 2000):
            cfg = SimConfig(
                model_id="mm", theta_true=1.0, sigma=0.05, n=n,
                replications=2000, seed=seed,
            )
            _, s = run(cfg)
            ks[n] = s.ks_z
        monotone.append(ks[2000] < ks[50])
    ok = summary.ks_z <= 0.05 and all(monotone)
    report(
        5,
        ok,
        f"ks_z = {summary.ks_z:.4f} (tol 0.05); "
        f"ks shrinks with n for seeds {MONOTONE_SEEDS}: {monotone}",
    )
    assert ok


def test_criterion_06_studentized_normality_and_coverage(mm_main_campaign):
    _, summary = mm_main_campaign
    ok = summary.ks_zstud <= 0.06 and 0.92 <= summary.coverage <= 0.97
    report(
        6,
        ok,
        f"ks_zstud = {summary.ks_zstud:.4f} (tol 0.06), "
        f"coverage = {summary.coverage:.4f} (window 0.92..0.97)",
    )
    assert ok


def test_criterion_07_variance_calibration():
    ratios = {}
    for model_id in ("mm", "sqrt"):
        cfg = SimConfig(
            model_id=model_id, theta_true=1.0, sigma=0.05, n=1000,
            replications=2000, seed=MAIN_SEED,
        )
        _, summary = run(cfg)
        ratios[model_id] = summary.var_ratio
    ok = all(0.9 <= v <= 1.1 for v in ratios.values())
    report(
        7,
        ok,
        "var(theta_hat) * J^2 / I = "
        + ", ".join(f"{k}: {v:.4f}" for k, v in ratios.items())
        + " (window 0.9..1.1)",
    )
    assert ok


def test_criterion_08_efficiency_dominance(mm_main_campaign, sqrt_main_campaign):
    _, mm_summary = mm_main_campaign
    _, sqrt_summary = sqrt_main_campaign
    ok = (
        mm_summary.mse_hat < mm_summary.mse_star
        and sqrt_summary.mse_hat < sqrt_summary.mse_star
    )
    report(
        8,
        ok,
        f"mm mse {mm_summary.mse_hat:.3e} < {mm_summary.mse_star:.3e}; "
        f"sqrt mse {sqrt_summary.mse_hat:.3e} < {sqrt_summary.mse_star:.3e}",
    )
    assert ok


def test_criterion_09_efficiency_sandwich():
    # As stated: 1 <= ratio <= 1 + (sqrt(H/h) - 1)^2 / (2 sqrt(H/h)) <= sqrt(H/h)
    # for sign-consistent weights, with ratio = 1 at the optimum.  The middle
    # inequality is asserted exactly as written.  It is genuinely false for
    # the variance ratio: h = (1, 4) against unit moments already gives
    # ratio 1.36 > bound 1.25 (only ratio <= bound^2 is provable), so this
    # criterion records an honest failure rather than a weakened check.
    rng = rng_for(109)
    violations_lower = 0
    violations_mid = 0
    violations_upper = 0
    first_example = None
    checked = 0
    while checked < 10_000:
        n = int(rng.integers(2, 21))
        e2 = rng.uniform(0.1, 5.0, n)
        ed = -rng.uniform(0.1, 5.0, n)
        h = (ed / e2) * rng.uniform(0.2, 5.0, n)
        mp = MomentProvider(e_m2_values=lambda t: e2, e_mprime_values=lambda t: ed)
        wf = WeightFamily(h_values=lambda t: h)
        ratio, bound = efficiency_ratio(wf, mp, 0.0, n)
        spread_root = math.sqrt(float(np.max(h * e2 / ed) / np.min(h * e2 / ed)))
        checked += 1
        if ratio < 1.0 - 1e-12:
            violations_lower += 1
        if ratio > bound * (1.0 + 1e-12):
            violations_mid += 1
            if first_example is None:
                first_example = (ratio, bound, n)
        if bound > spread_root * (1.0 + 1e-12):
            violations_upper += 1

    # equality branch: the optimal family itself
    mp = MomentProvider(e_m2_values=lambda t: 2.0, e_mprime_values=lambda t: -1.0)
    ho = optimal_weights(mp, 0.0, 5)
    opt_ratio, _ = efficiency_ratio(ho, mp, 0.0, 5)
    equality_ok = abs(opt_ratio - 1.0) <= 1e-12

    ok = (
        violations_lower == 0
        and violations_mid == 0
        and violations_upper == 0
        and equality_ok
    )
    detail = (
        f"10000 weight families: ratio >= 1 fails {violations_lower}x, "
        f"ratio <= bound fails {violations_mid}x, bound <= sqrt(H/h) fails "
        f"{violations_upper}x, optimal ratio = 1: {equality_ok}"
    )
    if first_example is not None:
        detail += (
            f"; first middle-inequality violation: ratio {first_example[0]:.6f} > "
            f"bound {first_example[1]:.6f} at n={first_example[2]}"
        )
    report(9, ok, detail)
    assert ok, detail


def test_criterion_10_one_step_tracks_newton_root():
    base = dict(
        model_id="mm", theta_true=1.0, sigma=0.05, n=1000,
        replications=500, seed=MAIN_SEED,
    )
    one_step_records, _ = run(SimConfig(pipeline="one_step_weighted", **base))
    newton_records, _ = run(SimConfig(pipeline="newton_oracle", **base))
    hats = np.array([r.theta_hat for r in one_step_records])
    roots = np.array([r.theta_hat for r in newton_records])
    med_gap = float(np.median(np.abs(hats - roots)))
    med_err = float(np.median(np.abs(hats - 1.0)))
    ok = med_gap <= 0.1 * med_err
    report(
        10,
        ok,
        f"median |one-step - newton| = {med_gap:.3e} vs 0.1 * median error "
        f"{0.1 * med_err:.3e}",
    )
    assert ok


def test_criterion_11_thread_determinism():
    cfg = SimConfig(
        model_id="mm", theta_true=1.0, sigma=0.05, n=500,
        replications=300, seed=MAIN_SEED, noise="scaled-laplace",
    )
    outputs = {threads: run(cfg, threads=threads) for threads in (1, 4, 8)}
    serialized = {
        threads: repr(records) + repr(summary)
        for threads, (records, summary) in outputs.items()
    }
    ok = serialized[1] == serialized[4] == serialized[8]
    report(11, ok, "records and summary byte-identical across threads 1, 4, 8")
    assert ok


def test_criterion_12_cli_round_trip(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("x,a,b\n1.1,2.0,1.0\n0.9,3.0,2.0\n")
    out = tmp_path / "report.csv"
    cp = subprocess.run(
        [sys.executable, "-m", "onestep", "estimate", str(data),
         "--model", "mm", "--out", str(out)],
        capture_output=True, text=True,
    )
    s = Sample(x=[1.1, 0.9], a=[2.0, 3.0], b=[1.0, 2.0])
    model = mm_model([2.0, 3.0], [1.0, 2.0])
    fam, wf = to_families(model)
    ts = preliminary_mm(np.ones(2), s)
    res = one_step_weighted(fam, wf, ts, s)
    d_star, ci = studentize(fam, wf, ts, res.theta_hat, s, 0.05)
    lines = out.read_text().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    exact = (
        cp.returncode == 0
        and row["theta_star"] == repr(ts)
        and row["theta_hat"] == repr(res.theta_hat)
        and row["d_star"] == repr(d_star)
        and row["ci_lo"] == repr(ci[0])
        and row["ci_hi"] == repr(ci[1])
    )

    bad = tmp_path / "bad.csv"
    bad.write_text("x,a,b\n1.1,2.0,1.0\n0.9,oops,2.0\n")
    cp_bad = subprocess.run(
        [sys.executable, "-m", "onestep", "estimate", str(bad),
         "--model", "mm", "--out", str(tmp_path / "r.csv")],
        capture_output=True, text=True,
    )
    diagnosed = (
        cp_bad.returncode == 1 and "row 2" in cp_bad.stderr and "oops" in cp_bad.stderr
    )
    ok = exact and diagnosed
    report(
        12,
        ok,
        f"estimate output reproduces in-process reprs exactly: {exact}; "
        f"malformed input exits 1 naming the defect: {diagnosed}",
    )
    assert ok
