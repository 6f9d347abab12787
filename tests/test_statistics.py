"""Statistical claims measured over grids of campaign scenarios.

Run with ``pytest tests/test_statistics.py -s`` to see every cell.  Each
cell is a campaign through montecarlo.run on the default grid, theta 1 and
seed 7, with one_step_weighted unless a cell says otherwise.  The cells
were measured before the bounds below were set.
"""

from itertools import product

import numpy as np

from onestep import SimConfig, run

SEED = 7


def campaign(model_id, sigma, n, replications, noise="gaussian", pipeline="one_step_weighted"):
    return SimConfig(
        model_id=model_id, theta_true=1.0, sigma=sigma, n=n, replications=replications,
        seed=SEED, noise=noise, pipeline=pipeline,
    )


def test_coverage_matrix():
    """Coverage of the 95% interval over model x sigma x n x noise, 1,000 replications each.

    mm and sqrt are calibrated: measured 0.918-0.956, within Monte Carlo
    error (0.007 at 1,000 replications) of 0.95.  plinear is not, and is
    pinned: on the default grid a = 0.1 + 2 b, so the b-orthogonal contrast
    sees only the 0.1 intercept, the preliminary is weak, and one step does
    not reach the M-estimator (measured 0.320-0.634).
    """
    out_of_bounds = []
    for model_id, sigma, n, noise in product(
        ("mm", "sqrt", "plinear"), (0.1, 0.5), (100, 500), ("gaussian", "scaled-laplace")
    ):
        _, summary = run(campaign(model_id, sigma, n, 1000, noise))
        cov = summary.coverage
        ok = cov < 0.70 if model_id == "plinear" else 0.91 <= cov <= 0.97
        print(
            f"coverage {model_id} sigma={sigma} n={n} {noise}: {cov:.3f}, "
            f"var_ratio {summary.var_ratio:.3g}, degenerate {summary.degenerate_count}"
            + ("" if ok else "  OUT OF BOUNDS")
        )
        if not ok:
            out_of_bounds.append((model_id, sigma, n, noise, cov))
    assert out_of_bounds == []


def test_one_step_approaches_the_m_estimator():
    """median |one-step - root| / median |one-step - theta| at n = 100, 500, 2000.

    root is newton_oracle's root of the estimating equation with the weights
    frozen at theta_star, on the same draws: campaigns with one seed share
    them whatever their pipeline.  The one-step lies within o_p(n^-1/2) of
    the root, so the ratio falls with n for mm and sqrt (measured
    4.0e-4 / 2.0e-4 / 7.7e-5 and 1.1e-2 / 6.7e-3 / 2.7e-3).  plinear's weak
    preliminary keeps its one-step far from the root (0.92 / 0.77 / 0.44).
    """
    sizes = (100, 500, 2000)
    ratios = {}
    for model_id, n in product(("mm", "sqrt", "plinear"), sizes):
        one_step, _ = run(campaign(model_id, 0.1, n, 500))
        oracle, _ = run(campaign(model_id, 0.1, n, 500, pipeline="newton_oracle"))
        assert not any(rec.degenerate for rec in one_step + oracle)
        hats = np.array([rec.theta_hat for rec in one_step])
        roots = np.array([rec.theta_hat for rec in oracle])
        ratios[model_id, n] = float(
            np.median(np.abs(hats - roots)) / np.median(np.abs(hats - 1.0))
        )
        print(f"gap {model_id} sigma=0.1 n={n}: {ratios[model_id, n]:.3g}")
    for model_id in ("mm", "sqrt"):
        assert ratios[model_id, 100] >= 3.0 * ratios[model_id, 2000], model_id
    assert all(ratios["plinear", n] > 0.3 for n in sizes)
