"""Termwise one-step references: the quasi-likelihood step written out by hand.

The package computes the step one way for every model, as
``one_step_weighted(*to_families(model), theta_star, s)``.  These formulas
compute it again from the model's terms at theta_star, so that tests can
check the shipped path against code that shares none of it: they call
neither ``estimators._newton_update`` nor any sum of ``onestep.core``, and
check no inputs.  Each returns theta_hat as a float.

They sum with ``math.fsum``, which is correctly rounded as
``core.exact_sum`` is.  Where a reference forms the adapter's terms, or
their exact negations, its theta_hat therefore equals the adapter's bit for
bit, and any other difference is the shipped path's.
"""

import math


def weighted_one_step(model, theta_star: float, s) -> float:
    """theta_star + sum w f' (x - f) / sum w f'^2, all at theta_star."""
    fp = model.f_prime_values(theta_star)
    wfp = model.w_values(theta_star) * fp
    num = wfp * (model.f_values(theta_star) - s.x)
    return theta_star - math.fsum(num) / math.fsum(wfp * fp)


def plinear_one_step(g, g_prime, theta_star: float, s, w=1.0) -> float:
    """The step for f_i(t) = a_i t + b_i g(t), with variance weights w."""
    slope = s.a + s.b * float(g_prime(theta_star))
    misfit = s.a * theta_star + s.b * float(g(theta_star)) - s.x
    return theta_star - math.fsum(w * slope * misfit) / math.fsum(w * slope * slope)


def mm_one_step(model, theta_star: float, s) -> float:
    """The step for the saturation curve f_i(t) = a_i / (1 + b_i t):

    theta_star - sum (x - a/q) w a b / q^2 / sum w a^2 b^2 / q^4, q = 1 + b t.
    """
    a, b = model.a, model.b
    q = 1.0 + b * theta_star
    # p = a b / q^2 is -f', formed as the adapter forms f', in both sums
    p = (a * b) / (q * q)
    wp = model.w_values(theta_star) * p
    return theta_star - math.fsum(wp * (s.x - a / q)) / math.fsum(wp * p)
