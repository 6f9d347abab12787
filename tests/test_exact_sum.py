"""Property tests: exact_sum is bitwise equal to math.fsum on both of its paths,
and the degeneracy tolerance built on it keeps its value when given the sum."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onestep import SimConfig, core
from onestep.core import (
    _VECTOR_SUM_MIN_TERMS,
    DEGENERACY_SCALE,
    Sample,
    _ratio,
    degeneracy_tolerance,
    exact_sum,
)
from onestep.errors import DegenerateDenominatorError, NonFiniteError
from onestep.estimators import _newton_root
from onestep.montecarlo import _draw, build_scenario

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


def near_midpoint(rng, n):
    # a head and half its gap, a tie, nudged by 2**-j of that half: a small j
    # leaves the tie far behind, a large one within the first round's bound;
    # pairs x, -x cancel exactly but put rounding into the residual's sum
    v = np.zeros(max(n, 4))
    e = int(rng.integers(-850, 850))
    head = math.ldexp(1.0 + int(rng.integers(0, 2**52)) * 2.0**-52, e)
    half = math.ldexp(1.0, e - 53)
    if rng.random() < 0.25:  # the tie below a power of two, whose gap there is half as wide
        head, half = math.ldexp(1.0, e), -math.ldexp(1.0, e - 54)
    v[:2] = head, half
    if rng.random() < 0.8:
        v[2] = rng.choice([-1.0, 1.0]) * math.ldexp(abs(half), -int(rng.integers(0, 100)))
    pairs = (v.size - 3) // 2
    x = rng.uniform(-1.0, 1.0, pairs) * 2.0 ** (e - rng.integers(0, 40, pairs))
    v[3 : 3 + 2 * pairs] = np.concatenate([x, -x])
    return rng.choice([-1.0, 1.0]) * rng.permutation(v)


FAMILIES = [cancellation_pairs, subnormals, half_ulp_ties, wide_exponents, same_sign, near_midpoint]


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


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 6), n=lengths, seed=seeds)
def test_blocks_of_near_midpoint_rows_match_fsum_bitwise(rows, n, seed):
    rng = np.random.default_rng(seed)
    block = np.stack([near_midpoint(rng, n) for _ in range(rows)])
    want = [math.fsum(row).hex() for row in block.tolist()]
    assert [total.hex() for total in exact_sum(block).tolist()] == want


def certifications(monkeypatch):
    """Whether each call of core._certified_sums from now on certified its block."""
    verdicts = []
    certify = core._certified_sums

    def spied(*args):
        out = certify(*args)
        verdicts.append(out is not None)
        return out

    monkeypatch.setattr(core, "_certified_sums", spied)
    return verdicts


def update_terms(n, rows):
    """The one-step terms (h M, h M') at theta* of a block of an mm campaign at n."""
    cfg = SimConfig(model_id="mm", theta_true=1.0, sigma=0.05, n=n, replications=rows, seed=11)
    scn = build_scenario(cfg)
    block = Sample(x=_draw(cfg, scn, range(rows)), a=scn.model.a, b=scn.sample_b)
    return core._score_terms(scn.fam, scn.wf, core._column(scn.preliminary(block), block), block)


def near_root_score(n):
    """Newton's score terms h M at its root, for a sample of a sqrt campaign at n."""
    cfg = SimConfig(
        model_id="sqrt", theta_true=1.0, sigma=0.05, n=n, replications=1, seed=11,
        noise="scaled-laplace", pipeline="newton_oracle",
    )
    scn = build_scenario(cfg)
    s = Sample(x=_draw(cfg, scn, range(1))[0], a=scn.model.a)
    start = scn.preliminary(s)
    root = _newton_root(scn.fam, scn.wf, start, s, 100, 1e-9)[0]
    return core.weight_values(scn.wf, start, n) * core.m_values(scn.fam, root, s.x)


def test_the_first_round_certifies_campaign_sums_and_refuses_near_ties(monkeypatch):
    # a sim-small-n block of numerators, and estimate-csv-sized rows: at
    # n = 200,000 the blocked bound is about 2**-57 of the peak, so both the
    # same-sign denominator, far above its peak, and the numerator, near it,
    # certify; a score near Newton's root, cancelling to near zero, a tie
    # and a block with a row cancelling to near zero do not
    num, den = update_terms(200_000, 1)
    block = update_terms(500, 65)[0]
    x = np.random.default_rng(1).uniform(-1.0, 1.0, 999)
    tie = np.concatenate([[3.0, 2.0**-52], x, -x])  # 3 and half its gap above
    cancelling = block.copy()
    cancelling[7] -= cancelling[7].mean()  # a row whose sum is about 0
    verdicts = certifications(monkeypatch)
    for terms, verdict in (
        (block, True),
        (den[0], True),
        (num[0], True),
        (near_root_score(20_000), False),
        (tie, False),
        (cancelling, False),
    ):
        terms.flags.writeable = False
        before = terms.copy()
        del verdicts[:]
        total = np.atleast_1d(exact_sum(terms))
        assert verdicts == [verdict]
        rows = np.atleast_2d(terms).tolist()
        assert [t.hex() for t in total.tolist()] == [math.fsum(row).hex() for row in rows]
        assert np.array_equal(terms, before)


def paired_block(rng, rows, n):
    """(block, heads): rows of three head terms among pairs x, -x, and each row's head terms.

    The pairs cancel exactly, so a row sums exactly to its head terms, which
    math.fsum adds in a few steps, yet they put rounding into the residual's
    float sum.  A head lies up to 2**12 below the block's peak (how far
    drawn per block), near or below the peak as a one-step numerator lies;
    in about one block in four one row holds a tie, nudged or not, or no
    head at all.
    """
    e = int(rng.integers(-900, 900))
    heads = np.zeros((rows, 3))
    heads[:, 0] = rng.choice([-1.0, 1.0], rows) * rng.uniform(1.0, 2.0, rows)
    heads[:, 0] *= 2.0 ** (e - rng.integers(0, rng.integers(1, 14), rows))
    if rng.random() < 0.25:
        r = int(rng.integers(rows))
        head = heads[r, 0]
        heads[r, 1] = math.ulp(head) / 2.0 * rng.choice([-1.0, 1.0])
        heads[r, 2] = heads[r, 1] * rng.choice([0.0, 2.0 ** -int(rng.integers(1, 60))])
        if rng.random() < 0.25:
            heads[r] = 0.0
    pairs = (n - 3) // 2
    x = rng.uniform(-1.0, 1.0, (rows, pairs)) * 2.0 ** (e - rng.integers(0, 30, (rows, pairs)))
    block = np.zeros((rows, n))
    block[:, 3 : 3 + pairs] = x
    block[:, 3 + 2 * pairs - 1 : 2 : -1][:, :pairs] = -x  # -x after them, in reverse
    block[:, :3] = heads
    for row in block:  # the heads at random places
        places = 3 + rng.choice(n - 3, 3, replace=False)
        row[:3], row[places] = row[places], row[:3].copy()
    return block, heads


def check_paired_blocks(monkeypatch, seed, blocks):
    """(rows checked, a Counter of the blocks' verdicts) over blocks of paired_block.

    n is drawn log-uniformly from 4,096 to 200,000, with about 2**19 terms
    per block.  Each block's exact_sum must give math.fsum's bits, its
    residual summed in blocks must lie within E/2 of the residual's exact
    sum, rounded by math.fsum, and a certified block must have E below half
    the gap under each row's sum.  A block is "refused", "certified", or
    "certified beyond n*n": certified though the plain-sum bound
    n*n 2**(k-104) reaches half the gap under some row's sum, so that only
    the blocked bound could certify it.
    """
    rng = np.random.default_rng(seed)
    certify, blocked_sums = core._certified_sums, core._blocked_sums
    current = {}

    def spied(exact, residual, k):
        rows, n = residual.shape
        length = math.isqrt(n - 1) + 1
        bound = math.ldexp(min(length + n // length, n) * n, k - 104)
        blocked = blocked_sums(residual, length)
        for row, head, part in zip(blocked.tolist(), current["heads"], exact.tolist()):
            assert abs(row - math.fsum([*head, -part])) <= bound / 2
        verdict = certify(exact, residual, k)
        current["verdict"] = "refused"
        if verdict is not None:  # certified, so each row's E lies below half its gap
            halves = [(t - math.nextafter(t, 0.0)) / 2 for t in np.abs(verdict).tolist()]
            assert all(bound < half for half in halves)
            beyond = any(math.ldexp(n * n, k - 104) >= half for half in halves)
            current["verdict"] = "certified beyond n*n" if beyond else "certified"
        return verdict

    monkeypatch.setattr(core, "_certified_sums", spied)
    rows_checked, tally = 0, Counter()
    for _ in range(blocks):
        n = int(round(math.exp(rng.uniform(math.log(4096), math.log(200_000)))))
        block, heads = paired_block(rng, max(1, 2**19 // n), n)
        current["heads"] = heads.tolist()
        current.pop("verdict", None)
        want = [math.fsum(head).hex() for head in current["heads"]]
        assert [t.hex() for t in exact_sum(block).tolist()] == want
        rows_checked += len(want)
        tally[current["verdict"]] += 1
    return rows_checked, tally


def test_blocked_residual_sums_stay_within_their_bound(monkeypatch):
    # blocks certified within the plain-sum bound, beyond it, and refused,
    # each checked
    rows, tally = check_paired_blocks(monkeypatch, 35, 40)
    assert rows >= 1000
    assert min(tally["certified"], tally["certified beyond n*n"], tally["refused"]) >= 5


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


# What _ratio raises when its terms are spoiled, for every shape below: the
# numerator's finite check comes first, then the denominator's checks, then
# the numerator's sum
_NUM_NOT_FINITE = (NonFiniteError, "non-finite value in numerator terms")
_DEN_NOT_FINITE = (NonFiniteError, "non-finite value in denominator terms")
_RATIO_FAILURES = {
    **{
        f"{label}_{case}": want
        for label in ("nan", "inf", "-inf")
        for case, want in (
            ("num", _NUM_NOT_FINITE),
            ("den", _DEN_NOT_FINITE),
            ("both", _NUM_NOT_FINITE),
            ("num_vanishing_den", _NUM_NOT_FINITE),
            ("den_vanishing", _DEN_NOT_FINITE),
        )
    },
    "past_num_vanishing_den": (DegenerateDenominatorError, "the denominator vanishes"),
    "past_num": (NonFiniteError, "the exact sum of numerator terms lies beyond the largest double"),
}


@pytest.mark.parametrize("case", list(_RATIO_FAILURES))
@pytest.mark.parametrize("shape", [(65, 500), (20000,), (300,)], ids=["block", "long", "short"])
def test_ratio_failures_keep_their_class_text_and_order(shape, case):
    rng = np.random.default_rng(3)
    num, den = rng.uniform(0.5, 1.5, shape), rng.uniform(0.5, 1.5, shape)
    vanishing = np.ones(shape)
    vanishing[..., 1::2] = -1.0
    spoiled = (37, 211) if len(shape) == 2 else (shape[0] // 3,)
    label, _, rest = case.partition("_")
    if label == "past":
        num = np.full(shape, 1e308)  # finite terms whose exact sum is not
    else:
        bad = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}[label]
        if rest in ("num", "both", "num_vanishing_den"):
            num = num.copy()
            num[spoiled] = bad
        if rest in ("den", "both", "den_vanishing"):
            den = (vanishing if rest == "den_vanishing" else den).copy()
            den[spoiled] = bad
    if rest.endswith("vanishing_den"):
        den = vanishing
    error, message = _RATIO_FAILURES[case]
    with pytest.raises(error) as caught:
        _ratio(num, den, "the denominator vanishes")
    assert type(caught.value) is error and str(caught.value) == message
