"""Lehn-route tests: exponents, change of variable, route equivalence, the residue form.

The residue form also gives the finite steps of the argument that the
routes agree at every order (README): the residue exponents at the
engine's targets, the y-form of the closed formula and the engine's
determinants.

The substitution prefix w + 9w^2 + 68w^3 + 466w^4 and its reversion
z - 9z^2 + 94z^3 - 1051z^4 were expanded by hand, as were the k = 2
coefficients C_2 = -5/2 and D_2 = -1/2 of the extracted series.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction as F
from math import factorial

import pytest

import hilbsegre
from hilbsegre import (
    UNIT_TUPLES,
    SurfaceInvariants,
    TruncatedPowerSeries,
    UniversalSeriesSet,
    blowup_targets,
    change_of_variable,
    closed_segre,
    eval_s5_polynomial,
    extract_lehn_universal,
    k3,
    lehn,
    lehn_exponents,
    lehn_series,
    segre_number,
    segre_series,
    series,
    universal,
    universal_series_set,
    verify_lehn_vanishings,
)
from hilbsegre.cli import MAX_ORDER
from hilbsegre.series import _grown_by_prefix
from tests._oracles import LEHN_P, LEHN_Q, fraction_div, lehn_residue, published_s5_times_120
from tests._oracles import generalized_binomial, residue_coefficient, reverted_substitution

U8 = universal_series_set(8)


# -- exponents ---------------------------------------------------------------


def test_exponents_zero_tuple():
    exps = lehn_exponents(SurfaceInvariants(0, 0, 0, 0))
    assert (exps.a, exps.b, exps.c, exps.chi) == (0, 0, 0, 0)


def test_exponents_k3_family():
    for g in (0, 1, 2, 7):
        exps = lehn_exponents(SurfaceInvariants(2 * g - 2, 0, 0, 24))
        assert exps.chi == 2
        assert exps.a == 0
        assert exps.b == 2 * g + 4
        assert exps.c == g + 1


def test_exponents_blowup_target():
    exps = lehn_exponents(SurfaceInvariants(28, 4, -1, 25))
    assert (exps.a, exps.b, exps.c, exps.chi) == (6, 25, 14, 2)


def test_exponents_recompute_and_compare():
    rng = random.Random(3)
    for _ in range(20):
        inv = SurfaceInvariants(*(rng.randint(-6, 6) for _ in range(4)))
        exps = lehn_exponents(inv)
        chi = F(inv.kappa + inv.e, 12)
        assert exps.chi == chi
        assert exps.a == inv.pi - 2 * inv.kappa
        assert exps.b == inv.d - 2 * inv.pi + inv.kappa + 3 * chi
        assert exps.c == F(inv.d - inv.pi, 2) + chi


# -- change of variable -----------------------------------------------------------


def test_substitution_prefix():
    zw, _ = change_of_variable(4)
    assert zw.coefficients == (F(0), F(1), F(9), F(68), F(466))


def test_reverted_substitution_prefix():
    _, wz = change_of_variable(4)
    assert wz.coefficients == (F(0), F(1), F(-9), F(94), F(-1051))


def test_substitution_roundtrip():
    zw, wz = change_of_variable(10)
    identity = TruncatedPowerSeries.identity(10)
    assert zw.compose(wz).coefficients == identity.coefficients
    assert wz.compose(zw).coefficients == identity.coefficients


@pytest.mark.parametrize("N", (1, 2, 8, 32, 64, 128))
def test_substitution_equals_the_reverted_closed_form(N):
    # undetermined integer coefficients of the cubic in y = w - w^2 against
    # powers and reversion of w P(w) = z Q(w)
    built = lehn._substitution.__wrapped__(N)
    assert tuple(part.coefficients for part in built[:5]) == reverted_substitution(N)
    assert all(type(c) is F for part in built for c in part)


@pytest.mark.parametrize("N", (1, 2, 8, 32, 128))
def test_z_of_w_equals_w_p_over_q(N):
    # z(w) from the cubic's two sides against long division of w P by Q in w
    def padded(coefficients):
        return TruncatedPowerSeries((list(coefficients) + [0] * (N + 1))[: N + 1])

    zw = lehn._substitution.__wrapped__(N)[0]
    assert zw.coefficients == fraction_div(padded((0, *LEHN_P)), padded(LEHN_Q)).coefficients


def test_y_solves_the_cubic_in_y():
    # y = w - w^2 at w = w(z) satisfies y (1 - 4y)^2 = z (1 - 6y)^3 exactly
    N = 128
    w = lehn._substitution.__wrapped__(N)[1]
    y = w - w * w
    z = TruncatedPowerSeries.identity(N)
    assert y * (1 - 4 * y) * (1 - 4 * y) == z * (1 - 6 * y) * (1 - 6 * y) * (1 - 6 * y)
    assert lehn._CUBIC == ((0, 1, -8, 16), (1, -18, 108, -216))


def test_substitution_needs_no_reversion_power_composition_or_division(monkeypatch):
    expected = reverted_substitution(24)

    def refuse(*args, **kwargs):
        raise RuntimeError("the substitution called a series kernel it does not need")

    for name in ("revert", "pow", "compose", "__truediv__"):
        monkeypatch.setattr(TruncatedPowerSeries, name, refuse)
    assert tuple(part.coefficients for part in lehn._substitution.__wrapped__(24)[:5]) == expected


def test_lower_order_reads_prefix_of_larger_build():
    from hilbsegre.lehn import _substitution
    from hilbsegre.universal import _universal_logs

    _substitution(12)
    _universal_logs(12)
    assert _universal_logs(6) is _universal_logs(12) and _substitution(6) is _substitution(12)
    assert tuple(part.truncate(6) for part in _universal_logs(6)) == _universal_logs.__wrapped__(6)
    fresh = _substitution.__wrapped__(6)
    assert tuple(part.truncate(6) for part in _substitution(6)) == fresh
    zw, wz = change_of_variable(6)
    assert (zw.order, wz.order) == (6, 6)
    assert (zw, wz) == fresh[:2]
    w = fresh[1]
    fresh_logs = tuple(f.log() for f in (1 - w, 1 - 2 * w, 1 - 6 * w + 6 * w * w))
    assert fresh[2:5] == fresh_logs
    fresh_units = dict(zip(universal.UNIT_TUPLES, fresh[5:]))
    assert extract_lehn_universal(6) == UniversalSeriesSet(**fresh_units)


def test_public_readers_hand_out_order_n_from_one_larger_build(monkeypatch):
    # each cache built once at order 12, then read at lower orders: the readers
    # truncate what they hand out, and every part has exactly the order asked for
    builds = []

    def counted(build):
        def counting(N):
            builds.append((build.__name__, N))
            return build(N)

        return _grown_by_prefix(counting)

    monkeypatch.setattr(universal, "_universal_logs", counted(universal._universal_logs.__wrapped__))
    monkeypatch.setattr(lehn, "_substitution", counted(lehn._substitution.__wrapped__))
    universal.universal_series_set(12)
    change_of_variable(12)
    for N in (12, 6, 1):
        U, cov, L = universal.universal_series_set(N), change_of_variable(N), extract_lehn_universal(N)
        parts = (U.A, U.B, U.C, U.D, *U._logs, *cov, L.A, L.B, L.C, L.D)
        assert [part.order for part in parts] == [N] * len(parts)
    assert builds == [("_universal_logs", 12), ("_substitution", 12)]


def test_lehn_series_below_the_cached_order_truncates_nothing(monkeypatch):
    # its exp reads the largest build's logs no further than z^N, so the
    # nine cached parts are not cut down on each call
    inv = SurfaceInvariants(3, -1, 2, 13)
    exps = lehn_exponents(inv)
    weights = (exps.a, exps.b, -exps.c)
    lehn._substitution(12)
    fresh = [lehn._substitution.__wrapped__(N)[2:5] for N in range(13)]
    expected = [series._exp_of_combination(zip(weights, logs), N) for N, logs in enumerate(fresh)]

    def refuse(self, order):
        raise RuntimeError("a cached part was truncated")

    monkeypatch.setattr(TruncatedPowerSeries, "truncate", refuse)
    assert [lehn_series(inv, N) for N in range(13)] == expected
    assert len(verify_lehn_vanishings(8)) == 14


def test_substitution_logs_equal_the_series_construction():
    # the three factors are built on the integer rows of w and y = w - w^2; the
    # reference builds them with series arithmetic, w^2 as a product
    built = lehn._substitution.__wrapped__(64)
    w = built[1]
    factors = (1 - w, 1 - 2 * w, 1 - 6 * w + 6 * w * w)
    assert built[2:5] == tuple(f.log() for f in factors)


def test_lehn_route_reads_no_engine(monkeypatch):
    build = lehn._substitution.__wrapped__
    inv = SurfaceInvariants(3, -1, 2, 13)

    def extracted():
        return [getattr(extract_lehn_universal(6), n).coefficients for n in "ABCD"]

    expected = (
        tuple(part.truncate(8) for part in lehn._substitution(8)),
        lehn_series(inv, 8).coefficients,
        verify_lehn_vanishings(6),
        extracted(),
    )

    def refuse(*args, **kwargs):
        raise RuntimeError("the Lehn route consulted the engine")

    engine = ("universal_series_set", "segre_series", "segre_number", "_universal_logs", "closed_segre")
    assert not any(hasattr(lehn, name) for name in engine)
    for module in (hilbsegre, k3, lehn, universal):
        for name in engine:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(lehn, "_substitution", _grown_by_prefix(build))  # an empty cache
    with pytest.raises(RuntimeError):
        universal.universal_series_set(2)
    assert build(8) == expected[0]
    assert lehn_series(inv, 8).coefficients == expected[1]
    assert verify_lehn_vanishings(6) == expected[2]
    assert extracted() == expected[3]


# -- the Lehn series ------------------------------------------------------------------


def test_all_exponents_vanish_family():
    for n in (3, 8):
        series = lehn_series(SurfaceInvariants(0, 2, 1, 11), n)
        assert all(c == 0 for c in series.coefficients[1:])
        assert series[0] == 1


def test_degenerate_family_scales():
    for kappa in (1, 2, 3):
        inv = SurfaceInvariants(0, 2 * kappa, kappa, 11 * kappa)
        series = lehn_series(inv, 8)
        assert all(c == 0 for c in series.coefficients[1:])


def test_k3_family_coefficients():
    for g in (-3, 0, 1, 4, 9):
        series = lehn_series(SurfaceInvariants(2 * g - 2, 0, 0, 24), 8)
        for k in range(9):
            assert series[k] == closed_segre(k, g), (k, g)


def test_linear_coefficient_is_d():
    for tup in ((9, 2, -3, 7), (-5, 1, 1, 13), (28, 4, -1, 25)):
        inv = SurfaceInvariants(*tup)
        assert lehn_series(inv, 3)[1] == inv.d


def test_order_zero_series():
    assert lehn_series(SurfaceInvariants(4, 3, 2, 1), 0).coefficients == (F(1),)
    # no special case for N = 0: the order-0 build gives 1 + O(z), whatever the exponents
    for tup in ((0, 0, 0, 0), (1, 0, 0, 1)):  # the second has chi = 1/12 and c = 7/12
        assert lehn_series(SurfaceInvariants(*tup), 0) == TruncatedPowerSeries.one(0)


# -- cross-route equivalence --------------------------------------------------------------


def test_extracted_universal_matches_engine():
    lehn_set = extract_lehn_universal(8)
    for name in "ABCD":
        assert getattr(lehn_set, name).coefficients == getattr(U8, name).coefficients


def lehn_series_set(N):
    return UniversalSeriesSet(
        **{name: lehn_series(inv, N) for name, inv in universal.UNIT_TUPLES.items()}
    )


@pytest.mark.parametrize("N", (0, 1, 2, 8, 32, 64, 128))
def test_extracted_set_equals_the_lehn_series_at_each_unit_tuple(N):
    assert extract_lehn_universal(N) == lehn_series_set(N)


@pytest.mark.parametrize("weights", [(0, 3, -2), (6, 0, -1)], ids=["l3-weight", "same-linear-term"])
def test_a_wrong_unit_weight_fails_the_oracle_and_the_engine(monkeypatch, weights):
    # B's l3 weight -1 -> -2 moves B's linear coefficient, which the set
    # refuses with ValueError; (6, 0, -1) keeps it 0 and moves B from z^2 on
    monkeypatch.setattr(lehn, "_substitution", _grown_by_prefix(lehn._substitution.__wrapped__))  # an empty cache
    monkeypatch.setitem(lehn._UNIT_WEIGHTS, "B", weights)
    with pytest.raises((AssertionError, ValueError)):
        test_extracted_set_equals_the_lehn_series_at_each_unit_tuple(8)
    with pytest.raises((AssertionError, ValueError)):
        assert extract_lehn_universal(8) == universal_series_set(8)


def test_extracted_sets_read_the_cache_and_run_no_exp(monkeypatch):
    extract_lehn_universal(32)
    expected = [extract_lehn_universal(n) for n in range(33)]

    def refuse(*args, **kwargs):
        raise RuntimeError("reading the extracted set ran an exp")

    monkeypatch.setattr(TruncatedPowerSeries, "exp", refuse)
    for module in (series, lehn):
        monkeypatch.setattr(module, "_exp_of_combination", refuse)
        monkeypatch.setattr(module, "_exp_series", refuse)
    monkeypatch.setattr(series, "_exp_numerators", refuse)
    monkeypatch.setattr(lehn, "lehn_series", refuse)
    assert [extract_lehn_universal(n) for n in range(33)] == expected


def test_extracted_set_refuses_a_negative_order():
    with pytest.raises(ValueError, match="order must be non-negative"):
        extract_lehn_universal(-1)


def test_extracted_linear_coefficients():
    lehn_set = extract_lehn_universal(5)
    assert lehn_set.B[1] == 0
    assert lehn_set.C[1] == 0
    assert lehn_set.D[1] == 0


def test_route_equivalence_on_sample_tuples():
    rng = random.Random(23)
    for _ in range(15):
        inv = SurfaceInvariants(
            rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3), rng.choice((0, 12, 24))
        )
        assert lehn_series(inv, 8).coefficients == segre_series(inv, 8, U8).coefficients


REACH_GRID = [
    SurfaceInvariants(d, pi, kappa, e)
    for d in (-2, 0, 3) for pi in (-1, 2) for kappa in (-1, 1) for e in (0, 13, 24)
]


def test_routes_agree_and_k_factorial_sk_is_integral_at_max_order():
    U = universal_series_set(MAX_ORDER)
    for inv in REACH_GRID:
        engine = segre_series(inv, MAX_ORDER, U)
        assert engine.coefficients == lehn_series(inv, MAX_ORDER).coefficients, inv
        for k, value in enumerate(engine.coefficients):
            assert (factorial(k) * value).denominator == 1, (inv, k)


# -- vanishing verification -----------------------------------------------------------------


def test_vanishing_report_is_all_zero():
    report = verify_lehn_vanishings(8)
    assert len(report) == 14
    assert all(c == 0 for _, _, c in report)


def test_vanishing_report_k2_and_k5():
    report = dict(((k, inv.as_tuple()), c) for k, inv, c in verify_lehn_vanishings(5))
    assert report[(2, (7, 1, -1, 25))] == 0
    assert report[(2, (8, 2, -1, 25))] == 0
    assert report[(5, (28, 4, -1, 25))] == 0
    assert report[(5, (29, 5, -1, 25))] == 0


def test_vanishing_report_is_all_zero_to_max_order():
    report = verify_lehn_vanishings(MAX_ORDER)
    assert len(report) == 2 * (MAX_ORDER - 1)
    assert [(k, inv) for k, inv, _ in report] == [
        (k, target) for k in range(2, MAX_ORDER + 1) for target in blowup_targets(k)
    ]
    assert all(c == 0 for _, _, c in report)


def test_blowup_vanishing_range_through_both_routes():
    # The region is derived from Lehn's residue form (ROADMAP item 7), and checked here
    # through the engine; it is not transcribed from the paper, of which PAPER.md holds
    # only the abstract.  On the blown-up K3 tuple (2g - 2 - l^2, l, -1, 25) with
    # g = h + l(l + 1)/2, the residue exponents are (l + 1 - k, 2h + 2 - l - 4k, 3k - h - 2);
    # where all three are >= 0 the integrand is a polynomial of degree k - 1, so s_k = 0.
    # That is the triangle k - 1 <= l <= 2k - 2, 2k - 1 + ceil(l/2) <= h <= 3k - 2.  The
    # engine vanishes there and at six sporadic points, and nowhere else in the scan.
    def tuple_at(l, h):
        g = h + l * (l + 1) // 2
        return SurfaceInvariants(2 * g - 2 - l * l, l, -1, 25)

    grid = [(k, l, h) for k in range(2, 11) for l in range(-2, 2 * k + 2) for h in range(-2, 3 * k + 4)]
    assert len(grid) == 3816
    triangle = {
        (k, l, h)
        for k in range(2, 11) for l in range(k - 1, 2 * k - 1)
        for h in range(2 * k - 1 - (-l // 2), 3 * k - 1)
    }
    assert len(triangle) == 124
    non_negative = set()
    for k, l, h in grid:
        x = lehn_exponents(tuple_at(l, h))
        if min(x.a - k - 1, x.b - 4 * k - 1, 3 * k - x.c - 1) >= 0:
            non_negative.add((k, l, h))
    assert non_negative == triangle
    sporadic = {(2, 1, 2), (2, 2, 1), (3, -1, 8), (3, 2, 2), (7, 6, 14), (8, 9, 17)}
    U = universal_series_set(10)
    engine = {(l, h): segre_series(tuple_at(l, h), 10, U) for l in range(-2, 22) for h in range(-2, 34)}
    assert {(k, l, h) for k, l, h in grid if engine[l, h][k] == 0} == triangle | sporadic
    for k, l, h in sorted(triangle | sporadic):
        assert lehn_series(tuple_at(l, h), k)[k] == 0, (k, l, h)


def _residue_exponents(inv, k, exponents=lehn_exponents):
    """The exponents of 1 - w, 1 - 2w and 1 - 6w + 6w^2 in Lehn's s_k in residue form."""
    x = exponents(inv)
    return x.a - k - 1, x.b - 4 * k - 1, 3 * k - x.c - 1


def test_every_zero_the_degree_criterion_certifies_is_a_zero_of_the_engine():
    # where the three residue exponents are non-negative integers (so 12 | kappa + e and
    # d = pi mod 2), the integrand is a polynomial of degree k - 4 + (e - 11 kappa)/12, and
    # s_k = 0 when e - 11 kappa <= 36; the points of the box are listed from the exponent
    # inequalities a - k - 1 >= 0, b - 4k - 1 >= 0 and 3k - c - 1 >= 0, not by a scan
    points = []
    for kappa, e in itertools.product(range(-2, 3), range(-12, 49)):
        if (kappa + e) % 12 or e - 11 * kappa > 36:
            continue
        chi = (kappa + e) // 12
        for k in range(1, 13):
            for pi in range(max(-4, 2 * kappa + k + 1), 13):
                lo, hi = 2 * pi - kappa - 3 * chi + 4 * k + 1, pi + 2 * (3 * k - 1 - chi)
                for d in range(max(-6, lo), min(40, hi) + 1):
                    if (d - pi) % 2 == 0:
                        points.append((SurfaceInvariants(d, pi, kappa, e), k))
    assert len(points) == 334
    U = universal_series_set(12)
    for inv, k in points:
        exponents = _residue_exponents(inv, k)
        assert all(x.denominator == 1 and x >= 0 for x in exponents), (inv, k)
        assert sum(exponents) + exponents[2] < k, (inv, k)  # the integrand's degree
        assert segre_series(inv, k, U)[k] == 0, (inv, k)


def test_vanishing_needs_k_at_least_2():
    with pytest.raises(ValueError, match="max_k must be at least 2"):
        verify_lehn_vanishings(1)


# -- the residue form ---------------------------------------------------------------------


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _poly_add(*terms):
    out = [0] * max(map(len, terms))
    for term in terms:
        for i, x in enumerate(term):
            out[i] += x
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def test_residue_form_rests_on_a_polynomial_identity():
    # z = w Q / P^3 has z' = (1 - 2w)^3 / P^4, which turns f z' / z^(k+1) into three factors
    Q, P = list(LEHN_P), [1, -6, 6]
    dQ, dP = ([n * x for n, x in enumerate(f)][1:] for f in (Q, P))
    bracket = _poly_add(_poly_mul(Q, P), [0, *_poly_mul(dQ, P)], [0, *_poly_mul([-3], _poly_mul(dP, Q))])
    assert _poly_mul(_poly_mul([1, -1], [1, -2]), bracket) == Q
    assert bracket == [1, -6, 12, -8]  # (1 - 2w)^3


def _residue_tuples():
    rng = random.Random(1708)
    return [SurfaceInvariants(*(rng.randint(-20, 20) for _ in range(4))) for _ in range(20)]


def test_residue_form_equals_lehn_series():
    for inv in _residue_tuples():
        x = lehn_exponents(inv)
        expected = lehn_series(inv, 12).coefficients[1:]
        assert [lehn_residue(x.a, x.b, x.c, k) for k in range(1, 13)] == list(expected), inv


def test_residue_form_slip_in_the_first_exponent_fails():
    # a - k for a - k - 1: the comparison above must notice
    values = differing = 0
    for inv in _residue_tuples():
        x = lehn_exponents(inv)
        series = lehn_series(inv, 12)
        for k in range(1, 13):
            values += 1
            differing += residue_coefficient(k, x.a - k, x.b - 4 * k - 1, 3 * k - x.c - 1) != series[k]
    assert values == 240
    assert differing > values // 2


# -- the finite steps of the all-orders argument (README) ---------------------------------


def test_residue_exponents_at_the_engine_targets():
    # at the blow-up targets the integrand is a polynomial of degree k - 1, so Lehn's s_k is 0;
    # at the K3 tuple of genus g it is the y-form below, with n = g - 2k + 1
    for k in range(2, 65):
        assert [_residue_exponents(t, k) for t in blowup_targets(k)] == [(0, k - 1, 0), (1, k - 2, 0)]
        for g in range(3 * k + 2):
            n = g - 2 * k + 1
            inv = SurfaceInvariants(2 * g - 2, 0, 0, 24)
            assert _residue_exponents(inv, k) == (-k - 1, 2 * n + 1, k - n - 1), (k, g)


def test_residue_exponent_checks_catch_a_wrong_constraint_and_a_wrong_chi():
    # h = g - l(l + 1)/2 = 3k - 1 in place of 3k - 2 turns the third exponent negative, and
    # chi = (kappa + e)/11 in lehn_exponents breaks the blow-up exponents at every k
    def chi_over_11(inv):
        x = lehn_exponents(inv)
        slip = F(inv.kappa + inv.e, 11) - x.chi
        return dataclasses.replace(x, b=x.b + 3 * slip, c=x.c + slip, chi=x.chi + slip)

    for k in range(2, 65):
        for l in (k - 1, k):
            g = 3 * k - 1 + l * (l + 1) // 2
            assert _residue_exponents(SurfaceInvariants(2 * g - 2 - l * l, l, -1, 25), k)[2] == -1
        patched = [_residue_exponents(t, k, chi_over_11) for t in blowup_targets(k)]
        assert patched[0] != (0, k - 1, 0) and patched[1] != (1, k - 2, 0)


def test_y_form_is_the_closed_formula():
    # [y^k] (1 - 4y)^n (1 - 6y)^(k - n - 1) = 2^k C(n, k): with t = y/(1 - 6y) it is [t^k] (1 + 2t)^n
    C = generalized_binomial
    for k in range(13):
        for n in range(-15, 16):
            y_form = sum(C(n, j) * (-4) ** j * C(k - n - 1, k - j) * (-6) ** (k - j) for j in range(k + 1))
            assert y_form == 2**k * C(n, k), (k, n)


def test_engine_steps_have_determinants_48_and_1():
    # each order's two 2 x 2 systems have one solution, so the seeds and the vanishings fix A..D
    families = ((universal._k3_vanishings, "AB", 48), (universal._blowup_vanishings, "CD", 1))
    for vanishings, pair, det in families:
        i, j = map(list(UNIT_TUPLES).index, pair)
        for k in range(2, 65):
            w, v = vanishings(k)
            assert abs(w[i] * v[j] - w[j] * v[i]) == det, (pair, k)


# -- the published degree-5 polynomial ---------------------------------------------------------


def test_s5_zero_at_both_targets():
    assert eval_s5_polynomial(SurfaceInvariants(28, 4, -1, 25)) == 0
    assert eval_s5_polynomial(SurfaceInvariants(29, 5, -1, 25)) == 0


def test_s5_table_is_the_printed_polynomial():
    # both sides have total degree 5 in (d, pi, kappa, e); Newton's forward-difference
    # formula p(x) = sum_{|alpha| <= 5} Delta^alpha p(0) prod_i C(x_i, alpha_i) reads such a
    # polynomial from its values on the simplex x >= 0, sum x <= 5, so agreement on its
    # 126 points is agreement everywhere; seeded tuples in [-40, 40] add negative entries
    simplex = [x for x in itertools.product(range(6), repeat=4) if sum(x) <= 5]
    assert len(simplex) == 126
    rng = random.Random(120)
    seeded = [tuple(rng.randint(-40, 40) for _ in range(4)) for _ in range(200)]
    for x in simplex + seeded:
        assert eval_s5_polynomial(SurfaceInvariants(*x)) == F(published_s5_times_120(*x), 120), x


def test_s5_zero_at_origin():
    assert eval_s5_polynomial(SurfaceInvariants(0, 0, 0, 0)) == 0


def test_s5_matches_engine_on_random_grid():
    rng = random.Random(41)
    for _ in range(25):
        inv = SurfaceInvariants(
            rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-10, 30)
        )
        assert eval_s5_polynomial(inv) == segre_number(inv, 5, U8), inv
