"""Engine tests: series determination, multiplicativity, defining vanishings.

The frozen A, B prefixes come from extracting roots of the determined
b and s1 sequences by hand; C_2 and D_2 were solved by hand from the
k = 2 probe system and confirmed through an independent expansion of
the Lehn function at the single-exponent tuples.
"""

from __future__ import annotations

import math
import random
from dataclasses import astuple, replace
from fractions import Fraction as F
from math import factorial

import pytest

import hilbsegre
from hilbsegre import (
    SurfaceInvariants,
    TruncatedPowerSeries,
    UniversalSeriesSet,
    blowup_targets,
    closed_segre,
    determine_AB,
    determine_CD,
    determine_b_s1,
    extract_lehn_universal,
    format_rational,
    k3,
    lehn,
    segre_number,
    segre_polynomial,
    segre_series,
    universal,
    universal_series_set,
)
from hilbsegre.cli import MAX_ORDER
from hilbsegre.series import _grown_by_prefix
from hilbsegre.universal import UNIT_TUPLES

from tests._oracles import fraction_pow, fraction_probe_and_solve

A_PREFIX = (F(1), F(1), F(-9, 2), F(65, 2), F(-2261, 8))
B_PREFIX = (F(1), F(0), F(1, 2), F(-20, 3), F(649, 8))

U8 = universal_series_set(8)


# -- invariants type ----------------------------------------------------------


def test_invariants_accept_arbitrary_integers():
    inv = SurfaceInvariants(-7, 3, -2, 100)
    assert inv.as_tuple() == (-7, 3, -2, 100)


def test_invariants_reject_non_integers():
    with pytest.raises(TypeError):
        SurfaceInvariants(F(1, 2), 0, 0, 0)


def test_invariants_reject_booleans():
    # bool is a subclass of int, so it needs its own refusal
    for args in ((True, 0, 0, 0), (0, 0, 0, False)):
        with pytest.raises(TypeError, match="must be an integer"):
            SurfaceInvariants(*args)


# -- determination of A and B ------------------------------------------------------


def test_A_prefix():
    A, _ = determine_AB(4)
    assert A.coefficients == A_PREFIX


def test_B_prefix():
    _, B = determine_AB(4)
    assert B.coefficients == B_PREFIX


def test_A_squares_to_abelian_series():
    A, _ = determine_AB(8)
    assert A * A == determine_b_s1(8)[0]


def test_B_24th_power_is_genus_one_series():
    _, B = determine_AB(8)
    assert fraction_pow(B, 24) == determine_b_s1(8)[1]


@pytest.mark.parametrize("N", (0, 1, 12))
def test_stage_functions_are_views_of_the_series_set(N):
    U = universal_series_set(N)
    views = (*determine_AB(N), *determine_CD(N))
    assert [s.coefficients for s in views] == [getattr(U, name).coefficients for name in "ABCD"]


def test_unit_tuples_follow_the_log_layout_and_isolate_each_series():
    for i, inv in enumerate(UNIT_TUPLES.values()):
        assert inv.as_tuple() == tuple(int(j == i) for j in range(4))
    for name, inv in UNIT_TUPLES.items():
        assert segre_series(inv, 8, U8).coefficients == getattr(U8, name).coefficients, name


def test_CD_hand_values():
    assert U8.C[1] == 0
    assert U8.D[1] == 0
    assert U8.C[2] == F(-5, 2)
    assert U8.D[2] == F(-1, 2)


def test_series_set_validates_normalization():
    good = TruncatedPowerSeries([1, 0, 5], order=2)
    bad_constant = TruncatedPowerSeries([2, 0], order=2)
    with pytest.raises(ValueError, match="constant term 1"):
        UniversalSeriesSet(TruncatedPowerSeries([1, 1, 5], order=2), good, good, bad_constant)
    bad_linear = TruncatedPowerSeries([1, 3], order=2)
    with pytest.raises(ValueError, match="linear coefficient"):
        UniversalSeriesSet(bad_linear, good, good, good)


def test_series_set_reads_prefix_of_larger_build():
    universal_series_set(12)
    U6 = universal_series_set(6)
    fresh = universal._universal_logs.__wrapped__(6)
    assert U6.order == 6
    assert U6._logs == fresh[:4]
    A, C, D, B = (log.exp() for log in fresh[:4])
    assert fresh[4:] == (A, C, D, B)
    assert (U6.A, U6.B, U6.C, U6.D) == (A, B, C, D)


def _k3_per_order(k: int) -> tuple[tuple[int, ...], ...]:
    """The K3 tuples of genera 2k and 2k - 1, a fresh pair at every order."""
    return (4 * k - 2, 0, 0, 24), (4 * k - 4, 0, 0, 24)


def _k3_longer_windows(pair_from_top: bool):
    """K3 windows [lo, K + 1], one order too long, with the genera of K + 1 or of K."""

    def vanishings(k):
        lo = 2
        while (top := (3 * lo - 2) // 2 + 1) < k:
            lo = top + 1
        g = 2 * top if pair_from_top else 2 * top - 2
        return (2 * g - 2, 0, 0, 24), (2 * g - 4, 0, 0, 24)

    return vanishings


def _solved_k3_rows(vanishings, N: int) -> list[list[int]]:
    G = [[0] * (N + 1) for _ in range(4)]
    G[0][1] = 1
    universal._probe_and_solve(G, (0, 3), vanishings, N)
    return G


def _oracle_logs(N: int) -> tuple[tuple[F, ...], ...]:
    """The four logs from the seed and both families, solved over Fraction."""
    logs = [[F(0)] * (N + 1) for _ in range(4)]
    if N >= 1:
        logs[0][1] = F(1)
    fraction_probe_and_solve(logs, (0, 3), _k3_per_order, N)
    fraction_probe_and_solve(logs, (1, 2), universal._blowup_vanishings, N)
    return tuple(map(tuple, logs))


def test_k3_genus_windows_stay_in_the_vanishing_range():
    # s(k, g) = 2^k C(g - 2k + 1, k) vanishes for 2k - 1 <= g <= 3k - 2, so one
    # pair of genera serves a whole window of orders
    N = 128
    for k in range(2, N + 1):
        w, v = universal._k3_vanishings(k)
        assert w[1:] == v[1:] == (0, 0, 24)
        for t in (w, v):
            g = (t[0] + 2) // 2
            assert 2 * k - 1 <= g <= 3 * k - 2, (k, g)
            assert closed_segre(k, g) == 0, (k, g)
        assert w[0] * v[3] - w[3] * v[0] == 48
        assert tuple(b - a for a, b in zip(w, v)) == (-2, 0, 0, 0)
    assert len({universal._k3_vanishings(k) for k in range(2, N + 1)}) == 11


def test_k3_genus_windows_give_the_per_order_solution():
    N = 128
    assert _solved_k3_rows(universal._k3_vanishings, N) == _solved_k3_rows(_k3_per_order, N)


@pytest.mark.parametrize("pair_from_top", (True, False), ids=("genera of K + 1", "genera of K"))
def test_a_window_one_order_too_long_leaves_the_solution(pair_from_top):
    # with K + 1 the larger genus passes 3k - 2 at k = lo; with the pair of K
    # kept at k = K + 1 the smaller one falls below 2k - 1
    N = 32
    expected = _solved_k3_rows(universal._k3_vanishings, N)
    try:
        G = _solved_k3_rows(_k3_longer_windows(pair_from_top), N)
    except ArithmeticError:
        return
    assert G != expected


@pytest.mark.parametrize("N", (0, 1, 2, 3, 12, 32, 64))
def test_integer_solve_equals_fraction_solve(N):
    parts = universal._universal_logs.__wrapped__(N)
    logs, series = parts[:4], parts[4:]
    expected = _oracle_logs(N)
    assert len(logs) == len(series) == 4
    for name, log, exp, reference in zip(UNIT_TUPLES, logs, series, expected):
        assert log.coefficients == reference, name
        assert all(type(c) is F for c in log), name
        assert exp == log.exp(), name


SYNTHETIC_FAMILIES = {
    "negative determinant": lambda k: ((1, 0, 0, k), (k, 0, 0, 1)),  # 1 - k^2
    "positive determinant": lambda k: ((k, 0, 0, 1), (1, 0, 0, k)),  # k^2 - 1
    "fixed offset": lambda k: ((1, 0, 0, k), (2, 0, 0, k + 1)),  # 1 - k; twin v - w = (1, 0, 0, 1)
}


@pytest.mark.parametrize("family", SYNTHETIC_FAMILIES.values(), ids=SYNTHETIC_FAMILIES)
def test_integer_solve_refuses_a_fractional_log(family):
    # j log_j stays integral for both real families (criterion 13 solves them to
    # order 128); these leave the integers, and the solve must stop there, not round
    N = 6
    logs = [[F(0)] * (N + 1) for _ in range(4)]
    logs[0][1] = F(1)
    fraction_probe_and_solve(logs, (0, 3), family, N)
    fractional = ((k, s) for k in range(2, N + 1) for s in (0, 3) if (k * logs[s][k]).denominator > 1)
    k, slot = next(fractional)
    G = [[0] * (N + 1) for _ in range(4)]
    G[0][1] = 1
    message = f"^log {list(UNIT_TUPLES)[slot]}: {k} log_{k} is fractional$"
    with pytest.raises(ArithmeticError, match=message):
        universal._probe_and_solve(G, (0, 3), family, N)
    assert [row[:k] for row in G] == [[n * log[n] for n in range(k)] for log in logs]


def test_solve_rebuilds_a_probe_when_its_weights_change_and_the_set_runs_four_exps(monkeypatch):
    # the probe and its twin grow by one kernel step per order and are rebuilt
    # only for new weights; the set's four series come from the build, not from each call
    N, starts, steps, calls = 32, [], [], []
    step, kernel = hilbsegre.series._exp_step, hilbsegre.series._exp_numerators

    def step_spy(c, h):
        if len(h) == 1:  # a fresh series; log A = z + O(z^2) makes c_1 its weight on A
            starts.append(c[0])
        steps.append(len(h))
        return step(c, h)

    def spy(g, den):
        calls.append(len(g))
        return kernel(g, den)

    monkeypatch.setattr(universal, "_exp_step", step_spy)
    monkeypatch.setattr(hilbsegre.series, "_exp_numerators", spy)  # the set's, by _exp_series
    monkeypatch.setattr(universal, "_exp_numerators", spy)  # and segre_polynomial's
    G = [[0] * (N + 1) for _ in range(4)]
    G[0][1] = 1
    universal._probe_and_solve(G, (0, 3), universal._k3_vanishings, N)
    probes = sorted({universal._k3_vanishings(k)[0][0] for k in range(2, N + 1)})
    assert len(probes) == 8
    assert starts == probes[:1] + [-2] + probes[1:]  # the twin, delta = (-2, 0, 0, 0), once
    # a probe rebuilt at k takes k steps, a grown series one step per order: the
    # probe 2 + 3 + 4 + 6 + 9 + 13 + 19 + 28 = 84 at its window starts and 23
    # steps between them, the twin 2 + 30
    assert len(steps) == 84 + 23 + 32 == 139
    starts.clear()
    steps.clear()
    universal._probe_and_solve(G, (1, 2), universal._blowup_vanishings, N)
    probes = [7 * (k - 1) for k in range(2, N + 1)]  # d of the first blow-up target
    assert len(probes) == 31
    assert starts == probes[:1] + [1] + probes[1:]  # the twin, delta = (1, 1, 0, 0), once
    assert len(steps) == sum(range(2, N + 1)) + 32 == 559  # a new probe per order, the twin
    assert calls == []  # the solve runs no whole exp
    build = universal._universal_logs.__wrapped__
    monkeypatch.setattr(universal, "_universal_logs", _grown_by_prefix(build))  # an empty cache
    universal_series_set(N)
    assert calls == [N + 1] * 4  # A, C, D and B, once each
    calls.clear()

    def refuse(self):
        raise RuntimeError("the series set exponentiated on a call")

    monkeypatch.setattr(TruncatedPowerSeries, "exp", refuse)
    assert universal_series_set(N) == universal_series_set(N)
    assert universal_series_set(N // 2).order == N // 2
    assert calls == []


def test_series_set_equality_compares_the_order():
    assert universal_series_set(2) != universal_series_set(12)
    assert universal_series_set(12) != universal_series_set(2)
    assert extract_lehn_universal(8) == universal_series_set(8)
    assert U8 != U8.A


def test_solver_reads_no_other_route(monkeypatch):
    solve = universal._universal_logs.__wrapped__
    expected_logs, expected_seqs = solve(16), determine_b_s1(16)

    def refuse(*args, **kwargs):
        raise RuntimeError("the vanishing solver consulted another route")

    for module in (hilbsegre, k3, lehn, universal):
        for name in ("closed_segre", "determine_b_prime", "lehn_series"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(universal, "_universal_logs", solve)  # no cached prefix to read
    with pytest.raises(RuntimeError):
        k3.closed_segre(2, 3)
    assert solve(16) == expected_logs
    assert determine_b_s1(16) == expected_seqs


# -- generating series ----------------------------------------------------------------


def test_empty_surface_gives_constant_one():
    series = segre_series(SurfaceInvariants(0, 0, 0, 0), 8, U8)
    assert series.coefficients == TruncatedPowerSeries.one(8).coefficients


def test_linear_coefficient_is_d():
    for tup in ((5, 1, 2, 3), (-4, 0, 7, 12), (0, -2, -1, 25)):
        inv = SurfaceInvariants(*tup)
        assert segre_series(inv, 4, U8)[1] == inv.d


def test_k3_family_matches_closed_formula():
    for g in range(-19, 22):  # |2g - 2| <= 40
        inv = SurfaceInvariants(2 * g - 2, 0, 0, 24)
        series = segre_series(inv, 8, U8)
        for k in range(9):
            assert series[k] == closed_segre(k, g), (k, g)


def test_k3_family_matches_closed_formula_at_max_order():
    U = universal_series_set(MAX_ORDER)
    for g in (1, 5, 40):
        series = segre_series(SurfaceInvariants(2 * g - 2, 0, 0, 24), MAX_ORDER, U)
        for k in range(MAX_ORDER + 1):
            assert series[k] == closed_segre(k, g), (k, g)


def test_abelian_family_matches_b_sequence():
    series = segre_series(SurfaceInvariants(2, 0, 0, 0), 8, U8)
    assert series == determine_b_s1(8)[0]


def test_even_d_abelian_consistency():
    # the d = 2 normalization determines every even-d abelian series by multiplicativity
    b_series, _ = determine_b_s1(8)
    for d in (4, 6):
        engine = segre_series(SurfaceInvariants(d, 0, 0, 0), 8, U8)
        assert engine.coefficients == fraction_pow(b_series, d // 2).coefficients


@pytest.mark.parametrize("route", ["engine", "lehn"])
def test_multiplicativity_under_disjoint_union(route):
    # each route is exp of a form linear in the tuple: the premise of the proofs
    # in checks.engine_vs_lehn_grid and checks.degenerate_family.  The draws have
    # kappa + e not divisible by 12, so that chi = (kappa + e) / 12 is not an integer
    evaluate = {"engine": lambda inv: segre_series(inv, 8, U8), "lehn": lambda inv: lehn.lehn_series(inv, 8)}
    rng = random.Random(7)
    pairs = []
    while len(pairs) < 12:
        first, second = (SurfaceInvariants(*(rng.randint(-2, 2) for _ in range(4))) for _ in range(2))
        union = SurfaceInvariants(*(x + y for x, y in zip(first.as_tuple(), second.as_tuple())))
        if all((inv.kappa + inv.e) % 12 for inv in (first, second, union)):
            pairs.append((first, second, union))
    for first, second, union in pairs:
        if route == "lehn":
            exponents = [astuple(lehn.lehn_exponents(inv)) for inv in (first, second, union)]
            assert [x + y for x, y in zip(*exponents[:2])] == list(exponents[2])
        left = evaluate[route](union)
        right = evaluate[route](first) * evaluate[route](second)
        assert left.coefficients == right.coefficients


def test_defining_vanishings_hold():
    for k in range(2, 9):
        for target in blowup_targets(k):
            assert segre_number(target, k, U8) == 0


def test_k_factorial_times_sk_is_integer():
    rng = random.Random(11)
    for _ in range(25):
        inv = SurfaceInvariants(*(rng.randint(-4, 4) for _ in range(4)))
        for k in range(6):
            value = factorial(k) * segre_number(inv, k, U8)
            assert value.denominator == 1, (inv, k)


# -- the symbolic polynomial P_k ------------------------------------------------------


def _faulted_set():
    """The set of `verify --inject-fault`: D's z^2 coefficient one too large."""
    return replace(U8, D=U8.D + TruncatedPowerSeries([0, 0, 1], order=U8.order))


def _evaluated(P, x):
    return sum(c * math.prod(map(pow, x, m)) for m, c in P.items())


@pytest.mark.parametrize(
    ("U", "route"),
    [(U8, "engine"), (_faulted_set(), "engine"), (extract_lehn_universal(8), "lehn")],
    ids=["solved", "inject-fault", "lehn"],
)
def test_segre_polynomial_equals_the_engine(U, route):
    # the zero tuple, the four unit tuples and seeded tuples in [-40, 40]^4; the Lehn
    # route's set takes its logs by `.log()`, and its P_k is the solved set's
    rng = random.Random(2015)
    tuples = [(0, 0, 0, 0), *(x.as_tuple() for x in UNIT_TUPLES.values())]
    tuples += [tuple(rng.randint(-40, 40) for _ in range(4)) for _ in range(12)]
    for k in range(9):
        P = segre_polynomial(k, U)
        assert all(c != 0 for c in P.values()), k
        for x in tuples:
            inv = SurfaceInvariants(*x)
            value = lehn.lehn_series(inv, k)[k] if route == "lehn" else segre_number(inv, k, U)
            assert _evaluated(P, x) == value, (k, x)
        if route == "lehn":
            assert P == segre_polynomial(k, U8), k


@pytest.mark.parametrize("U", [U8, _faulted_set()], ids=["solved", "inject-fault"])
def test_segre_polynomial_has_weighted_degree_at_most_k(U):
    # d weighs 1, pi, kappa and e weigh 2: log C, log D and log B start at z^2
    for k in range(9):
        P = segre_polynomial(k, U)
        assert max(d + 2 * (p + q + e) for d, p, q, e in P) <= k, k
        assert P.get((k, 0, 0, 0)) == F(1, factorial(k))  # log A = z + O(z^2)


def test_segre_polynomial_of_a_solved_set_has_denominators_dividing_k_factorial():
    for k in range(9):
        assert all(factorial(k) % c.denominator == 0 for c in segre_polynomial(k, U8).values()), k
    assert segre_polynomial(2, U8) == {
        (2, 0, 0, 0): F(1, 2), (1, 0, 0, 0): F(-5), (0, 1, 0, 0): F(-5, 2),
        (0, 0, 1, 0): F(-1, 2), (0, 0, 0, 1): F(1, 2),
    }
    assert segre_polynomial(0, U8) == {(0, 0, 0, 0): F(1)}


def test_segre_polynomial_is_integral_on_the_lattice():
    # on L = {d = pi mod 2, kappa + e = 0 mod 12}, where every surface's tuple lies,
    # P_k takes integer values; seeded tuples of L with entries in [-30, 30]
    rng = random.Random(12)
    tuples = []
    for _ in range(40):
        d, kappa = rng.randint(-30, 30), rng.randint(-30, 30)
        pi = rng.choice(range(-30 + (d % 2), 31, 2))
        e = rng.choice(range(-30 + (30 - kappa) % 12, 31, 12))
        assert (d - pi) % 2 == (kappa + e) % 12 == 0
        tuples.append((d, pi, kappa, e))
    for k in range(9):
        P = segre_polynomial(k, U8)
        for x in tuples:
            assert _evaluated(P, x).denominator == 1, (k, x)
    assert _evaluated(segre_polynomial(2, U8), (0, 0, 0, 1)) == F(1, 2)  # off L


def test_the_lattice_basis_series_are_integral_through_both_routes():
    # L has the basis (2, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 11), (0, 0, 0, 12), so s_k is an
    # integer on all of L for k <= N iff A^2, A C, D B^11 and B^12 are integral to order N;
    # the series are products, not powers, and A, B, C alone are not integral
    def first_fraction(f):
        return next((n for n, c in enumerate(f) if c.denominator != 1), None)

    for U in (extract_lehn_universal(32), universal_series_set(32)):
        B11 = math.prod([U.B] * 11)
        assert [first_fraction(f) for f in (U.A * U.A, U.A * U.C, U.D * B11, U.B * B11)] == [None] * 4
        assert [first_fraction(f) for f in (U.A, U.B, U.C)] == [2, 2, 2]
    z = TruncatedPowerSeries.identity(32)  # U is the engine's set: the --inject-fault fault, D_2 + 1
    assert first_fraction((U.D + z**2) * B11) == 4
    assert first_fraction((U.D + z**3) * B11) == 5


def test_a_series_past_the_int_digit_limit_prints_exactly():
    # the z^64 coefficient's numerator has 4,410 digits, past the 4,300 that
    # str(int) refuses since Python 3.10.7: the display goes through format_rational
    series = segre_series(SurfaceInvariants(10**70, 3, -1, 25), 64, universal_series_set(64))
    top = format_rational(series[64])
    assert len(top.split("/")[0]) > 4300
    assert f" {top}*z^64 + O(z^65)" in str(series)
    assert repr(series).endswith(f", {top}])")


def test_negative_order_rejected():
    inv = SurfaceInvariants(2, 0, 0, 0)
    calls = (
        lambda: segre_series(inv, -1, U8),
        lambda: segre_number(inv, -1, U8),
        lambda: segre_polynomial(-1, U8),
        lambda: universal_series_set(-1),
        lambda: determine_AB(-1),
        lambda: determine_CD(-1),
    )
    for call in calls:
        with pytest.raises(ValueError, match="order must be non-negative"):
            call()


def test_insufficient_order_rejected():
    with pytest.raises(ValueError, match="insufficient truncation order"):
        segre_number(SurfaceInvariants(2, 0, 0, 0), 9, U8)
    with pytest.raises(ValueError, match="insufficient truncation order"):
        segre_series(SurfaceInvariants(2, 0, 0, 0), 9, U8)
    with pytest.raises(ValueError, match="insufficient truncation order"):
        segre_polynomial(9, U8)


# -- u = A C generates the lattice, and b = A^2 solves a cubic ----------------------------

#: The theorem's polynomials, coefficients from the constant term up, written out here
#: rather than read from `lehn`: p(u) = 1 + 2u - 2u^2, the cubic b^3 - b^2 = 2 z and the
#: K3 denominator 3b - 2.
P_OF_U = (1, 2, -2)
CUBIC_OF_B = (0, 0, -1, 1)
CUBIC_VALUE = 2
K3_DENOMINATOR = (-2, 3)


def _horner(x, coefficients):
    """The series sum c_i x^i, by products alone."""
    value = TruncatedPowerSeries.constant(coefficients[-1], x.order)
    for c in reversed(coefficients[:-1]):
        value = value * x + c
    return value


def _failing_identities(U, p=P_OF_U, cubic_value=CUBIC_VALUE, k3=K3_DENOMINATOR):
    """The numbers 1-6 of the identities that U breaks, for b = A^2, u = A C, p = p(u):

    1. b^3 - b^2 = 2 z;  2. B^24 (3b - 2) = b^3;  3. u (u - 1) = z p^3;
    4. b p = 1;  5. B^12 (2u - 1) p = 1;  6. D B^11 u^2 = b.
    """
    z, one = TruncatedPowerSeries.identity(U.order), TruncatedPowerSeries.one(U.order)
    b, u = U.A * U.A, U.A * U.C
    P, B11 = _horner(u, p), math.prod([U.B] * 11)
    B12 = B11 * U.B
    sides = (
        (_horner(b, CUBIC_OF_B), z * cubic_value),
        (B12 * B12 * _horner(b, k3), b * b * b),
        (u * (u - 1), z * P * P * P),
        (b * P, one),
        (B12 * (2 * u - 1) * P, one),
        (U.D * B11 * u * u, b),
    )
    return [n for n, (lhs, rhs) in enumerate(sides, 1) if lhs != rhs]


@pytest.mark.parametrize("route", ["engine", "lehn"])
def test_the_six_lattice_identities_hold_and_each_control_breaks_its_own(route):
    # in Lehn's form u = (1 - w)/(1 - 2w), so w = (u - 1)/(2u - 1) turns the substitution
    # into identity 3, and y = (1 - b)/(4 - 6b) turns the cubic in y into identity 1
    U = universal_series_set(64) if route == "engine" else extract_lehn_universal(64)
    assert _failing_identities(U) == []
    z = TruncatedPowerSeries.identity(64)
    assert _failing_identities(replace(U, D=U.D + z * z)) == [6]  # the --inject-fault fault
    assert _failing_identities(U, p=(1, 2, -3)) == [3, 4, 5]
    assert _failing_identities(U, cubic_value=3) == [1]
    assert _failing_identities(U, k3=(-1, 3)) == [2]


@pytest.mark.parametrize("route", ["engine", "lehn"])
def test_the_k3_series_are_powers_of_b_over_3b_minus_2(route):
    # S_g = b^(g+2)/(3b - 2) is one substitution: b = 1 + t gives z = t (1 + t)^2 / 2, and
    # Lagrange-Buermann gives [z^k] S_g = 2^k C(g - 2k + 1, k); coefficient k is a polynomial
    # of degree at most k in g, so the K + 1 consecutive genera 0 .. K decide every g
    K = 12
    U = universal_series_set(K) if route == "engine" else extract_lehn_universal(K)
    b = U.A * U.A

    def closed_series(g):
        return TruncatedPowerSeries([closed_segre(k, g) for k in range(K + 1)])

    for g in range(-5, 20):
        assert b ** (g + 2) / _horner(b, K3_DENOMINATOR) == closed_series(g), g
    control = _horner(b, (-1, 3))  # 3b - 1
    assert all(b ** (g + 2) / control != closed_series(g) for g in range(K + 1))


def test_every_series_on_the_lattice_is_a_product_of_integer_powers_of_u_2u_minus_1_and_p():
    # with 1 - w = u/(2u - 1), 1 - 2w = 1/(2u - 1) and 1 - 6w + 6w^2 = p/(2u - 1)^2, Lehn's
    # form is u^a (2u - 1)^(2c - a - b) p^(-c); its exponents are integers on L, and u, 2u - 1
    # and p are integer units, so s_k is an integer there; seeded tuples of L in [-20, 20]
    N, rng = 24, random.Random(16)
    U = universal_series_set(N)
    u = U.A * U.C
    p = _horner(u, P_OF_U)
    for _ in range(20):
        d, kappa = rng.randint(-20, 20), rng.randint(-20, 20)
        pi = rng.choice(range(-20 + d % 2, 21, 2))
        e = rng.choice(range(-20 + (20 - kappa) % 12, 21, 12))
        inv = SurfaceInvariants(d, pi, kappa, e)
        x = lehn.lehn_exponents(inv)
        a, b, c = map(int, (x.a, x.b, x.c))
        assert (a, b, c) == (x.a, x.b, x.c), inv
        series = u**a * (2 * u - 1) ** (2 * c - a - b) * p**-c
        assert series == segre_series(inv, N, U), inv
        assert all(coefficient.denominator == 1 for coefficient in series), inv


# -- blow-up targets ---------------------------------------------------------------------


def _section_count(target):
    """h^0 of the twisted bundle: g + 1 - l(l+1)/2, with d = 2g - 2 - l^2 and l = pi."""
    twist = target.pi
    genus, odd = divmod(target.d + twist * twist + 2, 2)
    assert odd == 0, target
    return genus + 1 - twist * (twist + 1) // 2


def test_targets_k5():
    first, second = blowup_targets(5)
    assert first.as_tuple() == (28, 4, -1, 25)
    assert second.as_tuple() == (29, 5, -1, 25)
    assert _section_count(first) == 14
    assert _section_count(second) == 14


def test_targets_k2():
    first, second = blowup_targets(2)
    assert first.as_tuple() == (7, 1, -1, 25)
    assert second.as_tuple() == (8, 2, -1, 25)


def test_section_count_is_3k_minus_1():
    for k in range(2, 12):
        for target in blowup_targets(k):
            assert _section_count(target) == 3 * k - 1


def test_blowup_targets_and_the_solve_read_one_definition():
    for k in range(2, 129):
        assert universal._blowup_vanishings(k) == tuple(t.as_tuple() for t in blowup_targets(k))


def test_targets_require_k_at_least_2():
    with pytest.raises(ValueError, match="targets defined for k >= 2 only"):
        blowup_targets(1)
