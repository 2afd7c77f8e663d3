"""Acceptance suite: every cross-validation criterion at zero tolerance.

Each test prints one line (visible with `pytest -s`) naming the
criterion, its outcome, and the measured runtime; the stated budgets
are asserted as hard bounds.  All comparisons are exact: there are no
numeric tolerances anywhere in this suite.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from hilbsegre import (
    SurfaceInvariants,
    TruncatedPowerSeries,
    blowup_targets,
    checks,
    closed_segre,
    determine_b_s1,
    extract_lehn_universal,
    lehn_series,
    segre_number,
    segre_series,
    universal_series_set,
)

from tests._oracles import generalized_binomial


class _Timer:
    def __init__(self, name: str, budget: float):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        outcome = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.name}: {outcome} ({elapsed:.2f}s, budget {self.budget:g}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.name} exceeded {self.budget}s ({elapsed:.2f}s)"
        return False


def _passes(check, U, order: int, max_k: int) -> None:
    """Run one registry check and fail with its report lines unless every line passes."""
    outcomes = check(U, order, max_k)
    assert outcomes and all(o.ok for o in outcomes), [o.line() for o in outcomes]


def test_criterion_01_closed_formula_vs_recursion():
    with _Timer("01 closed-vs-recursion", 1.0):
        _passes(checks.closed_vs_recursion, None, 0, 10)
        for k in range(11):
            for g in range(1, 31):
                assert closed_segre(k, g) == generalized_binomial(g - 2 * k + 1, k) * 2**k


def test_criterion_02_vanishing_range():
    with _Timer("02 vanishing-range", 1.0):
        for k in range(13):
            for g in range(-40, 41):
                in_window = 2 * k - 1 <= g <= 3 * k - 2
                assert (closed_segre(k, g) == 0) == in_window, (k, g)


def test_criterion_03_b_sequence_determination():
    with _Timer("03 b-determination", 1.0):
        b, _ = determine_b_s1(10)
        assert b.coefficients[:3] == (1, 2, -8)  # b_2: the hand-telescoped k = 2 system
        _passes(checks.b_vs_bprime, None, 0, 10)


def test_criterion_04_engine_reproduces_k3():
    with _Timer("04 engine-k3", 5.0):
        U = universal_series_set(10)
        for g in range(1, 31):
            series = segre_series(SurfaceInvariants(2 * g - 2, 0, 0, 24), 10, U)
            for k in range(11):
                assert series[k] == closed_segre(k, g), (k, g)


def test_criterion_05_defining_vanishings_and_lehn_confirmation():
    with _Timer("05 blowup-vanishings", 10.0):
        U = universal_series_set(10)
        for k in range(2, 11):
            for target in blowup_targets(k):
                assert segre_number(target, k, U) == 0, (k, target)
        # the Lehn route never saw these constraints
        _passes(checks.lehn_vanishing, U, 10, 10)


def test_criterion_06_full_route_equivalence():
    with _Timer("06 route-equivalence", 30.0):
        _passes(checks.engine_vs_lehn_grid, universal_series_set(8), 8, 8)
        U10 = universal_series_set(10)
        extracted = extract_lehn_universal(10)
        for name in "ABCD":
            assert getattr(extracted, name).coefficients == getattr(U10, name).coefficients


def test_criterion_07_published_s5_polynomial():
    with _Timer("07 s5-polynomial", 1.0):
        _passes(checks.s5_polynomial, universal_series_set(8), 8, 5)


def test_criterion_08_pascal_identity():
    with _Timer("08 pascal-identity", 1.0):
        _passes(checks.pascal_identity, None, 0, 12)


def test_criterion_09_degenerate_k_trivial_family():
    with _Timer("09 degenerate-family", 5.0):
        _passes(checks.degenerate_family, universal_series_set(8), 8, 8)


def test_criterion_10_kernel_property_suite():
    with _Timer("10 kernel-properties", 10.0):
        _passes(checks.kernel_roundtrips, None, 12, 0)


def test_criterion_11_k3_family_reach_at_order_128():
    with _Timer("11 k3-reach-128", 6.0):
        U = universal_series_set(128)
        for g in (1, 5, 40):
            series = segre_series(SurfaceInvariants(2 * g - 2, 0, 0, 24), 128, U)
            for k in range(129):
                assert series[k] == closed_segre(k, g), (k, g)


def test_criterion_12_lehn_k3_reach_at_order_128():
    with _Timer("12 lehn-k3-reach-128", 2.0):
        for g in (1, 5, 40):
            series = lehn_series(SurfaceInvariants(2 * g - 2, 0, 0, 24), 128)
            for k in range(129):
                assert series[k] == closed_segre(k, g), (k, g)


def test_criterion_13_lehn_universal_series_at_order_128():
    # the engine's build also proves every j log_j integral to 128: its solve raises otherwise
    with _Timer("13 lehn-universal-128", 3.0):
        assert extract_lehn_universal(128) == universal_series_set(128)


def test_criterion_14_reversion_reach_at_order_128():
    # one series drawn as kernel-roundtrips draws its invertible ones, at an order past MAX_ORDER
    with _Timer("14 reversion-reach-128", 2.5):
        rng = random.Random(58123)
        linear = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
        rest = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(127)]
        f = TruncatedPowerSeries([0, linear] + rest)
        inverse, identity = f.revert(), TruncatedPowerSeries.identity(128)
        assert f.compose(inverse) == identity
        assert inverse.compose(f) == identity
