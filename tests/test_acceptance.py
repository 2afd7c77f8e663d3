"""Acceptance suite: every cross-validation criterion at zero tolerance.

Each test prints one line (visible with `pytest -s`) naming the
criterion, its outcome, and the measured runtime; the stated budgets
are asserted as hard bounds.  All comparisons are exact: there are no
numeric tolerances anywhere in this suite.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

from hilbsegre import (
    SurfaceInvariants,
    TruncatedPowerSeries,
    blowup_targets,
    closed_segre,
    determine_b_prime,
    determine_b_s1,
    eval_s5_polynomial,
    extract_lehn_universal,
    generalized_binomial,
    lehn_series,
    recursion_table,
    segre_number,
    segre_series,
    universal_series_set,
)


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


def test_criterion_01_closed_formula_vs_recursion():
    with _Timer("01 closed-vs-recursion", 1.0):
        rows = recursion_table(10, 30, determine_b_s1(10))
        for k in range(11):
            for g in range(1, 31):
                closed = closed_segre(k, g)
                assert closed == generalized_binomial(g - 2 * k + 1, k) * 2**k
                assert rows[k][g - 1] == closed, (k, g)


def test_criterion_02_vanishing_range():
    with _Timer("02 vanishing-range", 1.0):
        for k in range(13):
            for g in range(-40, 41):
                in_window = 2 * k - 1 <= g <= 3 * k - 2
                assert (closed_segre(k, g) == 0) == in_window, (k, g)


def test_criterion_03_b_sequence_determination():
    with _Timer("03 b-determination", 1.0):
        seqs = determine_b_s1(10)
        assert seqs.b[0] == 1
        assert seqs.b[1] == 2
        assert seqs.b[2] == -8  # hand-telescoped k = 2 system
        assert determine_b_prime(10) == seqs.b


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
                assert segre_number(target.invariants, k, U) == 0, (k, target)
                # the Lehn route never saw these constraints
                assert lehn_series(target.invariants, k)[k] == 0, (k, target)


def test_criterion_06_full_route_equivalence():
    with _Timer("06 route-equivalence", 30.0):
        U8 = universal_series_set(8)
        for d in range(-3, 4):
            for pi in range(-3, 4):
                for kappa in range(-3, 4):
                    for e in (0, 12, 24):
                        inv = SurfaceInvariants(d, pi, kappa, e)
                        engine = segre_series(inv, 8, U8)
                        oracle = lehn_series(inv, 8)
                        assert engine.coefficients == oracle.coefficients, inv
        U10 = universal_series_set(10)
        extracted = extract_lehn_universal(10)
        for name in "ABCD":
            assert getattr(extracted, name).coefficients == getattr(U10, name).coefficients


def test_criterion_07_published_s5_polynomial():
    with _Timer("07 s5-polynomial", 5.0):
        assert eval_s5_polynomial(SurfaceInvariants(28, 4, -1, 25)) == 0
        assert eval_s5_polynomial(SurfaceInvariants(29, 5, -1, 25)) == 0
        U = universal_series_set(8)
        rng = random.Random(1789)
        for _ in range(20):
            inv = SurfaceInvariants(
                rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-10, 30)
            )
            assert eval_s5_polynomial(inv) == segre_number(inv, 5, U), inv


def test_criterion_08_pascal_identity():
    with _Timer("08 pascal-identity", 1.0):
        for k in range(1, 13):
            for g in range(-40, 41):
                assert 2 * closed_segre(k - 1, g - 3) == closed_segre(k, g) - closed_segre(k, g - 1), (k, g)


def test_criterion_09_degenerate_k_trivial_family():
    with _Timer("09 degenerate-family", 5.0):
        U = universal_series_set(8)
        for kappa in (1, 2, 3):
            inv = SurfaceInvariants(0, 2 * kappa, kappa, 11 * kappa)
            engine = segre_series(inv, 8, U)
            oracle = lehn_series(inv, 8)
            for k in range(1, 9):
                assert engine[k] == 0, (kappa, k)
                assert oracle[k] == 0, (kappa, k)


def test_criterion_10_kernel_property_suite():
    with _Timer("10 kernel-properties", 10.0):
        rng = random.Random(60321)
        exponent_pairs = (
            (F(1, 2), F(1, 2)),
            (F(1, 3), F(2, 3)),
            (F(-1), F(2)),
            (F(5, 2), F(-3, 2)),
        )
        checked = 0
        for _ in range(50):
            order = rng.randint(3, 12)
            tail = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order)]

            unit = TruncatedPowerSeries([F(1)] + tail)
            assert unit.log().exp().coefficients == unit.coefficients
            for alpha, beta in exponent_pairs:
                product = unit.pow(alpha) * unit.pow(beta)
                assert product.coefficients == unit.pow(alpha + beta).coefficients
            checked += 1

            linear = F(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
            rest = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order - 1)]
            invertible = TruncatedPowerSeries([F(0), linear] + rest)
            inverse = invertible.revert()
            identity = TruncatedPowerSeries.identity(order)
            assert invertible.compose(inverse).coefficients == identity.coefficients
            assert inverse.compose(invertible).coefficients == identity.coefficients
            zero_const = TruncatedPowerSeries([F(0)] + tail)
            assert zero_const.exp().log().coefficients == zero_const.coefficients
            checked += 1
        assert checked >= 100
