"""Log-linear evaluation of both routes against the product-of-powers form.

Both routes evaluate a tuple as one exp of a linear combination of
cached logs.  These tests rebuild the same series the direct way, from
the public pow, mul and compose, and require exact equality; they also
check that a universal series set never evaluates with another set's
logs.
"""

from __future__ import annotations

import dataclasses
import random

from hilbsegre import (
    SurfaceInvariants,
    TruncatedPowerSeries,
    UniversalSeriesSet,
    change_of_variable,
    lehn_exponents,
    lehn_series,
    segre_series,
    universal_series_set,
)

N = 12
EXTREME_TUPLES = (
    (40, 10, 10, 60),
    (-40, -10, -10, -12),
    (-40, 3, -7, 5),
    (37, -9, 4, -11),
    (0, 0, 0, 0),
)


def seeded_tuples(count=15, seed=2017):
    rng = random.Random(seed)
    drawn = [
        (rng.randint(-40, 40), rng.randint(-10, 10), rng.randint(-10, 10), rng.randint(-12, 60))
        for _ in range(count)
    ]
    return [SurfaceInvariants(*raw) for raw in EXTREME_TUPLES + tuple(drawn)]


def test_sample_covers_large_negative_and_non_integral_exponents():
    tuples = seeded_tuples()
    assert any(abs(inv.d) >= 40 for inv in tuples)
    assert any(min(inv.as_tuple()) < 0 for inv in tuples)
    assert sum((inv.kappa + inv.e) % 12 != 0 for inv in tuples) >= 5


def test_engine_equals_product_of_powers():
    U = universal_series_set(N)
    for inv in seeded_tuples():
        product = U.A.pow(inv.d) * U.B.pow(inv.e) * U.C.pow(inv.pi) * U.D.pow(inv.kappa)
        assert segre_series(inv, N, U).coefficients == product.coefficients, inv


def test_lehn_equals_closed_form_composed_with_w_of_z():
    w = TruncatedPowerSeries.identity(N)
    _, w_of_z = change_of_variable(N)
    for inv in seeded_tuples():
        exps = lehn_exponents(inv)
        f_in_w = (1 - w).pow(exps.a) * (1 - 2 * w).pow(exps.b) * (1 - 6 * w + 6 * w * w).pow(-exps.c)
        assert lehn_series(inv, N).coefficients == f_in_w.compose(w_of_z).coefficients, inv


def test_changed_series_are_not_served_cached_logs():
    U = universal_series_set(8)
    inv = SurfaceInvariants(3, 1, 2, 5)
    before = segre_series(inv, 2, U)[2]  # fills U's log cache
    coefficients = list(U.D.coefficients)
    coefficients[2] += 1
    bumped = TruncatedPowerSeries(coefficients)
    # D_1 = 0, so log D gains exactly 1 at z^2 and s_2 moves by kappa
    for changed in (
        dataclasses.replace(U, D=bumped),
        UniversalSeriesSet(U.A, U.B, U.C, bumped),
    ):
        assert segre_series(inv, 2, changed)[2] == before + inv.kappa
    assert segre_series(inv, 2, U)[2] == before
