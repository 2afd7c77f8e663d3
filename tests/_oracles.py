"""Independent oracles used by the tests.

Everything here recomputes values by a route different from the one
under test: the Lagrange formula instead of order-by-order reversion,
the Taylor sum instead of the exp recursion, finite differences
instead of binomial algebra.
"""

from __future__ import annotations

from fractions import Fraction

from hilbsegre import TruncatedPowerSeries


def lagrange_revert(f: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """Compositional inverse via Lagrange's formula.

    g_m = [w^(m-1)] (w / f(w))^m / m, which never consults the
    undetermined-coefficient loop used by `TruncatedPowerSeries.revert`.
    """
    n = f.order
    coefficients = [Fraction(0)] * (n + 1)
    shifted = TruncatedPowerSeries(f.coefficients[1:])  # f / w
    leading = shifted[0]
    unit = shifted / leading
    for m in range(1, n + 1):
        powered = unit.pow(-m)
        coefficients[m] = powered[m - 1] / (leading**m) / m
    return TruncatedPowerSeries(coefficients)


def exp_by_taylor_sum(g: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """exp(g) as sum_{n <= N} g^n / n!, for g with zero constant term.

    g^n is built by plain multiplication, so the coefficient recursion
    n E_n = sum_j j g_j E_{n-j} used by `TruncatedPowerSeries.exp` is
    never consulted; g^n vanishes below z^n, so the sum is exact at N.
    """
    total = TruncatedPowerSeries.one(g.order)
    term = TruncatedPowerSeries.one(g.order)
    for n in range(1, g.order + 1):
        term = term * g / n
        total = total + term
    return total


def finite_differences(values: list[Fraction], times: int) -> list[Fraction]:
    """Iterated forward differences of a value sequence."""
    out = list(values)
    for _ in range(times):
        out = [b - a for a, b in zip(out, out[1:])]
    return out
