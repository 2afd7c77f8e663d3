"""Independent oracles used by the tests.

Everything here recomputes values by a route different from the one
under test: order-by-order undetermined coefficients instead of the
Lagrange formula, the Taylor sum instead of the exp recursion, finite
differences instead of binomial algebra.
"""

from __future__ import annotations

from fractions import Fraction

from hilbsegre import TruncatedPowerSeries


def undetermined_revert(f: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """Compositional inverse by undetermined coefficients.

    With g known below order m, the z^m coefficient of f(g) depends on
    g_m only through f1 * g_m, so each order is one composition and one
    exact division.  This never consults the Lagrange formula used by
    `TruncatedPowerSeries.revert`.
    """
    n = f.order
    inv1 = 1 / f[1]
    g = [Fraction(0), inv1] + [Fraction(0)] * (n - 1)
    for m in range(2, n + 1):
        h = f.compose(TruncatedPowerSeries(g[: m + 1]))
        g[m] = -h[m] * inv1
    return TruncatedPowerSeries(g)


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
