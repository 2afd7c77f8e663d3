"""Independent oracles used by the tests.

Everything here recomputes values by a route different from the one
under test: order-by-order undetermined coefficients instead of the
Lagrange formula, the Taylor sum instead of the exp recursion, finite
differences instead of binomial algebra.  The product, exp and log
references run their recurrences directly over `Fraction`, reducing
after every operation, where the kernel clears denominators and runs
over integers.
"""

from __future__ import annotations

from fractions import Fraction

from hilbsegre import TruncatedPowerSeries


def fraction_mul(f: TruncatedPowerSeries, g: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """The Cauchy product over Fraction, truncated to the smaller order."""
    n = min(f.order, g.order)
    return TruncatedPowerSeries(
        [sum((f[i] * g[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n + 1)]
    )


def fraction_exp(f: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """exp(f) for f0 = 0 by n E_n = sum_{j<=n} j f_j E_{n-j} over Fraction."""
    out = [Fraction(1)]
    for m in range(1, f.order + 1):
        out.append(sum((j * f[j] * out[m - j] for j in range(1, m + 1)), Fraction(0)) / m)
    return TruncatedPowerSeries(out)


def fraction_log(f: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """log(f) for f0 = 1 by n L_n = n f_n - sum_{0<j<n} j L_j f_{n-j} over Fraction."""
    out = [Fraction(0)]
    for m in range(1, f.order + 1):
        convolution = sum((j * out[j] * f[m - j] for j in range(1, m)), Fraction(0))
        out.append(f[m] - convolution / m)
    return TruncatedPowerSeries(out)


def undetermined_revert(f: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """Compositional inverse by undetermined coefficients.

    With g known below order m, the z^m coefficient of f(g) depends on
    g_m only through f1 * g_m, so each order is one composition (by
    Horner's rule over `fraction_mul`) and one exact division.  This
    never consults the Lagrange formula used by
    `TruncatedPowerSeries.revert`.
    """
    n = f.order
    inv1 = 1 / f[1]
    g = [Fraction(0), inv1] + [Fraction(0)] * (n - 1)
    for m in range(2, n + 1):
        inner = TruncatedPowerSeries(g[: m + 1])
        h = TruncatedPowerSeries.constant(f[m], m)
        for k in range(m - 1, -1, -1):
            h = fraction_mul(h, inner) + f[k]
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
