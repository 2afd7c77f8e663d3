"""Independent oracles used by the tests.

Everything here recomputes values by a route different from the one
under test: order-by-order undetermined coefficients instead of the
Lagrange formula, the Taylor sum instead of the exp recursion, finite
differences instead of binomial algebra, and the K3 recursion table
instead of the engine's log-coordinate solve for b and s(k, 1).  The
product, exp, log, power and division references run their recurrences
directly over `Fraction`, reducing after every operation, where the
kernel clears denominators and runs over integers:

- `fraction_mul`: the Cauchy product;
- `fraction_exp` and `fraction_log`: the recurrences from E' = f' E and
  f L' = f';
- `fraction_pow`: the one-pass power recurrence, where the kernel takes
  exp(alpha log f);
- `fraction_div`: long division, where the kernel multiplies by the
  inverse power of the divisor;
- `fraction_compose`: Horner's rule over `fraction_mul` and `Fraction`
  addition, where the kernel runs Horner's rule over integer numerators;
- `fraction_probe_and_solve`: the engine's vanishing solve on `Fraction`
  logs with `fraction_exp` probes, where the engine keeps integer
  numerators of j log_j, calls the integer exp kernel and solves each
  step by exact integer division.

`generalized_binomial` is the falling factorial n (n-1) ... (n-k+1)
over k!, the reference for `closed_segre`, which takes `math.comb` and
reflects a negative upper index.

`reverted_substitution` expands Lehn's change of variable z(w) from its
closed form with powers and products, and w(z) by Lagrange reversion,
where `lehn` solves the cubic in y = w - w^2 by undetermined integer
coefficients.  `LEHN_P` and `LEHN_Q` are the substitution's polynomials
in w itself, for z(w) = w P / Q by long division.

`lehn_residue` is Lehn's s_k in residue form, one coefficient in w of
three binomial-type series, where `lehn` exponentiates logs in z.

`published_s5_times_120` is the printed form of the published 5! s_5
(Marian, Oprea and Pandharipande, "Segre classes and Hilbert schemes of
points", 2015), nested as printed, where `lehn` keeps its monomial table.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from hilbsegre import TruncatedPowerSeries


def generalized_binomial(n: int, k: int) -> Fraction:
    """Falling-factorial binomial n(n-1)...(n-k+1)/k!, any integer n.

    Always 1 for k = 0, and 0 exactly when 0 <= n < k.  For integer n
    the falling factorial is divisible by k!, so the quotient is exact.
    """
    if k < 0:
        raise ValueError("binomial lower index must be non-negative")
    num = 1
    for j in range(k):
        num *= n - j
    return Fraction(num // factorial(k))


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


def fraction_pow(f: TruncatedPowerSeries, exponent) -> TruncatedPowerSeries:
    """f^alpha by n f0 g_n = sum_{k=1..n} ((alpha + 1) k - n) f_k g_{n-k} over Fraction.

    The recurrence comes from f g' = alpha f' g (Knuth, TAOCP vol. 2,
    4.7).  A non-negative integer power takes any base: the valuation v
    is shifted out first, f^n = z^(n v) h^n with h0 != 0.  A negative
    integer power takes any unit, g0 = f0^n.  Any other exponent needs
    f0 = 1.
    """
    alpha = Fraction(exponent)
    coeffs = f.coefficients
    shift = 0
    if alpha.denominator == 1 and alpha >= 0:
        n = alpha.numerator
        if n == 0:
            return TruncatedPowerSeries.one(f.order)
        v = next((i for i, c in enumerate(coeffs) if c), None)
        if v is None or n * v > f.order:
            return TruncatedPowerSeries.zero(f.order)
        shift, coeffs = n * v, coeffs[v:]
        g = [coeffs[0] ** n]
    elif alpha.denominator == 1 and coeffs[0] != 0:
        g = [coeffs[0] ** alpha.numerator]
    elif coeffs[0] != 1:
        raise ValueError("negative power of a non-unit, or fractional power with f0 != 1")
    else:
        g = [Fraction(1)]
    p, q = alpha.numerator, alpha.denominator  # integer weights q((alpha + 1) k - n)
    for m in range(1, f.order - shift + 1):
        total = sum(((p + q) * k - q * m) * coeffs[k] * g[m - k] for k in range(1, m + 1))
        g.append(total / (q * m * coeffs[0]))
    return TruncatedPowerSeries([Fraction(0)] * shift + g)


def fraction_div(f: TruncatedPowerSeries, g: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """f / g for g0 != 0 by long division over Fraction, to the smaller order."""
    if g[0] == 0:
        raise ValueError("non-unit divisor")
    q: list[Fraction] = []
    for k in range(min(f.order, g.order) + 1):
        acc = f[k]
        for i in range(k):
            acc -= q[i] * g[k - i]
        q.append(acc / g[0])
    return TruncatedPowerSeries(q)


def fraction_compose(f: TruncatedPowerSeries, g: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """f(g) for g0 = 0 by Horner's rule over `fraction_mul`, to the smaller order."""
    if g[0] != 0:
        raise ValueError("composition requires zero constant term")
    n = min(f.order, g.order)
    inner = g.truncate(n)
    acc = TruncatedPowerSeries.constant(f[n], n)
    for k in range(n - 1, -1, -1):
        acc = fraction_mul(acc, inner) + f[k]
    return acc


def fraction_probe_and_solve(logs, slots, vanishings, N: int) -> None:
    """Fill logs[i][k], logs[j][k] for (i, j) = `slots`, k = 2 .. N, over Fraction.

    Each probe is `fraction_exp` of the weighted sum of the logs, with the
    two unknown k-th coefficients still 0, so its z^k coefficient nu is
    the constant part of an affine equation; the two vanishings of
    `vanishings(k)` give a 2 x 2 system, solved by Cramer's rule.
    """
    i, j = slots
    for k in range(2, N + 1):
        w, v = vanishings(k)
        probes = []
        for weights in (w, v):
            combination = [sum(t * log[n] for t, log in zip(weights, logs)) for n in range(k + 1)]
            probes.append(fraction_exp(TruncatedPowerSeries(combination))[k])
        nu, nu_v = probes
        det = w[i] * v[j] - w[j] * v[i]
        logs[i][k] = (w[j] * nu_v - v[j] * nu) / det
        logs[j][k] = (v[i] * nu - w[i] * nu_v) / det


#: P = (1 - w)(1 - 2w)^4 and Q = (1 - 6w + 6w^2)^3 of Lehn's substitution
#: w P(w) = z Q(w), expanded by hand, lowest coefficient first.
LEHN_P = (1, -9, 32, -56, 48, -16)
LEHN_Q = (1, -18, 126, -432, 756, -648, 216)


def reverted_substitution(N: int) -> tuple[tuple[Fraction, ...], ...]:
    """z(w), w(z) and the logs of 1 - w, 1 - 2w, 1 - 6w + 6w^2 at w = w(z).

    z(w) = w (1 - w) (1 - 2w)^4 (1 - 6w + 6w^2)^(-3) is built by series
    powers and products and reverted by `TruncatedPowerSeries.revert`.
    """
    w = TruncatedPowerSeries.identity(N)
    zw = w * (1 - w) * (1 - 2 * w).pow(4) * (1 - 6 * w + 6 * w * w).pow(-3)
    wz = zw.revert()
    factors = (1 - wz, 1 - 2 * wz, 1 - 6 * wz + 6 * wz * wz)
    return (zw.coefficients, wz.coefficients, *(f.log().coefficients for f in factors))


def residue_coefficient(k: int, e1, e2, e3) -> Fraction:
    """[w^k] (1 - w)^e1 (1 - 2w)^e2 (1 - 6w + 6w^2)^e3 over Fraction, any rational exponents.

    The two binomial series step by the ratio of consecutive binomial
    coefficients, [w^(n+1)] (1 - r w)^e = r (n - e) / (n + 1) [w^n], and
    F = (1 - 6w + 6w^2)^g by (n + 1) F_(n+1) = 6 (n - g) F_n -
    6 (n - 1 - 2g) F_(n-1), the w^n coefficient of P F' = g P' F.
    """
    rows = []
    for r, e in ((1, e1), (2, e2)):
        row = [Fraction(1)]
        for n in range(k):
            row.append(row[n] * r * (n - e) / (n + 1))
        rows.append(row)
    g, F = Fraction(e3), [Fraction(0), Fraction(1)]  # F[n + 1] = F_n, with F_(-1) = 0
    for n in range(k):
        F.append((6 * (n - g) * F[n + 1] - 6 * (n - 1 - 2 * g) * F[n]) / (n + 1))
    u, v = rows
    return sum(u[i] * v[j] * F[k - i - j + 1] for i in range(k + 1) for j in range(k + 1 - i))


def lehn_residue(a, b, c, k: int) -> Fraction:
    """Lehn's s_k for the exponents a, b, c: [w^k] (1 - w)^(a-k-1) (1 - 2w)^(b-4k-1) P^(3k-c-1).

    P = 1 - 6w + 6w^2.  The z^k coefficient of f is the residue of
    f z' / z^(k+1) in w, and with z = w Q / P^3, Q = (1 - w)(1 - 2w)^4,
    z' = (1 - 2w)^3 / P^4 by the identity (1 - w)(1 - 2w)(Q P + w Q' P -
    3 w P' Q) = Q, so the residue is the w^k coefficient above.
    """
    return residue_coefficient(k, a - k - 1, b - 4 * k - 1, 3 * k - c - 1)


def undetermined_revert(f: TruncatedPowerSeries) -> TruncatedPowerSeries:
    """Compositional inverse by undetermined coefficients.

    With g known below order m, the z^m coefficient of f(g) depends on
    g_m only through f1 * g_m, so each order is one `fraction_compose`
    and one exact division.  This never consults the Lagrange formula
    used by `TruncatedPowerSeries.revert`.
    """
    n = f.order
    inv1 = 1 / f[1]
    g = [Fraction(0), inv1] + [Fraction(0)] * (n - 1)
    for m in range(2, n + 1):
        g[m] = -fraction_compose(f.truncate(m), TruncatedPowerSeries(g[: m + 1]))[m] * inv1
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


def b_s1_by_table_induction(K: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """b and s(k, 1) to index K by induction on k over the K3 recursion table.

    With everything below k known, telescoping s(k, g) = sum_l b_l
    s(k - l, g - 1) from genus 1 upward makes s(k, 2k) and s(k, 2k - 1)
    affine in the unknowns s(k, 1) and b_k with a unimodular linear part,
    and the two vanishings solve them.  The seeds are integers, so the
    whole table is too.
    """
    b = [1, 2][: K + 1]
    s1 = [1, 0][: K + 1]
    rows = [[s1[0]]]  # rows[l][g - 1] = s(l, g)
    for k in range(2, K + 1):
        rows.append([s1[k - 1]])
        for l, row in enumerate(rows):  # grow every row to genus 2k - 1
            while len(row) < 2 * k - 1:
                g = len(row) + 1
                row.append(sum(b[j] * rows[l - j][g - 2] for j in range(l + 1)))

        def known(g: int) -> int:  # s(k, g) - s(k, g - 1) without its b_k term
            return sum(b[l] * rows[k - l][g - 2] for l in range(1, k))

        b_k = -known(2 * k)
        s1.append(-sum(known(g) for g in range(2, 2 * k)) - (2 * k - 2) * b_k)
        b.append(b_k)
    return tuple(map(Fraction, b)), tuple(map(Fraction, s1))


def finite_differences(values: list[Fraction], times: int) -> list[Fraction]:
    """Iterated forward differences of a value sequence."""
    out = list(values)
    for _ in range(times):
        out = [b - a for a, b in zip(out, out[1:])]
    return out


def published_s5_times_120(d: int, p: int, q: int, e: int) -> int:
    """5! s_5 at (d, pi, kappa, e) = (d, p, q, e), as the published polynomial is printed."""
    return (
        d**5
        - 100 * d**4
        + d**3 * (3740 + 10 * e - 50 * p - 10 * q)
        - d**2 * (62000 - 3420 * p + 700 * e - 860 * q)
        + d
        * (
            384384
            + 15 * e**2
            + 15960 * e
            - 30 * e * q
            - 150 * p * e
            + 15 * q**2
            + 150 * q * p
            - 75610 * p
            - 24340 * q
            + 375 * p**2
        )
        - 400 * e**2
        - 117120 * e
        + 3920 * p * e
        + 960 * q * e
        + 226560 * q
        - 4720 * q * p
        - 560 * q**2
        + 530880 * p
        - 9600 * p**2
    )
