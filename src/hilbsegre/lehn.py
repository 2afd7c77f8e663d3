"""The Lehn generating function, expanded exactly from its defining equation.

Lehn's closed form packages every Segre series into one algebraic
expression in an auxiliary variable w:

    f(z) = (1 - w)^a (1 - 2w)^b / (1 - 6w + 6w^2)^c,

with rational exponents read off the surface invariants,

    chi = (kappa + e) / 12,
    a   = pi - 2 kappa,
    b   = d - 2 pi + kappa + 3 chi,
    c   = (d - pi) / 2 + chi,

and w tied to z by the substitution

    z = w (1 - w) (1 - 2w)^4 / (1 - 6w + 6w^2)^3.

The substitution is w P(w) = z Q(w) for P = (1 - w)(1 - 2w)^4 and
Q = (1 - 6w + 6w^2)^3.  In y = w - w^2 it is a cubic: the identities

    (1 - 2w)^2 = 1 - 4y,    1 - 6w + 6w^2 = 1 - 6y

turn it into y (1 - 4y)^2 = z (1 - 6y)^3, and y(z) is its power series
root: order by order, the z^n coefficients of both sides differ in y_n
alone, so undetermined coefficients fix y(z) over the integers, with no
compositional reversion, and w = y + w^2 gives w(z) the same way.
Every tuple is then log-linear, f = exp(a l1 + b l2 - c l3), where l1,
l2, l3 are the logs of 1 - w, 1 - 2w, 1 - 6y at w = w(z): no powers and
no composition per tuple.  The n l_n are integers, and so is (a, b, -c)
times the lcm of its denominators: as in the engine, `_log_series` reads
the logs from the n l_n, and `_exp_series` A, C, D, B from the logs and
`lehn_exponents` at `UNIT_TUPLES`.  One cache holds these nine series,
z(w), w(z), l1, l2, l3, A, C, D, B, built at the largest order so far; a
lower order reads that build, and each reader truncates only what it
hands out (`lehn_series`, whose exp reads no further than z^N, nothing).
This module is a construction of the Segre numbers that is independent
of the probe-and-solve engine in `universal`; the two are compared
coefficient by coefficient in the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .series import TruncatedPowerSeries, _exp_of_combination, _exp_series
from .series import _grown_by_prefix, _log_numerators, _log_series
from .universal import UNIT_TUPLES, SurfaceInvariants, UniversalSeriesSet, blowup_targets

__all__ = [
    "LehnExponents",
    "change_of_variable",
    "eval_s5_polynomial",
    "extract_lehn_universal",
    "lehn_exponents",
    "lehn_series",
    "verify_lehn_vanishings",
]


@dataclass(frozen=True)
class LehnExponents:
    """Exponents (a, b, c) and the Euler characteristic chi for one tuple."""

    a: Fraction
    b: Fraction
    c: Fraction
    chi: Fraction

    @property
    def weights(self) -> tuple[Fraction, Fraction, Fraction]:
        """(a, b, -c): the weights of the logs of 1 - w, 1 - 2w and 1 - 6w + 6w^2."""
        return self.a, self.b, -self.c


def lehn_exponents(inv: SurfaceInvariants) -> LehnExponents:
    """Exact rational exponents; no integrality is required or assumed."""
    twelve_chi = inv.kappa + inv.e  # each exponent is built as one Fraction
    return LehnExponents(
        a=Fraction(inv.pi - 2 * inv.kappa),
        b=Fraction(4 * (inv.d - 2 * inv.pi + inv.kappa) + twelve_chi, 4),  # 3 chi = twelve_chi / 4
        c=Fraction(6 * (inv.d - inv.pi) + twelve_chi, 12),
        chi=Fraction(twelve_chi, 12),
    )


def change_of_variable(N: int) -> tuple[TruncatedPowerSeries, TruncatedPowerSeries]:
    """The substitution z(w) expanded to order N, and its inverse w(z)."""
    if N < 1:
        raise ValueError("change of variable needs order >= 1")
    return tuple(part.truncate(N) for part in _substitution(N)[:2])


#: The cubic y (1 - 4y)^2 = z (1 - 6y)^3 that w P(w) = z Q(w) becomes at
#: y = w - w^2: its two sides as polynomials in y, lowest coefficient first.
_CUBIC = ((0, 1, -8, 16), (1, -18, 108, -216))

@_grown_by_prefix
def _substitution(N: int) -> tuple[TruncatedPowerSeries, ...]:
    """z(w), w(z), l1, l2, l3 (the logs of the three factors at w = w(z)), then A, C, D, B.

    With y = w - w^2, (1 - 2w)^2 = 1 - 4y and 1 - 6w + 6w^2 = 1 - 6y, so
    w P(w) = z Q(w) is the cubic y (1 - 4y)^2 = z (1 - 6y)^3 of `_CUBIC`.
    With y_1 .. y_(n-1) known, y_n = [z^(n-1)] (1 - 6y)^3 + 8 [z^n] y^2 -
    16 [z^n] y^3, where every term on the right reads only known
    coefficients, and w_n = y_n + [z^n] w^2; y^2, y^3 and w^2 grow by one
    dot product each per order, so the expansion is O(N^2) integer work.
    z(w) is the long division of the two sides, each a polynomial in w.
    The factors 1 - w, 1 - 2w and 1 - 6y have integer coefficients, so
    `_log_numerators` gives the integers n l_n, and exp(u . l / q) for u =
    q (a, b, -c) at each of `UNIT_TUPLES`, q the lcm of its denominators,
    costs one integer dot product per coefficient and one `_exp_series`.
    """
    left, right = _CUBIC
    powers = [[1] + [0] * N] + [[0] * (N + 1) for _ in range(3)]  # [z^n] y^r
    y, w = powers[1], [0] * (N + 1)
    for n in range(1, N + 1):
        for r in (2, 3):
            powers[r][n] = sum(map(mul, y[1:n], powers[r - 1][n - 1 : 0 : -1]))
        known = sum(map(mul, left[2:], (power[n] for power in powers[2:])))
        y[n] = sum(a * power[n - 1] for a, power in zip(right, powers)) - known
        w[n] = y[n] + sum(map(mul, w[1:n], w[n - 1 : 0 : -1]))
    sides = []  # both sides of the cubic as polynomials in w, by Horner's rule in y = w - w^2
    for row in _CUBIC:
        side = []
        for a in reversed(row):
            side = [p - q for p, q in zip([a, *side, 0], [0, 0, *side])]
        sides.append(side)
    (num, den), zw = sides, []  # den_0 = 1
    for x in (num + [0] * N)[: N + 1]:
        zw.append(x - sum(map(mul, den[1:], reversed(zw))))
    factors = ([1, *(-a * x for x in row[1:])] for a, row in ((1, w), (2, w), (6, y)))
    m = [_log_numerators(f, 1) for f in factors]  # m_n = n l_n
    units = []
    for weights in (lehn_exponents(inv).weights for inv in UNIT_TUPLES.values()):
        q = lcm(*(x.denominator for x in weights))
        u = [x.numerator * (q // x.denominator) for x in weights]  # exact, not truncated
        units.append(_exp_series([sum(map(mul, u, column)) for column in zip(*m)], q))  # g_n = n (u . l)_n
    return (TruncatedPowerSeries(zw), TruncatedPowerSeries(w), *map(_log_series, m), *units)


def lehn_series(inv: SurfaceInvariants, N: int) -> TruncatedPowerSeries:
    """Taylor expansion of the Lehn function in z (not w) to order N."""
    if N < 0:
        raise ValueError("order must be non-negative")
    logs = _substitution(N)[2:5]  # the kernel reads them to z^N: no truncation
    return _exp_of_combination(zip(lehn_exponents(inv).weights, logs), N)


def extract_lehn_universal(N: int) -> UniversalSeriesSet:
    """The four universal series read off the multiplicative form.

    The Lehn function at each of `UNIT_TUPLES` isolates one factor at a
    time.  The four are built with the substitution, so this reads the
    cache and runs no exp.
    """
    if N < 0:
        raise ValueError("order must be non-negative")
    units = (unit.truncate(N) for unit in _substitution(N)[5:])
    return UniversalSeriesSet(**dict(zip(UNIT_TUPLES, units)))


def verify_lehn_vanishings(max_k: int) -> tuple[tuple[int, SurfaceInvariants, Fraction], ...]:
    """z^k coefficients of the Lehn function at both vanishing tuples.

    The Lehn route never saw the blow-up constraints, so every reported
    coefficient being exactly zero is a genuine cross-check.  Returns
    (k, tuple, coefficient) triples for 2 <= k <= max_k.
    """
    if max_k < 2:
        raise ValueError("max_k must be at least 2")
    _substitution(max_k)  # one build; every lower order reads its prefix
    report = []
    for k in range(2, max_k + 1):
        for target in blowup_targets(k):
            coefficient = lehn_series(target, k)[k]
            report.append((k, target, coefficient))
    return tuple(report)


#: The published 5! s_5 as data, not derived from any route: (i, j, r, s), the
#: exponents of d, pi, kappa and e, -> its nonzero integer coefficient.
_S5_TIMES_120 = {
    (5, 0, 0, 0): 1, (4, 0, 0, 0): -100, (3, 1, 0, 0): -50, (3, 0, 1, 0): -10,
    (3, 0, 0, 1): 10, (3, 0, 0, 0): 3740, (2, 1, 0, 0): 3420, (2, 0, 1, 0): 860,
    (2, 0, 0, 1): -700, (2, 0, 0, 0): -62000, (1, 2, 0, 0): 375, (1, 1, 1, 0): 150,
    (1, 1, 0, 1): -150, (1, 1, 0, 0): -75610, (1, 0, 2, 0): 15, (1, 0, 1, 1): -30,
    (1, 0, 1, 0): -24340, (1, 0, 0, 2): 15, (1, 0, 0, 1): 15960, (1, 0, 0, 0): 384384,
    (0, 2, 0, 0): -9600, (0, 1, 1, 0): -4720, (0, 1, 0, 1): 3920, (0, 1, 0, 0): 530880,
    (0, 0, 2, 0): -560, (0, 0, 1, 1): 960, (0, 0, 1, 0): 226560, (0, 0, 0, 2): -400,
    (0, 0, 0, 1): -117120,
}


def eval_s5_polynomial(inv: SurfaceInvariants) -> Fraction:
    """The published closed polynomial for the fifth Segre number: `_S5_TIMES_120` over 5!.

    From Marian, Oprea and Pandharipande, "Segre classes and Hilbert schemes of points" (2015).
    """
    d, p, q, e = inv.as_tuple()
    terms = (c * d**i * p**j * q**r * e**s for (i, j, r, s), c in _S5_TIMES_120.items())
    return Fraction(sum(terms), 120)
