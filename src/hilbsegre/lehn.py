"""The Lehn generating function, expanded exactly by series reversion.

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

The substitution has a unit linear coefficient, so expanding f in z to
order N needs exactly the w-expansion to order N and one compositional
reversion w(z).  Every tuple is then log-linear, f = exp(a l1 + b l2 -
c l3), where l1, l2, l3 are the logs of 1 - w, 1 - 2w, 1 - 6w + 6w^2 at
w = w(z), cached once per order: no powers and no composition per tuple.
This module is a construction of the Segre numbers that is independent
of the probe-and-solve engine in `universal`; the two are compared
coefficient by coefficient in the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .series import ExactRational, TruncatedPowerSeries, _exp_of_combination
from .universal import (
    SurfaceInvariants,
    UniversalSeriesSet,
    blowup_targets,
    segre_number,
)

__all__ = [
    "LehnExponents",
    "change_of_variable",
    "eval_s5_polynomial",
    "extract_lehn_universal",
    "lehn_exponents",
    "lehn_series",
    "s5_transcription_probe",
    "verify_lehn_vanishings",
]


@dataclass(frozen=True)
class LehnExponents:
    """Exponents (a, b, c) and the Euler characteristic chi for one tuple."""

    a: ExactRational
    b: ExactRational
    c: ExactRational
    chi: ExactRational


def lehn_exponents(inv: SurfaceInvariants) -> LehnExponents:
    """Exact rational exponents; no integrality is required or assumed."""
    chi = Fraction(inv.kappa + inv.e, 12)
    return LehnExponents(
        a=Fraction(inv.pi - 2 * inv.kappa),
        b=inv.d - 2 * inv.pi + inv.kappa + 3 * chi,
        c=Fraction(inv.d - inv.pi, 2) + chi,
        chi=chi,
    )


@lru_cache(maxsize=None)
def change_of_variable(
    N: int,
) -> tuple[TruncatedPowerSeries, TruncatedPowerSeries]:
    """The substitution z(w) expanded to order N, and its reversion w(z)."""
    if N < 1:
        raise ValueError("change of variable needs order >= 1")
    w = TruncatedPowerSeries.identity(N)
    numerator = w * (1 - w) * (1 - 2 * w).pow(4)
    denominator = (1 - 6 * w + 6 * w * w).pow(3)
    zw = numerator / denominator
    return zw, zw.revert()


@lru_cache(maxsize=None)
def _log_factors(N: int) -> tuple[tuple[Fraction, ...], ...]:
    """l1, l2, l3: the logs of the three closed-form factors at w = w(z)."""
    _, w = change_of_variable(N)
    factors = (1 - w, 1 - 2 * w, 1 - 6 * w + 6 * w * w)
    return tuple(f.log().coefficients for f in factors)


def lehn_series(inv: SurfaceInvariants, N: int) -> TruncatedPowerSeries:
    """Taylor expansion of the Lehn function in z (not w) to order N."""
    if N < 0:
        raise ValueError("order must be non-negative")
    if N == 0:
        return TruncatedPowerSeries.one(0)
    exps = lehn_exponents(inv)
    return _exp_of_combination(zip((exps.a, exps.b, -exps.c), _log_factors(N)), N)


def extract_lehn_universal(N: int) -> UniversalSeriesSet:
    """The four universal series read off the multiplicative form.

    Evaluating the Lehn function at the unit tuples isolates one factor
    at a time: (1,0,0,0) gives A, (0,0,0,1) gives B, (0,1,0,0) gives C
    and (0,0,1,0) gives D.
    """
    return UniversalSeriesSet(
        A=lehn_series(SurfaceInvariants(1, 0, 0, 0), N),
        B=lehn_series(SurfaceInvariants(0, 0, 0, 1), N),
        C=lehn_series(SurfaceInvariants(0, 1, 0, 0), N),
        D=lehn_series(SurfaceInvariants(0, 0, 1, 0), N),
    )


def verify_lehn_vanishings(
    max_k: int,
) -> tuple[tuple[int, SurfaceInvariants, ExactRational], ...]:
    """z^k coefficients of the Lehn function at both vanishing tuples.

    The Lehn route never saw the blow-up constraints, so every reported
    coefficient being exactly zero is a genuine cross-check.  Returns
    (k, tuple, coefficient) triples for 2 <= k <= max_k.
    """
    if max_k < 2:
        raise ValueError("max_k must be at least 2")
    report = []
    for k in range(2, max_k + 1):
        for target in blowup_targets(k):
            coefficient = lehn_series(target.invariants, k)[k]
            report.append((k, target.invariants, coefficient))
    return tuple(report)


def eval_s5_polynomial(inv: SurfaceInvariants) -> ExactRational:
    """The published closed polynomial for the fifth Segre number.

    Evaluates the degree-5 integer polynomial giving 5! * s_5 in terms
    of (d, pi, kappa, e) and divides by 5!.
    """
    d, p, q, e = inv.d, inv.pi, inv.kappa, inv.e
    value = (
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
    return Fraction(value, 120)


#: Axis and pair probes used to localize a mistyped monomial group when
#: the published polynomial and the engine ever disagree.
_S5_PROBES = (
    (1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0),
    (0, 1, 0, 0), (0, 2, 0, 0),
    (0, 0, 1, 0), (0, 0, 2, 0),
    (0, 0, 0, 1), (0, 0, 0, 2),
    (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
    (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1),
)


def s5_transcription_probe(
    U: UniversalSeriesSet,
) -> list[tuple[SurfaceInvariants, ExactRational]]:
    """120 * (polynomial - engine) on axis/pair tuples.

    A nonzero entry at a pure-axis probe implicates the monomials in
    that single variable; a pair probe implicates the mixed terms.
    """
    deltas = []
    for raw in _S5_PROBES:
        inv = SurfaceInvariants(*raw)
        delta = 120 * (eval_s5_polynomial(inv) - segre_number(inv, 5, U))
        deltas.append((inv, delta))
    return deltas
