"""Closed formula and recursion machinery for the K3 Segre numbers.

For a K3 surface with a polarization of self-intersection 2g - 2, the
top Segre number of the rank-k tautological bundle is

    s(k, g) = 2^k * C(g - 2k + 1, k),

where C(n, k) = n (n-1) ... (n-k+1) / k! is the generalized binomial,
defined for every integer n.  The same numbers satisfy a convolution
recursion in the genus direction,

    s(k, g) = sum_{l=0..k} b_l * s(k-l, g-1),

whose kernel b_l is the sequence of abelian-surface Segre numbers for a
principal polarization: the genus-g series is b(z)^(g-1) s_1(z).  In
the engine's terms b = A^2 and s_1 = B^24, so the two vanishings
s(k, 2k) = s(k, 2k-1) = 0 for k >= 2 that fix A and B also pin down b
and the genus-one column s(k, 1).  `determine_b_s1` reads both as engine
series through the public API of `universal`, whose solve never
consults the closed formula, so the recursion and the closed formula
stay independent and can be tested against each other.

`determine_b_prime` recovers the same kernel a third way, from the
closed formula alone: the closed genus-g series S_g(z) = sum_k s(k, g) z^k
satisfies S_g = b S_(g-1), so b' is the quotient S_1 / S_0.  Each
coefficient of b' S_(g-1) - S_g is a polynomial of degree at most k in
g, so checking the product at the K + 1 genera 1 .. K + 1 certifies the
identity for every g.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .series import ExactRational, TruncatedPowerSeries
from .universal import SurfaceInvariants, segre_series, universal_series_set

__all__ = [
    "BSequences",
    "closed_segre",
    "determine_b_prime",
    "determine_b_s1",
    "generalized_binomial",
    "recursion_segre",
    "recursion_table",
]


def generalized_binomial(n: int, k: int) -> ExactRational:
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


def closed_segre(k: int, g: int) -> ExactRational:
    """The genus-g K3 Segre number 2^k * C(g - 2k + 1, k).

    Taken as the definition for every integer g, including g <= 0,
    where a negative upper index n has C(n, k) = (-1)^k C(k - n - 1, k).
    The value vanishes exactly on the window 2k - 1 <= g <= 3k - 2.
    """
    n = g - 2 * k + 1
    binomial = comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)
    return Fraction(binomial << k)


@dataclass(frozen=True)
class BSequences:
    """Sequences determined by the recursion and its vanishings.

    `b` is the abelian kernel and `s1` the genus-one column.  The seeds
    b_0 = 1, b_1 = 2, s1_0 = 1, s1_1 = 0 are checked on creation.
    """

    b: tuple[ExactRational, ...]
    s1: tuple[ExactRational, ...]

    def __post_init__(self):
        if len(self.b) != len(self.s1):
            raise ValueError("b and s1 must be filled to the same index")
        for name, seq, seeds in (("b", self.b, (1, 2)), ("s1", self.s1, (1, 0))):
            for i, expected in enumerate(seeds):
                if len(seq) > i and seq[i] != expected:
                    raise ValueError(f"{name}[{i}] must be {expected}, got {seq[i]}")


def recursion_table(K: int, G: int, seqs: BSequences) -> list[list[Fraction]]:
    """Rows s(l, g) for 0 <= l <= K, 1 <= g <= G by iterating the convolution.

    Row l at genus g sits at rows[l][g - 1]; one table answers every
    (k, g) inside it, at O(K^2 G) for the whole table.  Genus column g
    is the series s(0, g) + s(1, g) z + ..., and each next column is the
    series product of b with the previous one.
    """
    if G < 1:
        raise ValueError("recursion route is defined for g >= 1 only")
    if K < 0:
        raise ValueError("k must be non-negative")
    if len(seqs.b) <= K:
        raise ValueError("b-sequence too short")
    b = TruncatedPowerSeries(seqs.b[: K + 1])
    columns = [TruncatedPowerSeries(seqs.s1[: K + 1])]
    for _ in range(G - 1):
        columns.append(b * columns[-1])
    return [list(row) for row in zip(*columns)]


def determine_b_s1(K: int) -> BSequences:
    """Determine b and the genus-one column up to index K.

    b is the engine series of a principally polarized abelian surface,
    (d, pi, kappa, e) = (2, 0, 0, 0), and s1 that of a K3 surface with
    the trivial bundle, (0, 0, 0, 24): A^2 and B^24, which the K3
    vanishings s(k, 2k) = s(k, 2k - 1) = 0 determine.
    """
    U = universal_series_set(K)
    b, s1 = (segre_series(SurfaceInvariants(*raw), K, U) for raw in ((2, 0, 0, 0), (0, 0, 0, 24)))
    return BSequences(b=b.coefficients, s1=s1.coefficients)


def recursion_segre(k: int, g: int, seqs: BSequences) -> ExactRational:
    """s(k, g) for g >= 1, read from the recursion table up to (k, g)."""
    return recursion_table(k, g, seqs)[k][g - 1]


def determine_b_prime(K: int) -> tuple[ExactRational, ...]:
    """Recover the convolution kernel from the closed formula alone.

    b' = S_1 / S_0 for the closed genus-g series S_g to order K, certified
    by b' S_(g-1) = S_g at g = 1 .. K + 1: coefficient k of the identity
    is a polynomial of degree at most k in g, so K + 1 genera prove it
    for every g.  A failed certificate raises `ArithmeticError`.
    """
    if K < 0:
        raise ValueError("sequence length must be non-negative")
    S = [TruncatedPowerSeries([closed_segre(k, g) for k in range(K + 1)]) for g in range(K + 2)]
    b_prime = S[1] / S[0]
    for g in range(1, K + 2):
        if b_prime * S[g - 1] != S[g]:
            raise ArithmeticError(f"g={g}: b' S_(g-1) != S_g")
    return b_prime.coefficients
