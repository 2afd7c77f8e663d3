"""Closed formula and the engine's two series for the K3 Segre numbers.

For a K3 surface with a polarization of self-intersection 2g - 2, the
top Segre number of the rank-k tautological bundle is

    s(k, g) = 2^k * C(g - 2k + 1, k),

where C(n, k) = n (n-1) ... (n-k+1) / k! is the generalized binomial,
defined for every integer n.

The engine reaches the same numbers through two series.  Its genus-g
K3 series, at (d, pi, kappa, e) = (2g - 2, 0, 0, 24), is
A^(2g-2) B^24 = b^(g-1) s1, with b = A^2 the series of a principally
polarized abelian surface (2, 0, 0, 0) and s1 = B^24 the genus-one
column (0, 0, 0, 24).  So the genus columns s(0, g) + s(1, g) z + ...
are s1, b s1, b^2 s1, ..., each the series product of b with the one
before; coefficient by coefficient that is the convolution recursion

    s(k, g) = sum_{l=0..k} b_l * s(k-l, g-1).

The two vanishings s(k, 2k) = s(k, 2k-1) = 0 for k >= 2 that fix A and
B also pin down b and s1.  `determine_b_s1` reads both through the
public API of `universal`, whose solve never consults the closed
formula, so the columns and the closed formula stay independent and
can be tested against each other.

`determine_b_prime` recovers the same kernel a third way, from the
closed formula alone: the closed genus-g series S_g(z) = sum_k s(k, g) z^k
satisfies S_g = b S_(g-1), so b' is the quotient S_1 / S_0.  Each
coefficient of b' S_(g-1) - S_g is a polynomial of degree at most k in
g, so checking the product at the K + 1 genera 1 .. K + 1 certifies the
identity for every g.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .series import TruncatedPowerSeries
from .universal import SurfaceInvariants, segre_series, universal_series_set

__all__ = [
    "closed_segre",
    "determine_b_prime",
    "determine_b_s1",
    "recursion_segre",
]


def closed_segre(k: int, g: int) -> Fraction:
    """The genus-g K3 Segre number 2^k * C(g - 2k + 1, k).

    Taken as the definition for every integer g, including g <= 0,
    where a negative upper index n has C(n, k) = (-1)^k C(k - n - 1, k).
    The value vanishes exactly on the window 2k - 1 <= g <= 3k - 2.
    """
    n = g - 2 * k + 1
    binomial = comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)
    return Fraction(binomial << k)


def determine_b_s1(K: int) -> tuple[TruncatedPowerSeries, TruncatedPowerSeries]:
    """The kernel b and the genus-one column s1 as series of order K.

    b is the engine series of a principally polarized abelian surface,
    (d, pi, kappa, e) = (2, 0, 0, 0), and s1 that of a K3 surface with
    the trivial bundle, (0, 0, 0, 24): A^2 and B^24, which the K3
    vanishings s(k, 2k) = s(k, 2k - 1) = 0 determine.  The series set
    is normalized to A = 1 + z + ... and B = 1 + 0 z + ..., so b starts
    1, 2 and s1 starts 1, 0.
    """
    U = universal_series_set(K)
    return tuple(segre_series(SurfaceInvariants(*raw), K, U) for raw in ((2, 0, 0, 0), (0, 0, 0, 24)))


def recursion_segre(
    k: int, g: int, seqs: tuple[TruncatedPowerSeries, TruncatedPowerSeries]
) -> Fraction:
    """s(k, g) for g >= 1: coefficient k of b^(g-1) s1, for the pair (b, s1).

    A view kept because the benchmark traces it by name; ROADMAP item 1
    deletes it together with that trace.
    """
    if g < 1:
        raise ValueError("recursion route is defined for g >= 1 only")
    b, s1 = seqs
    if b.order < k:
        raise ValueError("b-sequence too short")
    return (b.truncate(k) ** (g - 1) * s1.truncate(k))[k]


def determine_b_prime(K: int) -> TruncatedPowerSeries:
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
    return b_prime
