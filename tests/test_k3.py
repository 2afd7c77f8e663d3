"""Closed formula, recursion determination, and kernel quotient tests.

Frozen values below were derived by hand: the k = 2 telescoped system
gives b_2 = -8 and s(2, 1) = 12, and continuing the same elimination
(checked against an independent expansion of the Lehn function) gives
b_3 = 56 and b_4 = -480.
"""

from __future__ import annotations

from fractions import Fraction as F
from math import comb, factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbsegre import (
    TruncatedPowerSeries,
    cli,
    closed_segre,
    determine_b_prime,
    determine_b_s1,
    generalized_binomial,
    k3,
    recursion_segre,
)

from tests._oracles import b_s1_by_table_induction, finite_differences

B_PREFIX = (F(1), F(2), F(-8), F(56), F(-480))
S1_PREFIX = (F(1), F(0), F(12), F(-160), F(2016))


# -- generalized binomial ------------------------------------------------------


def test_binomial_k_zero_is_one():
    for n in (-7, -1, 0, 3, 12):
        assert generalized_binomial(n, 0) == 1


def test_binomial_standard_value():
    assert generalized_binomial(4, 2) == 6


def test_binomial_negative_upper():
    assert generalized_binomial(-2, 2) == 3  # (-2)(-3)/2!


def test_binomial_zero_window():
    # zero exactly when 0 <= n < k
    for n in range(-6, 10):
        for k in range(0, 7):
            value = generalized_binomial(n, k)
            assert (value == 0) == (0 <= n < k)


def test_binomial_is_the_exact_integer_quotient():
    # math.comb for 0 <= k <= n, and the falling factorial over k! as a Fraction below 0
    for n in range(-40, 41):
        for k in range(41 if n < 0 else n + 1):
            value = generalized_binomial(n, k)
            expected = comb(n, k) if n >= 0 else F(prod(n - j for j in range(k)), factorial(k))
            assert type(value) is F and value == expected, (n, k)


def test_binomial_negative_k_rejected():
    with pytest.raises(ValueError, match="binomial lower index must be non-negative"):
        generalized_binomial(3, -1)


# -- closed formula --------------------------------------------------------------


def test_closed_k1_is_2g_minus_2():
    for g in (-3, 0, 1, 5, 9, 30):
        assert closed_segre(1, g) == 2 * g - 2


def test_closed_vanishing_at_2k_minus_1():
    assert closed_segre(2, 3) == 0


def test_closed_small_values():
    assert closed_segre(2, 7) == 24
    assert closed_segre(2, 1) == 12  # 4 * C(-2, 2)


def test_closed_vanishing_window_iff():
    for k in range(0, 13):
        for g in range(-40, 41):
            vanishes = closed_segre(k, g) == 0
            in_window = (g - 2 * k + 1 >= 0) and (k > g - 2 * k + 1)
            assert vanishes == in_window, (k, g)


def test_pascal_identity():
    # 2 s(k-1, g-3) = s(k, g) - s(k, g-1)
    for k in range(1, 13):
        for g in range(-40, 41):
            assert 2 * closed_segre(k - 1, g - 3) == closed_segre(k, g) - closed_segre(k, g - 1)


def test_closed_is_polynomial_of_degree_k_in_g():
    for k in range(0, 9):
        values = [closed_segre(k, g) for g in range(-5, 2 * k + 9)]
        top = finite_differences(values, k)
        assert all(v == 2**k for v in top)  # degree k, leading coefficient 2^k / k!
        assert all(v == 0 for v in finite_differences(values, k + 1))


# -- determination of b and s1 ------------------------------------------------------


def test_seed_sequences():
    b, s1 = determine_b_s1(1)
    assert b.coefficients == (F(1), F(2))
    assert s1.coefficients == (F(1), F(0))


def test_hand_solved_prefixes():
    b, s1 = determine_b_s1(4)
    assert b.coefficients == B_PREFIX
    assert s1.coefficients == S1_PREFIX


def test_s1_matches_closed_genus_one():
    _, s1 = determine_b_s1(10)
    for k in range(11):
        assert s1[k] == closed_segre(k, 1)


@pytest.mark.parametrize("K", [0, 1, 2, 5, 17, 40])
def test_b_s1_equal_the_table_induction(K):
    b, s1 = determine_b_s1(K)
    assert (b.coefficients, s1.coefficients) == b_s1_by_table_induction(K)
    assert all(type(value) is F for value in (*b, *s1))


def test_b_s1_refuses_a_negative_length():
    with pytest.raises(ValueError, match="order must be non-negative"):
        determine_b_s1(-1)


# -- recursion route: the genus columns b^(g-1) s1 -------------------------------------


def _genus_columns(b, s1, G):
    """The columns s1, b s1, ..., b^(G-1) s1, each the product of b with the one before."""
    columns = [s1]
    for _ in range(G - 1):
        columns.append(b * columns[-1])
    return columns


def test_recursion_k1():
    seqs = determine_b_s1(3)
    for g in (1, 2, 7, 19):
        assert recursion_segre(1, g, seqs) == 2 * g - 2


def test_recursion_vanishing_at_2k():
    seqs = determine_b_s1(2)
    assert recursion_segre(2, 4, seqs) == 0


def test_recursion_matches_closed():
    seqs = determine_b_s1(10)
    assert recursion_segre(2, 7, seqs) == closed_segre(2, 7) == 24
    for k in range(0, 11):
        for g in range(1, 31):
            assert recursion_segre(k, g, seqs) == closed_segre(k, g), (k, g)


def test_genus_columns_match_closed_to_k30():
    seqs = determine_b_s1(30)
    columns = _genus_columns(*seqs, 100)
    for g in (1, 2, 30, 61, 100):
        for k in range(31):
            assert columns[g - 1][k] == closed_segre(k, g), (k, g)
    assert recursion_segre(30, 61, seqs) == columns[60][30]


def test_recursion_segre_over_rational_series():
    # check the series power and product against the convolution iterated
    # directly over Fraction
    b, s1 = (F(1), F(2), F(1, 3), F(-5, 7)), (F(1), F(0), F(2, 9), F(4, 5))
    seqs = (TruncatedPowerSeries(b), TruncatedPowerSeries(s1))
    expected = [[s1[l]] for l in range(4)]
    for g in range(2, 7):
        for l in range(4):
            expected[l].append(sum(b[j] * expected[l - j][g - 2] for j in range(l + 1)))
    assert [[recursion_segre(l, g, seqs) for g in range(1, 7)] for l in range(4)] == expected
    assert [list(column) for column in zip(*_genus_columns(*seqs, 6))] == expected


def test_k3_results_are_fractions():
    # the series kernels run over int, and Fraction(3) == 3, so equality checks
    # cannot see a leaked int; the boundary type is checked directly
    b, s1 = determine_b_s1(12)
    columns = _genus_columns(b, s1, 30)
    b_prime = determine_b_prime(12)
    closed = [closed_segre(k, g) for k in range(13) for g in range(-40, 41)]
    assert closed == [generalized_binomial(g - 2 * k + 1, k) * 2**k for k in range(13) for g in range(-40, 41)]
    recursion = [recursion_segre(k, g, (b, s1)) for k in (0, 5, 12) for g in (1, 2, 30)]
    for value in (*b, *s1, *(v for column in columns for v in column), *b_prime, *closed, *recursion):
        assert type(value) is F


def test_recursion_requires_long_enough_sequences():
    seqs = determine_b_s1(2)
    with pytest.raises(ValueError, match="b-sequence too short"):
        recursion_segre(3, 4, seqs)


def test_recursion_rejects_nonpositive_genus():
    seqs = determine_b_s1(2)
    with pytest.raises(ValueError, match="g >= 1"):
        recursion_segre(2, 0, seqs)


# -- kernel quotient b' = S_1 / S_0 -----------------------------------------------------


def test_b_prime_seeds():
    b_prime = determine_b_prime(6)
    assert b_prime[0] == 1
    assert b_prime[1] == 2


def test_b_prime_matches_b():
    b, _ = determine_b_s1(10)
    assert determine_b_prime(10) == b.coefficients
    assert determine_b_prime(2)[2] == -8


@pytest.mark.parametrize("K", [16, cli.MAX_ORDER])
def test_b_prime_matches_b_at_reach(K):
    assert determine_b_s1(K)[0].coefficients == determine_b_prime(K)


def test_b_prime_stability_across_system_sizes():
    # the order-k quotient extends the order-(k-1) one
    for k in range(2, 9):
        current = determine_b_prime(k)
        previous = determine_b_prime(k - 1)
        assert current[:k] == previous


@pytest.mark.parametrize("at, first_g", [((2, 0), 2), ((3, 1), 2), ((8, 9), 9)])
def test_b_prime_certificate_catches_a_wrong_closed_value(monkeypatch, at, first_g):
    # at K = 8, (8, 9) = (K, K + 1) is seen only by the last certifying genus
    closed = k3.closed_segre
    monkeypatch.setattr(k3, "closed_segre", lambda k, g: closed(k, g) + ((k, g) == at))
    with pytest.raises(ArithmeticError, match=f"^g={first_g}: "):
        determine_b_prime(8)


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=25))
def test_prop_convolution_identity_for_closed_values(k, g):
    # the closed values satisfy the recursion with the determined kernel
    b, _ = determine_b_s1(k)
    total = sum(b[l] * closed_segre(k - l, g - 1) for l in range(k + 1))
    assert total == closed_segre(k, g)
