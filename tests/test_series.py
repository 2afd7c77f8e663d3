"""Kernel tests: ring operations, exp/log, powers, composition, reversion."""

from __future__ import annotations

import doctest
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilbsegre.series
from hilbsegre import (
    TruncatedPowerSeries as TPS,
    as_rational,
    format_rational,
    parse_rational,
)

from tests._oracles import exp_by_taylor_sum, lagrange_revert


def series(*coefficients, order=None):
    return TPS(coefficients, order=order)


ONE6 = TPS.one(6)
Z6 = TPS.identity(6)


# -- construction and representation ---------------------------------------


def test_constructor_pads_and_truncates():
    f = TPS([1, 2], order=4)
    assert f.coefficients == (F(1), F(2), F(0), F(0), F(0))
    g = TPS([1, 2, 3, 4], order=1)
    assert g.coefficients == (F(1), F(2))


def test_floats_rejected():
    with pytest.raises(TypeError):
        TPS([1.5, 2])
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_immutable():
    f = TPS([1, 2, 3])
    with pytest.raises(AttributeError):
        f.order = 5
    with pytest.raises(TypeError):
        f.coefficients[0] = F(2)


def test_equality_up_to_smaller_order():
    assert TPS([1, 2, 3]) == TPS([1, 2])
    assert TPS([1, 2, 3]) != TPS([1, 5])


def test_rational_wire_format_roundtrip():
    for value in (F(0), F(7), F(-3, 4), F(22, 7)):
        assert parse_rational(format_rational(value)) == value
    assert format_rational(F(6, 3)) == "2"
    with pytest.raises(ValueError):
        parse_rational("0.5")


def test_doctests():
    failures, _ = doctest.testmod(hilbsegre.series)
    assert failures == 0


# -- ring operations -----------------------------------------------------------


def test_mul_difference_of_squares():
    f = series(1, 1, order=4)
    g = series(1, -1, order=4)
    assert (f * g).coefficients == (F(1), F(0), F(-1), F(0), F(0))


def test_div_geometric_series():
    quotient = TPS.one(4) / series(1, -1, order=4)
    assert quotient.coefficients == (F(1),) * 5


def test_sub_self_cancellation():
    f = series(1, 3, order=3)
    assert (f - f).coefficients == (F(0),) * 4


def test_mixed_order_truncates_to_minimum():
    f = TPS.one(7)
    g = series(1, 1, order=3)
    for result in (f + g, f - g, f * g, f / g):
        assert result.order == 3


def test_div_by_zero_constant_term():
    with pytest.raises(ValueError, match="non-unit divisor"):
        TPS.one(3) / Z6


def test_scalar_arithmetic():
    f = series(1, 2, order=2)
    assert (f + 1).coefficients == (F(2), F(2), F(0))
    assert (1 - f).coefficients == (F(0), F(-2), F(0))
    assert (f * F(1, 2)).coefficients == (F(1, 2), F(1), F(0))
    assert (2 / series(2, 2, order=2)).coefficients == (F(1), F(-1), F(1))


# -- exp / log ----------------------------------------------------------------


def test_log_of_constant_one_is_zero():
    assert TPS.one(5).log().coefficients == (F(0),) * 6


def test_exp_log_roundtrip_one_plus_z():
    f = 1 + Z6
    assert f.log().exp().coefficients == f.coefficients


def test_log_geometric_is_harmonic():
    f = TPS.one(4) / series(1, -1, order=4)
    logarithm = f.log()
    assert logarithm.coefficients == (F(0), F(1), F(1, 2), F(1, 3), F(1, 4))
    assert logarithm.exp().coefficients == f.coefficients


def test_exp_log_preconditions():
    with pytest.raises(ValueError, match="log of non-unit series"):
        Z6.log()
    with pytest.raises(ValueError, match="exp of series with nonzero constant term"):
        ONE6.exp()


# -- powers -------------------------------------------------------------------


def test_pow_zero_is_one():
    assert (1 + Z6).pow(0).coefficients == TPS.one(6).coefficients
    assert Z6.pow(0).coefficients == TPS.one(6).coefficients


def test_sqrt_squared():
    f = 1 + Z6
    again = f.pow(F(1, 2)).pow(2)
    assert again.coefficients == f.coefficients


def test_pow_negative_one_geometric():
    f = series(1, -1, order=3)
    assert f.pow(-1).coefficients == (F(1), F(1), F(1), F(1))


def test_pow_operator():
    f = 1 + Z6
    assert (f ** F(1, 2)).coefficients == f.pow(F(1, 2)).coefficients


def test_pow_non_unit_rejections():
    with pytest.raises(ValueError, match="rational power of non-unit series"):
        Z6.pow(F(1, 2))
    with pytest.raises(ValueError, match="rational power of non-unit series"):
        series(2, 1, order=3).pow(-1)
    # non-negative integer powers accept any base
    assert Z6.pow(2).coefficients == (F(0), F(0), F(1), F(0), F(0), F(0), F(0))


# -- composition and reversion -------------------------------------------------


def test_compose_identity_fixes_series():
    f = series(3, 1, 4, 1, order=5)
    assert f.compose(TPS.identity(5)).coefficients == f.coefficients


def test_compose_geometric_with_square():
    geometric = TPS.one(5) / (1 - TPS.identity(5))
    composed = geometric.compose(TPS.identity(5).pow(2))
    assert composed.coefficients == (F(1), F(0), F(1), F(0), F(1), F(0))


def test_compose_exp_with_log():
    exp_z = Z6.exp()
    log_1z = (1 + Z6).log()
    assert exp_z.compose(log_1z).coefficients == (1 + Z6).coefficients


def test_compose_requires_zero_constant():
    with pytest.raises(ValueError, match="composition requires zero constant term"):
        ONE6.compose(ONE6)


def test_revert_identity():
    assert TPS.identity(5).revert().coefficients == TPS.identity(5).coefficients


def test_revert_geometric_shift():
    f = TPS([0, 1, 1, 1, 1, 1])  # z/(1-z)
    g = f.revert()
    assert g.coefficients == (F(0), F(1), F(-1), F(1), F(-1), F(1))  # z/(1+z)
    z = TPS.identity(5)
    assert f.compose(g).coefficients == z.coefficients
    assert g.compose(f).coefficients == z.coefficients


def test_revert_lehn_substitution_prefix():
    f = TPS([0, 1, 9, 68, 466])
    assert f.revert().coefficients == (F(0), F(1), F(-9), F(94), F(-1051))


def test_revert_matches_lagrange_oracle():
    for coeffs in ([0, 1, 9, 68, 466], [0, 2, 1, -3, 5, -1], [0, F(1, 2), 1, 1]):
        f = TPS(coeffs)
        assert f.revert().coefficients == lagrange_revert(f).coefficients


def test_taylor_oracle_gives_exp_of_z():
    oracle = exp_by_taylor_sum(Z6)
    assert oracle.coefficients == tuple(F(1, math.factorial(n)) for n in range(7))


def test_exp_matches_taylor_oracle():
    for coeffs in ([0, 1, 9, 68, 466], [0, F(-5, 2), F(1, 3), 0, 7], [0, 0, 1, -1, 2, 3]):
        g = TPS(coeffs)
        assert g.exp().coefficients == exp_by_taylor_sum(g).coefficients


def test_revert_preconditions():
    with pytest.raises(ValueError, match="series not invertible under composition"):
        ONE6.revert()
    with pytest.raises(ValueError, match="series not invertible under composition"):
        TPS([0, 0, 1, 1]).revert()


# -- property tests -------------------------------------------------------------

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _tail(draw_order):
    return st.lists(small_fractions, min_size=draw_order[0], max_size=draw_order[1])


unit_series = _tail((1, 9)).map(lambda tail: TPS([F(1)] + tail))
zero_const_series = _tail((1, 9)).map(lambda tail: TPS([F(0)] + tail))
any_series = _tail((1, 9)).map(TPS)
exponents = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(unit_series)
def test_prop_exp_log_roundtrip(f):
    assert f.log().exp().coefficients == f.coefficients


@given(zero_const_series)
def test_prop_log_exp_roundtrip(g):
    assert g.exp().log().coefficients == g.coefficients


@given(zero_const_series)
def test_prop_exp_matches_taylor_oracle(g):
    assert g.exp().coefficients == exp_by_taylor_sum(g).coefficients


@settings(max_examples=60)
@given(unit_series, exponents, exponents)
def test_prop_pow_additivity(f, alpha, beta):
    assert (f.pow(alpha) * f.pow(beta)).coefficients == f.pow(alpha + beta).coefficients


@settings(max_examples=60)
@given(unit_series, exponents)
def test_prop_pow_inverse(f, alpha):
    if alpha != 0:
        assert f.pow(alpha).pow(1 / alpha).coefficients == f.coefficients


@given(any_series, any_series)
def test_prop_mul_commutative(f, g):
    assert (f * g).coefficients == (g * f).coefficients


@given(any_series, any_series, any_series)
def test_prop_mul_associative(f, g, h):
    assert ((f * g) * h).coefficients == (f * (g * h)).coefficients


@given(any_series, _tail((0, 8)), st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(lambda c: c != 0))
def test_prop_div_inverts_mul(f, tail, constant):
    g = TPS([constant] + tail)
    n = min(f.order, g.order)
    assert ((f * g) / g).coefficients == f.truncate(n).coefficients
    assert (g * (f / g)).coefficients == f.truncate(n).coefficients


@given(st.lists(small_fractions.filter(lambda c: c != 0), min_size=1, max_size=2), _tail((0, 7)))
def test_prop_revert_roundtrips(linear, tail):
    f = TPS([F(0)] + linear + tail)
    g = f.revert()
    z = TPS.identity(f.order)
    assert f.compose(g).coefficients == z.coefficients
    assert g.compose(f).coefficients == z.coefficients


@given(any_series, any_series)
def test_prop_coefficients_stay_canonical(f, g):
    result = f * g
    for c in result:
        assert isinstance(c, F)
        assert c.denominator > 0
        assert math.gcd(c.numerator, c.denominator) == 1
