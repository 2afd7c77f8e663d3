"""Kernel tests: ring operations, exp/log, powers, composition, reversion."""

from __future__ import annotations

import ast
import doctest
import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilbsegre.series
from hilbsegre import (
    TruncatedPowerSeries as TPS,
    as_rational,
    format_rational,
    lehn,
    parse_rational,
    universal,
)
from hilbsegre.series import _grown_by_prefix

from tests._oracles import (
    exp_by_taylor_sum,
    fraction_compose,
    fraction_div,
    fraction_exp,
    fraction_log,
    fraction_mul,
    fraction_pow,
    undetermined_revert,
)


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


@pytest.mark.parametrize("order", [-1, -2])
def test_truncate_refuses_a_negative_order(order):
    # a negative slice bound would count from the end of the coefficients
    with pytest.raises(ValueError, match="order must be non-negative"):
        TPS([1, 2, 3, 4, 5]).truncate(order)


def test_floats_rejected():
    with pytest.raises(TypeError):
        TPS([1.5, 2])
    with pytest.raises(TypeError):
        as_rational(0.5)
    f = TPS([1, 2, 3])
    for operation in (f.__add__, f.__rsub__, f.__mul__, f.__truediv__, f.__rtruediv__, f.pow):
        with pytest.raises(TypeError, match="exact rational required"):
            operation(0.5)


def test_division_by_a_zero_scalar():
    for f in (TPS([1, 2, 3]), TPS([1, 2, 3]) * 1):
        with pytest.raises(ZeroDivisionError):
            f / 0
        with pytest.raises(ZeroDivisionError):
            f / F(0)


def test_immutable():
    for f in (TPS([1, 2, 3]), TPS([1, 2, 3]) * 1):  # built from Fractions, and by a kernel
        with pytest.raises(AttributeError):
            f.order = 5
        with pytest.raises(AttributeError):
            f._ints = ([7, 8, 9], 1)
        with pytest.raises(TypeError):
            f.coefficients[0] = F(2)
        assert f.coefficients == (F(1), F(2), F(3))


def test_equality_is_exact_and_truncate_compares_prefixes():
    assert TPS([1, 2, 3]) != TPS([1, 2])
    assert TPS([1, 2]) != TPS([1, 2, 3])
    assert TPS([1, 2], order=2) != TPS([1, 2])
    assert TPS([1, 2, 3]) == TPS([F(1), F(2), F(3)])
    # transitive: [1, 2, 3], [1] and [1, 5, 6] are pairwise unequal
    long, short, other = TPS([1, 2, 3]), TPS([1]), TPS([1, 5, 6])
    assert long != short and short != other and long != other
    assert long.truncate(0) == short == other.truncate(0)
    assert long.truncate(1) != other.truncate(1)
    assert TPS([1, 2, 3]).truncate(1) == TPS([1, 2])
    with pytest.raises(TypeError, match="unhashable"):
        hash(long)


def test_rational_wire_format_roundtrip():
    for value in (F(0), F(7), F(-3, 4), F(22, 7)):
        assert parse_rational(format_rational(value)) == value
    assert format_rational(F(6, 3)) == "2"
    with pytest.raises(ValueError):
        parse_rational("0.5")


def test_wire_format_has_no_digit_limit():
    # str(int) refuses more than 4,300 digits since Python 3.10.7; the wire format does not
    assert format_rational(F(10**4299)) == "1" + "0" * 4299
    assert format_rational(F(-1, 10**5000)) == "-1/1" + "0" * 5000
    value = F(-(10**4300) - 7, 3**9000)
    assert parse_rational(format_rational(value)) == value


def test_parse_rational_edge_cases():
    accepted = {"+3": F(3), "-3/4": F(-3, 4), " 7/2 ": F(7, 2), "\t-0\n": F(0), "6/4": F(3, 2)}
    for text, value in accepted.items():
        assert parse_rational(text) == value, text
    # "٣" is ARABIC-INDIC DIGIT THREE, which a Unicode \d would accept
    for text in ("1 / 2", "0.5", "1e3", "1/0", "-0/0", "٣", "", "--1", "1/-2", "1_000", "3/", "/3"):
        with pytest.raises(ValueError, match="not an exact rational literal"):
            parse_rational(text)


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


def test_pow_matches_repeated_products():
    # integer powers of non-unit bases and of bases with valuation 1 or 2
    bases = (
        series(2, -1, 3, order=7),
        series(0, 1, 2, -1, order=7),
        series(0, 0, F(1, 3), 5, order=7),
    )
    for base in bases:
        product = TPS.one(7)
        for n in range(6):
            assert base.pow(n).coefficients == product.coefficients, (base, n)
            product = product * base
    unit = series(1, F(-2, 3), 4, order=7)
    assert unit.pow(-3).coefficients == fraction_div(TPS.one(7), unit * unit * unit).coefficients
    assert TPS.zero(4).pow(3).coefficients == TPS.zero(4).coefficients


def test_pow_non_unit_rejections():
    # each refusal names the rule that failed
    for base in (Z6, series(2, 1, order=3), series(-1, 1, order=3)):
        with pytest.raises(ValueError, match="fractional power of a series whose constant term is not 1"):
            base.pow(F(1, 2))
    for base in (Z6, TPS.zero(3)):
        with pytest.raises(ValueError, match="negative power of a series with zero constant term"):
            base.pow(-1)
    with pytest.raises(ValueError, match="non-unit divisor"):
        1 / Z6
    # negative integer powers accept any unit, and division is the power -1
    unit = series(2, 1, order=3)
    assert unit.pow(-1) == 1 / unit == fraction_div(TPS.one(3), unit)
    assert (-1 + Z6) ** -3 == -fraction_pow(1 - Z6, -3)
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


def test_revert_matches_undetermined_coefficient_oracle():
    for coeffs in ([0, 1, 9, 68, 466], [0, 2, 1, -3, 5, -1], [0, F(1, 2), 1, 1]):
        f = TPS(coeffs)
        assert f.revert().coefficients == undetermined_revert(f).coefficients


@pytest.mark.parametrize("linear", [F(1), F(-1), F(2), F(1, 2), F(-3, 2)])
def test_revert_matches_oracle_on_seeded_series(linear):
    rng = random.Random(int(linear * 6))
    for order in (1, 2, 3, 5, 8, 13, 20, 22):
        tail = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(order - 1)]
        f = TPS([0, linear] + tail)
        assert f.revert().coefficients == undetermined_revert(f).coefficients, order


def test_revert_matches_oracle_on_lehn_substitution():
    w = TPS.identity(24)
    zw = w * (1 - w) * (1 - 2 * w).pow(4) / (1 - 6 * w + 6 * w * w).pow(3)
    assert zw.revert().coefficients == undetermined_revert(zw).coefficients


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


# -- integer kernels against the Fraction references ----------------------------

MERSENNE_61 = 2**61 - 1


def _seeded_series(rng, order, constant):
    """Signed coefficients over small, large prime and composite denominators."""
    denominators = (1, 2, 3, 12, MERSENNE_61, MERSENNE_61 * 7, 2**89 - 1)
    tail = [F(rng.randint(-10**6, 10**6), rng.choice(denominators)) for _ in range(order)]
    return TPS([constant] + tail)


@pytest.mark.parametrize("seed", range(6))
def test_integer_kernels_match_fraction_references(seed):
    rng = random.Random(seed)
    for order in (0, 1, 2, 5, 9, 14):
        f = _seeded_series(rng, order, F(rng.randint(-9, 9), rng.choice((1, MERSENNE_61))))
        g = _seeded_series(rng, order + rng.randint(0, 3), F(-5, 3))  # mixed orders
        unit = _seeded_series(rng, order, F(1))
        nilpotent = _seeded_series(rng, order, F(0))
        pairs = [
            (f * g, fraction_mul(f, g)),
            (g * f, fraction_mul(g, f)),
            (nilpotent.exp(), fraction_exp(nilpotent)),
            (unit.log(), fraction_log(unit)),
        ]
        if order >= 1 and nilpotent[1] != 0:
            pairs.append((nilpotent.revert(), undetermined_revert(nilpotent)))
        for kernel, reference in pairs:
            assert kernel.order == reference.order == order
            assert kernel.coefficients == reference.coefficients, (seed, order)


@pytest.mark.parametrize("seed", range(4))
def test_exp_scaling_matches_fraction_reference(seed):
    # exp scales by the denominators of j f_j: f_j = p / (j q) loses the
    # factor j there (and q = 1 makes every j f_j integral), while a
    # prime q above the order keeps every j f_j at denominator q
    rng = random.Random(seed)
    for order in (1, 2, 7, 16):
        q = rng.choice((1, 2, 12, MERSENNE_61))
        reducing = TPS([0] + [F(rng.randint(-50, 50), j * q) for j in range(1, order + 1)])
        plain = TPS([0] + [F(rng.choice((-1, 1)) * rng.randint(1, 16), 17) for _ in range(order)])
        assert all((j * plain[j]).denominator == 17 for j in range(1, order + 1))
        for f in (reducing, plain):
            assert f.exp().coefficients == fraction_exp(f).coefficients, (seed, order)


def test_exp_kernel_scales_by_exactly_order_factorial_times_den_to_the_n():
    # j f_j = (0, 2, 4) / 6 share the factor 2, and the kernel keeps it:
    # only `exp` reduces, so the vanishing solve can read any probe over K! den^n
    h = hilbsegre.series._exp_numerators([0, 2, 4], 6)
    assert h == [2, 4, 28]  # over [2, 12, 72]: exp(z/3 + z^2/3) = 1 + z/3 + 7/18 z^2
    assert [F(x, math.factorial(2) * 6**n) for n, x in enumerate(h)] == [1, F(1, 3), F(7, 18)]


@pytest.mark.parametrize("seed", range(4))
def test_exp_kernel_equals_fraction_exp_over_its_exact_scale(seed):
    # unreduced inputs too: g and den share a factor that the kernel must not drop
    rng = random.Random(200 + seed)
    for den in (1, 2, 12, MERSENNE_61):
        for order, shared in itertools.product((0, 1, 2, 7, 16), (1, den)):
            g = [0] + [shared * rng.randint(-40, 40) for _ in range(order)]
            h = hilbsegre.series._exp_numerators(g, den)
            assert len(h) == order + 1 and h[0] == math.factorial(order)
            f = TPS([0] + [F(x, j * den) for j, x in enumerate(g) if j])
            expected = fraction_exp(f).coefficients
            assert tuple(F(x, h[0] * den**n) for n, x in enumerate(h)) == expected, (den, order)


@pytest.mark.parametrize("seed", range(4))
def test_pow_and_div_match_fraction_references(seed):
    rng = random.Random(100 + seed)
    for order in (0, 1, 2, 5, 9, 14):
        unit = _seeded_series(rng, order, F(1))
        f = _seeded_series(rng, order, F(rng.randint(-9, 9), rng.choice((1, MERSENNE_61))))
        lead = F(rng.choice((-7, -1, 2, 5)), rng.choice((1, 3, MERSENNE_61)))
        g = _seeded_series(rng, order + rng.randint(0, 3), lead)  # mixed orders
        pairs = [(f / g, fraction_div(f, g)), (g / unit, fraction_div(g, unit))]
        pairs.append((1 / g, fraction_div(TPS.one(g.order), g)))
        for alpha in (F(1, 2), F(-3), F(2, 3), F(-7, 5), F(rng.randint(-9, 9), rng.choice((1, 2, 7)))):
            pairs.append((unit.pow(alpha), fraction_pow(unit, alpha)))
        for valuation in (0, 1, 2):  # z^v times a series with a non-unit constant term
            base = TPS([F(0)] * valuation + list(g.coefficients), order=order)
            for n in (0, 1, 2, 3, 5):
                pairs.append((base.pow(n), fraction_pow(base, n)))
        for n in (0, 1, 4):
            pairs.append((TPS.zero(order).pow(n), fraction_pow(TPS.zero(order), n)))
        for kernel, reference in pairs:
            assert kernel.order == reference.order
            assert kernel.coefficients == reference.coefficients, (seed, order)


@pytest.mark.parametrize("seed", range(4))
def test_compose_matches_fraction_reference(seed):
    # outer denominators share factors with the inner series' common
    # denominator 12, so the integer Horner rule has to reduce at each step
    rng = random.Random(300 + seed)
    for order in (0, 1, 2, 5, 9, 14):
        outer = _seeded_series(rng, order, F(rng.randint(-9, 9), rng.choice((1, 4, MERSENNE_61))))
        inner = _seeded_series(rng, rng.randint(0, order + 3), F(0))  # mixed orders
        shared = TPS([F(rng.randint(-40, 40), rng.choice((2, 3, 4, 6, 36))) for _ in range(order + 1)])
        twelfths = TPS([0] + [F(rng.randint(-40, 40), 12) for _ in range(order)])
        pairs = [(outer, inner), (inner, outer - outer[0]), (shared, twelfths)]
        pairs += [(outer, TPS.zero(order)), (shared, TPS.zero(0)), (TPS([outer[0]]), twelfths)]
        for f, g in pairs:
            kernel, reference = f.compose(g), fraction_compose(f, g)
            assert kernel.order == reference.order == min(f.order, g.order)
            assert kernel.coefficients == reference.coefficients, (seed, order)


def test_unit_pow_is_exact_at_order_128():
    # the order at which scaling exp by the lcm of a log's denominators made
    # the integers of `pow` grow quadratically in bits; the series is drawn
    # as in the kernel-roundtrips check
    rng = random.Random(128)
    unit = TPS([F(1)] + [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(128)])
    assert unit.pow(F(1, 2)).coefficients == fraction_pow(unit, F(1, 2)).coefficients


def test_pow_div_and_revert_run_no_series_exp_or_log_and_compose_no_product(monkeypatch):
    rng = random.Random(12)
    unit, f = _seeded_series(rng, 9, F(1)), _seeded_series(rng, 9, F(3, 4))
    g = _seeded_series(rng, 11, F(-5, 3))
    linear = TPS([0, F(2, 7)] + list(_seeded_series(rng, 8, F(1)).coefficients))
    cases = {
        "pow": (lambda: unit.pow(F(-2, 3)), fraction_pow(unit, F(-2, 3))),
        "integer pow": (lambda: (f * Z6).pow(3), fraction_pow(f * Z6, 3)),
        "/": (lambda: f / g, fraction_div(f, g)),
        "1 /": (lambda: 1 / g, fraction_div(TPS.one(g.order), g)),
        "revert": (lambda: linear.revert(), undetermined_revert(linear)),
    }
    composed = fraction_compose(f, linear)

    def refuse(*args):
        raise AssertionError("a series exp, log or product ran")

    monkeypatch.setattr(TPS, "exp", refuse)
    monkeypatch.setattr(TPS, "log", refuse)
    for name, (run, reference) in cases.items():
        assert run().coefficients == reference.coefficients, name
    monkeypatch.setattr(TPS, "__mul__", refuse)
    assert f.compose(linear).coefficients == composed.coefficients


def test_integer_kernels_on_edge_series():
    zero = TPS.zero(5)
    f = _seeded_series(random.Random(7), 5, F(-1, MERSENNE_61))
    assert (zero * f).coefficients == fraction_mul(zero, f).coefficients == (F(0),) * 6
    assert zero.exp().coefficients == TPS.one(5).coefficients
    assert TPS.one(5).log().coefficients == zero.coefficients
    assert (TPS.zero(0) * TPS.one(0)).coefficients == (F(0),)
    assert TPS.zero(0).exp().coefficients == (F(1),)
    assert TPS.one(0).log().coefficients == (F(0),)
    z1 = TPS([0, F(-3, MERSENNE_61)])
    assert z1.revert().coefficients == (F(0), F(-MERSENNE_61, 3))
    assert z1.exp().coefficients == fraction_exp(z1).coefficients
    scalar = F(-7, MERSENNE_61)
    assert (f * scalar).coefficients == fraction_mul(f, TPS.constant(scalar, 5)).coefficients
    assert (scalar * f).coefficients == (f * scalar).coefficients


def test_series_operations_return_fraction_coefficients():
    # Fraction(3) == 3 and str(Fraction(3)) == "3", so equality checks and
    # digests cannot see a leaked int; the type is checked directly.
    f = series(2, 1, -3, 5, order=6)
    unit = series(1, F(1, 2), 4, order=6)
    results = [
        f + 1, f - unit, -f, f * unit, f * 3, 3 * f, f / unit, f / 2, 2 / unit,
        Z6.exp(), (1 + Z6).log(), unit.pow(F(1, 3)), f.pow(3), unit.compose(Z6 * 2),
        (Z6 + Z6 * Z6).revert(), TPS.zero(6).exp(), TPS.one(6).log(),
    ]
    for result in results:
        assert all(type(c) is F for c in result.coefficients), result


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


wide_fractions = st.one_of(
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
    st.integers(-10**20, 10**20).map(lambda n: F(n, MERSENNE_61)),
)
wide_tails = st.lists(wide_fractions, min_size=0, max_size=10)


@settings(max_examples=60)
@given(wide_tails, wide_tails, wide_fractions, wide_fractions)
def test_prop_mul_matches_fraction_reference(f_tail, g_tail, f0, g0):
    f, g = TPS([f0] + f_tail), TPS([g0] + g_tail)
    assert (f * g).coefficients == fraction_mul(f, g).coefficients


@settings(max_examples=60)
@given(wide_tails)
def test_prop_exp_log_match_fraction_references(tail):
    nilpotent, unit = TPS([F(0)] + tail), TPS([F(1)] + tail)
    assert nilpotent.exp().coefficients == fraction_exp(nilpotent).coefficients
    assert unit.log().coefficients == fraction_log(unit).coefficients


@settings(max_examples=60)
@given(wide_tails, exponents)
def test_prop_unit_pow_matches_fraction_reference(tail, alpha):
    unit = TPS([F(1)] + tail)
    assert unit.pow(alpha).coefficients == fraction_pow(unit, alpha).coefficients


@settings(max_examples=60)
@given(st.integers(0, 3), wide_fractions.filter(lambda c: c != 0), wide_tails, st.integers(0, 5))
def test_prop_integer_pow_matches_fraction_reference(valuation, lead, tail, n):
    base = TPS([F(0)] * valuation + [lead] + tail)
    assert base.pow(n).coefficients == fraction_pow(base, n).coefficients


@settings(max_examples=60)
@given(wide_fractions.filter(bool), wide_tails, st.integers(-4, 4), wide_fractions, wide_tails)
def test_prop_integer_pow_of_any_unit_matches_fraction_reference(lead, tail, n, g0, g_tail):
    # any nonzero constant term, negative and other than 1 included; g has its
    # own order, so the division identities mix orders
    f, g = TPS([lead] + tail), TPS([g0] + g_tail)
    _assert_canonical_and_equal(f.pow(n), fraction_pow(f, n).coefficients)
    assert g / f == g * f.pow(-1)
    assert g0 / f == f.pow(-1) * g0


@settings(max_examples=60)
@given(wide_tails, wide_tails, wide_fractions, wide_fractions.filter(lambda c: c != 0))
def test_prop_div_matches_fraction_reference(f_tail, g_tail, f0, g0):
    f, g = TPS([f0] + f_tail), TPS([g0] + g_tail)
    assert (f / g).coefficients == fraction_div(f, g).coefficients


@settings(max_examples=60)
@given(wide_tails, wide_tails, wide_fractions)
def test_prop_compose_matches_fraction_reference(f_tail, g_tail, f0):
    f, g = TPS([f0] + f_tail), TPS([F(0)] + g_tail)
    assert f.compose(g).coefficients == fraction_compose(f, g).coefficients


@settings(max_examples=40)
@given(wide_fractions.filter(lambda c: c != 0), st.lists(wide_fractions, max_size=7))
def test_prop_revert_matches_undetermined_reference(linear, tail):
    f = TPS([F(0), linear] + tail)
    assert f.revert().coefficients == undetermined_revert(f).coefficients


# -- the integer form: canonical numerators, Fractions built when read ----------


def _born(f, from_kernel):
    """f as built from Fractions, or an equal series born as a kernel's integers."""
    return f * 1 if from_kernel else f


def _assert_canonical(series):
    nums, den = series._ints
    assert den > 0 and math.gcd(den, *nums) == 1, (nums, den)


def _assert_canonical_and_equal(result, reference):
    _assert_canonical(result)
    assert result.coefficients == tuple(reference)
    assert all(type(c) is F for c in result.coefficients)


@settings(max_examples=80)
@given(_tail((0, 7)), _tail((0, 7)), small_fractions, small_fractions.filter(bool), exponents,
       st.booleans(), st.booleans())
def test_prop_every_operation_returns_canonical_integers(f_tail, g_tail, f0, g0, alpha, f_kernel, g_kernel):
    # operands born both ways; the stored integers are (nums, den) with
    # den > 0 and gcd(den, *nums) == 1, whatever form the operands had, and
    # the constructor stores them so with no operation in between
    f, g = _born(TPS([f0] + f_tail), f_kernel), _born(TPS([g0] + g_tail), g_kernel)
    unit, nilpotent = _born(TPS([1] + g_tail), f_kernel), _born(TPS([0] + f_tail), g_kernel)
    n = min(f.order, g.order)
    cases = [
        (TPS([f0] + f_tail), [f0, *f_tail]),
        (f + g, [a + b for a, b in zip(f, g)]),
        (f - g, [a - b for a, b in zip(f, g)]),
        (-f, [-a for a in f]),
        (f + g0, [f[0] + g0, *f.coefficients[1:]]),
        (g0 - f, [g0 - f[0], *(-a for a in f.coefficients[1:])]),
        (f * g0, [a * g0 for a in f]),
        (f / g0, [a / g0 for a in f]),
        (f * g, fraction_mul(f, g).coefficients),
        (f / g, fraction_div(f, g).coefficients),
        (g0 / g, fraction_div(TPS.constant(g0, g.order), g).coefficients),
        (unit.pow(alpha), fraction_pow(unit, alpha).coefficients),
        (f.pow(3), fraction_pow(f, 3).coefficients),
        (nilpotent.exp(), fraction_exp(nilpotent).coefficients),
        (unit.log(), fraction_log(unit).coefficients),
        (f.compose(nilpotent), fraction_compose(f, nilpotent).coefficients),
        (f.truncate(n), f.coefficients[: n + 1]),
    ]
    if nilpotent.order >= 1 and nilpotent[1] != 0:
        cases.append((nilpotent.revert(), undetermined_revert(nilpotent).coefficients))
    for result, reference in cases:
        _assert_canonical_and_equal(result, reference)


@pytest.mark.parametrize("cache", [universal._universal_logs, lehn._substitution], ids=["engine", "lehn"])
def test_every_part_of_both_caches_is_a_series_with_canonical_integers(cache):
    # an empty cache grown through each order, every one a fresh build, then
    # read again at each order, every one the largest build, whose truncations
    # are the fresh builds
    orders = (0, 1, 8, 32)
    grown = _grown_by_prefix(cache.__wrapped__)
    fresh = {N: grown(N) for N in orders}
    for N in orders:
        assert grown(N) is fresh[32]
        for part, built in zip(grown(N), fresh[N], strict=True):
            for prefix in (part.truncate(N), built):
                assert type(prefix) is TPS and prefix.order == N
                _assert_canonical(prefix)
            assert part.truncate(N) == built


@given(any_series, any_series, st.booleans(), st.booleans(), st.integers(0, 9))
def test_prop_equality_agrees_with_fraction_tuples(f, g, f_kernel, g_kernel, k):
    # equal values give equal integers, so == is the Fraction-tuple
    # comparison, order included, whatever form each side was born in
    a, b = _born(f, f_kernel), _born(g, g_kernel)
    k = min(k, a.order, b.order)
    pairs = [(a, b), (a, f), (b, g), (a, a + b - b), (a.truncate(k), f.truncate(k))]
    pairs += [(a.truncate(k), b.truncate(k)), (a, a.truncate(k)), (b.truncate(k), b * 1)]
    for x, y in pairs:
        assert (x == y) == (x.coefficients == y.coefficients)
        assert (x != y) == (x.coefficients != y.coefficients)


def test_integer_born_series_read_like_fraction_born_ones():
    f = series(F(-3, 4), 0, 7, F(5, 6))
    assert f._fractions is None  # the constructor, too, keeps only the integers
    born = f * 1
    assert born == f and born._fractions is None  # no Fraction built yet
    assert born[0] == F(-3, 4) and born[3] == F(5, 6)
    assert born._fractions is None  # a coefficient read caches no tuple
    assert (str(born), repr(born), list(born)) == (str(f), repr(f), list(f))
    assert born.coefficients is born.coefficients  # built once, then cached
    assert born.order == f.order == 3
    with pytest.raises(IndexError):
        born[4]


def _fractions_built(monkeypatch):
    """The argument tuples of every `Fraction` the series module builds from now on."""
    built = []

    class Spy(type):
        def __instancecheck__(cls, value):
            return isinstance(value, F)

        def __call__(cls, *args):
            built.append(args)
            return F(*args)

    monkeypatch.setattr(hilbsegre.series, "Fraction", Spy("Fraction", (), {}))
    return built


def test_a_pow_product_builds_no_fraction_per_coefficient(monkeypatch):
    # unit^a * unit^b == unit^(a+b) runs on the integers alone: the number of
    # Fractions built (spied on through the module's name) does not grow with the order
    built = _fractions_built(monkeypatch)
    counts = []
    for order in (8, 32):
        rng = random.Random(order)
        unit = TPS([F(1)] + [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order)])
        built.clear()
        for alpha, beta in ((F(1, 2), F(1, 2)), (F(5, 2), F(-3, 2)), (F(-1), F(2))):
            assert unit.pow(alpha) * unit.pow(beta) == unit.pow(alpha + beta)
        counts.append(len(built))
    assert counts[0] == counts[1], counts


def test_a_coefficient_read_builds_one_fraction(monkeypatch):
    # series[k] builds Fraction(nums[k], den) alone, so a warm set's check of the
    # terms z^0 and z^1 of A, B, C and D builds 8 Fractions at every order
    universal.universal_series_set(64)
    built = _fractions_built(monkeypatch)
    counts = []
    for order in (8, 32):
        built.clear()
        universal.universal_series_set(order)
        counts.append(len(built))
    assert counts == [8, 8], counts


# -- the integer kernels stay private to the series module -----------------


#: Each integer kernel, with the modules allowed to use it outside `series`.
INTEGER_KERNELS = {
    "_convolve": set(),
    "_exp_numerators": {"universal.py"},
    "_exp_step": {"universal.py"},
    "_log_numerators": {"lehn.py"},
    "_exp_series": {"universal.py", "lehn.py"},
    "_reduced": set(),
    "_log_series": {"universal.py", "lehn.py"},
}


def test_integer_kernels_are_defined_in_series_and_used_only_by_the_cold_builds():
    # outside `series`, only the two cold builds, the engine's vanishing solve
    # and the Lehn substitution, and the engine's symbolic `segre_polynomial`
    # work on integer logs, each through the kernels listed for it; everything
    # else goes through the public TruncatedPowerSeries API
    defined, used = {}, {}
    for path in sorted(Path(hilbsegre.series.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names, table = {node.name}, defined
            elif isinstance(node, ast.ImportFrom):
                names, table = {alias.name for alias in node.names}, used
            elif isinstance(node, ast.Attribute):
                names, table = {node.attr}, used
            else:
                continue
            for name in names & INTEGER_KERNELS.keys():
                table.setdefault(name, set()).add(path.name)
    assert defined == {name: {"series.py"} for name in INTEGER_KERNELS}
    for name, users in used.items():
        assert users <= INTEGER_KERNELS[name], name
