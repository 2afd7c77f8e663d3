"""Dense truncated power series over exact rational coefficients.

A series of order N stores the coefficients of z^0 .. z^N; everything
above z^N is unknown (not zero).  Binary operations between series of
different orders truncate to the smaller order, the precision actually
supported by both operands.  Equality is exact, order included;
`truncate` compares prefixes.  Coefficients are `fractions.Fraction` at
the interface, so every operation is exact and every coefficient stays
in canonical reduced form; floats are rejected on input.  Inside the
product, exp, log and reversion kernels the coefficients are cleared of
denominators once, the recurrence runs over Python integers, and each
output coefficient is reduced once (Knuth, TAOCP vol. 2, 4.7).

Beyond the ring operations the module provides exp, log, rational
powers, composition and compositional reversion, which together are
enough to expand algebraic generating functions exactly.  Only the
product, exp, log and reversion run recurrences of their own; powers
(exp of a multiple of the log), division (the product with the inverse
power of the divisor) and composition are built from them.  The two
cold builds, the engine's vanishing solve and the Lehn substitution,
keep their logs as the integers j log_j and run the kernels
`_log_numerators` and `_exp_numerators` (step `_exp_step`) directly;
`_exp_fractions`, the one way from exp numerators to `Fraction`s, serves
them and `exp`.  Up to order K the exp kernel scales E_n by exactly
K! den^n for the den it is given: one integer dot product and one exact
division per coefficient.  `exp` passes the denominator of j f_j, which
for the log of a generic rational series grows like lcm(1..N), so a
power of such a series costs more at high order; the CLI stops at 64.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from functools import wraps
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Union

__all__ = [
    "ExactRational",
    "TruncatedPowerSeries",
    "as_rational",
    "format_rational",
    "parse_rational",
]

#: The coefficient field.  `fractions.Fraction` already maintains the
#: canonical reduced form (positive denominator, gcd 1, zero as 0/1).
ExactRational = Fraction

Scalar = Union[int, Fraction]

_RATIONAL_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def as_rational(value: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def format_rational(value: Scalar) -> str:
    """Render a rational as "p/q", omitting the denominator when it is 1.

    Integers of any size are written out: `Decimal` converts exactly and
    has no digit limit, unlike `str(int)` since Python 3.10.7.
    """
    q = as_rational(value)
    text = str(Decimal(q.numerator))
    return text if q.denominator == 1 else f"{text}/{Decimal(q.denominator)}"


def parse_rational(text: str) -> Fraction:
    """Parse the "p/q" form emitted by :func:`format_rational`, any size.

    Decimal notation is refused on purpose: the wire format is exact.
    Only ASCII digits are accepted, and a zero denominator is refused.
    """
    match = _RATIONAL_LITERAL.fullmatch(text.strip())
    if not match or match[2] is not None and int(Decimal(match[2])) == 0:
        raise ValueError(f"not an exact rational literal: {text!r}")
    return Fraction(int(Decimal(match[1])), int(Decimal(match[2] or 1)))


class TruncatedPowerSeries:
    """A power series c0 + c1 z + ... + cN z^N with explicit order N.

    Instances are immutable; all operations return new series.  The
    usual operators work against both series and scalars:

    >>> one = TruncatedPowerSeries.one(4)
    >>> f = one + TruncatedPowerSeries.identity(4)      # 1 + z
    >>> print(one / f)
    1 - z + z^2 - z^3 + z^4 + O(z^5)
    >>> print(f * (1 - TruncatedPowerSeries.identity(4)))
    1 - z^2 + O(z^5)
    """

    __slots__ = ("_coefficients",)

    def __init__(self, coefficients: Iterable[Scalar], order: int | None = None):
        coeffs = [as_rational(c) for c in coefficients]
        if order is not None:
            if order < 0:
                raise ValueError("order must be non-negative")
            if len(coeffs) > order + 1:
                del coeffs[order + 1 :]
            else:
                coeffs.extend([Fraction(0)] * (order + 1 - len(coeffs)))
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "_coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedPowerSeries is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "TruncatedPowerSeries":
        return cls([value], order=order)

    @classmethod
    def one(cls, order: int) -> "TruncatedPowerSeries":
        return cls.constant(1, order)

    @classmethod
    def zero(cls, order: int) -> "TruncatedPowerSeries":
        return cls.constant(0, order)

    @classmethod
    def identity(cls, order: int) -> "TruncatedPowerSeries":
        """The series z, the identity for composition.  Needs order >= 1."""
        if order < 1:
            raise ValueError("identity series needs order >= 1")
        return cls([0, 1], order=order)

    # -- basic access --------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coefficients

    @property
    def order(self) -> int:
        return len(self._coefficients) - 1

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient index {k} outside order {self.order}")
        return self._coefficients[k]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._coefficients)

    def truncate(self, order: int) -> "TruncatedPowerSeries":
        """Drop coefficients above `order`; extending is not allowed."""
        if order < 0:
            raise ValueError("order must be non-negative")
        if order > self.order:
            raise ValueError("cannot truncate to a larger order")
        if order == self.order:
            return self
        return TruncatedPowerSeries(self._coefficients[: order + 1])

    # -- equality and display -------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedPowerSeries):
            return NotImplemented
        return self._coefficients == other._coefficients

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self._coefficients)
        return f"TruncatedPowerSeries([{body}])"

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self._coefficients):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                var = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    terms.append(var)
                elif c == -1:
                    terms.append(f"-{var}")
                else:
                    terms.append(f"{c}*{var}")
        body = " + ".join(terms) if terms else "0"
        return (body + f" + O(z^{self.order + 1})").replace("+ -", "- ")

    # -- ring operations -------------------------------------------------

    def __neg__(self) -> "TruncatedPowerSeries":
        return TruncatedPowerSeries([-c for c in self._coefficients])

    def __add__(self, other) -> "TruncatedPowerSeries":
        if isinstance(other, TruncatedPowerSeries):
            return TruncatedPowerSeries(
                [a + b for a, b in zip(self._coefficients, other._coefficients)]
            )
        value = as_rational(other)
        coeffs = list(self._coefficients)
        coeffs[0] += value
        return TruncatedPowerSeries(coeffs)

    def __radd__(self, other) -> "TruncatedPowerSeries":
        return self.__add__(other)

    def __sub__(self, other) -> "TruncatedPowerSeries":
        return self.__add__(-other if isinstance(other, TruncatedPowerSeries) else -as_rational(other))

    def __rsub__(self, other) -> "TruncatedPowerSeries":
        return (-self).__add__(other)

    def __mul__(self, other) -> "TruncatedPowerSeries":
        if isinstance(other, TruncatedPowerSeries):
            n = min(self.order, other.order)
            f, f_den = _scaled(self._coefficients[: n + 1])
            g, g_den = _scaled(other._coefficients[: n + 1])
            den = f_den * g_den
            return TruncatedPowerSeries([Fraction(c, den) for c in _convolve(f, g, n)])
        value = as_rational(other)
        return TruncatedPowerSeries([c * value for c in self._coefficients])

    def __rmul__(self, other) -> "TruncatedPowerSeries":
        return self.__mul__(other)

    def __truediv__(self, other) -> "TruncatedPowerSeries":
        """f / g = f (g / g0)^(-1) / g0: one log, one exp, one product."""
        if isinstance(other, TruncatedPowerSeries):
            g0 = other._coefficients[0]
            if g0 == 0:
                raise ValueError("non-unit divisor")
            unit = other.truncate(min(self.order, other.order)) / g0
            return self * (-unit.log()).exp() / g0
        value = as_rational(other)
        return TruncatedPowerSeries([c / value for c in self._coefficients])

    def __rtruediv__(self, other) -> "TruncatedPowerSeries":
        return TruncatedPowerSeries.constant(as_rational(other), self.order) / self

    # -- transcendental operations ----------------------------------------

    def exp(self) -> "TruncatedPowerSeries":
        """Exponential of a series with zero constant term, by `_exp_numerators`."""
        if self._coefficients[0] != 0:
            raise ValueError("exp of series with nonzero constant term")
        f, den = _scaled(self._coefficients)
        return TruncatedPowerSeries(_exp_fractions([j * x for j, x in enumerate(f)], den))

    def log(self) -> "TruncatedPowerSeries":
        """Logarithm of a series with constant term exactly 1.

        The recurrence runs on integers in `_log_numerators`.

        >>> f = 1 + TruncatedPowerSeries.identity(6)
        >>> f.log().exp() == f
        True
        """
        if self._coefficients[0] != 1:
            raise ValueError("log of non-unit series")
        f, den = _scaled(self._coefficients)
        m = _log_numerators(f, den)  # n L_n = m_n / den^n
        return TruncatedPowerSeries(Fraction(x, (n or 1) * den**n) for n, x in enumerate(m))

    def pow(self, exponent: Scalar) -> "TruncatedPowerSeries":
        """Raise to a rational power alpha as exp(alpha log f).

        Non-negative integer exponents work for any base: the valuation
        v and the leading coefficient f_v are shifted out first, so
        f^n = z^(n v) f_v^n exp(n log h) with h = z^(-v) f / f_v a unit.
        Other exponents require the constant term to be exactly 1.
        """
        alpha = as_rational(exponent)
        f = self._coefficients
        if alpha.denominator == 1 and alpha >= 0:
            n = alpha.numerator
            if n == 0:
                return TruncatedPowerSeries.one(self.order)
            v = next((i for i, c in enumerate(f) if c), None)
            if v is None or n * v > self.order:
                return TruncatedPowerSeries.zero(self.order)
            h = TruncatedPowerSeries(f[v:]).truncate(self.order - n * v) / f[v]
            power = (h.log() * n).exp() * f[v] ** n
            return TruncatedPowerSeries([Fraction(0)] * (n * v) + list(power))
        if f[0] != 1:
            raise ValueError("rational power of non-unit series")
        return (self.log() * alpha).exp()

    def __pow__(self, exponent: Scalar) -> "TruncatedPowerSeries":
        return self.pow(exponent)

    # -- composition ---------------------------------------------------------

    def compose(self, inner: "TruncatedPowerSeries") -> "TruncatedPowerSeries":
        """Substitute `inner` (which must have zero constant term) into self."""
        if inner._coefficients[0] != 0:
            raise ValueError("composition requires zero constant term")
        n = min(self.order, inner.order)
        g = inner.truncate(n)
        acc = TruncatedPowerSeries.constant(self._coefficients[n], n)
        for k in range(n - 1, -1, -1):
            acc = acc * g + self._coefficients[k]
        return acc

    def revert(self) -> "TruncatedPowerSeries":
        """Compositional inverse g with f(g(z)) = z, for f0 = 0, f1 != 0.

        Lagrange inversion: g_m = [w^(m-1)] phi^m / m with phi = w / f(w),
        a unit series.  The powers phi^m are kept as integer numerators
        over D^m, with phi = P / D, and built by one integer product per
        order, so the whole inverse costs O(N^3) (Brent and Kung, "Fast
        algorithms for manipulating formal power series", 1978).

        >>> f = TruncatedPowerSeries([0, 1, 1, 1, 1, 1])   # z/(1-z)
        >>> print(f.revert())
        z - z^2 + z^3 - z^4 + z^5 + O(z^6)
        """
        if self.order < 1 or self._coefficients[0] != 0 or self._coefficients[1] == 0:
            raise ValueError("series not invertible under composition")
        phi = 1 / TruncatedPowerSeries(self._coefficients[1:])
        p, den = _scaled(phi.coefficients)
        power, scale = p, den  # phi^m = power / scale
        g = [Fraction(0)]
        for m in range(1, self.order + 1):
            g.append(Fraction(power[m - 1], m * scale))
            if m < self.order:
                power = _convolve(power, p, phi.order)
                scale *= den
        return TruncatedPowerSeries(g)


def _scaled(coeffs) -> tuple[list[int], int]:
    """Integer numerators over one common denominator D: c_i = nums[i] / D."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(f: list[int], g: list[int], n: int) -> list[int]:
    """Coefficients 0 .. n of the product of two integer sequences."""
    return [sum(map(mul, f[: k + 1], g[k::-1])) for k in range(n + 1)]


def _log_numerators(f: list[int], den: int) -> list[int]:
    """log(f) as n L_n = m[n] / den^n, for f_i = f[i] / den and f_0 = 1.

    From f L' = f', M_n = n L_n satisfies M_n = n f_n - sum_{0<j<n} M_j f_{n-j};
    over integers, m_n = den^n M_n and g_i = den^(i-1) f[i] give
    m_n = n g_n - sum_{0<j<n} m_j g_{n-j}.
    """
    g = [den ** (i - 1) * x if i else 0 for i, x in enumerate(f)]
    m = [0]
    for n in range(1, len(f)):
        m.append(n * g[n] - sum(map(mul, m[1:n], g[n - 1 : 0 : -1])))
    return m


def _exp_step(c: list[int], h: list[int]) -> int:
    """h_n from n h_n = sum_j c_j h_(n-j), n = len(h) and c = c_1 .. c_n: one exp kernel step."""
    return sum(map(mul, c, reversed(h))) // len(h)


def _exp_numerators(g: list[int], den: int) -> list[int]:
    """exp(f) as E_n = h[n] / (K! den^n), for K = len(g) - 1, f0 = 0 and j f_j = g[j] / den.

    From n E_n = sum_j j f_j E_(n-j), the numerators h_n = K! den^n E_n
    satisfy n h_n = sum_j c_j h_(n-j) over the integers c_j = den^(j-1) g_j:
    one `_exp_step` per n, the step that also grows the vanishing solve's
    probe and twin series.  The division by n is exact because
    h_n = (K!/n!) e_n for e_n = den^n n! E_n, and
    e_n = sum_j C(n-1, j-1) (j-1)! c_j e_(n-j) is an integer by induction.  The scale is exactly K! den^n, whatever g;
    `_exp_fractions` divides den and g by their gcd first, to keep h_n short.
    """
    c, h = [], [factorial(len(g) - 1)]  # c_1 .. c_n, and h_0 .. h_n
    power = 1  # den^(n-1)
    for x in g[1:]:
        c.append(power * x)
        h.append(_exp_step(c, h))
        power *= den
    return h


def _exp_fractions(g: list[int], den: int) -> tuple[Fraction, ...]:
    """exp(f) as `Fraction`s, for f0 = 0 and j f_j = g[j] / den, by `_exp_numerators`."""
    common = gcd(den, *g)  # a log's j f_j has a far smaller denominator than its f_j
    den //= common
    h = _exp_numerators([x // common for x in g], den)  # E_n = h_n / (K! den^n), K! = h_0
    return tuple(Fraction(x, h[0] * den**n) for n, x in enumerate(h))


def _exp_of_combination(terms, order: int) -> TruncatedPowerSeries:
    """exp(sum of weight * log) to `order`, for (weight, log coefficients) pairs.

    The logs are combined coefficientwise, so a product of rational
    powers f1^w1 * f2^w2 * ... costs one exp and no series products.
    """
    terms = [(weight, log) for weight, log in terms if weight]
    return TruncatedPowerSeries(
        [sum((w * log[n] for w, log in terms), Fraction(0)) for n in range(order + 1)]
    ).exp()


def _grown_by_prefix(build):
    """Cache a build of coefficient tuples at the largest order requested so far.

    The cached quantities are prefix-stable: their entries up to index
    N do not change when N grows, so a request at a smaller order reads
    the prefixes of the largest build.
    """
    largest = [(-1, ())]  # one (order, parts) pair, replaced whole

    @wraps(build)
    def cached(N: int) -> tuple[tuple[Fraction, ...], ...]:
        order, parts = largest[0]
        if N > order:
            order, parts = largest[0] = N, build(N)
        return tuple(part[: N + 1] for part in parts)

    return cached
