"""Dense truncated power series over exact rational coefficients.

A series of order N stores the coefficients of z^0 .. z^N; everything
above z^N is unknown (not zero).  Binary operations between series of
different orders truncate to the smaller order, the precision actually
supported by both operands, and equality compares coefficients up to
the smaller order.  Coefficients are `fractions.Fraction` throughout,
so every operation is exact and every coefficient stays in canonical
reduced form; floats are rejected on input.

Beyond the ring operations the module provides exp, log, rational
powers, composition and compositional reversion, which together are
enough to expand algebraic generating functions exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
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

_RATIONAL_LITERAL = re.compile(r"^[+-]?\d+(/\d+)?$")


def as_rational(value: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def format_rational(value: Scalar) -> str:
    """Render a rational as "p/q", omitting the denominator when it is 1."""
    return str(as_rational(value))


def parse_rational(text: str) -> Fraction:
    """Parse the "p/q" form emitted by :func:`format_rational`.

    Decimal notation is refused on purpose: the wire format is exact.
    """
    if not _RATIONAL_LITERAL.match(text.strip()):
        raise ValueError(f"not an exact rational literal: {text!r}")
    return Fraction(text)


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
        if order > self.order:
            raise ValueError("cannot truncate to a larger order")
        if order == self.order:
            return self
        return TruncatedPowerSeries(self._coefficients[: order + 1])

    # -- equality and display -------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedPowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return self._coefficients[: n + 1] == other._coefficients[: n + 1]

    __hash__ = None  # prefix equality is incompatible with hashing

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
            f, g = self._coefficients, other._coefficients
            return TruncatedPowerSeries(
                [sum(f[i] * g[k - i] for i in range(k + 1)) for k in range(n + 1)]
            )
        value = as_rational(other)
        return TruncatedPowerSeries([c * value for c in self._coefficients])

    def __rmul__(self, other) -> "TruncatedPowerSeries":
        return self.__mul__(other)

    def __truediv__(self, other) -> "TruncatedPowerSeries":
        if isinstance(other, TruncatedPowerSeries):
            if other._coefficients[0] == 0:
                raise ValueError("non-unit divisor")
            n = min(self.order, other.order)
            f, g = self._coefficients, other._coefficients
            q: list[Fraction] = []
            for k in range(n + 1):
                acc = f[k]
                for i in range(k):
                    acc -= q[i] * g[k - i]
                q.append(acc / g[0])
            return TruncatedPowerSeries(q)
        value = as_rational(other)
        return TruncatedPowerSeries([c / value for c in self._coefficients])

    def __rtruediv__(self, other) -> "TruncatedPowerSeries":
        return TruncatedPowerSeries.constant(as_rational(other), self.order) / self

    # -- transcendental operations ----------------------------------------

    def exp(self) -> "TruncatedPowerSeries":
        """Exponential of a series with zero constant term.

        Computed by the coefficientwise recursion n E_n = sum_{j<=n} j f_j E_{n-j}
        that couples E' = f' E, so no intermediate leaves the rationals.
        """
        if self._coefficients[0] != 0:
            raise ValueError("exp of series with nonzero constant term")
        jf = [j * c for j, c in enumerate(self._coefficients)]
        out = [Fraction(1)]
        for m in range(1, self.order + 1):
            out.append(sum(jf[j] * out[m - j] for j in range(1, m + 1)) / m)
        return TruncatedPowerSeries(out)

    def log(self) -> "TruncatedPowerSeries":
        """Logarithm of a series with constant term exactly 1.

        >>> f = 1 + TruncatedPowerSeries.identity(6)
        >>> f.log().exp() == f
        True
        """
        if self._coefficients[0] != 1:
            raise ValueError("log of non-unit series")
        f = self._coefficients
        out = [Fraction(0)]
        for m in range(1, self.order + 1):
            convolution = sum((j * out[j] * f[m - j] for j in range(1, m)), Fraction(0))
            out.append(f[m] - convolution / m)
        return TruncatedPowerSeries(out)

    def pow(self, exponent: Scalar) -> "TruncatedPowerSeries":
        """Raise to a rational power.

        Non-negative integer exponents work for any base (iterated
        multiplication); negative or fractional exponents require the
        constant term to be exactly 1 and go through exp(a * log f).
        """
        alpha = as_rational(exponent)
        if alpha.denominator == 1:
            n = alpha.numerator
            if n >= 0:
                return self._integer_pow(n)
            if self._coefficients[0] != 1:
                raise ValueError("rational power of non-unit series")
            return (TruncatedPowerSeries.one(self.order) / self)._integer_pow(-n)
        if self._coefficients[0] != 1:
            raise ValueError("rational power of non-unit series")
        return (self.log() * alpha).exp()

    def _integer_pow(self, n: int) -> "TruncatedPowerSeries":
        result = TruncatedPowerSeries.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

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

        Determined order by order: with g known below order m, the z^m
        coefficient of f(g) depends on g_m only through f1 * g_m, so each
        step is a single exact division.

        >>> f = TruncatedPowerSeries([0, 1, 1, 1, 1, 1])   # z/(1-z)
        >>> print(f.revert())
        z - z^2 + z^3 - z^4 + z^5 + O(z^6)
        """
        if self.order < 1 or self._coefficients[0] != 0 or self._coefficients[1] == 0:
            raise ValueError("series not invertible under composition")
        n = self.order
        inv1 = 1 / self._coefficients[1]
        g = [Fraction(0), inv1] + [Fraction(0)] * (n - 1)
        for m in range(2, n + 1):
            h = self.compose(TruncatedPowerSeries(g[: m + 1]))
            g[m] = -h[m] * inv1
        return TruncatedPowerSeries(g)


def _exp_of_combination(terms, order: int) -> TruncatedPowerSeries:
    """exp(sum of weight * log) to `order`, for (weight, log coefficients) pairs.

    The logs are combined coefficientwise, so a product of rational
    powers f1^w1 * f2^w2 * ... costs one exp and no series products.
    """
    terms = [(weight, log) for weight, log in terms if weight]
    return TruncatedPowerSeries(
        [sum((w * log[n] for w, log in terms), Fraction(0)) for n in range(order + 1)]
    ).exp()
