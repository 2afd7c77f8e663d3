"""Dense truncated power series over exact rational coefficients.

A series of order N stores the coefficients of z^0 .. z^N; everything
above z^N is unknown (not zero).  Binary operations between series of
different orders truncate to the smaller order, the precision actually
supported by both operands.  Equality is exact, order included;
`truncate` compares prefixes.  Coefficients are `fractions.Fraction` at
the interface, in canonical reduced form; floats are rejected on input.
A series is its numerators over one denominator D > 0 with
gcd(D, *nums) == 1, so equal series hold equal integers, and every
operation, `==` included, reads and writes those integers alone (Knuth,
TAOCP vol. 2, 4.7).  The constructor writes the `Fraction`s it is given
over the lcm of their denominators, so every series is born as integers;
`series[k]` builds one `Fraction`, and `.coefficients`, iteration and
printing build and cache the tuple of them all.

Beyond the ring operations the module provides exp, log, rational
powers, composition and compositional reversion, which together are
enough to expand algebraic generating functions exactly.  A power
f^(p/q) hands the log numerators m_j of j L_j = m_j / D^j to the exp
kernel as the graded weights p q^(j-1) m_j, once an integer power has
shifted out the leading term; f / g is f g^(-1); composition is Horner's
rule on integer numerators.  The two cold builds, the engine's vanishing
solve and the Lehn substitution, keep their logs as the integers j log_j,
run `_log_numerators` and `_exp_numerators` (step `_exp_step`) directly,
and are cached by `_grown_by_prefix`; `_log_series` and `_exp_series`, the
one way from log and from exp numerators to a series, serve them, `log`
and `exp`.  Up to order K the exp kernel scales E_n by exactly K! den^n
for the den it is given: one integer dot product and one exact division
per coefficient.  `exp` passes the denominator of j f_j, which for the
log of a generic rational series grows like lcm(1..N); `pow` passes q D.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from functools import wraps
from itertools import accumulate, repeat
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Union

__all__ = [
    "TruncatedPowerSeries",
    "as_rational",
    "format_rational",
    "parse_rational",
]

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

    __slots__ = ("_fractions", "_ints")

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
        den = lcm(*(c.denominator for c in coeffs))  # so gcd(den, *nums) == 1
        object.__setattr__(self, "_fractions", None)
        object.__setattr__(self, "_ints", ([c.numerator * (den // c.denominator) for c in coeffs], den))

    @classmethod
    def _canonical(cls, nums: list[int], den: int) -> "TruncatedPowerSeries":
        """The series c_i = nums[i] / den (den != 0), stored reduced by gcd(den, *nums), den > 0."""
        common = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        series = object.__new__(cls)
        object.__setattr__(series, "_fractions", None)
        object.__setattr__(series, "_ints", ([x // common for x in nums], den // common))
        return series

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
        if self._fractions is None:
            nums, den = self._ints
            object.__setattr__(self, "_fractions", tuple(Fraction(x, den) for x in nums))
        return self._fractions

    @property
    def order(self) -> int:
        return len(self._ints[0]) - 1

    def __getitem__(self, k: int) -> Fraction:
        nums, den = self._ints
        if not 0 <= k < len(nums):
            raise IndexError(f"coefficient index {k} outside order {self.order}")
        return Fraction(nums[k], den)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coefficients)

    def truncate(self, order: int) -> "TruncatedPowerSeries":
        """Drop coefficients above `order`; extending is not allowed."""
        if order < 0:
            raise ValueError("order must be non-negative")
        if order > self.order:
            raise ValueError("cannot truncate to a larger order")
        if order == self.order:
            return self
        nums, den = self._ints
        return TruncatedPowerSeries._canonical(nums[: order + 1], den)

    # -- equality and display -------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedPowerSeries):
            return NotImplemented
        return self._ints == other._ints

    def __repr__(self) -> str:
        body = ", ".join(map(format_rational, self.coefficients))
        return f"TruncatedPowerSeries([{body}])"

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if k == 0:
                terms.append(format_rational(c))
            else:
                var = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    terms.append(var)
                elif c == -1:
                    terms.append(f"-{var}")
                else:
                    terms.append(f"{format_rational(c)}*{var}")
        body = " + ".join(terms) if terms else "0"
        return (body + f" + O(z^{self.order + 1})").replace("+ -", "- ")

    # -- ring operations -------------------------------------------------

    def __neg__(self) -> "TruncatedPowerSeries":
        return self * -1

    def __add__(self, other) -> "TruncatedPowerSeries":
        if not isinstance(other, TruncatedPowerSeries):
            other = TruncatedPowerSeries.constant(other, self.order)
        (f, f_den), (g, g_den) = self._ints, other._ints
        a, b = (lcm(f_den, g_den) // den for den in (f_den, g_den))
        return TruncatedPowerSeries._canonical([x * a + y * b for x, y in zip(f, g)], f_den * a)

    def __radd__(self, other) -> "TruncatedPowerSeries":
        return self.__add__(other)

    def __sub__(self, other) -> "TruncatedPowerSeries":
        return self.__add__(-other if isinstance(other, TruncatedPowerSeries) else -as_rational(other))

    def __rsub__(self, other) -> "TruncatedPowerSeries":
        return (-self).__add__(other)

    def __mul__(self, other) -> "TruncatedPowerSeries":
        f, f_den = self._ints
        if isinstance(other, TruncatedPowerSeries):
            g, g_den = other._ints
            return TruncatedPowerSeries._canonical(_convolve(f, g, min(len(f), len(g)) - 1), f_den * g_den)
        q = as_rational(other)
        return TruncatedPowerSeries._canonical([x * q.numerator for x in f], f_den * q.denominator)

    def __rmul__(self, other) -> "TruncatedPowerSeries":
        return self.__mul__(other)

    def __truediv__(self, other) -> "TruncatedPowerSeries":
        """f / g = f g^(-1): one integer `pow` and one product."""
        if isinstance(other, TruncatedPowerSeries):
            if other._ints[0][0] == 0:
                raise ValueError("non-unit divisor")
            return self * other.truncate(min(self.order, other.order)).pow(-1)
        return self * (1 / as_rational(other))

    def __rtruediv__(self, other) -> "TruncatedPowerSeries":
        return TruncatedPowerSeries.constant(as_rational(other), self.order) / self

    # -- transcendental operations ----------------------------------------

    def exp(self) -> "TruncatedPowerSeries":
        """Exponential of a series with zero constant term, by `_exp_numerators`."""
        f, den = self._ints
        if f[0] != 0:
            raise ValueError("exp of series with nonzero constant term")
        return _exp_series([j * x for j, x in enumerate(f)], den)

    def log(self) -> "TruncatedPowerSeries":
        """Logarithm of a series with constant term exactly 1.

        The recurrence runs on integers in `_log_numerators`.

        >>> f = 1 + TruncatedPowerSeries.identity(6)
        >>> f.log().exp() == f
        True
        """
        f, den = self._ints
        if f[0] != den:
            raise ValueError("log of non-unit series")
        return _log_series(_log_numerators(f, den), den)

    def pow(self, exponent: Scalar) -> "TruncatedPowerSeries":
        """Raise to a rational power alpha = p/q as exp(alpha log f), on integers.

        An integer exponent n shifts out the valuation v and the leading
        coefficient f_v, f^n = z^(n v) f_v^n u^n with u = z^(-v) f / f_v
        a unit: n >= 0 takes any base, n < 0 any unit, and f / g = f g^(-1).
        Other exponents require the constant term to be exactly 1, and u = f.
        With u = F / F_0 for integers F, `_log_numerators` gives
        n L_n = m_n / F_0^n, and the exp kernel, handed the graded
        weights p q^(j-1) m_j, gives u^alpha as E_n = h_n / (K! (q F_0)^n):
        no `Fraction` log, and no `Fraction` at all.
        """
        alpha = as_rational(exponent)
        p, q = alpha.numerator, alpha.denominator
        (F, den), lead, shift = self._ints, (1, 1), 0
        if q == 1:
            if p == 0:
                return TruncatedPowerSeries.one(self.order)
            v = next((i for i, c in enumerate(F) if c), None)
            if p < 0 and v != 0:
                raise ValueError("negative power of a series with zero constant term")
            if v is None or p * v > self.order:
                return TruncatedPowerSeries.zero(self.order)
            F, shift = F[v : v + self.order - p * v + 1], p * v
            lead = (F[0] ** p, den**p) if p > 0 else (den**-p, F[0] ** -p)  # f_v^p
        elif F[0] != den:
            raise ValueError("fractional power of a series whose constant term is not 1")
        h = _exp_numerators([p * x for x in _log_numerators(F, F[0])], q)
        scale, den = lead[1] * h[0], q * F[0]  # u^alpha has E_n = h_n / (K! den^n)
        return _reduced([(0, 1)] * shift + [(lead[0] * x, scale * den**n) for n, x in enumerate(h)])

    def __pow__(self, exponent: Scalar) -> "TruncatedPowerSeries":
        return self.pow(exponent)

    # -- composition ---------------------------------------------------------

    def compose(self, inner: "TruncatedPowerSeries") -> "TruncatedPowerSeries":
        """Substitute `inner` (which must have zero constant term) into self.

        Horner's rule on integers: each step reduces the running acc / den
        by gcd(den, *acc), which keeps den the lcm of the reduced denominators.
        """
        g, g_den = inner._ints
        if g[0] != 0:
            raise ValueError("composition requires zero constant term")
        n = min(self.order, inner.order)
        c, c_den = self._ints
        acc, den = [c[n]] + [0] * n, c_den
        for k in range(n - 1, -1, -1):  # acc / den <- acc g / (den g_den) + c_k
            step = lcm(den * g_den, c_den)
            acc = [x * (step // (den * g_den)) for x in _convolve(acc, g, n)]
            acc[0] += c[k] * (step // c_den)
            common = gcd(step, *acc)
            acc, den = [x // common for x in acc], step // common
        return TruncatedPowerSeries._canonical(acc, den)

    def revert(self) -> "TruncatedPowerSeries":
        """Compositional inverse g with f(g(z)) = z, for f0 = 0, f1 != 0.

        Lagrange inversion: g_m = [w^(m-1)] phi^m / m with phi = w / f(w),
        a unit series.  The powers phi^m are built by the series product,
        one per order, each reduced by its gcd, so the whole inverse costs
        O(N^3) (Brent and Kung, "Fast algorithms for manipulating formal
        power series", 1978).

        >>> f = TruncatedPowerSeries([0, 1, 1, 1, 1, 1])   # z/(1-z)
        >>> print(f.revert())
        z - z^2 + z^3 - z^4 + z^5 + O(z^6)
        """
        f, den = self._ints
        if self.order < 1 or f[0] != 0 or f[1] == 0:
            raise ValueError("series not invertible under composition")
        phi = 1 / TruncatedPowerSeries._canonical(f[1:], den)
        powers = (p._ints for p in accumulate(repeat(phi, self.order), mul))  # phi^m = x / d
        return _reduced([(0, 1)] + [(x[m - 1], m * d) for m, (x, d) in enumerate(powers, 1)])


def _reduced(pairs) -> TruncatedPowerSeries:
    """The series of the x / d for (x, d) in pairs, each reduced by its own gcd, then over their lcm.

    `log` and `pow` give x_n / (s D^n) with D the input's own denominator, which on
    an `exp` output grows like n! 6^n.  Over s D^K, the reducing gcd would run on
    K bits(D)-bit integers: `log` of an `exp` output at order 128 got slower.
    `revert` gives x / (m d) for each reduced power phi^m = x / d."""
    pairs = [(x // c, d // c) for x, d in pairs for c in (gcd(x, d),)]
    den = lcm(*(d for _, d in pairs))
    return TruncatedPowerSeries._canonical([x * (den // d) for x, d in pairs], den)


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


def _log_series(m: list[int], den: int = 1) -> TruncatedPowerSeries:
    """The series L with n L_n = m[n] / den^n, as `_log_numerators` gives it, and L_0 = m[0]."""
    return _reduced((x, (n or 1) * den**n) for n, x in enumerate(m))


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
    `_exp_series` divides den and g by their gcd first, to keep h_n short.
    A graded log j f_j = g[j] / (den D^j), as in `pow`, has E_n = h[n] / (K! (den D)^n).
    """
    c, h = [], [factorial(len(g) - 1)]  # c_1 .. c_n, and h_0 .. h_n
    power = 1  # den^(n-1)
    for x in g[1:]:
        c.append(power * x)
        h.append(_exp_step(c, h))
        power *= den
    return h


def _exp_series(g: list[int], den: int) -> TruncatedPowerSeries:
    """exp(f) for f0 = 0 and j f_j = g[j] / den, by `_exp_numerators`."""
    common = gcd(den, *g)  # a log's j f_j has a far smaller denominator than its f_j
    den //= common
    h = _exp_numerators([x // common for x in g], den)  # E_n = h_n / (K! den^n), K! = h_0
    K = len(h) - 1  # over h_0 den^K, unlike `_reduced`: this den is 1 or small in per-tuple evaluation
    return TruncatedPowerSeries._canonical([x * den ** (K - n) for n, x in enumerate(h)], h[0] * den**K)


def _exp_of_combination(terms, order: int) -> TruncatedPowerSeries:
    """exp(sum of weight * log) to `order`, for (weight, log series) pairs.

    The logs are combined coefficientwise, so a product of rational
    powers f1^w1 * f2^w2 * ... costs one exp and no series products.
    """
    terms = [(weight, log.coefficients) for weight, log in terms if weight]
    return TruncatedPowerSeries(
        [sum((w * log[n] for w, log in terms), Fraction(0)) for n in range(order + 1)]
    ).exp()


def _grown_by_prefix(build):
    """Cache a build of series at the largest order requested so far.

    The cached series are prefix-stable: their coefficients up to z^N
    do not change when N grows, so a request at order N returns the
    largest build, of order N at least, and its reader truncates what it
    hands out to order N.
    """
    largest = [(-1, ())]  # one (order, parts) pair, replaced whole

    @wraps(build)
    def grown(N: int) -> tuple[TruncatedPowerSeries, ...]:
        if N > largest[0][0]:
            largest[0] = N, build(N)
        return largest[0][1]

    return grown
