"""The four-parameter Segre engine built on four universal series.

The top Segre numbers of tautological bundles depend on a surface with
a line bundle only through the four intersection numbers

    d = H^2,  pi = H.K,  kappa = K^2,  e = c2(S),

and additivity under disjoint unions forces the generating series into
the multiplicative shape

    s(z) = A(z)^d * B(z)^e * C(z)^pi * D(z)^kappa

for fixed unit series A, B, C, D.  Evaluation is log-linear: s =
exp(d log A + e log B + pi log C + kappa log D), one exp of a linear
combination of four cached logs; run on the variables themselves, the
exp kernel gives s_k as one polynomial (`segre_polynomial`).

The logs come from one probe-and-solve on two vanishing families.  The
z^k coefficient of exp(L) is L_k plus a polynomial in lower ones, so
the values at two targets with the unknown k-th log coefficients set to
0 yield a 2 x 2 affine system; the exp kernel probes the first target,
and the second, at a fixed offset delta, is that probe times exp(delta . log):

- the K3 family (2g - 2, 0, 0, 24), at a pair of genera where the closed
  formula vanishes (`_k3_vanishings`), fixes log A_k and log B_k
  (determinant 48, delta = (-2, 0, 0, 0));
- the blown-up K3 tuples (7(k-1), k-1, -1, 25) and (7(k-1)+1, k, -1, 25),
  the two `SurfaceInvariants` that `blowup_targets(k)` returns, fix
  log C_k and log D_k (determinant 1, delta = (1, 1, 0, 0)).

The solve starts from the seed log A = z + O(z^2), the other logs being
O(z^2).  It runs on the integers j log_j and the exp kernel step of
`series` (the probe and the twin series over k! at step k, each grown
while its weights hold, its z^k step corrected in place once the
unknowns are solved), and solves each 2 x 2 step by one exact integer
division, which raises if j log_j is not an integer.  The rows become
the four logs and A, C, D, B through `series._log_series` and
`series._exp_series`, the one way each from log and from exp numerators
to a series; the eight are kept at the largest order requested so far,
and `universal_series_set(N)` and its views read them with no exp, cut
to order N.  The solve and its log layout are private: other modules
read the engine through `universal_series_set` and `segre_series`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as product_of
from math import factorial, lcm
from operator import add, mul

from .series import TruncatedPowerSeries, _exp_of_combination, _exp_numerators, _exp_series
from .series import _exp_step, _grown_by_prefix, _log_series

__all__ = [
    "SurfaceInvariants",
    "UNIT_TUPLES",
    "UniversalSeriesSet",
    "blowup_targets",
    "determine_AB",
    "determine_CD",
    "segre_number",
    "segre_polynomial",
    "segre_series",
    "universal_series_set",
]

@dataclass(frozen=True)
class SurfaceInvariants:
    """The tuple (d, pi, kappa, e) of intersection numbers.

    Any integers are accepted; tuples that no actual surface realizes
    are treated as formal inputs and still produce exact values.
    """

    d: int
    pi: int
    kappa: int
    e: int

    def __post_init__(self):
        for name in ("d", "pi", "kappa", "e"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"invariant {name} must be an integer")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.d, self.pi, self.kappa, self.e)


#: The tuple at which A^d B^e C^pi D^kappa is one series alone.  The key
#: order is the log layout: log A, log C, log D, log B, as in `as_tuple`.
UNIT_TUPLES = {
    "A": SurfaceInvariants(1, 0, 0, 0),
    "C": SurfaceInvariants(0, 1, 0, 0),
    "D": SurfaceInvariants(0, 0, 1, 0),
    "B": SurfaceInvariants(0, 0, 0, 1),
}


@dataclass(frozen=True)
class UniversalSeriesSet:
    """The determined unit series A, B, C, D at a common order.

    A set from `universal_series_set` carries the logs it was
    exponentiated from; any other set takes its logs on first use and
    caches them per instance.
    """

    A: TruncatedPowerSeries
    B: TruncatedPowerSeries
    C: TruncatedPowerSeries
    D: TruncatedPowerSeries

    def __post_init__(self):
        orders = {s.order for s in (self.A, self.B, self.C, self.D)}
        if len(orders) != 1:
            raise ValueError("A, B, C, D must share one truncation order")
        for name, series, linear in zip("ABCD", (self.A, self.B, self.C, self.D), (1, 0, 0, 0)):
            if series[0] != 1:
                raise ValueError(f"{name} must have constant term 1")
            if self.order >= 1 and series[1] != linear:
                raise ValueError(f"{name} must have linear coefficient {linear}")

    @property
    def order(self) -> int:
        return self.A.order

    @cached_property
    def _logs(self) -> tuple[TruncatedPowerSeries, ...]:
        """The logs of the series in the order of `UNIT_TUPLES`."""
        return tuple(getattr(self, name).log() for name in UNIT_TUPLES)


def blowup_targets(k: int) -> tuple[SurfaceInvariants, SurfaceInvariants]:
    """The two tuples where the k-th Segre number is forced to vanish.

    Each is a K3 blown up at a point.  The line bundle pulls back the
    degree-(2g - 2) polarization and twists down l times by the
    exceptional curve, so d = 2g - 2 - l^2 and pi = l; the constraint
    g - l(l+1)/2 = 3k - 2 makes the k-th Segre number vanish for
    l = k - 1 and l = k.  Together they give d = 6k - 6 + l.
    """
    if k < 2:
        raise ValueError("targets defined for k >= 2 only")
    return tuple(SurfaceInvariants(*target) for target in _blowup_vanishings(k))


def _k3_vanishings(k: int) -> tuple[tuple[int, ...], ...]:
    """The K3 tuples (2g - 2, 0, 0, 24) of genera 2K and 2K - 1 for the window of k.

    The closed formula s(k, g) = 2^k C(g - 2k + 1, k) is zero for
    2k - 1 <= g <= 3k - 2.  The windows [lo, K], K = (3 lo - 2) // 2, are
    [2, 2], [3, 3], [4, 5], [6, 8], [9, 12], ...; K >= k and
    2K <= 3 lo - 2 <= 3k - 2 keep both genera in the range for the whole
    window, so the solve rebuilds its probe once per window.
    """
    lo = 2
    while (top := (3 * lo - 2) // 2) < k:
        lo = top + 1
    return (4 * top - 2, 0, 0, 24), (4 * top - 4, 0, 0, 24)


def _blowup_vanishings(k: int) -> tuple[tuple[int, ...], ...]:
    """The tuples of `blowup_targets(k)`, twists l = k - 1 and l = k, as plain integers."""
    return (7 * k - 7, k - 1, -1, 25), (7 * k - 6, k, -1, 25)


def _probe_and_solve(G, slots: tuple[int, int], vanishings, N: int) -> None:
    """Solve the k-th coefficients of two logs from two vanishings, k = 2 .. N.

    G[i][j] is the integer j log_j, for log i in the order of `UNIT_TUPLES`.
    Fills G[i][k] and G[j][k], (i, j) = `slots`, so that exp(sum of
    weight * log) has z^k coefficient 0 at both tuples w, v of
    `vanishings(k)`.  The unknown entries start at 0, so a probe reads the
    constant part nu of its equation.  Two series are kept, each over k!
    at step k: the probe exp(L_w) and its twin M = exp((v - w) . log),
    with exp(L_v) = exp(L_w) M.  Each is rebuilt only when its weights
    change; otherwise it is scaled by k and grown by one `_exp_step` per
    order.  nu_v is one dot product of the two numerator rows, divided
    exactly by k!.  Cramer's rule then gives each k log_k as
    num / (det k!), one `divmod`; a remainder means the family has no
    integer solution, and raises `ArithmeticError`.  Each series' step at
    k read the unknowns as 0.  They enter only its kernel weight c_k, by
    delta = t_i G[i][k] + t_j G[j][k] for its weights t, and
    k h_k = sum_n c_n h_(k-n) is linear in c_k with coefficient h_0 = k!,
    so c_k += delta and h_k += delta h_0 / k correct the step in place,
    exactly; nothing above z^k has been built yet.
    """
    i, j = slots
    grown = [(None, [], [])] * 2  # probe and twin: weights, kernel weights c, numerators h
    for k in range(2, N + 1):
        w, v = vanishings(k)
        weights = (w, tuple(b - a for a, b in zip(w, v)))
        grown = [
            (t, c, [x * k for x in h]) if old == t else (t, [], [factorial(k)])
            for (old, c, h), t in zip(grown, weights)
        ]
        for t, c, h in grown:
            new = [0] * (k + 1 - len(h))  # c_n for n = len(h) .. k, one row at a time
            for x, row in zip(t, G):
                if x:
                    new = [a + x * y for a, y in zip(new, row[len(h) :])]
            for x in new:
                c.append(x)
                h.append(_exp_step(c, h))
        (_, _, p), (_, _, m) = grown
        e_k, e_v = p[k], sum(map(mul, p, reversed(m))) // m[0]  # nu, nu_v over k!
        d = (w[i] * v[j] - w[j] * v[i]) * m[0]
        for slot, a, b in ((i, w[j], v[j]), (j, -w[i], -v[i])):
            G[slot][k], r = divmod(k * (a * e_v - b * e_k), d)
            if r:
                raise ArithmeticError(f"log {list(UNIT_TUPLES)[slot]}: {k} log_{k} is fractional")
        for t, c, h in grown:
            delta = t[i] * G[i][k] + t[j] * G[j][k]
            c[k - 1] += delta
            h[k] += delta * h[0] // k


@_grown_by_prefix
def _universal_logs(N: int) -> tuple[TruncatedPowerSeries, ...]:
    """log A, log C, log D, log B to order N from the seeds and both families, then A, C, D, B."""
    G = [[0] * (N + 1) for _ in range(4)]
    if N >= 1:
        G[0][1] = 1  # log A = z + O(z^2)
    _probe_and_solve(G, (0, 3), _k3_vanishings, N)
    _probe_and_solve(G, (1, 2), _blowup_vanishings, N)
    return (*map(_log_series, G), *(_exp_series(row, 1) for row in G))


def determine_AB(N: int) -> tuple[TruncatedPowerSeries, TruncatedPowerSeries]:
    """A and B to order N, fixed by the K3 vanishings: a view of `universal_series_set(N)`."""
    U = universal_series_set(N)
    return U.A, U.B


def determine_CD(N: int) -> tuple[TruncatedPowerSeries, TruncatedPowerSeries]:
    """C and D to order N, fixed by the blow-up targets: a view of `universal_series_set(N)`."""
    U = universal_series_set(N)
    return U.C, U.D


def universal_series_set(N: int) -> UniversalSeriesSet:
    """The series set at truncation order N, read with its logs from the solve's cache."""
    if N < 0:
        raise ValueError("order must be non-negative")
    parts = tuple(part.truncate(N) for part in _universal_logs(N))
    U = UniversalSeriesSet(**dict(zip(UNIT_TUPLES, parts[4:])))
    vars(U)["_logs"] = parts[:4]
    return U


def segre_series(
    inv: SurfaceInvariants, N: int, U: UniversalSeriesSet
) -> TruncatedPowerSeries:
    """The generating series A^d B^e C^pi D^kappa truncated at order N.

    Evaluated as exp(d log A + e log B + pi log C + kappa log D), which
    is the product of the powers exactly:

    >>> U = universal_series_set(4)
    >>> inv = SurfaceInvariants(d=-3, pi=2, kappa=-1, e=5)
    >>> segre_series(inv, 4, U) == U.A**-3 * U.B**5 * U.C**2 * U.D**-1
    True
    """
    if N < 0:
        raise ValueError("order must be non-negative")
    if N > U.order:
        raise ValueError("insufficient truncation order")
    return _exp_of_combination(zip(inv.as_tuple(), U._logs), N)


def segre_number(inv: SurfaceInvariants, k: int, U: UniversalSeriesSet) -> Fraction:
    """The k-th Segre number for `inv` through the engine."""
    return segre_series(inv, k, U)[k]


class _Polynomial(dict):
    """An integer polynomial in (d, pi, kappa, e), exponents -> coefficient: the ring `_exp_step` needs."""

    def __add__(self, other):  # or the 0 that `sum` starts from
        other = other or {}
        return _Polynomial({m: self.get(m, 0) + other.get(m, 0) for m in {**self, **other}})

    def __mul__(self, other):
        if isinstance(other, int):
            return _Polynomial({m: a * other for m, a in self.items()})
        product = _Polynomial()
        for (m, a), (n, b) in product_of(self.items(), other.items()):
            key = tuple(map(add, m, n))
            product[key] = product.get(key, 0) + a * b
        return product

    def __floordiv__(self, n: int):
        return _Polynomial({m: a // n for m, a in self.items()})

    __radd__, __rmul__ = __add__, __mul__


def segre_polynomial(k: int, U: UniversalSeriesSet) -> dict[tuple[int, int, int, int], Fraction]:
    """s_k as a polynomial P_k(d, pi, kappa, e): exponents -> nonzero coefficient.

    The exp kernel runs on polynomial weights j f_j = sum_i x_i (j log_(i,j)),
    over the common denominator den of the j log_(i,j) (1 for a solved set).
    """
    if k < 0:
        raise ValueError("order must be non-negative")
    if k > U.order:
        raise ValueError("insufficient truncation order")
    rows = [[j * c for j, c in enumerate(log.coefficients[: k + 1])] for log in U._logs]
    den = lcm(*(c.denominator for row in rows for c in row))
    units = [x.as_tuple() for x in UNIT_TUPLES.values()]  # log i weighs the variable x_i
    g = [_Polynomial({x: int(c * den) for x, c in zip(units, column) if c}) for column in zip(*rows)]
    h = _exp_numerators(g, den)  # P_k = h_k / (k! den^k), and h_0 = k! is an int
    return {m: Fraction(a, h[0] * den**k) for m, a in (_Polynomial({(0,) * 4: 1}) * h[k]).items() if a}
