"""The four-parameter Segre engine built on four universal series.

The top Segre numbers of tautological bundles depend on a surface with
a line bundle only through the four intersection numbers

    d = H^2,  pi = H.K,  kappa = K^2,  e = c2(S),

and additivity under disjoint unions forces the generating series into
the multiplicative shape

    s(z) = A(z)^d * B(z)^e * C(z)^pi * D(z)^kappa

for fixed unit series A, B, C, D.  A and B come from the two families
with pi = kappa = 0: the square root of the abelian series (d = 2 case)
and the 24th root of the genus-one K3 series (d = 0, e = 24 case).

C and D are determined order by order from the two vanishing families
on a blown-up K3, the tuples (7(k-1), k-1, -1, 25) and
(7(k-1)+1, k, -1, 25) where the k-th Segre number is zero.

Evaluation is log-linear: s = exp(d log A + e log B + pi log C +
kappa log D), one linear combination of four cached logs and one exp.
The probe-and-solve runs in the same coordinates: the z^k coefficient
of exp(L) is L_k plus a polynomial in lower coefficients, so probing
both targets with log C_k = log D_k = 0 yields two affine equations

    0 = (k-1) log C_k - log D_k + nu,      0 = k log C_k - log D_k + nu',

whose linear part has determinant 1, so log C_k = nu - nu' and
log D_k = (k-1) log C_k + nu exactly.  C and D are exponentiated once
at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .k3 import determine_b_s1
from .series import ExactRational, TruncatedPowerSeries, _exp_of_combination

__all__ = [
    "BlowupTarget",
    "SegreTable",
    "SurfaceInvariants",
    "UniversalSeriesSet",
    "blowup_targets",
    "determine_AB",
    "determine_CD",
    "segre_number",
    "segre_series",
    "universal_series_set",
]

ROUTES = ("closed", "engine", "lehn")


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
            if not isinstance(getattr(self, name), int):
                raise TypeError(f"invariant {name} must be an integer")

    def __add__(self, other: "SurfaceInvariants") -> "SurfaceInvariants":
        """Componentwise sum: the invariants of a disjoint union."""
        return SurfaceInvariants(
            self.d + other.d, self.pi + other.pi, self.kappa + other.kappa, self.e + other.e
        )

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.d, self.pi, self.kappa, self.e)


@dataclass(frozen=True)
class UniversalSeriesSet:
    """The determined unit series A, B, C, D at a common order.

    Their logs are computed on first use and cached per instance.
    """

    A: TruncatedPowerSeries
    B: TruncatedPowerSeries
    C: TruncatedPowerSeries
    D: TruncatedPowerSeries

    def __post_init__(self):
        orders = {s.order for s in (self.A, self.B, self.C, self.D)}
        if len(orders) != 1:
            raise ValueError("A, B, C, D must share one truncation order")
        for name, series in zip("ABCD", (self.A, self.B, self.C, self.D)):
            if series[0] != 1:
                raise ValueError(f"{name} must have constant term 1")
        if self.order >= 1:
            for name, series, linear in zip(
                "ABCD", (self.A, self.B, self.C, self.D), (1, 0, 0, 0)
            ):
                if series[1] != linear:
                    raise ValueError(f"{name} must have linear coefficient {linear}")

    @property
    def order(self) -> int:
        return self.A.order

    @cached_property
    def _logs(self) -> tuple[tuple[Fraction, ...], ...]:
        """log A, log C, log D, log B: the order of `SurfaceInvariants.as_tuple`."""
        return tuple(s.log().coefficients for s in (self.A, self.C, self.D, self.B))


@dataclass(frozen=True)
class BlowupTarget:
    """A vanishing tuple on a K3 blown up at a point.

    The line bundle pulls back the degree-(2g - 2) polarization and
    twists down l times by the exceptional curve, so d = 2g - 2 - l^2
    and pi = l; the constraint g - l(l+1)/2 = 3k - 2 makes the k-th
    Segre number vanish for l = k - 1 and l = k.
    """

    invariants: SurfaceInvariants
    genus: int
    twist: int

    @property
    def section_count(self) -> int:
        """h^0 of the twisted bundle: g + 1 - l(l+1)/2, which equals 3k - 1."""
        return self.genus + 1 - self.twist * (self.twist + 1) // 2


def blowup_targets(k: int) -> tuple[BlowupTarget, BlowupTarget]:
    """The two tuples where the k-th Segre number is forced to vanish."""
    if k < 2:
        raise ValueError("targets defined for k >= 2 only")
    targets = []
    for twist in (k - 1, k):
        genus = 3 * k - 2 + twist * (twist + 1) // 2
        d = 2 * genus - 2 - twist * twist
        targets.append(
            BlowupTarget(SurfaceInvariants(d, twist, -1, 25), genus, twist)
        )
    return tuple(targets)


def determine_AB(N: int) -> tuple[TruncatedPowerSeries, TruncatedPowerSeries]:
    """A and B to order N from the two pi = kappa = 0 families."""
    if N < 0:
        raise ValueError("order must be non-negative")
    seqs = determine_b_s1(N)
    log_abelian = TruncatedPowerSeries(seqs.b).log()
    log_genus_one = TruncatedPowerSeries(seqs.s1).log()
    return (log_abelian * Fraction(1, 2)).exp(), (log_genus_one * Fraction(1, 24)).exp()


def determine_CD(
    N: int, A: TruncatedPowerSeries, B: TruncatedPowerSeries
) -> tuple[TruncatedPowerSeries, TruncatedPowerSeries]:
    """C and D to order N by probe-and-solve against the blow-up targets."""
    if A.order < N or B.order < N:
        raise ValueError("A and B must be determined to order >= N")
    log_a = A.truncate(N).log().coefficients
    log_b = B.truncate(N).log().coefficients
    log_c = [Fraction(0)] * (N + 1)
    log_d = [Fraction(0)] * (N + 1)
    logs = (log_a, log_c, log_d, log_b)  # weights come in as_tuple order
    for k in range(2, N + 1):
        nu, nu_prime = (
            _exp_of_combination(zip(t.invariants.as_tuple(), logs), k)[k]
            for t in blowup_targets(k)
        )
        log_c[k] = nu - nu_prime
        log_d[k] = (k - 1) * log_c[k] + nu
    return TruncatedPowerSeries(log_c).exp(), TruncatedPowerSeries(log_d).exp()


@lru_cache(maxsize=None)
def universal_series_set(N: int) -> UniversalSeriesSet:
    """Determine and cache the full series set at truncation order N."""
    A, B = determine_AB(N)
    C, D = determine_CD(N, A, B)
    return UniversalSeriesSet(A, B, C, D)


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
    if N > U.order:
        raise ValueError("insufficient truncation order")
    return _exp_of_combination(zip(inv.as_tuple(), U._logs), N)


def segre_number(
    inv: SurfaceInvariants,
    k: int,
    U: UniversalSeriesSet,
    table: "SegreTable | None" = None,
) -> ExactRational:
    """The k-th Segre number for `inv`; optionally recorded with route "engine"."""
    if k > U.order:
        raise ValueError("insufficient truncation order")
    value = segre_series(inv, k, U)[k]
    if table is not None:
        table.record(inv, k, value, "engine")
    return value


class SegreTable:
    """Computed Segre numbers keyed by (invariants, k) with route labels.

    The table only stores what it is given; agreement between routes is
    checked by `discrepancies`, not enforced on insertion.
    """

    def __init__(self):
        self._entries: dict[tuple[SurfaceInvariants, int], dict[str, Fraction]] = {}

    def record(
        self, inv: SurfaceInvariants, k: int, value, route: str
    ) -> ExactRational:
        if route not in ROUTES:
            raise ValueError(f"unknown route {route!r}")
        exact = Fraction(value)
        self._entries.setdefault((inv, k), {})[route] = exact
        return exact

    def get(self, inv: SurfaceInvariants, k: int, route: str) -> ExactRational:
        return self._entries[(inv, k)][route]

    def routes(self, inv: SurfaceInvariants, k: int) -> dict[str, Fraction]:
        return dict(self._entries.get((inv, k), {}))

    def discrepancies(
        self,
    ) -> list[tuple[SurfaceInvariants, int, dict[str, Fraction]]]:
        """Keys whose recorded routes disagree, in insertion order."""
        found = []
        for (inv, k), values in self._entries.items():
            if len(set(values.values())) > 1:
                found.append((inv, k, dict(values)))
        return found

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.items())
