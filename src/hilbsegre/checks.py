"""The cross-validation checks, one registry for the CLI and the tests.

Each check is `check(U, order, max_k) -> list[Outcome]`, one `Outcome`
per verdict line: U is the engine's series set, `order` the order of
the series comparisons, `max_k` the largest index of the K3 and
vanishing checks.  `REGISTRY` is in report order.  The library is
called through its modules (`k3.closed_segre`), so what runs is what the
module attribute holds, such as a tracing wrapper or an injected fault.
s5-polynomial (126 simplex tuples), closed-vs-recursion (max_k + 1 or
more genera, and two for Lehn), engine-vs-lehn-grid (the zero and unit
tuples) and degenerate-family (kappa = 1) prove their identities rather
than sample them; their docstrings give the argument.  Every value in a
report goes through `format_rational`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps

from . import k3, lehn, series, universal


@dataclass(frozen=True)
class Outcome:
    """One verdict line of the report, with its first counterexample."""

    name: str
    ok: bool
    counterexample: str = ""
    values: str = ""  # printed between the name and the verdict

    def line(self) -> str:
        verdict = "PASS" if self.ok else f"FAIL (first counterexample: {self.counterexample})"
        return f"{self.name}: {self.values} {verdict}" if self.values else f"{self.name}: {verdict}"


def _single(name: str):
    """Make a one-line check from a function returning its first counterexample or None."""

    def decorate(find):
        @wraps(find)
        def check(U, order: int, max_k: int) -> list[Outcome]:
            counterexample = find(U, order, max_k)
            return [Outcome(name, counterexample is None, counterexample or "")]
        return check
    return decorate


def _fmt(inv: universal.SurfaceInvariants) -> str:
    return f"(d,pi,kappa,e)=({inv.d},{inv.pi},{inv.kappa},{inv.e})"


def _str(value) -> str:
    """An exact value as "p/q" of any size (`str` refuses past 4,300 digits), None as "None"."""
    return "None" if value is None else series.format_rational(value)


_EXPONENT_PAIRS = (
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 3), Fraction(2, 3)),
    (Fraction(-1), Fraction(2)),
    (Fraction(5, 2), Fraction(-3, 2)),
)


@_single("kernel-roundtrips")
def kernel_roundtrips(U, order: int, max_k: int):
    """exp/log, pow additivity and reversion on 50 seeded series of orders 2..order."""
    Series = series.TruncatedPowerSeries
    rng = random.Random(58123)
    for i in range(50):
        n = rng.randint(2, max(2, order))
        tail = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
        unit = Series([Fraction(1)] + tail)
        if unit.log().exp() != unit:
            return f"exp(log f) != f for random unit series #{i}"
        for alpha, beta in _EXPONENT_PAIRS:
            product = unit.pow(alpha) * unit.pow(beta)
            if product != unit.pow(alpha + beta):
                return f"pow additivity failed for series #{i} at ({alpha},{beta})"
        zero_const = Series([Fraction(0)] + tail)
        if zero_const.exp().log() != zero_const:
            return f"log(exp g) != g for random series #{i}"
        linear = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
        rest = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n - 1)]
        invertible = Series([Fraction(0), linear] + rest)
        identity = Series.identity(n)
        inverse = invertible.revert()
        roundtrips = (invertible.compose(inverse), inverse.compose(invertible))
        if any(roundtrip != identity for roundtrip in roundtrips):
            return f"reversion roundtrip failed for series #{i}"


@_single("closed-vs-recursion")
def closed_vs_recursion(U, order: int, max_k: int):
    """The genus columns of the engine and of Lehn equal the closed formula to index max_k.

    The engine's genus-g K3 series is b^(g-1) s1: its columns are s1
    and then b times the column before, compared for 1 <= g <= G =
    max(30, max_k + 1).  Coefficient k of both sides is a polynomial of
    degree at most k in g, so agreement at max_k + 1 genera is agreement
    at every g.

    Lehn's series L_g at the K3 tuple (2g - 2, 0, 0, 24) is compared at
    g = 1 and 2 only, closed against Lehn with no engine in between.
    That decides every g: L_g is exp of a form linear in the tuple, so
    L_g = L_1 (L_2 / L_1)^(g-1), and b-vs-bprime certifies
    S_g = S_1 b'^(g-1) for the closed series, so S_2 / S_1 = b'.
    """

    def columns():
        b, column = k3.determine_b_s1(max_k)
        yield "recursion", 1, column
        for g in range(2, max(30, max_k + 1) + 1):
            column = b * column
            yield "recursion", g, column
        for g in (1, 2):
            yield "lehn", g, lehn.lehn_series(universal.SurfaceInvariants(2 * g - 2, 0, 0, 24), max_k)

    for route, g, column in columns():
        closed = [k3.closed_segre(k, g) for k in range(max_k + 1)]
        if list(column) != closed:
            k = next(k for k, (x, y) in enumerate(zip(column, closed)) if x != y)
            return f"k={k}, g={g}: {route} {_str(column[k])} vs closed {_str(closed[k])}"


@_single("pascal-identity")
def pascal_identity(U, order: int, max_k: int):
    """2 s(k-1, g-3) = s(k, g) - s(k, g-1) for 1 <= k <= max_k and |g| <= 40."""
    closed = k3.closed_segre
    for k in range(1, max_k + 1):
        for g in range(-40, 41):
            lhs = 2 * closed(k - 1, g - 3)
            rhs = closed(k, g) - closed(k, g - 1)
            if lhs != rhs:
                return f"k={k}, g={g}: {_str(lhs)} vs {_str(rhs)}"


@_single("b-vs-bprime")
def b_vs_bprime(U, order: int, max_k: int):
    """The engine's kernel b = A^2 equals the certified quotient b' to index max_k."""
    try:
        b_prime = k3.determine_b_prime(max_k)
    except ArithmeticError as failed_certificate:
        return str(failed_certificate)
    pairs = itertools.zip_longest(k3.determine_b_s1(max_k)[0], b_prime)
    for l, (x, y) in enumerate(pairs):
        if x != y:
            return f"index {l}: b={_str(x)} vs b'={_str(y)}"


@_single("engine-vs-lehn-grid")
def engine_vs_lehn_grid(U, order: int, max_k: int):
    """Engine and Lehn series agree to `order` at the zero tuple and the four unit tuples.

    That is agreement at every tuple: each route is exp of a form linear
    in x, the engine's weights being x and Lehn's exponents (a, b, -c)
    linear in x, so both are determined by their values at 0 and the units.
    """
    for inv in (universal.SurfaceInvariants(0, 0, 0, 0), *universal.UNIT_TUPLES.values()):
        engine = universal.segre_series(inv, order, U)
        oracle = lehn.lehn_series(inv, order)
        if engine != oracle:
            k = next(k for k, (x, y) in enumerate(zip(engine, oracle)) if x != y)
            return f"{_fmt(inv)}, k={k}: engine {_str(engine[k])} vs lehn {_str(oracle[k])}"


def lehn_vanishing(U, order: int, max_k: int) -> list[Outcome]:
    """One line per k = 2..max_k: the Lehn route vanishes at both blow-up tuples."""
    outcomes = []
    report = lehn.verify_lehn_vanishings(max_k)
    for k, batch in itertools.groupby(report, key=lambda entry: entry[0]):
        batch = list(batch)
        values = ", ".join(_str(c) for _, _, c in batch)
        first = next((f"{_fmt(inv)} -> {_str(c)}" for _, inv, c in batch if c != 0), None)
        outcomes.append(Outcome(f"lehn-vanishing k={k}", first is None, first or "", values))
    return outcomes


#: The 126 tuples (d, pi, kappa, e) with non-negative entries summing to at most 5.
_S5_SIMPLEX = tuple(x for x in itertools.product(range(6), repeat=4) if sum(x) <= 5)


@_single("s5-polynomial")
def s5_polynomial(U, order: int, max_k: int):
    """The published s_5 polynomial vanishes at the k = 5 targets and equals the engine's.

    The equality is proved, not sampled.  Both sides are polynomials of
    total degree at most 5 in (d, pi, kappa, e) for any U: the engine's
    s_5 is the z^5 coefficient of exp(d log A + e log B + pi log C +
    kappa log D), and the logs of unit series have no constant term.
    Newton's forward-difference formula
    p(x) = sum_{|alpha| <= 5} Delta^alpha p(0) prod_i C(x_i, alpha_i)
    reads such a polynomial from its values on the simplex x >= 0,
    sum x <= 5, so agreement on its 126 points is agreement everywhere.
    """
    for target in universal.blowup_targets(5):
        value = lehn.eval_s5_polynomial(target)
        if value != 0:
            return f"nonzero at {_fmt(target)}: {_str(value)}"
    differing = []
    for inv in itertools.starmap(universal.SurfaceInvariants, _S5_SIMPLEX):
        polynomial, engine = lehn.eval_s5_polynomial(inv), universal.segre_number(inv, 5, U)
        if polynomial != engine:
            differing.append(f"{_fmt(inv)}: polynomial {_str(polynomial)} vs engine {_str(engine)}")
    if differing:
        return f"{differing[0]}; {len(differing)} of {len(_S5_SIMPLEX)} simplex tuples differ"


@_single("degenerate-family")
def degenerate_family(U, order: int, max_k: int):
    """Both routes give s_k = 0 for k = 1..order on (0, 2 kappa, kappa, 11 kappa), every kappa.

    Checking kappa = 1 is enough: each route is exp of a form linear in
    the tuple, so its series at kappa x is its series at x to the power kappa.
    """
    inv = universal.SurfaceInvariants(0, 2, 1, 11)
    engine = universal.segre_series(inv, order, U)
    oracle = lehn.lehn_series(inv, order)
    for k in range(1, order + 1):
        if engine[k] != 0:
            return f"engine nonzero at {_fmt(inv)}, k={k}: {_str(engine[k])}"
        if oracle[k] != 0:
            return f"lehn nonzero at {_fmt(inv)}, k={k}: {_str(oracle[k])}"


REGISTRY = (
    kernel_roundtrips, closed_vs_recursion, pascal_identity, b_vs_bprime,
    engine_vs_lehn_grid, lehn_vanishing, s5_polynomial, degenerate_family,
)
