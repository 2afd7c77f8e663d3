"""Negative controls for the verification registry, and its coverage guard.

Each control replaces one ingredient through its module attribute, so
it also shows that the checks call the library through its modules,
and asserts that the check fails with the expected first counterexample.
A table adds one fault per component of the three routes, each of which
must make a named registry check FAIL.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from hilbsegre import SurfaceInvariants, TruncatedPowerSeries, checks, cli, k3, lehn, universal
from hilbsegre import format_rational, universal_series_set
from hilbsegre.universal import UNIT_TUPLES
from tests import test_acceptance


def _bumped_at(fn, *at):
    """`fn` plus one on exactly the arguments `at`."""
    return lambda *args: fn(*args) + (args == at)


def _single_failure(check, U, order, max_k):
    [outcome] = check(U, order, max_k)
    assert not outcome.ok
    return outcome.counterexample


def test_kernel_roundtrips_catches_a_perturbed_reversion(monkeypatch):
    revert = TruncatedPowerSeries.revert

    def perturbed(self):
        coefficients = list(revert(self).coefficients)
        coefficients[-1] += 1
        return TruncatedPowerSeries(coefficients)

    monkeypatch.setattr(TruncatedPowerSeries, "revert", perturbed)
    counterexample = _single_failure(checks.kernel_roundtrips, None, 4, 2)
    assert counterexample == "reversion roundtrip failed for series #0"


def test_closed_vs_recursion_catches_a_wrong_closed_value(monkeypatch):
    monkeypatch.setattr(k3, "closed_segre", _bumped_at(k3.closed_segre, 3, 7))
    counterexample = _single_failure(checks.closed_vs_recursion, None, 0, 3)
    assert counterexample.startswith("k=3, g=7: recursion ")


def test_closed_vs_recursion_checks_max_k_plus_one_genera(monkeypatch):
    # past max_k = 29 the check reads genera up to max_k + 1, not 30: row k is a
    # polynomial of degree <= k in g, and max_k + 1 genera prove it for every g
    monkeypatch.setattr(k3, "closed_segre", _bumped_at(k3.closed_segre, 31, 31))
    counterexample = _single_failure(checks.closed_vs_recursion, None, 0, 31)
    assert counterexample.startswith("k=31, g=31: recursion ")


def test_closed_vs_recursion_catches_a_wrong_lehn_series_at_genus_two(monkeypatch):
    # the engine's columns still agree; only the closed-against-Lehn side of the triangle sees it
    monkeypatch.setattr(lehn, "lehn_series", _bumped_at(lehn.lehn_series, SurfaceInvariants(2, 0, 0, 24), 3))
    counterexample = _single_failure(checks.closed_vs_recursion, None, 0, 3)
    assert counterexample == "k=0, g=2: lehn 2 vs closed 1"


def test_closed_vs_recursion_reads_lehn_only_at_the_k3_genera_one_and_two(monkeypatch):
    # Lehn's series is exp of a form linear in the tuple, so genera 1 and 2 decide every g
    calls, series = [], lehn.lehn_series
    monkeypatch.setattr(lehn, "lehn_series", lambda inv, order: calls.append(inv) or series(inv, order))
    [outcome] = checks.closed_vs_recursion(None, 0, 4)
    assert outcome.ok
    assert calls == [SurfaceInvariants(0, 0, 0, 24), SurfaceInvariants(2, 0, 0, 24)]


def test_pascal_identity_catches_a_wrong_closed_value(monkeypatch):
    monkeypatch.setattr(k3, "closed_segre", _bumped_at(k3.closed_segre, 3, 7))
    assert _single_failure(checks.pascal_identity, None, 0, 3).startswith("k=3, g=7: ")


def test_k3_checks_print_a_counterexample_past_the_int_digit_limit(monkeypatch):
    # str(int) refuses more than 4,300 digits since Python 3.10.7; a FAIL line does not
    bump = 10**5000
    closed = k3.closed_segre
    monkeypatch.setattr(k3, "closed_segre", lambda k, g: closed(k, g) + bump * ((k, g) == (3, 7)))
    for check in (checks.closed_vs_recursion, checks.pascal_identity):
        counterexample = _single_failure(check, None, 0, 3)
        assert counterexample.startswith("k=3, g=7: ")
        assert format_rational(closed(3, 7) + bump) in counterexample


def test_b_vs_bprime_catches_a_bumped_kernel_entry(monkeypatch):
    b_prime = k3.determine_b_prime
    monkeypatch.setattr(
        k3, "determine_b_prime", lambda K: tuple(x + (l == 4) for l, x in enumerate(b_prime(K)))
    )
    assert _single_failure(checks.b_vs_bprime, None, 0, 5).startswith("index 4: b=")


def test_verify_reports_a_failed_b_prime_certificate(monkeypatch, capsys):
    # a wrong closed value at (K, K + 1) fails the certificate of b' = S_1 / S_0;
    # the check reports it, and the rest of the report still runs
    monkeypatch.setattr(k3, "closed_segre", _bumped_at(k3.closed_segre, 8, 9))
    assert _single_failure(checks.b_vs_bprime, None, 0, 8).startswith("g=9: ")
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "b-vs-bprime: FAIL (first counterexample: g=9: b' S_(g-1) != S_g)" in lines
    assert lines[-1] == "verify: 11/14 checks passed"


def test_engine_vs_lehn_grid_catches_one_wrong_lehn_series(monkeypatch):
    inv = UNIT_TUPLES["C"]
    monkeypatch.setattr(lehn, "lehn_series", _bumped_at(lehn.lehn_series, inv, 2))
    counterexample = _single_failure(checks.engine_vs_lehn_grid, universal_series_set(5), 2, 2)
    assert counterexample == "(d,pi,kappa,e)=(0,1,0,0), k=0: engine 1 vs lehn 2"


def test_engine_vs_lehn_grid_catches_an_exponent_fault_that_vanishes_at_e_0_12_24(monkeypatch):
    # the slip is zero at e = 0, 12 and 24, so only a tuple with another e, here the unit B, sees it
    exponents = lehn.lehn_exponents

    def slipped(inv):
        exps = exponents(inv)
        return replace(exps, b=exps.b + inv.e * (inv.e - 12) * (inv.e - 24))

    monkeypatch.setattr(lehn, "lehn_exponents", slipped)
    counterexample = _single_failure(checks.engine_vs_lehn_grid, universal_series_set(5), 4, 2)
    assert counterexample == "(d,pi,kappa,e)=(0,0,0,1), k=1: engine 0 vs lehn -506"


@pytest.mark.parametrize(
    ("check", "tuples"),
    [
        (checks.engine_vs_lehn_grid, [SurfaceInvariants(0, 0, 0, 0), *UNIT_TUPLES.values()]),
        (checks.degenerate_family, [SurfaceInvariants(0, 2, 1, 11)]),
    ],
    ids=["engine-vs-lehn-grid", "degenerate-family"],
)
def test_cross_route_checks_evaluate_each_route_only_at_the_deciding_tuples(monkeypatch, check, tuples):
    # both routes are exp of a form linear in the tuple, so these tuples decide each check
    calls = {"engine": [], "lehn": []}
    for module, name, route in ((universal, "segre_series", "engine"), (lehn, "lehn_series", "lehn")):

        def spy(inv, order, *rest, fn=getattr(module, name), route=route):
            calls[route].append(inv)
            return fn(inv, order, *rest)

        monkeypatch.setattr(module, name, spy)
    [outcome] = check(universal_series_set(5), 4, 2)
    assert outcome.ok
    assert calls == {"engine": tuples, "lehn": tuples}


def test_lehn_vanishing_catches_a_nonzero_coefficient(monkeypatch):
    report = lehn.verify_lehn_vanishings
    monkeypatch.setattr(
        lehn,
        "verify_lehn_vanishings",
        lambda max_k: tuple((k, inv, c + (k == 3)) for k, inv, c in report(max_k)),
    )
    outcomes = checks.lehn_vanishing(None, 0, 4)
    assert [outcome.ok for outcome in outcomes] == [True, False, True]
    assert outcomes[1].line() == (
        "lehn-vanishing k=3: 1, 1 FAIL (first counterexample: (d,pi,kappa,e)=(14,2,-1,25) -> 1)"
    )


def test_s5_polynomial_catches_a_shifted_polynomial(monkeypatch):
    polynomial = lehn.eval_s5_polynomial
    monkeypatch.setattr(lehn, "eval_s5_polynomial", lambda inv: polynomial(inv) + 1)
    counterexample = _single_failure(checks.s5_polynomial, universal_series_set(5), 5, 2)
    assert counterexample == "nonzero at (d,pi,kappa,e)=(28,4,-1,25): 1"


def test_s5_polynomial_catches_every_fault_that_vanishes_at_the_targets(monkeypatch):
    # (kappa + 1) m / 120 is zero at both targets (kappa = -1) for each monomial m
    # of degree <= 4, so only the simplex can see it; on the simplex kappa + 1 > 0,
    # so the tuples that differ are those where m is nonzero
    polynomial, U = lehn.eval_s5_polynomial, universal_series_set(5)
    monomials = [m for m in itertools.product(range(5), repeat=4) if sum(m) <= 4]
    assert len(monomials) == 70
    for m in monomials:

        def shifted(inv, m=m):
            x = inv.as_tuple()
            return polynomial(inv) + Fraction((inv.kappa + 1) * math.prod(map(pow, x, m)), 120)

        monkeypatch.setattr(lehn, "eval_s5_polynomial", shifted)
        support = tuple(int(a > 0) for a in m)
        differing = sum(all(xi >= si for xi, si in zip(x, support)) for x in checks._S5_SIMPLEX)
        counterexample = _single_failure(checks.s5_polynomial, U, 5, 2)
        assert counterexample.startswith(f"(d,pi,kappa,e)=({','.join(map(str, support))}): "), m
        assert counterexample.endswith(f"; {differing} of 126 simplex tuples differ"), m


def test_degenerate_family_catches_the_d2_fault():
    U = universal_series_set(5)
    coefficients = list(U.D.coefficients)
    coefficients[2] += 1
    faulty = replace(U, D=TruncatedPowerSeries(coefficients))
    counterexample = _single_failure(checks.degenerate_family, faulty, 4, 2)
    assert counterexample == "engine nonzero at (d,pi,kappa,e)=(0,2,1,11), k=2: 1"


# -- one fault per component --------------------------------------------------------


def _bumped(values, index):
    return tuple(x + (n == index) for n, x in enumerate(values))


def _fault_in_log(name):
    """The engine's log of series `name`, one too large at z^2, and the series its exp."""

    def install(monkeypatch):
        solve, slot = universal._universal_logs, list(UNIT_TUPLES).index(name)

        def faulty(N):
            parts = list(solve(N))
            parts[slot] = _bumped(parts[slot], 2)
            parts[4 + slot] = TruncatedPowerSeries(parts[slot]).exp().coefficients
            return tuple(parts)

        monkeypatch.setattr(universal, "_universal_logs", faulty)

    return install


def _fault_in_blowup_targets(monkeypatch):
    # C and D solved, without the cache, against targets with e = 26 for 25
    vanishings = universal._blowup_vanishings
    monkeypatch.setattr(universal, "_universal_logs", universal._universal_logs.__wrapped__)
    monkeypatch.setattr(
        universal,
        "_blowup_vanishings",
        lambda k: tuple((d, p, q, e + 1) for d, p, q, e in vanishings(k)),
    )


def _fault_in_b(monkeypatch):
    determine = k3.determine_b_s1

    def bumped(K):
        b, s1 = determine(K)
        return TruncatedPowerSeries(_bumped(b, 3)), s1

    monkeypatch.setattr(k3, "determine_b_s1", bumped)


def _fault_in_w(monkeypatch):
    # a fresh build of the substitution with w(z) bumped before the three logs,
    # and the four unit series exp(u . (l1, l2, l3) / 12) from them, are taken
    build = lehn._substitution.__wrapped__

    def substitution(N):
        zw, wz, *_ = build(N)
        w = TruncatedPowerSeries(_bumped(wz, 2))
        logs = [f.log() for f in (1 - w, 1 - 2 * w, 1 - 6 * w + 6 * w * w)]
        units = [(sum(x * l for x, l in zip(u, logs)) / 12).exp() for u in lehn._UNIT_WEIGHTS.values()]
        return (zw, w.coefficients, *(f.coefficients for f in logs + units))

    monkeypatch.setattr(lehn, "_substitution", substitution)


def _fault_in_substitution_polynomial(monkeypatch):
    # the y^3 coefficient of (1 - 6y)^3 one too large (-215 for -216), in a
    # fresh build: y(z), and so w(z), moves first at z^4
    left, right = lehn._CUBIC
    monkeypatch.setattr(lehn, "_substitution", lehn._substitution.__wrapped__)
    monkeypatch.setattr(lehn, "_CUBIC", (left, _bumped(right, 3)))


def _fault_in_exponent(monkeypatch):
    # b = d + 2 pi + ... for d - 2 pi + ..., a sign slip that pi = 0 hides
    exponents = lehn.lehn_exponents

    def slipped(inv):
        exps = exponents(inv)
        return replace(exps, b=exps.b + 4 * inv.pi)

    monkeypatch.setattr(lehn, "lehn_exponents", slipped)


def _fault_in_closed_formula(monkeypatch):
    monkeypatch.setattr(k3, "closed_segre", _bumped_at(k3.closed_segre, 4, 30))


#: component -> (fault, a registry check that must FAIL under it)
COMPONENT_FAULTS = {
    "A": (_fault_in_log("A"), "b-vs-bprime"),
    "B": (_fault_in_log("B"), "closed-vs-recursion"),
    "C/D": (_fault_in_blowup_targets, "s5-polynomial"),
    "b-sequence": (_fault_in_b, "b-vs-bprime"),
    "w(z)": (_fault_in_w, "lehn-vanishing k=2"),
    "substitution polynomial": (_fault_in_substitution_polynomial, "lehn-vanishing k=4"),
    "Lehn exponent": (_fault_in_exponent, "engine-vs-lehn-grid"),
    "closed formula": (_fault_in_closed_formula, "closed-vs-recursion"),
}


@pytest.mark.parametrize(("install", "check"), COMPONENT_FAULTS.values(), ids=COMPONENT_FAULTS)
def test_a_fault_in_each_component_fails_a_registry_check(monkeypatch, install, check):
    # the registry at order 4 and max_k 4, on the series set that `verify` builds
    install(monkeypatch)
    U = universal.universal_series_set(5)
    outcomes = [outcome for run in checks.REGISTRY for outcome in run(U, 4, 4)]
    assert check in {outcome.name for outcome in outcomes if not outcome.ok}


@pytest.mark.parametrize("install", [fault for fault, _ in COMPONENT_FAULTS.values()], ids=COMPONENT_FAULTS)
def test_each_fault_keeps_every_part_of_the_cached_builds(monkeypatch, install):
    # a faulted cache must still hold everything its readers take, the unit series included
    caches = ((universal, "_universal_logs"), (lehn, "_substitution"))
    real = [len(getattr(module, name)(4)) for module, name in caches]
    install(monkeypatch)
    assert [len(getattr(module, name)(4)) for module, name in caches] == real
    assert lehn.extract_lehn_universal(4).order == universal.universal_series_set(4).order == 4


def test_every_registry_check_runs_in_an_acceptance_criterion(monkeypatch):
    """A check joins `verify` only together with an acceptance criterion and its budget."""
    ran = set()
    for check in checks.REGISTRY:

        def stub(U, order, max_k, name=check.__name__):
            ran.add(name)
            return [checks.Outcome(name, True)]

        monkeypatch.setattr(checks, check.__name__, stub)
    for name, criterion in vars(test_acceptance).items():
        if name.startswith("test_criterion_"):
            criterion()
    assert ran == {check.__name__ for check in checks.REGISTRY}
