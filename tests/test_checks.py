"""Negative controls for the verification registry, and its coverage guard.

Each control replaces one ingredient through its module attribute, so
it also shows that the checks call the library through its modules,
and asserts that the check fails with the expected first counterexample.
A table adds one fault per component of the three routes, each of which
must make a named registry check FAIL.  Each of those faults runs over
empty caches of both cold builds (`tests._caches`), so a fault that a
build reads is built, and the build is dropped with the fault.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from hilbsegre import SurfaceInvariants, TruncatedPowerSeries, checks, cli, k3, lehn, series, universal
from hilbsegre import format_rational, universal_series_set
from hilbsegre.series import _grown_by_prefix
from hilbsegre.universal import UNIT_TUPLES
from tests import test_acceptance
from tests._caches import COLD_BUILDS, empty_caches


def _bumped_at(fn, *at):
    """`fn` plus one on exactly the arguments `at`."""
    return lambda *args: fn(*args) + (args == at)


def _single_failure(check, U, order, max_k):
    [outcome] = check(U, order, max_k)
    assert not outcome.ok
    return outcome.counterexample


def _top_bumped(method, when=lambda *args: True):
    """`method` with its top coefficient plus one whenever `when(*args)` holds."""

    def perturbed(self, *args):
        coefficients = list(method(self, *args).coefficients)
        coefficients[-1] += when(*args)
        return TruncatedPowerSeries(coefficients)

    return perturbed


def test_kernel_roundtrips_catches_a_perturbed_reversion(monkeypatch):
    monkeypatch.setattr(TruncatedPowerSeries, "revert", _top_bumped(TruncatedPowerSeries.revert))
    counterexample = _single_failure(checks.kernel_roundtrips, None, 4, 2)
    assert counterexample == "reversion roundtrip failed for series #0"


@pytest.mark.parametrize(
    "name,when,expected",
    [
        ("pow", lambda exponent: exponent == Fraction(1, 2),
         "pow additivity failed for series #0 at (1/2,1/2)"),
        ("log", lambda: True, "exp(log f) != f for random unit series #0"),
        # every second log: exp(log f) still holds on the unit, log(exp g) does not
        ("log", lambda calls=itertools.count(1): next(calls) % 2 == 0,
         "log(exp g) != g for random series #0"),
    ],
    ids=["pow-at-one-half", "log", "log-of-an-exp-output"],
)
def test_kernel_roundtrips_catches_a_perturbed_kernel(monkeypatch, name, when, expected):
    method = getattr(TruncatedPowerSeries, name)
    monkeypatch.setattr(TruncatedPowerSeries, name, _top_bumped(method, when))
    assert _single_failure(checks.kernel_roundtrips, None, 4, 2) == expected


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
    monkeypatch.setattr(k3, "determine_b_prime", lambda K: TruncatedPowerSeries(_bumped(b_prime(K), 4)))
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

    empty_caches(monkeypatch)
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
    # (kappa + 1) m / 120 is zero at both targets (kappa = -1) for each monomial m of
    # degree <= 4, so only the monomial comparison can see it: it adds 1 to the x 120
    # table at m and at m + e_kappa, the larger of the two in descending order
    table, U = lehn._S5_TIMES_120, universal_series_set(5)
    monomials = [m for m in itertools.product(range(5), repeat=4) if sum(m) <= 4]
    assert len(monomials) == 70
    for m in monomials:
        m_kappa = (m[0], m[1], m[2] + 1, m[3])
        faulty = {**table, m: table.get(m, 0) + 1, m_kappa: table.get(m_kappa, 0) + 1}
        monkeypatch.setattr(lehn, "_S5_TIMES_120", faulty)
        counterexample = _single_failure(checks.s5_polynomial, U, 5, 2)
        assert counterexample.startswith(f"(d,pi,kappa,e)^({','.join(map(str, m_kappa))}): published "), m
        assert counterexample.endswith(f"; 2 of {len(faulty)} monomials differ"), m


def test_degenerate_family_catches_the_d2_fault():
    U = universal_series_set(5)
    faulty = replace(U, D=U.D + TruncatedPowerSeries([0, 0, 1], order=U.order))
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
            parts[slot] = TruncatedPowerSeries(_bumped(parts[slot], 2))
            parts[4 + slot] = parts[slot].exp()
            return tuple(parts)

        monkeypatch.setattr(universal, "_universal_logs", faulty)

    return install


def _fault_in_blowup_targets(monkeypatch):
    # C and D solved against targets with e = 26 for 25
    vanishings = universal._blowup_vanishings
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
    # a fresh build of the substitution with w(z) bumped before the three logs, and
    # the four unit series exp((a, b, -c) . (l1, l2, l3)) from them, are taken
    build = lehn._substitution.__wrapped__

    def substitution(N):
        zw, wz, *_ = build(N)
        w = TruncatedPowerSeries(_bumped(wz, 2))
        logs = [f.log() for f in (1 - w, 1 - 2 * w, 1 - 6 * w + 6 * w * w)]
        weights = (lehn.lehn_exponents(inv).weights for inv in UNIT_TUPLES.values())
        units = [sum(x * l for x, l in zip(u, logs)).exp() for u in weights]
        return (zw, w, *logs, *units)

    monkeypatch.setattr(lehn, "_substitution", _grown_by_prefix(substitution))


def _fault_in_substitution_polynomial(monkeypatch):
    # the y^3 coefficient of (1 - 6y)^3 one too large (-215 for -216): y(z), and
    # so w(z), moves first at z^4
    left, right = lehn._CUBIC
    monkeypatch.setattr(lehn, "_CUBIC", (left, _bumped(right, 3)))


def _fault_in_exponent(monkeypatch):
    # b = d + 2 pi + ... for d - 2 pi + ..., a sign slip that pi = 0 hides; it
    # reaches the unit series C, whose linear coefficient it moves to -8
    exponents = lehn.lehn_exponents

    def slipped(inv):
        exps = exponents(inv)
        return replace(exps, b=exps.b + 4 * inv.pi)

    monkeypatch.setattr(lehn, "lehn_exponents", slipped)


def _fault_in_combination(monkeypatch):
    # the combined log one too large at z^2, in the per-tuple exp both series routes share
    combine = series._exp_of_combination

    def bumped(terms, order):
        return combine([*terms, (1, TruncatedPowerSeries([0, 0, 1], order=order))], order)

    for module in (universal, lehn):
        monkeypatch.setattr(module, "_exp_of_combination", bumped)


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
    "log combination": (_fault_in_combination, "closed-vs-recursion"),
    "closed formula": (_fault_in_closed_formula, "closed-vs-recursion"),
}


@pytest.mark.parametrize(("install", "check"), COMPONENT_FAULTS.values(), ids=COMPONENT_FAULTS)
def test_a_fault_in_each_component_fails_a_registry_check(monkeypatch, install, check):
    # the registry at order 4 and max_k 4, on the series set that `verify` builds
    empty_caches(monkeypatch)
    install(monkeypatch)
    U = universal.universal_series_set(5)
    outcomes = [outcome for run in checks.REGISTRY for outcome in run(U, 4, 4)]
    assert check in {outcome.name for outcome in outcomes if not outcome.ok}


FAULTS = [fault for fault, _ in COMPONENT_FAULTS.values()]


@pytest.mark.parametrize("install", FAULTS, ids=COMPONENT_FAULTS)
def test_each_fault_keeps_every_part_of_the_cached_builds(monkeypatch, install):
    # a faulted cache must still hold everything its readers take, the unit series included
    real = [len(getattr(module, name)(4)) for module, name in COLD_BUILDS]
    empty_caches(monkeypatch)
    install(monkeypatch)
    assert [len(getattr(module, name)(4)) for module, name in COLD_BUILDS] == real
    assert universal.universal_series_set(4).order == 4
    if install is _fault_in_exponent:
        # the slipped exponents reach the cached unit series, and the set refuses them
        with pytest.raises(ValueError, match="^C must have linear coefficient 0$"):
            lehn.extract_lehn_universal(4)
    else:
        assert lehn.extract_lehn_universal(4).order == 4


@pytest.mark.parametrize("install", FAULTS, ids=COMPONENT_FAULTS)
def test_no_fault_leaves_a_poisoned_cache_behind(monkeypatch, install):
    # the caches that later tests read start empty here, so a build that the fault
    # made in them would show after the fault is undone
    empty_caches(monkeypatch)
    with pytest.MonkeyPatch.context() as faulted:
        empty_caches(faulted)
        install(faulted)
        U = universal.universal_series_set(5)
        for run in checks.REGISTRY:
            run(U, 4, 4)
        lehn.change_of_variable(5)
    for module, name in COLD_BUILDS:
        cache = getattr(module, name)
        assert tuple(part.truncate(5) for part in cache(5)) == cache.__wrapped__(5), name


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
