"""Command-line interface tests: subcommands, formats, exit codes."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbsegre import SurfaceInvariants, parse_rational, segre_number, universal_series_set
from hilbsegre import cli
from hilbsegre.cli import MAX_ORDER, OutputRecord, main, render_records


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# -- number -------------------------------------------------------------------


def test_number_blowup_target(capsys):
    code, out = run_cli(capsys, "number", "--d", "28", "--pi", "4", "--kappa", "-1", "--e", "25", "--k", "5")
    assert code == 0
    assert out.splitlines()[-1].split()[-1] == "0"


def test_number_empty_surface(capsys):
    code, out = run_cli(capsys, "number", "--d", "0", "--pi", "0", "--kappa", "0", "--e", "0", "--k", "3")
    assert code == 0
    assert out.splitlines()[-1].split()[-1] == "0"


def test_number_k3_value(capsys):
    code, out = run_cli(capsys, "number", "--d", "12", "--pi", "0", "--kappa", "0", "--e", "24", "--k", "2")
    assert code == 0
    assert out.splitlines()[-1].split()[-1] == "24"


def test_number_all_routes_includes_closed_when_applicable(capsys):
    code, out = run_cli(
        capsys, "number", "--d", "12", "--pi", "0", "--kappa", "0", "--e", "24",
        "--k", "2", "--all-routes", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["route"] for row in rows] == ["closed", "engine", "lehn"]
    assert {row["value"] for row in rows} == {"24"}


def test_number_all_routes_skips_closed_otherwise(capsys):
    code, out = run_cli(
        capsys, "number", "--d", "7", "--pi", "1", "--kappa", "-1", "--e", "25",
        "--k", "2", "--all-routes", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["route"] for row in rows] == ["engine", "lehn"]


def test_number_k_beyond_default_order_still_works(capsys):
    code, out = run_cli(capsys, "number", "--d", "2", "--pi", "0", "--kappa", "0", "--e", "0", "--k", "10", "--format", "csv")
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert parse_rational(row["value"]).denominator == 1


# -- series --------------------------------------------------------------------


def test_series_A_prefix(capsys):
    code, out = run_cli(capsys, "series", "--which", "A", "--order", "2")
    assert code == 0
    assert out.splitlines() == ["1", "1", "-9/2"]


def test_series_C_prefix(capsys):
    code, out = run_cli(capsys, "series", "--which", "C", "--order", "1")
    assert code == 0
    assert out.splitlines() == ["1", "0"]


def test_series_abelian(capsys):
    code, out = run_cli(
        capsys, "series", "--which", "s", "--d", "2", "--pi", "0", "--kappa", "0", "--e", "0", "--order", "2",
    )
    assert code == 0
    assert out.splitlines() == ["1", "2", "-8"]


def test_series_lehn_equals_engine(capsys):
    args = ("--d", "3", "--pi", "1", "--kappa", "-2", "--e", "12", "--order", "6")
    code_s, out_s = run_cli(capsys, "series", "--which", "s", *args)
    code_l, out_l = run_cli(capsys, "series", "--which", "lehn", *args)
    assert code_s == code_l == 0
    assert out_s == out_l


def test_series_unit_tuple_refuses_tuple_flags(capsys):
    code = main(["series", "--which", "A", "--d", "3", "--pi", "9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "--which A takes no --d, --pi\n"


def test_series_missing_tuple_flags(capsys):
    code = main(["series", "--which", "s", "--order", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--d" in captured.err


def test_series_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["series", "--which", "E", "--order", "3"])
    assert excinfo.value.code == 2


def test_series_json_schema(capsys):
    code, out = run_cli(
        capsys, "series", "--which", "B", "--order", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [record["k"] for record in payload] == [0, 1, 2, 3]
    assert payload[0] == {"d": 0, "pi": 0, "kappa": 0, "e": 1, "k": 0, "route": "engine", "value": "1"}
    assert payload[2]["value"] == "1/2"


# -- lehn ----------------------------------------------------------------------


def test_lehn_subcommand(capsys):
    code, out = run_cli(capsys, "lehn", "--d", "29", "--pi", "5", "--kappa", "-1", "--e", "25", "--k", "5", "--format", "csv")
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert row["route"] == "lehn"
    assert row["value"] == "0"


# -- exact values of any size ----------------------------------------------------


@pytest.mark.parametrize("exponent", [66, 70])
def test_every_route_prints_values_past_the_int_digit_limit(capsys, exponent):
    # at d = 10^66 the value's numerator has 4,154 digits and at 10^70 4,410, past
    # the 4,300 that str(int) refuses since Python 3.10.7; neither changes that limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    tuple_flags = ("--d", "1" + "0" * exponent, "--pi", "3", "--kappa", "-1", "--e", "25")
    values = []
    for command in ("number", "lehn"):
        code, out = run_cli(capsys, command, *tuple_flags, "--k", "64", "--format", "csv")
        assert code == 0
        values.append(list(csv.DictReader(io.StringIO(out)))[0]["value"])
    code, out = run_cli(capsys, "series", "--which", "s", *tuple_flags, "--order", "64", "--format", "json")
    assert code == 0
    values.append(json.loads(out)[-1]["value"])
    inv = SurfaceInvariants(10**exponent, 3, -1, 25)
    assert {parse_rational(value) for value in values} == {segre_number(inv, 64, universal_series_set(64))}
    assert (len(values[0].split("/")[0]) > 4300) == (exponent == 70)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


# -- verify -----------------------------------------------------------------------


SMALL_REPORT = (
    "kernel-roundtrips: PASS\n"
    "closed-vs-recursion: PASS\n"
    "pascal-identity: PASS\n"
    "b-vs-bprime: PASS\n"
    "engine-vs-lehn-grid: PASS\n"
    "lehn-vanishing k=2: 0, 0 PASS\n"
    "s5-polynomial: PASS\n"
    "degenerate-family: PASS\n"
    "verify: 8/8 checks passed\n"
)

SMALL_FAULT_REPORT = (
    "kernel-roundtrips: PASS\n"
    "closed-vs-recursion: PASS\n"
    "pascal-identity: PASS\n"
    "b-vs-bprime: PASS\n"
    "engine-vs-lehn-grid: FAIL (first counterexample: (d,pi,kappa,e)=(-3,-3,-3,0), k=2: engine 51/2 vs lehn 57/2)\n"
    "lehn-vanishing k=2: 0, 0 PASS\n"
    "s5-polynomial: FAIL (first counterexample: (d,pi,kappa,e)=(0,0,1,1): polynomial 912 vs engine 2716/3; 69 of 126 simplex tuples differ)\n"
    "degenerate-family: FAIL (first counterexample: engine nonzero at (d,pi,kappa,e)=(0,2,1,11), k=2: 1)\n"
    "verify: 5/8 checks passed\n"
)

# `hilbsegre verify` and `hilbsegre verify --inject-fault` with every default
DEFAULT_REPORT = (
    "kernel-roundtrips: PASS\n"
    "closed-vs-recursion: PASS\n"
    "pascal-identity: PASS\n"
    "b-vs-bprime: PASS\n"
    "engine-vs-lehn-grid: PASS\n"
    "lehn-vanishing k=2: 0, 0 PASS\n"
    "lehn-vanishing k=3: 0, 0 PASS\n"
    "lehn-vanishing k=4: 0, 0 PASS\n"
    "lehn-vanishing k=5: 0, 0 PASS\n"
    "lehn-vanishing k=6: 0, 0 PASS\n"
    "lehn-vanishing k=7: 0, 0 PASS\n"
    "lehn-vanishing k=8: 0, 0 PASS\n"
    "s5-polynomial: PASS\n"
    "degenerate-family: PASS\n"
    "verify: 14/14 checks passed\n"
)

DEFAULT_FAULT_REPORT = (
    "kernel-roundtrips: PASS\n"
    "closed-vs-recursion: PASS\n"
    "pascal-identity: PASS\n"
    "b-vs-bprime: PASS\n"
    "engine-vs-lehn-grid: FAIL (first counterexample: (d,pi,kappa,e)=(-3,-3,-3,0), k=2: engine 51/2 vs lehn 57/2)\n"
    "lehn-vanishing k=2: 0, 0 PASS\n"
    "lehn-vanishing k=3: 0, 0 PASS\n"
    "lehn-vanishing k=4: 0, 0 PASS\n"
    "lehn-vanishing k=5: 0, 0 PASS\n"
    "lehn-vanishing k=6: 0, 0 PASS\n"
    "lehn-vanishing k=7: 0, 0 PASS\n"
    "lehn-vanishing k=8: 0, 0 PASS\n"
    "s5-polynomial: FAIL (first counterexample: (d,pi,kappa,e)=(0,0,1,1): polynomial 912 vs engine 2716/3; 69 of 126 simplex tuples differ)\n"
    "degenerate-family: FAIL (first counterexample: engine nonzero at (d,pi,kappa,e)=(0,2,1,11), k=2: 1)\n"
    "verify: 11/14 checks passed\n"
)


def test_verify_small_run_passes(capsys):
    code, out = run_cli(capsys, "verify", "--max-k", "2", "--max-order", "4")
    assert code == 0
    assert out == SMALL_REPORT


@pytest.mark.parametrize(
    "argv,code,report",
    [(("verify",), 0, DEFAULT_REPORT), (("verify", "--inject-fault"), 1, DEFAULT_FAULT_REPORT)],
)
def test_verify_default_reports_are_frozen(capsys, argv, code, report):
    # pins the default --max-order and --max-k along with every check's text
    exit_code, out = run_cli(capsys, *argv)
    assert out == report
    assert exit_code == code


@pytest.mark.parametrize(
    "max_order,max_k,digest",
    [("12", "10", "9d0474e0ae004ea1"), ("32", "32", "2313aae6215750cd")],
)
def test_verify_reports_at_higher_orders_are_pinned(capsys, max_order, max_k, digest):
    # reports too long to freeze as literals: the first 16 hex digits of their SHA-256
    code, out = run_cli(capsys, "verify", "--max-order", max_order, "--max-k", max_k)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_verify_is_deterministic(capsys):
    _, first = run_cli(capsys, "verify", "--max-k", "2", "--max-order", "3")
    _, second = run_cli(capsys, "verify", "--max-k", "2", "--max-order", "3")
    assert first == second


def test_verify_injected_fault_fails(capsys):
    code, out = run_cli(capsys, "verify", "--max-k", "2", "--max-order", "4", "--inject-fault")
    assert code == 1
    assert out == SMALL_FAULT_REPORT


def test_verify_output_file(tmp_path, capsys):
    path = tmp_path / "report.txt"
    code, out = run_cli(capsys, "verify", "--max-k", "2", "--max-order", "3", "--output", str(path))
    assert code == 0
    assert out == ""
    assert "checks passed" in path.read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--max-k", "2", "--max-order", "2"),
        ("number", "--d", "2", "--pi", "0", "--kappa", "0", "--e", "0", "--k", "2"),
    ],
)
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # the path is refused before any work: the series set is never built
    monkeypatch.setattr(cli, "universal_series_set", _no_work)
    path = tmp_path / "missing" / "report.txt"
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--output", str(path)])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert captured.err == f"cannot write {path}: No such file or directory\n"


# -- plumbing -----------------------------------------------------------------------


class _WorkStarted(Exception):
    pass


def _no_work(*args, **kwargs):
    raise _WorkStarted


TUPLE = ("--d", "2", "--pi", "0", "--kappa", "0", "--e", "0")
ORDER_ARGV = [
    (("number", *TUPLE, "--k"), "--k"),
    (("series", "--which", "lehn", *TUPLE, "--order"), "--order"),
    (("lehn", *TUPLE, "--k"), "--k"),
    (("series", "--which", "A", "--order"), "--order"),
    (("verify", "--max-order"), "--max-order"),
    (("verify", "--max-k"), "--max-k"),
]


@pytest.mark.parametrize("argv,option", ORDER_ARGV)
def test_orders_above_the_maximum_are_refused(capsys, monkeypatch, argv, option):
    # parsing only: the work is stubbed, so the limit itself starts it
    monkeypatch.setattr(cli, "universal_series_set", _no_work)
    monkeypatch.setattr(cli, "lehn_series", _no_work)
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, str(MAX_ORDER + 1)])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"hilbsegre {argv[0]}: error: argument {option}: "
        f"must be from 0 to {MAX_ORDER}, got {MAX_ORDER + 1}"
    )
    with pytest.raises(_WorkStarted):
        main([*argv, str(MAX_ORDER)])


@pytest.mark.parametrize("text", ["x", "1.5"])
@pytest.mark.parametrize("argv,option", ORDER_ARGV)
def test_non_integer_orders_are_refused(capsys, monkeypatch, argv, option, text):
    monkeypatch.setattr(cli, "universal_series_set", _no_work)
    monkeypatch.setattr(cli, "lehn_series", _no_work)
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, text])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"hilbsegre {argv[0]}: error: argument {option}: must be an integer, got {text!r}"
    )


def test_number_evaluates_at_k_whatever_the_default_order(capsys, monkeypatch):
    # no environment variable sets an order: only the flags and their defaults do
    monkeypatch.delenv("SEGRE_DEFAULT_ORDER", raising=False)
    inputs = [
        ("number", *TUPLE, "--k", "5", "--format", "csv"),
        ("series", "--which", "A"),
        ("verify", "--max-k", "2", "--max-order", "3"),
    ]
    expected = [run_cli(capsys, *argv) for argv in inputs]
    assert [code for code, _ in expected] == [0, 0, 0]
    assert len(expected[1][1].splitlines()) == cli.DEFAULT_ORDER + 1 == 9
    for raw in ("3", "many", str(MAX_ORDER + 1)):
        monkeypatch.setenv("SEGRE_DEFAULT_ORDER", raw)
        assert [run_cli(capsys, *argv) for argv in inputs] == expected


def test_number_refuses_order(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["number", *TUPLE, "--k", "2", "--order", "8"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --order 8" in capsys.readouterr().err


def test_usage_error_on_bad_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["number", "--d", "x", "--pi", "0", "--kappa", "0", "--e", "0", "--k", "1"])
    assert excinfo.value.code == 2


def test_usage_error_on_negative_k():
    with pytest.raises(SystemExit) as excinfo:
        main(["number", "--d", "0", "--pi", "0", "--kappa", "0", "--e", "0", "--k", "-1"])
    assert excinfo.value.code == 2


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "hilbsegre", "number", "--d", "2", "--pi", "0",
         "--kappa", "0", "--e", "0", "--k", "2", "--format", "csv"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert list(csv.DictReader(io.StringIO(result.stdout)))[0]["value"] == "-8"


def test_verify_max_k_guard(capsys):
    code = main(["verify", "--max-k", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "at least 2" in captured.err


# -- serialization round-trips --------------------------------------------------------

rationals = st.fractions(max_denominator=10**6)


@given(rationals)
def test_prop_csv_roundtrip(value):
    record = OutputRecord(SurfaceInvariants(1, -2, 3, -4), 5, value, "engine")
    text = render_records([record], "csv")
    row = list(csv.DictReader(io.StringIO(text)))[0]
    assert parse_rational(row["value"]) == value
    assert (int(row["d"]), int(row["pi"]), int(row["kappa"]), int(row["e"])) == (1, -2, 3, -4)


@given(rationals)
def test_prop_json_roundtrip(value):
    record = OutputRecord(SurfaceInvariants(0, 0, 0, 0), 2, value, "lehn")
    payload = json.loads(render_records([record], "json"))
    assert parse_rational(payload[0]["value"]) == value
