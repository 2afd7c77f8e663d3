"""Command-line front end: numbers, series inspection, cross-route verification.

Subcommands, one per kind of output:

    number   one Segre number via the engine; --all-routes adds the
             closed (on a K3 tuple) and lehn rows
    series   coefficients of a tuple's generating series, by the engine
             (--which s) or by Lehn's function (--which lehn); A, B, C
             and D are the s series at their unit tuples
    verify   the checks of `hilbsegre.checks.REGISTRY`, one PASS/FAIL line each

Values are printed as exact "p/q" strings of any size, never as
decimals.  The truncation order of `series` and `verify` is 8 unless
their --order and --max-order flags say otherwise; `number` evaluates
at order --k.  argparse refuses an order, k or max-k above MAX_ORDER,
or a max-k below 2, as a usage error before any work starts.  Every
command writes to stdout.  Exit codes: 0 success, 1 verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from fractions import Fraction

from .checks import REGISTRY
from .k3 import closed_segre
from .lehn import lehn_series
from .series import TruncatedPowerSeries, format_rational
from .universal import SurfaceInvariants, segre_series, universal_series_set

DEFAULT_ORDER = 8
#: The largest --k, --order, --max-order or --max-k accepted: the
#: largest power of two at which every command ends within a minute.
#: The dearest one, `verify --max-order N --max-k N`, took 2.7 s at
#: N = 64 and 38-39 s at N = 128 on a 2-vCPU machine whose speed swings
#: by up to 1.8x, so at 128 it can pass a minute.
MAX_ORDER = 64
CSV_HEADER = ("d", "pi", "kappa", "e", "k", "route", "value")


#: Each series route by name: the function giving its series for a tuple to an order.
#: The lambdas read the module's names when called, so a stub or a tracer's wrapper applies.
ROUTES = {
    "engine": lambda inv, order: segre_series(inv, order, universal_series_set(order)),
    "lehn": lambda inv, order: lehn_series(inv, order),
}


def output_row(inv: SurfaceInvariants, k: int, route: str, value: Fraction) -> dict:
    """One computed value with its provenance: `CSV_HEADER` -> field."""
    return dict(zip(CSV_HEADER, (*inv.as_tuple(), k, route, format_rational(value))))


def render_records(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    table = [CSV_HEADER] + [tuple(str(cell) for cell in row.values()) for row in rows]
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(table)
        return buffer.getvalue()
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    lines = ("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table)
    return "".join(line + "\n" for line in lines)


def _invariants_from(args: argparse.Namespace) -> SurfaceInvariants:
    return SurfaceInvariants(args.d, args.pi, args.kappa, args.e)


def _closed_applicable(inv: SurfaceInvariants) -> bool:
    return inv.pi == 0 and inv.kappa == 0 and inv.e == 24 and inv.d % 2 == 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_number(args: argparse.Namespace) -> int:
    """One row per route in `args.routes`: the engine, or all three; closed only on a K3 tuple."""
    inv, k = _invariants_from(args), args.k
    rows = []
    for route in args.routes:
        if route in ROUTES:
            rows.append(output_row(inv, k, route, ROUTES[route](inv, k)[k]))
        elif _closed_applicable(inv):
            rows.append(output_row(inv, k, route, closed_segre(k, inv.d // 2 + 1)))
    sys.stdout.write(render_records(rows, args.format))
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    inv = _invariants_from(args)
    route = "lehn" if args.which == "lehn" else "engine"
    series = ROUTES[route](inv, args.order)
    rows = [output_row(inv, k, route, c) for k, c in enumerate(series)]
    table = "".join(row["value"] + "\n" for row in rows)  # the values alone, one per line
    sys.stdout.write(table if args.format == "table" else render_records(rows, args.format))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    U = universal_series_set(max(args.max_order, 5))
    if args.inject_fault:
        U = replace(U, D=U.D + TruncatedPowerSeries([0, 0, 1], order=U.order))
    outcomes = [outcome for check in REGISTRY for outcome in check(U, args.max_order, args.max_k)]
    passed = sum(outcome.ok for outcome in outcomes)
    lines = [outcome.line() for outcome in outcomes]
    lines.append(f"verify: {passed}/{len(outcomes)} checks passed")
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0 if passed == len(outcomes) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _order(text: str, low: int = 0) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if not low <= value <= MAX_ORDER:
        raise argparse.ArgumentTypeError(f"must be from {low} to {MAX_ORDER}, got {value}")
    return value


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format (default: table)",
    )


def _add_tuple_flags(parser: argparse.ArgumentParser) -> None:
    for flag in ("d", "pi", "kappa", "e"):
        parser.add_argument(f"--{flag}", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbsegre",
        description="Exact Segre numbers of tautological bundles on Hilbert schemes of surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_number = sub.add_parser("number", help="one Segre number for a tuple")
    _add_tuple_flags(p_number)
    p_number.add_argument("--k", type=_order, required=True)
    p_number.add_argument("--all-routes", dest="routes", action="store_const",
                          const=("closed", *ROUTES),
                          help="also print the closed (when applicable) and lehn values")
    _add_format_flags(p_number)
    p_number.set_defaults(func=cmd_number, routes=("engine",))

    p_series = sub.add_parser("series", help="coefficients of a tuple's generating series")
    p_series.add_argument("--which", choices=("s", "lehn"), required=True,
                          help="the route: s for the engine, lehn for Lehn's function")
    _add_tuple_flags(p_series)
    p_series.add_argument("--order", type=_order, default=DEFAULT_ORDER)
    _add_format_flags(p_series)
    p_series.set_defaults(func=cmd_series)

    p_verify = sub.add_parser("verify", help="run the cross-validation suite")
    p_verify.add_argument("--max-k", type=lambda text: _order(text, 2), default=8)
    p_verify.add_argument("--max-order", type=_order, default=DEFAULT_ORDER)
    p_verify.add_argument("--inject-fault", action="store_true",
                          help="testing aid: corrupt one engine coefficient, the suite must FAIL")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
