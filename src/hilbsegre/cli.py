"""Command-line front end: numbers, series inspection, cross-route verification.

Subcommands:

    number   one Segre number via the engine (optionally all routes)
    series   coefficients of A, B, C, D or of a full generating series
    lehn     one Segre number via the Lehn generating function
    verify   the checks of `hilbsegre.checks.REGISTRY`, one PASS/FAIL line each

Values are printed as exact "p/q" strings of any size, never as
decimals.  The truncation order of `series` and `verify` is 8 unless
their --order and --max-order flags say otherwise; `number` and `lehn`
evaluate at order --k.  No order, k or max-k may exceed MAX_ORDER:
argparse refuses one as a usage error before any work starts.  Exit
codes: 0 success, 1 verification failure, 2 usage error or an
`--output` path that cannot be written, which is also found before any
work starts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .checks import REGISTRY
from .k3 import closed_segre
from .lehn import lehn_series
from .series import TruncatedPowerSeries, format_rational
from .universal import UNIT_TUPLES, SurfaceInvariants, segre_series, universal_series_set

DEFAULT_ORDER = 8
#: The largest --k, --order, --max-order or --max-k accepted: the
#: largest power of two at which every command ends within a minute.
#: The dearest one at order N, `verify --max-order N --max-k N`, took
#: 5.5-5.9 s at N = 48, 13-14 s at 64 and 38 s at 96 on a 2-vCPU
#: machine; at 128 it took 131 s at commit 0582266, and its
#: kernel-roundtrips check alone 126 s, each in a fresh process.
MAX_ORDER = 64
CSV_HEADER = ("d", "pi", "kappa", "e", "k", "route", "value")


@dataclass(frozen=True)
class OutputRecord:
    """One computed value with its provenance, ready for serialization."""

    invariants: SurfaceInvariants
    k: int
    value: Fraction
    route: str

    def to_dict(self) -> dict:
        values = (*self.invariants.as_tuple(), self.k, self.route, format_rational(self.value))
        return dict(zip(CSV_HEADER, values))

    def to_row(self) -> tuple[str, ...]:
        return tuple(str(value) for value in self.to_dict().values())


def render_records(records: list[OutputRecord], fmt: str, values_only: bool = False) -> str:
    if fmt == "json":
        return json.dumps([r.to_dict() for r in records], indent=2) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(r.to_row() for r in records)
        return buffer.getvalue()
    if values_only:
        return "".join(format_rational(r.value) + "\n" for r in records)
    rows = [CSV_HEADER] + [r.to_row() for r in records]
    widths = [max(len(row[i]) for row in rows) for i in range(len(CSV_HEADER))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    return "".join(line + "\n" for line in lines)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"cannot write {output}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2)


def _invariants_from(args: argparse.Namespace) -> SurfaceInvariants:
    return SurfaceInvariants(args.d, args.pi, args.kappa, args.e)


def _closed_applicable(inv: SurfaceInvariants) -> bool:
    return inv.pi == 0 and inv.kappa == 0 and inv.e == 24 and inv.d % 2 == 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_number(args: argparse.Namespace) -> int:
    inv = _invariants_from(args)
    series = segre_series(inv, args.k, universal_series_set(args.k))
    records = []
    if args.all_routes and _closed_applicable(inv):
        g = inv.d // 2 + 1
        records.append(OutputRecord(inv, args.k, closed_segre(args.k, g), "closed"))
    records.append(OutputRecord(inv, args.k, series[args.k], "engine"))
    if args.all_routes:
        records.append(
            OutputRecord(inv, args.k, lehn_series(inv, args.k)[args.k], "lehn")
        )
    _emit(render_records(records, args.format), args.output)
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    unit = args.which in UNIT_TUPLES  # a unit tuple takes no tuple flags; the others need all
    wrong = [f for f in ("d", "pi", "kappa", "e") if (getattr(args, f) is None) != unit]
    if wrong:
        flags = ", ".join("--" + f for f in wrong)
        print(f"--which {args.which} {'takes no' if unit else 'requires'} {flags}", file=sys.stderr)
        return 2
    inv = UNIT_TUPLES[args.which] if unit else _invariants_from(args)
    if args.which == "lehn":
        series, route = lehn_series(inv, args.order), "lehn"
    else:
        series, route = segre_series(inv, args.order, universal_series_set(args.order)), "engine"
    records = [
        OutputRecord(inv, k, series[k], route) for k in range(series.order + 1)
    ]
    _emit(
        render_records(records, args.format, values_only=True), args.output
    )
    return 0


def cmd_lehn(args: argparse.Namespace) -> int:
    inv = _invariants_from(args)
    value = lehn_series(inv, args.k)[args.k]
    records = [OutputRecord(inv, args.k, value, "lehn")]
    _emit(render_records(records, args.format), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_k < 2:
        print("--max-k must be at least 2", file=sys.stderr)
        return 2
    U = universal_series_set(max(args.max_order, 5))
    if args.inject_fault:
        coefficients = list(U.D.coefficients)
        coefficients[2] += 1
        U = replace(U, D=TruncatedPowerSeries(coefficients))
    outcomes = [outcome for check in REGISTRY for outcome in check(U, args.max_order, args.max_k)]
    passed = sum(outcome.ok for outcome in outcomes)
    lines = [outcome.line() for outcome in outcomes]
    lines.append(f"verify: {passed}/{len(outcomes)} checks passed")
    _emit("".join(line + "\n" for line in lines), args.output)
    return 0 if passed == len(outcomes) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _order(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if not 0 <= value <= MAX_ORDER:
        raise argparse.ArgumentTypeError(f"must be from 0 to {MAX_ORDER}, got {value}")
    return value


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format (default: table)",
    )
    parser.add_argument("--output", metavar="PATH", help="write output to a file")


def _add_tuple_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    for flag in ("d", "pi", "kappa", "e"):
        parser.add_argument(f"--{flag}", type=int, required=required, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbsegre",
        description="Exact Segre numbers of tautological bundles on Hilbert schemes of surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_number = sub.add_parser("number", help="one Segre number for a tuple")
    _add_tuple_flags(p_number, required=True)
    p_number.add_argument("--k", type=_order, required=True)
    p_number.add_argument("--all-routes", action="store_true",
                          help="also print the closed (when applicable) and lehn values")
    _add_format_flags(p_number)
    p_number.set_defaults(func=cmd_number)

    p_series = sub.add_parser("series", help="coefficients of a determined or generating series")
    p_series.add_argument("--which", choices=("A", "B", "C", "D", "s", "lehn"), required=True)
    p_series.add_argument("--order", type=_order, default=DEFAULT_ORDER)
    _add_tuple_flags(p_series, required=False)
    _add_format_flags(p_series)
    p_series.set_defaults(func=cmd_series)

    p_lehn = sub.add_parser("lehn", help="one Segre number via the Lehn generating function")
    _add_tuple_flags(p_lehn, required=True)
    p_lehn.add_argument("--k", type=_order, required=True)
    _add_format_flags(p_lehn)
    p_lehn.set_defaults(func=cmd_lehn)

    p_verify = sub.add_parser("verify", help="run the cross-validation suite")
    p_verify.add_argument("--max-k", type=_order, default=8)
    p_verify.add_argument("--max-order", type=_order, default=DEFAULT_ORDER)
    p_verify.add_argument("--inject-fault", action="store_true",
                          help="testing aid: corrupt one engine coefficient, the suite must FAIL")
    p_verify.add_argument("--output", metavar="PATH", help="write the report to a file")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "output", None) is not None:
        _emit("", args.output)  # open it now, as a shell redirection would: fail before any work
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
