"""Command-line front end: numbers, series inspection, cross-route verification.

Subcommands:

    number   one Segre number via the engine (optionally all routes)
    series   coefficients of A, B, C, D or of a full generating series
    lehn     one Segre number via the Lehn generating function
    verify   the full cross-validation suite, one PASS/FAIL line per check

Values are printed as exact "p/q" strings, never as decimals.  The
default truncation order is 8 and can be overridden with the
SEGRE_DEFAULT_ORDER environment variable or per-command flags.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .k3 import closed_segre, determine_b_prime, determine_b_s1, recursion_segre
from .lehn import (
    eval_s5_polynomial,
    lehn_series,
    s5_transcription_probe,
    verify_lehn_vanishings,
)
from .series import TruncatedPowerSeries, format_rational
from .universal import (
    SurfaceInvariants,
    UniversalSeriesSet,
    blowup_targets,
    segre_number,
    segre_series,
    universal_series_set,
)

DEFAULT_ORDER = 8
ORDER_ENV_VAR = "SEGRE_DEFAULT_ORDER"
CSV_HEADER = ("d", "pi", "kappa", "e", "k", "route", "value")

_SERIES_TUPLES = {
    "A": SurfaceInvariants(1, 0, 0, 0),
    "B": SurfaceInvariants(0, 0, 0, 1),
    "C": SurfaceInvariants(0, 1, 0, 0),
    "D": SurfaceInvariants(0, 0, 1, 0),
}


def _default_order() -> int:
    raw = os.environ.get(ORDER_ENV_VAR)
    if raw is None:
        return DEFAULT_ORDER
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        print(
            f"{ORDER_ENV_VAR} must be a non-negative integer, got {raw!r}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return value


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
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _invariants_from(args: argparse.Namespace) -> SurfaceInvariants:
    return SurfaceInvariants(args.d, args.pi, args.kappa, args.e)


def _closed_applicable(inv: SurfaceInvariants) -> bool:
    return inv.pi == 0 and inv.kappa == 0 and inv.e == 24 and inv.d % 2 == 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_number(args: argparse.Namespace) -> int:
    inv = _invariants_from(args)
    order = max(args.k, args.order if args.order is not None else _default_order())
    U = universal_series_set(order)
    series = segre_series(inv, order, U)
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
    order = args.order if args.order is not None else _default_order()
    if args.which in _SERIES_TUPLES:
        inv = _SERIES_TUPLES[args.which]
        U = universal_series_set(order)
        series = getattr(U, args.which)
        route = "engine"
    else:
        missing = [f for f in ("d", "pi", "kappa", "e") if getattr(args, f) is None]
        if missing:
            flags = ", ".join("--" + f for f in missing)
            print(f"--which {args.which} requires {flags}", file=sys.stderr)
            return 2
        inv = _invariants_from(args)
        if args.which == "s":
            series = segre_series(inv, order, universal_series_set(order))
            route = "engine"
        else:
            series = lehn_series(inv, order)
            route = "lehn"
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


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def _fmt_inv(inv: SurfaceInvariants) -> str:
    return f"(d,pi,kappa,e)=({inv.d},{inv.pi},{inv.kappa},{inv.e})"


def _check_kernel_roundtrips(max_order: int) -> tuple[bool, str]:
    rng = random.Random(58123)
    exponent_pairs = (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(-1), Fraction(2)),
        (Fraction(5, 2), Fraction(-3, 2)),
    )
    top = max(2, max_order)
    for i in range(30):
        order = rng.randint(2, top)
        tail = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(order)]
        unit = TruncatedPowerSeries([Fraction(1)] + tail)
        if unit.log().exp() != unit:
            return False, f"exp(log f) != f for random unit series #{i}"
        for alpha, beta in exponent_pairs:
            if unit.pow(alpha) * unit.pow(beta) != unit.pow(alpha + beta):
                return False, f"pow additivity failed for series #{i} at ({alpha},{beta})"
        zero_const = TruncatedPowerSeries([Fraction(0)] + tail)
        if zero_const.exp().log() != zero_const:
            return False, f"log(exp g) != g for random series #{i}"
        linear = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
        rest = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order - 1)]
        invertible = TruncatedPowerSeries([Fraction(0), linear] + rest)
        identity = TruncatedPowerSeries.identity(order)
        inverse = invertible.revert()
        if invertible.compose(inverse) != identity or inverse.compose(invertible) != identity:
            return False, f"reversion roundtrip failed for series #{i}"
    return True, ""


def _check_closed_vs_recursion(max_k: int) -> tuple[bool, str]:
    seqs = determine_b_s1(max_k)
    for k in range(max_k + 1):
        for g in range(1, 31):
            lhs = recursion_segre(k, g, seqs)
            rhs = closed_segre(k, g)
            if lhs != rhs:
                return False, f"k={k}, g={g}: recursion {lhs} vs closed {rhs}"
    return True, ""


def _check_pascal_identity(max_k: int) -> tuple[bool, str]:
    for k in range(1, max_k + 1):
        for g in range(-40, 41):
            lhs = 2 * closed_segre(k - 1, g - 3)
            rhs = closed_segre(k, g) - closed_segre(k, g - 1)
            if lhs != rhs:
                return False, f"k={k}, g={g}: {lhs} vs {rhs}"
    return True, ""


def _check_b_vs_bprime(max_k: int) -> tuple[bool, str]:
    b = determine_b_s1(max_k).b
    b_prime = determine_b_prime(max_k)
    for l, (x, y) in enumerate(zip(b, b_prime)):
        if x != y:
            return False, f"index {l}: b={x} vs b'={y}"
    return True, ""


def _check_engine_vs_lehn_grid(U: UniversalSeriesSet, order: int) -> tuple[bool, str]:
    grid = itertools.product(range(-3, 4), range(-3, 4), range(-3, 4), (0, 12, 24))
    for inv in itertools.starmap(SurfaceInvariants, grid):
        engine = segre_series(inv, order, U).coefficients
        oracle = lehn_series(inv, order).coefficients
        if engine != oracle:
            k = next(k for k, (x, y) in enumerate(zip(engine, oracle)) if x != y)
            return False, (
                f"{_fmt_inv(inv)}, k={k}: engine {format_rational(engine[k])} "
                f"vs lehn {format_rational(oracle[k])}"
            )
    return True, ""


def _check_s5_polynomial(U: UniversalSeriesSet) -> tuple[bool, list[str]]:
    details: list[str] = []
    for target in blowup_targets(5):
        value = eval_s5_polynomial(target.invariants)
        if value != 0:
            details.append(f"  nonzero at {_fmt_inv(target.invariants)}: {value}")
    rng = random.Random(90517)
    for _ in range(20):
        inv = SurfaceInvariants(
            rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-10, 30)
        )
        polynomial = eval_s5_polynomial(inv)
        engine = segre_number(inv, 5, U)
        if polynomial != engine:
            details.append(
                f"  transcription discrepancy at {_fmt_inv(inv)}: "
                f"polynomial {format_rational(polynomial)} vs engine {format_rational(engine)}"
            )
            for probe, delta in s5_transcription_probe(U):
                if delta != 0:
                    details.append(
                        f"  probe {_fmt_inv(probe)}: 120*(polynomial-engine) = {delta}"
                    )
            break
    return not details, details


def _check_degenerate_family(U: UniversalSeriesSet, order: int) -> tuple[bool, str]:
    for kappa in (1, 2, 3):
        inv = SurfaceInvariants(0, 2 * kappa, kappa, 11 * kappa)
        engine = segre_series(inv, order, U)
        oracle = lehn_series(inv, order)
        for k in range(1, order + 1):
            if engine[k] != 0:
                return False, f"engine nonzero at {_fmt_inv(inv)}, k={k}: {engine[k]}"
            if oracle[k] != 0:
                return False, f"lehn nonzero at {_fmt_inv(inv)}, k={k}: {oracle[k]}"
    return True, ""


def cmd_verify(args: argparse.Namespace) -> int:
    max_k = args.max_k
    if max_k < 2:
        print("--max-k must be at least 2", file=sys.stderr)
        return 2
    order = args.max_order if args.max_order is not None else _default_order()
    engine_order = max(order, 5)
    base = universal_series_set(engine_order)
    if args.inject_fault:
        coefficients = list(base.D.coefficients)
        coefficients[2] += 1
        base = UniversalSeriesSet(
            base.A, base.B, base.C, TruncatedPowerSeries(coefficients)
        )
    lines: list[str] = []
    total = 0
    failures = 0

    def add(name: str, ok: bool, detail: str = "") -> None:
        nonlocal total, failures
        total += 1
        if ok:
            lines.append(f"{name}: PASS")
        else:
            failures += 1
            lines.append(f"{name}: FAIL (first counterexample: {detail})")

    ok, detail = _check_kernel_roundtrips(order)
    add("kernel-roundtrips", ok, detail)
    ok, detail = _check_closed_vs_recursion(max_k)
    add("closed-vs-recursion", ok, detail)
    ok, detail = _check_pascal_identity(max_k)
    add("pascal-identity", ok, detail)
    ok, detail = _check_b_vs_bprime(max_k)
    add("b-vs-bprime", ok, detail)
    ok, detail = _check_engine_vs_lehn_grid(base, order)
    add("engine-vs-lehn-grid", ok, detail)
    for k, batch in _grouped_vanishings(max_k):
        total += 1
        values = ", ".join(format_rational(c) for _, _, c in batch)
        if all(c == 0 for _, _, c in batch):
            lines.append(f"lehn-vanishing k={k}: {values} PASS")
        else:
            failures += 1
            first = next((inv, c) for _, inv, c in batch if c != 0)
            lines.append(
                f"lehn-vanishing k={k}: {values} FAIL "
                f"(first counterexample: {_fmt_inv(first[0])} -> {first[1]})"
            )
    ok, details = _check_s5_polynomial(base)
    add("s5-polynomial", ok, details[0].strip() if details else "")
    lines.extend(details)
    ok, detail = _check_degenerate_family(base, order)
    add("degenerate-family", ok, detail)

    lines.append(f"verify: {total - failures}/{total} checks passed")
    _emit("".join(line + "\n" for line in lines), args.output)
    return 0 if failures == 0 else 1


def _grouped_vanishings(max_k: int):
    report = verify_lehn_vanishings(max_k)
    for k in range(2, max_k + 1):
        batch = [entry for entry in report if entry[0] == k]
        yield k, batch


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
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
    p_number.add_argument("--k", type=_nonnegative, required=True)
    p_number.add_argument("--order", type=_nonnegative, default=None,
                          help="minimum truncation order for the engine")
    p_number.add_argument("--all-routes", action="store_true",
                          help="also print the closed (when applicable) and lehn values")
    _add_format_flags(p_number)
    p_number.set_defaults(func=cmd_number)

    p_series = sub.add_parser("series", help="coefficients of a determined or generating series")
    p_series.add_argument("--which", choices=("A", "B", "C", "D", "s", "lehn"), required=True)
    p_series.add_argument("--order", type=_nonnegative, default=None)
    _add_tuple_flags(p_series, required=False)
    _add_format_flags(p_series)
    p_series.set_defaults(func=cmd_series)

    p_lehn = sub.add_parser("lehn", help="one Segre number via the Lehn generating function")
    _add_tuple_flags(p_lehn, required=True)
    p_lehn.add_argument("--k", type=_nonnegative, required=True)
    _add_format_flags(p_lehn)
    p_lehn.set_defaults(func=cmd_lehn)

    p_verify = sub.add_parser("verify", help="run the cross-validation suite")
    p_verify.add_argument("--max-k", type=_nonnegative, default=8)
    p_verify.add_argument("--max-order", type=_nonnegative, default=None)
    p_verify.add_argument("--inject-fault", action="store_true",
                          help="testing aid: corrupt one engine coefficient, the suite must FAIL")
    p_verify.add_argument("--output", metavar="PATH", help="write the report to a file")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
