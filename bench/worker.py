"""One benchmark job in a fresh process: reads a JSON job on stdin, prints one JSON line.

The parent (`run.py`) starts one of these per cold repetition, so each
job begins with empty caches, as a user's process does.  Job kinds:

    import      import hilbsegre and report; measures set-up only
    grid_setup  import, then build the order-N series set and z(w), w(z)
    high_order  cold determination at order N, gated on engine == Lehn
                and on the K3 family matching the closed formula
    grid        order-N set-up, then a sweep over the given tuples,
                gated on engine == Lehn and on s_5 == the polynomial
    verify      `hilbsegre verify` in-process through `cli.main`

A job with "trace" set installs the tracer after the import, writes its
spans to that path and reports the per-layer metrics.  A job with
"fault" = [series, index] adds 1 to that coefficient of the engine's
universal series set; the benchmark's own tests use it to show that the
gates catch a wrong coefficient.

Every gated operation is reported as [seconds, failure or null,
reference seconds]; the worker never lets a failing gate crash the job.
The reference is the time of `reference_loop` measured next to the
operation: just before it and every few tuples in a sweep, and as the
mean of a block before and a block after a cold job.  The parent divides
by it to cancel the host's changes of speed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import resource
import statistics
import sys
import time
from fractions import Fraction

from hilbsegre import cli, k3, lehn, universal
from hilbsegre.series import TruncatedPowerSeries
from hilbsegre.universal import SurfaceInvariants, UniversalSeriesSet

from tracing import Tracer

#: Seed-independent tuples evaluated after the grid sweep and covered by
#: its digest: the corners of the sampled box, the K3 and the abelian
#: tuples, and a blow-up vanishing target.
GRID_ANCHORS = (
    (40, 10, 10, 60),
    (-40, -10, -10, -12),
    (40, -10, -10, -12),
    (-40, 10, 10, 60),
    (22, 0, 0, 24),
    (2, 0, 0, 0),
    (28, 4, -1, 25),
)

#: Tuples between two reference timings in a sweep, and reference loops
#: per block around a cold job.
REFERENCE_EVERY = 9
REFERENCE_REPEATS = 21

_SUMMARY_LINE = re.compile(r"^verify: (\d+)/(\d+) checks passed$", re.MULTILINE)


def reference_loop() -> Fraction:
    """Fixed stdlib Fraction arithmetic (about 4 ms), independent of hilbsegre.

    Its instruction mix (small Fractions, gcd, allocation) is the one that
    dominates the program, so host contention slows both alike.
    """
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 1) * Fraction(i + 3, 7 * i + 1)
    return acc


def reference_s(repeats: int = 1) -> float:
    """Median seconds of `repeats` runs of the reference loop."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def series_digest(named_series) -> str:
    """SHA-256 over "name[k]=p/q" lines of every coefficient, in order."""
    digest = hashlib.sha256()
    for name, series in named_series:
        for k, value in enumerate(series.coefficients):
            digest.update(f"{name}[{k}]={value}\n".encode())
    return digest.hexdigest()


def perturb(U: UniversalSeriesSet, which: str, index: int) -> UniversalSeriesSet:
    """A copy of `U` with 1 added to coefficient `index` of series `which`."""
    coefficients = list(getattr(U, which).coefficients)
    coefficients[index] += 1
    return dataclasses.replace(U, **{which: TruncatedPowerSeries(coefficients)})


def engine_set(order: int, fault) -> UniversalSeriesSet:
    U = universal.universal_series_set(order)
    return perturb(U, *fault) if fault else U


def check_determination(U, lehn_U, cov, genus: int) -> tuple[str | None, str]:
    """Gate one determination; returns (first failure or None, digest).

    The engine's A, B, C, D must equal the Lehn-extracted ones exactly,
    and the engine series of the K3 tuple (2g - 2, 0, 0, 24) must equal
    closed_segre(k, g) for every k up to the order.
    """
    failure = None
    for name in "ABCD":
        if getattr(U, name).coefficients != getattr(lehn_U, name).coefficients:
            failure = f"engine {name} differs from the Lehn-extracted {name}"
            break
    if failure is None:
        inv = SurfaceInvariants(2 * genus - 2, 0, 0, 24)
        engine = universal.segre_series(inv, U.order, U)
        for k in range(U.order + 1):
            if engine[k] != k3.closed_segre(k, genus):
                failure = f"K3 genus {genus}, k={k}: engine {engine[k]} vs closed"
                break
    zw, wz = cov
    digest = series_digest(
        [("A", U.A), ("B", U.B), ("C", U.C), ("D", U.D), ("z(w)", zw), ("w(z)", wz)]
    )
    return failure, digest


def check_tuple(raw, order: int, U: UniversalSeriesSet):
    """Gate one tuple: engine == Lehn to order N, and s_5 == the polynomial.

    Returns (first failure or None, engine series or None if it raised).
    """
    inv = SurfaceInvariants(*raw)
    try:
        engine = universal.segre_series(inv, order, U)
        oracle = lehn.lehn_series(inv, order)
        if engine.coefficients != oracle.coefficients:
            k = next(i for i, (a, b) in enumerate(zip(engine, oracle)) if a != b)
            return f"{raw}, k={k}: engine {engine[k]} vs lehn {oracle[k]}", engine
        if order >= 5 and engine[5] != lehn.eval_s5_polynomial(inv):
            return f"{raw}: s_5 {engine[5]} differs from the polynomial", engine
    except Exception as exc:  # a crash in one tuple is a failed operation
        return f"{raw}: {type(exc).__name__}: {exc}", None
    return None, engine


def sweep(tuples, order: int, U: UniversalSeriesSet, seconds: float | None) -> list:
    """Cycle through `tuples` until `seconds` pass, or once when None."""
    ops = []
    clock = time.perf_counter
    start = clock()
    while True:
        if seconds is None:
            if len(ops) == len(tuples):
                break
        elif ops and clock() - start >= seconds:
            break
        if len(ops) % REFERENCE_EVERY == 0:
            reference = reference_s()
        t0 = clock()
        failure, _ = check_tuple(tuples[len(ops) % len(tuples)], order, U)
        ops.append([clock() - t0, failure, reference])
    return ops


def check_anchors(order: int, U: UniversalSeriesSet, cov) -> tuple[str | None, str]:
    """Gate the anchor tuples; the digest covers U, z(w), w(z) and their series."""
    named = [("A", U.A), ("B", U.B), ("C", U.C), ("D", U.D),
             ("z(w)", cov[0]), ("w(z)", cov[1])]
    first_failure = None
    for raw in GRID_ANCHORS:
        failure, engine = check_tuple(raw, order, U)
        first_failure = first_failure or failure
        if engine is not None:
            named.append((str(raw), engine))
    return first_failure, series_digest(named)


def verify_once(argv) -> tuple[str | None, str]:
    """Run `hilbsegre <argv>` in-process; returns (failure or None, report digest)."""
    report = io.StringIO()
    try:
        with contextlib.redirect_stdout(report):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse and option errors exit
        code = exc.code
    text = report.getvalue()
    digest = hashlib.sha256(text.encode()).hexdigest()
    if code != 0:
        return f"exit code {code}", digest
    summary = _SUMMARY_LINE.search(text)
    if summary is None or summary[1] != summary[2]:
        return f"not every check passed: {summary[0] if summary else 'no summary line'}", digest
    return None, digest


def run_job(job: dict) -> dict:
    """Run one job after the import; "ready" marks the end of its set-up."""
    tracer = None
    if job.get("trace"):
        tracer = Tracer()
        tracer.install()
    kind = job["kind"]
    cold = kind in ("high_order", "verify")
    result: dict = {"ops": [], "digest": None}
    clock = time.perf_counter
    if cold:
        before = reference_s(REFERENCE_REPEATS)
    start = clock()
    if kind in ("grid", "grid_setup"):
        order = job["order"]
        U = engine_set(order, job.get("fault"))
        cov = lehn.change_of_variable(order)
        result["ready"] = time.monotonic()
        if kind == "grid":
            result["ops"] = sweep(job["tuples"], order, U, job.get("seconds"))
            result["anchor_failure"], result["digest"] = check_anchors(order, U, cov)
    elif kind == "high_order":
        order = job["order"]
        U = engine_set(order, job.get("fault"))
        cov = lehn.change_of_variable(order)
        lehn_U = lehn.extract_lehn_universal(order)
        failure, result["digest"] = check_determination(U, lehn_U, cov, job["genus"])
    elif kind == "verify":
        failure, result["digest"] = verify_once(job["argv"])
    elif kind != "import":
        raise ValueError(f"unknown job kind {kind!r}")
    result["work_s"] = clock() - start
    if cold:
        reference = (before + reference_s(REFERENCE_REPEATS)) / 2
        result["ops"] = [[result["work_s"], failure, reference]]
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(job["trace"])
    return result


def main() -> int:
    result = {"ready": time.monotonic()}
    result.update(run_job(json.load(sys.stdin)))
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
