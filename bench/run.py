"""hilbsegre benchmark: cold and warm exact Segre workloads, gated on exactness.

    python3 bench/run.py --workload high_order --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds `src/hilbsegre`; the
program is imported from that `src`, nothing is installed.  One client,
one process at a time, closed loop: each job starts after the previous
one ended.  Every job runs in a fresh child process (`worker.py`), so
caches start cold exactly as in a user's process.

With `--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it carries the per-layer metrics from a
separate traced run.  A metadata line precedes it, and failures are
described on stderr.  See README.md in this directory for the workloads
and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"

WORKLOADS = ("high_order", "grid_sweep", "verify")

#: Fresh processes that only import (before each cold repetition) or,
#: for grid_sweep, import and build the order-N set (half before and half
#: after the sweep), to sample set-up time across the whole run.  One
#: more warms the bytecode cache first and is not counted.
IMPORT_PROBES_PER_REP = 5
GRID_SETUP_PROBES = 6
#: Every child must end within this many seconds of the run's start.
RUN_BUDGET_S = 170.0


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; the defaults are the benchmark, tests shrink them.

    `fault` = (series, index) makes every engine universal series set in
    the children wrong by 1 in that coefficient; it is a negative control
    for the gates and is never set by the command line.
    """

    high_order: int = 32
    grid_order: int = 16
    grid_tuples: int = 243
    verify_argv: tuple[str, ...] = ("verify",)
    fault: tuple[str, int] | None = None


class Run:
    """Counts gated operations and starts child jobs for one benchmark run."""

    def __init__(self, digests: dict[str, str]):
        self.digests = digests
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.meta: dict = {}  # sample counts and raw timings for the metadata line

    def record(self, failure: str | None) -> None:
        self.attempted += 1
        if failure:
            self.failed += 1
            self.failures.append(failure)

    def child(self, job: dict) -> dict | None:
        """Run one job in a fresh process; None (and one failed op) if it crashed."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py")],
                input=json.dumps(job),
                capture_output=True,
                text=True,
                env=env,
                cwd=ROOT,
                timeout=max(1.0, self.deadline - spawn),
            )
        except subprocess.TimeoutExpired:
            self.record(f"{job['kind']} job did not finish within the run budget")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
            self.record(f"{job['kind']} job exited with {proc.returncode}: {tail[0]}")
            return None
        result = json.loads(proc.stdout.splitlines()[-1])
        result["setup_s"] = result["ready"] - spawn
        for _, failure, _ in result["ops"]:
            self.record(failure)
        return result

    def check_digest(self, key: str, digest: str | None) -> None:
        """One gated operation: the outputs' SHA-256 must match the stored one."""
        expected = self.digests.get(key)
        if digest != expected:
            self.record(f"digest of {key!r} is {digest}, stored {expected}")
        else:
            self.record(None)


def ok_ops(result: dict) -> list[tuple[float, float]]:
    """(seconds, reference seconds) of every operation that passed its gates."""
    return [(seconds, reference) for seconds, failure, reference in result["ops"]
            if failure is None]


def grid_tuples(rng: random.Random, count: int) -> list[list[int]]:
    """`count` tuples; each coordinate walks seeded shuffles of its range.

    Shuffled cycles keep every coordinate's value mix (and so the mix of
    exponent sizes that drives the cost) the same for every seed, while
    the tuples themselves differ.
    """
    columns = []
    for low, high in ((-40, 40), (-10, 10), (-10, 10), (-12, 60)):
        values: list[int] = []
        while len(values) < count:
            cycle = list(range(low, high + 1))
            rng.shuffle(cycle)
            values.extend(cycle)
        columns.append(values[:count])
    return [list(row) for row in zip(*columns)]


def workload_job(workload: str, rng: random.Random, sizes: Sizes) -> tuple[dict, str]:
    """The job a repetition runs, and the key of its stored digest."""
    fault = list(sizes.fault) if sizes.fault else None
    if workload == "high_order":
        job = {"kind": "high_order", "order": sizes.high_order,
               "genus": rng.randint(2, 40), "fault": fault}
        return job, f"high_order order={sizes.high_order}"
    if workload == "grid_sweep":
        job = {"kind": "grid", "order": sizes.grid_order,
               "tuples": grid_tuples(rng, sizes.grid_tuples), "fault": fault}
        return job, f"grid_sweep order={sizes.grid_order}"
    return {"kind": "verify", "argv": list(sizes.verify_argv)}, " ".join(sizes.verify_argv)


def measure(run: Run, workload: str, job: dict, digest_key: str, seconds: float) -> dict:
    """End-to-end metrics with tracing off."""
    run.child({"kind": "import"})  # fills the bytecode cache; not a sample
    if workload == "grid_sweep":
        probe = {"kind": "grid_setup", "order": job["order"], "fault": job["fault"]}
        probes = [run.child(probe) for _ in range(GRID_SETUP_PROBES // 2)]
        main = run.child(dict(job, seconds=seconds))
        probes += [run.child(probe) for _ in range(GRID_SETUP_PROBES - len(probes))]
        reps = [main] if main else []
    else:
        probes = []
        reps = []
        start = time.monotonic()
        attempts = 0
        while attempts == 0 or time.monotonic() - start < seconds:
            attempts += 1
            probes += [run.child({"kind": "import"}) for _ in range(IMPORT_PROBES_PER_REP)]
            result = run.child(job)
            if result:
                reps.append(result)
    for result in reps:
        run.check_digest(digest_key, result["digest"])
        if workload == "grid_sweep":
            run.record(result["anchor_failure"])
    ops = [op for result in reps for op in ok_ops(result)]
    setups = [result["setup_s"] for result in probes + reps if result]
    rss = [result["rss_kb"] / 1024 for result in reps]
    run.meta["samples"] = {"setup_s": len(setups), "op_time_ref": len(ops), "peak_rss_mb": len(rss)}
    if not (ops and setups and rss):
        return {}
    run.meta["op_p50_ms"] = statistics.median(s for s, _ in ops) * 1e3
    run.meta["reference_p50_ms"] = statistics.median(r for _, r in ops) * 1e3
    return {
        "setup_s": statistics.median(setups),
        "op_time_ref": statistics.median(s / r for s, r in ops),
        "peak_rss_mb": statistics.median(rss),
    }


def trace(run: Run, workload: str, job: dict, digest_key: str) -> dict:
    """Per-layer metrics: one untraced and two traced runs of the same job.

    The work is fixed (one determination, one pass over the tuples, one
    verify), so every count must repeat exactly between the two traced
    runs; a difference is a failed operation.
    """
    if workload == "grid_sweep":
        job = dict(job, seconds=None)
    SPANS_DIR.mkdir(exist_ok=True)
    results = [run.child(job)]
    for i in (1, 2):
        results.append(run.child(dict(job, trace=str(SPANS_DIR / f"{workload}_{i}.jsonl"))))
    for result in results:
        if result:
            run.check_digest(digest_key, result["digest"])
            if workload == "grid_sweep":
                run.record(result["anchor_failure"])
    if not all(results):
        return {}
    untraced, first, second = results
    exact = [name for name in first["layers"] if name.endswith((".calls", ".coeff_bits_max"))]
    differing = [name for name in exact if first["layers"][name] != second["layers"][name]]
    run.record(f"counts differ between traced runs: {differing}" if differing else None)
    metrics = {
        name: (value if name in exact else (value + second["layers"][name]) / 2)
        for name, value in first["layers"].items()
    }
    traced_s = (first["work_s"] + second["work_s"]) / 2
    metrics["trace.overhead_frac"] = (traced_s - untraced["work_s"]) / untraced["work_s"]
    run.meta["samples"] = {"traced_runs": 2, "untraced_runs": 1}
    return metrics


def load_digests() -> dict[str, str]:
    with open(BENCH / "digests.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 sizes: Sizes = Sizes()) -> tuple[Run, dict]:
    """Run one workload; returns the run's counters and its metric values."""
    run = Run(load_digests())
    job, digest_key = workload_job(workload, random.Random(seed), sizes)
    if traced:
        return run, trace(run, workload, job, digest_key)
    return run, measure(run, workload, job, digest_key, seconds)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "hilbsegre" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no hilbsegre checkout at {ROOT}: need src/hilbsegre and BENCHMARK.json",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    sizes = Sizes()
    run, values = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        run.record(f"metrics not measured: {missing}")
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    meta = {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": asdict(sizes),
        **run.meta,
    }
    print(json.dumps({"meta": meta}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
