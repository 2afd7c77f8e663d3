"""The benchmark's own tests: gates pass on correct code and catch injected faults.

Run from the repository root with `python3 -m pytest bench -q`.  The
workloads are shrunk (orders 10 and 8, 27 tuples, a short verify) so
the whole file takes well under a minute; their digests are stored in
digests.json next to the full-size ones.
"""

from __future__ import annotations

import dataclasses

import pytest

import run

SMALL = run.Sizes(
    high_order=10,
    grid_order=8,
    grid_tuples=27,
    verify_argv=("verify", "--max-k", "3", "--max-order", "4"),
)


def small_run(workload, traced=False, **changes):
    sizes = dataclasses.replace(SMALL, **changes)
    return run.run_workload(workload, seed=7, seconds=0.5, traced=traced, sizes=sizes)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_correct_code_passes_every_gate(workload):
    counters, values = small_run(workload)
    assert counters.failures == []
    assert counters.attempted > 0
    assert set(values) == {"setup_s", "op_time_ref", "peak_rss_mb"}
    assert all(value > 0 for value in values.values())


def test_verify_inject_fault_is_a_failed_operation():
    counters, _ = small_run("verify", verify_argv=SMALL.verify_argv + ("--inject-fault",))
    assert counters.failed / counters.attempted > 0
    assert any("exit code 1" in failure for failure in counters.failures)


@pytest.mark.parametrize(
    ("workload", "message"),
    [("grid_sweep", "vs lehn"), ("high_order", "differs from the Lehn-extracted C")],
)
def test_perturbed_universal_coefficient_fails_the_cross_check(workload, message):
    counters, _ = small_run(workload, fault=("C", 3))
    assert counters.failed / counters.attempted > 0
    assert any(message in failure for failure in counters.failures)


def test_changed_output_fails_the_digest_gate(monkeypatch):
    stored = run.load_digests()
    key = f"high_order order={SMALL.high_order}"
    monkeypatch.setattr(run, "load_digests", lambda: {**stored, key: "0" * 64})
    counters, _ = small_run("high_order")
    assert counters.failed > 0
    assert all(failure.startswith(f"digest of {key!r}") for failure in counters.failures)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, layers = small_run(workload, traced=True)
    second, again = small_run(workload, traced=True)
    assert first.failures == [] and second.failures == []
    exact = [name for name in layers if name.endswith((".calls", ".coeff_bits_max"))]
    assert exact and {n: layers[n] for n in exact} == {n: again[n] for n in exact}
    assert "trace.overhead_frac" in layers
