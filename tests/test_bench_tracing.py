"""The names that the benchmark's tracer and worker use still exist in the package.

`bench/tracing.py` replaces functions and `TruncatedPowerSeries` methods
by name, and `bench/worker.py` imports from the package and calls its
modules' functions, so a renamed or deleted one breaks the benchmark.
The tracer is only loaded here and the worker only parsed: nothing is
wrapped, installed or run.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path
from types import ModuleType

from hilbsegre import TruncatedPowerSeries, UniversalSeriesSet

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
WORKER = BENCH / "worker.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load_tracing()
    for module_name, attribute in tracing.TRACED_FUNCTIONS:
        module = importlib.import_module(f"hilbsegre.{module_name}")
        assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute}"
    for attribute in tracing.TRACED_METHODS.values():
        assert attribute in vars(TruncatedPowerSeries), attribute


def _imported(module_name: str, name: str):
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    return importlib.import_module(f"{module_name}.{name}")  # a submodule not yet imported


def test_every_worker_import_and_module_attribute_resolves():
    tree = ast.parse(WORKER.read_text(), filename=str(WORKER))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hilbsegre"):
            for alias in node.names:
                bound[alias.asname or alias.name] = _imported(node.module, alias.name)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = bound.get(node.value.id)
            if isinstance(module, ModuleType):
                assert hasattr(module, node.attr), f"{node.value.id}.{node.attr}"
                read.add(node.attr)
    assert {"cli", "k3", "lehn", "universal", "UniversalSeriesSet"} <= set(bound)
    assert {"main", "closed_segre", "lehn_series", "universal_series_set"} <= read


def test_series_set_fields_are_the_four_unit_series():
    # the worker's `perturb` replaces one field of the set by its name
    assert [field.name for field in dataclasses.fields(UniversalSeriesSet)] == list("ABCD")
