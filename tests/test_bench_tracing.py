"""The names that the benchmark's tracer wraps still exist in the package.

`bench/tracing.py` replaces functions and `TruncatedPowerSeries` methods
by name, so a renamed or deleted one breaks the traced benchmark.  The
file is only loaded here: nothing is wrapped or installed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from hilbsegre import TruncatedPowerSeries

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
