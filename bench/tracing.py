"""Span tracing of the hilbsegre layers, installed from outside the package.

`Tracer.install` replaces each traced public function with a wrapper on
every binding a caller can resolve: the defining module, every other
hilbsegre module that imported the name (`hilbsegre.cli.universal_series_set`,
`hilbsegre.lehn.segre_number`, ...), and the package namespace.  The
`TruncatedPowerSeries` methods are replaced on the class itself, so
operators such as `a * b` reach the wrapper too.  The replacement lasts
for the life of the process; the benchmark installs it only in a child
process that exists to run one traced job.

Each call becomes a span (id, parent id, name, start, end) kept in
memory.  Self time is a span's duration minus the durations of its
direct child spans; the process runs one thread, so child spans never
overlap and the subtraction is exact.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from fractions import Fraction

#: (module, attribute) of every traced public function.  The span name is
#: "<module>.<attribute>", except for `cmd_verify`, whose span is named
#: after the subcommand it implements.
TRACED_FUNCTIONS = (
    ("k3", "determine_b_s1"),
    ("k3", "closed_segre"),
    ("k3", "recursion_segre"),
    ("k3", "determine_b_prime"),
    ("universal", "determine_AB"),
    ("universal", "determine_CD"),
    ("universal", "universal_series_set"),
    ("universal", "segre_series"),
    ("universal", "segre_number"),
    ("lehn", "change_of_variable"),
    ("lehn", "lehn_series"),
    ("lehn", "extract_lehn_universal"),
    ("lehn", "eval_s5_polynomial"),
    ("lehn", "verify_lehn_vanishings"),
    ("cli", "cmd_verify"),
)
SPAN_ALIASES = {"cli.cmd_verify": "cli.verify"}

#: Span name suffix -> TruncatedPowerSeries attribute.
TRACED_METHODS = {
    "mul": "__mul__",
    "div": "__truediv__",
    "pow": "pow",
    "exp": "exp",
    "log": "log",
    "compose": "compose",
    "revert": "revert",
}

#: Layers whose return values are scanned for the largest numerator or
#: denominator bit length.
BITS_LAYERS = ("universal", "lehn")


def coeff_bits(value) -> int:
    """Largest numerator or denominator bit length found in `value`.

    Walks Fractions, power series (anything with `coefficients`), the
    A/B/C/D fields of a universal series set, and tuples or lists of
    these; everything else counts as 0.
    """
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (tuple, list)):
        return max((coeff_bits(item) for item in value), default=0)
    coefficients = getattr(value, "coefficients", None)
    if coefficients is not None:
        return coeff_bits(coefficients)
    if all(hasattr(value, name) for name in "ABCD"):
        return coeff_bits([value.A, value.B, value.C, value.D])
    return 0


class Tracer:
    """In-memory spans and per-name counters for one process."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.durations_ns: dict[str, list[int]] = {}
        self.bits = {layer: 0 for layer in BITS_LAYERS}
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._next_id = 0

    def wrap(self, name: str, fn, bits_layer: str | None = None):
        """A wrapper around `fn` that records one span per call."""
        self.calls[name] = 0
        self.self_ns[name] = 0
        self.durations_ns[name] = []
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0]
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                duration = end - start
                self.spans.append(
                    (span_id, parent[0] if parent else None, name, start, end)
                )
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
                self.durations_ns[name].append(duration)
                if parent is not None:
                    parent[1] += duration
            if bits_layer is not None:
                scan_start = clock()
                bits = coeff_bits(result)
                if bits > self.bits[bits_layer]:
                    self.bits[bits_layer] = bits
                if parent is not None:
                    # The scan is tracing work: keep it out of the caller's self time.
                    parent[1] += clock() - scan_start
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function binding and series method."""
        import hilbsegre
        from hilbsegre import cli, k3, lehn, series, universal

        modules = {"k3": k3, "universal": universal, "lehn": lehn, "cli": cli}
        namespaces = [hilbsegre, *modules.values()]
        for module_name, attribute in TRACED_FUNCTIONS:
            original = getattr(modules[module_name], attribute)
            name = f"{module_name}.{attribute}"
            wrapper = self.wrap(
                SPAN_ALIASES.get(name, name),
                original,
                module_name if module_name in BITS_LAYERS else None,
            )
            for namespace in namespaces:
                if vars(namespace).get(attribute) is original:
                    setattr(namespace, attribute, wrapper)
        cls = series.TruncatedPowerSeries
        for short, attribute in TRACED_METHODS.items():
            setattr(cls, attribute, self.wrap(f"series.{short}", vars(cls)[attribute]))

    def layer_metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: calls, self_s and p50_ms per span name."""
        metrics: dict[str, float] = {}
        for name, calls in self.calls.items():
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = self.self_ns[name] / 1e9
            durations = self.durations_ns[name]
            metrics[f"{name}.p50_ms"] = (
                statistics.median(durations) / 1e6 if durations else 0.0
            )
        for layer, bits in self.bits.items():
            metrics[f"{layer}.coeff_bits_max"] = bits
        return metrics

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
