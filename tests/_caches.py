"""Empty caches of both cold builds, for a test whose fault a build reads.

`universal._universal_logs` and `lehn._substitution` each keep one build,
at the largest order requested so far.  A fault that a build reads (the
engine's vanishing targets, the cubic, Lehn's exponents) must be built
into empty caches: in a warm cache it would not be seen, and a build it
made in the module's cache would outlive the test.  `empty_caches` puts
a fresh `_grown_by_prefix` cache over each build, which the test's
monkeypatch drops at teardown together with the fault.
"""

from __future__ import annotations

from hilbsegre import lehn, universal
from hilbsegre.series import _grown_by_prefix

#: (module, name) of each cached cold build.
COLD_BUILDS = ((universal, "_universal_logs"), (lehn, "_substitution"))


def empty_caches(monkeypatch) -> None:
    """Put an empty cache over each cold build, until `monkeypatch` undoes it."""
    for module, name in COLD_BUILDS:
        monkeypatch.setattr(module, name, _grown_by_prefix(getattr(module, name).__wrapped__))
