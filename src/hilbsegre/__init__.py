"""Exact Segre numbers of tautological bundles on Hilbert schemes of surfaces.

Three independent constructions of the same numbers, all in exact
rational arithmetic: the closed K3 formula, four universal series pinned
down by vanishing constraints, and the Lehn generating function expanded
from the integer equation of its variable change.  The package
cross-validates the routes against each other; the `hilbsegre` command
exposes everything from the shell.

The package republishes the `__all__` of `series`, `universal`, `lehn`
and `k3`; each module's list is the one statement of its public names.
"""

from . import k3, lehn, series, universal
from .k3 import *  # noqa: F401,F403
from .lehn import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .universal import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*series.__all__, *universal.__all__, *lehn.__all__, *k3.__all__]
