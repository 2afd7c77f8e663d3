"""Exact Segre numbers of tautological bundles on Hilbert schemes of surfaces.

Three independent constructions of the same numbers, all in exact
rational arithmetic: the closed K3 formula, four universal series pinned
down by vanishing constraints, and the Lehn generating function expanded
from the integer equation of its variable change.  The package
cross-validates the routes against each other; the `hilbsegre` command
exposes everything from the shell.
"""

from .k3 import (
    BSequences,
    closed_segre,
    determine_b_prime,
    determine_b_s1,
    generalized_binomial,
    recursion_segre,
    recursion_table,
)
from .lehn import (
    LehnExponents,
    change_of_variable,
    eval_s5_polynomial,
    extract_lehn_universal,
    lehn_exponents,
    lehn_series,
    verify_lehn_vanishings,
)
from .series import (
    ExactRational,
    TruncatedPowerSeries,
    as_rational,
    format_rational,
    parse_rational,
)
from .universal import (
    SurfaceInvariants,
    UniversalSeriesSet,
    blowup_targets,
    determine_AB,
    determine_CD,
    segre_number,
    segre_series,
    universal_series_set,
)

__version__ = "0.1.0"

__all__ = [
    "BSequences",
    "ExactRational",
    "LehnExponents",
    "SurfaceInvariants",
    "TruncatedPowerSeries",
    "UniversalSeriesSet",
    "as_rational",
    "blowup_targets",
    "change_of_variable",
    "closed_segre",
    "determine_AB",
    "determine_CD",
    "determine_b_prime",
    "determine_b_s1",
    "eval_s5_polynomial",
    "extract_lehn_universal",
    "format_rational",
    "generalized_binomial",
    "lehn_exponents",
    "lehn_series",
    "parse_rational",
    "recursion_segre",
    "recursion_table",
    "segre_number",
    "segre_series",
    "universal_series_set",
    "verify_lehn_vanishings",
]
