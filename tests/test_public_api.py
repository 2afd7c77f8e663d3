"""The public API.

Every `__all__` entry resolves, the package republishes exactly the
modules' names, and each refusal of an out-of-range argument says
which rule it broke.
"""

from __future__ import annotations

import importlib

import pytest

import hilbsegre
from hilbsegre import SurfaceInvariants, TruncatedPowerSeries, UniversalSeriesSet, k3, lehn

MODULES = ("series", "universal", "lehn", "k3")


@pytest.mark.parametrize("name", ["hilbsegre", *(f"hilbsegre.{m}" for m in MODULES)])
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_only_module_names():
    modules = [importlib.import_module(f"hilbsegre.{m}") for m in MODULES]
    union = set().union(*(module.__all__ for module in modules))
    assert set(hilbsegre.__all__) == union
    assert len(hilbsegre.__all__) == len(union)  # no name is published twice
    for module in modules:
        assert [n for n in module.__all__ if getattr(hilbsegre, n) is not getattr(module, n)] == []


_ONE = TruncatedPowerSeries.one(3)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: TruncatedPowerSeries([1], order=-1), "order must be non-negative"),
        (lambda: TruncatedPowerSeries([]), "a series needs at least its constant coefficient"),
        (lambda: TruncatedPowerSeries.identity(0), "identity series needs order >= 1"),
        (lambda: _ONE.truncate(_ONE.order + 1), "cannot truncate to a larger order"),
        (lambda: UniversalSeriesSet(TruncatedPowerSeries.one(2), _ONE, _ONE, _ONE),
         "A, B, C, D must share one truncation order"),
        (lambda: lehn.change_of_variable(0), "change of variable needs order >= 1"),
        (lambda: lehn.lehn_series(SurfaceInvariants(0, 0, 0, 0), -1), "order must be non-negative"),
        (lambda: k3.determine_b_prime(-1), "sequence length must be non-negative"),
    ],
    ids=["negative-order", "no-coefficient", "identity-order-0", "truncate-up",
         "mixed-set-orders", "change-of-variable-order-0", "lehn-negative-order", "b-prime-negative"],
)
def test_refusal_names_its_rule(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message
