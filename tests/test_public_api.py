"""The public names: every `__all__` entry resolves, and the package republishes exactly the modules'."""

from __future__ import annotations

import importlib

import pytest

import hilbsegre

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
