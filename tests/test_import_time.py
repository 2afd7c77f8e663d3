"""Importing the package does no work: an `ast` guard over its source.

No module-level assignment or expression statement in the package may
evaluate a comprehension, or call package code, when the module is
imported: tables of derived values are built when a function needs them,
so each value has one source and a fault in that source reaches every
reader.  A call inside a `lambda` runs only when the lambda is called,
so it does not count; decorators wrap a function and compute nothing,
so they are not bindings here.  `UNIT_TUPLES`, four literal tuples, is
the one binding allowed to call package code.  As in
`test_route_independence`, the guard reads a directory of modules, so
it runs unchanged on a deliberately broken copy, its negative control.
"""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

import pytest

import hilbsegre

SRC = Path(hilbsegre.__file__).parent

#: The module-level bindings that may call package code at import.
ALLOWED = {"UNIT_TUPLES"}

COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _package_names(tree: ast.Module) -> set[str]:
    """The names a module binds to package code: its own functions and classes, and its package imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("hilbsegre")):
            names |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.asname or "hilbsegre" for alias in node.names if alias.name.startswith("hilbsegre")}
    return names


def _evaluated(node: ast.AST):
    """`node` and the nodes under it that run when it is evaluated: a lambda runs only its defaults."""
    yield node
    if isinstance(node, ast.Lambda):
        children = [*node.args.defaults, *filter(None, node.args.kw_defaults)]
    else:
        children = ast.iter_child_nodes(node)
    for child in children:
        yield from _evaluated(child)


def _root(node: ast.AST) -> str | None:
    """The name an attribute chain such as `a.b.c` starts from."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def _import_time_work(value: ast.AST, package: set[str]) -> str | None:
    for node in _evaluated(value):
        if isinstance(node, COMPREHENSIONS):
            return "evaluates a comprehension"
        if isinstance(node, ast.Call) and _root(node.func) in package:
            return f"calls {ast.unparse(node.func)}"
    return None


def import_time_violations(src: Path) -> list[str]:
    """One line per module-level binding or statement in `src` that does work at import."""
    violations = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        package = _package_names(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value is not None:
                targets = [node.target]
            elif isinstance(node, ast.Expr):
                targets = []
            else:
                continue
            names = [ast.unparse(target) for target in targets]
            if names and set(names) <= ALLOWED:
                continue
            work = _import_time_work(node.value, package)
            if work:
                violations.append(f"{path.name}: {', '.join(names) or 'a statement'} {work} at import")
    return violations


def test_importing_the_package_does_no_work():
    assert import_time_violations(SRC) == []


CUBIC = "_CUBIC = ((0, 1, -8, 16), (1, -18, 108, -216))\n"
UNIT_WEIGHTS = """
_UNIT_WEIGHTS = {
    name: tuple(int(12 * x) for x in (exps.a, exps.b, -exps.c))
    for name, exps in zip(UNIT_TUPLES, map(lehn_exponents, UNIT_TUPLES.values()))
}
"""
MAX_ORDER = "MAX_ORDER = 64\n"


@pytest.mark.parametrize(
    ("module", "old", "new", "violations"),
    [
        ("lehn.py", CUBIC, CUBIC + UNIT_WEIGHTS, ["lehn.py: _UNIT_WEIGHTS evaluates a comprehension at import"]),
        ("cli.py", MAX_ORDER, MAX_ORDER + "_DEFAULT_SET = universal_series_set(DEFAULT_ORDER)\n",
         ["cli.py: _DEFAULT_SET calls universal_series_set at import"]),
        ("series.py", "Scalar = ", "_ONE = TruncatedPowerSeries.one(0)\nScalar = ",
         ["series.py: _ONE calls TruncatedPowerSeries.one at import"]),
        ("lehn.py", CUBIC, CUBIC + "lehn_series(UNIT_TUPLES['B'], 8)\n",
         ["lehn.py: a statement calls lehn_series at import"]),
        ("universal.py", "UNIT_TUPLES = {", "_UNITS = {", ["universal.py: _UNITS calls SurfaceInvariants at import"]),
        ("cli.py", MAX_ORDER, MAX_ORDER + "_LATER = lambda: universal_series_set(DEFAULT_ORDER)\n", []),
        ("cli.py", MAX_ORDER, MAX_ORDER + "_LATER = lambda U=universal_series_set(8): U\n",
         ["cli.py: _LATER calls universal_series_set at import"]),
    ],
    ids=[
        "table-by-comprehension", "package-call", "package-method-call", "statement",
        "allowlist-by-name", "call-in-a-lambda", "call-in-a-lambda-default",
    ],
)
def test_the_guard_catches_a_broken_copy(tmp_path, module, old, new, violations):
    for path in SRC.glob("*.py"):
        shutil.copy(path, tmp_path)
    source = (tmp_path / module).read_text()
    assert source.count(old) == 1
    (tmp_path / module).write_text(source.replace(old, new))
    assert import_time_violations(tmp_path) == violations
