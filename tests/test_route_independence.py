"""The routes stay independent: an `ast` guard over the package source.

No route may compute its answer from another route's output, and the
published s_5 that the s5-polynomial check compares with the engine
stays data, a literal table that no route computes.  The guard
reads the source of a directory of modules, so it runs unchanged on a
deliberately broken copy, its negative control.
"""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

import pytest

import hilbsegre

SRC = Path(hilbsegre.__file__).parent

#: All that the Lehn route may take from the engine's module.
LEHN_MAY_IMPORT = {"UNIT_TUPLES", "SurfaceInvariants", "UniversalSeriesSet", "blowup_targets"}

#: The functions of `k3` that make up the closed-formula route.
CLOSED_ROUTE = ("closed_segre",)

#: The published 5! s_5 in `lehn`: data, which no route may compute.
PUBLISHED_TABLE = "_S5_TIMES_120"


def _is_universal(dotted: str | None) -> bool:
    return (dotted or "").rsplit(".", 1)[-1] == "universal"


def _bound_from_universal(tree: ast.Module) -> set[str]:
    """The names a module binds from `universal`, the module itself included."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_universal(node.module):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias for alias in node.names if _is_universal(alias.name)]
            bound |= {alias.asname or alias.name for alias in names}
    return bound


def _identifiers(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _is_int_constant(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _published_table_violations(tree: ast.Module) -> list[str]:
    """Every assignment of `PUBLISHED_TABLE` is a dict literal of integer constants."""
    values = [
        node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == PUBLISHED_TABLE for target in node.targets)
    ]
    if not values:
        return [f"lehn.py assigns no {PUBLISHED_TABLE}"]
    return [
        f"lehn.py assigns {PUBLISHED_TABLE} other than a dict literal of integer constants"
        for value in values
        if not isinstance(value, ast.Dict) or not all(
            isinstance(key, ast.Tuple) and all(map(_is_int_constant, key.elts)) and _is_int_constant(c)
            for key, c in zip(value.keys, value.values)
        )
    ]


def route_independence_violations(src: Path) -> list[str]:
    """One line per breach of the route-independence rules by the modules in `src`."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    extra = _bound_from_universal(trees["lehn.py"]) - LEHN_MAY_IMPORT
    violations = [f"lehn.py imports {name} from universal" for name in sorted(extra)]
    engine = _bound_from_universal(trees["k3.py"])
    for node in ast.walk(trees["k3.py"]):
        if isinstance(node, ast.FunctionDef) and node.name in CLOSED_ROUTE:
            used = sorted(engine & {n.id for n in ast.walk(node) if isinstance(n, ast.Name)})
            violations += [f"k3.{node.name} references {name} from universal" for name in used]
    for name, tree in trees.items():
        if name != "universal.py" and "_universal_logs" in set(_identifiers(tree)):
            violations.append(f"{name} references _universal_logs")
    return violations + _published_table_violations(trees["lehn.py"])


def test_the_package_keeps_its_routes_independent():
    assert route_independence_violations(SRC) == []


LEHN_IMPORT = "from .universal import UNIT_TUPLES, SurfaceInvariants, UniversalSeriesSet, blowup_targets"
CLOSED_RETURN = "    return Fraction(binomial << k)"
ENGINE_RETURN = "    return segre_series(SurfaceInvariants(2 * g - 2, 0, 0, 24), k, universal_series_set(k))[k]"
TABLE_END = "    (0, 0, 0, 1): -117120,\n}\n"


@pytest.mark.parametrize(
    ("module", "old", "new", "violations"),
    [
        ("lehn.py", LEHN_IMPORT, LEHN_IMPORT + ", segre_series",
         ["lehn.py imports segre_series from universal"]),
        ("k3.py", CLOSED_RETURN, ENGINE_RETURN, [
            f"k3.closed_segre references {name} from universal"
            for name in ("SurfaceInvariants", "segre_series", "universal_series_set")
        ]),
        ("k3.py", "from .universal import ", "from .universal import _universal_logs, ",
         ["k3.py references _universal_logs"]),
        ("lehn.py", TABLE_END, TABLE_END + "_S5_TIMES_120 = {m: c for m, c in _S5_TIMES_120.items()}\n",
         ["lehn.py assigns _S5_TIMES_120 other than a dict literal of integer constants"]),
        ("lehn.py", "(5, 0, 0, 0): 1,", "(5, 0, 0, 0): 120 // 120,",
         ["lehn.py assigns _S5_TIMES_120 other than a dict literal of integer constants"]),
        ("lehn.py", "_S5_TIMES_120 = {", "_S5_PUBLISHED = {", ["lehn.py assigns no _S5_TIMES_120"]),
    ],
    ids=[
        "lehn-imports-the-engine", "closed-formula-reads-the-engine", "k3-reads-the-solve",
        "s5-table-by-comprehension", "s5-table-computes-a-coefficient", "s5-table-renamed",
    ],
)
def test_the_guard_catches_a_broken_copy(tmp_path, module, old, new, violations):
    for path in SRC.glob("*.py"):
        shutil.copy(path, tmp_path)
    source = (tmp_path / module).read_text()
    assert source.count(old) == 1
    (tmp_path / module).write_text(source.replace(old, new))
    assert route_independence_violations(tmp_path) == violations
