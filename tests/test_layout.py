"""The package holds what the reproduction runs; test references live in ``tests/``.

Two layout rules, checked on the source text:

* no module under ``src/repro`` imports ``tests.reference`` (or anything
  else under ``tests``): the frozen references serve the tests and benches,
  never the package;
* every public top-level function and class of ``src/repro`` is reached from
  ``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/``.  A reference is
  a name, attribute, imported name or identifier-like string constant
  anywhere in those trees, except a module's ``__all__`` and the relative
  re-exports of a package ``__init__``.  A reference made inside a top-level
  definition only counts once that definition is itself reached, so a chain
  of names that only tests call is caught whole.  Names are matched by their
  spelling, like a whole-word search.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
USER_TREES = ("src", "examples", "benchmarks", "perfbench")

#: Public names kept although only tests reach them, each with its reason.
ALLOWED_UNREACHED: Dict[str, str] = {
    "load_schedule": "reads back the schedule JSON that `solve --output` writes; the round trip is that format's check",
    "schedule_from_dict": "the parsing half of load_schedule, the inverse of schedule_to_dict",
    "semantic_modules": "the golden corpus's coverage check (tests/golden/regenerate.py) resolves SEMANTIC_MANIFEST through it",
    "unregister_policy": "the inverse of register_policy at the custom-policy boundary; a caller that registers a policy needs the way back out",
}


def _references(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            yield sub.value


def _is_all(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets
    )


def _package_modules() -> List[Path]:
    return sorted(PACKAGE.rglob("*.py"))


def _scan():
    """``(definitions, sites)``: top-level defs of the package by name, and
    for every referenced name the enclosing package definitions (``None``
    for code outside any)."""
    definitions: Dict[str, List[str]] = {}
    sites: Dict[str, List[Optional[str]]] = {}
    for tree_name in USER_TREES:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            relpath = path.relative_to(ROOT).as_posix()
            in_package = path.is_relative_to(PACKAGE)
            module = ast.parse(path.read_text(encoding="utf-8"), relpath)
            for stmt in module.body:
                if _is_all(stmt):
                    continue
                if (
                    in_package
                    and path.name == "__init__.py"
                    and isinstance(stmt, ast.ImportFrom)
                    and stmt.level > 0
                ):
                    continue
                container = None
                if in_package and isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    container = stmt.name
                    definitions.setdefault(stmt.name, []).append(f"{relpath}:{stmt.lineno}")
                for name in _references(stmt):
                    sites.setdefault(name, []).append(container)
    return definitions, sites


def _unreached() -> Dict[str, List[str]]:
    definitions, sites = _scan()
    reached: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for name in definitions:
            if name in reached:
                continue
            if any(
                container is None or (container in reached and container != name)
                for container in sites.get(name, ())
            ):
                reached.add(name)
                changed = True
    return {
        name: where
        for name, where in definitions.items()
        if name not in reached and not name.startswith("_")
    }


def test_no_package_module_imports_the_test_tree():
    offenders = []
    for path in _package_modules():
        module = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                if name == "tests" or name.startswith("tests."):
                    offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert offenders == []


@pytest.fixture(scope="module")
def unreached() -> Dict[str, List[str]]:
    return _unreached()


def test_every_public_name_is_reached_outside_the_tests(unreached):
    unexplained = {
        name: where for name, where in unreached.items() if name not in ALLOWED_UNREACHED
    }
    assert unexplained == {}, (
        "public names only tests reach: delete them, move test references to "
        f"tests/reference, or justify them in ALLOWED_UNREACHED: {unexplained}"
    )


def test_every_allowlist_entry_is_still_needed_and_justified(unreached):
    assert sorted(name for name in ALLOWED_UNREACHED if name not in unreached) == []
    assert all(reason.strip() for reason in ALLOWED_UNREACHED.values())
