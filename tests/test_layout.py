"""The package holds what the reproduction runs; test references live in ``tests/``.

Five layout rules, checked on the source text:

* no module under ``src/repro`` imports ``tests.reference`` (or anything
  else under ``tests``): the frozen references serve the tests and benches,
  never the package;
* every module under ``tests/reference`` is imported from ``tests/`` or
  ``benchmarks/`` outside ``tests/reference``: a reference nothing uses is
  dead code;
* every public top-level function and class of ``src/repro``, and every
  public member (method, property, classmethod or staticmethod) of its
  top-level classes, is reached from ``src/``, ``examples/``,
  ``benchmarks/`` or ``perfbench/``.  A reference is a name, attribute,
  imported name or identifier-like string constant anywhere in those trees,
  except a module's ``__all__`` and the relative re-exports of a package
  ``__init__``.  A reference made inside a definition only counts once that
  definition (and, for a member, its class) is itself reached, so a chain of
  names that only tests call is caught whole.  Code in a private member
  counts once its class is reached.  Names are matched by their spelling,
  like a whole-word search, so a member is reached through any attribute of
  the same name;
* no module under ``src/repro`` or ``examples/`` imports a name it never
  uses.  A use is any name in the module's code, including annotations
  (quoted ones too), or an entry of its ``__all__``.  An import kept for its
  side effect says so with a ``# noqa: F401`` comment on its line;
* HiGHS has one entry point: no module under ``src/repro`` but
  ``lp/scipy_backend.py`` imports ``scipy.optimize.linprog``,
  ``scipy.optimize.milp`` or ``scipy.optimize._highspy`` (or anything under
  it), nor reaches them as attributes (``scipy.optimize.linprog(...)``), so
  every LP solved with HiGHS gets that module's options and checks.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"
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


#: The package definitions a reference sits in: ``()`` outside any, else the
#: top-level definition's name, followed by the public member's name.
Container = Tuple[str, ...]


def _scan(root: Path):
    """``(definitions, sites)``: top-level defs and public class members of the
    package under ``root`` by name, and for every referenced name the
    containers it is referenced from."""
    package = root / "src" / "repro"
    definitions: Dict[str, List[str]] = {}
    sites: Dict[str, List[Container]] = {}

    def record(node: ast.AST, container: Container) -> None:
        for name in _references(node):
            sites.setdefault(name, []).append(container)

    for tree_name in USER_TREES:
        for path in sorted((root / tree_name).rglob("*.py")):
            relpath = path.relative_to(root).as_posix()
            in_package = path.is_relative_to(package)
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
                if not in_package or not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    record(stmt, ())
                    continue
                definitions.setdefault(stmt.name, []).append(f"{relpath}:{stmt.lineno}")
                if not isinstance(stmt, ast.ClassDef):
                    record(stmt, (stmt.name,))
                    continue
                for part in stmt.bases + stmt.keywords + stmt.decorator_list:
                    record(part, (stmt.name,))
                for member in stmt.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not member.name.startswith("_"):
                        definitions.setdefault(member.name, []).append(
                            f"{relpath}:{member.lineno} {stmt.name}.{member.name}"
                        )
                        record(member, (stmt.name, member.name))
                    else:
                        record(member, (stmt.name,))
    return definitions, sites


def _unreached(root: Path = ROOT) -> Dict[str, List[str]]:
    definitions, sites = _scan(root)
    reached: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for name in definitions:
            if name in reached:
                continue
            if any(
                name not in container and all(outer in reached for outer in container)
                for container in sites.get(name, ())
            ):
                reached.add(name)
                changed = True
    return {
        name: where
        for name, where in definitions.items()
        if name not in reached and not name.startswith("_")
    }


def _annotation_strings(module: ast.Module) -> Iterator[str]:
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations = [node.returns] + [
                argument.annotation
                for argument in (
                    arguments.posonlyargs
                    + arguments.args
                    + arguments.kwonlyargs
                    + [arguments.vararg, arguments.kwarg]
                )
                if argument is not None
            ]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub.value


def _unused_imports(path: Path, root: Path = ROOT) -> List[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    module = ast.parse(text, str(path))
    imported: Dict[str, int] = {}
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        if "# noqa: F401" not in lines[node.lineno - 1]:
            imported.update((name, node.lineno) for name in names)
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    for annotation in _annotation_strings(module):
        try:
            parsed = ast.parse(annotation, mode="eval")
        except SyntaxError:
            continue
        used |= {node.id for node in ast.walk(parsed) if isinstance(node, ast.Name)}
    for stmt in module.body:
        if _is_all(stmt):
            used |= {
                node.value for node in ast.walk(stmt.value) if isinstance(node, ast.Constant)
            }
    relpath = path.relative_to(root).as_posix()
    return [
        f"{relpath}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


#: The one package module allowed to import HiGHS, and what counts as doing so.
HIGHS_ENTRY_POINT = "src/repro/lp/scipy_backend.py"
HIGHS_IMPORTS = ("scipy.optimize.linprog", "scipy.optimize.milp", "scipy.optimize._highspy")


def _highs_imports(root: Path = ROOT) -> List[str]:
    """Package modules other than the entry point that import HiGHS."""
    offenders = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        if relpath == HIGHS_ENTRY_POINT:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute):
                # ``scipy.optimize.linprog(...)`` after ``import scipy.optimize``:
                # any attribute spelt like a banned name counts.
                names = [f"scipy.optimize.{node.attr}"]
            else:
                continue
            offenders += [
                f"{relpath}:{node.lineno}: {name}"
                for name in names
                if any(name == banned or name.startswith(banned + ".") for banned in HIGHS_IMPORTS)
            ]
    return offenders


def _orphaned_references(root: Path = ROOT) -> List[str]:
    """Modules under ``tests/reference`` that no test or bench imports."""
    reference = root / "tests" / "reference"
    modules = {
        ".".join(path.relative_to(root).with_suffix("").parts)
        for path in reference.rglob("*.py")
        if path.name != "__init__.py"
    }
    imported: Set[str] = set()
    for tree_name in ("tests", "benchmarks"):
        for path in (root / tree_name).rglob("*.py"):
            if path.is_relative_to(reference):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
                if isinstance(node, ast.Import):
                    imported.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                    imported.add(node.module)
                    imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    return sorted(modules - imported)


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


def test_only_the_scipy_backend_imports_highs():
    assert _highs_imports() == []


def test_every_reference_module_has_an_importer():
    assert _orphaned_references() == []


@pytest.fixture(scope="module")
def unreached() -> Dict[str, List[str]]:
    return _unreached()


def test_every_public_name_is_reached_outside_the_tests(unreached):
    unexplained = {
        name: where for name, where in unreached.items() if name not in ALLOWED_UNREACHED
    }
    assert unexplained == {}, (
        "public names or class members only tests reach: delete them, move test "
        f"references to tests/reference, or justify them in ALLOWED_UNREACHED: {unexplained}"
    )


def test_every_allowlist_entry_is_still_needed_and_justified(unreached):
    assert sorted(name for name in ALLOWED_UNREACHED if name not in unreached) == []
    assert all(reason.strip() for reason in ALLOWED_UNREACHED.values())


def test_no_module_imports_a_name_it_never_uses():
    modules = _package_modules() + sorted(EXAMPLES.rglob("*.py"))
    assert [finding for path in modules for finding in _unused_imports(path)] == []


# -- the checker's own rules, on small synthetic trees --------------------------


def _tree(root: Path, files: Dict[str, str]) -> Path:
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def test_checker_flags_a_reference_module_nothing_imports(tmp_path):
    root = _tree(
        tmp_path,
        {
            "tests/reference/__init__.py": "",
            "tests/reference/used.py": "",
            "tests/reference/by_package.py": "",
            "tests/reference/dead.py": "from tests.reference.self_only import x\n",
            "tests/reference/self_only.py": "from tests.reference.dead import y\n",
            "tests/test_a.py": "from tests.reference.used import thing\n",
            "benchmarks/bench_b.py": "from tests.reference import by_package\n",
        },
    )
    assert _orphaned_references(root) == ["tests.reference.dead", "tests.reference.self_only"]


def test_checker_flags_a_function_only_tests_call(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/repro/mod.py": """
                def used(): pass
                def by_string(): pass
                def dead(): pass
            """,
            "examples/run.py": """
                from repro.mod import used
                used()
                getattr(object, "by_string")
            """,
            "tests/test_mod.py": """
                from repro.mod import dead
                dead()
            """,
        },
    )
    assert set(_unreached(root)) == {"dead"}


def test_checker_catches_a_chain_only_tests_reach_whole(tmp_path):
    files = {
        "src/repro/mod.py": """
            def entry(): return helper()
            def helper(): return 1
        """,
    }
    assert set(_unreached(_tree(tmp_path, files))) == {"entry", "helper"}
    _tree(tmp_path, {"benchmarks/bench.py": "from repro.mod import entry\nentry()\n"})
    assert _unreached(tmp_path) == {}


def test_checker_ignores_a_definition_that_only_names_itself(tmp_path):
    root = _tree(
        tmp_path,
        {"src/repro/mod.py": "def walk(n):\n    return walk(n - 1) if n else 0\n"},
    )
    assert set(_unreached(root)) == {"walk"}


def test_checker_does_not_count_all_or_package_reexports(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/repro/__init__.py": """
                from .mod import dead
                __all__ = ["dead"]
            """,
            "src/repro/mod.py": """
                __all__ = ["dead"]
                def dead(): pass
            """,
        },
    )
    assert set(_unreached(root)) == {"dead"}


def test_checker_reaches_members_through_their_class(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/repro/mod.py": """
                class Box:
                    def open(self): return 1
                    def close(self): return 2
                    def spare(self): return 3
                    def _flush(self): return self.close()

                class Crate:
                    def _flush(self): return self.pack()
                    def pack(self): return 4
            """,
            "perfbench/run.py": "from repro.mod import Box\nBox().open()\n",
        },
    )
    # ``close`` is reached through the private member of a reached class;
    # ``pack`` only through code of ``Crate``, which nothing outside reaches.
    assert set(_unreached(root)) == {"spare", "Crate", "pack"}


@pytest.mark.parametrize(
    ("source", "unused"),
    [
        ("import os\n", ["os"]),
        ("import os  # noqa: F401\n", []),
        ("from typing import List\n\ndef f(x: 'List[int]'): pass\n", []),
        ("from .mod import thing\n\n__all__ = ['thing']\n", []),
        ("from __future__ import annotations\n", []),
    ],
    ids=["unused", "side-effect", "quoted-annotation", "all-entry", "future"],
)
def test_checker_finds_imports_a_module_never_uses(tmp_path, source, unused):
    path = _tree(tmp_path, {"src/repro/mod.py": source}) / "src" / "repro" / "mod.py"
    assert _unused_imports(path, tmp_path) == [f"src/repro/mod.py:1: {name}" for name in unused]


def test_checker_finds_highs_imports_outside_the_entry_point(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/repro/lp/scipy_backend.py": "from scipy.optimize._highspy import _core\n",
            "src/repro/a.py": "from scipy.optimize import linprog\n",
            "src/repro/b.py": "from scipy.optimize import OptimizeResult, milp as solve\n",
            "src/repro/c.py": "import scipy.optimize._highspy._core as highs\n",
            "src/repro/d.py": "from scipy.optimize._highspy._core import HighsLp\n",
            "src/repro/e.py": "import scipy.optimize\nfrom scipy.sparse import linalg\n",
            "src/repro/f.py": "import scipy.optimize\n\nscipy.optimize.linprog([1.0])\n",
        },
    )
    assert _highs_imports(root) == [
        "src/repro/a.py:1: scipy.optimize.linprog",
        "src/repro/b.py:1: scipy.optimize.milp",
        "src/repro/c.py:1: scipy.optimize._highspy._core",
        "src/repro/d.py:1: scipy.optimize._highspy._core.HighsLp",
        "src/repro/f.py:3: scipy.optimize.linprog",
    ]
