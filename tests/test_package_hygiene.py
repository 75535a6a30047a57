"""Source hygiene of the package, its tests and demos, checked with the
standard library only: every public name a module lists resolves, and no
file imports a name it never uses, apart from the bindings
perfbench/tracing.py wraps."""
import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "obsched"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

#: imported only so that perfbench/tracing.py can wrap them where the
#: module binds them (see tests/test_perfbench_bindings.py)
PERFBENCH_ONLY = {
    ("cli", "build_from_arrays"),
    ("cli", "earliest_feasible_start"),
    ("heuristics", "earliest_feasible_start"),
    ("rewriter", "build_from_arrays"),
    ("rewriter", "earliest_feasible_start"),
}


def _unused_imports(path: pathlib.Path) -> set[str]:
    tree = ast.parse(path.read_text())
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"obsched.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_no_unused_import_outside_the_perfbench_bindings():
    unused = {(name, imp) for name in MODULES for imp in _unused_imports(SRC / f"{name}.py")}
    assert unused == PERFBENCH_ONLY


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_unused_import_in_tests_and_demos(path):
    assert _unused_imports(path) == set()
