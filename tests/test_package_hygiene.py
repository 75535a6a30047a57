"""Source hygiene of the package, its tests and demos, checked with the
standard library only: every public name a module lists resolves, no
file imports a name it never uses, apart from the bindings
perfbench/tracing.py wraps, every autograd function has a caller in
the package, one function builds the package's process pools, and the
scheduling hot paths read task columns from lists, not numpy scalars."""
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
    ("schedule", "visibility_masks_multi"),
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


def _called_names(tree: ast.AST) -> set[str]:
    calls = (node.func for node in ast.walk(tree) if isinstance(node, ast.Call))
    return {f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None) for f in calls}


def test_every_autograd_function_is_called_from_another_module():
    # a tape op that no runtime path uses would linger for its tests alone
    tree = ast.parse((SRC / "autograd.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    called = set().union(
        *(_called_names(ast.parse((SRC / f"{name}.py").read_text())) for name in MODULES if name != "autograd")
    )
    assert defined and defined - called == set()


def test_only_worker_map_builds_a_process_pool():
    # training and the benchmark share one pool and one start method
    builders = [
        (name, getattr(top, "name", None))
        for name in MODULES
        for top in ast.parse((SRC / f"{name}.py").read_text()).body
        if "ProcessPoolExecutor" in _called_names(top)
    ]
    assert builders == [("policy", "worker_map")]


#: the per-task scalar readers on the scheduling hot paths, by module:
#: they read a ``SchedulingContext`` task column from its list
#: (``ctx.arrival_list[r]``), since a numpy scalar read costs about ten
#: times as much; ``schedule_fcfs_list`` and ``schedule_offline_stf`` hold
#: ``_list_schedule``'s keys
HOT_PATHS = {
    "schedule": (
        "SchedulingContext.fits_statically",
        "earliest_feasible_start",
        "Placement.load",
        "Placement.release",
        "Placement.commit",
        "Placement.uncommit",
        "Placement.drop",
        "Placement.place",
    ),
    "heuristics": ("schedule_online_heuristic", "_list_schedule", "schedule_fcfs_list", "schedule_offline_stf"),
    "cli": ("run_online",),
    "rewriter": ("rewrite_step",),
}
ARRAY_COLUMNS = {
    "task_id", "arrival", "exposure", "deadline", "limit", "rho", "target_row", "prev_sibling", "cadence_gap",
    "last_start",
}
ORDER = (ast.Lt, ast.Gt, ast.LtE, ast.GtE)


def _column_read(node: ast.AST) -> bool:
    """Whether ``node`` reads an array column of a context by subscript:
    ``ctx.arrival[r]``, ``self.ctx.arrival[r]`` or, in the context's own
    methods, ``self.arrival[r]``."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)):
        return False
    column, base = node.value.attr, node.value.value
    owner = base.id in ("ctx", "self") if isinstance(base, ast.Name) else getattr(base, "attr", None) == "ctx"
    return column in ARRAY_COLUMNS and owner


def _scalar_reads(tree: ast.AST) -> list[str]:
    """Each array column subscript wrapped in ``int``/``bool`` or ordered
    by a comparison, as source text."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("int", "bool"):
            out += [ast.unparse(node) for a in node.args[:1] if _column_read(a)]
        elif isinstance(node, ast.Compare) and any(isinstance(op, ORDER) for op in node.ops):
            out += [ast.unparse(node) for x in (node.left, *node.comparators) if _column_read(x)][:1]
    return out


def _function(tree: ast.Module, qualname: str) -> ast.AST:
    scope: ast.AST = tree
    for part in qualname.split("."):
        scope = next(
            n for n in scope.body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part
        )
    return scope


def test_the_scalar_read_check_sees_numpy_reads():
    code = "int(ctx.arrival[r]); bool(self.ctx.rho[r, 0]); t > ctx.last_start[r]; x < self.limit[r]"
    assert len(_scalar_reads(ast.parse(code))) == 4
    fine = "ctx.arrival_list[r] < t; int(ctx.arrival.max()); 0 == ctx.limit[r]; int(rows[r])"
    assert _scalar_reads(ast.parse(fine)) == []


@pytest.mark.parametrize("module, qualname", [(m, q) for m, names in HOT_PATHS.items() for q in names])
def test_hot_paths_read_no_numpy_scalar_of_a_task_column(module, qualname):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert _scalar_reads(_function(tree, qualname)) == []
