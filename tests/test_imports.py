"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import ibkernel

PACKAGE = Path(ibkernel.__file__).parent

# Imported without a use: bench/tracing.py wraps qpsolve.solve_spd where
# qpsolve would look it up.
ALLOWED = {("qpsolve", "solve_spd")}


def _unused_imports(path):
    """Names ``path`` imports and never reads, less those in its ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return {(path.stem, name) for name in imported - used}


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = set().union(*(_unused_imports(p) for p in modules))
    assert unused == ALLOWED
