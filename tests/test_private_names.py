"""Every module-level private helper of nks3 has a use in the package.

A `_private` function, class or constant of a module in `src/nks3` that
nothing in `src/nks3` uses outside its own definition is dead code: tests
alone do not keep it alive.  A use is a read of the name elsewhere in its
own module, a `from .module import _name` in another module, or an
attribute access `._name`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nks3"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(stmt) -> list:
    """The private names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if _private(n)]


def _scan() -> tuple:
    """The private module-level names of the package, and the unused ones."""
    modules = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    imported, attributes = set(), set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update((node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    defined, unused = [], []
    for module, tree in modules.items():
        for stmt in tree.body:
            for name in _definitions(stmt):
                defined.append(f"{module}.{name}")
                read_elsewhere = any(
                    isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Load)
                    for other in tree.body if other is not stmt
                    for node in ast.walk(other))
                if not (read_elsewhere or (module, name) in imported
                        or name in attributes):
                    unused.append(f"{module}.{name}")
    return defined, unused


def test_every_private_module_name_is_used():
    defined, unused = _scan()
    # the scan reaches the package: functions and constants of it are seen
    assert {"hypersurfaces._covariant_fd", "hypersurfaces._FRESH"} <= set(defined)
    assert unused == []
