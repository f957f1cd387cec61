"""Every module-level name of nks3 has a use.

A `_private` function, class or constant of a module in `src/nks3` that
nothing in `src/nks3` uses outside its own definition is dead code: tests
alone do not keep it alive.  A use is a read of the name elsewhere in its
own module, a `from .module import _name` in another module, or an
attribute access `._name`.

A public function, class or method of a public class is held to the same
rule, with its reads resolved per module: a read of `g_norm` in `frames`
is a read of `frames.g_norm`, and `pw.g_norm` is one of `pointwise.g_norm`
only where `pw` is bound to the module `pointwise`.  A public method is
read by an attribute access of its name anywhere in the package.  Besides
a read in the package, a public name is kept by `nks3.__all__`, by the
benchmark tracer's name lists, by a read in `tools/` or in the benchmark's
workloads, or as one of the test oracles named in `ORACLES`.
"""

import ast
import importlib.util
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nks3"
TRACER = ROOT / "perfbench" / "tracer.py"
EXTERNAL_READERS = sorted((ROOT / "tools").glob("*.py")) + [ROOT / "perfbench" / "workloads.py"]

# public names whose only callers are tests: each is the second route of a
# check the package makes through another function
ORACLES = {
    "quat.sample_unit": "one unit quaternion per call, the sequential draw "
                        "that `quat.unit_rows` reproduces bitwise",
    "pointwise.metric_hermitian_components":
        "g as (<Z, Z'> + <JZ, JZ'>) / 2, the second route to the "
        "quaternionic `metric_components`",
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@lru_cache(maxsize=1)
def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(stmt) -> list:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _loads(node, name: str) -> bool:
    """Whether the tree node reads the bare name."""
    return any(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
               for n in ast.walk(node))


def _scan() -> tuple:
    """The private module-level names of the package, and the unused ones."""
    modules = _modules()
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
            for name in filter(_private, _definitions(stmt)):
                defined.append(f"{module}.{name}")
                read_elsewhere = any(_loads(other, name)
                                     for other in tree.body if other is not stmt)
                if not (read_elsewhere or (module, name) in imported
                        or name in attributes):
                    unused.append(f"{module}.{name}")
    return defined, unused


def _bindings(tree) -> dict:
    """Local name -> (module, name) of each relative import of a module; the
    name is None where the import binds the module itself."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                target = (a.name, None) if node.module is None else (node.module, a.name)
                bound[a.asname or a.name] = target
    return bound


def _package_reads() -> tuple:
    """The (module, name) pairs the package reads, each resolved in the
    module that reads it (a read inside the statement that defines the name
    does not count), and the attribute names it reads on anything but a
    module."""
    reads, attributes = set(), set()
    for module, tree in _modules().items():
        bound = _bindings(tree)
        for stmt in tree.body:
            own = set(_definitions(stmt))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in bound and bound[node.id][1] is not None:
                        reads.add(bound[node.id])
                    elif node.id not in own:
                        reads.add((module, node.id))
                elif isinstance(node, ast.Attribute):
                    value = node.value
                    if (isinstance(value, ast.Name) and value.id in bound
                            and bound[value.id][1] is None):
                        reads.add((bound[value.id][0], node.attr))
                    else:
                        attributes.add(node.attr)
    return reads, attributes


def _exported() -> set:
    """(module, name) of every name in `nks3.__all__`."""
    init = _modules()["__init__"]
    bound = _bindings(init)
    names = next(ast.literal_eval(stmt.value) for stmt in init.body
                 if isinstance(stmt, ast.Assign) and _definitions(stmt) == ["__all__"])
    return {bound[n] for n in names if n in bound}


def _traced() -> set:
    """(module, name) of every function the tracer wraps, and (module,
    Class.method) of every method."""
    spec = importlib.util.spec_from_file_location("nks3_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(module.split(".", 1)[1], attr) for module, attr in tracer.SPANNED + tracer.COUNTED}


def _external_names() -> set:
    """Every attribute and imported name that the tools and the benchmark's
    workloads read."""
    names = set()
    for path in EXTERNAL_READERS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
    return names


def _public_definitions() -> list:
    """(module, name, qualified name) of every public function and class
    of the package, and of every public method of a public class, its
    qualified name Class.method."""
    found = []
    for module, tree in _modules().items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
                continue
            found.append((module, stmt.name, stmt.name))
            if isinstance(stmt, ast.ClassDef):
                found += [(module, f.name, f"{stmt.name}.{f.name}") for f in stmt.body
                          if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return found


def _public_scan() -> tuple:
    """The public definitions of the package, and those nothing keeps."""
    reads, attributes = _package_reads()
    kept = _exported() | _traced()
    external = _external_names()
    defined, unused = [], []
    for module, name, qualified in _public_definitions():
        defined.append(f"{module}.{qualified}")
        method = qualified != name
        read = name in attributes if method else (module, name) in reads
        if not (read or (module, qualified) in kept or name in external
                or f"{module}.{qualified}" in ORACLES):
            unused.append(f"{module}.{qualified}")
    return defined, unused


def test_every_private_module_name_is_used():
    defined, unused = _scan()
    # the scan reaches the package: functions and constants of it are seen
    assert {"hypersurfaces._covariant_fd", "hypersurfaces._FRESH"} <= set(defined)
    assert unused == []


def test_every_public_name_has_a_caller():
    defined, unused = _public_scan()
    # functions, classes and methods of each module are seen
    assert {"frames.g_norm", "hypersurfaces.Immersion",
            "hypersurfaces.Immersion.pushforward", "verify.SuiteReport.to_dict",
            "quat.sample_unit"} <= set(defined)
    assert unused == []
    assert set(ORACLES) <= set(defined)
