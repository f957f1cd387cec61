"""Where caller data becomes float arrays.

The package converts its inputs at its entries: the command line's chart
point (`cli.cmd_analyze`), the family parameters (`hypersurfaces._parameter`),
the chart points of `Immersion.pushforward` and `analyze_points`, the two
spectra of `spectra_match`, and the translation parameters of
`isometries.two_sided_translation`; and in `quat`, which caller data reaches
directly through the `IsometryMap` methods and the object API.  The kernels
behind them take the arrays they are given, so that a dtype other than
float64 can pass through them.

The scan below holds every float cast (`np.asarray` or `np.array` with
dtype float, or `.astype(float)`) to those places, and the entry tests hold
each entry to taking Python lists and ints with the bits of the array call.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from nks3 import hypersurfaces as hs
from nks3 import isometries as iso

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nks3"
ENTRIES = {
    "cli.cmd_analyze",
    "hypersurfaces._parameter",
    "hypersurfaces.Immersion.pushforward",
    "hypersurfaces.analyze_points",
    "hypersurfaces.spectra_match",
    "isometries.IsometryMap.apply_components",
    "isometries.two_sided_translation",
}
CONVERTING_MODULES = {"quat"}


def _is_float(node) -> bool:
    """Whether a dtype expression is `float` or `np.float64`."""
    return ((isinstance(node, ast.Name) and node.id == "float")
            or (isinstance(node, ast.Attribute) and node.attr == "float64"))


def _is_cast(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    dtypes = [k.value for k in call.keywords if k.arg == "dtype"]
    if func.attr == "astype":
        dtypes += call.args[:1]
    elif func.attr in ("asarray", "array") and isinstance(func.value, ast.Name) \
            and func.value.id in ("np", "numpy"):
        dtypes += call.args[1:2]
    else:
        return False
    return any(_is_float(d) for d in dtypes)


def casts(source: str, module: str) -> list:
    """The float casts of a module's source, as (qualified name of the
    enclosing function, or the module, line) pairs."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and _is_cast(node):
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), (module,))
    return found


def _package_casts() -> list:
    return [site for path in sorted(PACKAGE.glob("*.py"))
            for site in casts(path.read_text(), path.stem)]


def _allowed(scope: str) -> bool:
    return scope.split(".")[0] in CONVERTING_MODULES or scope in ENTRIES


def test_float_casts_lie_at_the_entries():
    stray = [f"{scope} (line {line})" for scope, line in _package_casts()
             if not _allowed(scope)]
    assert not stray, "float casts behind the entries:\n" + "\n".join(stray)


def test_every_entry_converts():
    # the list names the functions that convert, not only allows them
    assert {scope for scope, _ in _package_casts()} >= ENTRIES


@pytest.mark.parametrize("source", [
    "def lower(tables, x):\n    return np.vecmat(np.asarray(x, dtype=float), tables.g)\n",
    "def _bilinear(T, x, y):\n    x = np.asarray(x, dtype=float)\n",
    "def q_components(u, v):\n    return -np.asarray(u, dtype=float), np.asarray(v, dtype=float)\n",
    "def analyze_point(M, u):\n    return analyze_points(M, np.asarray(u, dtype=float)[None])\n",
    "class HypersurfacePointData:\n    def from_components(self, x5):\n"
    "        return np.vecmat(np.asarray(x5, dtype=float), self.tangent_frame)\n",
    "def run_hypersurface_suite():\n    return mult_off.astype(float)\n",
    "def f(x):\n    return np.array(x, float)\n",
    "def f(x):\n    return x.astype(np.float64)\n",
])
def test_the_scan_finds_each_removed_cast(source):
    found = casts(source, "frames")
    assert len(found) >= 1 and not any(_allowed(scope) for scope, _ in found)


def test_the_scan_passes_other_conversions():
    source = ("def f(x, n):\n    a = np.asarray(x)\n    b = np.array(x, dtype=int)\n"
              "    c = x.astype(bool)\n    return float(n), np.zeros(n, dtype=float)\n")
    assert casts(source, "frames") == []


# ---------------------------------------------------------------------------
# the entries take lists and ints
# ---------------------------------------------------------------------------

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


CHART_POINTS = [[0.1, -0.2, 0.3, 0.4, -0.5], [0, 0, 0, 0, 0], [-0.3, 0.25, 0.1, -1, 2]]


def test_make_example_takes_ints_and_lists():
    M, N = hs.make_example("m1", r=1), hs.make_example("m1", r=1.0)
    assert type(M.params[0]) is float and M.params == N.params
    for a, b in zip(M.pushforward(np.array(CHART_POINTS)), N.pushforward(np.array(CHART_POINTS))):
        _same_bits(a, b)
    rows = hs.make_example("m4", k=[0.6, 0.8, 0.28], l=[0.8, 0.6, 0.96])
    arrays = hs.make_example("m4", k=np.array([0.6, 0.8, 0.28]), l=np.array([0.8, 0.6, 0.96]))
    for a, b in zip(rows.params, arrays.params):
        _same_bits(a, b)


@pytest.mark.parametrize("family,kw", [("m1", dict(r=0.6)), ("m6", dict(k=0.8, l=0.6))])
def test_pushforward_takes_a_list(family, kw):
    M = hs.make_example(family, **kw)
    for a, b in zip(M.pushforward(CHART_POINTS), M.pushforward(np.array(CHART_POINTS, float))):
        _same_bits(a, b)


def _same_point_data(d, e):
    for name in hs.HypersurfacePointData.__dataclass_fields__:
        if name != "immersion":
            _same_bits(getattr(d, name), getattr(e, name))


@pytest.mark.parametrize("family,kw", [("m1", dict(r=0.6)), ("m6", dict(k=0.8, l=0.6))])
def test_analysis_takes_lists_and_ints(family, kw):
    M = hs.make_example(family, **kw)
    _same_point_data(hs.analyze_point(M, [0, 0, 0, 0, 0]), hs.analyze_point(M, np.zeros(5)))
    _same_point_data(hs.analyze_points(M, CHART_POINTS),
                     hs.analyze_points(M, np.array(CHART_POINTS, float)))


def test_spectra_match_takes_lists():
    computed, reference = [0, -0.5, 0.25, 0.25, 1], [[1.0, 0.25, 0.0, 0.25, -0.5]]
    _same_bits(hs.spectra_match(computed, reference),
               hs.spectra_match(np.array(computed, float), np.array(reference)))


QUATERNIONS = ([0.6, 0.0, 0.8, 0.0], [0, 1, 0, 0], [0.5, -0.5, 0.5, 0.5])
POINT = [[0.5, 0.5, 0.5, 0.5], [0.0, 0.6, 0.0, -0.8]]
# tangent at POINT: <u, p> = 0 and <v, q> = 0
VECTOR = [[0.5, -0.5, 0.5, -0.5], [1, 0, 0, 0]]


def test_two_sided_translation_takes_list_quaternions():
    m = iso.two_sided_translation(*QUATERNIONS)
    n = iso.two_sided_translation(*(np.array(x, float) for x in QUATERNIONS))
    for a, b in ((m.a, n.a), (m.b, n.b), (m.c, n.c)):
        _same_bits(a, b)


@pytest.mark.parametrize("make", [iso.factor_swap, iso.conjugation_twist,
                                  lambda: iso.two_sided_translation(*QUATERNIONS)])
def test_isometry_maps_take_list_points(make):
    m = make()
    x, z = np.array(POINT, float), np.array(VECTOR, float)
    for a, b in ((m.apply_components(POINT), m.apply_components(x)),
                 (m.differential_components(POINT, VECTOR), m.differential_components(x, z))):
        assert isinstance(a, np.ndarray)
        _same_bits(a, b)
