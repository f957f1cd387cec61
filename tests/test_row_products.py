"""No one-row matmul is left in the package.

Row-wise products are numpy's `vecmat`, `matvec` and `vecdot`, one C call
each; the one-row matmul they replaced (a vector made a (..., 1, k) row or a
(..., k, 1) column for `@`, the result indexed back down) gives the same bits
at the cost of two indexing steps around every product
(`tests/test_frames_properties.py` holds the two bitwise equal).  This scan
keeps the slow route from coming back.  `hypersurfaces._rowwise` is exempt:
it passes the vectors of `frames.curvature_closed_form` as one-row matrices
on purpose, so that its constant-matrix products are per row.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nks3"
IDIOMS = re.compile(
    r"None, :\]\s*@"                      # a row made for `@`
    r"|@\s*[\w.]+\[[^\]]*, None\]"        # a column made for `@`
    r"|, :, None\]\)\[\.\.\., 0, 0\]"     # the 1 x 1 result of row times column
    r"|\(1, \d+\)\)\s*@"                  # a reshape to one row, then `@`
)
EXEMPT = {"_rowwise"}


def _exempt_lines(tree) -> set:
    return {line for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in EXEMPT
            for line in range(node.lineno, node.end_lineno + 1)}


def test_no_one_row_matmul_in_the_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        exempt = _exempt_lines(ast.parse(text, str(path)))
        found += [f"{path.name}:{number}: {line.strip()}"
                  for number, line in enumerate(text.splitlines(), 1)
                  if number not in exempt and IDIOMS.search(line)]
    assert not found, "one-row matmul, use np.vecmat, np.matvec or np.vecdot:\n" + "\n".join(found)


@pytest.mark.parametrize("route", [
    "(x[..., None, :] @ A)[..., 0, :]",
    "(A @ x[..., None])[..., 0]",
    "(x[..., None, :] @ y[..., :, None])[..., 0, 0]",
    "np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])",
    "(xy.reshape(rows + (1, 36)) @ tables)[..., 0, :]",
    "np.abs((eta[:, None, :] @ phi)[:, 0])",
])
def test_the_scan_finds_each_replaced_route(route):
    assert IDIOMS.search(route)

