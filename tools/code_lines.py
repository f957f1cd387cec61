"""Count the lines, code lines, bytes and AST nodes of Python files.

    python tools/code_lines.py [PATH ...]

Each PATH is a `.py` file or a directory searched recursively for them
(default `src/nks3`, relative to the working directory).  Prints one row
per file, its `wc -l` line count, its code lines, its size in bytes and
the number of nodes of its syntax tree (as `ast.walk` yields them), then
the totals.

A code line is a line that holds a token other than a comment or a
NL, NEWLINE, INDENT or DEDENT token, outside the docstrings of the module,
its classes and its functions.  A token that spans several lines, such as a
multi-line string that is not a docstring, makes each of them a code line.

Exits 0; when its output is piped into a reader that closes it early, it
stops quietly and exits 141 (`tools/_harness.py`).
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

import _harness

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) of the first token of every docstring in the tree."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source: bytes) -> tuple:
    """(wc -l lines, code lines, AST nodes) of the Python source."""
    tree = ast.parse(source)
    docstrings = _docstring_starts(tree)
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in _LAYOUT or tok.start in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count(b"\n"), len(code), sum(1 for _ in ast.walk(tree))


def _files(paths: list) -> list:
    out = []
    for path in map(Path, paths):
        out.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return out


def _row(values, name) -> str:
    lines, code, size, nodes = values
    return f"{lines:7d} {code:7d} {size:8d} {nodes:7d}  {name}"


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="code_lines.py", description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="*", default=["src/nks3"], metavar="PATH",
                        help="Python files or directories (default src/nks3)")
    args = parser.parse_args(argv)
    totals = [0, 0, 0, 0]
    print(f"{'lines':>7} {'code':>7} {'bytes':>8} {'nodes':>7}  file")
    for path in _files(args.paths):
        source = path.read_bytes()
        lines, code, nodes = count(source)
        row = (lines, code, len(source), nodes)
        totals = [t + v for t, v in zip(totals, row)]
        print(_row(row, path))
    print(_row(totals, "total"))
    return 0


if __name__ == "__main__":
    _harness.run(main)
