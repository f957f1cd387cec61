"""`tools/code_lines.py`: line, code-line, byte and AST-node counts of
crafted files."""

import code_lines

# 19 lines; code lines 5, 8, 12-14 (a call over three lines), 17 and 19;
# 26 AST nodes: Module; the three docstrings, each an Expr of a Constant;
# Import and its alias; FunctionDef, its arguments and arg; Return, Call,
# Attribute, Name math, Name x, Constant 1.0 and the two Names' and the
# Attribute's Load; ClassDef; Assign, Name y, its Store and the Constant
SOURCE = b'''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment


def f(x):
    """Function docstring."""
    # a comment in the body

    return math.hypot(
        x,
        1.0)


class K:
    """Class docstring."""
    y = """not a docstring"""
'''


def test_counts_of_a_crafted_file():
    assert code_lines.count(SOURCE) == (19, 7, 26)


def test_prints_each_file_and_the_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_bytes(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_bytes(b"x = 1\n\n# note\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["lines", "code", "bytes", "nodes", "file"]
    assert rows[1:] == [["19", "7", str(len(SOURCE)), "26", str(tmp_path / "a.py")],
                        ["3", "1", "14", "5", str(tmp_path / "sub" / "b.py")],
                        ["22", "8", str(len(SOURCE) + 14), "31", "total"]]
