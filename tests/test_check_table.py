"""Every suite check keeps the id, anchor and tolerance of the committed table.

`tests/data/check_table.json` lists, per suite and in report order, each
check that `nks3 verify --suite all` reports, with its anchor and tolerance.
A tightened tolerance or a reworded anchor then shows as a diff of that
file.  Regenerate it after such a change with

    PYTHONPATH=src python tests/test_check_table.py
"""

import contextlib
import io
import json
from pathlib import Path

from nks3 import cli

TABLE = Path(__file__).resolve().parent / "data" / "check_table.json"


def check_table() -> dict:
    """(id, anchor, tolerance) of every check of `verify --suite all`, by suite."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--suite", "all", "--seed", "0", "--samples", "1"])
    assert code == 0
    return {rep["suite"]: [{k: c[k] for k in ("id", "anchor", "tolerance")}
                           for c in rep["checks"]]
            for rep in json.loads(out.getvalue())}


def test_suite_checks_match_the_table():
    with open(TABLE, encoding="utf-8") as f:
        assert check_table() == json.load(f)


if __name__ == "__main__":
    TABLE.write_text(json.dumps(check_table(), indent=1) + "\n", encoding="utf-8")
