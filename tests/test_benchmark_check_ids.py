"""The suites still report every check id the benchmark's reference holds.

The benchmark (`perfbench/`) fails a pass when a check id of its committed
reference residuals is missing from the pass, so a renamed or dropped check
would otherwise show up only in a benchmark run.  These guards read the
reference files by path and compare the ids, in order.
"""

import json
from pathlib import Path

from nks3 import verify

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _reference_ids(name: str) -> list:
    with open(REFERENCE / f"{name}.json", encoding="utf-8") as f:
        return list(json.load(f)["seeds"]["0"])


def test_hypersurface_battery_ids_match_reference():
    report = verify.run_default_hypersurface_suites(0, 1)
    assert [c.check_id for c in report.checks] == _reference_ids("hypersurface-battery")


def test_ambient_suite_ids_match_reference():
    ids = ["structure:" + c.check_id for c in verify.run_structure_suite(0, 1).checks]
    ids += ["isometry:" + c.check_id for c in verify.run_isometry_suite(0, 1).checks]
    assert ids == _reference_ids("ambient-suites")
