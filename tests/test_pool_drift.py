"""`tools/pool_drift.py --against` counts the outcomes that differ bitwise
from a dump, by check id."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pool_drift.py"


def _tool():
    spec = importlib.util.spec_from_file_location("nks3_pool_drift", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_against_counts_bitwise_differences(capsys):
    tool = _tool()
    dumped = {"w": {"0": [["a", (0.1).hex(), True], ["b", (1e-12).hex(), True]],
                    "1": [["a", (0.2).hex(), True]]}}
    passes = {"0": [["a", (0.1).hex(), True], ["b", (1e-12 * (1 + 2 ** -52)).hex(), True]],
              "1": [["a", (0.2).hex(), False], ["c", (0.0).hex(), True]]}
    tool.against("w", passes, dumped)
    assert capsys.readouterr().out.splitlines() == [
        "  against dump: 3 of 4 outcomes differ bitwise",
        "    b: 1",
        "    a: 1",
        "    c: 1",
    ]
    tool.against("w", dumped["w"], dumped)
    assert capsys.readouterr().out == "  against dump: 0 of 3 outcomes differ bitwise\n"
