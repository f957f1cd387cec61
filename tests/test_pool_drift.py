"""`tools/pool_drift.py --against` counts the outcomes that differ bitwise
from a dump, by check id, and returns the count that sets the exit code."""

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
    assert tool.against("w", passes, dumped) == 3
    assert capsys.readouterr().out.splitlines() == [
        "  against dump: 3 of 4 outcomes differ bitwise",
        "    b: 1",
        "    a: 1",
        "    c: 1",
    ]
    assert tool.against("w", dumped["w"], dumped) == 0
    assert capsys.readouterr().out == "  against dump: 0 of 3 outcomes differ bitwise\n"


def test_against_counts_a_workload_missing_from_the_dump(capsys):
    tool = _tool()
    passes = {"0": [["a", (0.1).hex(), True]], "1": [["a", (0.2).hex(), True]]}
    assert tool.against("w", passes, {"v": {}}) == 2
    assert capsys.readouterr().out == "  against dump: w is not in it\n"


def test_main_exits_one_when_an_outcome_differs(monkeypatch, tmp_path):
    # a stand-in for the workloads module: one workload of one seed whose
    # pass returns one outcome, judged clean
    tool = _tool()

    class Workload:
        @staticmethod
        def reference():
            return {"0": {"a": 0.1}}

        @staticmethod
        def run_pass(seed):
            return [("a", 0.1, True)]

    class W:
        POOL_SIZE = 1
        WORKLOADS = {"w": Workload}

        @staticmethod
        def require_checkout_nks3():
            pass

        @staticmethod
        def judge(outcomes, ref):
            return []

    monkeypatch.setattr(tool, "_workloads", lambda: W)
    same, moved = tmp_path / "same.json", tmp_path / "moved.json"
    same.write_text('{"w": {"0": [["a", "%s", true]]}}' % (0.1).hex())
    moved.write_text('{"w": {"0": [["a", "%s", true]]}}' % (0.2).hex())
    assert tool.main(["--against", str(same)]) == 0
    assert tool.main(["--against", str(moved)]) == 1
    assert tool.main([]) == 0
