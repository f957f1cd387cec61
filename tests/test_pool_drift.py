"""`tools/pool_drift.py --against` counts the outcomes that differ bitwise
from a dump, by check id with the spread of their residual ratios, and
returns the count that sets the exit code."""

import _harness
import pool_drift


def test_against_counts_bitwise_differences(capsys):
    dumped = {"w": {"0": [["a", (0.1).hex(), True], ["b", (1e-12).hex(), True],
                          ["d", (0.0).hex(), True]],
                    "1": [["a", (0.2).hex(), True], ["b", (2e-12).hex(), True]]}}
    passes = {"0": [["a", (0.1).hex(), True], ["b", (1e-12 * (1 + 2 ** -52)).hex(), True],
                    ["d", (3e-16).hex(), True]],
              "1": [["a", (0.2).hex(), False], ["b", (1e-12).hex(), True],
                    ["c", (0.0).hex(), True]]}
    assert pool_drift.against("w", passes, dumped) == 5
    # each moved id with the smallest and largest ratio of its residual to
    # the dumped one: a flag that flips keeps ratio 1, a dumped 0 gives inf,
    # and an outcome with no dumped counterpart has no ratio
    assert capsys.readouterr().out.splitlines() == [
        "  against dump: 5 of 6 outcomes differ bitwise",
        "    b: 2, ratio 0.5 to 1",
        "    d: 1, ratio inf to inf",
        "    a: 1, ratio 1 to 1",
        "    c: 1",
    ]
    assert pool_drift.against("w", dumped["w"], dumped) == 0
    assert capsys.readouterr().out == "  against dump: 0 of 5 outcomes differ bitwise\n"


def test_against_counts_a_workload_missing_from_the_dump(capsys):
    passes = {"0": [["a", (0.1).hex(), True]], "1": [["a", (0.2).hex(), True]]}
    assert pool_drift.against("w", passes, {"v": {}}) == 2
    assert capsys.readouterr().out == "  against dump: w is not in it\n"


def test_main_exits_one_when_an_outcome_differs(monkeypatch, tmp_path):
    # a stand-in for the workloads module: one workload of one seed whose
    # pass returns one outcome, judged clean

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
        def judge(outcomes, ref):
            return []

    monkeypatch.setattr(_harness, "workloads", lambda: W)
    same, moved = tmp_path / "same.json", tmp_path / "moved.json"
    same.write_text('{"w": {"0": [["a", "%s", true]]}}' % (0.1).hex())
    moved.write_text('{"w": {"0": [["a", "%s", true]]}}' % (0.2).hex())
    assert pool_drift.main(["--against", str(same)]) == 0
    assert pool_drift.main(["--against", str(moved)]) == 1
    assert pool_drift.main([]) == 0
