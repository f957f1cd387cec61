"""`tools/cli_drift.py` records each invocation's exit code, stdout and
stderr, and `--against` names the invocations that differ from a dump."""

import json
import sys

import _harness
import cli_drift

from nks3 import cli


def test_run_records_exit_code_stdout_and_stderr():
    code, out, err = cli_drift.run(cli.main, ["analyze", "--family", "m4", "--k", "0.6",
                                         "--at", "0,0,0,0,0"])
    assert (code, err) == (0, "")
    assert json.loads(out)["family"] == "m4"
    assert cli_drift.run(cli.main, ["analyze", "--family", "m1", "--r", "0.01"]) == [
        2, "", "error: r must lie in [0.05, 1]\n"]


def test_against_names_the_invocations_that_differ(capsys):
    dumped = {"a": [0, "x\n", ""], "b": [2, "", "error: e\n"], "c": [0, "y", ""]}
    records = {"a": [0, "x\n", ""], "b": [2, "", "error: f\n"], "d": [0, "", ""]}
    assert cli_drift.against(records, dumped) == 3
    assert capsys.readouterr().out.splitlines() == [
        "against dump: 3 of 4 invocations differ", "  b", "  d", "  c"]
    assert cli_drift.against(dumped, dumped) == 0
    assert capsys.readouterr().out == "against dump: 0 of 3 invocations differ\n"


def test_dump_then_against_itself_reports_nothing(tmp_path, capsys, monkeypatch):
    # the whole matrix, twice: the second run reproduces the first byte for
    # byte; the environment and sys.path the tool sets are put back after
    for var in _harness.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.delenv("NKS3_SEED", raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    dump = tmp_path / "cli.json"
    assert cli_drift.main(["--dump", str(dump)]) == 0
    records = json.loads(dump.read_text(encoding="utf-8"))
    assert len(records) == len(cli_drift.MATRIX)
    assert {code for code, _, _ in records.values()} == {0, 2}
    capsys.readouterr()
    assert cli_drift.main(["--against", str(dump)]) == 0
    assert capsys.readouterr().out.endswith(
        f"against dump: 0 of {len(cli_drift.MATRIX)} invocations differ\n")
