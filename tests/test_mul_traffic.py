"""`tools/mul_traffic.py`: `quat.mul` calls of one benchmark pass by
operand shapes."""

import mul_traffic

from nks3 import quat as qt


def test_prints_the_calls_of_one_pass_by_shapes(capsys):
    mul = qt.mul
    assert mul_traffic.main(["ambient-suites", "point-sweep", "--seed", "3"]) == 0
    assert qt.mul is mul  # the spy is gone again
    out = capsys.readouterr().out.splitlines()
    heads = [i for i, line in enumerate(out) if not line.startswith(" ")]
    assert [out[i] for i in heads] == ["ambient-suites (pool seed 3): 83 calls",
                                       "point-sweep (pool seed 3): 1 calls"]
    rows = [line.split(None, 1) for line in out[1:heads[1]]]
    assert sum(int(count) for count, _ in rows) == 83
    assert ["14", "(1000, 4)²"] in rows
    assert ["4", "(1000, 4) x (2, 1000, 4)"] in rows
    assert out[heads[1] + 1:] == ["       1  (30, 4)²"]


def test_rejects_an_unknown_workload_and_seed(capsys):
    assert mul_traffic.main(["no-such-workload"]) == 2
    assert mul_traffic.main(["point-sweep", "--seed", "32"]) == 2
    err = capsys.readouterr().err
    assert "unknown workload 'no-such-workload'" in err and "pool seed" in err
