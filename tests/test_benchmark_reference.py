"""Every benchmark workload passes its own judge at every pool seed.

The benchmark (`perfbench/`) fails a pass whose residual drifts more than
tenfold above its committed reference residual.  A refactor can move
noise-level residuals that far while every tolerance in the test suite
still holds, so this guard loads the benchmark's workloads by path and
judges one pass of each at each of its `POOL_SIZE` seeds against that
seed's reference.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("nks3_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_W = _workloads()


@pytest.mark.parametrize("seed", range(_W.POOL_SIZE))
@pytest.mark.parametrize("name", sorted(_W.WORKLOADS))
def test_pass_matches_reference(name, seed):
    workload = _W.WORKLOADS[name]
    assert _W.judge(workload.run_pass(seed), workload.reference()[str(seed)]) == []
