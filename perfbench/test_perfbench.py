"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def passes(request):
    """One untraced and two traced passes of a workload on the same seed."""
    w = workloads.WORKLOADS[request.param]
    w.setup()
    plain = w.run_pass(SEED)
    traced, layers = [], []
    for _ in range(2):
        tr = tracing.Tracer()
        with tr.installed(), tr.traced_pass(0):
            traced.append(w.run_pass(SEED))
        layers.append(tr.pass_layers(0))
    return request.param, plain, traced, layers


def test_traced_pass_reports_match_untraced(passes):
    _, plain, traced, _ = passes
    assert traced[0] == plain  # ids, residuals and pass flags, exactly
    assert traced[1] == plain


def test_traced_call_counts_repeat(passes):
    _, _, _, layers = passes
    counts = [{name: e["calls"] for name, e in pl.items()} for pl in layers]
    assert counts[0] == counts[1]


def test_layer_counts_follow_workload(passes):
    name, _, _, layers = passes
    calls = {k: e["calls"] for k, e in layers[0].items()}
    if name == "ambient-suites":
        assert calls["hypersurfaces.Immersion.pushforward"] == 0
        assert calls["frames.connection_relation_residual"] == workloads.STRUCTURE_SAMPLES
    elif name == "point-sweep":
        assert calls["hypersurfaces.codazzi_residual"] == 0
        assert calls["hypersurfaces.gauss_residual"] == 0
        assert calls["cli.main"] == len(workloads.SWEEP_GRIDS)
    else:
        assert calls["hypersurfaces.codazzi_residual"] > 0
        assert calls["quat.mul"] > calls["hypersurfaces.Immersion.pushforward"] > 0


def test_reference_passes_its_own_gate(passes):
    name, plain, _, _ = passes
    ref = workloads.WORKLOADS[name].reference()[str(SEED)]
    assert workloads.judge(plain, ref) == []


def test_install_wraps_every_alias_and_uninstall_restores():
    import nks3.hypersurfaces
    import nks3.verify
    originals = (nks3.hypersurfaces.tensor_G, nks3.verify.connection_relation_residual,
                 nks3.quat.mul, nks3.pointwise.TangentVector.__init__)
    tr = tracing.Tracer()
    with tr.installed():
        assert nks3.hypersurfaces.tensor_G is nks3.frames.tensor_G
        assert nks3.verify.connection_relation_residual is not originals[1]
        assert nks3.verify.connection_relation_residual.__wrapped__ is originals[1]
        assert nks3.quat.mul is not originals[2]
        for mod in tracing._nks3_modules():
            for value in vars(mod).values():
                assert all(value is not o for o in originals)
    assert (nks3.hypersurfaces.tensor_G, nks3.verify.connection_relation_residual,
            nks3.quat.mul, nks3.pointwise.TangentVector.__init__) == originals


def test_self_time_excludes_children():
    import nks3.verify
    tr = tracing.Tracer()
    with tr.installed(), tr.traced_pass(0):
        nks3.verify.run_structure_suite(0, 20)
    layers = tr.pass_layers(0)
    suite = layers["verify.run_structure_suite"]
    conn = layers["frames.connection_relation_residual"]
    assert conn["calls"] == 20
    assert 0.0 < suite["self_s"] < suite["total_s"] - conn["total_s"] + 1e-9
    pass_ids = {span[4] for span in tr.spans}
    assert pass_ids == {0}


def test_judge_rules():
    ref = {"a": 1e-9, "b": 1e-16, "c": 0.5}
    ok = [("a", 5e-9, True), ("b", 5e-14, True), ("c", 0.1, True)]
    assert workloads.judge(ok, ref) == []            # more accurate, round-off drift
    assert workloads.judge([("a", 2e-8, True)] + ok[1:], ref) == ["a"]  # tenfold
    assert workloads.judge([("a", 1e-9, False)] + ok[1:], ref) == ["a"]
    assert workloads.judge([("a", math.nan, True)] + ok[1:], ref) == ["a"]
    assert workloads.judge(ok[:2], ref) == ["c"]    # missing check
    assert workloads.judge(ok + [("new", 1.0, True)], ref) == []


def test_reference_covers_the_pool():
    for w in workloads.WORKLOADS.values():
        seeds = w.reference()
        assert sorted(seeds, key=int) == [str(s) for s in range(workloads.POOL_SIZE)]


def test_benchmark_json_metrics_are_measured(passes):
    spec = run.load_spec()
    assert spec["workloads"] == tuple(workloads.WORKLOADS)
    _, _, _, layers = passes
    per_layer = worker.per_layer_metrics(layers, [1.0], [1.0])
    assert set(spec["per_layer"]) <= set(per_layer)

    class StubRunner:
        def run(self, calibrate=False):
            return 0.002, 0.001
    end_to_end = worker.measure(StubRunner(), seconds=0.0, budget=1e9)["metrics"]
    assert set(spec["end_to_end"]) == set(end_to_end) | {"setup_s"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "point-sweep", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
