"""`tools/battery_layers.py`: stage times and call counts of the
benchmark's hypersurface battery and ambient-suites passes."""

import _harness
import battery_layers

from nks3 import frames, verify
from nks3 import hypersurfaces as hs
from nks3 import isometries as iso


def test_one_pass_times_each_stage(capsys):
    originals = (hs.analyze_points, hs.stencil_residuals, hs.hopf_identity_residual,
                 verify._check)
    assert battery_layers.main(["--passes", "1"]) == 0
    # the wrappers are gone again
    assert (hs.analyze_points, hs.stencil_residuals, hs.hopf_identity_residual,
            verify._check) == originals
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "hypersurface-battery: 1 passes after one warm-up"
    assert out[1].split() == ["stage", "calls/pass", "median", "ms/pass"]
    rows = {line[:26].strip(): line[26:].split() for line in out[2:]}
    assert list(rows) == ["analyze_points", "stencil_residuals", "hopf_identity_residual",
                          "_check", "rest of the suite", "pass"]
    suites = len(verify.DEFAULT_BATTERY)
    checks = len(_harness.workloads().WORKLOADS["hypersurface-battery"].reference()["0"])
    calls = {name: row[0] for name, row in rows.items()}
    assert calls == {"analyze_points": str(suites), "stencil_residuals": str(suites),
                     "hopf_identity_residual": str(suites), "_check": str(checks),
                     "rest of the suite": "-", "pass": "-"}
    ms = {name: float(row[1]) for name, row in rows.items()}
    assert all(value > 0.0 for value in ms.values())
    # with one pass each median is that pass's time, so the rows add up
    assert abs(sum(ms.values()) - 2 * ms["pass"]) <= 0.005


def test_rejects_fewer_than_one_pass(capsys):
    assert battery_layers.main(["--passes", "0"]) == 2
    assert "--passes must be at least 1" in capsys.readouterr().err


def test_one_ambient_pass_times_each_stage(capsys):
    originals = (frames._bilinear, verify._bilinear, verify._pointwise_residuals,
                 verify.connection_relation_residual, frames.curvature_closed_form,
                 iso.composition_checks, verify._check)
    assert battery_layers.main(["--workload", "ambient-suites", "--passes", "1"]) == 0
    assert (frames._bilinear, verify._bilinear, verify._pointwise_residuals,
            verify.connection_relation_residual, frames.curvature_closed_form,
            iso.composition_checks, verify._check) == originals
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "ambient-suites: 1 passes after one warm-up"
    assert out[1].split() == ["stage", "calls/pass", "median", "ms/pass"]
    rows = {line[:30].strip(): line[30:].split() for line in out[2:]}
    checks = len(_harness.workloads().WORKLOADS["ambient-suites"].reference()["0"])
    # G and D of (X, Y) and of (X, P Y), the five other G of the structure
    # suite, and D and the gap of the connection relation
    assert {name: row[0] for name, row in rows.items()} == {
        "_bilinear": "8", "_pointwise_residuals": "1", "connection_relation_residual": "1",
        "curvature": "1", "curvature_closed_form": "1", "composition_checks": "1",
        "_check": str(checks), "rest of the pass": "-", "pass": "-"}
    ms = {name: float(row[1]) for name, row in rows.items()}
    assert all(value > 0.0 for value in ms.values())
    # a stage's time leaves out the stages it calls, so one pass adds up
    assert abs(sum(ms.values()) - 2 * ms["pass"]) <= 0.005
