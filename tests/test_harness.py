"""`tools/_harness.py`: the workload-name check, the rebinding of nks3
functions and the checkout loaders that the scripts of `tools/` share."""

import os
import sys

import _harness
import pytest

from nks3 import frames, isometries, pointwise
from nks3 import quat as qt

# pointwise.project_components is bound in pointwise, frames and
# isometries; quat.mul only in quat, where the three reach it as qt.mul
MODULES = (pointwise, frames, isometries)


def _bindings():
    return [m.project_components for m in MODULES] + [m.qt.mul for m in MODULES]


def test_rebound_wraps_every_binding():
    project, mul = pointwise.project_components, qt.mul
    calls = []

    def wrap(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    with _harness.rebound({"project_components": project, "mul": mul}, wrap):
        bound = _bindings()
        assert len({id(f) for f in bound[:3]}) == 1 and bound[0] is not project
        assert len({id(f) for f in bound[3:]}) == 1 and bound[3] is not mul
        assert (frames.qt.mul([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]).tolist()
                == [0.0, 1.0, 0.0, 0.0])
    assert calls == ["mul"]
    assert _bindings() == [project] * 3 + [mul] * 3


def test_rebound_restores_every_binding_when_the_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with _harness.rebound({"project_components": pointwise.project_components,
                               "mul": qt.mul}, lambda name, f: None):
            assert _bindings() == [None] * 6
            raise RuntimeError
    assert _bindings() == before


class W:
    WORKLOADS = {"a": None, "b": None}


def test_workload_names(capsys):
    assert _harness.workload_names(W, []) == ["a", "b"]
    assert _harness.workload_names(W, ["b"]) == ["b"]
    assert capsys.readouterr().err == ""
    assert _harness.workload_names(W, ["b", "c", "d"]) is None
    assert capsys.readouterr().err == "error: unknown workload 'c'; choose from a, b\n"


def test_loaders_put_src_first_once(monkeypatch):
    # the environment and sys.path the loaders set are put back after
    for var in _harness.THREAD_VARS:
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.delenv("NKS3_SEED", raising=False)
    src = str(_harness.ROOT / "src")
    monkeypatch.setattr(sys, "path", ["elsewhere"] + list(sys.path))
    for _ in range(2):
        assert "hypersurface-battery" in _harness.workloads().WORKLOADS
        assert callable(_harness.cli_main())
    assert sys.path[0] == src
    assert sys.path.count(src) == 1
    assert "elsewhere" in sys.path
