"""Every function the benchmark's tracer wraps still exists under its name.

`perfbench/tracer.py` patches nks3 functions and methods by name; a
refactor that deletes or renames one breaks the traced benchmark run.  This
guard loads the tracer's name lists by path and resolves each of them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("nks3_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracer()


@pytest.mark.parametrize("module,attr", _T.SPANNED + _T.COUNTED)
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(owner, cls_name)
        # the tracer replaces the method in the class dictionary itself
        assert callable(owner.__dict__.get(meth)), f"{module}.{attr} is gone"
    else:
        assert callable(getattr(owner, attr, None)), f"{module}.{attr} is gone"


def test_name_lists_are_not_empty():
    assert len(_T.SPANNED) > 0 and len(_T.COUNTED) > 0
