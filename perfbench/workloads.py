"""The benchmark's three workloads, driven through nks3's public API.

A pass is one complete unit of user work, run as a few steps (public nks3
calls).  Each step returns the outcome of every check it made as
``(check_id, residual, passed)``; `judge` then holds the outcomes of the
pass against the committed reference residuals of the same seed.

Pass inputs come from a pool of `POOL_SIZE` suite seeds whose reference
residuals are committed under ``reference/``; a run's ``--seed`` picks the
sequence of pool seeds its passes use.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import random
from pathlib import Path

import nks3
import nks3.cli
from nks3 import hypersurfaces as hs
from nks3 import verify

POOL_SIZE = 32
HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# a check fails when its residual rises more than DRIFT_FACTOR above the
# reference while also exceeding the round-off floor
DRIFT_FACTOR = 10.0
ROUNDOFF_FLOOR = 1e-13

BATTERY_SAMPLES = 2
STRUCTURE_SAMPLES = 1000
ISOMETRY_SAMPLES = 100

SWEEP_SAMPLES = 10
SWEEP_GRIDS = (
    ("m3", "r", (0.3, 0.6, 1.0)),   # round-sphere family behind the twist
    ("m4", "k", (0.5, 0.6, 0.8)),   # bare torus family, l = sqrt(1 - k^2)
)
SWEEP_TOL = 1e-6
EXPECTED_PXI_CLASS = {"m1": hs.PLUS, "m2": hs.MINUS, "m3": hs.REFLECT,
                      "m4": hs.PLUS, "m5": hs.MINUS, "m6": hs.REFLECT}


def _sweep_params(param: str, value: float) -> dict:
    if param == "r":
        return {"r": value}
    return {"k": value, "l": math.sqrt(1.0 - value * value)}


# ---------------------------------------------------------------------------
# passes
#
# A pass is a list of steps, each a call into nks3 returning check outcomes;
# the worker times each step and runs its calibration kernel between them.
# ---------------------------------------------------------------------------

def _outcomes(report, prefix: str = "") -> list:
    return [(prefix + c.check_id, c.max_residual, c.passed) for c in report.checks]


def _hypersurface_suite(family: str, params: dict, seed: int) -> list:
    return _outcomes(verify.run_hypersurface_suite(family, params, seed, BATTERY_SAMPLES))


def _structure_suite(seed: int) -> list:
    return _outcomes(verify.run_structure_suite(seed, STRUCTURE_SAMPLES), "structure:")


def _isometry_suite(seed: int) -> list:
    return _outcomes(verify.run_isometry_suite(seed, ISOMETRY_SAMPLES), "isometry:")


def battery_steps(seed: int) -> list:
    """`nks3 verify --suite hypersurface`: the body of
    `verify.run_default_hypersurface_suites(seed, BATTERY_SAMPLES)`, one step
    per default family/parameter pair, with the same seeds."""
    return [functools.partial(_hypersurface_suite, family, params, seed + i)
            for i, (family, params) in enumerate(verify.DEFAULT_BATTERY)]


def ambient_steps(seed: int) -> list:
    """The structure suite followed by the isometry suite."""
    return [functools.partial(_structure_suite, seed),
            functools.partial(_isometry_suite, seed)]


def _sweep(family: str, param: str, values: tuple, seed: int) -> list:
    """`nks3 sweep` in-process for one grid; checks exit code and CSV rows."""
    argv = ["sweep", "--family", family,
            "--" + param, ",".join(f"{v:g}" for v in values),
            "--samples", str(SWEEP_SAMPLES), "--seed", str(seed)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = nks3.cli.main(argv)
    out = [(family + ":exit", float(code), code == 0)]
    rows = {row[param]: row for row in csv.DictReader(io.StringIO(buf.getvalue()))}
    three = family in hs.THREE_CURVATURE_FAMILIES
    for value in values:
        label = f"{family}({param}={value:g})"
        row = rows.get(f"{value:.12g}")
        if row is None:
            continue  # a missing reference check fails in judge()
        evs = [float(row[f"ev{i}"]) for i in range(1, 6)]
        expected = hs.expected_spectrum(family, **_sweep_params(param, value))
        res = hs.spectra_match(evs, expected)
        out.append((label + ":spectrum", res, res <= SWEEP_TOL))
        mult_ok = row["mult_pattern"] == ("2-1-2" if three else "1-1-1-1-1")
        out.append((label + ":multiplicity", 0.0 if mult_ok else 1.0, mult_ok))
        cls_ok = row["pxi_class"] == EXPECTED_PXI_CLASS[family]
        out.append((label + ":pxi_class", 0.0 if cls_ok else 1.0, cls_ok))
    return out


def sweep_steps(seed: int) -> list:
    return [functools.partial(_sweep, family, param, values, seed)
            for family, param, values in SWEEP_GRIDS]


class Workload:
    def __init__(self, name: str, steps, examples: tuple):
        self.name = name
        self.steps = steps         # seed -> list of step callables
        self.examples = examples   # (family, params) built during set-up

    def run_pass(self, seed: int) -> list:
        return [o for step in self.steps(seed) for o in step()]

    def setup(self) -> None:
        nks3.get_tables()
        for family, params in self.examples:
            nks3.make_example(family, **params)

    def reference(self) -> dict:
        path = REFERENCE_DIR / f"{self.name}.json"
        with open(path, encoding="utf-8") as f:
            return json.load(f)["seeds"]


WORKLOADS = {
    "hypersurface-battery": Workload(
        "hypersurface-battery", battery_steps, verify.DEFAULT_BATTERY),
    "ambient-suites": Workload("ambient-suites", ambient_steps, ()),
    "point-sweep": Workload(
        "point-sweep", sweep_steps,
        tuple((f, _sweep_params(p, v)) for f, p, vals in SWEEP_GRIDS for v in vals)),
}


def require_checkout_nks3() -> None:
    """Refuse to measure an nks3 other than the one in this checkout's src/."""
    src = HERE.parent / "src"
    if not Path(nks3.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: nks3 imported from {nks3.__file__}, not from {src}")


def pass_seeds(seed: int):
    """Endless sequence of pool seeds, fixed by the run seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(POOL_SIZE)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def judge(outcomes, reference: dict) -> list:
    """Ids of the failed checks of one pass.

    A check fails when its CheckResult (or CSV comparison) fails, when its
    residual is non-finite, when it drifts more than DRIFT_FACTOR above its
    reference residual and above ROUNDOFF_FLOOR, or when a reference check
    is missing from the outcomes.  A check that got more accurate passes.
    """
    failed = []
    seen = set()
    for cid, residual, passed in outcomes:
        seen.add(cid)
        ref = reference.get(cid)
        drifted = (ref is not None and residual > DRIFT_FACTOR * ref
                   and residual > ROUNDOFF_FLOOR)
        if not passed or not math.isfinite(residual) or drifted:
            failed.append(cid)
    failed += [cid for cid in reference if cid not in seen]
    return failed
