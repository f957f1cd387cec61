"""Time the stages of one of the benchmark's passes.

    python tools/battery_layers.py [--workload NAME] [--passes N]

Loads `perfbench/workloads.py` by path, runs the workload's set-up and one
untimed warm-up pass, then N timed passes (default 32) at pool seeds 0,
1, ... (modulo `POOL_SIZE`), each pass its steps timed as the benchmark's
worker times them.  While the passes run, the workload's stages are
replaced by timing wrappers in every nks3 module that binds them.  For
`hypersurface-battery` (the default), the nine hypersurface suites:

* `hypersurfaces.analyze_points`, the point data of a suite's samples;
* `hypersurfaces.stencil_residuals`, the transport, Gauss and Codazzi
  stencils;
* `hypersurfaces.hopf_identity_residual`;
* `verify._check`, each check's worst residual;

and the rest of the suite is the pass time less those four.  For
`ambient-suites`, the structure and isometry suites:

* `frames._bilinear`, the bilinear frame tensors G, D and the gap;
* `verify._pointwise_residuals`, the structure suite's pointwise J, P, Q
  and metric;
* `frames.connection_relation_residual`, less its `_bilinear` call;
* `frames.curvature` and `frames.curvature_closed_form`;
* `isometries.composition_checks`;
* `verify._check`;

and the rest of the pass is the pass time less those.  A stage's time
leaves out the stages it calls, so the rows of one pass add up to it.  It
prints one row per stage with its calls per pass and its median time per
pass in ms, then the median pass.  Each median is taken on its own, so
over several passes the rows need not add up to the pass.  Like the
benchmark, it pins OpenBLAS, OpenMP and MKL to one thread.

Exits 0, or 2 on a bad option; when its output is piped into a reader
that closes it early, it stops quietly and exits 141 (`tools/_pipe.py`).
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# (module, function) of each timed stage, and the name of the rest, by workload
STAGES = {
    "hypersurface-battery": (
        (("hypersurfaces", "analyze_points"), ("hypersurfaces", "stencil_residuals"),
         ("hypersurfaces", "hopf_identity_residual"), ("verify", "_check")),
        "rest of the suite"),
    "ambient-suites": (
        (("frames", "_bilinear"), ("verify", "_pointwise_residuals"),
         ("frames", "connection_relation_residual"), ("frames", "curvature"),
         ("frames", "curvature_closed_form"), ("isometries", "composition_checks"),
         ("verify", "_check")),
        "rest of the pass"),
}

def _workloads():
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("nks3_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_pass(workload, seed: int) -> float:
    """The wall time of one pass, its steps timed one by one."""
    wall = 0.0
    for step in workload.steps(seed):
        start = time.perf_counter()
        step()
        wall += time.perf_counter() - start
    return wall


def stage_times(W, passes: int, workload_name: str = "hypersurface-battery") -> tuple:
    """(calls, times, walls) of the timed passes of the workload: calls
    per stage name over all of them, times[name] the stage's seconds in
    each pass less those of the stages it calls, and walls the pass times."""
    workload = W.WORKLOADS[workload_name]
    stages = STAGES[workload_name][0]
    workload.setup()
    _run_pass(workload, 0)
    calls: Counter = Counter()
    spent: Counter = Counter()
    inner = [0.0]  # the time of the stages called by the running stage

    def timed(name, f):
        def wrapper(*args, **kwargs):
            inner.append(0.0)
            start = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                spent[name] += elapsed - inner.pop()
                inner[-1] += elapsed
                calls[name] += 1
        return wrapper

    originals = {f: vars(sys.modules["nks3." + m])[f] for m, f in stages}
    bound = [(vars(m), key, name) for module, m in list(sys.modules.items())
             if m is not None and module.split(".")[0] == "nks3"
             for key, value in list(vars(m).items())
             for name, f in originals.items() if value is f]
    for namespace, key, name in bound:
        namespace[key] = timed(name, originals[name])
    times: dict = {f: [] for _, f in stages}
    walls = []
    try:
        for i in range(passes):
            spent.clear()
            walls.append(_run_pass(workload, i % W.POOL_SIZE))
            for name in times:
                times[name].append(spent[name])
    finally:
        for namespace, key, name in bound:
            namespace[key] = originals[name]
    return calls, times, walls


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="battery_layers.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(STAGES), default="hypersurface-battery",
                        help="the workload whose passes are timed (default hypersurface-battery)")
    parser.add_argument("--passes", type=int, default=32, metavar="N",
                        help="timed passes after the warm-up (default 32)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        print("error: --passes must be at least 1", file=sys.stderr)
        return 2
    W = _workloads()
    W.require_checkout_nks3()
    calls, times, walls = stage_times(W, args.passes, args.workload)
    rest = [w - sum(t[i] for t in times.values()) for i, w in enumerate(walls)]
    rest_name = STAGES[args.workload][1]
    width = max(24, *map(len, times))
    print(f"{args.workload}: {args.passes} passes after one warm-up")
    print(f"  {'stage':<{width}} {'calls/pass':>10} {'median ms/pass':>15}")
    for name, t in times.items():
        print(f"  {name:<{width}} {calls[name] / args.passes:>10g} "
              f"{statistics.median(t) * 1e3:>15.3f}")
    print(f"  {rest_name:<{width}} {'-':>10} {statistics.median(rest) * 1e3:>15.3f}")
    print(f"  {'pass':<{width}} {'-':>10} {statistics.median(walls) * 1e3:>15.3f}")
    return 0


if __name__ == "__main__":
    import _pipe
    _pipe.run(main)
