"""Time the stages of one of the benchmark's passes.

    python tools/battery_layers.py [--workload NAME] [--passes N]

Loads `perfbench/workloads.py` by path, runs the workload's set-up and one
untimed warm-up pass, then N timed passes (default 32) at pool seeds 0,
1, ... (modulo `POOL_SIZE`), each `Workload.run_pass` timed whole.  While
the passes run, the workload's stages are replaced by timing wrappers in
every nks3 module that binds them.  For
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
that closes it early, it stops quietly and exits 141 (`tools/_harness.py`).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from collections import Counter

import _harness

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


def stage_times(W, passes: int, workload_name: str = "hypersurface-battery") -> tuple:
    """(calls, times, walls) of the timed passes of the workload: calls
    per stage name over all of them, times[name] the stage's seconds in
    each pass less those of the stages it calls, and walls the pass times."""
    workload = W.WORKLOADS[workload_name]
    stages = STAGES[workload_name][0]
    workload.setup()
    workload.run_pass(0)
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

    times: dict = {f: [] for _, f in stages}
    walls = []
    with _harness.rebound({f: vars(sys.modules["nks3." + m])[f] for m, f in stages}, timed):
        for i in range(passes):
            spent.clear()
            start = time.perf_counter()
            workload.run_pass(i % W.POOL_SIZE)
            walls.append(time.perf_counter() - start)
            for name in times:
                times[name].append(spent[name])
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
    W = _harness.workloads()
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
    _harness.run(main)
