"""Count the `quat.mul` calls of one benchmark pass by operand shapes.

    python tools/mul_traffic.py [WORKLOAD ...] [--seed N]

Loads `perfbench/workloads.py` by path, runs each workload's set-up and
then one pass of it (all workloads by default) at pool seed N (default 0),
with `nks3.quat.mul` replaced by a call spy in every nks3 module that binds
it.  For each workload it prints its total call count, then one row per
pair of operand shapes with its calls, most calls first.  The products of
the import and of the set-up are not counted.  Like the benchmark, it pins
OpenBLAS, OpenMP and MKL to one thread.

Exits 0, or 2 on an unknown workload or seed; when its output is piped
into a reader that closes it early, it stops quietly and exits 141
(`tools/_pipe.py`).
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _workloads():
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("nks3_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traffic(workload, seed: int) -> Counter:
    """(shape of q1, shape of q2) -> calls of `quat.mul` in one pass of the
    workload at the pool seed."""
    import numpy as np
    from nks3 import quat

    workload.setup()
    mul = quat.mul
    calls = Counter()

    def spy(q1, q2):
        calls[np.shape(q1), np.shape(q2)] += 1
        return mul(q1, q2)

    bound = [(vars(m), key) for name, m in list(sys.modules.items())
             if m is not None and name.split(".")[0] == "nks3"
             for key, value in list(vars(m).items()) if value is mul]
    for namespace, key in bound:
        namespace[key] = spy
    try:
        workload.run_pass(seed)
    finally:
        for namespace, key in bound:
            namespace[key] = mul
    return calls


def _shapes(shapes) -> str:
    q1, q2 = map(str, shapes)
    return q1 + "²" if q1 == q2 else q1 + " x " + q2


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="mul_traffic.py", description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="the pool seed of the pass (default 0)")
    args = parser.parse_args(argv)
    W = _workloads()
    W.require_checkout_nks3()
    names = args.workloads or list(W.WORKLOADS)
    unknown = [n for n in names if n not in W.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; "
              f"choose from {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < W.POOL_SIZE:
        print(f"error: --seed must be a pool seed, 0 to {W.POOL_SIZE - 1}", file=sys.stderr)
        return 2
    for name in names:
        calls = traffic(W.WORKLOADS[name], args.seed)
        print(f"{name} (pool seed {args.seed}): {sum(calls.values())} calls")
        for shapes, count in sorted(calls.items(), key=lambda kv: (-kv[1], str(kv[0]))):
            print(f"  {count:6d}  {_shapes(shapes)}")
    return 0


if __name__ == "__main__":
    import _pipe
    _pipe.run(main)
