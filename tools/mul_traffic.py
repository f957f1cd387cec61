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
(`tools/_harness.py`).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

import _harness


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

    with _harness.rebound({"mul": mul}, lambda name, f: spy):
        workload.run_pass(seed)
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
    W = _harness.workloads()
    names = _harness.workload_names(W, args.workloads)
    if names is None:
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
    _harness.run(main)
