"""Judge every benchmark workload on all pool seeds and show what moved.

    python tools/pool_drift.py [WORKLOAD ...]

Loads `perfbench/workloads.py` by path, runs one pass of each workload (all
of them by default) at every one of its `POOL_SIZE` pool seeds, and holds
each pass against the committed reference residuals of its seed.  For each
workload it prints

* the judge's failures, as `seed N: check ids`, and their count;
* how many outcomes equal their reference residual bitwise, and how many
  moved;
* per check id, the number moved and the largest residual/reference ratio
  (`inf` where a zero reference became nonzero), with that residual, and
  the largest residual over the pool, moved or not, which is the figure a
  tolerance is set against.

The tier-1 guard `tests/test_benchmark_reference.py` judges pool seed 0
only, while a change that re-rolls noise-level residuals can fail the
drift gate at other seeds.  A change that moves residuals cites this table,
and a reference re-record (`perfbench/record_reference.py`) cites it too.
Exits 1 when the judge fails any pass, else 0.  Like the benchmark, it pins
OpenBLAS, OpenMP and MKL to one thread.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
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


def drift(W, name: str) -> int:
    """Print the drift table of one workload; return its judge failures."""
    workload = W.WORKLOADS[name]
    reference = workload.reference()
    failures = failed_passes = 0
    identical = moved = 0
    # check id -> [moved, entries, worst ratio, its residual, largest residual]
    per_check: dict = {}
    print(f"== {name}")
    for seed in range(W.POOL_SIZE):
        ref = reference[str(seed)]
        outcomes = workload.run_pass(seed)
        failed = W.judge(outcomes, ref)
        if failed:
            failures += len(failed)
            failed_passes += 1
            print(f"  seed {seed}: {' '.join(failed)}")
        for cid, residual, _ in outcomes:
            if cid not in ref:
                continue  # an id added since the reference has nothing to drift from
            row = per_check.setdefault(cid, [0, 0, 0.0, 0.0, 0.0])
            row[1] += 1
            row[4] = max(row[4], residual)
            if residual == ref[cid]:
                identical += 1
                continue
            moved += 1
            row[0] += 1
            ratio = residual / ref[cid] if ref[cid] != 0.0 else math.inf
            if ratio > row[2]:
                row[2], row[3] = ratio, residual
    print(f"  judge failures: {failures}, in {failed_passes} of {W.POOL_SIZE} passes")
    print(f"  identical {identical}, moved {moved} of {identical + moved} entries")
    if moved:
        cid = max(per_check, key=lambda c: per_check[c][2])
        print(f"  largest ratio {per_check[cid][2]:.4g} ({cid})")
    if not per_check:
        return failures
    width = max(len(cid) for cid in per_check)
    print(f"  {'check':<{width}}  moved  largest ratio  its residual  largest residual")
    for cid, (n_moved, n, ratio, residual, largest) in per_check.items():
        worst = f"{ratio:>13.4g}  {residual:>12.3g}" if n_moved else f"{'-':>13}  {'-':>12}"
        print(f"  {cid:<{width}}  {n_moved:>2}/{n:<2}  {worst}  {largest:>16.3g}")
    return failures


def main(argv: list) -> int:
    W = _workloads()
    W.require_checkout_nks3()
    names = argv or list(W.WORKLOADS)
    unknown = [n for n in names if n not in W.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; "
              f"choose from {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    failures = sum(drift(W, name) for name in names)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
