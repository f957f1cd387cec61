"""Judge every benchmark workload on all pool seeds and show what moved.

    python tools/pool_drift.py [--dump FILE] [--against FILE] [WORKLOAD ...]

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

The tier-1 guard `tests/test_benchmark_reference.py` judges every pool
seed as well, but names only the passes that fail.  A change that moves
residuals cites this table,
and a reference re-record (`perfbench/record_reference.py`) cites it too.
Like the benchmark, it pins OpenBLAS, OpenMP and MKL to one thread.

`--dump FILE` writes every outcome of every pass as JSON, `{workload: {seed:
[[check id, float.hex(residual), passed], ...]}}`.  `--against FILE` reads
such a dump, made for example at a parent commit, and prints per workload
how many outcomes differ from it bitwise, and the check ids that moved, each
with its count and the smallest and largest ratio of its new residual to the
dumped one (`inf` where the dumped residual is 0): the check that a change
meant to keep every residual reproduces them, and how far a change that
moves some moved them.

Exits 1 when the judge fails any pass or, with `--against`, when any
outcome differs from the dump (a workload missing from the dump counts
all its outcomes), else 0, so a claim of bitwise parity with a parent is
the exit code 0 of this tool and of `tools/cli_drift.py --against`.  When
its output is piped into a reader that closes it early, it stops quietly
and exits 141 (`tools/_harness.py`).
"""

from __future__ import annotations

import argparse
import json
import math
from collections import Counter
from itertools import zip_longest

import _harness


def _ratio(new: float, old: float) -> float:
    """A residual over its reference or dumped value: 1 where they are
    equal, inf where only the reference is 0."""
    if new == old:
        return 1.0
    return new / old if old != 0.0 else math.inf


def drift(W, name: str, passes: dict) -> int:
    """Print the drift table of one workload; return its judge failures.
    Each pass's outcomes are stored in passes under its seed."""
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
        passes[str(seed)] = [[cid, float(residual).hex(), bool(passed)]
                             for cid, residual, passed in outcomes]
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
            ratio = _ratio(residual, ref[cid])
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


def against(name: str, passes: dict, dumped: dict) -> int:
    """Print how many outcomes of one workload differ bitwise from a dump,
    and return that count; a workload missing from the dump counts all its
    outcomes."""
    if name not in dumped:
        print(f"  against dump: {name} is not in it")
        return sum(len(outcomes) for outcomes in passes.values())
    total = 0
    moved: Counter = Counter()
    ratios: dict = {}  # check id -> ratios of its moved residuals to the dumped ones
    for seed in sorted(set(passes) | set(dumped[name]), key=int):
        for new, old in zip_longest(passes.get(seed, []), dumped[name].get(seed, [])):
            total += 1
            if new == old:
                continue
            moved[(new or old)[0]] += 1
            if new and old and new[0] == old[0]:
                ratios.setdefault(new[0], []).append(_ratio(float.fromhex(new[1]),
                                                            float.fromhex(old[1])))
    print(f"  against dump: {moved.total()} of {total} outcomes differ bitwise")
    for cid, n in moved.items():
        spread = (f", ratio {min(ratios[cid]):.6g} to {max(ratios[cid]):.6g}"
                  if cid in ratios else "")
        print(f"    {cid}: {n}{spread}")
    return moved.total()


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="pool_drift.py", description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--dump", metavar="FILE",
                        help="write every pass's outcomes as (id, float.hex, passed)")
    parser.add_argument("--against", metavar="FILE",
                        help="count the outcomes that differ bitwise from a dump")
    args = parser.parse_args(argv)
    dumped = None
    if args.against:
        with open(args.against, encoding="utf-8") as f:
            dumped = json.load(f)
    W = _harness.workloads()
    names = _harness.workload_names(W, args.workloads)
    if names is None:
        return 2
    failures = differing = 0
    outcomes: dict = {}
    for name in names:
        outcomes[name] = {}
        failures += drift(W, name, outcomes[name])
        if dumped is not None:
            differing += against(name, outcomes[name], dumped)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as f:
            json.dump(outcomes, f)
    return 1 if failures or differing else 0


if __name__ == "__main__":
    _harness.run(main)
