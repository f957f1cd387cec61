"""Record the per-check reference residuals of every pool seed.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Writes reference/<workload>.json.  The check_fail_ratio gate compares every
pass against these files, so they are recorded once, at the commit that
defines the benchmark, and not re-recorded by a change that claims a gain.
"""

from __future__ import annotations

import json
import os
import sys

import run

os.environ.update({var: "1" for var in run.THREAD_VARS})  # before numpy loads
sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from nks3 import verify  # noqa: E402


def record(name: str) -> None:
    w = workloads.WORKLOADS[name]
    seeds = {}
    for seed in range(workloads.POOL_SIZE):
        outcomes = w.run_pass(seed)
        failed = [cid for cid, _, passed in outcomes if not passed]
        if failed:
            raise SystemExit(f"{name} seed {seed}: checks fail: {failed}")
        seeds[str(seed)] = {cid: residual for cid, residual, _ in outcomes}
        print(f"{name} seed {seed}: {len(outcomes)} checks", flush=True)
    doc = {"workload": name, "pool_size": workloads.POOL_SIZE,
           "environment": verify.environment_fingerprint(), "seeds": seeds}
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    for workload in sys.argv[1:] or list(workloads.WORKLOADS):
        record(workload)
