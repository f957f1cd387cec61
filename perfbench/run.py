"""nks3 benchmark launcher.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs each workload in its own single-threaded process (worker.py) with
OpenBLAS, OpenMP and MKL pinned to one thread, after timing set-up in
`SETUP_PROBES` fresh interpreters.  Prints one line per metric, then as the
last line one JSON object with keys correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
PROBE = HERE / "probe.py"

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 30
RUN_BUDGET_S = 170  # one workload, probes included, must end within this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    """Workload names and metric units from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "workloads": tuple(w["name"] for w in doc["workloads"]),
        "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class BenchError(Exception):
    pass


def _last_line(script: Path, argv: list, timeout: float):
    """Run a script to completion in a pinned process; parse its last line."""
    cmd = [sys.executable, str(script), *argv]
    try:
        proc = subprocess.run(cmd, env=pinned_env(), capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd} exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{cmd} printed nothing")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    load = os.getloadavg()
    setups = [] if trace else [_last_line(PROBE, [name], PROBE_TIMEOUT_S)
                               for _ in range(SETUP_PROBES)]
    budget = RUN_BUDGET_S - (time.monotonic() - started)
    res = _last_line(WORKER, [name, str(seed), str(seconds), "1" if trace else "0",
                              f"{budget - 10:.1f}"], budget)
    res["environment"]["loadavg_start"] = load
    res["setup_samples"] = setups
    if not trace:
        res["metrics"]["setup_s"] = statistics.median(setups)
    return res


def _report(name: str, res: dict, units: dict, trace: bool) -> dict:
    """Print the human-readable lines of one workload; return its metrics."""
    missing = set(units) - set(res["metrics"])
    if missing:
        raise BenchError(f"{name}: metrics not measured: {sorted(missing)}")
    print(f"== {name}")
    print("environment " + json.dumps(res["environment"], sort_keys=True))
    walls = res["walls"]
    print(f"untimed warm-up pass + {len(walls)} {'untraced' if trace else 'timed'} passes: "
          + " ".join(f"{w:.4f}" for w in walls) + " s")
    if trace:
        print("traced passes: " + " ".join(f"{w:.4f}" for w in res["traced_walls"])
              + f" s; {res['spans']} spans written")
    else:
        print(f"calibration kernels: median {res['calibration_ms']:.3f} ms per pass")
        print(f"setup samples ({SETUP_PROBES} fresh interpreters): "
              + " ".join(f"{s:.4f}" for s in res["setup_samples"]) + " s")
        print(f"{'wall_s':48s} {res['wall_s']:.6g} s (median of {len(walls)} passes)")
    for metric, unit in units.items():
        print(f"{metric:48s} {res['metrics'][metric]:.6g} {unit}")
    ratio = res["failed"] / res["attempted"]
    print(f"{'check_fail_ratio':48s} {ratio:.6g} ratio "
          f"({res['failed']} failed of {res['attempted']} checks)")
    for failure in res["failures"]:
        print("  FAILED " + failure)
    return {m: {"value": res["metrics"][m], "unit": u} for m, u in units.items()}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec["workloads"] + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "nks3" / "__init__.py").is_file():
        print(f"error: nks3 sources not found under {SRC}", file=sys.stderr)
        return 2

    names = spec["workloads"] if args.workload == "all" else (args.workload,)
    units = spec["per_layer" if args.trace else "end_to_end"]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
            shown = _report(name, res, units, bool(args.trace))
            prefix = name + "." if len(names) > 1 else ""
            metrics.update({prefix + m: v for m, v in shown.items()})
            attempted += res["attempted"]
            failed += res["failed"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
