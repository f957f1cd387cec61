"""One workload in one pinned, single-threaded process; started by run.py.

    worker.py WORKLOAD SEED SECONDS TRACE BUDGET

Runs one untimed warm-up pass, then passes for SECONDS (at least a few),
starting none that could end after BUDGET seconds from the worker's start.
Untraced runs report the end-to-end metrics; traced runs alternate
untraced and traced passes and report the per-layer metrics of the traced
ones.  The last stdout line is a JSON object for run.py.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()  # the BUDGET counts from here, imports included

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from nks3 import verify  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_TIMED_PASSES = 3
MIN_TRACED_PASSES = 2
CALIBRATION_STEPS = 1000


class Runner:
    """Runs passes and checks each one, outside its timed region."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.reference = workload.reference()
        self.seeds = workloads.pass_seeds(seed)
        self.attempted = 0
        self.failures = []       # one entry per failed check

    def run(self, calibrate: bool = False):
        """Run and check one pass; return its wall time and the time of the
        calibration kernels run after each of its steps (0 without them)."""
        pass_seed = next(self.seeds)
        ref = self.reference[str(pass_seed)]
        wall = cal = 0.0
        outcomes = []
        try:
            for step in self.workload.steps(pass_seed):
                start = time.perf_counter()
                outcomes += step()
                wall += time.perf_counter() - start
                if calibrate:
                    cal += calibration_kernel()
        except Exception as exc:  # a raising call fails every check of the pass
            self.attempted += len(ref)
            self.failures += [f"seed {pass_seed}: {type(exc).__name__}: {exc}"] * len(ref)
            return wall, cal
        self.attempted += len({cid for cid, _, _ in outcomes} | set(ref))
        self.failures += [f"seed {pass_seed}: {cid}"
                          for cid in workloads.judge(outcomes, ref)]
        return wall, cal


def calibration_kernel() -> float:
    """Fixed numpy work, independent of nks3, run after every timed step.

    Its mix (4-vector Hamilton products, a 5x6 Gram matrix, norms) follows
    the nks3 hot path, so it slows down with the host the same way; step
    time over kernel time cancels most host speed drift.  Returns the wall
    time.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    m, g = rng.standard_normal((5, 6)), np.eye(6)
    for _ in range(CALIBRATION_STEPS):
        w1, x1, y1, z1 = a
        w2, x2, y2, z2 = b
        c = np.stack([w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                      w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                      w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                      w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2])
        gram = m @ g @ m.T
        b = c / np.linalg.norm(c) + 1e-3 * float(np.linalg.norm(gram[0]))
    return time.perf_counter() - start


def _keep_going(started: float, seconds: float, budget: float, done: int,
                minimum: int, next_cost: float) -> bool:
    """Another pass, unless the time is measured and the minimum reached,
    or the next pass could overrun the budget."""
    now = time.perf_counter()
    if now - STARTED + next_cost > budget:
        return False
    return done < minimum or now - started < seconds


def measure(runner: Runner, seconds: float, budget: float) -> dict:
    warm, _ = runner.run(calibrate=True)
    walls, cals = [], []
    started = time.perf_counter()
    while _keep_going(started, seconds, budget, len(walls), MIN_TIMED_PASSES,
                      1.5 * (walls[-1] if walls else warm)):
        wall, cal = runner.run(calibrate=True)
        walls.append(wall)
        cals.append(cal)
    if not walls:
        raise SystemExit("error: no timed pass fits in the time budget")
    return {
        "metrics": {
            "wall_cal_ratio": statistics.median(w / c for w, c in zip(walls, cals)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "wall_s": statistics.median(walls),
        "walls": walls,
        "calibration_ms": statistics.median(cals) * 1e3,
    }


def measure_traced(runner: Runner, seconds: float, budget: float,
                   spans_path: Path) -> dict:
    tracer = tracing.Tracer()
    warm, _ = runner.run()
    plain, traced = [], []
    started = time.perf_counter()
    while _keep_going(started, seconds, budget, len(traced), MIN_TRACED_PASSES,
                      2.5 * (traced[-1] if traced else warm)):
        plain.append(runner.run()[0])
        with tracer.installed(), tracer.traced_pass(len(traced)):
            traced.append(runner.run()[0])
    if not traced:
        raise SystemExit("error: no traced pass fits in the time budget")
    layers = [tracer.pass_layers(i) for i in range(len(traced))]
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    return {"metrics": per_layer_metrics(layers, plain, traced),
            "walls": plain, "traced_walls": traced, "spans": len(tracer.spans)}


def per_layer_metrics(layers: list, plain: list, traced: list) -> dict:
    """Counts of the first traced pass; times as medians over traced passes."""
    first = layers[0]
    metrics = {}
    for name, entry in first.items():
        metrics[name + ".calls"] = entry["calls"]
        for key in ("self_s", "total_s"):
            metrics[f"{name}.{key}"] = statistics.median(p[name][key] for p in layers)
    draws = first["hypersurfaces.random_chart_point"]["calls"]
    evals = first["hypersurfaces.Immersion.pushforward"]["calls"]
    metrics["hypersurfaces.chart_evals_per_sample"] = evals / draws if draws else 0.0
    durations = [d for p in layers for d in p["hypersurfaces.analyze_point"]["durations"]]
    metrics["hypersurfaces.analyze_point.p50_ms"] = tracing.percentile_ms(durations, 50)
    metrics["hypersurfaces.analyze_point.p90_ms"] = tracing.percentile_ms(durations, 90)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics


def main(argv) -> int:
    name, seed, seconds = argv[0], int(argv[1]), float(argv[2])
    trace_on, budget = argv[3] == "1", float(argv[4])
    workloads.require_checkout_nks3()
    workload = workloads.WORKLOADS[name]
    workload.setup()
    runner = Runner(workload, seed)
    if trace_on:
        result = measure_traced(runner, seconds, budget, OUT_DIR / f"spans-{name}.jsonl")
    else:
        result = measure(runner, seconds, budget)
    bad = [k for k, v in result["metrics"].items() if not math.isfinite(v)]
    if bad:
        raise SystemExit(f"error: non-finite metrics {bad}")
    result.update(
        attempted=runner.attempted,
        failed=len(runner.failures),
        failures=runner.failures[:20],
        environment={
            **verify.environment_fingerprint(),
            "nproc": os.cpu_count(),
            "threads": {k: os.environ.get(k) for k in run.THREAD_VARS},
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
