"""Run a fixed matrix of `nks3 analyze` and `nks3 sweep` calls and show what moved.

    python tools/cli_drift.py [--dump FILE] [--against FILE]

Each invocation of `MATRIX` goes through `nks3.cli.main` in-process, with
the nks3 of this checkout's src/, and its record is its exit code, stdout
and stderr.  The matrix holds

* `analyze` of each of the six families at seeds 0-3, at the chart
  origin, and at chart points with -0.0 coordinates (`SIGNED_ZEROS`), some
  with a coordinate beyond pi/2, where a cosine of the chart is negative;
* `sweep` of the two point-sweep grids of the benchmark at seeds 0-3, and
  of grids of m1, m2, m5 and m6 at seeds 0-1, which chart a parameter
  value per row through no isometry, the factor swap and the twist;
* `sweep` at the edges of its grid blocks (`SWEEP_EDGES`): one sample per
  grid value, a grid of one value, a repeated value, and an m4 grid of one
  sample each, where no row has a theta;
* `analyze` at the near-lock point u1 = 0.7845, 9e-4 from the u1 = pi/4
  chart lock;
* `analyze` and `sweep` of m6 at k = 0.999999, where the largest principal
  curvature is 707 and two distinct ones 1.2e-4 apart are reported as one
  cluster;
* degenerate and out-of-range inputs, which exit 2.

It prints one line per invocation, its exit code and its arguments.
`--dump FILE` writes every record as JSON, `{invocation: [exit code,
stdout, stderr]}`.  `--against FILE` reads such a dump, made for example
at a parent commit, names every invocation whose record differs from it
byte for byte and counts them: the check that a change meant to keep the
command-line output reproduces it.  Exits 1 when any invocation differs,
else 0; when its output is piped into a reader that closes it early, it
stops quietly and exits 141 (`tools/_harness.py`).  Like the benchmark, it
pins OpenBLAS, OpenMP and MKL to one thread, and it ignores NKS3_SEED.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json

import _harness

FAMILY_PARAMS = (("m1", "--r", "0.6"), ("m2", "--r", "0.6"), ("m3", "--r", "1"),
                 ("m4", "--k", "0.6"), ("m5", "--k", "0.6"), ("m6", "--k", "0.8"))
SWEEP_GRIDS = (("m3", "--r", "0.3,0.6,1"), ("m4", "--k", "0.5,0.6,0.8"))
SEEDS = range(4)
# the isometry cases of the chart not in the benchmark's grids
FAMILY_GRIDS = (("m1", "--r", "0.3,0.6,1"), ("m2", "--r", "0.4,0.8"),
                ("m5", "--k", "0.5,0.6,0.8"), ("m6", "--k", "0.5,0.8"))
# (family, option, values, samples) at the edges of the sweep's grid blocks
SWEEP_EDGES = (("m3", "--r", "0.3,0.6,1", "1"), ("m4", "--k", "0.5,0.6,0.8", "1"),
               ("m2", "--r", "0.7", "5"), ("m6", "--k", "0.7", "1"),
               ("m1", "--r", "1,1", "1"))
SIGNED_ZEROS = ("-0,-0,-0,-0,-0", "0,-0,0,-0,0", "-0,0.3,-0,0.5,-0",
                "-0,0,2,-0,0", "0,-2,0,-2,0", "0.2,-0,-0,2.5,-0")

MATRIX = (
    [["analyze", "--family", f, p, v, "--seed", str(s)]
     for f, p, v in FAMILY_PARAMS for s in SEEDS]
    + [["analyze", "--family", f, p, v, "--at", "0,0,0,0,0"] for f, p, v in FAMILY_PARAMS]
    + [["analyze", "--family", f, p, v, f"--at={u}"]
       for f, p, v in FAMILY_PARAMS for u in SIGNED_ZEROS]
    + [["sweep", "--family", f, p, v, "--samples", "10", "--seed", str(s)]
       for f, p, v in SWEEP_GRIDS for s in SEEDS]
    + [["sweep", "--family", f, p, v, "--samples", "5", "--seed", str(s)]
       for f, p, v in FAMILY_GRIDS for s in range(2)]
    + [["sweep", "--family", f, p, v, "--samples", n, "--seed", "0"]
       for f, p, v, n in SWEEP_EDGES]
    + [
        # near the u1 = pi/4 lock, and on it
        ["analyze", "--family", "m1", "--r", "0.6", "--at", "0.2,0.7845,0.1,0.3,0.4"],
        ["analyze", "--family", "m3", "--r", "0.6", "--at", "0,0.785398,0,0,0"],
        ["sweep", "--family", "m4", "--k", "0.999999999999", "--seed", "0"],
        # large curvature: two distinct curvatures within one cluster threshold
        ["analyze", "--family", "m6", "--k", "0.999999", "--seed", "3"],
        ["sweep", "--family", "m6", "--k", "0.999999", "--samples", "3"],
        # chart points and parameters out of range
        ["analyze", "--family", "m1", "--r", "0.6", "--at", "0,0,0,0,7"],
        ["analyze", "--family", "m1", "--r", "0.6", "--at", "1e300,0,0,0,0"],
        ["analyze", "--family", "m1", "--r", "0.5", "--at", "nan,0,0,0,0"],
        ["analyze", "--family", "m1", "--r", "0.5", "--at", "0,0"],
        ["analyze", "--family", "m1", "--r", "0.01", "--seed", "0"],
        ["analyze", "--family", "m4", "--k", "1.2", "--seed", "0"],
        ["analyze", "--family", "m4", "--k", "0.6", "--r", "0.5", "--seed", "0"],
        ["sweep", "--family", "m1", "--r", "0.5,nan", "--seed", "0"],
        ["sweep", "--family", "m1", "--r", "0.5", "--samples", "0", "--seed", "0"],
        ["sweep", "--family", "m3", "--r", "0.5", "--samples", "1", "--seed", "-2"],
    ]
)


def run(main, argv: list) -> list:
    """[exit code, stdout, stderr] of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def against(records: dict, dumped: dict) -> int:
    """Print the invocations whose records differ from a dump, or that only
    one of them has; return how many."""
    moved = [name for name in list(records) + [n for n in dumped if n not in records]
             if records.get(name) != dumped.get(name)]
    print(f"against dump: {len(moved)} of {len(set(records) | set(dumped))} "
          f"invocations differ")
    for name in moved:
        print(f"  {name}")
    return len(moved)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="cli_drift.py", description=__doc__.split("\n")[0])
    parser.add_argument("--dump", metavar="FILE",
                        help="write every invocation's exit code, stdout and stderr")
    parser.add_argument("--against", metavar="FILE",
                        help="name the invocations that differ from a dump")
    args = parser.parse_args(argv)
    dumped = None
    if args.against:
        with open(args.against, encoding="utf-8") as f:
            dumped = json.load(f)
    cli_main = _harness.cli_main()
    records = {}
    for invocation in MATRIX:
        name = " ".join(invocation)
        records[name] = run(cli_main, invocation)
        print(f"exit {records[name][0]}  {name}")
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as f:
            json.dump(records, f, indent=1)
    if dumped is not None and against(records, dumped):
        return 1
    return 0


if __name__ == "__main__":
    _harness.run(main)
