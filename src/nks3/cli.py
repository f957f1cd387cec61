"""Command-line interface: verification suites, point analyses, sweeps.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error (an input
too large to allocate included), 3 I/O failure (any OSError, a failed
``--out`` write included, which `main` reports on one stderr line).  The
seed resolves as flag > NKS3_SEED environment variable > default 0.  Reals
in CSV output use 12 significant digits and a '.' decimal point.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import hypersurfaces as hs
from . import verify
from .errors import DegenerateImmersionError, DomainError, PreconditionError, allocation

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3

MIN_SWEEP_R = 0.05

SWEEP_HEADER = [
    "family", "r", "k", "l",
    "ev1", "ev2", "ev3", "ev4", "ev5",
    "mult_pattern", "traceA", "pxi_class", "theta",
]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _resolve_seed(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("NKS3_SEED", "0")
        try:
            seed = int(env)
        except ValueError as exc:
            raise DomainError(f"NKS3_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    return seed


def _family_params(family: str, r=None, k=None, l=None) -> dict:
    """The `hs.make_example` parameters from the values given on the command
    line.  Every given value is kept, so `make_example` rejects one that the
    family does not take; for m4..m6 an omitted l is sqrt(1 - k^2)."""
    if family in hs.THREE_CURVATURE_FAMILIES:
        if r is None:
            raise DomainError(f"family {family} requires --r")
        if not MIN_SWEEP_R <= r <= 1.0:
            raise DomainError(f"r must lie in [{MIN_SWEEP_R}, 1]")
    else:
        if k is None:
            raise DomainError(f"family {family} requires --k (and optionally --l)")
        if not 0.0 < k < 1.0:
            raise DomainError("k must lie in (0, 1)")
        if l is None:
            l = math.sqrt(1.0 - k * k)
    return {name: v for name, v in (("r", r), ("k", k), ("l", l)) if v is not None}


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    seed = _resolve_seed(args)

    def samples(default: int) -> int:
        return default if args.samples is None else args.samples

    reports = []
    if args.suite in ("structure", "all"):
        reports.append(verify.run_structure_suite(seed, samples(1000)))
    if args.suite in ("isometry", "all"):
        reports.append(verify.run_isometry_suite(seed, samples(100)))
    if args.suite in ("hypersurface", "all"):
        reports.append(verify.run_default_hypersurface_suites(seed, samples(5)))

    payload = reports[0].to_dict() if len(reports) == 1 else [r.to_dict() for r in reports]
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    print(text)
    return EXIT_OK if all(r.all_pass for r in reports) else EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _report_dict(family: str, params: dict, data: hs.HypersurfacePointData) -> dict:
    """The JSON of the analysed point, row 0 of the data: the
    multiplicities are the nonzero cluster sizes, theta is null unless they
    include a 2, and pxi_class is null where the class is UNDEFINED."""
    mult = [int(n) for n in data.multiplicities[0] if n]
    trace = float(np.sum(data.eigenvalues, axis=-1)[0])
    pxi_class = str(hs.classify_normal_action(data)[0])
    return {
        "family": family,
        **params,
        "at": data.u[0].tolist(),
        "alpha": float(data.alpha[0]),
        "eigenvalues": data.eigenvalues[0].tolist(),
        "multiplicities": mult,
        "trace_A": trace,
        "mean_curvature": trace / 5.0,
        "hopf_residual": float(data.hopf_residual[0]),
        "shape_symmetry_residual": float(data.symmetry_residual[0]),
        "dim_distribution": 2 if data.c[0] <= hs.DIM_TOL else 4,
        "a": float(data.a[0]),
        "b": float(data.b[0]),
        "c": float(data.c[0]),
        "theta": float(data.theta[0]) if 2 in mult else None,
        "pxi_class": None if pxi_class == hs.UNDEFINED else pxi_class,
    }


def cmd_analyze(args) -> int:
    seed = _resolve_seed(args)
    params = _family_params(args.family, args.r, args.k, args.l)
    M = hs.make_example(args.family, **params)
    if args.at is not None:
        u = np.asarray(args.at, dtype=float)
        # chart coordinates are angles, held to one turn: a larger value
        # holds its angle less precisely, and from 2**55 on adjacent floats
        # lie more than a turn apart
        if np.any(np.abs(u) > 2.0 * math.pi):
            raise DomainError(f"chart point {u.tolist()} is out of range: "
                              "each coordinate is an angle, at most 2 pi in size")
    else:
        u = hs.random_chart_point(np.random.default_rng(seed))
    try:
        with np.errstate(over="raise", invalid="raise"):
            data = hs.analyze_point(M, u)
    except FloatingPointError as exc:
        raise DomainError(f"chart point {u.tolist()} is out of range: {exc}") from exc
    print(json.dumps(_report_dict(args.family, params, data), indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_rows(args, seed: int):
    """The CSV rows of the sweep, and the largest eigenvalue spread of a
    grid value over its samples.  All grid values' samples are analysed as
    one batch, of one immersion with a parameter value per row; each row of
    the CSV comes from its grid value's block of that batch."""
    if args.samples < 1:
        raise DomainError("--samples must be at least 1")
    rng = np.random.default_rng(seed)
    if args.family in hs.THREE_CURVATURE_FAMILIES and not args.r_values:
        raise DomainError("sweep over m1..m3 requires --r with a comma list")
    if args.family in hs.FIVE_CURVATURE_FAMILIES and not args.k_values:
        raise DomainError("sweep over m4..m6 requires --k with a comma list")
    grid = [_family_params(args.family, r, k)
            for r in args.r_values or [None] for k in args.k_values or [None]]
    n = args.samples
    with allocation(f"{n} samples per grid value"):
        U = hs.random_chart_points(rng, len(grid) * n)
    M = hs.make_example(args.family, **{
        name: np.repeat([params[name] for params in grid], n) for name in grid[0]})
    data = hs.analyze_points(M, U)
    spectra = data.eigenvalues.reshape(len(grid), n, 5)
    theta = data.theta.reshape(len(grid), n)
    classes = hs.classify_normal_action(data).reshape(len(grid), n)
    # column means of ascending rows stay ascending
    mean_spec = np.mean(spectra, axis=1)
    mult = hs.cluster_sizes(mean_spec)
    rows = []
    for j, params in enumerate(grid):
        thetas = theta[j][~np.isnan(theta[j])]
        kinds = set(classes[j].tolist())
        row = {
            "family": args.family,
            "r": _fmt(params["r"]) if "r" in params else "",
            "k": _fmt(params["k"]) if "k" in params else "",
            "l": _fmt(params["l"]) if "l" in params else "",
            "mult_pattern": "-".join(str(m) for m in mult[j] if m),
            "traceA": _fmt(float(np.sum(mean_spec[j]))),
            "pxi_class": kinds.pop() if len(kinds) == 1 else "MIXED",
            "theta": _fmt(float(np.mean(thetas))) if len(thetas) else "",
            **{f"ev{i + 1}": _fmt(float(v)) for i, v in enumerate(mean_spec[j])},
        }
        rows.append(row)
    # NaN if any spread is NaN, which then fails the spread test
    return rows, float(np.max(np.ptp(spectra, axis=1)))


def cmd_sweep(args) -> int:
    seed = _resolve_seed(args)
    rows, worst_spread = _sweep_rows(args, seed)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_HEADER)
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    if not worst_spread <= 1e-6:
        print(
            f"error: eigenvalue spread {worst_spread:.3e} exceeds 1e-6; "
            "principal curvatures are not constant across sample points",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _float_list(text: str):
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise argparse.ArgumentTypeError(f"values must be finite: {text!r}")
    return vals


def _at_list(text: str):
    vals = _float_list(text)
    if len(vals) != 5:
        raise argparse.ArgumentTypeError("--at needs exactly 5 comma-separated reals")
    return vals


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nks3", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite, emit JSON")
    pv.add_argument("--suite", required=True,
                    choices=["structure", "hypersurface", "isometry", "all"])
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--samples", type=int, default=None)
    pv.add_argument("--out", default=None, help="also write the JSON report here")
    pv.set_defaults(func=cmd_verify)

    pa = sub.add_parser("analyze", help="analyze one point, emit JSON")
    pa.add_argument("--family", required=True, choices=list(hs.FAMILIES))
    pa.add_argument("--r", type=float, default=None)
    pa.add_argument("--k", type=float, default=None)
    pa.add_argument("--l", type=float, default=None)
    pa.add_argument("--at", type=_at_list, default=None,
                    help="chart point, 5 comma-separated reals, each an angle "
                         "with |u_i| <= 2 pi")
    pa.add_argument("--seed", type=int, default=None)
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("sweep", help="sweep a parameter grid, emit CSV")
    ps.add_argument("--family", required=True, choices=list(hs.FAMILIES))
    ps.add_argument("--r", dest="r_values", type=_float_list, default=None,
                    help="comma list of r values (m1..m3)")
    ps.add_argument("--k", dest="k_values", type=_float_list, default=None,
                    help="comma list of k values (m4..m6); l = sqrt(1 - k^2)")
    ps.add_argument("--samples", type=int, default=5,
                    help="surface points per grid value")
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--out", default=None, help="CSV output path (default stdout)")
    ps.set_defaults(func=cmd_sweep)

    return parser


# the parser of `main`, built on its first call and kept for the process
_parser = functools.cache(build_parser)


# argparse reads a value such as "-0.1,0,0,0,0" as an option name, because
# it is not a plain negative number; these options take such values
_SIGNED_OPTIONS = ("--at", "--r", "--k")
_SIGNED_VALUE = re.compile(r"-(\d|\.|inf|nan)", re.IGNORECASE)


def _join_signed_values(argv: list) -> list:
    """Rewrite "--at -0.1,..." as "--at=-0.1,..." for the signed options."""
    out = []
    i = 0
    while i < len(argv):
        if (argv[i] in _SIGNED_OPTIONS and i + 1 < len(argv)
                and _SIGNED_VALUE.match(argv[i + 1])):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(_join_signed_values(argv))
    except SystemExit as exc:
        # argparse uses 2 for usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, PreconditionError, DegenerateImmersionError,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # a sample count too large to allocate is a usage error
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
