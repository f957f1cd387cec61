"""What the scripts of `tools/` share: how a script reaches this checkout's
nks3 and benchmark workloads, and how it ends when its reader closes the
pipe early.

    import _harness
    ...
    if __name__ == "__main__":
        _harness.run(main)

`workloads()` pins OpenBLAS, OpenMP and MKL to one thread, as the
benchmark does, puts this checkout's src/ first on sys.path (once, on
any number of calls), loads
`perfbench/workloads.py` by path and refuses an nks3 from anywhere else;
`cli_main()` does the same for `nks3.cli.main`, with NKS3_SEED unset.
`workload_names(W, names)` checks workload names, and `rebound(functions,
wrap)` replaces functions by wrappers in every nks3 module that binds them
while its block runs.

`run(main)` calls main(sys.argv[1:]) and exits with its return code.  When
stdout is a pipe whose reader has closed it, the next write or the final
flush raises BrokenPipeError; `run` then points stdout at the null device,
so that the interpreter's own flush at exit does not raise again, and
exits with CLOSED_PIPE, 128 + SIGPIPE, the status a shell reports for a
program killed by SIGPIPE, with nothing on stderr.
"""

from __future__ import annotations

import contextlib
import importlib.util
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLOSED_PIPE = 141  # 128 + SIGPIPE (13)


def _checkout_first() -> None:
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    src = str(ROOT / "src")
    if sys.path[:1] != [src]:  # first, and only once however often it is called
        sys.path[:] = [src] + [entry for entry in sys.path if entry != src]


def workloads():
    """The benchmark's workloads module, over this checkout's nks3."""
    _checkout_first()
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("nks3_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.require_checkout_nks3()
    return module


def cli_main():
    """`nks3.cli.main` of this checkout, with NKS3_SEED unset."""
    _checkout_first()
    os.environ.pop("NKS3_SEED", None)
    import nks3.cli
    if not Path(nks3.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: nks3 imported from {nks3.cli.__file__}, not from {ROOT / 'src'}")
    return nks3.cli.main


def workload_names(W, names: list):
    """The names, or every workload of W for none; None, with a one-line
    error on stderr, when one is not a workload of W."""
    names = names or list(W.WORKLOADS)
    unknown = [n for n in names if n not in W.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; "
              f"choose from {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return None
    return names


@contextlib.contextmanager
def rebound(functions: dict, wrap):
    """While the block runs, every nks3 module that binds one of the
    functions, {name: f}, binds wrap(name, f) in its place; the originals
    are bound again on exit, also when the block raises."""
    wrappers = [(f, wrap(name, f)) for name, f in functions.items()]
    bound = [(vars(m), key, f, wrapper) for module, m in list(sys.modules.items())
             if m is not None and module.split(".")[0] == "nks3"
             for key, value in list(vars(m).items())
             for f, wrapper in wrappers if value is f]
    for namespace, key, _, wrapper in bound:
        namespace[key] = wrapper
    try:
        yield
    finally:
        for namespace, key, f, _ in bound:
            namespace[key] = f


def run(main) -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = CLOSED_PIPE
    sys.exit(code)
