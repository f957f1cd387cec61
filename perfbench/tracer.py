"""In-memory tracer that wraps nks3's public functions from outside the package.

`Tracer.installed()` replaces each traced function in every ``nks3.*``
module namespace that binds it (and each traced method on its class) with a
wrapper, and puts the originals back on exit.  Two kinds of wrapper:

* span wrappers record ``[name, start, end, parent, pass_id]`` per call,
  plus the time covered by traced children, so self time is the span's
  duration minus that covered time;
* leaf counters, for the hottest leaves (``quat.mul`` at ~10^5 calls per
  battery pass, ``TangentVector`` construction), keep only a call count and
  summed time and add that time to the enclosing span's covered time.  They
  record no span, which keeps the tracing overhead small.

A call to a spanned function made directly from inside the same function
(the composed families' pushforward calls their base chart's pushforward)
is folded into the outer span, so ``Immersion.pushforward.calls`` counts
chart evaluations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time

# (module, attribute or Class.method) of every function that gets a span
SPANNED = (
    ("nks3.frames", "frame_coords"),
    ("nks3.frames", "frame_to_r8"),
    ("nks3.frames", "r8_to_frame"),
    ("nks3.frames", "tensor_G"),
    ("nks3.frames", "connection_relation_residual"),
    ("nks3.pointwise", "project_tangent"),
    ("nks3.pointwise", "metric_g"),
    ("nks3.isometries", "IsometryMap.differential"),
    ("nks3.isometries", "differential_fd"),
    ("nks3.isometries", "composition_checks"),
    ("nks3.hypersurfaces", "Immersion.pushforward"),
    ("nks3.hypersurfaces", "analyze_point"),
    ("nks3.hypersurfaces", "spectral_report"),
    ("nks3.hypersurfaces", "reeb_transport_residual"),
    ("nks3.hypersurfaces", "codazzi_residual"),
    ("nks3.hypersurfaces", "gauss_residual"),
    ("nks3.hypersurfaces", "hopf_identity_residual"),
    ("nks3.hypersurfaces", "theta_r_consistency"),
    ("nks3.hypersurfaces", "leaf_geometry"),
    ("nks3.verify", "run_structure_suite"),
    ("nks3.verify", "run_isometry_suite"),
    ("nks3.verify", "run_hypersurface_suite"),
    ("nks3.cli", "main"),
)

# leaves that call no traced function: count and time only
COUNTED = (
    ("nks3.quat", "mul"),
    ("nks3.quat", "exp_pure"),
    ("nks3.pointwise", "TangentVector.__init__"),
    ("nks3.hypersurfaces", "random_chart_point"),
)


def metric_name(module: str, attr: str) -> str:
    """'nks3.pointwise', 'TangentVector.__init__' -> 'pointwise.TangentVector.init'."""
    return module.split(".", 1)[1] + "." + attr.replace("__init__", "init")


def _nks3_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nks3" or name.startswith("nks3."))]


class Tracer:
    """Spans and leaf counts of the traced passes of one run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, pass id]
        self.passes = []         # (pass id, first span, end span, leaf counts)
        self._covered = []       # child time covered, parallel to spans
        self._stack = []         # indices of the open spans
        self._leaves = {metric_name(m, a): [0, 0.0] for m, a in COUNTED}
        self._pass_id = None
        self._saved = []         # (namespace, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, covered, stack = self.spans, self._covered, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else None
            rec = [name, 0.0, 0.0, parent, self._pass_id]
            spans.append(rec)
            covered.append(0.0)
            stack.append(idx)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                rec[2] = end
                stack.pop()
                if parent is not None:
                    covered[parent] += end - rec[1]

        return wrapper

    def _leaf_wrapper(self, name, fn):
        stat, covered, stack = self._leaves[name], self._covered, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stat[0] += 1
                stat[1] += dt
                if stack:
                    covered[stack[-1]] += dt

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, module: str, attr: str, make_wrapper) -> None:
        mod = importlib.import_module(module)
        name = metric_name(module, attr)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[meth]
            self._saved.append((owner, meth, original))
            setattr(owner, meth, make_wrapper(name, original))
            return
        original = getattr(mod, attr)
        wrapper = make_wrapper(name, original)
        for namespace in _nks3_modules():
            for key, value in list(vars(namespace).items()):
                if value is original:
                    self._saved.append((namespace, key, original))
                    setattr(namespace, key, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module, attr in SPANNED:
            self._patch(module, attr, self._span_wrapper)
        for module, attr in COUNTED:
            self._patch(module, attr, self._leaf_wrapper)
        originals = {id(orig) for _, _, orig in self._saved}
        for namespace in _nks3_modules():
            for key, value in vars(namespace).items():
                if id(value) in originals:
                    self.uninstall()
                    raise RuntimeError(
                        f"unwrapped alias {namespace.__name__}.{key} of a traced function"
                    )

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._saved):
            setattr(namespace, key, original)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def traced_pass(self, pass_id: int):
        """Tag the spans of one pass and snapshot its leaf counts."""
        for stat in self._leaves.values():
            stat[0], stat[1] = 0, 0.0
        first = len(self.spans)
        self._pass_id = pass_id
        try:
            yield
        finally:
            self._pass_id = None
            leaves = {name: tuple(stat) for name, stat in self._leaves.items()}
            self.passes.append((pass_id, first, len(self.spans), leaves))

    # -- aggregation --------------------------------------------------------

    def pass_layers(self, index: int) -> dict:
        """Per-name calls, total_s, self_s and span durations of one pass."""
        _, first, end, leaves = self.passes[index]
        out = {name: {"calls": n, "total_s": s, "self_s": s, "durations": []}
               for name, (n, s) in leaves.items()}
        for module, attr in SPANNED:
            out[metric_name(module, attr)] = {
                "calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        for i in range(first, end):
            name, start, stop, _, _ = self.spans[i]
            entry = out[name]
            dur = stop - start
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - self._covered[i]
            entry["durations"].append(dur)
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: id, name, start, end, parent id, pass id;
        then one line per pass with its leaf counts."""
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, stop, parent, pass_id) in enumerate(self.spans):
                f.write(json.dumps([i, name, start, stop, parent, pass_id]) + "\n")
            for pass_id, _, _, leaves in self.passes:
                f.write(json.dumps({"pass": pass_id, "leaves": leaves}) + "\n")


def percentile_ms(durations, q: int) -> float:
    """q-th percentile (1..99) of span durations in milliseconds."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100)[q - 1] * 1e3
