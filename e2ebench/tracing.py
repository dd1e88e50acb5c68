"""Span tracing of fracspace from outside the package.

`install` wraps the public functions of each fracspace module, plus the
dense linear algebra that fracspace calls, without editing the package.
Modules import functions by name (`from .kfunctional import congruence`),
so a wrapper replaces every binding of the original function in every
loaded fracspace module and in the experiment registry, not only the one
in the defining module.

Each wrapped call records one span: name, start, end, parent span and
the id of the experiment run it belongs to. Spans stay in memory and are
written out when the run ends. A span's self time is its duration minus
the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

# fracspace module -> layer name used in metric names
MODULE_LAYERS = {
    "experiments": "experiments",
    "operators": "operators",
    "spectral": "spectral",
    "kfunctional": "kfunctional",
    "retractions": "retractions",
    "reporting": "reporting",
}

# The K^2 kernel is wrapped as the object the package selected, a Python
# function for the reference backend and a Cython function for the
# compiled one. Its layer is `kernels`, not `_kernels`: a metric name
# must start with a letter or a digit.
KERNEL = "kernels.k2_batch"

# private functions worth a layer of their own: the Simpson quadrature
# of the interpolation norm, called across modules by name
PRIVATE = {"kfunctional": ("_interp_norm_sq_spectral",)}

# library calls recorded only when a fracspace function makes them
LIBRARY = {
    "scipy.linalg": ("cho_factor", "cho_solve", "cholesky", "eigh"),
    "numpy.linalg": ("svd", "eigvalsh", "norm"),
}

def _library_label(lib: str, fn: str) -> str:
    return f"{lib}.{'norm2' if fn == 'norm' else fn}"  # norm: matrix 2-norms only


EXPERIMENT_NAMES = (
    "lemma41",
    "reiteration",
    "higher-power",
    "criticality",
    "weight",
    "intersection",
    "halft1",
    "stokes-retraction",
    "stokes-equivalence",
)


def _metrics():
    """(metric, unit, span name, field) for every per-layer metric.

    field is "incl" (inclusive seconds), "self" (self seconds), "calls"
    or the name of a counter.
    """
    rows = [(f"experiments.{e}.s", "s", f"experiments.{e}", "incl") for e in EXPERIMENT_NAMES]

    def add(span, *fields):
        for field in fields:
            if field == "self":
                rows.append((f"{span}.s", "s", span, "self"))
            elif field == "calls":
                rows.append((f"{span}.calls", "count", span, "calls"))
            else:
                rows.append((f"{span}.{field}", "count", span, field))

    for fn in (
        "laplacian_1d_analytic",
        "sobolev_grams",
        "build_stokes",
        "stokes_ambient_model",
        "stokes_spectral_model",
    ):
        add(f"operators.{fn}", "self")
    add("spectral.gram_schmidt", "self", "calls")
    add("spectral.build_spectral_model", "self")
    add("spectral.frac_norm", "self", "calls")
    add("kfunctional.interp_norm", "self", "calls")
    add("kfunctional.congruence", "self", "calls")
    add("kfunctional.build_quadratic_pair", "self")
    add("kfunctional._interp_norm_sq_spectral", "self", "calls")
    add(KERNEL, "self", "calls", "points", "pairs")
    add("retractions.verify_intersection_lemma", "self", "calls")
    add("retractions.harmonic_retraction", "self")
    add("retractions.stokes_retraction", "self")
    add("retractions.gram_operator_norm", "self", "calls")
    add("retractions.subspace_probes", "self")
    add("reporting.report_to_csv", "self")
    add("reporting.report_to_json", "self")
    add("reporting.write_report", "self")
    rows.append(("reporting.bytes", "B", "reporting.write_report", "bytes"))
    for lib, fns in LIBRARY.items():
        for fn in fns:
            add(_library_label(lib, fn), "calls", "self")
    return rows


METRICS = _metrics()


class Tracer:
    """In-memory span recorder shared by all wrappers of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id]
        self.counters = {}  # (span name, counter) -> int
        self.run = None
        self._stack = []

    def wrap(self, name, fn, select=None, count=None, package_only=False):
        """Return fn wrapped to record a span named name.

        select(args, kwargs) may decline a call (it is then not
        recorded); package_only records only calls made from fracspace
        code; count(counters, args, result) adds to counters.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if package_only and not sys._getframe(1).f_globals.get(
                "__name__", ""
            ).startswith("fracspace"):
                return fn(*args, **kwargs)
            if select is not None and not select(args, kwargs):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.run]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def write(self, path: str) -> None:
        """One JSON array per line: id, name, start, end, parent id, run id."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span]) + "\n")


def _count_k2(counters, args, result):
    lam, ts = args[0], args[2]
    key = KERNEL
    counters[(key, "points")] = counters.get((key, "points"), 0) + len(ts)
    counters[(key, "pairs")] = counters.get((key, "pairs"), 0) + len(ts) * len(lam)


def _count_bytes(counters, args, result):
    key = ("reporting.write_report", "bytes")
    counters[key] = counters.get(key, 0) + sum(os.path.getsize(p) for p in result)


def _matrix_2norm(args, kwargs):
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    return ord_ == 2 and getattr(args[0], "ndim", 0) == 2


def install(tracer: Tracer) -> None:
    """Wrap fracspace and the linear algebra it calls.

    Raises RuntimeError when no module outside `_kernels` binds the
    selected K^2 kernel, so that a kernel layer reading 0 always means
    the kernel was not called.
    """
    import fracspace  # noqa: F401  (loads every module)

    wrappers = {}  # id(original) -> (original, wrapper)
    registry = importlib.import_module("fracspace.experiments").EXPERIMENTS
    runner_names = {id(fn): name for name, (fn, _) in registry.items()}
    counters = {"reporting.write_report": _count_bytes}
    for module, layer in MODULE_LAYERS.items():
        mod = importlib.import_module(f"fracspace.{module}")
        for attr, obj in list(vars(mod).items()):
            public = not attr.startswith("_") or attr in PRIVATE.get(module, ())
            if not (public and inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                continue
            name = f"{layer}.{runner_names.get(id(obj), attr)}"
            wrappers[id(obj)] = (obj, tracer.wrap(name, obj, count=counters.get(name)))
    kernel = importlib.import_module("fracspace._kernels").k2_batch
    wrappers[id(kernel)] = (kernel, tracer.wrap(KERNEL, kernel, count=_count_k2))
    kernel_users = []
    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "fracspace"]:
        for attr, obj in list(vars(mod).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
                if obj is kernel and not mod.__name__.startswith("fracspace._kernels"):
                    kernel_users.append(mod.__name__)
    if not kernel_users:
        raise RuntimeError("no fracspace module outside _kernels binds the selected k2_batch")
    for name, (fn, doc) in list(registry.items()):
        registry[name] = (wrappers[id(fn)][1], doc)
    for lib, fns in LIBRARY.items():
        mod = importlib.import_module(lib)
        for fn in fns:
            label = _library_label(lib, fn)
            select = _matrix_2norm if fn == "norm" else None
            setattr(
                mod,
                fn,
                tracer.wrap(label, getattr(mod, fn), select=select, package_only=True),
            )


def aggregate(spans, by_run: bool = False) -> dict:
    """Calls, inclusive and self seconds per span name (or per run and name).

    spans holds [name, start, end, parent index, run id] entries.
    """
    covered = [0.0] * len(spans)
    for name, t0, t1, parent, run in spans:
        if parent is not None:
            covered[parent] += t1 - t0
    stats = {}
    for i, (name, t0, t1, parent, run) in enumerate(spans):
        s = stats.setdefault((run, name) if by_run else name, {"calls": 0, "incl": 0.0, "self": 0.0})
        s["calls"] += 1
        s["incl"] += t1 - t0
        s["self"] += (t1 - t0) - covered[i]
    return stats


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric by name; 0 where the layer was not called."""
    stats = aggregate(tracer.spans)
    out = {}
    for metric, unit, span, field in METRICS:
        if field in ("incl", "self"):
            value = stats.get(span, {}).get(field, 0.0)
        elif field == "calls":
            value = stats.get(span, {}).get(field, 0)
        else:
            value = tracer.counters.get((span, field), 0)
        out[metric] = {"value": value, "unit": unit}
    return out


def self_total(tracer: Tracer) -> float:
    """Seconds covered by any span (the sum of all self times)."""
    return sum(s["self"] for s in aggregate(tracer.spans).values())
