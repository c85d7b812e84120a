"""Span recorder for the traced benchmark run, and the per-layer metrics read
off its spans.

Tracing lives entirely in the benchmark: ``instrument`` wraps the public
functions of each riggedframes module in every module namespace that bound
them (so ``operators.sample_kernel`` is caught as well as
``kernels.sample_kernel``), and the ``numpy.linalg`` entry points the package
factors with.  A linalg call is attributed to the innermost repo-layer span
open around it.  Spans stay in memory until ``Recorder.write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

LAYERS = (
    "hermite",
    "quadrature",
    "weights",
    "kernels",
    "operators",
    "duality",
    "moments",
    "reporting",
    "cli",
)
LINALG = ("svd", "eigh", "lstsq", "pinv")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    request: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """In-memory span store with the stack of currently open spans."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.request = None

    def open(self, name, layer, **attrs):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, layer, 0.0, request=self.request, attrs=attrs)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order (open: {popped.name})")

    @contextmanager
    def span(self, name, layer="bench", **attrs):
        opened = self.open(name, layer, **attrs)
        try:
            yield opened
        finally:
            self.close(opened)

    def innermost_layer(self):
        for span in reversed(self._open):
            if span.layer in LAYERS:
                return span.layer
        return "bench"

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _svd_attrs(args, kwargs):
    shape = getattr(args[0], "shape", ())
    return {
        "shape": list(shape),
        "complex": bool(getattr(args[0], "dtype", None) is not None and args[0].dtype.kind == "c"),
        "full_matrices": bool(kwargs.get("full_matrices", args[1] if len(args) > 1 else True)),
        "compute_uv": bool(kwargs.get("compute_uv", args[2] if len(args) > 2 else True)),
    }


def _shape_attrs(args, kwargs):
    return {"shape": list(getattr(args[0], "shape", ()))}


# Counts taken at a layer boundary from the call's arguments and result.
OBSERVERS = {
    "hermite.hermite_table": lambda bound, out: {"cells": int(out.size)},
    "quadrature.build_grid": lambda bound, out: {"nodes": int(out.node_count)},
    "kernels.sample_kernel": lambda bound, out: {"bytes": int(out.entries.nbytes)},
    "kernels.save_kernel_csv": lambda bound, out: {"bytes": os.path.getsize(bound["path"])},
    "kernels.load_custom_kernel": lambda bound, out: {"bytes": os.path.getsize(bound["path"])},
    "reporting.emit": lambda bound, out: {"bytes": len(out)},
    "operators.classify": lambda bound, out: {"stages": len(out.stages)},
}


def _wrap(recorder, name, layer, fn):
    observe = OBSERVERS.get(name)
    signature = inspect.signature(fn) if observe else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name, layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if observe:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.attrs.update(observe(bound.arguments, out))
        return out

    return traced


def _wrap_linalg(recorder, attr, fn):
    describe = _svd_attrs if attr == "svd" else _shape_attrs

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(f"linalg.{attr}", recorder.innermost_layer(), **describe(args, kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)

    return traced


def public_functions(module):
    return [
        (attr, value)
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    ]


@contextmanager
def instrument(recorder):
    """Route every public riggedframes function and numpy.linalg entry point
    through ``recorder`` for the duration of the block."""
    import numpy as np

    # Import every layer before scanning namespaces, so that no module binds
    # a wrapper at import time that the restore would miss.
    modules = {layer: importlib.import_module(f"riggedframes.{layer}") for layer in LAYERS}
    namespaces = [
        module
        for name, module in list(sys.modules.items())
        if name == "riggedframes" or name.startswith("riggedframes.")
    ]
    patches = []
    for layer, module in modules.items():
        for attr, fn in public_functions(module):
            traced = _wrap(recorder, f"{layer}.{attr}", layer, fn)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is fn:
                        patches.append((namespace, key, fn))
                        setattr(namespace, key, traced)
    for attr in LINALG:
        fn = getattr(np.linalg, attr)
        patches.append((np.linalg, attr, fn))
        setattr(np.linalg, attr, _wrap_linalg(recorder, attr, fn))
    try:
        yield recorder
    finally:
        for namespace, key, fn in reversed(patches):
            setattr(namespace, key, fn)


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that its children cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        inner = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
            if c.end > span.start and c.start < span.end
        ]
        out[span.id] = span.duration - covered(inner)
    return out


def svd_flops(attrs):
    """Real flop estimate for one LAPACK SVD from its shape (Golub and Van Loan,
    Matrix Computations, Golub-Reinsch column of the SVD cost table); complex
    arithmetic counts four times.  Integer, so sums repeat exactly."""
    m, n = attrs["shape"][-2:]
    m, n = max(m, n), min(m, n)
    if not attrs["compute_uv"]:
        flops = 4 * m * n**2 - 4 * n**3 // 3
    elif attrs["full_matrices"]:
        flops = 4 * m**2 * n + 8 * m * n**2 + 9 * n**3
    else:
        flops = 14 * m * n**2 + 8 * n**3
    return flops * (4 if attrs["complex"] else 1)


class SpanIndex:
    """Queries over one recorded run: calls, inclusive and self time by name."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.self_time = self_times(spans)

    def named(self, *names):
        return [s for s in self.spans if s.name in names]

    def ancestors(self, span):
        parent = span.parent
        while parent is not None:
            span = self.by_id[parent]
            yield span
            parent = span.parent

    def outermost(self, *names):
        """Spans with one of ``names`` that are not nested inside another."""
        return [
            s for s in self.named(*names) if not any(a.name in names for a in self.ancestors(s))
        ]

    def calls(self, *names):
        return len(self.named(*names))

    def seconds(self, *names):
        return sum(s.duration for s in self.outermost(*names))

    def self_seconds(self, *names):
        return sum(self.self_time[s.id] for s in self.named(*names))

    def attr_sum(self, key, *names):
        return sum(s.attrs.get(key, 0) for s in self.named(*names))

    def linalg(self, layer, attr):
        return [s for s in self.named(f"linalg.{attr}") if s.layer == layer]

    def under(self, span_list, ancestor_name):
        return [s for s in span_list if any(a.name == ancestor_name for a in self.ancestors(s))]


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# name -> unit; the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER_UNITS = {
    "operators.svd_calls": "count",
    "operators.svd_s": "s",
    "operators.svd_flops": "flop",
    "operators.svd_calls_per_stage": "calls/stage",
    "operators.classify_self_s": "s",
    "operators.mu_test_s": "s",
    "operators.frame_operator_calls": "count",
    "operators.frame_operator_s": "s",
    "operators.eigh_calls": "count",
    "operators.eigh_s": "s",
    "duality.canonical_dual_calls": "count",
    "duality.canonical_dual_s": "s",
    "duality.dual_bounds_s": "s",
    "duality.verify_s": "s",
    "duality.reconstruct_s": "s",
    "moments.rf_diagnostic_s": "s",
    "moments.solve_moment_calls": "count",
    "moments.svd_calls": "count",
    "moments.svd_s": "s",
    "moments.factorizations_per_kernel": "svd/call",
    "kernels.sample_calls": "count",
    "kernels.sample_s": "s",
    "kernels.entry_bytes": "B",
    "kernels.csv_save_s": "s",
    "kernels.csv_load_s": "s",
    "kernels.csv_bytes": "B",
    "hermite.table_calls": "count",
    "hermite.table_s": "s",
    "hermite.cells": "count",
    "quadrature.grid_calls": "count",
    "quadrature.nodes": "count",
    "weights.eval_s": "s",
    "reporting.load_config_s": "s",
    "reporting.run_self_s": "s",
    "reporting.emit_s": "s",
    "reporting.report_bytes": "B",
    "cli.main_self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(spans):
    """Per-layer metrics of one traced run, keyed as in PER_LAYER_UNITS
    (``trace.overhead_ratio`` is added by the caller, which times both runs)."""
    ix = SpanIndex(spans)
    op_svd = ix.linalg("operators", "svd")
    op_eigh = ix.linalg("operators", "eigh")
    mo_svd = ix.linalg("moments", "svd")
    classify_svd = ix.under(op_svd, "operators.classify")
    rf_calls = ix.calls("moments.rf_diagnostic")
    hermite_tables = ("hermite.hermite_table", "hermite.hermite_derivative_table", "hermite.hermite_eval")
    csv_paths = ("kernels.save_kernel_csv", "kernels.load_custom_kernel")
    return {
        "operators.svd_calls": len(op_svd),
        "operators.svd_s": sum(s.duration for s in op_svd),
        "operators.svd_flops": sum(svd_flops(s.attrs) for s in op_svd),
        "operators.svd_calls_per_stage": _ratio(
            len(classify_svd), ix.attr_sum("stages", "operators.classify")
        ),
        "operators.classify_self_s": ix.self_seconds("operators.classify"),
        "operators.mu_test_s": ix.seconds("operators.mu_independence_test"),
        "operators.frame_operator_calls": ix.calls("operators.frame_operator"),
        "operators.frame_operator_s": ix.seconds("operators.frame_operator"),
        "operators.eigh_calls": len(op_eigh),
        "operators.eigh_s": sum(s.duration for s in op_eigh),
        "duality.canonical_dual_calls": ix.calls("duality.canonical_dual"),
        "duality.canonical_dual_s": ix.seconds("duality.canonical_dual"),
        "duality.dual_bounds_s": ix.seconds("duality.dual_bounds"),
        "duality.verify_s": ix.seconds("duality.verify_duality"),
        "duality.reconstruct_s": ix.seconds("duality.reconstruct"),
        "moments.rf_diagnostic_s": ix.seconds("moments.rf_diagnostic"),
        "moments.solve_moment_calls": ix.calls("moments.solve_moment"),
        "moments.svd_calls": len(mo_svd),
        "moments.svd_s": sum(s.duration for s in mo_svd),
        "moments.factorizations_per_kernel": _ratio(
            len(ix.under(mo_svd, "moments.rf_diagnostic")), rf_calls
        ),
        "kernels.sample_calls": ix.calls("kernels.sample_kernel"),
        "kernels.sample_s": ix.seconds("kernels.sample_kernel"),
        "kernels.entry_bytes": ix.attr_sum("bytes", "kernels.sample_kernel"),
        "kernels.csv_save_s": ix.seconds("kernels.save_kernel_csv"),
        "kernels.csv_load_s": ix.seconds("kernels.load_custom_kernel"),
        "kernels.csv_bytes": ix.attr_sum("bytes", *csv_paths),
        "hermite.table_calls": ix.calls("hermite.hermite_table"),
        "hermite.table_s": ix.seconds(*hermite_tables),
        "hermite.cells": ix.attr_sum("cells", "hermite.hermite_table"),
        "quadrature.grid_calls": ix.calls("quadrature.build_grid"),
        "quadrature.nodes": ix.attr_sum("nodes", "quadrature.build_grid"),
        "weights.eval_s": ix.seconds("weights.eval_weight"),
        "reporting.load_config_s": ix.seconds("reporting.load_config"),
        "reporting.run_self_s": ix.self_seconds("reporting.run"),
        "reporting.emit_s": ix.seconds("reporting.emit"),
        "reporting.report_bytes": ix.attr_sum("bytes", "reporting.emit"),
        "cli.main_self_s": ix.self_seconds("cli.main"),
    }
