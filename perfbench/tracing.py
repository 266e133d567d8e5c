"""Span recorder for the traced run, and the per-layer metrics it yields.

`install(recorder)` wraps the library's public functions from outside:
each original function object is rebound under every name that refers
to it in any loaded `manifold_landau` module, and each curve class gets a
wrapped `batch`. Nothing in the library changes on disk; `uninstall`
restores the originals. Names a later version of the library no longer
has are skipped, so their layers report zero.

A span is (id, parent, call id, name, thread, start, end, attrs). Spans
stay in memory until the run writes them out. Pool workers inside
`chunked_extremum` open spans on their own threads; those take the open
`chunked_extremum` span as parent but never count against its self time,
so that span's self time is the calling thread's wait on the pool.
"""

import functools
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    call: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Recorder:
    """Thread-safe in-memory span store with per-thread span stacks."""

    def __init__(self):
        self.spans = []
        self.call_id = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self.pool_parent = None  # the open chunked_extremum span, if any
        self._client = threading.get_ident()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name, **attrs):
        stack = self._stack()
        if stack:
            parent, call = stack[-1].id, stack[-1].call
        elif threading.get_ident() != self._client and self.pool_parent is not None:
            parent, call = self.pool_parent.id, self.pool_parent.call
        else:
            parent, call = None, self.call_id
        with self._lock:
            span = Span(len(self.spans), parent, call, name, threading.get_ident(),
                        time.perf_counter(), attrs=attrs)
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()


POOL_SPAN = "config.chunked_extremum"


def _wrap(recorder, fn, name, on_call=None, on_return=None):
    """Span around fn. `name` may be a callable of the arguments;
    on_call(args) and on_return(args, result) return extra attrs."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name(args) if callable(name) else name,
                             **(on_call(args) if on_call else {}))
        pooled = span.name == POOL_SPAN
        if pooled:
            recorder.pool_parent = span
        try:
            result = fn(*args, **kwargs)
        finally:
            if pooled:
                recorder.pool_parent = None
            recorder.close(span)
        if on_return:
            span.attrs.update(on_return(args, result))
        return result

    return traced


def _targets():
    """(module, attribute, span name, on_call, on_return) for every wrapped
    function, resolved against the loaded library."""
    from manifold_landau import config

    def pooled(args):
        n = len(args[1])
        return {"pooled": min(config.worker_count(), max(1, n // 512)) > 1}

    def cap(args, result):
        return {"points": len(args[0]), "cloud": args[0],
                "iterations": getattr(result, "iterations", 0),
                "converged": getattr(result, "converged", None),
                "min_inner_product": result.min_inner_product}

    def lambda_kind(args):
        closed = getattr(args[0], "closed_unit_min", False)
        return "auxfun.lambda_min." + ("closed" if closed else "directional")

    def pipeline(args):
        # sphere_bound_report runs manifold_bound_report: count the pipeline once
        return {"pipeline": True}

    def probe(args, result):
        return {"evaluations": result.evaluations, "skipped": result.skipped}

    def rows_read(args, result):
        return {"rows": len(result[0])}

    def series(args):
        return {"rows": args[1].samples}

    return [
        ("curves", "read_curve_csv", "cli.ingest", None, None),
        ("curves", "read_points_csv", "cli.ingest", None, rows_read),
        ("curves", "scan_extremum", "curves.scan", None, None),
        ("golden", "golden_max_batch", "golden.max_batch", None, None),
        ("golden", "golden_max", "golden.max", None, None),
        ("config", "chunked_extremum", POOL_SPAN, pooled, None),
        ("chebyshev", "chebyshev_center", "chebyshev.center", None, cap),
        ("auxfun", "lambda_min", lambda_kind, None, None),
        ("inequality", "manifold_bound_report", "inequality.bound_report", pipeline, None),
        ("inequality", "classical_landau_check", "inequality.bound_report", pipeline, None),
        ("inequality", "sphere_bound_report", "inequality.bound_report", None, None),
        ("inequality", "proof_diagnostics", "inequality.diagnostics", None, None),
        ("inequality", "sharpness_probe", "inequality.probe", None, probe),
        ("reporting", "build_document", "reporting.build_document", None, None),
        ("reporting", "emit_json", "reporting.emit_json", None, None),
        ("reporting", "curve_time_series", "reporting.time_series", series, None),
        ("reporting", "scalar_time_series", "reporting.time_series", series, None),
    ]


BATCH_FAMILIES = {"SphericalCompound": "compound", "SampledCurve": "sampled"}


def install(recorder):
    """Wrap the library's layer functions; returns the undo list."""
    import manifold_landau
    from manifold_landau import curves

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "manifold_landau" or n.startswith("manifold_landau."))]
    undo = []
    for modname, attr, name, on_call, on_return in _targets():
        original = getattr(getattr(manifold_landau, modname, None), attr, None)
        if original is None:
            continue
        traced = _wrap(recorder, original, name, on_call, on_return)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, value))
                    setattr(mod, key, traced)

    def batch_samples(args):
        return {"samples": len(args[1])}

    for cls in vars(curves).values():
        if (isinstance(cls, type) and issubclass(cls, curves.Curve)
                and cls is not curves.Curve and "batch" in vars(cls)):
            family = BATCH_FAMILIES.get(cls.__name__, "analytic_other")
            undo.append((cls, "batch", cls.batch))
            cls.batch = _wrap(recorder, cls.batch, f"curves.batch.{family}", batch_samples)
    return undo


def uninstall(undo):
    for obj, key, value in reversed(undo):
        setattr(obj, key, value)


def self_times(spans):
    """Span id -> duration minus the durations of its children on the same
    thread (which nest without overlap, so their sum is the time they
    cover)."""
    own = {s.id: s.end - s.start for s in spans}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and by_id[s.parent].thread == s.thread:
            own[s.parent] -= s.end - s.start
    return own


# metric name -> unit, in the order they are reported
PER_LAYER = {
    "cli.main.self_s": "s", "cli.ingest.self_s": "s", "cli.ingest.rows": "count",
    "curves.batch.calls": "count", "curves.batch.samples": "count",
    "curves.batch.compound.self_s": "s", "curves.batch.sampled.self_s": "s",
    "curves.batch.analytic_other.self_s": "s",
    "curves.scan.calls": "count", "curves.scan.self_s": "s",
    "golden.max_batch.calls": "count", "golden.max_batch.self_s": "s",
    "golden.max.calls": "count", "golden.max.self_s": "s",
    "config.chunked_extremum.calls": "count", "config.pooled_calls": "count",
    "config.pool_wait_s": "s",
    "chebyshev.center.calls": "count", "chebyshev.center.points": "count",
    "chebyshev.center.self_s": "s", "chebyshev.center.iterations": "count",
    "chebyshev.center.converged_frac": "frac", "chebyshev.center.oracle_shortfall_max": "1",
    "auxfun.lambda_min.closed.calls": "count", "auxfun.lambda_min.closed.self_s": "s",
    "auxfun.lambda_min.directional.calls": "count",
    "auxfun.lambda_min.directional.self_s": "s",
    "inequality.bound_report.calls": "count", "inequality.bound_report.self_s": "s",
    "inequality.diagnostics.self_s": "s", "inequality.probe.evaluations": "count",
    "inequality.probe.skipped_frac": "frac",
    "reporting.build_document.calls": "count", "reporting.build_document.self_s": "s",
    "reporting.emit_json.self_s": "s", "reporting.time_series.rows": "count",
    "reporting.time_series.self_s": "s",
    "trace.overhead_frac": "frac",
}


def layer_metrics(spans, oracle):
    """Per-layer metrics of one traced pass. `oracle(cloud)` gives the set-up
    oracle value of a cap cloud. trace.overhead_frac is left to the caller.

    A span nested directly in a span of the same name (read_curve_csv
    calling read_points_csv) is part of the same call, not a new one."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    m = {name: 0 for name in PER_LAYER}
    shortfalls, converged = [], []
    for s in spans:
        parent = by_id.get(s.parent)
        if (parent is None or parent.name != s.name) and s.name != "inequality.bound_report":
            if s.name + ".calls" in m:
                m[s.name + ".calls"] += 1
        if s.name + ".self_s" in m:
            m[s.name + ".self_s"] += own[s.id]
        if s.name in ("cli.ingest", "reporting.time_series"):
            m[s.name + ".rows"] += s.attrs.get("rows", 0)
        if s.name.startswith("curves.batch."):
            m["curves.batch.calls"] += 1
            m["curves.batch.samples"] += s.attrs["samples"]
        elif s.name == "config.chunked_extremum":
            m["config.pooled_calls"] += int(s.attrs["pooled"])
            m["config.pool_wait_s"] += own[s.id]
        elif s.name == "chebyshev.center":
            m["chebyshev.center.points"] += s.attrs["points"]
            m["chebyshev.center.iterations"] += s.attrs["iterations"]
            if s.attrs["converged"] is not None:
                converged.append(bool(s.attrs["converged"]))
            shortfalls.append(oracle(s.attrs["cloud"]) - s.attrs["min_inner_product"])
        elif s.name == "inequality.bound_report":
            m["inequality.bound_report.calls"] += int(s.attrs.get("pipeline", False))
        elif s.name == "inequality.probe":
            m["inequality.probe.evaluations"] += s.attrs["evaluations"]
            m["inequality.probe.skipped_frac"] += s.attrs["skipped"]
    if m["inequality.probe.evaluations"]:
        m["inequality.probe.skipped_frac"] /= m["inequality.probe.evaluations"]
    m["chebyshev.center.converged_frac"] = sum(converged) / len(converged) if converged else 0.0
    m["chebyshev.center.oracle_shortfall_max"] = max(shortfalls, default=0.0)
    return m
