"""Span recording around the public functions of each wgflow layer.

The benchmark never edits the package.  Instead, :meth:`Tracer.install`
replaces public module attributes and class methods with wrappers that
record one span per call.  ``flow.run`` and the CLI resolve ``step``,
``validate_tau``, ``functionals.*``, ``transport.w2_exact`` and
``measures.*`` through module attributes at call time, so the wrappers see
every call made through those names.  :meth:`Tracer.uninstall` puts the
originals back, so traced and untraced passes can alternate in one
process.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of
the enclosing span (``-1`` for a root) and ``run`` the traced pass it
belongs to.  Times come from ``time.monotonic`` (CLOCK_MONOTONIC on
Linux), which is shared by every process on the machine, so spans written
by a cold CLI process nest under the span the benchmark opened around it.
Spans stay in memory until the end of the run.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

# (module, attribute, span name) for plain module functions.
_FUNCTIONS = (
    ("pdm", "simulate_trajectory", "pdm.simulate_trajectory"),
    ("pdm", "ls_estimate", "pdm.ls_estimate"),
    ("pdm", "predict_damping_band", "pdm.predict_damping_band"),
    ("pdm", "suggested_maintenance_time", "pdm.suggested_maintenance_time"),
    ("pdm", "ls_baseline", "pdm.ls_baseline"),
    ("pdm", "true_maintenance_time", "pdm.true_maintenance_time"),
    ("pdm", "read_observations_csv", "pdm.read_observations_csv"),
    ("pdm", "write_observations_csv", "pdm.write_observations_csv"),
    ("flow", "run", "flow.run"),
    ("flow", "step", "flow.step"),
    ("flow", "validate_tau", "flow.validate_tau"),
    ("flow", "write_trace_csv", "flow.write_trace_csv"),
    ("functionals", "stochastic_gradient", "functionals.stochastic_gradient"),
    ("functionals", "perturbed_gradient", "functionals.perturbed_gradient"),
    ("functionals", "evaluate_objective", "functionals.evaluate_objective"),
    ("transport", "w2_exact", "transport.w2_exact"),
    ("transport", "bures_distance", "transport.bures_distance"),
    ("transport", "gelbrich_lower_bound", "transport.gelbrich_lower_bound"),
    ("measures", "substream", "measures.substream"),
    ("measures", "covariance", "measures.covariance"),
    ("measures", "init_uniform_box", "measures.init_uniform_box"),
    ("measures", "write_particles_csv", "measures.write_particles_csv"),
    ("measures", "read_particles_csv", "measures.read_particles_csv"),
)

_SET_CLASSES = ("Box", "NonnegativeOrthant", "Halfspace", "Ball", "FullSpace")

#: Package modules; spans of the benchmark's own code form the "bench" layer.
LAYERS = ("cli", "pdm", "flow", "functionals", "sets", "transport", "measures")


class Tracer:
    """In-memory span recorder plus the layer counters measured at spans."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.run = -1
        self._stack: list = []
        self._restore: list = []

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.run)

    def add_span(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        """Append a finished span measured outside a wrapper; by default
        its parent is the innermost open span."""
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, start, end, parent, self.run))
        return len(self.spans) - 1

    def _wrap(self, fn, name, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                tracer._stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.run)
            if after is not None:
                after(tracer.counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, after=None):
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, after))

    def install(self) -> None:
        """Wrap every traced layer function; :meth:`uninstall` undoes it."""
        import wgflow.flow
        import wgflow.functionals
        import wgflow.measures
        import wgflow.pdm
        import wgflow.sets
        import wgflow.transport

        modules = {
            "pdm": wgflow.pdm,
            "flow": wgflow.flow,
            "functionals": wgflow.functionals,
            "transport": wgflow.transport,
            "measures": wgflow.measures,
        }
        for mod, attr, name in _FUNCTIONS:
            self._patch(modules[mod], attr, name, _AFTER.get(name))
        self._patch(wgflow.measures.ParticleMeasure, "__init__", "measures.ParticleMeasure")
        for cls_name in _SET_CLASSES:
            cls = getattr(wgflow.sets, cls_name)
            self._patch(cls, "project_points", "sets.project_points", _count_active)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans and counters as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def maybe_span(tracer: Tracer | None, name: str):
    """A span of ``tracer``, or nothing on an untraced pass."""
    return nullcontext() if tracer is None else tracer.span(name)


# -- counters taken at span boundaries ---------------------------------------

def _count_step(counters, args, kwargs, result):
    counters["flow.step.particles"] += result.n


def _count_gradient(counters, args, kwargs, result):
    counters["functionals.stochastic_gradient.particles"] += result.shape[0] if result.ndim == 2 else 1


def _count_transitions(counters, args, kwargs, result):
    counters["pdm.simulate_trajectory.transitions"] += result[0].shape[0] - 1


def _count_trace_rows(counters, args, kwargs, result):
    counters["flow.trace_rows"] += len(result[1].rows)


def _count_written(counters, args, kwargs, result):
    counters["measures.write_particles_csv.bytes"] += os.path.getsize(args[1])


def _count_read(counters, args, kwargs, result):
    counters["measures.read_particles_csv.bytes"] += os.path.getsize(args[0])


def _count_active(counters, args, kwargs, result):
    import numpy as np

    pts = np.asarray(args[1], dtype=float)
    counters["sets.project_points.particles"] += result.shape[0]
    counters["sets.project_points.moved"] += int(np.count_nonzero((result != pts).any(axis=1)))


_AFTER = {
    "pdm.simulate_trajectory": _count_transitions,
    "flow.run": _count_trace_rows,
    "flow.step": _count_step,
    "functionals.stochastic_gradient": _count_gradient,
    "measures.write_particles_csv": _count_written,
    "measures.read_particles_csv": _count_read,
}


# -- aggregation -------------------------------------------------------------

def self_times(spans) -> list:
    """Self time per span: its duration minus the union its children cover."""
    children = defaultdict(list)
    for sid, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counters, passes: int) -> dict:
    """Per-pass busy time, self time, call counts and ratios of each layer.

    ``passes`` is the number of traced passes the spans cover; every
    total is divided by it so runs of different length compare.
    """
    selfs = self_times(spans)
    busy = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    layer_busy = defaultdict(float)
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    roots = 0.0
    for (name, start, end, parent, _), s in zip(spans, selfs):
        busy[name] += end - start
        own[name] += s
        calls[name] += 1
        durations[name].append(end - start)
        if parent < 0:
            roots += end - start
        layer = _layer(name)
        layer_self[layer] += s
        layer_calls[layer] += 1
        # A layer is busy from its outermost span; nested spans of the same
        # layer are already inside that interval.
        if parent < 0 or _layer(spans[parent][0]) != layer:
            layer_busy[layer] += end - start
    p = max(passes, 1)

    def per_particle_ns(name):
        n = counters.get(name + ".particles", 0.0)
        return busy[name] / n * 1e9 if n else 0.0

    w2 = durations["transport.w2_exact"]
    moved = counters.get("sets.project_points.moved", 0.0)
    projected = counters.get("sets.project_points.particles", 0.0)
    m = {}
    for layer in LAYERS:
        m[layer + ".busy_s"] = layer_busy[layer] / p
        m[layer + ".self_s"] = layer_self[layer] / p
        m[layer + ".calls"] = layer_calls[layer] / p
    m["bench.self_s"] = layer_self["bench"] / p
    for name in _SPAN_BUSY:
        m[name + ".busy_s"] = busy[name] / p
    for name in _SPAN_CALLS:
        m[name + ".calls"] = calls[name] / p
    for stage in ("simulate", "flow", "predict", "diagnose"):
        m[f"cli.{stage}.self_s"] = own[f"cli.{stage}"] / p
    m["flow.run.self_s"] = own["flow.run"] / p
    m["flow.step.ns_per_particle"] = per_particle_ns("flow.step")
    m["functionals.stochastic_gradient.ns_per_particle"] = per_particle_ns(
        "functionals.stochastic_gradient"
    )
    m["pdm.simulate_trajectory.transitions"] = counters.get("pdm.simulate_trajectory.transitions", 0.0) / p
    m["flow.trace_rows"] = counters.get("flow.trace_rows", 0.0) / p
    m["sets.active_frac"] = moved / projected if projected else 0.0
    m["transport.w2_exact.ms_p50"] = statistics.median(w2) * 1e3 if w2 else 0.0
    m["measures.ParticleMeasure.constructions"] = calls["measures.ParticleMeasure"] / p
    m["measures.write_particles_csv.bytes"] = counters.get("measures.write_particles_csv.bytes", 0.0) / p
    m["measures.read_particles_csv.bytes"] = counters.get("measures.read_particles_csv.bytes", 0.0) / p
    m["trace.wall_s"] = roots / p
    m["trace.self_sum_s"] = sum(selfs) / p
    return m


def _layer(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


def top_self_span(spans) -> tuple:
    """Name of the span with the largest total self time, and its share."""
    selfs = self_times(spans)
    own = defaultdict(float)
    total = 0.0
    for (name, *_), s in zip(spans, selfs):
        own[name] += s
        total += s
    name = max(own, key=own.get)
    return name, own[name] / total if total else 0.0


_SPAN_BUSY = (
    "pdm.simulate_trajectory",
    "pdm.ls_estimate",
    "pdm.predict_damping_band",
    "pdm.suggested_maintenance_time",
    "pdm.ls_baseline",
    "pdm.true_maintenance_time",
    "pdm.read_observations_csv",
    "pdm.write_observations_csv",
    "flow.run",
    "flow.step",
    "flow.validate_tau",
    "flow.write_trace_csv",
    "functionals.stochastic_gradient",
    "functionals.perturbed_gradient",
    "functionals.evaluate_objective",
    "sets.project_points",
    "transport.w2_exact",
    "transport.bures_distance",
    "transport.gelbrich_lower_bound",
    "measures.ParticleMeasure",
    "measures.substream",
    "measures.init_uniform_box",
    "measures.write_particles_csv",
    "measures.read_particles_csv",
)

_SPAN_CALLS = (
    "pdm.simulate_trajectory",
    "pdm.suggested_maintenance_time",
    "flow.step",
    "flow.validate_tau",
    "functionals.stochastic_gradient",
    "functionals.evaluate_objective",
    "sets.project_points",
    "transport.w2_exact",
    "measures.substream",
    "measures.covariance",
)
