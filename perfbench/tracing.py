"""Spans around the pipeline's layer calls, recorded from outside the program.

Each wrapper is installed on the module attribute its caller looks the name
up in (``pipeline.delaunay_triangulate``, ``remesh.delaunay_triangulate``,
``relaxation.relax_step``, ...) and removed again when tracing ends, so
untraced runs execute the program unmodified. Spans live in memory as
(name, start, end, parent) rows and are written out once, at the end.

A span's self time is its duration minus the time its child spans cover.
Every span's time is the self time of exactly one span, so the self times
of all spans sum to the duration of the root span.
"""
from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# span name -> per-layer metric reporting that span's summed self time
SELF_TIME_METRICS = {
    "pipeline": "pipeline.self_s",
    "relaxation": "relaxation.self_s",
    "relaxation.step": "relaxation.step_s",
    "relaxation.monitor": "relaxation.monitor_s",
    "relaxation.qc": "relaxation.qc_s",
    "sizing": "sizing.busy_s",
    "packing.boundary": "packing.boundary_s",
    "packing.quadtree": "packing.quadtree_s",
    "packing.interp": "packing.interp_s",
    "remesh.reconstruct": "remesh.reconstruct_s",
    "remesh.fill_gaps": "remesh.fill_gaps_s",
    "remesh.anchor_sizing": "remesh.anchor_sizing_s",
    "delaunay": "delaunay.busy_s",
    "conformal.flatten": "conformal.flatten_s",
    "mapping": "mapping.busy_s",
    "mapping.grid": "mapping.grid_s",
    "mesh.io": "mesh.io_s",
    "mesh.quality": "mesh.quality_s",
}

# counters reported as they are, 0 when the layer is idle
COUNTERS = (
    "relaxation.sweeps", "relaxation.sweeps.new", "relaxation.sweeps.original",
    "relaxation.qc_changes", "relaxation.bubbles_final",
    "sizing.calls", "sizing.points",
    "packing.bubbles", "packing.interp_calls",
    "remesh.filled", "remesh.anchor_sizing_calls",
    "delaunay.calls", "delaunay.points",
    "conformal.vertices", "mapping.queries",
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span; `after(args, kwargs, result)` runs outside it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name: duration minus the children's."""
    own = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, _, _, _), t in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + t
    return totals


# ---------------------------------------------------------------------------
# Wrapper installation

def _patch(patches, owner, attr, replacement):
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, replacement)


def install(tracer: Tracer) -> list:
    """Install every wrapper; returns the (owner, attr, original) list that
    `uninstall` restores."""
    from bubblemesh import mapping, packing, pipeline, relaxation, remesh

    t = tracer
    count = t.counts
    patches: list = []

    # sizing callables handed to PackingDomain
    orig_rbe = pipeline.radius_bound_evaluator
    orig_plane_domain = pipeline.plane_domain
    orig_anchor_sizing = remesh.anchor_sizing

    def after_sizing(args, kwargs, result):
        count["sizing.calls"] += 1
        count["sizing.points"] += int(np.size(args[0]))

    def after_anchor_sizing(args, kwargs, result):
        count["remesh.anchor_sizing_calls"] += 1

    def radius_bound_evaluator(*args, **kwargs):
        return t.wrap("sizing", orig_rbe(*args, **kwargs), after_sizing)

    def plane_domain(cfg):
        domain = orig_plane_domain(cfg)
        domain.sizing = t.wrap("sizing", domain.sizing, after_sizing)
        return domain

    def anchor_sizing(anchors):
        return t.wrap("remesh.anchor_sizing", orig_anchor_sizing(anchors),
                      after_anchor_sizing)

    _patch(patches, pipeline, "radius_bound_evaluator", radius_bound_evaluator)
    _patch(patches, pipeline, "plane_domain", plane_domain)
    _patch(patches, remesh, "anchor_sizing", anchor_sizing)

    # relaxation
    def after_relax(args, kwargs, result):
        trace = result[1]
        label = "original" if kwargs.get("strategy") == "original-qc" else "new"
        count["relaxation.runs"] += 1
        count["relaxation.converged_runs"] += int(trace.converged)
        count["relaxation.sweeps"] += trace.sweeps
        count["relaxation.sweeps." + label] += trace.sweeps
        count["relaxation.bubbles_final"] += trace.rows[-1][1] if trace.rows else 0

    timed_step = t.wrap("relaxation.step", relaxation.relax_step)

    def relax_step(state, *args, **kwargs):
        count["relaxation.bubble_sweeps"] += state.count
        return timed_step(state, *args, **kwargs)

    def after_qc(args, kwargs, result):
        count["relaxation.qc_changes"] += result

    for owner in (pipeline, remesh):
        _patch(patches, owner, "relax_until_converged",
               t.wrap("relaxation", owner.relax_until_converged, after_relax))
    _patch(patches, relaxation, "relax_step", relax_step)
    _patch(patches, relaxation, "triangulation_min_angle",
           t.wrap("relaxation.monitor", relaxation.triangulation_min_angle))
    for attr in ("_qc_boundary_region_state", "_qc_original_state"):
        _patch(patches, relaxation, attr,
               t.wrap("relaxation.qc", getattr(relaxation, attr), after_qc))

    # packing
    def after_pack(args, kwargs, result):
        count["packing.bubbles"] += len(result)

    def after_interp(args, kwargs, result):
        count["packing.interp_calls"] += 1

    _patch(patches, pipeline, "pack_boundary",
           t.wrap("packing.boundary", pipeline.pack_boundary, after_pack))
    for owner in (pipeline, remesh):
        _patch(patches, owner, "pack_interior_quadtree",
               t.wrap("packing.quadtree", owner.pack_interior_quadtree, after_pack))
    _patch(patches, relaxation, "interpolate_radius",
           t.wrap("packing.interp", relaxation.interpolate_radius, after_interp))
    _patch(patches, packing, "_interpolate_radii_batch",
           t.wrap("packing.interp", packing._interpolate_radii_batch, after_interp))

    # remesh
    def after_fill(args, kwargs, result):
        count["remesh.filled"] += len(result)

    for attr in ("reconstruct_boundary_bubbles", "reconstruct_interior_bubbles"):
        _patch(patches, remesh, attr,
               t.wrap("remesh.reconstruct", getattr(remesh, attr)))
    _patch(patches, remesh, "fill_gaps",
           t.wrap("remesh.fill_gaps", remesh.fill_gaps, after_fill))

    # constrained Delaunay
    def after_cdt(args, kwargs, result):
        count["delaunay.calls"] += 1
        count["delaunay.points"] += len(args[0])

    for owner in (pipeline, remesh):
        _patch(patches, owner, "delaunay_triangulate",
               t.wrap("delaunay", owner.delaunay_triangulate, after_cdt))

    # conformal flattening and inverse mapping
    def after_flatten(args, kwargs, result):
        count["conformal.vertices"] += args[0].n_vertices
        t.gauges["conformal.max_distortion"] = float(result.max_distortion)

    def after_map(args, kwargs, result):
        count["mapping.queries"] += args[0].n_vertices

    _patch(patches, pipeline, "flatten",
           t.wrap("conformal.flatten", pipeline.flatten, after_flatten))
    _patch(patches, pipeline, "inverse_map",
           t.wrap("mapping", pipeline.inverse_map, after_map))
    _patch(patches, mapping, "FaceGrid", t.wrap("mapping.grid", mapping.FaceGrid))

    # mesh quality and artifact output
    _patch(patches, pipeline, "quality_report",
           t.wrap("mesh.quality", pipeline.quality_report))
    for attr in ("save_mesh", "write_svg", "_write_chart_svg"):
        _patch(patches, pipeline, attr, t.wrap("mesh.io", getattr(pipeline, attr)))
    _patch(patches, relaxation.ConvergenceTrace, "write_csv",
           t.wrap("mesh.io", relaxation.ConvergenceTrace.write_csv))
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer):
    patches = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(patches)


# ---------------------------------------------------------------------------
# Per-layer metrics

def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pipeline call, as (value, unit)."""
    own = self_times(tracer.spans)
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for span_name, metric in SELF_TIME_METRICS.items():
        out[metric] = (own.get(span_name, 0.0), "s")
    for name in COUNTERS:
        out[name] = (float(c[name]), "count")

    def per(seconds: str, denom: str) -> float:
        n = c[denom]
        return 1e6 * out[seconds][0] / n if n else 0.0

    out["relaxation.us_per_bubble_sweep"] = (
        per("relaxation.step_s", "relaxation.bubble_sweeps"), "us")
    out["relaxation.converged"] = (
        float(c["relaxation.runs"] > 0
              and c["relaxation.converged_runs"] == c["relaxation.runs"]), "bool")
    out["sizing.us_per_point"] = (per("sizing.busy_s", "sizing.points"), "us")
    out["delaunay.us_per_point"] = (per("delaunay.busy_s", "delaunay.points"), "us")
    out["mapping.us_per_query"] = (per("mapping.busy_s", "mapping.queries"), "us")
    out["conformal.max_distortion"] = (tracer.gauges.get("conformal.max_distortion", 0.0),
                                       "ratio")
    return out
