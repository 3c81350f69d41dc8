"""Benchmark workloads: pipeline configs built from a seed, and the views of
a pipeline result that the checks and metrics read.

The geometry of every workload is fixed. The seed reaches the program only
as ``cfg.seed``. Shifting the hole or the patch bounds by a few hundredths
moves the relaxation's stopping sweep chaotically (147 -> 102 or 355 sweeps
on the criterion 1 plate, 73 -> 132 on the criterion 1 sphere patch), so a geometry jitter would turn the
spread across seeds into a spread of work rather than of speed.

Every workload is sized so that one call takes 4-8 s on a 2-vCPU shared VM
and a 40-s run holds 4-7 calls: the acceptance-criterion plate (16 s) and
sphere patch (20 s) left one or two calls per run, too few to average out
the host's drift.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                     # key of ENTRY_POINTS
    overrides: dict[str, str]     # load_config overrides, without out/seed
    holes: int                    # holes in the output mesh's domain
    quality_gate: bool            # criterion 1: >=99% at 30 deg, >=80% at 45 deg


WORKLOADS = {
    # criterion 1 plate geometry at twice its radius: the relaxation workload
    "plate": Workload("plate", "plane", {
        "plane_width": "20", "plane_height": "10", "holes": "10,5,2",
        "r_min": "0.38", "r_max": "0.38", "max_sweeps": "400",
    }, holes=1, quality_gate=True),
    # a quarter of the criterion 1 sphere patch: the sizing, conformal and
    # mapping workload
    "sphere": Workload("sphere", "surface", {
        "mode": "surface", "surface": "sphere",
        "surface_params": "radius=1.0, u0=0.0, u1=0.7, v0=1.07, v1=1.57",
        "epsilon": "0.00005", "r_min": "0.00001", "r_max": "10.0",
        "max_sweeps": "400",
    }, holes=0, quality_gate=True),
    # a smaller criterion 3 plate: original-qc still inserts and deletes
    "graded-qc": Workload("graded-qc", "compare-qc", {
        "mode": "compare-qc", "plane_width": "10", "plane_height": "5",
        "holes": "5,2.5,1.0", "r_min": "0.2", "r_max": "0.5",
        "graded": "true", "grade_band": "2.0", "max_sweeps": "1000",
    }, holes=1, quality_gate=False),
    # criterion 6f plate; used by the benchmark's own smoke test
    "tiny": Workload("tiny", "plane", {
        "plane_width": "8", "plane_height": "6", "holes": "",
        "r_min": "0.45", "r_max": "0.45", "max_sweeps": "120",
    }, holes=0, quality_gate=False),
}


def load(name: str, seed: int, out) -> tuple[Workload, object]:
    """The workload and its resolved PipelineConfig writing under `out`."""
    from bubblemesh.pipeline import load_config

    wl = WORKLOADS[name]
    cfg = load_config(None, {**wl.overrides, "seed": str(seed), "out": str(out)})
    return wl, cfg


def entry_point(wl: Workload) -> Callable:
    """The public pipeline function the workload calls."""
    from bubblemesh import pipeline

    return {
        "plane": pipeline.run_plane_pipeline,
        "surface": pipeline.run_surface_pipeline,
        "compare-qc": pipeline.run_compare_qc,
    }[wl.mode]


def meshes(wl: Workload, result: dict) -> list:
    """Output meshes; the first one carries the quality metrics."""
    if wl.mode == "plane":
        return [result["mesh"]]
    if wl.mode == "surface":
        return [result["final"]]
    return [result["new"]["mesh"], result["original"]["mesh"]]


def traces(wl: Workload, result: dict) -> list:
    """Convergence traces of every relaxation the call ran."""
    if wl.mode == "compare-qc":
        return [result["new"]["trace"], result["original"]["trace"]]
    return [result["trace"]]
