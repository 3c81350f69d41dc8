"""End-to-end pipelines: plane meshing, surface triangulation, re-meshing of
mesh files, and the quantity-control comparison driver.

Configuration is a flat key = value text file whose keys and defaults are
the fields of `PipelineConfig` (config.py); CLI flags override file values.
All randomness derives from the single seed, and a fixed config plus seed
reproduces every artifact byte for byte (wall-clock columns in trace CSVs
excepted).
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import PipelineConfig, PipelineError, load_config  # noqa: F401
from .delaunay import delaunay_triangulate
from .conformal import flatten
from .mapping import inverse_map
from .mesh import (TriangleMesh, load_mesh, quality_report, save_mesh,
                   write_svg)
from .packing import (INTERIOR_ANCHOR, AnchorField, Bubble, PackingDomain,
                      pack_boundary, pack_interior_quadtree)
from .relaxation import ConvergenceTrace, relax_until_converged
from .remesh import reconstruct_bubbles, remesh_planar
from .sizing import SizingParams, radius_bound_evaluator
from .surfaces import make_surface


# ---------------------------------------------------------------------------
# Plane domain construction

def _polygonize_hole(cx, cy, r, rim_radius) -> np.ndarray:
    """Clockwise circle polygon with segment length = local bubble diameter."""
    n = max(8, int(round(math.pi * r / rim_radius)))
    angles = -2.0 * math.pi * np.arange(n) / n  # negative: clockwise
    return np.column_stack([cx + r * np.cos(angles), cy + r * np.sin(angles)])


def plane_domain(cfg: PipelineConfig) -> PackingDomain:
    w, h = cfg.plane_width, cfg.plane_height
    outer = np.array([[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]])
    rim_radius = cfg.r_min if cfg.graded else cfg.r_max
    holes = [_polygonize_hole(cx, cy, r, rim_radius) for cx, cy, r in cfg.holes]

    if cfg.graded and cfg.holes:
        hole_arr = np.array(cfg.holes)

        def sizing(x, y):
            # holes along a trailing axis
            x = np.asarray(x, dtype=float)[..., None]
            y = np.asarray(y, dtype=float)[..., None]
            d = np.sqrt((hole_arr[:, 0] - x) ** 2 + (hole_arr[:, 1] - y) ** 2) - hole_arr[:, 2]
            dist = np.maximum(d.min(axis=-1), 0.0)
            t = np.minimum(dist / cfg.grade_band, 1.0)
            return cfg.r_min + (cfg.r_max - cfg.r_min) * t
    else:
        def sizing(x, y):
            return cfg.r_max

    return PackingDomain(outer=outer, holes=holes, sizing=sizing)


def load_anchor_csv(path) -> list[Bubble]:
    """Pre-inserted interior anchors from a CSV of x,y,radius rows, each
    value a finite number and each radius positive."""
    out = []
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p for p in line.replace(",", " ").split() if p]
        if parts[0].lower() in ("x", "y"):  # header row
            continue
        if len(parts) != 3:
            raise PipelineError(f"[config] anchors line {ln}: expected x,y,radius")
        try:
            x, y, radius = map(float, parts)
        except ValueError as exc:
            raise PipelineError(f"[config] anchors line {ln}: {exc}") from None
        if not radius > 0.0:
            raise PipelineError(f"[config] anchors line {ln}: radius {radius} is not positive")
        if not all(map(math.isfinite, (x, y, radius))):
            raise PipelineError(f"[config] anchors line {ln}: {(x, y, radius)} is not finite")
        out.append(Bubble(x, y, radius, INTERIOR_ANCHOR))
    return out


def pack_plane(cfg: PipelineConfig) -> tuple[PackingDomain, list[Bubble]]:
    domain = plane_domain(cfg)
    boundary = pack_boundary(domain)
    pre = load_anchor_csv(cfg.anchors_file) if cfg.anchors_file else []
    anchors = boundary + pre
    interior = pack_interior_quadtree(domain, AnchorField(anchors))
    return domain, anchors + interior


@contextmanager
def _stage(name):
    """Label any failure inside the block with the pipeline stage."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"[{name}] {exc}") from exc


# ---------------------------------------------------------------------------
# Pipelines

def run_plane_pipeline(cfg: PipelineConfig) -> dict:
    """Pack -> quantity control -> relax -> triangulate -> report."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    with _stage("pack"):
        domain, bubbles = pack_plane(cfg)
    with _stage("relax"):
        relaxed, trace = relax_until_converged(bubbles, domain, cfg,
                                               strategy=f"{cfg.qc}-qc")
        trace.write_csv(out / "trace.csv")
    with _stage("triangulate"):
        mesh = delaunay_triangulate(relaxed, domain)
    with _stage("report"):
        report = quality_report(mesh)
        save_mesh(out / "plane_mesh.obj", mesh)
        save_mesh(out / "plane_mesh.off", mesh)
        write_svg(out / "plane_mesh.svg", mesh)
        (out / "plane_report.txt").write_text(report.to_text())
    return {"mesh": mesh, "report": report, "trace": trace, "out": out}


def initial_surface_mesh(cfg: PipelineConfig):
    """Step (a): pack the parametric rectangle, triangulate, lift to 3D."""
    surface = make_surface(cfg.surface, **cfg.surface_params)
    params = SizingParams(epsilon=cfg.epsilon, r_min=cfg.r_min, r_max=cfg.r_max)
    u0, u1, v0, v1 = surface.domain
    outer = np.array([[u0, v0], [u1, v0], [u1, v1], [u0, v1]])
    domain = PackingDomain(outer=outer, holes=[],
                           sizing=radius_bound_evaluator(surface, params))
    boundary = pack_boundary(domain)
    interior = pack_interior_quadtree(domain, AnchorField(boundary))
    param_mesh = delaunay_triangulate(boundary + interior, domain)
    positions = surface.position(param_mesh.vertices[:, 0], param_mesh.vertices[:, 1])
    mesh = TriangleMesh(positions, param_mesh.faces.copy(), uv=param_mesh.vertices.copy())
    return surface, param_mesh, mesh


def remesh_and_lift(cfg: PipelineConfig, initial: TriangleMesh, out: Path) -> dict:
    """Steps (b)-(d), shared by the surface and remesh pipelines: flatten the
    initial mesh, re-mesh it in the plane, map the new mesh back onto it."""
    with _stage("flatten"):
        flat_result = flatten(initial)
        write_svg(out / "flat_initial.svg", flat_result.flat)
        save_mesh(out / "flat_initial.obj", flat_result.flat)
    with _stage("remesh"):
        new_flat, trace = remesh_planar(flat_result.flat, cfg)
        trace.write_csv(out / "trace.csv")
        write_svg(out / "flat_remeshed.svg", new_flat)
    with _stage("inverse-map"):
        final = inverse_map(new_flat, flat_result.flat, initial)
        save_mesh(out / "final_surface.obj", final)
        save_mesh(out / "final_surface.off", final)
        final_report = quality_report(final)
        (out / "final_report.txt").write_text(final_report.to_text())
    return {"flatten": flat_result, "new_flat": new_flat, "trace": trace,
            "final": final, "final_report": final_report}


def run_surface_pipeline(cfg: PipelineConfig) -> dict:
    """Steps (a)-(d): initial discrete surface, flatten, re-mesh, inverse map."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    with _stage("initial-surface"):
        surface, param_mesh, initial = initial_surface_mesh(cfg)
        save_mesh(out / "initial_surface.obj", initial)
        write_svg(out / "parametric_mesh.svg", param_mesh)
        initial_report = quality_report(initial)
        (out / "initial_report.txt").write_text(initial_report.to_text())
    return {"surface": surface, "initial": initial, "initial_report": initial_report,
            "out": out, **remesh_and_lift(cfg, initial, out)}


def run_remesh_pipeline(cfg: PipelineConfig) -> dict:
    """Re-mesh an existing disk-topology mesh file."""
    if not cfg.input_mesh:
        raise PipelineError("[config] remesh mode needs input_mesh")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    with _stage("load"):
        initial = load_mesh(cfg.input_mesh)
        initial_report = quality_report(initial)
        (out / "initial_report.txt").write_text(initial_report.to_text())
    return {"initial": initial, "initial_report": initial_report,
            "out": out, **remesh_and_lift(cfg, initial, out)}


def compare_initial_bubbles(cfg: PipelineConfig):
    """Initial bubble population for the strategy comparison.

    plane source: quadtree packing of the configured plate. surface source:
    bubbles reconstructed on the flattened initial discrete surface plus gap
    fillers, as in the re-meshing pipeline.
    """
    if cfg.compare_source == "plane":
        return pack_plane(cfg)
    _, _, initial = initial_surface_mesh(cfg)
    return reconstruct_bubbles(flatten(initial).flat)


def qc_speed(new_t: ConvergenceTrace, orig_t: ConvergenceTrace,
             target: float) -> tuple[float, float | None, float]:
    """Criterion 3's measure: new-qc's time to its converged min angle
    `target` (its mesh's), original-qc's time to sustain that angle (None if
    never: the ratio is 0 when it plateaued below by its own tests, else
    bounded by its sweep-cap time) and the ratio of the two."""
    time_new = new_t.elapsed
    reach_time = orig_t.time_to_sustain_angle(target)
    if reach_time is None and orig_t.converged:
        return time_new, None, 0.0
    slower = orig_t.elapsed if reach_time is None else reach_time
    return time_new, reach_time, time_new / slower if slower > 0 else math.inf


def run_compare_qc(cfg: PipelineConfig) -> dict:
    """Run both quantity-control strategies on identical initial bubbles."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    with _stage("pack"):
        domain, bubbles = compare_initial_bubbles(cfg)

    results = {}
    for label, strategy in (("new", "new-qc"), ("original", "original-qc")):
        with _stage(f"relax-{label}"):
            relaxed, trace = relax_until_converged(bubbles, domain, cfg, strategy=strategy)
            mesh = delaunay_triangulate(relaxed, domain)
            report = quality_report(mesh)
            trace.write_csv(out / f"trace_{label}.csv")
            results[label] = {"trace": trace, "report": report, "mesh": mesh}

    new_t, orig_t = results["new"]["trace"], results["original"]["trace"]
    target = results["new"]["report"].min_angle
    time_new, reach_time, ratio = qc_speed(new_t, orig_t, target)
    if reach_time is not None:
        orig_note = f"{reach_time:.3f} s"
    elif orig_t.converged:
        orig_note = (f"never (plateaued at {results['original']['report'].min_angle:.4f} deg "
                     f"after {orig_t.elapsed:.3f} s)")
    else:
        orig_note = f">= {orig_t.elapsed:.3f} s (sweep cap hit; ratio is an upper bound)"

    summary_lines = [
        "strategy  sweeps  converged  wall_s   final_min_angle  histogram",
    ]
    for label in ("new", "original"):
        t = results[label]["trace"]
        r = results[label]["report"]
        summary_lines.append(
            f"{label:<9} {t.sweeps:>6} {str(t.converged):>9} {t.elapsed:>8.3f} "
            f"{r.min_angle:>15.4f}  {r.min_angle_histogram}")
    summary_lines.append("")
    summary_lines.append(f"new-qc converged min angle: {target:.4f} deg")
    summary_lines.append(f"new-qc time to convergence: {time_new:.3f} s")
    summary_lines.append(f"original-qc time to equal quality: {orig_note}")
    summary_lines.append(f"time ratio (new / original-to-equal-quality): {ratio:.3f}")
    summary = "\n".join(summary_lines) + "\n"
    (out / "compare_summary.txt").write_text(summary)
    _write_chart_svg(out / "compare_chart.svg", results)
    results["ratio"] = ratio
    results["summary"] = summary
    results["out"] = out
    return results


def _write_chart_svg(path, results: dict[str, dict]) -> None:
    """Line chart of min angle vs sweep per strategy: its trace's samples
    before its last sweep, then its mesh's min angle there, dotted."""
    width, height, margin = 640, 400, 46
    colors = {"new": "#1563c0", "original": "#c03a15"}
    max_sweep = max(results[label]["trace"].sweeps for label in colors)

    def sx(s):
        return margin + (width - 2 * margin) * s / max_sweep

    def sy(angle):
        return height - margin - (height - 2 * margin) * angle / 60.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 8}" font-size="13" text-anchor="middle">sweep</text>',
        f'<text x="14" y="{height // 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 14 {height // 2})">min angle (deg)</text>',
    ]
    for gy in range(0, 61, 15):
        parts.append(f'<text x="{margin - 6}" y="{sy(gy) + 4:.1f}" font-size="11" '
                     f'text-anchor="end">{gy}</text>')
    for k, (label, color) in enumerate(colors.items()):
        trace = results[label]["trace"]
        pts = [(sx(row[0]), sy(row[3])) for row in trace.sampled_rows()
               if row[0] < trace.sweeps]
        pts.append((sx(trace.sweeps), sy(results[label]["report"].min_angle)))
        line = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<circle cx="{pts[-1][0]:.1f}" cy="{pts[-1][1]:.1f}" r="3" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{width - margin - 4}" y="{margin + 16 * (k + 1)}" '
                     f'font-size="12" text-anchor="end" fill="{color}">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def run(cfg: PipelineConfig) -> dict:
    return {
        "plane": run_plane_pipeline,
        "surface": run_surface_pipeline,
        "remesh": run_remesh_pipeline,
        "compare-qc": run_compare_qc,
    }[cfg.mode](cfg)
