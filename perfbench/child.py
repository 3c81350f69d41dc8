"""One benchmark child process: set up, make one pipeline call, check it.

    python3 perfbench/child.py --workload plate --seed 0 --out DIR \
        --result FILE --t0 MONOTONIC [--trace SPANS_FILE] [--setup-only]

`--t0` is the parent's CLOCK_MONOTONIC reading taken just before it started
this process, so `setup_s` covers interpreter start, the numpy, scipy and
bubblemesh imports and the config. The result, including every failed
check, is written as JSON to `--result`; nothing is printed to stdout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# criterion 1's quality bar
GATE_30, GATE_45 = 0.99, 0.80


def artifact_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every mesh artifact; trace CSVs without the wall-clock
    column, and without the timing-laden compare summary."""
    digests = {}
    for path in sorted(out.iterdir()):
        if path.name == "compare_summary.txt":
            continue
        data = path.read_bytes()
        if path.suffix == ".csv":
            data = b"\n".join(b",".join(line.split(b",")[:4])
                              for line in data.splitlines())
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def topology_error(mesh, holes: int) -> str:
    """Empty when the mesh is an edge-manifold disk with `holes` holes."""
    import numpy as np
    from bubblemesh.mesh import MeshError, validate_disk_topology

    if holes == 0:
        res = validate_disk_topology(mesh)
        return "" if res else res.reason
    if len(mesh.directed_edge_set()) != 3 * mesh.n_faces:
        return "duplicate directed edge"
    edges = np.sort(np.concatenate([mesh.faces[:, [0, 1]], mesh.faces[:, [1, 2]],
                                    mesh.faces[:, [2, 0]]]), axis=1)
    if np.unique(edges, axis=0, return_counts=True)[1].max() > 2:
        return "non-manifold edge"
    try:
        loops = mesh.boundary_loops()
    except MeshError as exc:
        return str(exc)
    if len(loops) != 1 + holes:
        return f"{len(loops)} boundary loops, expected {1 + holes}"
    chi = mesh.euler_characteristic()
    if chi != 1 - holes:
        return f"Euler characteristic {chi}, expected {1 - holes}"
    return ""


def check(wl, result: dict) -> tuple[list[str], dict]:
    """Failed checks and the quality figures of one pipeline result."""
    import numpy as np
    from bubblemesh.mesh import MeshError, hausdorff_estimate, quality_report

    import workloads

    errors = []
    for trace in workloads.traces(wl, result):
        if not trace.converged:
            errors.append(f"relaxation stopped at the sweep cap ({trace.sweeps} sweeps)")
    quality = {"triangles": 0}
    for k, mesh in enumerate(workloads.meshes(wl, result)):
        problem = topology_error(mesh, wl.holes)
        if problem:
            errors.append(f"mesh {k}: {problem}")
        try:
            report = quality_report(mesh)
        except MeshError as exc:
            errors.append(f"mesh {k}: {exc}")
            continue
        quality["triangles"] += report.triangle_count
        if k == 0:
            quality.update(min_angle_deg=report.min_angle,
                           frac_ge30=report.fraction_at_least(30.0),
                           frac_ge45=report.fraction_at_least(45.0))
            if wl.quality_gate and (quality["frac_ge30"] < GATE_30
                                    or quality["frac_ge45"] < GATE_45):
                errors.append("mesh quality below criterion 1")
    if wl.mode == "surface":
        final, new_flat = result["final"], result["new_flat"]
        if final.n_vertices != new_flat.n_vertices or not np.isfinite(final.vertices).all():
            errors.append("inverse map left vertices unlocated")
        quality["hausdorff"] = hausdorff_estimate(final, result["surface"])
    return errors, quality


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import scipy
    import bubblemesh.pipeline  # noqa: F401  (imports every pipeline module)

    import workloads

    out = Path(args.out)
    wl, cfg = workloads.load(args.workload, args.seed, out)
    entry = workloads.entry_point(wl)
    setup_s = time.monotonic() - args.t0
    record = {"setup_s": setup_s, "numpy": numpy.__version__, "scipy": scipy.__version__,
              "errors": []}
    if not args.setup_only:
        record.update(run_call(wl, cfg, entry, out, args.trace))
    Path(args.result).write_text(json.dumps(record))
    return 0


def run_call(wl, cfg, entry, out: Path, spans_path: str) -> dict:
    import tracing

    tracer = tracing.Tracer(run_id=f"{wl.name}-seed{cfg.seed}") if spans_path else None
    record: dict = {"errors": []}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with tracing.traced(tracer) if tracer else nullcontext():
                c0, t0 = time.process_time(), time.perf_counter()
                with tracer.span("pipeline") if tracer else nullcontext():
                    result = entry(cfg)
                record["wall_s"] = time.perf_counter() - t0
                record["cpu_s"] = time.process_time() - c0
        except Exception:
            record["errors"].append(traceback.format_exc())
            return record
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors, quality = check(wl, result)
    record["errors"] += errors
    record["quality"] = quality
    record["digests"] = artifact_digests(out)
    record["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["packing.warnings"] = (float(sum(issubclass(w.category, UserWarning)
                                                for w in caught)), "count")
        record["layers"] = layers
        tracer.write(spans_path)
    return record


if __name__ == "__main__":
    sys.exit(main())
