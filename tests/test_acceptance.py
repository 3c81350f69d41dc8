"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. Every criterion builds its
case from scratch through the public pipelines at the stated scales and
asserts the stated tolerances.
"""
import math
import time
from dataclasses import replace

import numpy as np

from bubblemesh.conformal import flatten
from bubblemesh.delaunay import delaunay_triangulate
from bubblemesh.geometry import incircle
from bubblemesh.mapping import FaceGrid, locate_points
from bubblemesh.mesh import PlanarMesh, hausdorff_estimate, quality_report
from bubblemesh.packing import BOUNDARY, MOBILE, Bubble, PackingDomain
from bubblemesh.pipeline import (PipelineConfig, compare_initial_bubbles,
                                 load_config, qc_speed, run_plane_pipeline,
                                 run_surface_pipeline)
from bubblemesh.relaxation import relax_until_converged, rk4_damped_step
from bubblemesh.surfaces import plane, sphere_patch

from conftest import grid_mesh_on_surface, scalar_pair_force


def report_line(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


# ---------------------------------------------------------------------------
# Criterion 1: >= 99% of triangles with min angle >= 30 deg and >= 80% with
# min angle >= 45 deg, on the uniform plate with hole (1500-3000 bubbles)
# and on the sphere-patch surface pipeline. < 120 s per case.

def test_criterion_1_plate_quality(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config(None, {
        "out": str(tmp_path / "plate"), "plane_width": "20", "plane_height": "10",
        "holes": "10,5,2", "r_min": "0.19", "r_max": "0.19", "max_sweeps": "400",
    })
    result = run_plane_pipeline(cfg)
    elapsed = time.perf_counter() - t0
    rep = result["report"]
    n_bubbles = result["trace"].rows[-1][1]
    f30 = rep.fraction_at_least(30.0)
    f45 = rep.fraction_at_least(45.0)
    ok = f30 >= 0.99 and f45 >= 0.80 and 1500 <= n_bubbles <= 3000 and elapsed < 120
    report_line("criterion 1 (plate quality)", ok,
                f"{n_bubbles} bubbles, {rep.triangle_count} triangles, "
                f">=30deg {100 * f30:.2f}%, >=45deg {100 * f45:.2f}%, {elapsed:.0f}s")
    assert 1500 <= n_bubbles <= 3000
    assert f30 >= 0.99
    assert f45 >= 0.80
    assert elapsed < 120


def test_criterion_1_sphere_quality(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config(None, {
        "out": str(tmp_path / "sphere"), "mode": "surface", "surface": "sphere",
        "surface_params": "radius=1.0, u0=0.0, u1=1.4, v0=1.07, v1=2.07",
        "epsilon": "0.00005", "r_min": "0.00001", "r_max": "10.0",
        "max_sweeps": "400",
    })
    result = run_surface_pipeline(cfg)
    elapsed = time.perf_counter() - t0
    rep = result["final_report"]
    f30 = rep.fraction_at_least(30.0)
    f45 = rep.fraction_at_least(45.0)
    ok = f30 >= 0.99 and f45 >= 0.80 and elapsed < 120
    report_line("criterion 1 (sphere-patch pipeline quality)", ok,
                f"{rep.triangle_count} triangles, >=30deg {100 * f30:.2f}%, "
                f">=45deg {100 * f45:.2f}%, {elapsed:.0f}s")
    assert f30 >= 0.99
    assert f45 >= 0.80
    assert elapsed < 120


# ---------------------------------------------------------------------------
# Criterion 2: re-meshing a curvature-adaptive surface case empties the
# [0,15) bucket and improves the global minimum angle by >= 10 degrees.

def test_criterion_2_remeshing_improvement(tmp_path):
    # a strongly anisotropic torus patch: the parametric map squashes the
    # initial triangles, which is exactly what re-meshing repairs
    cfg = load_config(None, {
        "out": str(tmp_path / "torus"), "mode": "surface", "surface": "torus",
        "surface_params": "major=2.0, minor=0.7, u0=0.3, u1=2.8, v0=0.3, v1=5.9",
        "epsilon": "0.008", "r_min": "0.001", "r_max": "1.0",
        "max_sweeps": "400",
    })
    result = run_surface_pipeline(cfg)
    before = result["initial_report"]
    after = result["final_report"]
    gain = after.min_angle - before.min_angle
    ok = after.min_angle_histogram[0] == 0 and gain >= 10.0
    report_line("criterion 2 (re-meshing improvement)", ok,
                f"min angle {before.min_angle:.2f} -> {after.min_angle:.2f} "
                f"(gain {gain:.2f}), [0,15) bucket {before.min_angle_histogram[0]} "
                f"-> {after.min_angle_histogram[0]}, triangles "
                f"{before.triangle_count} -> {after.triangle_count}")
    assert after.min_angle_histogram[0] == 0
    assert gain >= 10.0


# ---------------------------------------------------------------------------
# Criterion 3: new-qc reaches its converged min angle in <= 50% of the wall
# time original-qc needs to reach (and hold) equal quality, on the same
# initial bubbles. The graded plate gives quantity control real work.

def test_criterion_3_qc_speed():
    t_start = time.perf_counter()
    cfg = PipelineConfig(
        mode="compare-qc", plane_width=20, plane_height=10, holes=[(10.0, 5.0, 2.0)],
        r_min=0.2, r_max=0.5, graded=True, grade_band=4.0, max_sweeps=1000)
    domain, bubbles = compare_initial_bubbles(cfg)
    traces, angles = {}, {}
    for label, strategy in (("new", "new-qc"), ("original", "original-qc")):
        relaxed, trace = relax_until_converged([replace(b) for b in bubbles], domain, cfg,
                                               strategy=strategy)
        traces[label] = trace
        angles[label] = quality_report(delaunay_triangulate(relaxed, domain)).min_angle
    new_t, orig_t = traces["new"], traces["original"]
    target = angles["new"]
    t_new, reach, ratio = qc_speed(new_t, orig_t, target)
    if reach is not None:
        note = f"original sustained {target:.2f} deg from {reach:.2f}s"
    elif orig_t.converged:
        note = (f"original plateaued at {angles['original']:.2f} deg "
                f"({orig_t.elapsed:.2f}s) and never sustained {target:.2f} deg")
    else:
        note = "original hit the sweep cap below target; ratio is an upper bound"
    # each run's time to the lower of the two meshes' min angles: new-qc's
    # mesh is measured at its end only, original-qc's samples may never
    # sustain it (reported only; the assertion uses the ratio)
    common = min(angles.values())
    reach_common = orig_t.time_to_sustain_angle(common)
    orig_common = "never" if reach_common is None else f"{reach_common:.2f}s"
    elapsed = time.perf_counter() - t_start
    stops = {label: t.stop_reason for label, t in traces.items()}
    capped = "sweep-cap" in stops.values()
    ok = ratio <= 0.5 and len(bubbles) <= 5000 and elapsed < 300 and not capped
    report_line("criterion 3 (QC speed)", ok,
                f"{len(bubbles)} bubbles; new {t_new:.2f}s to {target:.2f} deg; "
                f"{note}; measured ratio {ratio:.3f} (target <= 0.5); "
                f"to sustain {common:.2f} deg: new {t_new:.2f}s, "
                f"original {orig_common}; stopped by {stops}; "
                f"total {elapsed:.0f}s")
    # a run that hit the sweep cap gives no figure to compare
    assert not capped
    assert len(bubbles) <= 5000
    assert ratio <= 0.5
    assert elapsed < 300


# ---------------------------------------------------------------------------
# Criterion 4: original-qc sweeps-to-converge vary >= 2x across thresholds
# on the graded plate; new-qc varies < 20% across thresholds {1.0, 1.2}.

def test_criterion_4_threshold_sensitivity():
    base = PipelineConfig(
        mode="compare-qc", plane_width=20, plane_height=10, holes=[(10.0, 5.0, 2.0)],
        r_min=0.13, r_max=0.4, graded=True, grade_band=3.5, max_sweeps=1000)
    domain, bubbles = compare_initial_bubbles(base)

    orig_sweeps, orig_stops = {}, {}
    for low, high in ((5.0, 8.0), (4.0, 10.0), (4.5, 9.0)):
        cfg = replace(base, qc_low=low, qc_high=high)
        _, trace = relax_until_converged([replace(b) for b in bubbles], domain, cfg,
                                         strategy="original-qc")
        orig_sweeps[(low, high)] = trace.sweeps
        orig_stops[(low, high)] = trace.stop_reason
    new_sweeps, new_stops = {}, {}
    for thr in (1.0, 1.2):
        cfg = replace(base, qc_threshold=thr)
        _, trace = relax_until_converged([replace(b) for b in bubbles], domain, cfg,
                                         strategy="new-qc")
        new_sweeps[thr] = trace.sweeps
        new_stops[thr] = trace.stop_reason

    orig_ratio = max(orig_sweeps.values()) / min(orig_sweeps.values())
    new_spread = (max(new_sweeps.values()) - min(new_sweeps.values())) / min(new_sweeps.values())
    capped = "sweep-cap" in [*orig_stops.values(), *new_stops.values()]
    ok = orig_ratio >= 2.0 and new_spread < 0.20 and not capped
    report_line("criterion 4 (threshold sensitivity)", ok,
                f"original sweeps {orig_sweeps} (max/min {orig_ratio:.2f}, need >= 2), "
                f"stopped by {orig_stops}; "
                f"new sweeps {new_sweeps} (spread {100 * new_spread:.1f}%, need < 20%), "
                f"stopped by {new_stops}")
    # a run that hit the sweep cap counts the cap, not its own sweeps
    assert not capped
    assert orig_ratio >= 2.0
    assert new_spread < 0.20
    # the tight thresholds take at least twice as many sweeps as the
    # tolerant ones on the graded plate
    assert orig_sweeps[(5.0, 8.0)] >= 2 * orig_sweeps[(4.0, 10.0)]


# ---------------------------------------------------------------------------
# Criterion 5: Hausdorff estimate shrinks by a factor in [3, 5] when the max
# edge length halves, over three refinement levels on a sphere patch.

def test_criterion_5_hausdorff_convergence():
    t0 = time.perf_counter()
    surf = sphere_patch(radius=1.0, u0=0.0, u1=1.0, v0=0.8, v1=1.8)
    estimates = []
    for n in (9, 17, 33):
        mesh = grid_mesh_on_surface(surf, n, n)
        estimates.append(hausdorff_estimate(mesh, surf, 4))
    ratios = [estimates[k] / estimates[k + 1] for k in range(2)]
    elapsed = time.perf_counter() - t0
    ok = all(3.0 <= r <= 5.0 for r in ratios) and elapsed < 60
    report_line("criterion 5 (Hausdorff convergence order)", ok,
                f"estimates {[f'{e:.2e}' for e in estimates]}, "
                f"halving ratios {[f'{r:.2f}' for r in ratios]} (need within [3,5]), "
                f"{elapsed:.1f}s")
    for r in ratios:
        assert 3.0 <= r <= 5.0
    assert elapsed < 60


# ---------------------------------------------------------------------------
# Criterion 6: property suites.

def test_criterion_6a_delaunay_oracle():
    t0 = time.perf_counter()
    rng = np.random.RandomState(60451)
    outer = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    domain = PackingDomain(outer=outer, holes=[], sizing=lambda x, y: 0.3)
    worst = 0
    for trial in range(30):
        bubbles = [Bubble(x, y, 0.3, BOUNDARY) for x, y in outer]
        pts = rng.uniform(0.4, 9.6, size=(50, 2))
        bubbles += [Bubble(float(x), float(y), 0.3, MOBILE) for x, y in pts]
        mesh = delaunay_triangulate(bubbles, domain)
        v = mesh.vertices
        for a, b, c in mesh.faces:
            for k in range(len(v)):
                if k in (a, b, c):
                    continue
                if incircle(v[a][0], v[a][1], v[b][0], v[b][1],
                            v[c][0], v[c][1], v[k][0], v[k][1]) > 0:
                    worst += 1
    elapsed = time.perf_counter() - t0
    ok = worst == 0
    report_line("criterion 6a (Delaunay oracle, 30x50 random points)", ok,
                f"{worst} empty-circumcircle violations, {elapsed:.1f}s")
    assert worst == 0


def test_criterion_6b_force_law():
    f0 = 1.0
    a = Bubble(0.0, 0.0, 0.6)
    b = Bubble(1.2, 0.0, 0.6)   # exactly tangent
    tangent_mag = float(np.linalg.norm(scalar_pair_force(a, b, f0)))
    far = float(np.linalg.norm(scalar_pair_force(a, Bubble(1.9, 0.0, 0.6), f0)))

    rng = np.random.RandomState(7)
    newton_exact = True
    for _ in range(100):
        p = Bubble(*rng.uniform(-1, 1, 2), rng.uniform(0.2, 0.8))
        q = Bubble(*rng.uniform(-1, 1, 2), rng.uniform(0.2, 0.8))
        fpq = scalar_pair_force(p, q, f0, i=0, j=1)
        fqp = scalar_pair_force(q, p, f0, i=1, j=0)
        if fpq[0] != -fqp[0] or fpq[1] != -fqp[1]:
            newton_exact = False

    m, c, dt = 1.0, 1.0, 0.05
    f = np.array([0.4, -0.9])
    x0, v0 = np.array([1.0, 2.0]), np.array([-0.3, 0.1])
    x1, v1 = rk4_damped_step(x0, v0, lambda x: f, m, c, dt)
    decay = math.exp(-c * dt / m)
    x_ref = x0 + (f / c) * dt + (m / c) * (v0 - f / c) * (1.0 - decay)
    rk4_err = float(np.linalg.norm(x1 - x_ref) / np.linalg.norm(x_ref))

    ok = tangent_mag < 1e-12 and far == 0.0 and newton_exact and rk4_err < 1e-8
    report_line("criterion 6b (force law)", ok,
                f"tangent |F|={tangent_mag:.2e} (<1e-12), beyond-cutoff |F|={far}, "
                f"Newton third law exact={newton_exact}, RK4 vs closed form "
                f"rel err {rk4_err:.2e} (<1e-8)")
    assert tangent_mag < 1e-12
    assert far == 0.0
    assert newton_exact
    assert rk4_err < 1e-8


def test_criterion_6c_barycentric():
    m = grid_mesh_on_surface(plane(0.0, 2.0, 0.0, 1.0), 11, 6)
    flat = PlanarMesh(m.uv, m.faces)
    grid = FaceGrid(flat)
    rng = np.random.RandomState(17)
    worst_sum = 0.0
    worst_rec = 0.0
    for _ in range(1000):
        p = np.array([rng.uniform(0.001, 1.999), rng.uniform(0.001, 0.999)])
        faces, coords = locate_points(flat, p, grid)
        lam = coords[0]
        worst_sum = max(worst_sum, abs(lam.sum() - 1.0))
        # an unlocatable point (face -1) fails the reconstruction
        rebuilt = lam @ flat.vertices[flat.faces[faces[0]]]
        worst_rec = max(worst_rec, float(np.linalg.norm(rebuilt - p)))
    ok = worst_sum <= 1e-12 and worst_rec <= 1e-12
    report_line("criterion 6c (barycentric identities, 1000 points)", ok,
                f"max |sum-1| {worst_sum:.2e}, max reconstruction error {worst_rec:.2e}")
    assert worst_sum <= 1e-12
    assert worst_rec <= 1e-12


def test_criterion_6d_conformal():
    planar = grid_mesh_on_surface(plane(0.0, 2.0, 0.0, 1.0), 9, 5)
    res = flatten(planar)
    angle_err = np.radians(
        np.abs(planar.face_corner_angles() - res.flat.face_corner_angles())).max()

    from bubblemesh.surfaces import cylinder_patch
    cyl = grid_mesh_on_surface(cylinder_patch(1.0, 0.0, 0.9 * math.pi, 0.0, 2.0), 25, 12)
    res_c = flatten(cyl)
    connectivity = np.array_equal(res_c.flat.faces, cyl.faces)
    ok = angle_err < 1e-9 and res_c.max_distortion < 1.01 and connectivity
    report_line("criterion 6d (conformal flattening)", ok,
                f"planar angle error {angle_err:.2e} rad (<1e-9), cylinder "
                f"distortion {res_c.max_distortion:.6f} (<1.01), "
                f"connectivity preserved={connectivity}")
    assert angle_err < 1e-9
    assert res_c.max_distortion < 1.01
    assert connectivity


def test_criterion_6e_reconstruction_formulas():
    from bubblemesh.remesh import (reconstruct_boundary_bubbles,
                                   reconstruct_interior_bubbles)
    L = 0.5
    ring = [[L * math.cos(2 * math.pi * k / 6), L * math.sin(2 * math.pi * k / 6)]
            for k in range(6)]
    verts = np.array([[0.0, 0.0]] + ring)
    faces = np.array([[0, 1 + k, 1 + (k + 1) % 6] for k in range(6)])
    star = PlanarMesh(verts, faces)
    inner = reconstruct_interior_bubbles(star)
    boundary = reconstruct_boundary_bubbles(star)
    inner_ok = abs(inner[0].radius - L / 2.0) < 1e-12
    bnd_ok = all(abs(b.radius - L / 2.0) < 1e-12 for b in boundary)

    nbr_len = np.linalg.norm(star.vertices[1:] - star.vertices[0], axis=1)
    inv = 1.0 / nbr_len
    weight_err = abs(float((inv / inv.sum()).sum()) - 1.0)
    ok = inner_ok and bnd_ok and weight_err <= 1e-12
    report_line("criterion 6e (reconstruction formulas)", ok,
                f"uniform-edge radii = L/2 (interior {inner_ok}, boundary {bnd_ok}), "
                f"weight normalization error {weight_err:.2e}")
    assert inner_ok and bnd_ok
    assert weight_err <= 1e-12


def test_criterion_6f_determinism(tmp_path):
    payloads = []
    for run in range(2):
        cfg = load_config(None, {
            "out": str(tmp_path / f"run{run}"), "plane_width": "8",
            "plane_height": "6", "holes": "", "r_min": "0.45", "r_max": "0.45",
            "max_sweeps": "120", "seed": "5",
        })
        result = run_plane_pipeline(cfg)
        out = result["out"]
        trace_no_wall = "\n".join(",".join(line.split(",")[:4])
                                  for line in (out / "trace.csv").read_text().splitlines())
        payloads.append((
            (out / "plane_mesh.obj").read_bytes(),
            (out / "plane_mesh.off").read_bytes(),
            (out / "plane_mesh.svg").read_bytes(),
            (out / "plane_report.txt").read_bytes(),
            trace_no_wall,
        ))
    ok = payloads[0] == payloads[1]
    report_line("criterion 6f (determinism)", ok,
                "byte-identical artifacts across two same-seed runs "
                "(trace compared without the wall-clock column)")
    assert payloads[0] == payloads[1]
