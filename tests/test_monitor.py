import math
from types import SimpleNamespace

import numpy as np
import pytest

from bubblemesh import delaunay, relaxation
from bubblemesh.config import PipelineConfig
from bubblemesh.delaunay import triangulation_min_angle
from bubblemesh.packing import AnchorField, PackingDomain, pack_boundary, pack_interior_quadtree
from bubblemesh.relaxation import relax_until_converged


def plate_with_hole(sizing):
    """8 x 5 plate with a 24-gon hole of radius 1 at its centre."""
    outer = np.array([[0.0, 0.0], [8.0, 0.0], [8.0, 5.0], [0.0, 5.0]])
    t = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)[::-1]
    hole = np.column_stack([4.0 + np.cos(t), 2.5 + np.sin(t)])
    return PackingDomain(outer=outer, holes=[hole], sizing=sizing)


def sampled_relaxation(monkeypatch, bubbles, domain, cfg, strategy):
    """relax_until_converged with a copy of the positions after every sweep's
    step, and the (sweep, changes) of every quantity-control pass."""
    positions, passes = [], []
    step, qc = relaxation.relax_step, relaxation._qc_original_state

    def recorded_step(state, *args):
        max_f = step(state, *args)
        positions.append(state.positions().copy())
        return max_f

    def recorded_qc(*args):
        changes = qc(*args)
        passes.append((len(positions), changes))
        return changes

    monkeypatch.setattr(relaxation, "relax_step", recorded_step)
    monkeypatch.setattr(relaxation, "_qc_original_state", recorded_qc)
    _, trace = relax_until_converged(bubbles, domain, cfg, strategy=strategy)
    return trace, positions, passes


def stop_rule(rows, passes, force_tol, qc_period=None):
    """(stop reason, sweep) recomputed from the rows: the force test every
    sweep, and under quantity control (every qc_period sweeps, and again
    before a stop unless the last pass was clean) the stall test on the
    samples of every 10th sweep spanning the last stall window, samples
    cleared by a pass that changed the population, and no stop before a
    clean pass. Without quantity control there is no stall test."""
    samples, clean = [], qc_period is None
    span = relaxation._STALL_WINDOW // 10 + 1
    todo = list(passes)

    def qc_pass(sweep):
        at, changes = todo.pop(0)
        assert at == sweep
        if changes:
            samples.clear()
        return changes == 0

    for sweep, _, max_f, angle, _ in rows:
        if sweep % 10 == 0:
            samples.append(angle)
        if qc_period and sweep % qc_period == 0:
            clean = qc_pass(sweep)
        window = samples[-span:]
        reason = "force" if max_f < force_tol else None
        if (reason is None and qc_period and sweep % 10 == 0 and len(window) == span
                and max(window) - min(window) < relaxation._STALL_ANGLE):
            reason = "stall"
        if reason and not clean:
            clean = qc_pass(sweep)
        if reason and clean:
            assert not todo
            return reason, sweep
    assert not todo
    return "sweep-cap", rows[-1][0]


class TestMinAngleMonitor:
    @pytest.mark.parametrize("case", ["plate-new-qc", "graded-original-qc", "wide-stall"])
    def test_sampled_every_10_sweeps_for_the_stall_test_only(self, monkeypatch, case):
        if case == "plate-new-qc":
            domain = plate_with_hole(lambda x, y: 0.3)
            cfg, strategy = PipelineConfig(max_sweeps=80), "new-qc"
        else:
            def sizing(x, y):
                return 0.25 + 0.25 * np.minimum(np.abs(x - 4.0) / 4.0, 1.0)

            domain = plate_with_hole(sizing)
            # at 180 degrees every full window stalls, so where the run stops
            # shows where quantity control cleared the samples
            if case == "wide-stall":
                monkeypatch.setattr(relaxation, "_STALL_ANGLE", 180.0)
            cfg, strategy = PipelineConfig(qc_period=5), "original-qc"
        boundary = pack_boundary(domain)
        bubbles = boundary + pack_interior_quadtree(domain, AnchorField(boundary))
        qc = strategy == "original-qc"
        force_tol = cfg.force_tol_factor * np.mean([b.radius for b in bubbles])
        trace, positions, passes = sampled_relaxation(monkeypatch, bubbles, domain, cfg,
                                                      strategy)
        last = trace.sweeps
        assert [row[0] for row in trace.rows] == list(range(1, last + 1))
        assert len(positions) == last
        sampled = [row[0] for row in trace.rows if not math.isnan(row[3])]
        # only the stall test reads the monitor: every 10th sweep under
        # quantity control, and no sweep, the last included, without it
        assert sampled == (list(range(10, last + 1, 10)) if qc else [])
        for sweep, _, _, angle, _ in trace.sampled_rows():
            assert angle == triangulation_min_angle(positions[sweep - 1], domain) > 0.0
        want = stop_rule(trace.rows, passes, force_tol, cfg.qc_period if qc else None)
        assert (trace.stop_reason, trace.sweeps) == want
        assert trace.converged == (want[0] != "sweep-cap")
        if qc:  # quantity control inserted or deleted bubbles on the way
            assert sum(changes > 0 for _, changes in passes) >= 2

    def test_last_row_describes_the_population_before_its_pass(self, monkeypatch):
        # a due pass that deletes every other mobile bubble on the last
        # sweep, then the clean pass that lets the force test stop the run:
        # the row's count is that of the sweep's step, not that after the pass
        domain = plate_with_hole(lambda x, y: 0.3)
        boundary = pack_boundary(domain)
        bubbles = boundary + pack_interior_quadtree(domain, AnchorField(boundary))
        after = []

        def one_deleting_pass(state, *args):
            if not after:
                state.alive[state.mobile_indices()[::2]] = False
                after.append(state.positions().copy())
                return 1
            return 0

        monkeypatch.setattr(relaxation, "_qc_original_state", one_deleting_pass)
        trace, positions, passes = sampled_relaxation(
            monkeypatch, bubbles, domain, PipelineConfig(force_tol_factor=1e9, qc_period=1),
            "original-qc")
        assert (trace.sweeps, trace.stop_reason, passes) == (1, "force", [(1, 1), (1, 0)])
        assert trace.rows[-1][1] == len(positions[0]) > len(after[0])

    def test_min_angle_equals_per_corner_arithmetic(self, monkeypatch, rng):
        # the monitor takes every corner's cosine from the mesh's angle
        # kernel and the angle of the largest from math.acos; the per-corner
        # form of its first kernel is kept here. Qhull is stood in for by
        # random faces, coincident corners among them, inside a domain that
        # keeps them all
        def per_corner(points, faces):
            v = points[faces]
            min_cos = -1.0
            for kidx in range(3):
                a = v[:, kidx]
                e1 = v[:, (kidx + 1) % 3] - a
                e2 = v[:, (kidx + 2) % 3] - a
                denom = np.maximum(np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1),
                                   1e-300)
                cosang = np.einsum("ij,ij->i", e1, e2) / denom
                min_cos = max(min_cos, float(np.max(np.clip(cosang, -1.0, 1.0))))
            return math.degrees(math.acos(min_cos))

        for scale in (1e-6, 1.0, 1e4):
            pts = rng.uniform(-1.0, 1.0, size=(300, 2)) * scale + rng.uniform(-50, 50, 2)
            lo, hi = pts.min(axis=0) - 1.0, pts.max(axis=0) + 1.0
            domain = PackingDomain(outer=[lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]])
            for _ in range(20):
                faces = rng.randint(0, 300, size=(200, 3))
                faces[:5, 1] = faces[:5, 0]  # coincident corners
                monkeypatch.setattr(delaunay, "Delaunay",
                                    lambda points: SimpleNamespace(simplices=faces))
                assert triangulation_min_angle(pts, domain) == per_corner(pts, faces)
