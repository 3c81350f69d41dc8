import math

import numpy as np
import pytest

from bubblemesh import delaunay, monitor, relaxation
from bubblemesh.geometry import orient2d_array
from bubblemesh.monitor import MonitorCache, triangulation_min_angle
from bubblemesh.packing import PackingDomain, pack_boundary, pack_interior_quadtree
from bubblemesh.relaxation import DynamicsParams, ForceParams, relax_until_converged

FORCE = ForceParams(k=1.0, f0=1.0)


def plate_with_hole(sizing):
    """8 x 5 plate with a 24-gon hole of radius 1 at its centre."""
    outer = np.array([[0.0, 0.0], [8.0, 0.0], [8.0, 5.0], [0.0, 5.0]])
    t = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)[::-1]
    hole = np.column_stack([4.0 + np.cos(t), 2.5 + np.sin(t)])
    return PackingDomain(outer=outer, holes=[hole], sizing=sizing)


def checked_relaxation(monkeypatch, bubbles, domain, **kwargs):
    """relax_until_converged with every monitor call also made without a
    cache (a fresh Qhull); returns the trace and per sweep (cached value,
    fresh value, cache)."""
    seen = []

    def both(points, dom, cache=None):
        got = triangulation_min_angle(points, dom, cache)
        seen.append((got, triangulation_min_angle(points, dom), cache))
        return got

    monkeypatch.setattr(relaxation, "triangulation_min_angle", both)
    _, trace = relax_until_converged(bubbles, domain, force=FORCE, **kwargs)
    return trace, seen


def jittered_grid(rng, n=9, jitter=0.2):
    """n x n unit lattice with every point but the hull's jittered."""
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    pts = np.column_stack([i.ravel(), j.ravel()]).astype(float)
    inner = (pts > 0).all(axis=1) & (pts < n - 1).all(axis=1)
    pts[inner] += rng.uniform(-jitter, jitter, size=(inner.sum(), 2))
    return pts, inner


class TestMinAngleMonitor:
    def test_plate_relaxation_equals_fresh_qhull_every_sweep(self, monkeypatch):
        domain = plate_with_hole(lambda x, y: 0.3)
        boundary = pack_boundary(domain)
        bubbles = boundary + pack_interior_quadtree(domain, boundary)
        trace, seen = checked_relaxation(monkeypatch, bubbles, domain,
                                         dyn=DynamicsParams(max_sweeps=80))
        assert [got for got, _, _ in seen] == [want for _, want, _ in seen]
        assert [row[3] for row in trace.rows] == [got for got, _, _ in seen]
        cache = seen[0][2]
        assert all(c is cache for _, _, c in seen)
        assert cache.rebuilds == 1 and cache.flips > 0

    def test_original_qc_relaxation_equals_fresh_qhull_every_sweep(self, monkeypatch):
        def sizing(x, y):
            return 0.25 + 0.25 * np.minimum(np.abs(x - 4.0) / 4.0, 1.0)

        domain = plate_with_hole(sizing)
        boundary = pack_boundary(domain)
        bubbles = boundary + pack_interior_quadtree(domain, boundary)
        trace, seen = checked_relaxation(monkeypatch, bubbles, domain,
                                         dyn=DynamicsParams(max_sweeps=60),
                                         strategy="original-qc", qc_period=5)
        assert [got for got, _, _ in seen] == [want for _, want, _ in seen]
        cache = seen[0][2]
        counts = [row[1] for row in trace.rows]
        changes = sum(a != b for a, b in zip(counts, counts[1:]))
        assert changes >= 2  # quantity control inserted or deleted bubbles
        assert changes < cache.rebuilds < len(seen) / 2
        assert cache.flips > 0

    def test_repairs_without_qhull_while_only_inner_points_move(self, rng):
        pts, inner = jittered_grid(rng)
        cache = MonitorCache()
        cache.key(np.arange(len(pts)))
        for step in range(6):
            got = triangulation_min_angle(pts, None, cache)
            assert got == triangulation_min_angle(pts, None)
            pts[inner] += rng.normal(0.0, 0.03, size=(inner.sum(), 2))
        assert cache.rebuilds == 1 and cache.flips > 0

    @pytest.mark.parametrize("change", ["hull vertex", "inverted face", "same-count set"])
    def test_falls_back_to_qhull(self, rng, monkeypatch, change):
        pts, inner = jittered_grid(rng)
        ids = np.arange(len(pts))
        cache = MonitorCache()
        cache.key(ids)
        triangulation_min_angle(pts, None, cache)
        if change == "hull vertex":
            pts[0] += (-0.01, 0.0)
        elif change == "inverted face":
            # an inner point pushed through the far side of its cell: every
            # face around it turns over, though nothing leaves the hull; the
            # orientation check must catch it before any flip is tried
            k = np.flatnonzero(inner)[10]
            pts[k] += (1.6, 0.0)
            monkeypatch.setattr(monitor, "lawson_flip", None)
        else:
            # one bubble deleted and one appended where it was: the count
            # and every position are unchanged, so only the key tells
            ids = np.append(np.delete(ids, 5), len(pts))
            cache.key(ids)
        got = triangulation_min_angle(pts, None, cache)
        assert got == triangulation_min_angle(pts, None)
        assert cache.rebuilds == 2

    def test_flip_budget_ends_a_repair_that_would_not_end(self, rng, monkeypatch):
        # predicates that always ask for one more flip: only the budget
        # (one flip per face) stops the Lawson loop, and Qhull takes over
        pts, inner = jittered_grid(rng)
        cache = MonitorCache()
        cache.key(np.arange(len(pts)))
        triangulation_min_angle(pts, None, cache)
        calls = []

        def always_flip(*args):
            calls.append(args)
            assert len(calls) < 100_000  # fail rather than spin
            return 1

        monkeypatch.setattr(delaunay, "incircle", always_flip)
        monkeypatch.setattr(delaunay, "orient2d", always_flip)
        monkeypatch.setattr(delaunay, "incircle_array",
                            lambda *columns: np.ones(len(columns[0]), dtype=np.int8))
        pts[inner] += 0.01
        got = triangulation_min_angle(pts, None, cache)
        monkeypatch.undo()
        assert got == triangulation_min_angle(pts, None)
        assert cache.rebuilds == 2
        assert cache.flips == len(cache.faces) + 1

    def test_kept_faces_equal_fresh_qhull_faces_in_a_domain_with_a_hole(self):
        # inner points wander, so faces flip and centroids cross the hole's
        # edges; the kept faces, as sets of corners, stay Qhull's. Qhull runs
        # only while no triangulation is kept (at the first step) and at a
        # step that inverts a kept face or moves a hull vertex (a point that
        # wandered out of the lattice); the walks of seeds 13 and 14 invert
        def face_set(fx, fy):
            return {frozenset(zip(x, y)) for x, y in zip(fx.T.tolist(), fy.T.tolist())}

        outer = np.array([[0.0, 0.0], [8.0, 0.0], [8.0, 8.0], [0.0, 8.0]])
        hole = np.array([[4.0, 2.3], [2.3, 4.0], [4.0, 5.7], [5.7, 4.0]])
        domain = PackingDomain(outer=outer, holes=[hole], sizing=lambda x, y: 0.5)
        fallbacks = 0
        for seed in range(15):
            rng = np.random.RandomState(seed)
            pts, inner = jittered_grid(rng)
            cache = MonitorCache()
            cache.key(np.arange(len(pts)))
            qhull_steps = 0
            for step in range(40):
                if cache.faces is None:
                    qhull_steps += 1
                else:
                    fx, fy = pts[:, 0][cache.faces.T], pts[:, 1][cache.faces.T]
                    inverted = (orient2d_array(fx[0], fy[0], fx[1], fy[1],
                                               fx[2], fy[2]) <= 0).any()
                    hull = pts[cache.hull]
                    qhull_steps += bool(inverted or (hull[:, 0] != cache.x[cache.hull]).any()
                                        or (hull[:, 1] != cache.y[cache.hull]).any())
                tri, inside = monitor._qhull_faces(pts, domain)
                faces = tri.simplices[inside].T
                want = face_set(pts[:, 0][faces], pts[:, 1][faces])
                assert face_set(*cache.kept_corners(pts, domain)) == want
                pts[inner] += rng.normal(0.0, 0.04, size=(inner.sum(), 2))
            assert cache.rebuilds == qhull_steps and cache.flips > 0
            fallbacks += qhull_steps - 1
        assert fallbacks > 0

    def test_jittered_cocircular_lattice_within_1e12_degrees(self, rng):
        # every unit square of the lattice is cocircular; once some corners
        # move, the squares that kept theirs take the tie rule's diagonal,
        # which a fresh Qhull call may choose otherwise; either diagonal
        # gives the same smallest angle
        i, j = np.meshgrid(np.arange(12), np.arange(12), indexing="ij")
        pts = np.column_stack([i.ravel(), j.ravel()]).astype(float)
        inner = np.flatnonzero((pts > 0).all(axis=1) & (pts < 11).all(axis=1))
        cache = MonitorCache()
        cache.key(np.arange(len(pts)))
        for step in range(5):
            got = triangulation_min_angle(pts, None, cache)
            assert abs(got - triangulation_min_angle(pts, None)) <= 1e-12
            moving = rng.choice(inner, size=len(inner) // 3, replace=False)
            pts[moving] += rng.normal(0.0, 1e-3, size=(len(moving), 2))
        assert cache.rebuilds == 1

    def test_angle_pass_equals_per_corner_arithmetic(self, rng):
        # the angle pass takes each corner's cosine from the face's three
        # edge vectors; the per-corner form it replaced is kept here
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
            for _ in range(20):
                faces = rng.randint(0, 300, size=(200, 3))
                faces[:5, 1] = faces[:5, 0]  # coincident corners
                got = monitor._min_angle(pts[:, 0][faces.T], pts[:, 1][faces.T])
                assert got == per_corner(pts, faces)
