import math
import warnings

import numpy as np
import pytest

from bubblemesh.conformal import flatten
from bubblemesh.mesh import MeshError, PlanarMesh, quality_report
from bubblemesh.packing import BOUNDARY, INTERIOR_ANCHOR, MOBILE
from bubblemesh.remesh import (fill_gaps, reconstruct_boundary_bubbles,
                               reconstruct_interior_bubbles, remesh_planar)
from bubblemesh.surfaces import plane

from conftest import cap_mesh, grid_mesh_on_surface


def planar_flat(nu=9, nv=5, width=2.0, height=1.0):
    m = grid_mesh_on_surface(plane(0.0, width, 0.0, height), nu, nv)
    return PlanarMesh(m.uv, m.faces)


def fan_mesh(edge_lengths):
    """Planar triangle fan whose boundary consists of segments of the given
    lengths around a closed polygon (lengths define the polygon)."""
    n = len(edge_lengths)
    total = sum(edge_lengths)
    pts = []
    angle = 0.0
    for L in edge_lengths:
        pts.append([math.cos(angle), math.sin(angle)])
        angle += 2 * math.pi * L / total
    return np.array(pts)


class TestBoundaryReconstruction:
    def test_uniform_edges(self):
        flat = planar_flat(5, 5, 1.0, 1.0)  # boundary edges all 0.25
        bubbles = reconstruct_boundary_bubbles(flat)
        loop = flat.boundary_loop
        assert len(bubbles) == len(loop)
        for b in bubbles:
            assert b.kind == BOUNDARY
            assert b.radius == pytest.approx(0.125, rel=1e-12)
        # consecutive bubbles exactly tangent
        for k in range(len(bubbles)):
            a, c = bubbles[k], bubbles[(k + 1) % len(bubbles)]
            d = math.hypot(a.x - c.x, a.y - c.y)
            assert d == pytest.approx(a.radius + c.radius, rel=1e-12)

    def test_mixed_edges_one_three(self):
        # vertex with incident boundary edges 1 and 3 gets radius 1
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 3.0], [-1.0, 1.5]])
        faces = np.array([[0, 1, 2], [0, 2, 3]])
        flat = PlanarMesh(verts, faces)
        bubbles = reconstruct_boundary_bubbles(flat)
        by_vertex = {flat.boundary_loop[k]: b for k, b in enumerate(bubbles)}
        assert by_vertex[1].radius == pytest.approx(1.0, rel=1e-12)

    def test_triangle_345(self):
        # boundary edges (3,4,5): radii (l_prev + l_next)/4 per vertex
        verts = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
        faces = np.array([[0, 1, 2]])
        flat = PlanarMesh(verts, faces)
        bubbles = reconstruct_boundary_bubbles(flat)
        radii = {(round(b.x, 6), round(b.y, 6)): b.radius for b in bubbles}
        assert radii[(0.0, 0.0)] == pytest.approx((5.0 + 3.0) / 4.0)
        assert radii[(3.0, 0.0)] == pytest.approx((3.0 + 4.0) / 4.0)
        assert radii[(3.0, 4.0)] == pytest.approx((4.0 + 5.0) / 4.0)


class TestInteriorReconstruction:
    def test_uniform_incident_edges(self):
        flat = planar_flat(5, 5, 1.0, 1.0)
        bubbles = reconstruct_interior_bubbles(flat)
        assert bubbles
        assert all(b.kind == INTERIOR_ANCHOR for b in bubbles)
        # grid interior vertices see edges 0.25 (axis) and ~0.3536 (diagonal);
        # build a uniform-edge case instead: equilateral star
        L = 0.7
        center = np.array([0.0, 0.0])
        ring = [[L * math.cos(2 * math.pi * k / 6), L * math.sin(2 * math.pi * k / 6)]
                for k in range(6)]
        verts = np.array([center.tolist()] + ring)
        faces = np.array([[0, 1 + k, 1 + (k + 1) % 6] for k in range(6)])
        star = PlanarMesh(verts, faces)
        inner = reconstruct_interior_bubbles(star)
        assert len(inner) == 1
        assert inner[0].radius == pytest.approx(L / 2.0, rel=1e-12)

    def test_weights_reduce_long_edge_impact(self):
        # incident edges (1, 1, 100): radius ~0.75, the long edge nearly ignored
        lens = np.array([1.0, 1.0, 100.0])
        inv = 1.0 / lens
        w = inv / inv.sum()
        r = 0.5 * float((w * lens).sum())
        assert r == pytest.approx(0.75, abs=0.01)
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [-0.5, math.sqrt(3) / 2],
                          [0.0, -100.0]])
        faces = np.array([[0, 1, 2], [0, 3, 1]])
        flat = PlanarMesh(verts, faces)
        # vertex 0 has incident edges 1, 1, 100 but lies on the boundary of
        # this tiny mesh; check the formula directly through a star instead
        star_verts = [[0.0, 0.0]]
        star_verts += [[math.cos(a), math.sin(a)] for a in (0.0, 2.0, 4.0)]
        star_verts = np.array(star_verts)
        star_faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1]])
        star = PlanarMesh(star_verts, star_faces)
        got = reconstruct_interior_bubbles(star)
        assert got[0].radius == pytest.approx(0.5, rel=1e-12)

    def test_two_edge_weighted_mean(self):
        # edges 1 and 2: weights (2/3, 1/3), radius 2/3
        lens = np.array([1.0, 2.0])
        inv = 1.0 / lens
        w = inv / inv.sum()
        assert 0.5 * float((w * lens).sum()) == pytest.approx(2.0 / 3.0 * 0.5 * 2.0, rel=1e-12)
        assert 0.5 * (w[0] * 1.0 + w[1] * 2.0) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_weight_normalization(self):
        flat = planar_flat(7, 6)
        nbrs = flat.vertex_neighbors()
        boundary = set()
        for loop in flat.boundary_loops():
            boundary.update(loop)
        for i in range(flat.n_vertices):
            if i in boundary:
                continue
            lens = np.linalg.norm(flat.vertices[nbrs[i]] - flat.vertices[i], axis=1)
            inv = 1.0 / lens
            w = inv / inv.sum()
            assert w.sum() == pytest.approx(1.0, abs=1e-12)


def equilateral_flat(rows=9, cols=12, r=0.25):
    verts = []
    for row in range(rows):
        for col in range(cols):
            verts.append([2 * r * col + (r if row % 2 else 0.0),
                          r * math.sqrt(3.0) * row])
    faces = []
    for row in range(rows - 1):
        for col in range(cols - 1):
            a = row * cols + col
            b = row * cols + col + 1
            c = (row + 1) * cols + col
            d = (row + 1) * cols + col + 1
            if row % 2 == 0:
                faces.append([a, b, c])
                faces.append([b, d, c])
            else:
                faces.append([a, d, c])
                faces.append([a, b, d])
    return PlanarMesh(np.array(verts), np.array(faces))


class TestFillGaps:
    def test_uniform_flat_mesh_few_insertions(self):
        flat = equilateral_flat()
        anchors = (reconstruct_boundary_bubbles(flat)
                   + reconstruct_interior_bubbles(flat))
        added = fill_gaps(flat, anchors)
        assert len(added) <= 0.05 * len(anchors)

    def test_single_triangle_no_insertions(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
        flat = PlanarMesh(verts, np.array([[0, 1, 2]]))
        anchors = reconstruct_boundary_bubbles(flat)
        assert fill_gaps(flat, anchors) == []

    def test_gapless_mesh_does_not_warn(self):
        # finding no gap is gap filling's normal outcome, not a warning
        flat = planar_flat(9, 5)
        anchors = (reconstruct_boundary_bubbles(flat)
                   + reconstruct_interior_bubbles(flat))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fill_gaps(flat, anchors) == []

    def test_stretched_center_gets_insertions(self):
        # flatten of a cap stretches the rim relative to the center; fillers
        # appear where edge lengths exceed the reconstructed bubble scale
        result = flatten(cap_mesh(rings=7))
        flat = result.flat
        anchors = (reconstruct_boundary_bubbles(flat)
                   + reconstruct_interior_bubbles(flat))
        added = fill_gaps(flat, anchors)
        assert all(b.kind == MOBILE for b in added)


class TestRemeshPlanar:
    def test_no_quality_regression_on_good_mesh(self):
        # an equilateral-lattice flat mesh re-meshes without losing quality
        flat = equilateral_flat()
        before = quality_report(flat)
        out, trace = remesh_planar(flat)
        after = quality_report(out)
        assert after.min_angle >= before.min_angle - 2.0

    def test_boundary_bubbles_fixed(self):
        flat = planar_flat(9, 5)
        loop_pts = flat.vertices[flat.boundary_loop]
        out, trace = remesh_planar(flat)
        out_pts = {(round(p[0], 9), round(p[1], 9)) for p in out.vertices}
        for p in loop_pts:
            assert (round(p[0], 9), round(p[1], 9)) in out_pts

    def test_bubble_count_never_grows_during_qc(self):
        flat = planar_flat(9, 5)
        from bubblemesh.relaxation import qc_boundary_region
        anchors = (reconstruct_boundary_bubbles(flat)
                   + reconstruct_interior_bubbles(flat))
        bubbles = anchors + fill_gaps(flat, anchors)
        pruned = qc_boundary_region(bubbles, anchors, 1.0)
        assert len(pruned) <= len(bubbles)

    def test_errors(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        faces = np.array([[0, 1, 2], [0, 2, 3]])
        flat = PlanarMesh(verts, faces)
        bad = PlanarMesh(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]),
                         np.array([[0, 1, 2]]))
        with pytest.raises(MeshError):
            reconstruct_boundary_bubbles(bad)
