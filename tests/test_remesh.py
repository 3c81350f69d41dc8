import math
import warnings

import numpy as np
import pytest

from bubblemesh import packing
from bubblemesh.conformal import flatten
from bubblemesh.geometry import nearest_segments
from bubblemesh.mesh import MeshError, PlanarMesh, quality_report
from bubblemesh.packing import (BOUNDARY, INTERIOR_ANCHOR, MOBILE, Bubble,
                                _interpolate_radii_batch, _quadtree_corners,
                                _self_thin)
from bubblemesh.pipeline import initial_surface_mesh
from bubblemesh.relaxation import RelaxState, _qc_boundary_region_state
from bubblemesh.remesh import (FILL_MAX_ANCHOR_OVERLAP, _covered_faces,
                               fill_gaps, flat_domain,
                               reconstruct_boundary_bubbles,
                               reconstruct_interior_bubbles, remesh_planar)
from bubblemesh.surfaces import plane

from conftest import (bench_module, cap_mesh, grid_mesh_on_surface,
                      loop_boundary_loops, loop_vertex_neighbors,
                      scalar_qc_boundary_region)


def planar_flat(nu=9, nv=5, width=2.0, height=1.0):
    m = grid_mesh_on_surface(plane(0.0, width, 0.0, height), nu, nv)
    return PlanarMesh(m.uv, m.faces)


def stretched_flat():
    """A flat 2.5 x 1 grid whose middle column of cells is four times as
    wide as the rest: gap filling adds fillers there."""
    xs = np.array([0.0, 0.25, 0.5, 0.75, 1.75, 2.0, 2.25, 2.5])
    X, Y = np.meshgrid(xs, np.linspace(0.0, 1.0, 5))
    n = len(xs)
    cells = [(j * n + i, j * n + i + 1, (j + 1) * n + i, (j + 1) * n + i + 1)
             for j in range(4) for i in range(n - 1)]
    faces = [f for a, b, c, d in cells for f in ([a, b, d], [a, d, c])]
    return PlanarMesh(np.column_stack([X.ravel(), Y.ravel()]), np.array(faces))


def loop_interior_bubbles(flat):
    """(x, y, radius) of one anchor per interior vertex, vertex by vertex:
    half the inverse-length-weighted mean of its incident edge lengths. The
    reference for reconstruct_interior_bubbles."""
    on_boundary = {v for loop in loop_boundary_loops(flat) for v in loop}
    neighbors = loop_vertex_neighbors(flat)
    out = []
    for i in range(flat.n_vertices):
        if i in on_boundary:
            continue
        if not neighbors[i]:
            raise MeshError(f"isolated vertex {i}")
        lens = np.linalg.norm(flat.vertices[neighbors[i]] - flat.vertices[i], axis=1)
        if np.any(lens <= 0.0):
            raise MeshError(f"zero-length edge at vertex {i}")
        inv = 1.0 / lens
        weights = inv / inv.sum()
        out.append((*flat.vertices[i].tolist(), 0.5 * float((weights * lens).sum())))
    return out


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
        nbrs = loop_vertex_neighbors(flat)
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


class TestInteriorReconstructionOracle:
    @pytest.mark.parametrize("make", [
        planar_flat, stretched_flat, lambda: flatten(cap_mesh(rings=8)).flat,
    ], ids=["grid", "stretched", "cap"])
    def test_matches_vertex_loop(self, make):
        self.check(make())

    def test_matches_vertex_loop_on_sphere_workload(self, sphere_workload_mesh):
        self.check(flatten(sphere_workload_mesh).flat)

    @staticmethod
    def check(flat):
        got = reconstruct_interior_bubbles(flat)
        want = np.array(loop_interior_bubbles(flat))
        assert len(got) == len(want) > 0
        assert all(b.kind == INTERIOR_ANCHOR for b in got)
        assert np.array_equal([[b.x, b.y] for b in got], want[:, :2])
        radii = np.array([b.radius for b in got])
        assert np.all(np.abs(radii - want[:, 2]) <= 1e-14 * want[:, 2])

    @pytest.mark.parametrize("isolated,zero,named", [
        (True, False, "isolated vertex 5"),
        (False, True, "zero-length edge at vertex 4"),
        (True, True, "zero-length edge at vertex 4"),
    ])
    def test_same_error_as_vertex_loop(self, isolated, zero, named):
        # a 3 x 3 grid has one interior vertex, 4; vertex 5 is appended
        # without faces, and a zero-length edge moves vertex 1 onto 4
        flat = planar_flat(3, 3, 1.0, 1.0)
        verts = flat.vertices.copy()
        if zero:
            verts[1] = verts[4]
        if isolated:
            verts = np.vstack([verts[:5], [[9.0, 9.0]], verts[5:]])
            faces = np.where(flat.faces >= 5, flat.faces + 1, flat.faces)
        else:
            faces = flat.faces
        bad = PlanarMesh(verts, faces)
        with pytest.raises(MeshError, match=f"^{named}$"):
            loop_interior_bubbles(bad)
        with pytest.raises(MeshError, match=f"^{named}$"):
            reconstruct_interior_bubbles(bad)


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
        # fillers appear where edge lengths exceed the reconstructed bubble
        # scale, and only there
        flat = stretched_flat()
        anchors = (reconstruct_boundary_bubbles(flat)
                   + reconstruct_interior_bubbles(flat))
        added = fill_gaps(flat, anchors)
        assert added
        assert all(b.kind == MOBILE and 0.75 < b.x < 1.75 for b in added)


def anchor_arrays(anchors):
    return tuple(np.array([getattr(a, k) for a in anchors]) for k in ("x", "y", "radius"))


def brute_force_anchor_tests(pts, radii, anchors):
    """Which candidates pass gap filling's two anchor tests, each candidate
    against every anchor in the dense expressions: centre outside every
    anchor, and overlap with every anchor at most FILL_MAX_ANCHOR_OVERLAP."""
    ax, ay, ar = anchor_arrays(anchors)
    d2 = (pts[:, 0, None] - ax[None, :]) ** 2 + (pts[:, 1, None] - ay[None, :]) ** 2
    d = np.sqrt(d2)
    ov = (radii[:, None] + ar[None, :] - d) / np.minimum(radii[:, None], ar[None, :])
    return ~np.any(d2 < ar[None, :] ** 2, axis=1) & (ov.max(axis=1) <= FILL_MAX_ANCHOR_OVERLAP)


def brute_force_fill(flat, anchors):
    """Gap filling with no certificate: the unpruned quadtree, the anchor
    tests over every anchor, radii the interpolation clamped by the domain
    sizing, then `_self_thin`. The oracle for `fill_gaps`."""
    domain = flat_domain(flat, anchors)
    pts = _quadtree_corners(domain)
    lo, hi = domain.bbox()
    edge_eps = 1e-9 * math.hypot(float(hi[0] - lo[0]), float(hi[1] - lo[1]))
    keep = (domain.contains_points(pts)
            & (nearest_segments(pts, domain.segments)[2] >= edge_eps ** 2))
    kept = pts[keep]
    radii = np.minimum(_interpolate_radii_batch(kept, anchors),
                       domain.sizing(kept[:, 0], kept[:, 1]))
    ok = brute_force_anchor_tests(kept, radii, anchors)
    kept, radii = _self_thin(kept[ok], radii[ok])
    return np.column_stack([kept, radii])


def sphere_workload_flat():
    # the flat mesh of the benchmark's `sphere` workload, seed 0
    _, cfg = bench_module("workloads").load("sphere", 0, "unused")
    return flatten(initial_surface_mesh(cfg)[2]).flat


def all_anchors(flat):
    return reconstruct_boundary_bubbles(flat) + reconstruct_interior_bubbles(flat)


def shrunk_anchors(flat):
    # anchors left of x = 2 at half their radius leave gaps there
    return [Bubble(a.x, a.y, a.radius * (0.5 if a.x < 2.0 else 1.0), a.kind)
            for a in all_anchors(flat)]


def holed_flat():
    # one grid cell's two faces removed: a second boundary loop
    flat = planar_flat()
    centroid = flat.vertices[flat.faces].mean(axis=1)
    hole = (np.abs(centroid[:, 0] - 1.125) < 0.12) & (np.abs(centroid[:, 1] - 0.625) < 0.12)
    return PlanarMesh(flat.vertices, flat.faces[~hole])


def small_anchors_nearby(flat):
    # tiny anchors around a unit triangle pull the interpolated radius at
    # its centre far below its corners' radii: a gap that a bound taking the
    # corners' radii for the candidate's would miss
    ring = [Bubble(0.5 + math.cos(a), 0.29 + math.sin(a), 0.01, INTERIOR_ANCHOR)
            for a in np.linspace(0.0, 2.0 * math.pi, 50, endpoint=False)]
    return reconstruct_boundary_bubbles(flat) + ring


def unit_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    return PlanarMesh(verts, np.array([[0, 1, 2]]))


# (flat mesh, anchors, covered faces: "all", "some", "none", or None when
# there is no certificate)
FILL_CASES = {
    # 96 % of faces covered, no filler
    "sphere-workload": (sphere_workload_flat, all_anchors, "some"),
    # the stretched cap: every face covered, the quadtree skipped
    "stretched-cap": (lambda: flatten(cap_mesh(rings=7)).flat, all_anchors, "all"),
    # interior vertices without an anchor: fillers
    "boundary-anchors": (planar_flat, reconstruct_boundary_bubbles, "some"),
    # covered and uncovered faces, and fillers in the gaps
    "shrunk-anchors": (equilateral_flat, shrunk_anchors, "some"),
    # the faces leave a hole in the fill domain: no certificate
    "holed": (holed_flat, all_anchors, None),
    "small-anchors-nearby": (unit_triangle, small_anchors_nearby, "none"),
}


class TestFaceCoverCertificate:
    @pytest.mark.parametrize("case", sorted(FILL_CASES))
    def test_fill_equals_brute_force_bit_for_bit(self, case, monkeypatch):
        make_flat, make_anchors, cover = FILL_CASES[case]
        flat = make_flat()
        anchors = make_anchors(flat)
        covered = _covered_faces(flat, anchors, len(flat.boundary_loop))
        if cover is None:
            assert covered is None
        else:
            assert covered.sum() == {"all": len(covered), "none": 0}.get(cover, covered.sum())
            assert cover != "some" or 0 < covered.sum() < len(covered)
        want = brute_force_fill(flat, anchors)
        if cover == "all":
            def no_search(*args):
                raise AssertionError("quadtree searched with every face covered")
            monkeypatch.setattr(packing, "_quadtree_corners", no_search)
        got = np.array([(b.x, b.y, b.radius) for b in fill_gaps(flat, anchors)]).reshape(-1, 3)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if case in ("boundary-anchors", "shrunk-anchors", "holed", "small-anchors-nearby"):
            assert len(got)

    @pytest.mark.parametrize("case", sorted(set(FILL_CASES) - {"holed"}))
    def test_no_point_of_a_covered_face_passes_the_anchor_tests(self, case):
        make_flat, make_anchors, cover = FILL_CASES[case]
        flat = make_flat()
        anchors = make_anchors(flat)
        covered = _covered_faces(flat, anchors, len(flat.boundary_loop))
        # a face with a corner that has no anchor is never covered
        anchored = np.zeros(flat.n_vertices, dtype=bool)
        ax, ay, _ = anchor_arrays(anchors)
        at = {(x, y) for x, y in zip(ax.tolist(), ay.tolist())}
        anchored[[k for k, v in enumerate(flat.vertices.tolist()) if tuple(v) in at]] = True
        assert not covered[~anchored[flat.faces].all(axis=1)].any()
        # corners, edge midpoints and a barycentric grid of every covered face
        n = 8
        weights = np.array([(i, j, n - i - j) for i in range(n + 1)
                            for j in range(n + 1 - i)]) / n
        weights = np.concatenate([weights, [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]])
        pts = np.einsum("wk,fkc->fwc", weights, flat.vertices[flat.faces[covered]]).reshape(-1, 2)
        radii = flat_domain(flat, anchors).sizing(pts[:, 0], pts[:, 1])
        assert (len(pts) > 0) == (cover != "none")
        assert not brute_force_anchor_tests(pts, radii, anchors).any()


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
        # the boundary-region pass over reconstructed anchors and gap
        # fillers removes the fillers that the scalar pass removes, and only
        # fillers; fillers overlap anchors by at most 0.4, so at threshold
        # 0 some go and some stay
        flat = stretched_flat()
        anchors = (reconstruct_boundary_bubbles(flat)
                   + reconstruct_interior_bubbles(flat))
        fillers = fill_gaps(flat, anchors)
        for threshold in (1.0, 0.2, 0.0, -0.2):
            state, ref = RelaxState(anchors + fillers), RelaxState(anchors + fillers)
            removed = _qc_boundary_region_state(state, threshold)
            assert removed == scalar_qc_boundary_region(ref, threshold)
            assert np.array_equal(state.alive, ref.alive)
            assert state.count == len(state.alive) - removed
            assert state.alive[:len(anchors)].all()
            if threshold == 0.0:
                assert 0 < removed < len(fillers)

    def test_errors(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        faces = np.array([[0, 1, 2], [0, 2, 3]])
        flat = PlanarMesh(verts, faces)
        bad = PlanarMesh(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]),
                         np.array([[0, 1, 2]]))
        with pytest.raises(MeshError):
            reconstruct_boundary_bubbles(bad)
