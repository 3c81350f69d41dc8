import math

import numpy as np
import pytest
from scipy.spatial import Delaunay

from bubblemesh import delaunay
from bubblemesh.delaunay import (TriangulationError, _boundary_constraints,
                                 delaunay_triangulate)
from bubblemesh.geometry import incircle, orient2d_array
from bubblemesh.mapping import (_BARY_SLACK, SNAP_TOL_FACTOR, FaceGrid,
                                MappingError, inverse_map, locate_points)
from bubblemesh.mesh import PlanarMesh
from bubblemesh.packing import BOUNDARY, MOBILE, Bubble, PackingDomain
from bubblemesh.surfaces import plane, sphere_patch

from conftest import grid_mesh_on_surface, point_in_polygon


def square_bubbles(side=1.0):
    corners = [(0.0, 0.0), (side, 0.0), (side, side), (0.0, side)]
    return [Bubble(x, y, 0.3, BOUNDARY) for x, y in corners]


def square_packing_domain(side=1.0):
    outer = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    return PackingDomain(outer=outer, holes=[], sizing=lambda x, y: 0.3)


def brute_force_delaunay_check(mesh: PlanarMesh) -> bool:
    """No vertex strictly inside any triangle circumcircle (exact predicates)."""
    v = mesh.vertices
    for a, b, c in mesh.faces:
        pa, pb, pc = v[a], v[b], v[c]
        for k in range(len(v)):
            if k in (a, b, c):
                continue
            if incircle(pa[0], pa[1], pb[0], pb[1], pc[0], pc[1], v[k][0], v[k][1]) > 0:
                return False
    return True


def lattice_bubbles(rng, kind):
    """Bubbles on a lattice, indexed in a shuffled order: unit squares and
    2 x 1 rectangles (every cell an exactly cocircular quad), or a
    honeycomb (every hexagon six cocircular points). Returns the bubbles
    and, for the square and rectangular lattices, each cell's corner
    indices in CCW order."""
    cells = []
    if kind == "hex":
        # the corners of hexagons of side 1 (exact in binary: 0.5 and 1.5
        # steps across, sqrt(3)/2 rounded once for the rows)
        h = math.sqrt(3.0) / 2.0
        pts = sorted({(1.5 * i + dx, h * (2 * j + (i % 2) + dy))
                      for i in range(5) for j in range(4)
                      for dx, dy in ((-1.0, 0.0), (-0.5, 1.0), (0.5, 1.0),
                                     (1.0, 0.0), (0.5, -1.0), (-0.5, -1.0))})
    else:
        sx, sy = (1.0, 1.0) if kind == "square" else (2.0, 1.0)
        pts = [(sx * i, sy * j) for i in range(7) for j in range(6)]
    order = rng.permutation(len(pts))
    index = {pts[k]: pos for pos, k in enumerate(order.tolist())}
    bubbles = [Bubble(*pts[k], 0.3, MOBILE) for k in order]
    if kind != "hex":
        for x0, y0 in pts:
            corners = [(x0, y0), (x0 + sx, y0), (x0 + sx, y0 + sy), (x0, y0 + sy)]
            if all(c in index for c in corners):
                cells.append([index[c] for c in corners])
    return bubbles, cells


def tie_rule_holds(mesh: PlanarMesh) -> bool:
    """Every interior edge keeps the diagonal the tie rule picks: the far
    vertex lies strictly outside the circumcircle, or on it while the
    quad's highest index is not an end of the edge (exact predicates)."""
    v = mesh.vertices.tolist()
    apex = {}
    for a, b, c in mesh.faces.tolist():
        for u, w, x in ((a, b, c), (b, c, a), (c, a, b)):
            apex[(u, w)] = x
    for (u, w), x in apex.items():
        y = apex.get((w, u))
        if y is None:
            continue
        sign = incircle(*v[x], *v[u], *v[w], *v[y])
        if sign > 0 or sign == 0 and max(u, w) > max(x, y):
            return False
    return True


def strip_with_a_segment(rng):
    """A super-triangle (points 0-2), the ends 3 and 4 of a segment along a
    10 x 1 strip, and 60 random points in the strip."""
    return np.concatenate([[(-300.0, -300.0), (300.0, -300.0), (0.0, 300.0),
                            (0.0, 0.5), (10.0, 0.5)],
                           rng.uniform((0.0, 0.0), (10.0, 1.0), size=(60, 2))])


class TestDelaunay:
    def test_unit_square(self):
        mesh = delaunay_triangulate(square_bubbles(), square_packing_domain())
        assert mesh.n_faces == 2
        assert brute_force_delaunay_check(mesh)

    def test_random_points_empty_circumcircles(self, rng):
        domain = square_packing_domain(10.0)
        for trial in range(5):
            bubbles = [Bubble(x, y, 0.3, BOUNDARY)
                       for x, y in [(0, 0), (10, 0), (10, 10), (0, 10)]]
            pts = rng.uniform(0.5, 9.5, size=(50, 2))
            bubbles += [Bubble(float(x), float(y), 0.3, MOBILE) for x, y in pts]
            mesh = delaunay_triangulate(bubbles, domain)
            assert brute_force_delaunay_check(mesh)

    def test_hole_culling(self, rng):
        outer = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
        angles = -2 * np.pi * np.arange(16) / 16
        hole = np.column_stack([5 + 2 * np.cos(angles), 5 + 2 * np.sin(angles)])
        domain = PackingDomain(outer=outer, holes=[hole], sizing=lambda x, y: 0.5)
        bubbles = [Bubble(x, y, 0.5, BOUNDARY) for x, y in outer]
        bubbles += [Bubble(float(x), float(y), 0.5, BOUNDARY) for x, y in hole]
        kept = 0
        while kept < 40:
            x, y = rng.uniform(0.3, 9.7, 2)
            if domain.contains_points(np.array([[x, y]]))[0] and math.hypot(x - 5, y - 5) > 2.3:
                bubbles.append(Bubble(float(x), float(y), 0.5, MOBILE))
                kept += 1
        mesh = delaunay_triangulate(bubbles, domain)
        for f in mesh.faces:
            cent = mesh.vertices[f].mean(axis=0)
            assert not point_in_polygon(cent[0], cent[1], hole)
            assert point_in_polygon(cent[0], cent[1], outer)

    def test_boundary_constraints_enforced(self):
        # two collinear boundary runs force constraint edges into the CDT
        outer = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [0.0, 1.0]])
        domain = PackingDomain(outer=outer, holes=[], sizing=lambda x, y: 0.5)
        bubbles = []
        for x in np.linspace(0, 4, 5):
            bubbles.append(Bubble(float(x), 0.0, 0.5, BOUNDARY))
        for x in np.linspace(4, 0, 5):
            bubbles.append(Bubble(float(x), 1.0, 0.5, BOUNDARY))
        mesh = delaunay_triangulate(bubbles, domain)
        edges = {tuple(sorted(e)) for e in mesh.undirected_edges()}
        # consecutive bottom-row bubbles must be connected
        for k in range(4):
            assert (k, k + 1) in edges

    def test_encroached_hole_chord_is_recovered_by_flips(self):
        # three interior bubbles sit just below the hole's bottom chord
        # (3,4)-(7,4), inside its diametral circle, so the chord is not a
        # Delaunay edge and constraint recovery has to flip it in
        outer = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
        hole = np.array([[3.0, 4.0], [5.0, 7.0], [7.0, 4.0]])
        domain = PackingDomain(outer=outer, holes=[hole], sizing=lambda x, y: 0.5)
        bubbles = [Bubble(x, y, 0.5, BOUNDARY) for x, y in np.concatenate([outer, hole]).tolist()]
        bubbles += [Bubble(x, y, 0.5, MOBILE) for x, y in [
            (5.0, 3.9), (4.0, 3.93), (6.1, 3.95), (1.5, 1.5), (8.5, 1.5), (8.5, 8.5),
            (1.5, 8.5), (5.0, 9.0), (1.0, 5.0), (9.0, 5.0), (5.0, 1.5)]]
        pts = np.array([(b.x, b.y) for b in bubbles])
        constraints = _boundary_constraints(bubbles, domain)
        assert (6, 4) in constraints
        plain = {tuple(sorted(e)) for s in Delaunay(pts).simplices
                 for e in ((s[0], s[1]), (s[1], s[2]), (s[2], s[0]))}
        assert (4, 6) not in plain
        mesh = delaunay_triangulate(bubbles, domain)
        assert mesh.n_vertices == len(bubbles)  # no vertex dropped or renumbered
        edges = {tuple(sorted(e)) for e in mesh.undirected_edges().tolist()}
        assert all(tuple(sorted(c)) in edges for c in constraints)
        for f in mesh.faces:
            cent = mesh.vertices[f].mean(axis=0)
            assert not point_in_polygon(cent[0], cent[1], hole)
        assert np.all(mesh.signed_areas() > 0.0)

    @pytest.mark.parametrize("kind", ["square", "rectangle", "hex"])
    def test_cocircular_lattice_follows_the_tie_rule(self, kind):
        # every cell of the lattice is a cocircular tie, so Qhull's
        # diagonals are arbitrary there; the repaired mesh is the one the
        # tie rule picks, whatever the index order
        rng = np.random.RandomState(3)
        outer = np.array([[-5.0, -5.0], [20.0, -5.0], [20.0, 20.0], [-5.0, 20.0]])
        domain = PackingDomain(outer=outer, holes=[], sizing=lambda x, y: 0.5)
        for trial in range(4):
            bubbles, cells = lattice_bubbles(rng, kind)
            mesh = delaunay_triangulate(bubbles, domain)
            assert mesh.n_vertices == len(bubbles)
            assert np.array_equal(mesh.vertices, [(b.x, b.y) for b in bubbles])
            assert brute_force_delaunay_check(mesh)
            assert tie_rule_holds(mesh)
            edges = {tuple(sorted(e)) for e in mesh.undirected_edges().tolist()}
            for cell in cells:
                top = cell.index(max(cell))
                kept = tuple(sorted((cell[(top + 1) % 4], cell[(top + 3) % 4])))
                cut = tuple(sorted((cell[top], cell[(top + 2) % 4])))
                assert kept in edges and cut not in edges

    def test_duplicate_points_rejected(self):
        bubbles = square_bubbles() + [Bubble(0.5, 0.5, 0.3, MOBILE), Bubble(0.5, 0.5, 0.3, MOBILE)]
        with pytest.raises(TriangulationError, match="duplicate point"):
            delaunay_triangulate(bubbles, square_packing_domain())

    @pytest.mark.parametrize("inner", [[(3.0, 0.0)],
                                       [(1.0, 0.02), (1.5, -0.02), (2.0, 0.02), (3.0, 0.0)]])
    def test_vertex_on_a_boundary_segment_rejected(self, inner):
        # a bubble exactly on the segment between boundary bubbles 0 and 1:
        # next to bubble 0, or past bubbles just above and below the
        # segment, so the walk along it meets the bubble after three edges
        outer = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [0.0, 1.0]])
        domain = PackingDomain(outer=outer, holes=[], sizing=lambda x, y: 0.5)
        bubbles = [Bubble(x, y, 0.5, BOUNDARY) for x, y in outer.tolist()]
        bubbles += [Bubble(x, y, 0.5, MOBILE) for x, y in inner + [(2.0, 0.6)]]
        on = len(bubbles) - 2
        with pytest.raises(TriangulationError,
                           match=rf"bubble {on} lies on segment \(0,1\)"):
            delaunay_triangulate(bubbles, domain)

    def test_recovery_flips_a_long_segment_in(self):
        # a segment across a strip of random points crosses many edges, and
        # some of their quads are not convex when first met; the recovered
        # triangulation keeps every point, every face CCW and every
        # neighbour link, and holds the segment
        rng = np.random.RandomState(4)
        for trial in range(10):
            xy = strip_with_a_segment(rng)
            faces, nbr = delaunay._qhull_delaunay(xy)
            assert len(delaunay._crossed_edges(faces, nbr, xy.tolist(), 3, 4)) > 5
            delaunay._recover_segment(faces, nbr, xy.tolist(), 3, 4, set())
            assert ((faces == 3).any(axis=1) & (faces == 4).any(axis=1)).sum() == 2
            assert np.array_equal(np.unique(faces), np.arange(len(xy)))
            c = xy[faces.T]
            assert (orient2d_array(c[0, :, 0], c[0, :, 1], c[1, :, 0], c[1, :, 1],
                                   c[2, :, 0], c[2, :, 1]) > 0).all()
            for f, k in zip(*np.nonzero(nbr >= 0)):
                g = nbr[f, k]
                edge = {faces[f, (k + 1) % 3], faces[f, (k + 2) % 3]}
                assert f in nbr[g] and edge <= set(faces[g])

    def test_lawson_flip_repairs_a_scrambled_triangulation(self):
        # random convex flips make Delaunay edges illegal, many of them in
        # one neighbourhood, so a flip often changes the quad of an edge
        # still waiting in the queue; the repair from the edges
        # illegal_edges reports ends at the unique Delaunay face set
        rng = np.random.RandomState(7)
        for trial in range(10):
            xy = strip_with_a_segment(rng)
            faces, nbr = delaunay._qhull_delaunay(xy)
            want = sorted(sorted(f) for f in faces.tolist())
            pts = xy.tolist()
            for _ in range(40):
                f, k = int(rng.randint(len(faces))), int(rng.randint(3))
                a, b, c, g, d = delaunay._quad(faces, nbr, f, k)
                if g >= 0 and delaunay._orient(pts, a, b, d) > 0 < delaunay._orient(pts, a, d, c):
                    delaunay._flip(faces, nbr, f, k)
            edge_faces, quads = delaunay.interior_edges(faces, nbr)
            bad = delaunay.illegal_edges(xy[:, 0], xy[:, 1], quads)
            assert bad.sum() > 10
            assert delaunay.lawson_flip(faces, nbr, xy, edge_faces[bad], quads[:, bad])
            assert sorted(sorted(f) for f in faces.tolist()) == want
            assert not delaunay.illegal_edges(
                xy[:, 0], xy[:, 1], delaunay.interior_edges(faces, nbr)[1]).any()

    def test_crossing_constraint_segments_rejected(self):
        xy = strip_with_a_segment(np.random.RandomState(5))
        faces, nbr = delaunay._qhull_delaunay(xy)
        u, v = delaunay._crossed_edges(faces, nbr, xy.tolist(), 3, 4)[2]
        with pytest.raises(TriangulationError, match="intersect"):
            delaunay._recover_segment(faces, nbr, xy.tolist(), 3, 4, {(min(u, v), max(u, v))})

    @pytest.mark.parametrize("fault", ["point left out", "face not CCW"])
    def test_qhull_output_is_checked(self, monkeypatch, fault):
        # Qhull is foreign code: a result that leaves a point out or holds a
        # face the exact orientation test does not certify is refused
        rng = np.random.RandomState(6)
        real = delaunay.Delaunay

        def doctored(points):
            tri = real(points)
            faces = tri.simplices.copy()
            if fault == "point left out":
                faces[faces == faces.max()] = 0
            else:
                faces[5] = faces[5, [0, 2, 1]]
            return type("Tri", (), {"simplices": faces, "neighbors": tri.neighbors})

        monkeypatch.setattr(delaunay, "Delaunay", doctored)
        domain = square_packing_domain(10.0)
        bubbles = [Bubble(float(x), float(y), 0.3, MOBILE)
                   for x, y in rng.uniform(0.5, 9.5, size=(30, 2))]
        with pytest.raises(TriangulationError, match="left out point|not CCW"):
            delaunay_triangulate(bubbles, domain)

    def test_flip_budget_ends_a_repair_that_would_not_end(self, monkeypatch):
        # predicates that always ask for one more flip: only the budget (one
        # flip per face) stops the Lawson loop, and the repair of Qhull's
        # triangulation is refused
        xy = strip_with_a_segment(np.random.RandomState(5))
        calls, flips, repairs = [], [], []
        real, real_flip = delaunay.lawson_flip, delaunay._flip

        def always_flip(*args):
            calls.append(args)
            assert len(calls) < 100_000  # fail rather than spin
            return 1

        def counted_flip(faces, nbr, f, k):
            flips.append((f, k))
            return real_flip(faces, nbr, f, k)

        def recorded(faces, *args):
            before = faces.copy()
            result = real(faces, *args)
            repairs.append((before, faces.copy(), result))
            return result

        monkeypatch.setattr(delaunay, "incircle", always_flip)
        monkeypatch.setattr(delaunay, "orient2d", always_flip)
        monkeypatch.setattr(delaunay, "incircle_array",
                            lambda *columns: np.ones(len(columns[0]), dtype=np.int8))
        monkeypatch.setattr(delaunay, "lawson_flip", recorded)
        monkeypatch.setattr(delaunay, "_flip", counted_flip)
        with pytest.raises(TriangulationError, match="Delaunay repair did not converge"):
            delaunay._qhull_delaunay(xy)
        # it gives up when flip number faces + 1 comes due, after making
        # the first `faces` flips in place
        [(before, after, finished)] = repairs
        assert finished is False and len(flips) == len(before)
        assert not np.array_equal(after, before)

    def test_collinear_rejected(self):
        bubbles = [Bubble(float(x), 0.0, 0.3, MOBILE) for x in range(5)]
        with pytest.raises(TriangulationError, match="collinear"):
            delaunay_triangulate(bubbles, square_packing_domain())

    def test_all_faces_ccw(self, rng):
        domain = square_packing_domain(10.0)
        bubbles = [Bubble(x, y, 0.3, BOUNDARY)
                   for x, y in [(0, 0), (10, 0), (10, 10), (0, 10)]]
        pts = rng.uniform(0.5, 9.5, size=(60, 2))
        bubbles += [Bubble(float(x), float(y), 0.3, MOBILE) for x, y in pts]
        mesh = delaunay_triangulate(bubbles, domain)
        assert np.all(mesh.signed_areas() > 0.0)
        # each face from its smallest vertex, the faces in sorted order
        assert np.array_equal(mesh.faces[:, 0], mesh.faces.min(axis=1))
        assert mesh.faces.tolist() == sorted(mesh.faces.tolist())


@pytest.fixture(scope="module")
def flat():
    m = grid_mesh_on_surface(plane(0.0, 2.0, 0.0, 1.0), 9, 5)
    return PlanarMesh(m.uv, m.faces)


def locate_one(flat, point, grid=None):
    """`locate_points` of one point: its face and its coordinates as a
    tuple of floats, None when the point is unlocatable."""
    faces, coords = locate_points(flat, point, grid)
    return None if faces[0] < 0 else (int(faces[0]), tuple(coords[0].tolist()))


class TestLocate:

    def test_vertex_location(self, flat):
        _, coords = locate_one(flat, flat.vertices[7])
        lam = sorted(coords)
        assert lam[-1] == pytest.approx(1.0, abs=1e-12)
        assert lam[0] == pytest.approx(0.0, abs=1e-12)

    def test_centroid(self, flat):
        f = 11
        cent = flat.vertices[flat.faces[f]].mean(axis=0)
        face, coords = locate_one(flat, cent)
        assert face == f
        assert coords == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)

    def test_reconstruction_identity(self, flat, rng):
        grid = FaceGrid(flat)
        for _ in range(1000):
            p = np.array([rng.uniform(0.001, 1.999), rng.uniform(0.001, 0.999)])
            face, coords = locate_one(flat, p, grid)
            tri = flat.vertices[flat.faces[face]]
            rebuilt = np.asarray(coords) @ tri
            assert np.linalg.norm(rebuilt - p) < 1e-12
            assert sum(coords) == pytest.approx(1.0, abs=1e-12)

    def test_edge_tie_break_lowest_face(self, flat):
        # midpoint of a shared edge must resolve to the lowest face index
        shared = None
        edge_faces = {}
        for fi, f in enumerate(flat.faces):
            for k in range(3):
                e = tuple(sorted((f[k], f[(k + 1) % 3])))
                edge_faces.setdefault(e, []).append(fi)
        for e, fs in edge_faces.items():
            if len(fs) == 2:
                shared = (e, sorted(fs))
                break
        mid = flat.vertices[list(shared[0])].mean(axis=0)
        face, _ = locate_one(flat, mid)
        assert face == shared[1][0]

    def test_outside_is_unlocatable(self, flat):
        assert locate_one(flat, np.array([50.0, 50.0])) is None
        assert locate_one(flat, np.array([2.1, 0.5])) is None

    def test_snap_tolerance(self, flat):
        # a point a hair outside the boundary snaps onto the nearest face
        _, coords = locate_one(flat, np.array([1.0, -1e-12]))
        assert min(coords) >= 0.0


def _barycentric(a, b, c, p):
    """Barycentric coordinates of p in triangle abc, one point at a time
    (None for a degenerate triangle): the scalar reference for
    mapping._barycentric_rows."""
    v0 = b - a
    v1 = c - a
    v2 = p - a
    d00 = v0 @ v0
    d01 = v0 @ v1
    d11 = v1 @ v1
    d20 = v2 @ v0
    d21 = v2 @ v1
    denom = d00 * d11 - d01 * d01
    if abs(denom) < 1e-300:
        return None
    lb = (d11 * d20 - d01 * d21) / denom
    lc = (d00 * d21 - d01 * d20) / denom
    return 1.0 - lb - lc, lb, lc


def _clamp_simplex(lam):
    clamped = np.maximum(np.asarray(lam, dtype=float), 0.0)
    total = clamped.sum()
    if total <= 0.0:
        return (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    clamped /= total
    return (float(clamped[0]), float(clamped[1]), float(clamped[2]))


def _scan(flat, point, faces):
    """(face, coords) of the point over the given faces in order, None when
    it is unlocatable: the first face holding it, else the face it is least
    outside of if clamping onto it stays within the snap tolerance."""
    p = np.array([float(point[0]), float(point[1])])
    best = None
    for f in faces:
        a, b, c = flat.vertices[flat.faces[f]]
        lam = _barycentric(a, b, c, p)
        if lam is None:
            continue
        if min(lam) >= _BARY_SLACK:
            return f, _clamp_simplex(lam)
        if best is None or min(lam) > best[0]:
            best = (min(lam), f, lam)
    if best is None:
        return None
    _, f, lam = best
    clamped = _clamp_simplex(lam)
    a, b, c = flat.vertices[flat.faces[f]]
    q = clamped[0] * a + clamped[1] * b + clamped[2] * c
    if np.linalg.norm(q - p) <= SNAP_TOL_FACTOR * flat.bbox_diagonal():
        return f, clamped
    return None


def locate_by_scan(flat, point):
    """The scalar location over every face in index order: the reference
    for the k-d tree's candidate faces."""
    return _scan(flat, point, range(len(flat.faces)))


def locate_scalar(flat, point, grid):
    """The scalar location over the point's candidate faces, one point and
    one face at a time: the reference for the vectorized locate_points."""
    return _scan(flat, point, grid.candidates([point])[0])


def graded_flat_mesh(rng):
    """Delaunay mesh of the unit square, its points crowded towards the
    origin so that face sizes vary over two orders of magnitude."""
    pts = np.concatenate([rng.uniform(0.0, 1.0, size=(50, 2)) ** 3,
                          [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]])
    faces = Delaunay(pts).simplices.copy()
    flip = PlanarMesh(pts, faces).signed_areas() < 0.0
    faces[flip] = faces[flip][:, ::-1]
    return PlanarMesh(pts, faces)


def locate_probes(flat, rng):
    """Vertices, points on every edge, points within and beyond the snap
    tolerance outside boundary edges and their end vertices, random points
    in and around the mesh."""
    v, faces = flat.vertices, flat.faces
    a = v[np.concatenate([faces[:, 0], faces[:, 1], faces[:, 2]])]
    b = v[np.concatenate([faces[:, 1], faces[:, 2], faces[:, 0]])]
    on_edges = np.concatenate([0.5 * (a + b), a + 0.25 * (b - a)])
    # outward normals of boundary edges (directed edges without a twin)
    directed = {tuple(e) for e in np.column_stack([faces.ravel(), np.roll(faces, -1, axis=1).ravel()]).tolist()}
    boundary = np.array([e for e in directed if e[::-1] not in directed])
    ea, eb = v[boundary[:, 0]], v[boundary[:, 1]]
    d = eb - ea
    normal = np.column_stack([d[:, 1], -d[:, 0]]) / np.hypot(d[:, 0], d[:, 1])[:, None]
    snap = SNAP_TOL_FACTOR * flat.bbox_diagonal()
    mid = 0.5 * (ea + eb)
    near_out = np.concatenate([mid + 0.3 * snap * normal, ea + 0.3 * snap * normal,
                               mid + 5.0 * snap * normal])
    lo, hi = v.min(axis=0), v.max(axis=0)
    scattered = lo + (hi - lo) * rng.uniform(-0.2, 1.2, size=(150, 2))
    return np.concatenate([v, on_edges, near_out, scattered])


class TestLocateOracle:
    @pytest.mark.parametrize("mesh", ["grid", "graded"])
    def test_matches_scan_over_all_faces(self, flat, rng, mesh):
        mesh = flat if mesh == "grid" else graded_flat_mesh(rng)
        grid = FaceGrid(mesh)
        probes = locate_probes(mesh, rng)
        located = 0
        for p in probes:
            want = locate_by_scan(mesh, p)
            assert locate_one(mesh, p, grid) == want
            located += want is not None
        assert len(mesh.vertices) < located < len(probes)


class TestLocatePoints:
    @pytest.mark.parametrize("mesh", ["grid", "graded"])
    def test_matches_scalar_location_bit_for_bit(self, flat, rng, mesh):
        mesh = flat if mesh == "grid" else graded_flat_mesh(rng)
        grid = FaceGrid(mesh)
        probes = locate_probes(mesh, rng)
        faces, coords = locate_points(mesh, probes, grid)
        for k, p in enumerate(probes):
            want = locate_scalar(mesh, p, grid)
            if want is None:
                assert faces[k] == -1
            else:
                assert (int(faces[k]), tuple(coords[k].tolist())) == want
        assert 0 < np.count_nonzero(faces < 0) < len(probes)

    def test_no_candidates_and_empty_queries(self, flat):
        faces, coords = locate_points(flat, np.array([[50.0, 50.0], [0.5, 0.5]]))
        assert faces[0] == -1 and faces[1] >= 0
        faces, coords = locate_points(flat, np.zeros((0, 2)))
        assert faces.shape == (0,) and coords.shape == (0, 3)

    def test_degenerate_candidate_is_skipped(self):
        # a zero-area face (index 0) overlaps a proper one: the scalar path
        # skips it, and so must the array pass
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        mesh = PlanarMesh(verts, np.array([[0, 1, 2], [0, 1, 3]]))
        probes = np.array([[0.5, 0.0], [0.2, 0.2], [1.5, 0.0], [0.4, 0.7]])
        grid = FaceGrid(mesh)
        faces, coords = locate_points(mesh, probes, grid)
        for k, p in enumerate(probes):
            want = locate_scalar(mesh, p, grid)
            got = None if faces[k] < 0 else (int(faces[k]), tuple(coords[k].tolist()))
            assert got == want


class TestInverseMap:
    def test_lift_matches_one_vertex_at_a_time(self, rng):
        surf = sphere_patch(radius=1.0, u0=0.0, u1=1.0, v0=0.8, v1=1.8)
        initial = grid_mesh_on_surface(surf, 9, 9)
        flat = PlanarMesh(initial.uv, initial.faces)
        pts = np.column_stack([rng.uniform(0.0, 1.0, 200), rng.uniform(0.8, 1.8, 200)])
        new_flat = PlanarMesh(pts, np.array([[0, 1, 2]]))
        out = inverse_map(new_flat, flat, initial)
        grid = FaceGrid(flat)
        for k, p in enumerate(pts):
            f, lam = locate_scalar(flat, p, grid)
            tri = initial.faces[f]
            assert np.array_equal(out.vertices[k], np.asarray(lam) @ initial.vertices[tri])
            assert np.array_equal(out.uv[k], np.asarray(lam) @ initial.uv[tri])

    def test_identity_remesh(self):
        surf = sphere_patch(radius=1.0, u0=0.0, u1=1.0, v0=0.8, v1=1.8)
        initial = grid_mesh_on_surface(surf, 9, 9)
        flat = PlanarMesh(initial.uv, initial.faces)
        out = inverse_map(flat, flat, initial)
        assert np.allclose(out.vertices, initial.vertices, atol=1e-12)
        assert np.array_equal(out.faces, initial.faces)

    def test_planar_surface_z_zero(self):
        surf = plane(0.0, 2.0, 0.0, 1.0)
        initial = grid_mesh_on_surface(surf, 9, 5)
        flat = PlanarMesh(initial.uv, initial.faces)
        new_flat = PlanarMesh(np.array([[0.3, 0.3], [1.5, 0.2], [1.0, 0.8]]),
                              np.array([[0, 1, 2]]))
        out = inverse_map(new_flat, flat, initial)
        assert np.allclose(out.vertices[:, 2], 0.0, atol=1e-14)
        assert np.allclose(out.vertices[:, :2], new_flat.vertices, atol=1e-12)

    def test_lifted_points_on_initial_faces(self, rng):
        surf = sphere_patch(radius=1.0, u0=0.0, u1=1.0, v0=0.8, v1=1.8)
        initial = grid_mesh_on_surface(surf, 9, 9)
        flat = PlanarMesh(initial.uv, initial.faces)
        pts = np.column_stack([rng.uniform(0.05, 0.95, 30), rng.uniform(0.85, 1.75, 30)])
        new_flat = PlanarMesh(pts[:3], np.array([[0, 1, 2]]))
        out = inverse_map(new_flat, flat, initial)
        # residual to the containing face plane is ~0: each lifted point is an
        # affine combination of one initial face's vertices
        grid = FaceGrid(flat)
        for k in range(3):
            face, _ = locate_one(flat, pts[k], grid)
            tri = initial.vertices[initial.faces[face]]
            n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
            n /= np.linalg.norm(n)
            assert abs(np.dot(out.vertices[k] - tri[0], n)) < 1e-12

    def test_connectivity_mismatch_rejected(self):
        surf = plane(0.0, 1.0, 0.0, 1.0)
        initial = grid_mesh_on_surface(surf, 4, 4)
        flat = PlanarMesh(initial.uv, initial.faces[::-1].copy())
        with pytest.raises(Exception, match="connectivity"):
            inverse_map(flat, flat, initial)

    def test_unlocatable_vertices_listed(self):
        surf = plane(0.0, 1.0, 0.0, 1.0)
        initial = grid_mesh_on_surface(surf, 4, 4)
        flat = PlanarMesh(initial.uv, initial.faces)
        new_flat = PlanarMesh(np.array([[5.0, 5.0], [6.0, 5.0], [5.0, 6.0]]),
                              np.array([[0, 1, 2]]))
        with pytest.raises(MappingError, match="unlocatable"):
            inverse_map(new_flat, flat, initial)
