import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from bubblemesh import packing, relaxation, sizing
from bubblemesh.mesh import MeshError, TriangleMesh, ValidationResult
from bubblemesh.packing import MOBILE, PackingDomain
from bubblemesh.relaxation import _KIND_CODE, _QUERY_PAD


def closest_point_on_segment(px, py, ax, ay, bx, by):
    """Closest point q = a + t (b - a) to (px,py) on segment ab, its squared
    distance and t, one point at a time: the scalar reference for
    geometry.nearest_segments. The segment has non-zero length."""
    vx = bx - ax
    vy = by - ay
    t = ((px - ax) * vx + (py - ay) * vy) / (vx * vx + vy * vy)
    t = min(1.0, max(0.0, t))
    qx = ax + t * vx
    qy = ay + t * vy
    dx = px - qx
    dy = py - qy
    return qx, qy, dx * dx + dy * dy, t


def loop_segments(domain) -> list[list[float]]:
    """The segments (ax, ay, bx, by) from each corner of every loop of the
    domain to the next, outer loop first: the rows of `domain.segments`."""
    return [[*a, *b] for loop in domain.loops()
            for a, b in zip(loop.tolist(), np.roll(loop, -1, axis=0).tolist())]


def point_in_polygon(x: float, y: float, pts: np.ndarray) -> bool:
    """Even-odd test of one point against a closed polyline: the scalar
    reference for geometry.odd_crossings. Boundary points are unreliable."""
    inside = False
    n = len(pts)
    x0, y0 = pts[-1]
    for i in range(n):
        x1, y1 = pts[i]
        if (y1 > y) != (y0 > y):
            t = (y - y0) / (y1 - y0)
            if x < x0 + t * (x1 - x0):
                inside = not inside
        x0, y0 = x1, y1
    return inside


def conformal_factors(mesh, flat):
    """Per-edge ratio of flat length to surface length over the mesh's
    undirected edges, which `flat` shares: (edges, factors), edges sorted
    lexicographically, i < j."""
    edges = mesh.undirected_edges()
    surf_len = np.linalg.norm(mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1)
    flat_len = np.linalg.norm(flat.vertices[edges[:, 0]] - flat.vertices[edges[:, 1]], axis=1)
    return edges, flat_len / surf_len


def grid_mesh_on_surface(surface, nu, nv):
    """Structured triangulated grid over a surface's parametric rectangle."""
    u0, u1, v0, v1 = surface.domain
    us = np.linspace(u0, u1, nu)
    vs = np.linspace(v0, v1, nv)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    uv = np.column_stack([uu.ravel(), vv.ravel()])
    verts = surface.position(uv[:, 0], uv[:, 1])
    faces = []
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j
            b = (i + 1) * nv + j
            c = (i + 1) * nv + j + 1
            d = i * nv + j + 1
            faces.append([a, b, c])
            faces.append([a, c, d])
    return TriangleMesh(verts, np.array(faces), uv=uv)


def cap_mesh(radius=1.0, theta_max=0.9, rings=6):
    """Spherical cap triangulated by concentric rings with a pole fan."""
    verts = [[0.0, 0.0, radius]]
    ring_start = [0]
    for k in range(1, rings + 1):
        theta = theta_max * k / rings
        n = 6 * k
        ring_start.append(len(verts))
        for s in range(n):
            phi = 2 * np.pi * s / n
            verts.append([radius * np.sin(theta) * np.cos(phi),
                          radius * np.sin(theta) * np.sin(phi),
                          radius * np.cos(theta)])
    faces = []
    for s in range(6):
        faces.append([0, 1 + s, 1 + (s + 1) % 6])
    for k in range(1, rings):
        n_in, n_out = 6 * k, 6 * (k + 1)
        si, so = ring_start[k], ring_start[k + 1]
        i = j = 0
        while i < n_in or j < n_out:
            ai = (i + 0.5) / n_in
            aj = (j + 0.5) / n_out
            if j < n_out and (i >= n_in or aj <= ai):
                faces.append([so + j % n_out, so + (j + 1) % n_out, si + i % n_in])
                j += 1
            else:
                faces.append([si + i % n_in, so + j % n_out, si + (i + 1) % n_in])
                i += 1
    return TriangleMesh(np.array(verts), np.array(faces))


def annulus_mesh(r_in=1.0, r_out=2.0, n=12):
    """Triangulated annulus: two boundary loops, Euler characteristic 0."""
    angles = 2 * np.pi * np.arange(n) / n
    inner = np.column_stack([r_in * np.cos(angles), r_in * np.sin(angles), np.zeros(n)])
    outer = np.column_stack([r_out * np.cos(angles), r_out * np.sin(angles), np.zeros(n)])
    verts = np.vstack([inner, outer])
    faces = []
    for k in range(n):
        a, b = k, (k + 1) % n
        oa, ob = n + k, n + (k + 1) % n
        faces.append([a, ob, oa])
        faces.append([a, b, ob])
    return TriangleMesh(verts, np.array(faces))


def tetrahedron_mesh():
    """Closed surface: chi = 2, no boundary."""
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    faces = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    return TriangleMesh(verts, faces)


def single_triangle_mesh():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    faces = np.array([[0, 1, 2]])
    return TriangleMesh(verts, faces)


def bench_module(name):
    """A module of perfbench/, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


# Scalar topology oracles: the set, dict and per-vertex loops of the mesh
# topology queries that bubblemesh.mesh derives from its edge table.

def loop_directed_edge_set(mesh):
    out = set()
    for a, b, c in mesh.faces.tolist():
        out.update([(a, b), (b, c), (c, a)])
    return out


def loop_edge_counts(mesh):
    """Faces per undirected edge (i, j), i < j."""
    counts = {}
    for a, b, c in mesh.faces.tolist():
        for i, j in ((a, b), (b, c), (c, a)):
            key = (min(i, j), max(i, j))
            counts[key] = counts.get(key, 0) + 1
    return counts


def loop_boundary_loops(mesh):
    """The boundary loops traced over a successor dict, longest first, each
    starting at its smallest vertex. The lowest boundary vertex without
    exactly one boundary out-edge and one in-edge is named."""
    directed = loop_directed_edge_set(mesh)
    boundary = [(a, b) for a, b in directed if (b, a) not in directed]
    out, into = {}, {}
    for a, b in boundary:
        out[a] = out.get(a, 0) + 1
        into[b] = into.get(b, 0) + 1
    bad = [v for v in set(out) | set(into) if out.get(v) != 1 or into.get(v) != 1]
    if bad:
        raise MeshError(f"non-manifold boundary at vertex {min(bad)}")
    succ = dict(boundary)
    loops = []
    remaining = set(succ)
    while remaining:
        start = min(remaining)
        loop = [start]
        remaining.discard(start)
        cur = succ[start]
        while cur != start:
            loop.append(cur)
            remaining.discard(cur)
            cur = succ[cur]
        loops.append(loop)
    loops.sort(key=lambda lp: (-len(lp), lp[0]))
    return loops


def loop_vertex_neighbors(mesh):
    nbrs = [set() for _ in range(mesh.n_vertices)]
    for i, j in loop_edge_counts(mesh):
        nbrs[i].add(j)
        nbrs[j].add(i)
    return [sorted(s) for s in nbrs]


def loop_validate_disk_topology(mesh):
    """validate_disk_topology's verdict from the set, the dict of counts and
    the traced loops; the lowest non-manifold edge is named."""
    if mesh.n_faces == 0:
        return ValidationResult(False, "mesh has no faces")
    counts = loop_edge_counts(mesh)
    over = sorted(k for k, c in counts.items() if c > 2)
    if over:
        return ValidationResult(False, f"non-manifold edge {over[0]} (more than two incident faces)")
    if len(loop_directed_edge_set(mesh)) != 3 * mesh.n_faces:
        return ValidationResult(False, "duplicate directed edge (inconsistent orientation or repeated face)")
    try:
        loops = loop_boundary_loops(mesh)
    except MeshError as exc:
        return ValidationResult(False, str(exc))
    chi = mesh.n_vertices - len(counts) + mesh.n_faces
    if len(loops) != 1:
        return ValidationResult(
            False, f"found {len(loops)} boundary loops, expected exactly 1 "
                   f"(Euler characteristic {chi})")
    if chi != 1:
        return ValidationResult(False, f"Euler characteristic is {chi}, expected 1 (disk)")
    return ValidationResult(True)


def duplicated_face_mesh():
    mesh = single_triangle_mesh()
    return TriangleMesh(mesh.vertices, np.array([[0, 1, 2], [0, 1, 2]]))


def pinched_mesh():
    """Three triangles in a chain, pinched at vertices 1 and 2: each has two
    boundary out-edges."""
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                      [3.0, 1.0, 0.0], [3.0, -1.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, -1.0, 0.0]])
    return TriangleMesh(verts, np.array([[2, 3, 4], [1, 5, 6], [2, 1, 0]]))


def fin_mesh():
    """Edges {0, 1} and {2, 3} each carry three faces."""
    verts = np.arange(30.0).reshape(10, 3) ** 1.5
    return TriangleMesh(verts, np.array([[2, 3, 4], [3, 2, 5], [2, 3, 6],
                                         [0, 1, 7], [1, 0, 8], [0, 1, 9]]))


@pytest.fixture
def thin_counts(monkeypatch):
    """(candidates in, candidates kept) of each `packing._self_thin` call
    made while the test runs."""
    counts = []
    thin = packing._self_thin

    def spy(pts, radii):
        kept = thin(pts, radii)
        counts.append((len(pts), len(kept[0])))
        return kept

    monkeypatch.setattr(packing, "_self_thin", spy)
    return counts


@pytest.fixture(scope="session")
def sphere_workload_mesh(tmp_path_factory):
    """The initial surface mesh of the `sphere` benchmark workload, seed 0."""
    from bubblemesh.pipeline import initial_surface_mesh

    _, cfg = bench_module("workloads").load("sphere", 0, tmp_path_factory.mktemp("sphere"))
    return initial_surface_mesh(cfg)[2]


# Pointwise views of the steps of `sizing.radius_bound`, over the private
# forms it composes.

def fundamental_forms(surface, u, v):
    """First (E,F,G) and second (L,M,N) fundamental form coefficients."""
    return sizing._fundamental_forms(surface, u, v, surface.du(u, v), surface.dv(u, v))


def allowable_edge_3d(surface, u, v, params):
    """Maximum allowable 3D edge length g(eps)/kappa_max; +inf on flat points."""
    return sizing._allowable_edge_3d(fundamental_forms(surface, u, v), params)


def jacobian(surface, u, v) -> np.ndarray:
    """(..., 3, 2) Jacobian of the surface map, as `radius_bound` stacks it."""
    return np.stack([surface.du(u, v), surface.dv(u, v)], axis=-1)


def sigma1(surface, u, v):
    """Largest singular value of the 3x2 Jacobian of the surface map."""
    return sizing._sigma1(jacobian(surface, u, v), u, v)


def scalar_pair_force(b_i, b_j, f0, i=0, j=1, seed=0):
    """Force exerted on bubble b_i by b_j along the centre line
    (`_coincident_push` when the centres coincide), one pair at a time in
    Python floats; i and j are their indices. The scalar reference for the
    pair terms of `SweepPairs.forces`."""
    dx = b_i.x - b_j.x
    dy = b_i.y - b_j.y
    l = math.hypot(dx, dy)
    if l < relaxation._COINCIDENT:
        return np.array(relaxation._coincident_push(i, j, seed, f0))
    mag = relaxation.force_magnitude(l, b_i.radius + b_j.radius, f0)
    return np.array([mag * dx / l, mag * dy / l])


def far_box(bubbles) -> PackingDomain:
    """A square domain 10 r_max beyond the bubbles on every side, whose
    sizing is inf: for the relaxation tests whose bubbles neither the wall
    clamp nor the radius bound may reach."""
    xy = np.array([(b.x, b.y) for b in bubbles])
    pad = 10.0 * max(b.radius for b in bubbles)
    lo = xy.min(axis=0) - pad
    side = float((xy.max(axis=0) + pad - lo).max())
    return PackingDomain(outer=lo + side * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                                     [0.0, 1.0]]),
                         sizing=lambda x, y: np.full(np.broadcast(x, y).shape, np.inf))


# Scalar quantity-control helpers: the oracles of the pair-array passes in
# bubblemesh.relaxation.

def scalar_ball_query(state):
    ids = state.alive_indices()
    tree = cKDTree(state.positions(ids))

    def near(x, y, radius):
        hits = tree.query_ball_point((x, y), radius * _QUERY_PAD, return_sorted=True)
        return [j for j in ids[hits].tolist() if state.alive[j]]

    return near


def scalar_qc_boundary_region(state, threshold):
    """Per anchor, in index order, its mobile neighbours over the threshold,
    most-overlapping first."""
    anchor_ids = np.flatnonzero(state.kind != _KIND_CODE[MOBILE]).tolist()
    near = scalar_ball_query(state)
    max_r = state.max_radius()
    removed = 0
    for a in anchor_ids:
        if not state.alive[a]:
            continue
        ra = state.r[a]
        xa, ya = state.x[a], state.y[a]
        hits = []
        for j in near(xa, ya, ra + max_r + max(-threshold, 0.0) * ra):
            if state.kind[j] != _KIND_CODE[MOBILE]:
                continue
            l = math.hypot(state.x[j] - xa, state.y[j] - ya)
            ov = (ra + state.r[j] - l) / min(ra, state.r[j])
            if ov > threshold:
                hits.append((-ov, j))
        for _, j in sorted(hits):
            state.alive[j] = False
            removed += 1
    return removed


@pytest.fixture(scope="session")
def rng():
    return np.random.RandomState(20240811)
