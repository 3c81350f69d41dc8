import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from bubblemesh.mesh import TriangleMesh
from bubblemesh.packing import MOBILE
from bubblemesh.relaxation import _KIND_CODE, _QUERY_PAD


def closest_point_on_segment(px, py, ax, ay, bx, by):
    """Closest point q = a + t (b - a) to (px,py) on segment ab, its squared
    distance and t, one point at a time: the scalar reference for
    geometry.nearest_segments."""
    vx = bx - ax
    vy = by - ay
    denom = vx * vx + vy * vy
    if denom <= 0.0:
        t = 0.0
    else:
        t = ((px - ax) * vx + (py - ay) * vy) / denom
        t = min(1.0, max(0.0, t))
    qx = ax + t * vx
    qy = ay + t * vy
    dx = px - qx
    dy = py - qy
    return qx, qy, dx * dx + dy * dy, t


def point_in_polygon(x: float, y: float, pts: np.ndarray) -> bool:
    """Even-odd test of one point against a closed polyline: the scalar
    reference for geometry.points_in_polygon. Boundary points are unreliable."""
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
