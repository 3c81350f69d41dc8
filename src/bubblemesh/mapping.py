"""Point location in a flat mesh and barycentric inverse mapping to the surface.

Every vertex of a re-meshed planar mesh is located in the initial flat mesh,
expressed in barycentric coordinates, and lifted with the same weights
applied to the corresponding 3D face of the initial discrete surface. The
faces that can hold a point come from one k-d tree ball query over the
face centroids (`FaceGrid`); `locate_points` takes the barycentric
coordinates of every query in all its candidate faces in one array pass,
with the dot products as batched matmuls so that each row gets the float
of the one-point arithmetic.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .geometry import _rowdot
from .mesh import MeshError, PlanarMesh, TriangleMesh

SNAP_TOL_FACTOR = 1e-9
_BARY_SLACK = -1e-10


class MappingError(Exception):
    pass


class FaceGrid:
    """k-d tree over face centroids. A face holds only points within its
    largest centroid-to-corner distance of its centroid, so one ball query
    at the largest such distance over all faces returns every face that can
    hold the point. The reach is padded by twice the snap tolerance, which
    also covers the barycentric slack (a few 1e-10 of the face size)."""

    def __init__(self, mesh: PlanarMesh):
        tri = mesh.vertices[mesh.faces]
        centroids = tri.mean(axis=1)
        self.tree = cKDTree(centroids)
        corner = np.sqrt(((tri - centroids[:, None]) ** 2).sum(axis=2))
        self.reach = corner.max(initial=0.0) + 2.0 * SNAP_TOL_FACTOR * mesh.bbox_diagonal()

    def candidates(self, points) -> list[list[int]]:
        """Per (n,2) query point, the ascending indices of the faces whose
        centroid lies within reach."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        return list(self.tree.query_ball_point(points, self.reach, return_sorted=True))


def _barycentric_rows(a, b, c, p):
    """(m,3) barycentric coordinates of the points p (m,2) in the triangles
    abc, and the mask of rows whose triangle is not degenerate."""
    v0 = b - a
    v1 = c - a
    v2 = p - a
    d00 = _rowdot(v0, v0)
    d01 = _rowdot(v0, v1)
    d11 = _rowdot(v1, v1)
    d20 = _rowdot(v2, v0)
    d21 = _rowdot(v2, v1)
    denom = d00 * d11 - d01 * d01
    valid = ~(np.abs(denom) < 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        lb = (d11 * d20 - d01 * d21) / denom
        lc = (d00 * d21 - d01 * d20) / denom
    return np.column_stack([1.0 - lb - lc, lb, lc]), valid


def _clamp_simplex_rows(lam: np.ndarray) -> np.ndarray:
    """Negative coordinates set to 0, rows rescaled to sum 1 (1/3 each where
    nothing positive is left)."""
    clamped = np.maximum(lam, 0.0)
    total = clamped.sum(axis=1)
    empty = total <= 0.0
    clamped[empty] = 1.0 / 3.0
    clamped[~empty] /= total[~empty, None]
    return clamped


def locate_points(flat: PlanarMesh, points, grid: FaceGrid | None = None):
    """Containing face and barycentric coordinates of each (n,2) query point,
    in one pass over every query's candidate faces: (n,) face indices, -1
    where the point is unlocatable, and (n,3) coordinates.

    A point on shared edges resolves to the lowest-index face holding it;
    a point held by no face is clamped onto the candidate face it is least
    outside of (the first of equals) if that moves it by at most the snap
    tolerance, and is unlocatable otherwise."""
    if grid is None:
        grid = FaceGrid(flat)
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(points)
    cand = grid.candidates(points)
    query = np.repeat(np.arange(n), [len(c) for c in cand])
    face = np.fromiter((f for c in cand for f in c), dtype=np.int64, count=len(query))
    corners = flat.vertices[flat.faces[face]]
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    p = points[query]
    lam, valid = _barycentric_rows(a, b, c, p)
    low = lam.min(axis=1)
    holds = low >= _BARY_SLACK

    # per query, the first pair (in ascending face order) that holds the
    # point, else the first of the pairs whose point is least outside
    rows = np.flatnonzero(valid)
    rows = rows[np.lexsort((rows, np.where(holds[rows], 0.0, -low[rows]),
                            ~holds[rows], query[rows]))]
    located, first = np.unique(query[rows], return_index=True)
    k = rows[first]
    clamped = _clamp_simplex_rows(lam[k])
    q = clamped[:, :1] * a[k] + clamped[:, 1:2] * b[k] + clamped[:, 2:] * c[k]
    keep = holds[k] | (np.sqrt(_rowdot(q - p[k], q - p[k]))
                       <= SNAP_TOL_FACTOR * flat.bbox_diagonal())
    faces = np.full(n, -1)
    coords = np.zeros((n, 3))
    faces[located[keep]] = face[k[keep]]
    coords[located[keep]] = clamped[keep]
    return faces, coords


def inverse_map(new_flat: PlanarMesh, initial_flat: PlanarMesh,
                initial_surface: TriangleMesh) -> TriangleMesh:
    """Lift a re-meshed planar mesh back onto the initial discrete surface.

    Each new vertex keeps the barycentric coordinates of its location in the
    initial flat mesh; the same weights applied to the corresponding surface
    face give its 3D position (and interpolated parametric coordinates when
    the surface mesh stores them).
    """
    if initial_flat.faces.shape != initial_surface.faces.shape or \
            np.any(initial_flat.faces != initial_surface.faces):
        raise MeshError("initial flat and surface meshes must share connectivity")
    faces, coords = locate_points(initial_flat, new_flat.vertices, FaceGrid(initial_flat))
    failures = np.flatnonzero(faces < 0).tolist()
    if failures:
        raise MappingError(f"unlocatable vertices: {failures[:20]}"
                           + ("..." if len(failures) > 20 else ""))
    tri = initial_surface.faces[faces]
    weights = coords[:, None, :]
    lifted = (weights @ initial_surface.vertices[tri])[:, 0]
    uv = None if initial_surface.uv is None else (weights @ initial_surface.uv[tri])[:, 0]
    return TriangleMesh(lifted, new_flat.faces.copy(), uv=uv)
