"""Point location in a flat mesh and barycentric inverse mapping to the surface.

Every vertex of a re-meshed planar mesh is located in the initial flat mesh,
expressed in barycentric coordinates, and lifted with the same weights
applied to the corresponding 3D face of the initial discrete surface. The
faces that can hold a point come from one k-d tree ball query over the
face centroids (`FaceGrid`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .mesh import MeshError, PlanarMesh, TriangleMesh

SNAP_TOL_FACTOR = 1e-9
_BARY_SLACK = -1e-10


class MappingError(Exception):
    pass


@dataclass
class BarycentricLocation:
    face: int
    coords: tuple[float, float, float]


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

    def candidates(self, x: float, y: float) -> list[int]:
        """Ascending indices of the faces whose centroid lies within reach."""
        return self.tree.query_ball_point((x, y), self.reach, return_sorted=True)


def _barycentric(a, b, c, p):
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


def locate(flat: PlanarMesh, point, grid: FaceGrid | None = None) -> BarycentricLocation:
    """Containing face and barycentric coordinates of a query point.

    Points on shared edges resolve to the lowest-index face; points within
    the snap tolerance outside the mesh are clamped onto the nearest
    candidate face. Anything farther out is an error.
    """
    if grid is None:
        grid = FaceGrid(flat)
    px, py = float(point[0]), float(point[1])
    p = np.array([px, py])
    v = flat.vertices
    faces = flat.faces

    best = None
    for f in grid.candidates(px, py):
        a, b, c = v[faces[f, 0]], v[faces[f, 1]], v[faces[f, 2]]
        lam = _barycentric(a, b, c, p)
        if lam is None:
            continue
        if min(lam) >= _BARY_SLACK:
            return BarycentricLocation(f, _clamp_simplex(lam))
        if best is None or min(lam) > best[0]:
            best = (min(lam), f, lam)
    if best is None:
        raise MappingError("outside flattened domain")

    # nearly-containing face: accept if the point is within snap distance
    snap = SNAP_TOL_FACTOR * flat.bbox_diagonal()
    _, f, lam = best
    a, b, c = v[faces[f, 0]], v[faces[f, 1]], v[faces[f, 2]]
    clamped = _clamp_simplex(lam)
    q = clamped[0] * a + clamped[1] * b + clamped[2] * c
    if np.linalg.norm(q - p) <= snap:
        return BarycentricLocation(f, clamped)
    raise MappingError("outside flattened domain")


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
    grid = FaceGrid(initial_flat)
    lifted = np.empty((new_flat.n_vertices, 3))
    uv = None
    if initial_surface.uv is not None:
        uv = np.empty((new_flat.n_vertices, 2))
    failures = []
    for k in range(new_flat.n_vertices):
        try:
            loc = locate(initial_flat, new_flat.vertices[k], grid)
        except MappingError:
            failures.append(k)
            continue
        tri = initial_surface.faces[loc.face]
        lam = np.asarray(loc.coords)
        lifted[k] = lam @ initial_surface.vertices[tri]
        if uv is not None:
            uv[k] = lam @ initial_surface.uv[tri]
    if failures:
        raise MappingError(f"unlocatable vertices: {failures[:20]}"
                           + ("..." if len(failures) > 20 else ""))
    return TriangleMesh(lifted, new_flat.faces.copy(), uv=uv)
