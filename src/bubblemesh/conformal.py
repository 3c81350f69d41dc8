"""Free-boundary conformal flattening of disk-topology triangle meshes.

Minimizes the conformal (Dirichlet-minus-area) energy of the piecewise
linear map in one sparse symmetric solve over the cotangent operator, with
two boundary vertices pinned to kill the similarity ambiguity. The result
is rescaled so total flat area equals total surface area (the area-
distortion-minimizing normalization) and centered at the origin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import (DEGENERATE_AREA_FACTOR, MeshError, PlanarMesh,
                   TriangleMesh, validate_disk_topology)


@dataclass
class FlattenResult:
    """Planar image of a surface mesh plus per-edge conformal scale factors."""

    flat: PlanarMesh
    edges: np.ndarray         # (E,2), i<j, lexicographic
    edge_scale: np.ndarray    # flat length / surface length per edge
    qc_distortion: np.ndarray  # per-face quasi-conformal ratio, >= 1

    @property
    def max_distortion(self) -> float:
        return float(self.qc_distortion.max())


def _conformal_operator(mesh: TriangleMesh, loop: list[int]) -> sp.csr_matrix:
    """The (2n, 2n) quadratic form of the conformal energy over the stacked
    coordinates (x, y): the cotangent Dirichlet block for x and again for y,
    less the signed area enclosed by the boundary loop. Each face corner
    adds half its cotangent to the weight of the edge (i, j) it faces, as
    four entries per block; duplicate entries are summed."""
    n = mesh.n_vertices
    v = mesh.vertices[mesh.faces]
    half = []
    for corner in range(3):
        a = v[:, corner]
        e1 = v[:, (corner + 1) % 3] - a
        e2 = v[:, (corner + 2) % 3] - a
        cross = np.linalg.norm(np.cross(e1, e2), axis=1)
        half.append(0.5 * (np.einsum("ij,ij->i", e1, e2) / np.maximum(cross, 1e-300)))
    w = np.concatenate(half)
    i, j = mesh.faces[:, [1, 2, 0]].T.ravel(), mesh.faces[:, [2, 0, 1]].T.ravel()
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([j, i, i, j])
    vals = np.concatenate([-w, -w, w, w])
    # area term: z^T K z = 2 * signed flat area over the boundary loop
    a = np.asarray(loop)
    b = np.roll(a, -1)
    half = np.full(len(a), 0.5)
    rows = np.concatenate([rows, rows + n, a, b + n, b, a + n])
    cols = np.concatenate([cols, cols + n, b + n, a, a + n, b])
    vals = np.concatenate([vals, vals, -half, -half, half, half])
    return sp.coo_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n)).tocsr()


def _pin_vertices(mesh: TriangleMesh, loop: list[int]) -> tuple[int, int]:
    """The loop's starting vertex and its arc-length antipode."""
    pts = mesh.vertices[loop]
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])[:-1]
    k = int(np.argmin(np.abs(cum - 0.5 * float(seg.sum()))))
    if k == 0:
        k = len(loop) // 2
    return loop[0], loop[k]


def flatten(mesh: TriangleMesh) -> FlattenResult:
    """Conformally flatten a disk-topology mesh to the plane."""
    check = validate_disk_topology(mesh)
    if not check:
        raise MeshError(f"flatten requires a disk-topology mesh: {check.reason}")
    areas = mesh.face_areas()
    if np.any(areas < DEGENERATE_AREA_FACTOR * mesh.bbox_diagonal() ** 2):
        raise MeshError("flatten requires a mesh without degenerate faces")

    n = mesh.n_vertices
    loop = mesh.boundary_loop
    M = _conformal_operator(mesh, loop)

    p0, p1 = _pin_vertices(mesh, loop)
    pinned = np.array([p0, p0 + n, p1, p1 + n])
    pin_vals = np.array([0.0, 0.0, 1.0, 0.0])
    free = np.setdiff1d(np.arange(2 * n), pinned)

    rhs = -M[:, pinned] @ pin_vals
    try:
        sol = spla.spsolve(M[free][:, free].tocsc(), rhs[free])
    except Exception as exc:
        raise MeshError(f"flattening failed; singular linear system ({exc})") from exc
    if not np.all(np.isfinite(sol)):
        raise MeshError("flattening failed; singular linear system (non-finite solution)")

    z = np.empty(2 * n)
    z[pinned] = pin_vals
    z[free] = sol
    flat_pts = np.column_stack([z[:n], z[n:]])

    flat = PlanarMesh(flat_pts, mesh.faces.copy())
    signed = flat.signed_areas()
    if signed.sum() < 0.0:
        flat_pts[:, 1] *= -1.0
        flat = PlanarMesh(flat_pts, mesh.faces.copy())
        signed = flat.signed_areas()
    if np.any(signed <= 0.0):
        raise MeshError("flattening failed; refine input mesh")

    scale = math.sqrt(float(areas.sum()) / float(signed.sum()))
    flat_pts = (flat_pts - flat_pts.mean(axis=0)) * scale
    flat = PlanarMesh(flat_pts, mesh.faces.copy())

    edges, edge_scale = conformal_factors(mesh, flat)
    qc = _quasi_conformal_distortion(mesh.vertices, flat.vertices, mesh.faces)
    return FlattenResult(flat=flat, edges=edges, edge_scale=edge_scale, qc_distortion=qc)


def conformal_factors(mesh: TriangleMesh, flat: PlanarMesh):
    """Per-edge ratio of flat length to surface length.

    Returns (edges, factors) with edges sorted lexicographically, i<j.
    """
    if mesh.faces.shape != flat.faces.shape or np.any(mesh.faces != flat.faces):
        raise MeshError("conformal factors need identical connectivity")
    edges = mesh.undirected_edges()
    surf_len = np.linalg.norm(mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1)
    if np.any(surf_len <= 0.0):
        bad = int(np.flatnonzero(surf_len <= 0.0)[0])
        raise MeshError(f"zero-length surface edge {tuple(edges[bad])}")
    flat_len = np.linalg.norm(flat.vertices[edges[:, 0]] - flat.vertices[edges[:, 1]], axis=1)
    return edges, flat_len / surf_len


def _quasi_conformal_distortion(verts3d: np.ndarray, verts2d: np.ndarray,
                                faces: np.ndarray) -> np.ndarray:
    """Per-face singular-value ratio of the 3D-triangle -> flat-triangle map."""
    v3 = verts3d[faces]
    v2 = verts2d[faces]
    e1 = v3[:, 1] - v3[:, 0]
    e2 = v3[:, 2] - v3[:, 0]
    x1 = np.linalg.norm(e1, axis=1)
    x1s = np.maximum(x1, 1e-300)
    x2 = np.einsum("ij,ij->i", e2, e1) / x1s
    y2 = np.linalg.norm(np.cross(e1, e2), axis=1) / x1s

    q1 = v2[:, 1] - v2[:, 0]
    q2 = v2[:, 2] - v2[:, 0]
    # M = Q P^{-1} with P = [[x1, x2], [0, y2]]
    y2s = np.where(np.abs(y2) < 1e-300, 1e-300, y2)
    m00 = q1[:, 0] / x1s
    m10 = q1[:, 1] / x1s
    m01 = (q2[:, 0] - m00 * x2) / y2s
    m11 = (q2[:, 1] - m10 * x2) / y2s

    frob = m00 * m00 + m01 * m01 + m10 * m10 + m11 * m11
    det = np.abs(m00 * m11 - m01 * m10)
    disc = np.sqrt(np.maximum(frob * frob - 4.0 * det * det, 0.0))
    s1 = np.sqrt(np.maximum(0.5 * (frob + disc), 0.0))
    s2 = np.sqrt(np.maximum(0.5 * (frob - disc), 1e-300))
    return np.maximum(s1 / s2, 1.0)
