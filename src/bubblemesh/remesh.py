"""Re-meshing of a flattened mesh: bubble reconstruction at the vertices,
gap filling, boundary-region quantity control, relaxation, triangulation.

Bubble radii are reconstructed from the flat edge lengths, so they inherit
the conformal scale factors of the flattening and the re-mesh preserves the
original mesh's size distribution.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .config import PipelineConfig
from .delaunay import delaunay_triangulate
from .geometry import ROUNDING_MARGIN
from .mesh import MeshError, PlanarMesh
from .packing import (BOUNDARY, INTERIOR_ANCHOR, Bubble, PackingDomain,
                      _anchor_arrays, _interpolate_radii, pack_interior_quadtree)
from .relaxation import ConvergenceTrace, relax_until_converged


def reconstruct_boundary_bubbles(flat: PlanarMesh) -> list[Bubble]:
    """One fixed bubble per boundary vertex, radius (l_prev + l_next)/4.

    Consecutive reconstructed bubbles are exactly tangent when the boundary
    edge lengths are uniform.
    """
    loop = flat.boundary_loop
    if len(loop) < 3:
        raise MeshError("boundary loop needs at least 3 vertices")
    pts = flat.vertices[loop]
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    if np.any(seg <= 0.0):
        raise MeshError("zero-length boundary edge")
    out = []
    n = len(loop)
    for k in range(n):
        l_prev = seg[(k - 1) % n]
        l_next = seg[k]
        out.append(Bubble(float(pts[k, 0]), float(pts[k, 1]),
                          float((l_prev + l_next) / 4.0), BOUNDARY))
    return out


def reconstruct_interior_bubbles(flat: PlanarMesh) -> list[Bubble]:
    """One mobile fixed-radius anchor per interior vertex.

    The radius is half the inverse-length-weighted average of the incident
    edge lengths, which keeps short edges authoritative and stops long
    stretched edges from inflating the bubble. In closed form it is half
    their harmonic mean: 0.5 * deg / sum(1 / l).
    """
    n = flat.n_vertices
    interior = np.ones(n, dtype=bool)
    interior[[v for loop in flat.boundary_loops() for v in loop]] = False
    ends = flat.undirected_edges()
    lens = np.linalg.norm(flat.vertices[ends[:, 1]] - flat.vertices[ends[:, 0]], axis=1)
    ends = ends.T.ravel()
    degree = np.bincount(ends, minlength=n)
    zero = np.bincount(ends, np.tile(lens <= 0.0, 2), minlength=n) > 0
    bad = np.flatnonzero(interior & ((degree == 0) | zero))
    if len(bad):
        i = int(bad[0])
        raise MeshError(f"isolated vertex {i}" if degree[i] == 0 else f"zero-length edge at vertex {i}")
    with np.errstate(divide="ignore"):
        radius = 0.5 * degree / np.bincount(ends, np.tile(1.0 / lens, 2), minlength=n)
    x, y = flat.vertices[interior].T
    return [Bubble(*b, INTERIOR_ANCHOR)
            for b in zip(x.tolist(), y.tolist(), radius[interior].tolist())]


def anchor_sizing(anchors: list[Bubble]):
    """Inverse-square-distance interpolation of anchor radii as a sizing
    field `bound(xs, ys)` over equal-shape arrays (or scalars)."""
    ax, ay, ar = _anchor_arrays(anchors)

    def bound(x, y) -> np.ndarray:
        x, y = np.broadcast_arrays(x, y)
        pts = np.column_stack([np.ravel(x), np.ravel(y)])
        return _interpolate_radii(pts, ax, ay, ar).reshape(x.shape)

    return bound


def flat_domain(flat: PlanarMesh, anchors: list[Bubble]) -> PackingDomain:
    """Packing domain bounded by the flat mesh's boundary loop."""
    loop = flat.boundary_loop
    return PackingDomain(outer=flat.vertices[loop], holes=[],
                         sizing=anchor_sizing(anchors))


# fillers may brush anchors lightly; real gaps admit a near-tangent bubble
FILL_MAX_ANCHOR_OVERLAP = 0.4


def fill_gaps(flat: PlanarMesh, anchors: list[Bubble],
              domain: PackingDomain) -> list[Bubble]:
    """Mobile bubbles filling the stretch-induced gaps between anchors in
    `domain`, the `flat_domain` of the flat mesh and the anchors.

    The quadtree searches only the faces that `_covered_faces` cannot
    certify, and is skipped when it certifies every face; the fillers are
    those of a search over the whole domain."""
    covered = _covered_faces(flat, anchors, len(domain.outer))
    gaps = None if covered is None else flat.vertices[flat.faces[~covered]]
    return pack_interior_quadtree(domain, anchors,
                                  max_anchor_overlap=FILL_MAX_ANCHOR_OVERLAP,
                                  gaps=gaps)


def _covered_faces(flat: PlanarMesh, anchors: list[Bubble],
                   loop_length: int) -> np.ndarray | None:
    """Which flat faces hold no gap filler; None when there are no anchors
    or the faces need not cover the fill domain, whose boundary is a loop of
    `loop_length` mesh edges: they do when that loop is all of the edges
    with an odd number of faces (the faces' sum modulo 2 then has the
    loop's crossing parity at every point).

    The face-cover certificate: a candidate's radius is the anchor
    interpolation, a convex combination of anchor radii, so it is at least
    r_lo, the smallest of them. A candidate closer than
    R_a = r_a + (1 - FILL_MAX_ANCHOR_OVERLAP) min(r_lo, r_a) to anchor a
    overlaps it by more than FILL_MAX_ANCHOR_OVERLAP and is rejected. Every
    point of a face lies within the face's circumradius of one of its
    corners, so a face whose circumradius is below the smallest R_a of the
    anchors at its corners, less the rounding margin on the coordinate
    scale, holds no surviving candidate: it is covered. A face with a corner
    that has no anchor is never covered."""
    if not anchors or np.count_nonzero(flat.edge_table.faces % 2) != loop_length:
        return None
    ax, ay, ar = _anchor_arrays(anchors)
    reach = ar + (1.0 - FILL_MAX_ANCHOR_OVERLAP) * np.minimum(ar.min(), ar)
    # the anchor centred on each vertex, if any
    dist, at = cKDTree(np.column_stack([ax, ay])).query(flat.vertices)
    vertex_reach = np.full(flat.n_vertices, -np.inf)
    on = dist == 0.0
    vertex_reach[on] = reach[at[on]]
    tri = flat.vertices[flat.faces]
    a, b, c = (np.hypot(*(tri[:, (k + 1) % 3] - tri[:, k]).T) for k in range(3))
    with np.errstate(divide="ignore", invalid="ignore"):
        circumradius = a * b * c / (4.0 * flat.face_areas())
    margin = ROUNDING_MARGIN * max(float(np.abs(flat.vertices).max()),
                                   float(np.abs(ax).max()), float(np.abs(ay).max()))
    return circumradius < vertex_reach[flat.faces].min(axis=1) - margin


def reconstruct_bubbles(flat: PlanarMesh) -> tuple[PackingDomain, list[Bubble]]:
    """Anchors reconstructed at the flat mesh's vertices plus gap fillers,
    and the packing domain bounded by its boundary loop."""
    anchors = reconstruct_boundary_bubbles(flat) + reconstruct_interior_bubbles(flat)
    domain = flat_domain(flat, anchors)
    return domain, anchors + fill_gaps(flat, anchors, domain)


def remesh_planar(flat: PlanarMesh, cfg: PipelineConfig | None = None
                  ) -> tuple[PlanarMesh, ConvergenceTrace]:
    """Full planar re-mesh: reconstruct, fill, quantity control, relax,
    triangulate, with the relaxation keys of `cfg` (defaults when None).
    Boundary bubbles never move; interior anchors move with fixed radii."""
    cfg = cfg or PipelineConfig()
    domain, bubbles = reconstruct_bubbles(flat)
    relaxed, trace = relax_until_converged(bubbles, domain, cfg, strategy=f"{cfg.qc}-qc")
    mesh = delaunay_triangulate(relaxed, domain)
    return mesh, trace
