"""The Delaunay engine, and the constrained Delaunay triangulation of bubble
centres.

The engine works on `faces`, (F,3) CCW vertex triples, and `nbr`, where
nbr[f, k] is the face across the edge opposite faces[f, k] (-1 on the hull).
`illegal_edges` certifies the edges of `interior_edges` with the filtered
exact in-circle test, and `lawson_flip` flips those that fail (Lawson 1977).
At an exact tie a quad keeps the diagonal that avoids its highest-index
corner: a symbolic perturbation (Edelsbrunner & Mücke 1990) under which the
flips end at one triangulation, whatever diagonals Qhull picked at ties.
`delaunay_triangulate` repairs Qhull's triangulation of the bubble centres
this way, flips the boundary segments in (Sloan 1993) and culls the faces
outside the domain. It is the only user of the engine; the min-angle
monitor takes Qhull's triangulation as it is.
"""
from __future__ import annotations

import math
from collections import deque
from itertools import accumulate

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .geometry import (incircle, incircle_array, nearest_segments, orient2d,
                       orient2d_array)
from .mesh import PlanarMesh
from .packing import BOUNDARY, Bubble, PackingDomain


class TriangulationError(Exception):
    pass


def interior_edges(faces: np.ndarray, nbr: np.ndarray):
    """Each interior edge once: the face it is taken from (E,) and its quad's
    corners (4,E), that face's vertices from the one opposite the edge on,
    then the neighbour's vertex across the edge."""
    f, k = np.nonzero(nbr > np.arange(len(faces))[:, None])
    g = nbr[f, k]
    kg = np.argmax(nbr[g] == f[:, None], axis=1)
    quads = np.stack([faces[f, k], faces[f, (k + 1) % 3],
                      faces[f, (k + 2) % 3], faces[g, kg]])
    return f, quads


def illegal_edges(x: np.ndarray, y: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """Mask of the quads (4,E) whose diagonal, corners 1-2, the tie rule
    flips: corner 3 lies strictly inside the circumcircle of corners 0-2, or
    on it while the quad's highest index is an end of the diagonal."""
    qx, qy = x.take(quads), y.take(quads)
    sign = incircle_array(qx[0], qy[0], qx[1], qy[1], qx[2], qy[2], qx[3], qy[3])
    return (sign > 0) | ((sign == 0) & (np.maximum(quads[1], quads[2])
                                        > np.maximum(quads[0], quads[3])))


def _orient(pts: list, p: int, q: int, r: int) -> int:
    return orient2d(*pts[p], *pts[q], *pts[r])


def _quad(faces, nbr, f: int, k: int):
    """Face f's vertices (a, b, c) from slot k on, the face g across the
    edge bc and g's vertex d across it; g and d are -1 on the hull."""
    row = faces[f].tolist()
    a, b, c = row[k], row[(k + 1) % 3], row[(k + 2) % 3]
    g = int(nbr[f, k])
    if g < 0:
        return a, b, c, -1, -1
    return a, b, c, g, faces[g].tolist()[nbr[g].tolist().index(f)]


def _flip(faces, nbr, f: int, k: int) -> None:
    """Replace the edge of face f opposite its slot k by the quad's other
    diagonal: f = (a, b, c) and g = (d, c, b) become (a, b, d) and (a, d, c)."""
    a, b, c, g, d = _quad(faces, nbr, f, k)
    grow, gnbr = faces[g].tolist(), nbr[g].tolist()
    n_ca, n_ab = int(nbr[f, (k + 1) % 3]), int(nbr[f, (k + 2) % 3])
    n_bd, n_dc = gnbr[grow.index(c)], gnbr[grow.index(b)]
    faces[f], nbr[f] = (a, b, d), (n_bd, g, n_ab)
    faces[g], nbr[g] = (a, d, c), (n_dc, n_ca, f)
    if n_bd >= 0:
        nbr[n_bd, nbr[n_bd].tolist().index(g)] = f
    if n_ca >= 0:
        nbr[n_ca, nbr[n_ca].tolist().index(f)] = g


def lawson_flip(faces: np.ndarray, nbr: np.ndarray, xy: np.ndarray,
                edge_faces: np.ndarray, quads: np.ndarray):
    """Lawson flips, in place, from illegal edges, given as `interior_edges`
    gives them, until every edge they reach is legal under the tie rule.
    Returns whether the repair finished: False when a flip would invert a
    face or the flips outnumber the faces."""
    pts = xy.tolist()
    # (face, a, b, c, d) of an edge bc to test; a quad still equal to one
    # the caller certified illegal is not tested again
    queue = list(zip(edge_faces.tolist(), *quads.tolist()))
    flips = 0
    while queue:
        f, a0, b, c, d0 = queue.pop()
        row = faces[f].tolist()
        if b not in row or c not in row:
            continue  # flipped away, or now an edge of another face
        k = 3 - row.index(b) - row.index(c)
        a, b, c, g, d = _quad(faces, nbr, f, k)
        if g < 0:
            continue
        if (a, d) != (a0, d0):
            sign = incircle(*pts[a], *pts[b], *pts[c], *pts[d])
            if not (sign > 0 or sign == 0 and max(b, c) > max(a, d)):
                continue
        if _orient(pts, a, b, d) <= 0 or _orient(pts, a, d, c) <= 0:
            return False
        flips += 1
        if flips > len(faces):
            return False
        _flip(faces, nbr, f, k)
        queue += [(f, -1, b, d, -1), (f, -1, a, b, -1), (g, -1, d, c, -1), (g, -1, c, a, -1)]
    return True


def _boundary_constraints(bubbles: list[Bubble], domain: PackingDomain) -> list[tuple[int, int]]:
    """Index pairs of consecutive boundary bubbles along every domain loop.

    Each boundary bubble is assigned to its nearest loop and ordered by arc
    length along it; consecutive pairs plus the closing pair are enforced.
    """
    boundary_ids = [i for i, b in enumerate(bubbles) if b.kind == BOUNDARY]
    if not boundary_ids:
        return []
    segs = domain.segments
    bounds = [*domain.loop_start, len(segs.ax)]
    # loop of every segment, and the arc length along it where the segment starts
    loop_of, arc_at = [], []
    for li, (first, end) in enumerate(zip(bounds, bounds[1:])):
        loop_of += [li] * (end - first)
        arc_at += [0.0, *accumulate(segs.length[first:end - 1].tolist())]
    seg, t, _ = nearest_segments([(bubbles[i].x, bubbles[i].y) for i in boundary_ids], segs)
    ax, ay = segs.ax[seg], segs.ay[seg]
    qx, qy = ax + t * segs.vx[seg], ay + t * segs.vy[seg]
    per_loop: list[list[tuple[float, int]]] = [[] for _ in domain.loop_start]
    for i, k, x0, y0, x1, y1 in zip(boundary_ids, seg.tolist(), ax, ay, qx, qy):
        per_loop[loop_of[k]].append((arc_at[k] + math.hypot(x1 - x0, y1 - y0), i))
    segments = []
    for ring in per_loop:
        ring.sort()
        if len(ring) < 2:
            continue
        ids = [i for _, i in ring]
        for k in range(len(ids)):
            segments.append((ids[k], ids[(k + 1) % len(ids)]))
    return segments


def _qhull_delaunay(xy: np.ndarray):
    """Qhull's triangulation of the (N,2) points, certified and repaired
    under the tie rule, as (faces, nbr)."""
    try:
        tri = Delaunay(xy)
    except QhullError as exc:
        raise TriangulationError(f"Qhull failed: {exc}") from exc
    faces, nbr = tri.simplices.copy(), tri.neighbors.copy()
    used = np.zeros(len(xy), dtype=bool)
    used[faces] = True
    if not used.all():
        i = int(np.argmin(used))
        what = "duplicate" if (xy == xy[i]).all(axis=1).sum() > 1 else "Qhull left out"
        raise TriangulationError(f"{what} point {i - 3} at {tuple(xy[i].tolist())}")
    x, y = xy.T
    fx, fy = x.take(faces.T), y.take(faces.T)
    if (orient2d_array(fx[0], fy[0], fx[1], fy[1], fx[2], fy[2]) <= 0).any():
        raise TriangulationError("Qhull returned a face that is not CCW")
    edge_faces, quads = interior_edges(faces, nbr)
    bad = illegal_edges(x, y, quads)
    if bad.any() and not lawson_flip(faces, nbr, xy, edge_faces[bad], quads[:, bad]):
        raise TriangulationError("Delaunay repair did not converge")
    return faces, nbr


def _crossed_edges(faces, nbr, pts: list, a: int, b: int) -> list[tuple[int, int]]:
    """The edges that segment ab crosses, in order from a, each as (right,
    left) vertex pair; raises when a vertex lies on the segment. a and b are
    interior vertices that no edge joins."""
    for f in np.flatnonzero((faces == a).any(axis=1)).tolist():
        row = faces[f].tolist()
        i = row.index(a)
        u, v = row[(i + 1) % 3], row[(i + 2) % 3]
        side = _orient(pts, a, u, b)
        if side >= 0 and _orient(pts, a, v, b) < 0:
            break  # b lies in the corner of face f at a, or on the ray a -> u
    if side == 0:
        raise TriangulationError(f"bubble {u - 3} lies on segment ({a - 3},{b - 3})")
    crossed = [(u, v)]
    while True:
        _, _, _, f, w = _quad(faces, nbr, f, 3 - row.index(u) - row.index(v))
        if w == b:
            return crossed
        side = _orient(pts, a, b, w)
        if side == 0:
            raise TriangulationError(f"bubble {w - 3} lies on segment ({a - 3},{b - 3})")
        u, v = (u, w) if side > 0 else (w, v)
        crossed.append((u, v))
        row = faces[f].tolist()


def _recover_segment(faces, nbr, pts: list, a: int, b: int, protected: set) -> None:
    """Flip the edges that cross segment ab until ab is an edge (Sloan
    1993): a crossing edge whose quad is not strictly convex waits for a
    later pass, and a new diagonal that still crosses ab joins the queue."""
    queue = deque(_crossed_edges(faces, nbr, pts, a, b))
    if any((min(e), max(e)) in protected for e in queue):
        raise TriangulationError("constraint segments intersect")
    waited = 0
    while queue:
        u, v = queue.popleft()
        f = int(np.flatnonzero((faces == u).any(axis=1) & (faces == v).any(axis=1))[0])
        row = faces[f].tolist()
        k = 3 - row.index(u) - row.index(v)
        p, c1, c2, _, q = _quad(faces, nbr, f, k)
        if _orient(pts, p, c1, q) <= 0 or _orient(pts, p, q, c2) <= 0:
            queue.append((u, v))
            waited += 1
            if waited >= len(queue):  # a whole pass without a flip
                raise TriangulationError(
                    f"constraint recovery stalled for segment ({a - 3},{b - 3})")
            continue
        waited = 0
        _flip(faces, nbr, f, k)
        if _orient(pts, a, b, p) * _orient(pts, a, b, q) < 0:
            queue.append((p, q))


def delaunay_triangulate(bubbles: list[Bubble], domain: PackingDomain) -> PlanarMesh:
    """Constrained Delaunay triangulation of bubble centers.

    Consecutive boundary bubbles trace the domain loops and are enforced as
    edges; triangles whose centroid is outside the domain or inside a hole
    are removed. Unreferenced input points are dropped from the result
    (vertex order is otherwise preserved). Each face is CCW from its
    smallest vertex, and the faces are sorted.
    """
    n = len(bubbles)
    if n < 3:
        raise TriangulationError("need at least 3 bubbles")
    pts = np.array([(b.x, b.y) for b in bubbles], dtype=float)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = float((hi - lo).max())
    if span <= 0.0:
        raise TriangulationError("all points collinear")
    cx, cy = 0.5 * (lo + hi)
    big = 16.0 * span
    # the super-triangle's vertices come first: indices then follow the
    # order the tie rule ranks, and no bubble is on Qhull's hull
    xy = np.vstack([[(cx - big, cy - big), (cx + big, cy - big), (cx, cy + big)], pts])
    faces, nbr = _qhull_delaunay(xy)
    if not (faces >= 3).all(axis=1).any():
        raise TriangulationError("all points collinear")

    # boundary segments as sorted index pairs; a segment absent from the
    # Delaunay edges is flipped in
    segments = np.sort(np.array(_boundary_constraints(bubbles, domain),
                                dtype=np.int64).reshape(-1, 2) + 3, axis=1)
    ends = faces[:, [1, 2, 0]]
    edges = np.sort((np.minimum(faces, ends) * len(xy) + np.maximum(faces, ends)).ravel())
    wanted = segments[:, 0] * len(xy) + segments[:, 1]
    missing = segments[edges[np.searchsorted(edges, wanted) % len(edges)] != wanted].tolist()
    protected = set(map(tuple, segments.tolist()))
    for a, b in missing:
        # an earlier recovery may have flipped this segment in
        if not ((faces == a).any(axis=1) & (faces == b).any(axis=1)).any():
            _recover_segment(faces, nbr, xy.tolist(), a, b, protected - {(a, b)})

    cand = faces[(faces >= 3).all(axis=1)] - 3
    first = cand.argmin(axis=1)[:, None]
    cand = np.take_along_axis(cand, (first + np.arange(3)) % 3, axis=1)
    inside = domain.contains_points(pts[cand].mean(axis=1))
    kept = cand[inside]
    if not len(kept):
        raise TriangulationError("no triangles inside the domain")
    kept = kept[np.lexsort(kept.T[::-1])]
    used = np.zeros(n, dtype=bool)
    used[kept] = True
    remap = np.cumsum(used) - 1
    return PlanarMesh(pts[used], remap[kept])
