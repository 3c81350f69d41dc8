"""Constrained Delaunay triangulation of bubble centers.

Incremental Bowyer-Watson over a super-triangle, constraint-edge recovery
by flipping, then culling of triangles outside the domain or inside holes
by a centroid point-in-polygon test. Orientation and in-circle decisions go
through the filtered exact predicates in `geometry`.
"""
from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .geometry import incircle, nearest_segments, orient2d, segments_cross
from .mesh import PlanarMesh
from .packing import BOUNDARY, Bubble, PackingDomain


class TriangulationError(Exception):
    pass


class _Triangulation:
    """Triangle soup keyed by directed edges; faces stored CCW."""

    def __init__(self, points):
        self.pts = [tuple(map(float, p)) for p in points]
        self.tris: dict[int, tuple[int, int, int]] = {}
        self.edge: dict[tuple[int, int], int] = {}  # directed edge -> triangle id
        self.next_id = 0
        self.last_tri = None

    def add_tri(self, a, b, c):
        tid = self.next_id
        self.next_id += 1
        self.tris[tid] = (a, b, c)
        self.edge[(a, b)] = tid
        self.edge[(b, c)] = tid
        self.edge[(c, a)] = tid
        return tid

    def remove_tri(self, tid):
        a, b, c = self.tris.pop(tid)
        for e in ((a, b), (b, c), (c, a)):
            if self.edge.get(e) == tid:
                del self.edge[e]

    def orient(self, a, b, c):
        pa, pb, pc = self.pts[a], self.pts[b], self.pts[c]
        return orient2d(pa[0], pa[1], pb[0], pb[1], pc[0], pc[1])

    def in_circum(self, tri, p):
        a, b, c = tri
        pa, pb, pc, pp = self.pts[a], self.pts[b], self.pts[c], self.pts[p]
        return incircle(pa[0], pa[1], pb[0], pb[1], pc[0], pc[1], pp[0], pp[1])

    def locate(self, p: int) -> int:
        """Walk to a triangle containing point p (the triangulation is Delaunay)."""
        tid = self.last_tri if self.last_tri in self.tris else next(iter(self.tris))
        prev = -1
        for _ in range(4 * len(self.tris) + 16):
            a, b, c = self.tris[tid]
            moved = False
            for u, v in ((a, b), (b, c), (c, a)):
                if self.orient(u, v, p) < 0:
                    nxt = self.edge.get((v, u))
                    if nxt is not None and nxt != prev:
                        prev, tid = tid, nxt
                        moved = True
                        break
            if not moved:
                return tid
        # fallback: exhaustive scan (walk cycles are possible on degenerate input)
        for tid, (a, b, c) in self.tris.items():
            if (self.orient(a, b, p) >= 0 and self.orient(b, c, p) >= 0
                    and self.orient(c, a, p) >= 0):
                return tid
        raise TriangulationError("point location failed")

    def insert(self, p: int):
        tid = self.locate(p)
        a, b, c = self.tris[tid]
        pp = self.pts[p]
        for q in (a, b, c):
            if self.pts[q] == pp:
                raise TriangulationError(f"duplicate point {p} at {pp}")
        o_ab = self.orient(a, b, p)
        o_bc = self.orient(b, c, p)
        o_ca = self.orient(c, a, p)
        if o_ab == 0:
            self._split_edge(a, b, p)
        elif o_bc == 0:
            self._split_edge(b, c, p)
        elif o_ca == 0:
            self._split_edge(c, a, p)
        else:
            self.remove_tri(tid)
            self.add_tri(a, b, p)
            self.add_tri(b, c, p)
            self.last_tri = self.add_tri(c, a, p)
            self._legalize([(a, b, p), (b, c, p), (c, a, p)])

    def _split_edge(self, u: int, v: int, p: int):
        """Insert p lying exactly on edge (u,v): split both adjacent triangles."""
        t1 = self.edge[(u, v)]
        w = self._apex(t1, u, v)
        t2 = self.edge.get((v, u))
        self.remove_tri(t1)
        self.add_tri(u, p, w)
        self.last_tri = self.add_tri(p, v, w)
        suspects = [(w, u, p), (v, w, p)]
        if t2 is not None:
            x = self._apex(t2, v, u)
            self.remove_tri(t2)
            self.add_tri(v, p, x)
            self.add_tri(p, u, x)
            suspects += [(x, v, p), (u, x, p)]
        self._legalize(suspects)

    def _legalize(self, suspects: list[tuple[int, int, int]]):
        """Lawson flips: restore the Delaunay property around new vertex p.

        Each entry (u, v, p) names the directed edge of triangle (u, v, p)
        opposite p; the edge is flipped when the far apex violates the
        in-circle test.
        """
        stack = list(suspects)
        while stack:
            u, v, p = stack.pop()
            t_in = self.edge.get((u, v))
            if t_in is None or self._apex(t_in, u, v) != p:
                continue  # stale entry: a later flip already removed this triangle
            t_out = self.edge.get((v, u))
            if t_out is None:
                continue
            x = self._apex(t_out, v, u)
            if self.in_circum((u, v, p), x) > 0:
                self.flip(u, v)
                stack.append((u, x, p))
                stack.append((x, v, p))

    def flip(self, u, v):
        """Replace edge (u,v) by the cross edge of its two adjacent triangles."""
        t1 = self.edge[(u, v)]
        t2 = self.edge[(v, u)]
        w = self._apex(t1, u, v)
        x = self._apex(t2, v, u)
        self.remove_tri(t1)
        self.remove_tri(t2)
        self.add_tri(u, x, w)
        self.add_tri(v, w, x)

    def _apex(self, tid, u, v):
        return next(k for k in self.tris[tid] if k != u and k != v)


def _find_crossing(T: _Triangulation, a: int, b: int, protected: set):
    pa, pb = T.pts[a], T.pts[b]
    for (u, v), tid in T.edge.items():
        if u > v or u in (a, b) or v in (a, b):
            continue
        if (v, u) not in T.edge:
            continue
        if segments_cross(pa, pb, T.pts[u], T.pts[v]):
            if (u, v) in protected or (v, u) in protected:
                raise TriangulationError("constraint segments intersect")
            return u, v
    return None


def _recover_constraint(T: _Triangulation, a: int, b: int, protected: set):
    """Flip crossing edges until (a,b) is an edge of the triangulation."""
    guard = 0
    while (a, b) not in T.edge and (b, a) not in T.edge:
        guard += 1
        if guard > 20000:
            raise TriangulationError(f"constraint recovery stalled for segment ({a},{b})")
        crossing = _find_crossing(T, a, b, protected)
        if crossing is None:
            raise TriangulationError(
                f"segment ({a},{b}) missing and not recoverable "
                "(a vertex may lie exactly on it)")
        u, v = crossing
        t1 = T.edge[(u, v)]
        t2 = T.edge[(v, u)]
        w = T._apex(t1, u, v)
        x = T._apex(t2, v, u)
        if T.orient(u, x, w) > 0 and T.orient(v, w, x) > 0:
            T.flip(u, v)
        else:
            # non-convex quad: rotate scan order so another edge is tried first
            del T.edge[(u, v)]
            T.edge[(u, v)] = t1


def _boundary_constraints(bubbles: list[Bubble], domain: PackingDomain) -> list[tuple[int, int]]:
    """Index pairs of consecutive boundary bubbles along every domain loop.

    Each boundary bubble is assigned to its nearest loop and ordered by arc
    length along it; consecutive pairs plus the closing pair are enforced.
    """
    boundary_ids = [i for i, b in enumerate(bubbles) if b.kind == BOUNDARY]
    if not boundary_ids:
        return []
    loops = domain.loops()
    segs = domain.all_segments()
    # loop of every segment, and the arc length along it where the segment starts
    loop_of, arc_at = [], []
    for li, loop in enumerate(loops):
        steps = [math.hypot(dx, dy) for dx, dy in np.roll(loop, -1, axis=0) - loop]
        loop_of += [li] * len(loop)
        arc_at += [0.0, *accumulate(steps)][:-1]
    seg, t, _ = nearest_segments([(bubbles[i].x, bubbles[i].y) for i in boundary_ids], segs)
    ax, ay, bx, by = segs[seg].T
    qx, qy = ax + t * (bx - ax), ay + t * (by - ay)
    per_loop: list[list[tuple[float, int]]] = [[] for _ in loops]
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


def delaunay_triangulate(bubbles: list[Bubble], domain: PackingDomain) -> PlanarMesh:
    """Constrained Delaunay triangulation of bubble centers.

    Consecutive boundary bubbles trace the domain loops and are enforced as
    edges; triangles whose centroid is outside the domain or inside a hole
    are removed. Unreferenced input points are dropped from the result
    (vertex order is otherwise preserved).
    """
    n = len(bubbles)
    if n < 3:
        raise TriangulationError("need at least 3 bubbles")
    pts = [(b.x, b.y) for b in bubbles]

    lo = (min(p[0] for p in pts), min(p[1] for p in pts))
    hi = (max(p[0] for p in pts), max(p[1] for p in pts))
    span = max(hi[0] - lo[0], hi[1] - lo[1])
    if span <= 0.0:
        raise TriangulationError("all points collinear")
    cx = 0.5 * (lo[0] + hi[0])
    cy = 0.5 * (lo[1] + hi[1])
    big = 16.0 * span
    T = _Triangulation(pts + [(cx - big, cy - big), (cx + big, cy - big), (cx, cy + big)])
    T.add_tri(n, n + 1, n + 2)
    for i in range(n):
        T.insert(i)
    if not any(a < n and b < n and c < n for a, b, c in T.tris.values()):
        raise TriangulationError("all points collinear")

    constraints = _boundary_constraints(bubbles, domain)
    protected = set(constraints) | {(b, a) for a, b in constraints}
    for a, b in constraints:
        _recover_constraint(T, a, b, protected - {(a, b), (b, a)})

    cand = [t for t in T.tris.values() if max(t) < n]
    if not cand:
        raise TriangulationError("no triangles inside the domain")
    cand_arr = np.asarray(cand, dtype=np.int64)
    inside = domain.contains_points(np.asarray(pts)[cand_arr].mean(axis=1))
    faces = sorted(map(tuple, cand_arr[inside]))
    if not faces:
        raise TriangulationError("no triangles inside the domain")

    used = sorted({i for f in faces for i in f})
    remap = {old: new for new, old in enumerate(used)}
    verts = np.asarray([pts[i] for i in used])
    faces_arr = np.asarray([[remap[a], remap[b], remap[c]] for a, b, c in faces], dtype=np.int64)
    return PlanarMesh(verts, faces_arr)
