"""Min-angle convergence monitor: the smallest angle of the Delaunay
triangulation of the bubble centres, ignoring triangles whose centroid lies
outside the domain.

Relaxation measures it after every sweep, and between two sweeps the
triangulation barely changes. A `MonitorCache` keeps the last sweep's
triangulation and repairs it with the Delaunay engine of `delaunay`: filtered
exact predicates certify every face and interior edge (a relaxation sweep
moves nearly every vertex, so nothing is gained by picking the moved ones),
Lawson flips fix the edges that fail, and only the flipped faces and those
that may have crossed a wall are tested against the domain again. It falls
back to Qhull when a hull vertex moves, a face inverts, the flips exceed a
budget, or the caller keys it on another point set. Wherever the Delaunay
triangulation is unique, the repair gives Qhull's float.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import Delaunay as _SciDelaunay
from scipy.spatial import QhullError

from .delaunay import illegal_edges, interior_edges, lawson_flip
from .geometry import ROUNDING_MARGIN, nearest_segments, orient2d_array
from .packing import PackingDomain


def _min_angle(fx: np.ndarray, fy: np.ndarray) -> float:
    """Smallest corner angle (degrees) of the faces whose corner coordinates
    are the columns of the (3,F) arrays fx and fy; 0 when there is none.

    Corner k's cosine is e1 . e2 / max(|e1| |e2|, 1e-300) with e1 = v[k+1] -
    v[k] and e2 = v[k+2] - v[k], each product and sum taken in that order.
    e2 is edge k+2 (v[k] - v[k+2]) reversed, and IEEE subtraction is
    antisymmetric, so the three edge vectors and lengths give every cosine
    exactly. A face's cosines do not depend on its vertex order, so any
    triangulation with the same face set gives the same float."""
    if not fx.shape[1]:
        return 0.0
    ex, ey = fx[[1, 2, 0]] - fx, fy[[1, 2, 0]] - fy
    n = np.sqrt(ex * ex + ey * ey)
    prev = [2, 0, 1]
    neg_cos = (ex * ex[prev] + ey * ey[prev]) / np.maximum(n * n[prev], 1e-300)
    return math.degrees(math.acos(min(1.0, max(-1.0, -float(neg_cos.min())))))


def _qhull_faces(points: np.ndarray, domain: PackingDomain | None):
    """Qhull's Delaunay triangulation of the points and the mask of its
    faces whose centroid lies in the domain; (None, None) if Qhull fails."""
    try:
        tri = _SciDelaunay(points)
    except QhullError:
        return None, None
    faces = tri.simplices
    if domain is None:
        return tri, np.ones(len(faces), dtype=bool)
    return tri, domain.contains_points(points[faces].mean(axis=1))


class MonitorCache:
    """The last sweep's Delaunay triangulation of the alive bubbles, which
    `triangulation_min_angle` repairs instead of calling Qhull again.

    `relax_until_converged` keys it on the alive index set every sweep
    (`key`), so a quantity-control pass that changes the population drops
    it. A repair, in this order:

    - falls back to Qhull if a hull vertex moved, or if `orient2d_array`
      does not certify every face as CCW;
    - certifies every interior edge with `illegal_edges` (so an exactly
      cocircular quad takes the tie rule at its first repair, whether or
      not its vertices moved);
    - Lawson-flips the edges that fail, falling back to Qhull if a flip
      would invert a face or the flips outnumber the faces;
    - tests against the domain again only the flipped faces and the faces
      whose centroid has moved as far as its clearance from the walls at
      the last test, less `geometry.ROUNDING_MARGIN` of the coordinate scale
      (covering the even-odd test's and the centroids' rounding).

    `rebuilds` and `flips` count the Qhull calls and the edge flips."""

    def __init__(self):
        self.ids = None
        self.faces = None
        self.rebuilds = 0
        self.flips = 0

    def key(self, ids: np.ndarray) -> None:
        """Drop the triangulation unless it is of the alive index set `ids`."""
        if self.ids is None or not np.array_equal(self.ids, ids):
            self.faces = None
            self.ids = ids

    def kept_corners(self, points: np.ndarray, domain: PackingDomain | None):
        """Corner coordinates, as (3,F) x and y arrays, of the Delaunay faces
        whose centroid lies in the domain; None when Qhull fails."""
        x, y = points.T.copy()
        if self.faces is None or len(x) != len(self.x) or domain is not self.domain \
                or not self._repair(points, x, y):
            self.faces = None
            self.rebuilds += 1
            tri, inside = _qhull_faces(points, domain)
            if tri is None:
                return None
            cols = tri.simplices.T
            fx, fy = x.take(cols), y.take(cols)
            if len(tri.coplanar) or (orient2d_array(fx[0], fy[0], fx[1], fy[1],
                                                    fx[2], fy[2]) <= 0).any():
                # a point left out or a face not certified CCW: no repair
                # can start from this triangulation
                return fx[:, inside], fy[:, inside]
            self._store(tri, inside, x, y, domain)
        return self.fx[:, self.inside], self.fy[:, self.inside]

    def _store(self, tri, inside, x, y, domain):
        self.faces, self.nbr = tri.simplices.copy(), tri.neighbors.copy()
        hull_edge = self.nbr < 0
        self.hull = np.unique(self.faces[hull_edge[:, [1, 2, 0]] | hull_edge[:, [2, 0, 1]]])
        self._index()
        self.domain, self.x, self.y = domain, x, y
        self.fx, self.fy = x.take(self.cols), y.take(self.cols)
        self.inside = inside
        if domain is not None:
            self.segments = domain.all_segments()
            self.margin = ROUNDING_MARGIN * float(np.abs(self.segments).max())
            self.sx, self.sy, self.reach2 = np.empty((3, len(inside)))
            self._track(np.arange(len(inside)))

    def _index(self):
        """The interior edges with their quads, and the face columns (3,F)."""
        self.edge_faces, self.quads = interior_edges(self.faces, self.nbr)
        self.cols = np.ascontiguousarray(self.faces.T)

    def _cull(self, sel: np.ndarray):
        """Test the centroids of faces `sel` against the domain again."""
        if self.domain is not None and len(sel):
            self.inside[sel] = self.domain.contains_points(self._track(sel))

    def _track(self, sel: np.ndarray) -> np.ndarray:
        """Record where the centroids of faces `sel` are (as corner sums)
        and how far they may move before their next test (as the square of
        three times that distance); returns the centroids, which are the
        floats of the Qhull path's `mean`."""
        sx, sy = self.fx[:, sel].sum(axis=0), self.fy[:, sel].sum(axis=0)
        self.sx[sel], self.sy[sel] = sx, sy
        centroids = np.column_stack([sx, sy]) / 3.0
        reach = np.sqrt(nearest_segments(centroids, self.segments)[2]) - self.margin
        self.reach2[sel] = (3.0 * np.maximum(reach, 0.0)) ** 2
        return centroids

    def _repair(self, points: np.ndarray, x: np.ndarray, y: np.ndarray) -> bool:
        moved = (x != self.x) | (y != self.y)
        if moved.take(self.hull).any():
            return False
        fx, fy = x.take(self.cols), y.take(self.cols)
        if (orient2d_array(fx[0], fy[0], fx[1], fy[1], fx[2], fy[2]) <= 0).any():
            return False
        bad = np.flatnonzero(illegal_edges(x, y, self.quads))
        flipped = []
        if len(bad):
            flipped, flips = lawson_flip(self.faces, self.nbr, points,
                                         self.edge_faces[bad], self.quads[:, bad])
            self.flips += flips
            if flipped is None:
                return False
            self._index()
            fx, fy = x.take(self.cols), y.take(self.cols)
        self.x, self.y, self.fx, self.fy = x, y, fx, fy
        if self.domain is not None:
            dx = self.fx.sum(axis=0) - self.sx
            dy = self.fy.sum(axis=0) - self.sy
            retest = dx * dx + dy * dy > self.reach2
            retest[flipped] = True
            self._cull(np.flatnonzero(retest))
        return True


def triangulation_min_angle(points: np.ndarray, domain: PackingDomain | None,
                            cache: MonitorCache | None = None) -> float:
    """Minimum interior angle (degrees) of the Delaunay triangulation of the
    points, ignoring triangles whose centroid lies outside the domain.
    Monitoring statistic only. Without a cache every call runs Qhull; with
    one, the triangulation of the previous call is repaired (`MonitorCache`),
    which gives the same float wherever the Delaunay triangulation is
    unique."""
    if len(points) < 3:
        return 0.0
    if cache is not None:
        corners = cache.kept_corners(points, domain)
        return 0.0 if corners is None else _min_angle(*corners)
    tri, inside = _qhull_faces(points, domain)
    if tri is None:
        return 0.0
    faces = tri.simplices[inside].T
    return _min_angle(points[:, 0][faces], points[:, 1][faces])
