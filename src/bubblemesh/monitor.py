"""Min-angle convergence monitor: the smallest angle of the Delaunay
triangulation of the bubble centres, ignoring triangles whose centroid lies
outside the domain.

It is a monitoring statistic, not part of the method: relaxation samples it
at its last sweep, and under original-qc every few sweeps for the stall
test; each call runs Qhull afresh.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import Delaunay as _SciDelaunay
from scipy.spatial import QhullError

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


def triangulation_min_angle(points: np.ndarray, domain: PackingDomain | None) -> float:
    """Minimum interior angle (degrees) of Qhull's Delaunay triangulation of
    the points, ignoring triangles whose centroid lies outside the domain;
    0 when there are fewer than 3 points or Qhull fails."""
    if len(points) < 3:
        return 0.0
    try:
        faces = _SciDelaunay(points).simplices
    except QhullError:
        return 0.0
    if domain is not None:
        faces = faces[domain.contains_points(points[faces].mean(axis=1))]
    return _min_angle(points[:, 0][faces.T], points[:, 1][faces.T])
