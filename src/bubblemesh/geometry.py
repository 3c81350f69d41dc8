"""Planar predicates and polygon utilities shared by packing and triangulation.

Orientation and in-circle tests are evaluated in floating point with a
forward error bound and fall back to exact rational arithmetic when the
filter cannot certify the sign.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_EPS = math.ldexp(1.0, -53)
_CCW_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_INCIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS


def orient2d(ax, ay, bx, by, cx, cy):
    """Sign of twice the signed area of triangle abc: +1 CCW, -1 CW, 0 collinear."""
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if abs(det) > _CCW_BOUND * detsum:
        return 1 if det > 0.0 else -1
    return _orient2d_exact(ax, ay, bx, by, cx, cy)


def _orient2d_exact(ax, ay, bx, by, cx, cy):
    F = Fraction
    det = (F(ax) - F(cx)) * (F(by) - F(cy)) - (F(ay) - F(cy)) * (F(bx) - F(cx))
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def incircle(ax, ay, bx, by, cx, cy, dx, dy):
    """+1 if d is strictly inside the circumcircle of CCW triangle abc, -1 outside, 0 on."""
    adx = ax - dx
    ady = ay - dy
    bdx = bx - dx
    bdy = by - dy
    cdx = cx - dx
    cdy = cy - dy

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady
    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy
    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = (alift * (bdxcdy - cdxbdy)
           + blift * (cdxady - adxcdy)
           + clift * (adxbdy - bdxady))
    permanent = ((abs(bdxcdy) + abs(cdxbdy)) * alift
                 + (abs(cdxady) + abs(adxcdy)) * blift
                 + (abs(adxbdy) + abs(bdxady)) * clift)
    if abs(det) > _INCIRCLE_BOUND * permanent:
        return 1 if det > 0.0 else -1
    return _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy)


def _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy):
    F = Fraction
    adx = F(ax) - F(dx)
    ady = F(ay) - F(dy)
    bdx = F(bx) - F(dx)
    bdy = F(by) - F(dy)
    cdx = F(cx) - F(dx)
    cdy = F(cy) - F(dy)
    det = ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
           + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
           + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady))
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def segments_cross(p, q, u, v):
    """True if open segments pq and uv intersect in a single interior point."""
    o1 = orient2d(p[0], p[1], q[0], q[1], u[0], u[1])
    o2 = orient2d(p[0], p[1], q[0], q[1], v[0], v[1])
    o3 = orient2d(u[0], u[1], v[0], v[1], p[0], p[1])
    o4 = orient2d(u[0], u[1], v[0], v[1], q[0], q[1])
    return o1 * o2 < 0 and o3 * o4 < 0


def polygon_signed_area(pts) -> float:
    """Shoelace signed area of a closed polyline (last vertex implicitly joins first)."""
    pts = np.asarray(pts, dtype=float)
    x = pts[:, 0]
    y = pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_perimeter(pts) -> float:
    pts = np.asarray(pts, dtype=float)
    return float(np.sum(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)))


def point_in_polygon(x: float, y: float, pts: np.ndarray) -> bool:
    """Even-odd test against a closed polyline. Boundary points are unreliable."""
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


def points_in_polygon(points: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Vectorized even-odd test for an (n,2) array of query points: each
    point is tested against every edge at once, and is inside when the
    number of edges crossed by its rightward ray is odd. Boundary points are
    unreliable."""
    points = np.asarray(points, dtype=float)
    pts = np.asarray(pts, dtype=float)
    x1, y1 = pts[:, 0], pts[:, 1]
    x0, y0 = np.roll(pts, 1, axis=0).T
    inside = np.zeros(len(points), dtype=bool)
    # points x edges temporaries, a bounded number of elements at a time
    chunk = max(1, 1_000_000 // max(len(pts), 1))
    for start in range(0, len(points), chunk):
        px = points[start:start + chunk, :1]
        py = points[start:start + chunk, 1:]
        crosses = (y1 > py) != (y0 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            hits = crosses & (px < x0 + (py - y0) / (y1 - y0) * (x1 - x0))
        inside[start:start + chunk] = np.count_nonzero(hits, axis=1) % 2 == 1
    return inside


def closest_point_on_segment(px, py, ax, ay, bx, by):
    """Closest point to (px,py) on segment ab and its squared distance."""
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
    return qx, qy, dx * dx + dy * dy


def hashed_unit_direction(i: int, j: int, seed: int = 0):
    """Deterministic pseudo-random unit vector from a pair of indices and a seed.

    Stable across processes (does not use Python's randomized hash).
    """
    h = (i * 2654435761 + j * 40503 + seed * 97) % 2**32
    angle = 2.0 * math.pi * (h / 2.0**32)
    return math.cos(angle), math.sin(angle)
