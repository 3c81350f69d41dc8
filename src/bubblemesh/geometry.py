"""Planar predicates and polygon utilities shared by packing and triangulation.

Orientation and in-circle tests are evaluated in floating point with a
forward error bound and fall back to exact integer arithmetic (every float
is an integer over a power of two) when the filter cannot certify the sign.
Their array forms (`orient2d_array`, `incircle_array`) run the same filter
on whole columns and send only the uncertain rows to the exact fallback.
`segment_table` derives the start, direction, length and inward normal of
segments once, as the columns of a `Segments` table (each domain keeps
one). Every boundary query reads a table: `segment_distances` is the one
projection of points onto its segments, `nearest_segments` picks each
point's nearest, and `odd_crossings` is the even-odd inside test over the
loops it holds.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_EPS = math.ldexp(1.0, -53)
_CCW_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_INCIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS

# largest (points x anchors) or (points x segments) block one vectorized
# distance or crossing pass holds in memory; rows are independent, so the
# chunking never changes a value
_CHUNK_ELEMENTS = 200_000

# a distance bound is cut by this share of the coordinate scale (the largest
# absolute coordinate), which covers the rounding of the distances and moves
# it compares; it grows with the coordinates, not the domain's size
ROUNDING_MARGIN = 1e-9


def _orient2d_terms(ax, ay, bx, by, cx, cy):
    """The orientation determinant and the sum of its two products'
    magnitudes, which bounds its rounding; on Python floats or on arrays."""
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    return detleft - detright, abs(detleft) + abs(detright)


def orient2d(ax, ay, bx, by, cx, cy):
    """Sign of twice the signed area of triangle abc: +1 CCW, -1 CW, 0 collinear."""
    det, detsum = _orient2d_terms(ax, ay, bx, by, cx, cy)
    if abs(det) > _CCW_BOUND * detsum:
        return 1 if det > 0.0 else -1
    return _orient2d_exact(ax, ay, bx, by, cx, cy)


def _integers(*coords):
    """The coordinates as integers over one common power-of-two denominator,
    so integer arithmetic gives the exact sign of any homogeneous polynomial
    in them."""
    ratios = [float(c).as_integer_ratio() for c in coords]
    shift = max(d for _, d in ratios).bit_length()
    return [n << (shift - d.bit_length()) for n, d in ratios]


def _orient2d_exact(ax, ay, bx, by, cx, cy):
    ax, ay, bx, by, cx, cy = _integers(ax, ay, bx, by, cx, cy)
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (det > 0) - (det < 0)


def _incircle_terms(ax, ay, bx, by, cx, cy, dx, dy):
    """The in-circle determinant and its permanent (the same sum with every
    product's magnitude), which bounds its rounding; on Python floats or on
    arrays."""
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
    return det, permanent


def incircle(ax, ay, bx, by, cx, cy, dx, dy):
    """+1 if d is strictly inside the circumcircle of CCW triangle abc, -1 outside, 0 on."""
    det, permanent = _incircle_terms(ax, ay, bx, by, cx, cy, dx, dy)
    if abs(det) > _INCIRCLE_BOUND * permanent:
        return 1 if det > 0.0 else -1
    return _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy)


def _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy):
    ax, ay, bx, by, cx, cy, dx, dy = _integers(ax, ay, bx, by, cx, cy, dx, dy)
    adx, ady, bdx, bdy, cdx, cdy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
    det = ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
           + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
           + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady))
    return (det > 0) - (det < 0)


def _signs(det, certain, exact, *rows):
    """int8 signs of `det` where the filter certified them; every other row
    takes the scalar exact fallback on its Python-float coordinates."""
    sign = np.sign(det).astype(np.int8)
    unsure = np.flatnonzero(~certain)
    if len(unsure):
        for r, coords in zip(unsure.tolist(), zip(*(c[unsure].tolist() for c in rows))):
            sign[r] = exact(*coords)
    return sign


def orient2d_array(ax, ay, bx, by, cx, cy):
    """`orient2d` of equal-length coordinate arrays, one triangle per row,
    as int8 signs: the scalar filter's arithmetic on whole arrays, so each
    row gets the scalar sign."""
    det, detsum = _orient2d_terms(ax, ay, bx, by, cx, cy)
    return _signs(det, np.abs(det) > _CCW_BOUND * detsum, _orient2d_exact,
                  ax, ay, bx, by, cx, cy)


def incircle_array(ax, ay, bx, by, cx, cy, dx, dy):
    """`incircle` of equal-length coordinate arrays, one row per (CCW
    triangle abc, point d), as int8 signs: the scalar filter's arithmetic
    on whole arrays, so each row gets the scalar sign."""
    det, permanent = _incircle_terms(ax, ay, bx, by, cx, cy, dx, dy)
    return _signs(det, np.abs(det) > _INCIRCLE_BOUND * permanent, _incircle_exact,
                  ax, ay, bx, by, cx, cy, dx, dy)


def polygon_signed_area(pts) -> float:
    """Shoelace signed area of a closed polyline (last vertex implicitly joins first)."""
    pts = np.asarray(pts, dtype=float)
    x = pts[:, 0]
    y = pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class Segments(NamedTuple):
    """A table of S boundary segments, one length-S array per column: start
    (ax, ay), direction (vx, vy) = b - a, squared length vx * vx + vy * vy,
    length (`math.hypot`), inward (left) unit normal (nx, ny) =
    (-vy, vx) / length and end y `by` (ay + vy need not round back to it).
    The unit direction is (ny, -nx)."""

    ax: np.ndarray
    ay: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    length2: np.ndarray
    length: np.ndarray
    nx: np.ndarray
    ny: np.ndarray
    by: np.ndarray


def segment_table(segments) -> Segments:
    """The `Segments` of the (S,4) segments (ax, ay, bx, by), none of zero
    squared length (`PackingDomain` rejects a loop with one)."""
    ax, ay, bx, by = np.asarray(segments, dtype=float).reshape(-1, 4).T
    vx, vy = bx - ax, by - ay
    length = np.array(list(map(math.hypot, vx.tolist(), vy.tolist())), dtype=float)
    return Segments(ax, ay, vx, vy, vx * vx + vy * vy, length, -vy / length, vx / length, by)


def odd_crossings(points, segments: Segments, loop_start) -> np.ndarray:
    """Even-odd test of (n,2) points against closed loops whose segments
    lie in the table, loop k's from loop_start[k] on: an (n,L) mask of the
    loops whose edges a point's rightward ray crosses an odd number of
    times. Boundary points are unreliable; NaN points cross nothing."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    odd = np.empty((len(points), len(loop_start)), dtype=bool)
    # points x segments temporaries, a bounded number of elements at a time
    chunk = max(1, _CHUNK_ELEMENTS // max(len(segments.ax), 1))
    for start in range(0, len(points), chunk):
        px = points[start:start + chunk, :1]
        py = points[start:start + chunk, 1:]
        hits = (segments.by > py) != (segments.ay > py)
        # x = ax + (py - ay) / vy * vx, the crossing of each edge's line, in
        # place; a horizontal edge divides by zero here, and `hits` masks it
        x = np.subtract(py, segments.ay)
        with np.errstate(divide="ignore", invalid="ignore"):
            x /= segments.vy
            x *= segments.vx
            x += segments.ax
        hits &= px < x
        odd[start:start + chunk] = np.add.reduceat(hits, loop_start, axis=1) % 2 == 1
    return odd


def segment_distances(points, segments: Segments):
    """t in [0, 1] of the closest point a + t (b - a) of each segment of the
    table to each (n,2) point and its squared distance, taken as
    dx = px - (ax + t vx): two (n,S) arrays."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    px, py = points[:, :1], points[:, 1:]
    ax, ay, vx, vy = segments[:4]
    t = ((px - ax) * vx + (py - ay) * vy) / segments.length2
    # min(1, max(0, t)) as Python takes it: 0.0 for t <= 0, -0.0 included
    t = np.where(t > 0.0, np.minimum(t, 1.0), 0.0)
    dx = px - (ax + t * vx)
    dy = py - (ay + t * vy)
    return t, dx * dx + dy * dy


def nearest_segments(points, segments: Segments):
    """Nearest segment of the table to each (n,2) point. Returns per point
    the segment index (the first of equal distances), and t and the squared
    distance of `segment_distances`."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    index = np.empty(len(points), dtype=np.int64)
    t = np.empty(len(points))
    d2 = np.empty(len(points))
    # points x segments temporaries, a bounded number of elements at a time
    chunk = max(1, _CHUNK_ELEMENTS // max(len(segments.ax), 1))
    for start in range(0, len(points), chunk):
        rows = slice(start, start + chunk)
        tt, dd = segment_distances(points[rows], segments)
        pick = (np.arange(len(dd)), np.argmin(dd, axis=1))
        index[rows] = pick[1]
        t[rows] = tt[pick]
        d2[rows] = dd[pick]
    return index, t, d2


def _rowdot(a, b):
    """Row-wise dot products of equal-shape (..., k) arrays. A (1,k) @ (k,1)
    product per row runs the same dot kernel as np.dot on one pair of
    k-vectors, so a batch reproduces the pointwise values bit for bit (an
    elementwise sum or einsum rounds differently)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def hashed_unit_direction(i: int, j: int, seed: int = 0):
    """Deterministic pseudo-random unit vector from a pair of indices and a seed.

    Stable across processes (does not use Python's randomized hash).
    """
    h = (i * 2654435761 + j * 40503 + seed * 97) % 2**32
    angle = 2.0 * math.pi * (h / 2.0**32)
    return math.cos(angle), math.sin(angle)
