import math
from fractions import Fraction

import numpy as np

from bubblemesh.geometry import (hashed_unit_direction, incircle, orient2d,
                                 point_in_polygon, points_in_polygon,
                                 polygon_perimeter, polygon_signed_area,
                                 segments_cross)


def exact_orient(ax, ay, bx, by, cx, cy):
    F = Fraction
    det = (F(ax) - F(cx)) * (F(by) - F(cy)) - (F(ay) - F(cy)) * (F(bx) - F(cx))
    return (det > 0) - (det < 0)


def test_orient2d_matches_exact_on_near_degenerate(rng):
    # points almost on a line y = x scaled badly; the filter must defer to
    # the exact path and agree with rational arithmetic
    mismatches = 0
    for _ in range(2000):
        base = rng.uniform(-1e3, 1e3)
        ax, ay = base, base
        bx, by = base + 1e-3, base + 1e-3
        eps = rng.choice([0.0, 1e-18, -1e-18, 1e-15, -1e-15])
        cx, cy = base + 2e-3, base + 2e-3 + eps
        if orient2d(ax, ay, bx, by, cx, cy) != exact_orient(ax, ay, bx, by, cx, cy):
            mismatches += 1
    assert mismatches == 0


def test_orient2d_collinear_is_zero():
    assert orient2d(0.0, 0.0, 1.0, 1.0, 2.0, 2.0) == 0
    assert orient2d(0.0, 0.0, 1.0, 0.0, 0.5, 1e-300) == 1


def test_incircle_cocircular_is_zero():
    # four corners of a square are exactly cocircular
    assert incircle(0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0) == 0
    assert incircle(0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.5, 0.5) == 1
    assert incircle(0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 5.0, 5.0) == -1


def test_segments_cross():
    assert segments_cross((0, 0), (1, 1), (0, 1), (1, 0))
    assert not segments_cross((0, 0), (1, 1), (2, 2), (3, 3))
    # touching at an endpoint does not count as crossing
    assert not segments_cross((0, 0), (1, 1), (1, 1), (2, 0))


def test_polygon_area_and_perimeter():
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    assert polygon_signed_area(square) == 4.0
    assert polygon_signed_area(square[::-1]) == -4.0
    assert polygon_perimeter(square) == 8.0


def test_point_in_polygon_agrees_with_batch(rng):
    poly = np.array([[0.0, 0.0], [4.0, 1.0], [5.0, 4.0], [2.0, 5.0], [-1.0, 3.0]])
    pts = rng.uniform(-2, 6, size=(500, 2))
    batch = points_in_polygon(pts, poly)
    single = np.array([point_in_polygon(x, y, poly) for x, y in pts])
    assert np.array_equal(batch, single)


def points_in_polygon_edge_loop(points, pts):
    """One vector pass per polygon edge, flipping the points it crosses:
    the reference for the broadcast points_in_polygon."""
    px = points[:, 0]
    py = points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    x0, y0 = pts[-1]
    for x1, y1 in pts:
        crosses = (y1 > py) != (y0 > py)
        if np.any(crosses):
            t = (py[crosses] - y0) / (y1 - y0)
            hits = px[crosses] < x0 + t * (x1 - x0)
            idx = np.flatnonzero(crosses)[hits]
            inside[idx] = ~inside[idx]
        x0, y0 = x1, y1
    return inside


def test_points_in_polygon_matches_edge_loop(rng):
    # a non-convex polygon with horizontal and vertical edges and a CW hole
    # loop; the probes include every vertex and points on every edge
    poly = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [2.0, 1.5], [1.0, 3.0],
                     [1.0, 4.0], [-1.0, 2.5]])
    hole = np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
    for loop in (poly, hole):
        on_edges = [a + t * (b - a) for a, b in zip(loop, np.roll(loop, -1, axis=0))
                    for t in np.linspace(0.0, 1.0, 9)]
        pts = np.concatenate([rng.uniform(-2.0, 5.0, size=(150_000, 2)), loop,
                              np.array(on_edges), np.mgrid[-2:6, -2:6].reshape(2, -1).T])
        assert np.array_equal(points_in_polygon(pts, loop),
                              points_in_polygon_edge_loop(pts, loop))


def test_hashed_direction_unit_and_stable():
    ux, uy = hashed_unit_direction(3, 7, seed=42)
    assert math.hypot(ux, uy) == 1.0 or abs(math.hypot(ux, uy) - 1.0) < 1e-15
    assert (ux, uy) == hashed_unit_direction(3, 7, seed=42)
    assert (ux, uy) != hashed_unit_direction(7, 3, seed=42)
