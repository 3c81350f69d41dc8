import math
import warnings

import numpy as np
import pytest

from bubblemesh.delaunay import delaunay_triangulate
from bubblemesh.geometry import point_in_polygon
from bubblemesh.packing import (BOUNDARY, MOBILE, SELF_OVERLAP_LIMIT,
                                Bubble, PackingDomain, PackingError,
                                _self_thin, interpolate_radius,
                                pack_boundary, pack_interior_quadtree)
from bubblemesh.relaxation import overlap_pairwise


def square_domain(side=10.0, radius=0.5):
    outer = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    return PackingDomain(outer=outer, holes=[], sizing=lambda x, y: radius)


class TestPackBoundary:
    def test_square_uniform_spacing(self):
        domain = square_domain(side=4.0, radius=0.5)
        bubbles = pack_boundary(domain)
        # 4 bubbles per side interval, tangent at distance 1.0
        assert len(bubbles) == 16
        for k in range(len(bubbles)):
            a = bubbles[k]
            b = bubbles[(k + 1) % len(bubbles)]
            d = math.hypot(a.x - b.x, a.y - b.y)
            assert d == pytest.approx(1.0, abs=1e-12)
        assert all(b.kind == BOUNDARY for b in bubbles)

    @pytest.mark.parametrize("side,radius", [
        (7.3, 0.45),
        (20.0, 0.14),  # adversarial for halving: 20/2^k lands at 0.56x tangent
        (11.0, 0.305),
    ])
    def test_consecutive_tangency_tolerance(self, side, radius):
        # property restating the postcondition for non-power-of-two ratios
        domain = square_domain(side=side, radius=radius)
        bubbles = pack_boundary(domain)
        assert len(bubbles) >= 8
        for k in range(len(bubbles)):
            a = bubbles[k]
            b = bubbles[(k + 1) % len(bubbles)]
            d = math.hypot(a.x - b.x, a.y - b.y)
            assert abs(d - (a.radius + b.radius)) <= \
                0.1 * min(a.radius, b.radius) + 1e-12

    def test_polygonized_circle_six_bubbles(self):
        # circumference 2*pi polygonized at the bubble diameter: hexagon
        r_bub = math.pi / 6.0
        n = 6
        angles = 2 * math.pi * np.arange(n) / n
        outer = np.column_stack([np.cos(angles), np.sin(angles)])
        domain = PackingDomain(outer=outer, holes=[], sizing=lambda x, y: r_bub)
        bubbles = pack_boundary(domain)
        assert len(bubbles) == 6
        for k in range(6):
            a, b = bubbles[k], bubbles[(k + 1) % 6]
            gap = math.hypot(a.x - b.x, a.y - b.y) - (a.radius + b.radius)
            assert abs(gap) <= 0.1 * min(a.radius, b.radius)

    def test_corners_always_present(self):
        domain = square_domain(side=5.0, radius=0.4)
        bubbles = pack_boundary(domain)
        centers = {(round(b.x, 9), round(b.y, 9)) for b in bubbles}
        for corner in [(0.0, 0.0), (5.0, 0.0), (5.0, 5.0), (0.0, 5.0)]:
            assert corner in centers

    def test_boundary_too_small(self):
        domain = square_domain(side=0.1, radius=1.0)
        with pytest.raises(PackingError, match="too small"):
            pack_boundary(domain)


class TestInterpolateRadius:
    def test_coincident_anchor(self):
        anchors = [Bubble(1.0, 2.0, 0.3, BOUNDARY), Bubble(5.0, 5.0, 0.9, BOUNDARY)]
        assert interpolate_radius(1.0, 2.0, anchors) == 0.3

    def test_midpoint_symmetry(self):
        anchors = [Bubble(0.0, 0.0, 0.2, BOUNDARY), Bubble(2.0, 0.0, 0.4, BOUNDARY)]
        assert interpolate_radius(1.0, 0.0, anchors) == pytest.approx(0.3, rel=1e-12)

    def test_constant_field(self, rng):
        anchors = [Bubble(0.0, 0.0, 1.0, BOUNDARY), Bubble(3.0, 1.0, 1.0, BOUNDARY),
                   Bubble(1.0, 4.0, 1.0, BOUNDARY)]
        for _ in range(20):
            x, y = rng.uniform(-5, 5, 2)
            assert interpolate_radius(x, y, anchors) == pytest.approx(1.0, rel=1e-12)

    def test_clamped_by_bound(self):
        anchors = [Bubble(0.0, 0.0, 1.0, BOUNDARY)]
        assert interpolate_radius(2.0, 0.0, anchors, bound=lambda x, y: 0.25) == 0.25

    def test_no_anchors(self):
        with pytest.raises(PackingError):
            interpolate_radius(0.0, 0.0, [])


class TestPackInterior:
    def test_covered_by_anchor_is_empty(self):
        domain = square_domain(side=2.0, radius=0.5)
        giant = [Bubble(1.0, 1.0, 10.0, BOUNDARY)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert pack_interior_quadtree(domain, giant) == []

    def test_hexagonal_degree_six(self):
        domain = square_domain(side=10.0, radius=0.5)
        boundary = pack_boundary(domain)
        interior = pack_interior_quadtree(domain, boundary)
        assert len(interior) > 50
        mesh = delaunay_triangulate(boundary + interior, domain)
        nbrs = mesh.vertex_neighbors()
        bulk = [i for i, (x, y) in enumerate(mesh.vertices)
                if 2.0 < x < 8.0 and 2.0 < y < 8.0]
        assert bulk
        degree6 = sum(len(nbrs[i]) == 6 for i in bulk)
        assert degree6 / len(bulk) >= 0.95

    def test_tangent_or_slightly_overlapping(self):
        # uniform lattice: all neighbor pairs tangent, never gapped > 1 radius
        domain = square_domain(side=10.0, radius=0.5)
        boundary = pack_boundary(domain)
        interior = pack_interior_quadtree(domain, boundary)
        pts = np.array([[b.x, b.y] for b in interior])
        for k, b in enumerate(interior):
            d = np.hypot(pts[:, 0] - b.x, pts[:, 1] - b.y)
            d[k] = np.inf
            assert d.min() <= 3.0 * b.radius  # nearest neighbor within 1 radius gap

    def test_overlap_bounded_before_relaxation(self):
        # convex domain, constant sizing: pairwise overlap of kept bubbles <= 1
        domain = square_domain(side=7.0, radius=0.4)
        boundary = pack_boundary(domain)
        interior = pack_interior_quadtree(domain, boundary)
        for i in range(len(interior)):
            for j in range(i + 1, len(interior)):
                assert overlap_pairwise(interior[i], interior[j]) <= 1.0 + 1e-9

    def test_centers_inside_domain(self):
        outer = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
        angles = -2 * np.pi * np.arange(12) / 12
        hole = np.column_stack([5 + 2 * np.cos(angles), 5 + 2 * np.sin(angles)])
        domain = PackingDomain(outer=outer, holes=[hole], sizing=lambda x, y: 0.4)
        boundary = pack_boundary(domain)
        interior = pack_interior_quadtree(domain, boundary)
        assert interior
        for b in interior:
            assert point_in_polygon(b.x, b.y, outer)
            assert not point_in_polygon(b.x, b.y, hole)

    def test_no_center_inside_anchor(self):
        domain = square_domain(side=6.0, radius=0.5)
        boundary = pack_boundary(domain)
        interior = pack_interior_quadtree(domain, boundary)
        for b in interior:
            for a in boundary:
                assert math.hypot(b.x - a.x, b.y - a.y) >= a.radius

    def test_graded_respects_bound(self):
        def sizing(x, y):
            return 0.2 + 0.08 * math.hypot(x - 5.0, y - 5.0)

        outer = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
        domain = PackingDomain(outer=outer, holes=[], sizing=sizing)
        boundary = pack_boundary(domain)
        interior = pack_interior_quadtree(domain, boundary)
        assert interior
        for b in interior:
            assert b.radius <= sizing(b.x, b.y) + 1e-12

    def test_deterministic(self):
        domain = square_domain(side=9.0, radius=0.5)
        boundary = pack_boundary(domain)
        a = pack_interior_quadtree(domain, boundary)
        b = pack_interior_quadtree(domain, boundary)
        assert [(p.x, p.y, p.radius) for p in a] == [(p.x, p.y, p.radius) for p in b]
        assert all(p.kind == MOBILE for p in a)


class TestSelfThin:
    def test_matches_brute_force_greedy(self, rng):
        # graded candidates: radii grow left to right, positions random
        pts = rng.uniform(0.0, 6.0, size=(300, 2))
        radii = 0.15 + 0.05 * pts[:, 0]
        accepted = []
        for k in range(len(pts)):
            if all((radii[j] + radii[k] - math.hypot(*(pts[j] - pts[k])))
                   / min(radii[j], radii[k]) <= SELF_OVERLAP_LIMIT for j in accepted):
                accepted.append(k)
        assert 0 < len(accepted) < len(pts)
        kept, kept_r = _self_thin(pts, radii)
        assert np.array_equal(kept, pts[accepted])
        assert np.array_equal(kept_r, radii[accepted])


class TestDomainValidation:
    def test_outer_must_be_ccw(self):
        outer = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(PackingError, match="counterclockwise"):
            PackingDomain(outer=outer, holes=[])

    def test_holes_must_be_cw(self):
        outer = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
        ccw_hole = np.array([[4.0, 4.0], [6.0, 4.0], [6.0, 6.0], [4.0, 6.0]])
        with pytest.raises(PackingError, match="clockwise"):
            PackingDomain(outer=outer, holes=[ccw_hole])
