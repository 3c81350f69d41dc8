import math
import re
import warnings

import numpy as np
import pytest

from bubblemesh import geometry, packing
from bubblemesh.conformal import flatten
from bubblemesh.delaunay import delaunay_triangulate
from bubblemesh.geometry import nearest_segments
from bubblemesh.packing import (_MAX_DEPTH, _SHEAR, _SPLIT_SLACK, BOUNDARY,
                                MOBILE, SELF_OVERLAP_LIMIT, Bubble, PackingDomain,
                                PackingError, _anchor_overlap_below,
                                _inside_any_anchor, _interpolate_radii_batch,
                                _quadtree_corners, _self_thin,
                                interpolate_radius, overlap_ratio,
                                pack_boundary, pack_interior_quadtree)
from bubblemesh.pipeline import PipelineConfig, plane_domain
from bubblemesh.remesh import (flat_domain, reconstruct_boundary_bubbles,
                               reconstruct_interior_bubbles)
from bubblemesh.sizing import SizingParams, radius_bound_evaluator
from bubblemesh.surfaces import sphere_patch

from conftest import cap_mesh, loop_vertex_neighbors, point_in_polygon


def square_domain(side=10.0, radius=0.5):
    outer = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    return PackingDomain(outer=outer, holes=[], sizing=lambda x, y: radius)


def loop_edges(domain):
    """Start and end corners ((E,2) arrays) of every edge of every loop."""
    loops = domain.loops()
    return np.concatenate(loops), np.concatenate([np.roll(lp, -1, axis=0) for lp in loops])


def scalar_march_edge(domain, ax, ay, bx, by):
    """One edge marched alone, with one scalar sizing call per probe: the
    oracle for the lockstep `packing._march_edges`. Returns (length, steps)
    and the probe points in call order."""
    probes = []
    length = math.hypot(bx - ax, by - ay)
    ux = (bx - ax) / length
    uy = (by - ay) / length

    def radius_at(s: float) -> float:
        probes.append([ax + ux * s, ay + uy * s])
        return float(domain.sizing(ax + ux * s, ay + uy * s))

    arcs = [0.0]
    while arcs[-1] < length and len(arcs) <= packing._MAX_MARCH_STEPS:
        s = arcs[-1]
        r_here = radius_at(s)
        arcs.append(s + r_here + radius_at(min(s + 2.0 * r_here, length)))
    # marched past the corner, or stop one step short: keep the count whose
    # uniform rescale factor is closer to 1
    over = len(arcs) - 1
    pick = over
    if over >= 2 and abs(length / arcs[over - 1] - 1.0) < abs(length / arcs[over] - 1.0):
        pick = over - 1
    scale = length / arcs[pick]
    return (length, [(arcs[k + 1] - arcs[k]) * scale for k in range(pick)]), probes


def _linear_field(x, y):
    return 0.3 + 0.02 * np.asarray(x)


# domains whose boundary march the lockstep march must reproduce
MARCH_DOMAINS = {
    "graded-plate": lambda: QUADTREE_FIELDS["graded-plate"]()[0],
    "curvature": lambda: QUADTREE_FIELDS["curvature"]()[0],
    # the benchmark's plate geometry with its hole, at its constant radius
    "plate": lambda: plane_domain(PipelineConfig(
        holes=[(10.0, 5.0, 2.0)], r_min=0.38, r_max=0.38)),
    # a 0.2-long edge under radii of about 0.38: a single step
    "short-edge": lambda: PackingDomain(
        outer=np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 0.2], [0.0, 3.0]]),
        sizing=_linear_field),
}


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

    @pytest.mark.parametrize("case", sorted(MARCH_DOMAINS))
    def test_lockstep_march_equals_scalar_march(self, case):
        domain = MARCH_DOMAINS[case]()
        a, b = loop_edges(domain)
        want = [scalar_march_edge(domain, *p, *q)[0] for p, q in zip(a.tolist(), b.tolist())]
        marched, start_r = packing._march_edges(domain)
        assert marched == want
        # the first step's radius at each start corner, as pack_boundary's
        # perimeter check reads it
        assert start_r.tolist() == [float(domain.sizing(*p)) for p in a.tolist()]

    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_march_stops_every_edge_at_the_step_cap(self, monkeypatch, cap):
        # a 10 x 1 plate at radius 0.05 takes 100 steps on a long edge and
        # 10 on a short one: every edge stops at exactly `cap` steps,
        # rescaled to end on its far corner
        monkeypatch.setattr(packing, "_MAX_MARCH_STEPS", cap)
        domain = PackingDomain(
            outer=np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 1.0], [0.0, 1.0]]),
            sizing=lambda x, y: 0.05)
        a, b = loop_edges(domain)
        marched, _ = packing._march_edges(domain)
        assert [len(steps) for _, steps in marched] == [cap] * 4
        for length, steps in marched:
            assert sum(steps) == pytest.approx(length, rel=1e-12)
        want = [scalar_march_edge(domain, *p, *q)[0] for p, q in zip(a.tolist(), b.tolist())]
        assert marched == want

    @pytest.mark.parametrize("field", ["graded-plate", "curvature"])
    def test_radii_from_one_sizing_call_per_loop(self, field):
        domain, _ = QUADTREE_FIELDS[field]()
        field_fn = domain.sizing
        a, b = loop_edges(domain)
        probes = [scalar_march_edge(domain, *p, *q)[1] for p, q in zip(a.tolist(), b.tolist())]
        batches = []

        def recorded(x, y):
            if np.ndim(x):
                batches.append(np.column_stack([np.ravel(x), np.ravel(y)]).tolist())
            return field_fn(x, y)

        domain.sizing = recorded
        bubbles = pack_boundary(domain)
        # the march makes two array calls per step of its longest edge; the
        # k-th holds the k-th probe of every edge still marching, in edge
        # order. Then the radii come from one array call per loop, equal to
        # scalar calls bit for bit.
        most = max(len(p) for p in probes) // 2
        assert len(batches) == 2 * most + len(domain.loops())
        assert batches[:2 * most] == [[p[k] for p in probes if k < len(p)]
                                      for k in range(2 * most)]
        assert sum(batches[2 * most:], []) == [[b.x, b.y] for b in bubbles]
        assert [b.radius for b in bubbles] == [float(field_fn(b.x, b.y)) for b in bubbles]


def sequential_interpolation(x, y, anchors):
    """Inverse-square-distance anchor radius summed one anchor at a time: the
    reference for interpolate_radius up to rounding."""
    wsum = rsum = 0.0
    for a in anchors:
        d2 = (x - a.x) ** 2 + (y - a.y) ** 2
        if d2 < 1e-24:
            return a.radius
        w = 1.0 / d2
        wsum += w
        rsum += w * a.radius
    return rsum / wsum


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
        with pytest.raises(PackingError):
            interpolate_radius(np.zeros(3), np.zeros(3), [])

    @pytest.mark.parametrize("bound", [None, lambda x, y: 0.3,
                                       lambda x, y: 0.2 + 0.02 * np.asarray(x)],
                             ids=["none", "scalar-bound", "array-bound"])
    def test_arrays_equal_pointwise_calls_bit_for_bit(self, bound):
        rng = np.random.default_rng(11)
        anchors = [Bubble(float(x), float(y), float(r), BOUNDARY)
                   for (x, y), r in zip(rng.uniform(0, 10, (40, 2)), rng.uniform(0.1, 0.5, 40))]
        # a second anchor on the fourth: a point there takes the first's radius
        anchors.append(Bubble(anchors[3].x, anchors[3].y, 0.77, BOUNDARY))
        xs, ys = rng.uniform(-1, 11, (2, 5, 7))
        xs[0, :2], ys[0, :2] = (anchors[3].x, anchors[9].x), (anchors[3].y, anchors[9].y)
        got = interpolate_radius(xs, ys, anchors, bound)
        want = [[interpolate_radius(x, y, anchors, bound) for x, y in zip(*row)]
                for row in zip(xs.tolist(), ys.tolist())]
        assert got.shape == xs.shape and got.tolist() == want
        if bound is None:
            assert got[0, :2].tolist() == [anchors[3].radius, anchors[9].radius]
            # the running sums of a loop over the anchors round differently
            assert got.ravel().tolist() == pytest.approx(
                [sequential_interpolation(x, y, anchors) for x, y in zip(xs.flat, ys.flat)],
                rel=1e-13)


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
        nbrs = loop_vertex_neighbors(mesh)
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
        pts = np.array([[b.x, b.y] for b in interior])
        radii = np.array([b.radius for b in interior])
        i, j = np.triu_indices(len(interior), 1)
        l = np.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])
        assert overlap_ratio(l, radii[i], radii[j]).max() <= 1.0 + 1e-9

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
            return 0.2 + 0.08 * np.hypot(x - 5.0, y - 5.0)

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


def recursive_corners(domain, gaps=None):
    """The quadtree as a depth-first recursion with one scalar sizing call
    per probe, corners deduplicated in a dict in emission order: the oracle
    for the level-by-level `_quadtree_corners`. With `gaps`, a cell whose
    bounding box meets no triangle's bounding box is pruned. Returns the
    corners and the (n,2) probe points."""
    probes = []
    boxes = [] if gaps is None else list(zip(gaps.min(axis=1).tolist(), gaps.max(axis=1).tolist()))

    def sizing(x, y):
        probes.append((x, y))
        return float(domain.sizing(x, y))

    lo, hi = domain.bbox()
    width = float(hi[0] - lo[0])
    height = float(hi[1] - lo[1])
    pad = 0.013761 * max(width, height)
    shear_reach = (height + 2 * pad) / math.sqrt(3.0)
    ox = float(lo[0]) - pad - shear_reach
    oy = float(lo[1]) - pad
    size = max(width + 2 * pad + shear_reach,
               (height + 2 * pad) * 2.0 / math.sqrt(3.0))
    probe = np.linspace(0.0, 1.0, 5)
    rb_ref = max(sizing(float(lo[0] + tx * width), float(lo[1] + ty * height))
                 for tx in probe for ty in probe)
    spacing = 2.0 * rb_ref
    size = spacing * 2.0 ** max(0, math.ceil(math.log2(size / spacing)))
    unit = size / 2.0 ** _MAX_DEPTH
    corners = {}
    bx0, by0 = float(lo[0]), float(lo[1])
    bx1, by1 = float(hi[0]), float(hi[1])

    def emit(i, j, d):
        key = (i << (_MAX_DEPTH - d), j << (_MAX_DEPTH - d))
        if key not in corners:
            p = key[0] * unit
            q = key[1] * unit
            corners[key] = (ox + p + _SHEAR[0] * q, oy + _SHEAR[1] * q)

    def recurse(i, j, d):
        s = size / 2.0 ** d
        p = i * s
        q = j * s
        xs = ox + p + _SHEAR[0] * q
        ys = oy + _SHEAR[1] * q
        if xs > bx1 or xs + 1.5 * s < bx0 or ys > by1 or ys + _SHEAR[1] * s < by0:
            return
        if gaps is not None and not any(
                lo[0] <= xs + 1.5 * s and hi[0] >= xs and lo[1] <= ys + _SHEAR[1] * s
                and hi[1] >= ys for lo, hi in boxes):
            return
        cx = xs + 0.5 * s + _SHEAR[0] * 0.5 * s
        cy = ys + _SHEAR[1] * 0.5 * s
        rb = min(sizing(cx, cy),
                 sizing(xs, ys),
                 sizing(xs + s, ys),
                 sizing(xs + _SHEAR[0] * s, ys + _SHEAR[1] * s),
                 sizing(xs + (1.0 + _SHEAR[0]) * s, ys + _SHEAR[1] * s))
        if s > 2.0 * rb * (1.0 + _SPLIT_SLACK) and d < _MAX_DEPTH:
            recurse(2 * i, 2 * j, d + 1)
            recurse(2 * i + 1, 2 * j, d + 1)
            recurse(2 * i, 2 * j + 1, d + 1)
            recurse(2 * i + 1, 2 * j + 1, d + 1)
        else:
            emit(i, j, d)
            emit(i + 1, j, d)
            emit(i, j + 1, d)
            emit(i + 1, j + 1, d)

    recurse(0, 0, 0)
    return np.array(list(corners.values())), np.array(probes)


def _cap_fill_domain():
    flat = flatten(cap_mesh(rings=7)).flat
    anchors = reconstruct_boundary_bubbles(flat) + reconstruct_interior_bubbles(flat)
    return flat_domain(flat, anchors)


def _cap_fill_domain_and_gaps():
    # every third face of the stretched cap as a gap: a pruned quadtree
    flat = flatten(cap_mesh(rings=7)).flat
    anchors = reconstruct_boundary_bubbles(flat) + reconstruct_interior_bubbles(flat)
    return flat_domain(flat, anchors), flat.vertices[flat.faces[::3]]


# (domain, gaps) of each field
QUADTREE_FIELDS = {
    "constant": lambda: (square_domain(side=9.0, radius=0.5), None),
    "graded-plate": lambda: (plane_domain(PipelineConfig(
        holes=[(10.0, 5.0, 2.0)], r_min=0.13, r_max=0.4, graded=True, grade_band=3.5)), None),
    "anchor-sizing": lambda: (_cap_fill_domain(), None),
    "anchor-sizing-gaps": _cap_fill_domain_and_gaps,
    "curvature": lambda: (PackingDomain(
        outer=np.array([[0.0, 1.07], [0.7, 1.07], [0.7, 1.57], [0.0, 1.57]]),
        sizing=radius_bound_evaluator(sphere_patch(u0=0.0, u1=0.7, v0=1.07, v1=1.57),
                                      SizingParams(2e-4, 1e-5, 10.0))), None),
}


class TestQuadtreeCorners:
    @pytest.mark.parametrize("field", sorted(QUADTREE_FIELDS))
    def test_matches_recursive_oracle(self, field):
        domain, gaps = QUADTREE_FIELDS[field]()
        ref, ref_probes = recursive_corners(domain, gaps)
        probes = []
        field_fn = domain.sizing

        def recorded(x, y):
            probes.append(np.column_stack([np.ravel(x), np.ravel(y)]))
            return field_fn(x, y)

        domain.sizing = recorded
        pts = _quadtree_corners(domain, gaps)
        # same corners in the same order; the same probe points, in one call
        # per level plus the root-size probe
        assert np.array_equal(pts, ref)
        assert 3 <= len(probes) <= _MAX_DEPTH + 2
        probes = np.concatenate(probes)
        assert np.array_equal(probes[np.lexsort(probes.T)], ref_probes[np.lexsort(ref_probes.T)])

    @pytest.mark.parametrize("field", ["constant", "curvature"])
    def test_uniform_field_packs_at_the_root_spacing(self, field, thin_counts):
        # the curvature field (a sphere patch) is constant in exact
        # arithmetic but spreads by ~1e-8 relative in floating point: no
        # cell may split on that noise, so the leaf rows sit at the tangent
        # spacing of the root and thinning drops nothing
        domain, _ = QUADTREE_FIELDS[field]()
        lo, hi = domain.bbox()
        tx, ty = np.meshgrid(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5))
        rb_ref = float(np.max(domain.sizing(lo[0] + tx * (hi[0] - lo[0]),
                                            lo[1] + ty * (hi[1] - lo[1]))))
        rows = np.unique(_quadtree_corners(domain)[:, 1])
        assert np.diff(rows) == pytest.approx(2.0 * rb_ref * _SHEAR[1], rel=1e-9)
        interior = pack_interior_quadtree(domain, pack_boundary(domain))
        assert thin_counts == [(len(interior), len(interior))]

    def test_a_dip_beyond_the_slack_still_splits(self):
        # the bound is 1e-4 lower left of x = 3: cells there split once more
        domain = PackingDomain(
            outer=np.array([[0.0, 0.0], [9.0, 0.0], [9.0, 9.0], [0.0, 9.0]]),
            sizing=lambda x, y: np.where(np.asarray(x) < 3.0, 0.5 * (1.0 - 1e-4), 0.5))
        pts = _quadtree_corners(domain)
        for region, side in ((pts[:, 0] < 1.0, 0.5), (pts[:, 0] > 5.0, 1.0)):
            rows = np.unique(pts[region, 1])
            assert np.diff(rows) == pytest.approx(side * _SHEAR[1], rel=1e-9)

    def test_chunking_never_changes_a_row(self, rng, monkeypatch):
        pts = rng.uniform(0.0, 5.0, size=(400, 2))
        radii = rng.uniform(0.1, 0.3, size=400)
        anchors = [Bubble(float(x), float(y), float(r), BOUNDARY)
                   for (x, y), r in zip(rng.uniform(0.0, 5.0, size=(90, 2)),
                                        rng.uniform(0.1, 0.4, size=90))]
        pts[0] = anchors[3].x, anchors[3].y  # exact hit
        segs = square_domain(side=5.0).segments

        def run():
            return (_interpolate_radii_batch(pts, anchors),
                    _anchor_overlap_below(pts, radii, anchors, 0.4),
                    _inside_any_anchor(pts, anchors),
                    *nearest_segments(pts, segs))

        whole = run()
        monkeypatch.setattr(packing, "_CHUNK_ELEMENTS", 7 * 90)
        monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", 7 * 90)
        for a, b in zip(whole, run()):
            assert np.array_equal(a, b)
        assert whole[0][0] == anchors[3].radius
        # the k-d tree anchor tests give the verdicts of the dense
        # expressions over every anchor, for a negative limit too
        ax, ay, ar = (np.array([getattr(a, k) for a in anchors]) for k in ("x", "y", "radius"))
        d2 = (pts[:, 0, None] - ax[None, :]) ** 2 + (pts[:, 1, None] - ay[None, :]) ** 2
        assert np.array_equal(whole[2], np.any(d2 < ar[None, :] ** 2, axis=1))
        ov = (radii[:, None] + ar[None, :] - np.sqrt(d2)) / np.minimum(radii[:, None], ar[None, :])
        for limit, k in ((0.4, 90), (-1.0, 10)):
            want = ov[:, :k].max(axis=1) <= limit
            assert np.array_equal(_anchor_overlap_below(pts, radii, anchors[:k], limit), want)
            assert 0 < want.sum() < len(pts)


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
    def test_contains_points_matches_contains(self, rng):
        domain = plane_domain(PipelineConfig(holes=[(5.0, 5.0, 2.0), (14.0, 4.0, 1.5)]))
        pts = np.concatenate([rng.uniform(-1.0, 21.0, size=(2000, 2)), domain.outer,
                              *domain.holes, domain.holes[1] + 1e-3])
        want = [point_in_polygon(x, y, domain.outer)
                and not any(point_in_polygon(x, y, h) for h in domain.holes)
                for x, y in pts.tolist()]
        assert np.array_equal(domain.contains_points(pts), want)
        assert 0 < sum(want) < len(pts)

    def test_outer_must_be_ccw(self):
        outer = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(PackingError, match="counterclockwise"):
            PackingDomain(outer=outer, holes=[])

    def test_holes_must_be_cw(self):
        outer = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
        ccw_hole = np.array([[4.0, 4.0], [6.0, 4.0], [6.0, 6.0], [4.0, 6.0]])
        with pytest.raises(PackingError, match="clockwise"):
            PackingDomain(outer=outer, holes=[ccw_hole])

    @pytest.mark.parametrize("outer,hole,named", [
        # a repeated corner: the CDT would meet two boundary bubbles there
        ([[0.0, 0.0], [4.0, 0.0], [4.0, 0.0], [4.0, 3.0], [0.0, 3.0]], None,
         "outer loop repeats vertex 1 at (4.0, 0.0) as vertex 2"),
        # the same plate closed with its first vertex
        ([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [0.0, 3.0], [0.0, 0.0]], None,
         "outer loop repeats vertex 0 at (0.0, 0.0) as vertex 4"),
        # a repeated corner of a hole
        ([[0.0, 0.0], [10.0, 0.0], [10.0, 8.0], [0.0, 8.0]],
         [[3.0, 2.0], [3.0, 6.0], [3.0, 6.0], [7.0, 6.0], [7.0, 2.0]],
         "hole 0 repeats vertex 1 at (3.0, 6.0) as vertex 2"),
        # a loop that touches itself away from its neighbours
        ([[0.0, 0.0], [4.0, 0.0], [2.0, 2.0], [4.0, 4.0], [0.0, 4.0], [2.0, 2.0]], None,
         "outer loop repeats vertex 2 at (2.0, 2.0) as vertex 5"),
    ], ids=["outer", "first-is-last", "hole", "pinched"])
    def test_repeated_vertex_rejected(self, outer, hole, named):
        with pytest.raises(PackingError, match=re.escape(named)):
            PackingDomain(outer=np.array(outer), holes=[] if hole is None else [np.array(hole)])

    def test_segment_too_short_to_square_rejected(self):
        # distinct vertices 1e-170 apart: the segment's squared length
        # underflows to 0, which every distance pass would divide by
        outer = np.array([[0.0, 0.0], [1e-170, 0.0], [4.0, 0.0], [4.0, 3.0], [0.0, 3.0]])
        with pytest.raises(PackingError, match=re.escape("segment 0 at (0.0, 0.0) is too short")):
            PackingDomain(outer=outer)

    def test_segment_table_of_every_loop(self):
        # one row per edge, the outer loop first, each from a corner to the
        # next; each loop's rows start where the loops before it end
        domain = plane_domain(PipelineConfig(holes=[(5.0, 5.0, 2.0), (14.0, 4.0, 1.5)]))
        a, b = loop_edges(domain)
        s = domain.segments
        assert np.array_equal(np.column_stack([s.ax, s.ay]), a)
        assert np.array_equal(np.column_stack([s.vx, s.vy]), b - a)
        assert np.array_equal(s.by, b[:, 1])
        sizes = [len(loop) for loop in domain.loops()]
        assert domain.loop_start == [0, sizes[0], sizes[0] + sizes[1]]
