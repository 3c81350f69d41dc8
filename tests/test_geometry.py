import math
from fractions import Fraction

import numpy as np
import pytest

from bubblemesh import geometry
from bubblemesh.geometry import (hashed_unit_direction, incircle,
                                 nearest_segments, odd_crossings, orient2d,
                                 polygon_signed_area, segment_distances,
                                 segment_table)
from bubblemesh.packing import PackingDomain

from conftest import closest_point_on_segment, point_in_polygon


def exact_orient(ax, ay, bx, by, cx, cy):
    F = Fraction
    det = (F(ax) - F(cx)) * (F(by) - F(cy)) - (F(ay) - F(cy)) * (F(bx) - F(cx))
    return (det > 0) - (det < 0)


def exact_incircle(ax, ay, bx, by, cx, cy, dx, dy):
    F = Fraction
    adx, ady = F(ax) - F(dx), F(ay) - F(dy)
    bdx, bdy = F(bx) - F(dx), F(by) - F(dy)
    cdx, cdy = F(cx) - F(dx), F(cy) - F(dy)
    det = ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
           + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
           + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady))
    return (det > 0) - (det < 0)


@pytest.mark.parametrize("name", ["orient2d", "incircle"])
def test_exact_fallback_matches_rational_arithmetic(name):
    # the integer fallback against Fraction arithmetic, on the predicate
    # cases and on the same rows with every coordinate scaled by its own
    # power of two (2**-40 .. 2**40), so the common denominator varies
    rng = np.random.RandomState(8)
    rows = np.concatenate(list(predicate_cases(rng).values()))
    scaled = rows * 2.0 ** rng.randint(-40, 41, size=rows.shape)
    arity = 3 if name == "orient2d" else 4
    exact = getattr(geometry, f"_{name}_exact")
    reference = exact_orient if name == "orient2d" else exact_incircle
    for row in np.concatenate([rows, scaled])[:, :arity].reshape(-1, 2 * arity).tolist():
        assert exact(*row) == reference(*row)


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


def test_polygon_area_and_perimeter():
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    assert polygon_signed_area(square) == 4.0
    assert polygon_signed_area(square[::-1]) == -4.0
    # the perimeter is the sum of the segment table's lengths
    edges = np.column_stack([square, np.roll(square, -1, axis=0)])
    assert segment_table(edges).length.sum() == 8.0


def loop_table(loop):
    """The segment table of one closed loop, from each corner to the next."""
    return segment_table(np.column_stack([loop, np.roll(loop, -1, axis=0)]))


def test_point_in_polygon_agrees_with_batch(rng):
    poly = np.array([[0.0, 0.0], [4.0, 1.0], [5.0, 4.0], [2.0, 5.0], [-1.0, 3.0]])
    pts = rng.uniform(-2, 6, size=(500, 2))
    batch = odd_crossings(pts, loop_table(poly), [0])[:, 0]
    single = np.array([point_in_polygon(x, y, poly) for x, y in pts])
    assert np.array_equal(batch, single)


def points_in_polygon_edge_loop(points, pts):
    """One vector pass per polygon edge, flipping the points it crosses:
    the reference for the even-odd pass `odd_crossings`."""
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


def on_edges(loop, count=9):
    """`count` points along every edge of the loop, both corners included."""
    return np.array([a + t * (b - a) for a, b in zip(loop, np.roll(loop, -1, axis=0))
                     for t in np.linspace(0.0, 1.0, count)])


def test_points_in_polygon_matches_edge_loop(rng):
    # a non-convex polygon with horizontal and vertical edges and a CW hole
    # loop; the probes include every vertex and points on every edge
    poly = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [2.0, 1.5], [1.0, 3.0],
                     [1.0, 4.0], [-1.0, 2.5]])
    hole = np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
    for loop in (poly, hole):
        pts = np.concatenate([rng.uniform(-2.0, 5.0, size=(150_000, 2)), loop,
                              on_edges(loop), np.mgrid[-2:6, -2:6].reshape(2, -1).T])
        assert np.array_equal(odd_crossings(pts, loop_table(loop), [0])[:, 0],
                              points_in_polygon_edge_loop(pts, loop))


def test_contains_points_matches_per_loop_composition(rng):
    # a non-convex outer loop with a notch, and three CW holes: a triangle,
    # a square with horizontal edges and a 16-gon; one pass over the
    # domain's table against the even-odd test of each loop on its own.
    # The triangle's edges from y 0.7 to 2.9 and back have ay + vy != by
    angles = -2.0 * np.pi * np.arange(16) / 16
    holes = [np.array([[1.0, 0.7], [1.0, 2.9], [3.0, 0.7]]),
             np.array([[7.0, 1.0], [7.0, 3.0], [9.0, 3.0], [9.0, 1.0]]),
             np.column_stack([2.1 + 0.9 * np.cos(angles), 5.3 + 0.9 * np.sin(angles)])]
    outer = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 8.0], [6.0, 8.0], [5.0, 4.0],
                      [4.0, 8.0], [0.0, 8.0]])
    domain = PackingDomain(outer=outer, holes=holes)
    s = domain.segments
    assert not np.array_equal(s.ay + s.vy, s.by)
    corners = np.concatenate(domain.loops())
    rows = np.array([(x, y) for y in np.unique(corners[:, 1]).tolist()
                     for x in np.linspace(-1.0, 11.0, 25).tolist()])
    nan = [[np.nan, 4.0], [5.0, np.nan], [np.nan, np.nan]]
    pts = np.concatenate([rng.uniform(-1.0, 11.0, size=(30_000, 2)), corners, rows,
                          *map(on_edges, domain.loops()), nan])
    assert len(pts) > geometry._CHUNK_ELEMENTS // len(s.ax)
    want = points_in_polygon_edge_loop(pts, outer)
    for h in holes:
        want &= ~points_in_polygon_edge_loop(pts, h)
    got = domain.contains_points(pts)
    assert np.array_equal(got, want)
    assert 0 < np.count_nonzero(got) < len(pts) and not got[-3:].any()
    # the scalar test, one point at a time, on a subset
    pick = rng.choice(len(pts), 2000, replace=False)
    single = [point_in_polygon(x, y, outer)
              and not any(point_in_polygon(x, y, h) for h in holes)
              for x, y in pts[pick].tolist()]
    assert np.array_equal(got[pick], single)


def test_hashed_direction_unit_and_stable():
    ux, uy = hashed_unit_direction(3, 7, seed=42)
    assert math.hypot(ux, uy) == 1.0 or abs(math.hypot(ux, uy) - 1.0) < 1e-15
    assert (ux, uy) == hashed_unit_direction(3, 7, seed=42)
    assert (ux, uy) != hashed_unit_direction(7, 3, seed=42)


def nearest_segments_loop(points, segments):
    """One closest_point_on_segment call per point and segment, the first
    strict minimum kept: the reference for nearest_segments."""
    out = []
    for px, py in points.tolist():
        best = (-1, 0.0, math.inf)
        for si in range(len(segments)):
            _, _, d2, t = closest_point_on_segment(px, py, *segments[si].tolist())
            if d2 < best[2]:
                best = (si, t, d2)
        out.append(best)
    index, t, d2 = zip(*out)
    return np.array(index), np.array(t, dtype=float), np.array(d2, dtype=float)


def same_bits(a, b):
    """Equal arrays down to the sign of zero."""
    return a.shape == b.shape and np.array_equal(np.asarray(a, dtype=float).view(np.uint64),
                                                 np.asarray(b, dtype=float).view(np.uint64))


@pytest.fixture
def segment_case(rng):
    """Random segments plus exact ties: a repeated segment, parallel twins,
    two sharing a vertex, and segments whose direction is negative in both
    coordinates (their start points give t = -0.0 before clamping)."""
    segs = np.concatenate([
        rng.uniform(-3.0, 3.0, size=(30, 4)),
        [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0],     # the same segment twice
         [0.0, 2.0, 1.0, 2.0],                            # parallel to the first
         [1.0, 0.0, 1.0, 1.0],                            # shares (1, 0)
         [2.0, 2.0, 1.5, 1.0], [-1.0, -1.0, -2.0, -3.0]],
    ])
    ends = np.concatenate([segs[:, :2], segs[:, 2:]])
    pts = np.concatenate([
        rng.uniform(-4.0, 4.0, size=(700, 2)), ends,
        [[0.5, 1.0], [2.0, -1.0], [0.5, 0.5], [0.5, -0.5], [1.0, 0.5]],
        0.5 * (segs[:, :2] + segs[:, 2:]),
    ])
    return pts, segs


def test_nearest_segments_matches_scalar_loop(segment_case):
    pts, segs = segment_case
    got = nearest_segments(pts, segment_table(segs))
    want = nearest_segments_loop(pts, segs)
    assert np.array_equal(got[0], want[0])
    assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])
    # exact ties resolve to the first segment tested
    ties = nearest_segments([[0.5, -0.5], [2.0, -1.0], [1.5, 0.5]], segment_table(segs[30:]))
    assert ties[0].tolist() == [0, 0, 3] and ties[2].tolist() == [0.25, 2.0, 0.25]


def test_segment_distances_match_scalar_loop(segment_case):
    pts, segs = segment_case
    t, d2 = segment_distances(pts, segment_table(segs))
    want = np.array([[closest_point_on_segment(px, py, *seg)[3:1:-1] for seg in segs.tolist()]
                     for px, py in pts.tolist()])
    assert same_bits(t, want[..., 0]) and same_bits(d2, want[..., 1])


def test_nearest_segments_chunking_never_changes_a_row(segment_case, monkeypatch):
    pts, segs = segment_case
    table = segment_table(segs)
    whole = nearest_segments(pts, table)
    monkeypatch.setattr(geometry, "_CHUNK_ELEMENTS", 7 * len(segs))  # 7 rows a chunk
    for a, b in zip(whole, nearest_segments(pts, table)):
        assert same_bits(a, b)


def test_segment_table_columns_match_scalar_terms(segment_case):
    # each column is the scalar expression of its segment; the unit
    # direction (ny, -nx) is b - a over the length, bit for bit
    _, segs = segment_case
    table = segment_table(segs)
    want = []
    for ax, ay, bx, by in segs.tolist():
        vx, vy = bx - ax, by - ay
        length = math.hypot(vx, vy)
        want.append((ax, ay, vx, vy, vx * vx + vy * vy, length, -vy / length, vx / length,
                     by))
    assert all(same_bits(col, np.array(w)) for col, w in zip(table, zip(*want)))
    assert same_bits(table.ny, (segs[:, 2] - segs[:, 0]) / table.length)
    assert same_bits(-table.nx, (segs[:, 3] - segs[:, 1]) / table.length)


def predicate_cases(rng):
    """Blocks of rows of four points: random; nearly cocircular (points on a
    circle moved by 1e-15 of its radius); and, on an integer lattice, unit
    squares with their corners in CCW order (exactly cocircular), rows
    whose first three points lie on one line, exactly and, scaled by 0.1,
    nearly, and four coincident points."""
    centre = rng.uniform(-1e3, 1e3, size=(500, 1, 2))
    angle = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=(500, 4)), axis=1)
    i, j = np.meshgrid(np.arange(-5, 5), np.arange(-5, 5))
    corner = np.column_stack([i.ravel(), j.ravel()]).astype(float)[:, None, :]
    line = corner + np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [0.0, 1.0]])
    return {
        "random": rng.uniform(-10.0, 10.0, size=(500, 4, 2)),
        "near": centre + np.stack([np.cos(angle), np.sin(angle)], axis=2) * (
            1.0 + rng.choice([0.0, 1e-15, -1e-15], size=(500, 4, 1))),
        "square": corner + np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        "line": line,
        "near line": 0.1 * line,
        "coincident": np.repeat(corner, 4, axis=1),
    }


def recording(monkeypatch, name):
    """Replace geometry.<name> by a wrapper that records its arguments."""
    calls = []
    exact = getattr(geometry, name)

    def wrapper(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(geometry, name, wrapper)
    return calls


@pytest.mark.parametrize("name", ["orient2d", "incircle"])
def test_array_predicates_match_scalar_signs(rng, monkeypatch, name):
    blocks = predicate_cases(rng)
    rows = np.concatenate(list(blocks.values()))
    arity = 3 if name == "orient2d" else 4
    columns = [rows[:, k, d] for k in range(arity) for d in (0, 1)]
    scalar = getattr(geometry, name)
    exact = recording(monkeypatch, f"_{name}_exact")
    want = [scalar(*(float(c[r]) for c in columns)) for r in range(len(rows))]
    scalar_exact = list(exact)
    exact.clear()
    got = getattr(geometry, f"{name}_array")(*columns)
    assert got.dtype == np.int8
    assert got.tolist() == want
    # the rows the filter cannot decide, and only those, take the exact path
    assert exact == scalar_exact
    assert len(exact) >= 200
    sign = dict(zip(blocks, np.split(got, np.cumsum([len(b) for b in blocks.values()]))))
    zero = ["coincident", "square" if name == "incircle" else "line"]
    assert all(not sign[block].any() for block in zero)
