"""Initial bubble placement: boundary packing, interior quadtree packing and
anchor-based radius interpolation.

Interior candidates come from a quadtree over rhombic (60-degree sheared)
coordinates whose leaf corners tile a triangular lattice, so a uniformly
sized region packs tangentially with vertex degree 6.

A domain's sizing field is a callable `sizing(xs, ys) -> ndarray`: it takes
equal-shape coordinate arrays (or scalars) and returns the bubble-radius
bound at every point, as an array that broadcasts to their shape (a
constant field may return a scalar). Packing evaluates it in batches: two
calls per step of the boundary march, over every edge of every loop at
once, one per boundary loop for the boundary radii and one per quadtree
level.
A domain derives its boundary segments once, at construction, as the
`geometry.Segments` table `PackingDomain.segments`: the march takes its
edges' lengths and directions from it, distances to the walls come from
`geometry.nearest_segments` over it, and the inside test from one
`geometry.odd_crossings` pass over it. No loop may repeat a vertex, so no
segment has zero length.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (_CHUNK_ELEMENTS, ROUNDING_MARGIN, nearest_segments,
                       odd_crossings, polygon_signed_area, segment_table)

BOUNDARY = "boundary"
INTERIOR_ANCHOR = "interior-anchor"
MOBILE = "mobile"

_SHEAR = (0.5, math.sqrt(3.0) / 2.0)  # second lattice basis vector
_MAX_DEPTH = 24
# a quadtree cell splits only when wider than twice its radius bound by more
# than this relative slack (see `_quadtree_corners`)
_SPLIT_SLACK = 1e-6


class PackingError(Exception):
    pass


def overlap_ratio(l, r_i, r_j):
    """(r_i + r_j - l) / min(r_i, r_j) of bubbles whose centres lie l apart
    (scalars or arrays): 0 at tangency, negative when separated."""
    return (r_i + r_j - l) / np.minimum(r_i, r_j)


@dataclass
class Bubble:
    """A 2D circle standing in for a prospective mesh vertex."""

    x: float
    y: float
    radius: float
    kind: str = MOBILE


@dataclass
class PackingDomain:
    """Planar region bounded by a CCW outer polyline and CW hole polylines,
    none of which repeats a vertex, with an array-valued bubble-radius bound
    `sizing(xs, ys) -> ndarray`. `segments` is the `geometry.Segments` table
    of every loop's edges, from each corner to the next, built once, and
    loop k's edges start at row `loop_start[k]`."""

    outer: np.ndarray
    holes: list[np.ndarray] = field(default_factory=list)
    sizing: Callable[[np.ndarray, np.ndarray], np.ndarray] = \
        lambda x, y: np.ones(np.broadcast(x, y).shape)

    def __post_init__(self):
        self.outer = np.asarray(self.outer, dtype=float).reshape(-1, 2)
        self.holes = [np.asarray(h, dtype=float).reshape(-1, 2) for h in self.holes]
        names = ["outer loop"] + [f"hole {k}" for k in range(len(self.holes))]
        for name, loop in zip(names, self.loops()):
            seen: dict[tuple[float, float], int] = {}
            for i, vertex in enumerate(map(tuple, loop.tolist())):
                if not all(map(math.isfinite, vertex)):  # NaN passes the area checks
                    raise PackingError(f"{name} vertex {i} at {vertex} is not finite")
                if (j := seen.setdefault(vertex, i)) != i:
                    raise PackingError(f"{name} repeats vertex {j} at {vertex} as vertex {i}")
        if polygon_signed_area(self.outer) <= 0:
            raise PackingError("outer boundary must be counterclockwise")
        for h in self.holes:
            if polygon_signed_area(h) >= 0:
                raise PackingError("holes must be clockwise")
        self.segments = s = segment_table(np.concatenate(
            [np.column_stack([loop, np.roll(loop, -1, axis=0)]) for loop in self.loops()]))
        self.loop_start = np.cumsum([0] + [len(loop) for loop in self.loops()[:-1]]).tolist()
        if not s.length2.all():  # distinct vertices whose squared distance underflows
            k = int(np.argmin(s.length2))
            raise PackingError(f"boundary segment {k} at {(float(s.ax[k]), float(s.ay[k]))} "
                               "is too short")

    def loops(self) -> list[np.ndarray]:
        return [self.outer] + list(self.holes)

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Which of the (n,2) points lie inside the outer loop and outside
        every hole: one even-odd pass over the segment table, with an odd
        crossing count of the outer loop and an even one of every hole
        (boundary points are unreliable)."""
        odd = odd_crossings(points, self.segments, self.loop_start)
        return odd[:, 0] & ~odd[:, 1:].any(axis=1)

    def bbox(self):
        lo = self.outer.min(axis=0)
        hi = self.outer.max(axis=0)
        return lo, hi


def interpolate_radius(x, y, anchors: list[Bubble],
                       bound: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None):
    """Inverse-square-distance weighted anchor radius (the radius of the first
    anchor a point hits), clamped by the radius bound. Takes scalars or
    equal-shape arrays and returns values of their shape: the rows of
    `_interpolate_radii`, so a batch gives exactly the pointwise results."""
    if not anchors:
        raise PackingError("no anchor bubbles to interpolate from")
    x, y = np.broadcast_arrays(x, y)
    pts = np.column_stack([np.ravel(x), np.ravel(y)])
    r = _interpolate_radii(pts, *_anchor_arrays(anchors)).reshape(x.shape)[()]
    return r if bound is None else np.minimum(r, bound(x, y))


def _anchor_arrays(anchors: list[Bubble]):
    """The anchors' x, y and radius as three arrays."""
    return (np.array([a.x for a in anchors]), np.array([a.y for a in anchors]),
            np.array([a.radius for a in anchors]))


def _interpolate_radii_batch(points: np.ndarray, anchors: list[Bubble]) -> np.ndarray:
    """Vectorized inverse-square-distance interpolation at (n,2) points."""
    return _interpolate_radii(points, *_anchor_arrays(anchors))


def _interpolate_radii(points: np.ndarray, ax: np.ndarray, ay: np.ndarray,
                       ar: np.ndarray) -> np.ndarray:
    """`_interpolate_radii_batch` over anchors given as x, y and radius arrays.
    The (points x anchors) terms of a chunk live in two buffers that every
    chunk reuses."""
    out = np.empty(len(points))
    chunk = max(1, _CHUNK_ELEMENTS // max(len(ax), 1))
    buf = np.empty((2, min(chunk, len(points)), len(ax)))
    for start in range(0, len(points), chunk):
        p = points[start:start + chunk]
        w, t = buf[:, :len(p)]
        # d2 = dx ** 2 + dy ** 2, then w = 1 / max(d2, 1e-24)
        np.square(np.subtract(p[:, :1], ax, out=w), out=w)
        np.square(np.subtract(p[:, 1:], ay, out=t), out=t)
        np.add(w, t, out=w)
        hit = w < 1e-24
        np.divide(1.0, np.maximum(w, 1e-24, out=w), out=w)
        vals = np.multiply(w, ar, out=t).sum(axis=1) / w.sum(axis=1)
        rows = np.any(hit, axis=1)
        if np.any(rows):
            vals[rows] = ar[np.argmax(hit[rows], axis=1)]
        out[start:start + chunk] = vals
    return out


# an edge stops marching after this many steps, even short of its far corner
_MAX_MARCH_STEPS = 99_999

# adjacent boundary intervals may differ by at most this ratio; steeper
# sizing slopes would leave edges longer than their reconstruction radii
# and pin wall slivers after flattening
BOUNDARY_GRADATION = 1.25


def pack_boundary(domain: PackingDomain) -> list[Bubble]:
    """Place boundary bubbles along every loop, tangent within tolerance.

    Polyline corners always receive a bubble. Each edge is marched at the
    local tangent spacing and rescaled so the march ends on the far corner
    (pure recursive halving quantizes spacing to length/2^k, which can land
    near half the tangent spacing and freeze an over-dense wall row).
    Interval gradation is then limited cyclically around the whole loop,
    corners included. Output is ordered along the outer loop, then along
    each hole.
    """
    marched, start_r = _march_edges(domain)
    segs = domain.segments
    # each edge's unit direction: its inward normal turned back clockwise
    ux, uy = segs.ny, -segs.nx
    out: list[Bubble] = []
    bounds = [*domain.loop_start, len(segs.ax)]
    for first, end in zip(bounds, bounds[1:]):
        if segs.length[first:end].sum() < 2.0 * start_r[first]:
            raise PackingError("boundary too small for sizing")
        edges = marched[first:end]
        _limit_loop_gradation(edges)
        # corners and march positions in loop order, then one sizing call
        pos = []
        for k, (_, steps) in zip(range(first, end), edges):
            ax, ay = float(segs.ax[k]), float(segs.ay[k])
            pos.append((ax, ay))
            s = 0.0
            for step in steps[:-1]:
                s += step
                pos.append((ax + ux[k] * s, ay + uy[k] * s))
        radii = _sizing_at(domain, *np.array(pos).T)
        out += [Bubble(x, y, float(r), BOUNDARY) for (x, y), r in zip(pos, radii)]
    return out


def _march_edges(domain) -> tuple[list, np.ndarray]:
    """March every edge of the domain's segment table from its start at its
    local tangent spacing, all edges in lockstep; returns (length, steps)
    per edge with steps summing exactly to length, and the radius at each
    edge's start from its first step.

    A step from arc position s takes the radius r at s and the radius at
    the look-ahead min(s + 2r, length): one sizing call per half-step over
    every edge still short of its far corner and of `_MAX_MARCH_STEPS`. Each
    edge then keeps the step count, overshooting its corner or stopping one
    step short, whose uniform rescale factor is closer to 1."""
    segs = domain.segments
    length = segs.length
    s = np.zeros(len(length))
    arcs = [s]
    count = np.zeros(len(length), dtype=np.int64)
    live = np.arange(len(length))
    while len(live):
        # the unit direction is the inward normal turned back clockwise
        ax, ay, ux, uy = segs.ax[live], segs.ay[live], segs.ny[live], -segs.nx[live]
        end, here = length[live], s[live]
        r = _sizing_at(domain, ax + ux * here, ay + uy * here)
        if len(arcs) == 1:
            start_r = r
        ahead = np.minimum(here + 2.0 * r, end)
        s = s.copy()
        s[live] = here + r + _sizing_at(domain, ax + ux * ahead, ay + uy * ahead)
        arcs.append(s)
        count[live] += 1
        live = live[(s[live] < end) & (len(arcs) <= _MAX_MARCH_STEPS)]
    out = []
    for ln, over, arc in zip(length.tolist(), count.tolist(), np.array(arcs).T.tolist()):
        pick = over
        if over >= 2 and abs(ln / arc[over - 1] - 1.0) < abs(ln / arc[over] - 1.0):
            pick = over - 1
        scale = ln / arc[pick]
        out.append((ln, [(arc[k + 1] - arc[k]) * scale for k in range(pick)]))
    return out, start_r


def _limit_loop_gradation(edges) -> None:
    """Cap adjacent interval ratios at BOUNDARY_GRADATION cyclically around
    a loop, renormalizing each edge to its length between capping rounds."""
    for _ in range(12):
        seq = []
        for ei, (_, steps) in enumerate(edges):
            seq.extend((ei, si) for si in range(len(steps)))
        values = [edges[ei][1][si] for ei, si in seq]
        changed = False
        for k in range(len(values)):
            prev = values[(k - 1) % len(values)]
            if values[k] > BOUNDARY_GRADATION * prev * (1.0 + 1e-12):
                values[k] = BOUNDARY_GRADATION * prev
                changed = True
        for k in range(len(values) - 1, -1, -1):
            nxt = values[(k + 1) % len(values)]
            if values[k] > BOUNDARY_GRADATION * nxt * (1.0 + 1e-12):
                values[k] = BOUNDARY_GRADATION * nxt
                changed = True
        if not changed:
            return
        for (ei, si), val in zip(seq, values):
            edges[ei][1][si] = val
        for length, steps in edges:
            factor = length / sum(steps)
            steps[:] = [step * factor for step in steps]


def pack_interior_quadtree(domain: PackingDomain, anchors: list[Bubble],
                           max_anchor_overlap: float | None = None,
                           gaps: np.ndarray | None = None) -> list[Bubble]:
    """Fill the domain interior with mobile bubbles on an adaptive rhombic lattice.

    A quadtree over sheared coordinates subdivides cells until the rhombus
    side matches the local tangent spacing; leaf corners become candidates.
    Candidates are kept when strictly inside the domain, not center-inside
    any anchor, and not degenerate-close to the boundary. Radii come from
    anchor interpolation clamped by the domain sizing. An empty result
    warns in primary packing only: gap filling that finds no gap is a
    normal outcome.

    Gap-filling mode (max_anchor_overlap given) expects the domain's
    sizing to be the anchors' interpolation (`remesh.anchor_sizing`), which
    then alone gives the radii, and also rejects candidates whose pairwise
    overlap with any anchor exceeds max_anchor_overlap (occupied regions
    stay untouched). There `gaps`, when given, holds (m,3,2) triangles
    outside which no candidate can pass the anchor tests (the face-cover
    certificate of `remesh.fill_gaps`): the quadtree searches only cells
    whose closed bounding box meets the bounding box of one of them, and is
    skipped when there are none. A pruned cell has no surviving corner, so
    the survivors and their order are those of the full search.
    """
    if gaps is not None and not len(gaps):
        return _no_room(max_anchor_overlap)
    pts = _quadtree_corners(domain, gaps)
    keep = domain.contains_points(pts)
    if anchors:
        keep &= ~_inside_any_anchor(pts, anchors)
    lo, hi = domain.bbox()
    edge_eps = 1e-9 * math.hypot(*(hi - lo).tolist())
    keep &= nearest_segments(pts, domain.segments)[2] >= edge_eps ** 2
    kept = pts[keep]

    if not len(kept):
        return _no_room(max_anchor_overlap)
    radii = _sizing_at(domain, kept[:, 0], kept[:, 1])
    if anchors and max_anchor_overlap is None:
        radii = np.minimum(_interpolate_radii_batch(kept, anchors), radii)
    elif anchors:
        ok = _anchor_overlap_below(kept, radii, anchors, max_anchor_overlap)
        kept = kept[ok]
        radii = radii[ok]
    kept, radii = _self_thin(kept, radii)
    if not len(kept):
        return _no_room(max_anchor_overlap)
    return [Bubble(float(px), float(py), float(r), MOBILE)
            for (px, py), r in zip(kept, radii)]


def _quadtree_corners(domain: PackingDomain, gaps: np.ndarray | None = None) -> np.ndarray:
    """(n,2) leaf corners of the rhombic quadtree over the domain's bbox, in
    the order a depth-first traversal first reaches them. With `gaps`
    ((m,3,2) triangles), only cells whose closed bounding box meets the
    bounding box of one are kept."""
    lo, hi = domain.bbox()
    width = float(hi[0] - lo[0])
    height = float(hi[1] - lo[1])
    # sheared cover of the bbox; the small irrational-looking pad keeps
    # lattice points off exact boundary coordinates. The origin shifts left
    # by the shear of the topmost row so every row spans the full width.
    pad = 0.013761 * max(width, height)
    shear_reach = (height + 2 * pad) / math.sqrt(3.0)
    ox = float(lo[0]) - pad - shear_reach
    oy = float(lo[1]) - pad
    size = max(width + 2 * pad + shear_reach,
               (height + 2 * pad) * 2.0 / math.sqrt(3.0))
    # snap the root to a power-of-two multiple of the coarsest tangent
    # spacing so uniform regions pack exactly tangent instead of landing at
    # an arbitrary point of the halving sequence
    tx, ty = np.meshgrid(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5))
    rb_ref = float(_sizing_at(domain, lo[0] + tx * width, lo[1] + ty * height).max())
    spacing = 2.0 * rb_ref
    size = spacing * 2.0 ** max(0, math.ceil(math.log2(size / spacing)))

    # integer cell coordinates: cell (i, j) at depth d spans
    # [i, i+1] x [j, j+1] in units of size / 2^d; corners are deduplicated
    # on the integer lattice at _MAX_DEPTH so shared corners coincide exactly
    bx0, by0 = float(lo[0]), float(lo[1])
    bx1, by1 = float(hi[0]), float(hi[1])
    i = j = np.zeros(1, dtype=np.int64)
    if gaps is not None:
        # (cell, triangle) pairs whose closed bounding boxes meet, widened
        # by the rounding margin on the coordinate scale: a leaf corner in a
        # triangle keeps the pair of its leaf and of every ancestor
        eps = ROUNDING_MARGIN * max(abs(ox), abs(oy), size, float(np.abs(gaps).max()))
        g0, g1 = gaps.min(axis=1) - eps, gaps.max(axis=1) + eps
        pc, pf = np.zeros(len(gaps), dtype=np.int64), np.arange(len(gaps))
    # (no cell at all when every (cell, triangle) pair is gone at the root)
    leaf_i, leaf_j, leaf_step = ([np.zeros(0, dtype=np.int64)] for _ in range(3))
    # depth by depth over every live cell, one sizing call per depth
    for d in range(_MAX_DEPTH + 1):
        s = size / 2.0 ** d
        p = i * s
        q = j * s
        # physical parallelogram bbox of the cell, pruned against domain bbox
        xs = ox + p + _SHEAR[0] * q
        ys = oy + _SHEAR[1] * q
        live = ~((xs > bx1) | (xs + 1.5 * s < bx0) | (ys > by1) | (ys + _SHEAR[1] * s < by0))
        if gaps is not None:
            hit = (live[pc] & (g0[pf, 0] <= xs[pc] + 1.5 * s) & (g1[pf, 0] >= xs[pc])
                   & (g0[pf, 1] <= ys[pc] + _SHEAR[1] * s) & (g1[pf, 1] >= ys[pc]))
            pc, pf = pc[hit], pf[hit]
            live = np.zeros(len(i), dtype=bool)
            live[pc] = True
            pc = (np.cumsum(live) - 1)[pc]
        i, j, xs, ys = i[live], j[live], xs[live], ys[live]
        if not len(i):
            break
        cx = xs + 0.5 * s + _SHEAR[0] * 0.5 * s
        cy = ys + _SHEAR[1] * 0.5 * s
        # conservative bound: the finest demand anywhere in the cell governs,
        # so steep grading bands never underfill (excess density is the
        # quantity control's job; a deficit cannot be repaired)
        rb = _sizing_at(domain,
                        np.stack([cx, xs, xs + s, xs + _SHEAR[0] * s,
                                  xs + (1.0 + _SHEAR[0]) * s]),
                        np.stack([cy, ys, ys, ys + _SHEAR[1] * s,
                                  ys + _SHEAR[1] * s])).min(axis=0)
        # a field that is constant in exact arithmetic (a sphere's bound)
        # still spreads by ~1e-8 relative in floating point, and the root is
        # sized from the largest probe: without the slack, almost every cell
        # at the tangent depth would split once more on that noise alone,
        # and thinning would drop three in four of the doubled lattice. A
        # leaf up to the slack too wide changes the density by that much.
        split = (s > 2.0 * rb * (1.0 + _SPLIT_SLACK)) & (d < _MAX_DEPTH)
        shift = _MAX_DEPTH - d
        leaf_i.append(i[~split] << shift)
        leaf_j.append(j[~split] << shift)
        leaf_step.append(np.full(np.count_nonzero(~split), 1 << shift))
        if gaps is not None:
            # a split cell's pairs pass to its four children, in their order
            k = np.count_nonzero(split)
            pf = pf[split[pc]]
            pc = (np.cumsum(split) - 1)[pc[split[pc]]]
            pc = np.concatenate([pc, pc + k, pc + 2 * k, pc + 3 * k])
            pf = np.tile(pf, 4)
        i, j = 2 * i[split], 2 * j[split]
        i, j = np.concatenate([i, i + 1, i, i + 1]), np.concatenate([j, j, j + 1, j + 1])

    # leaves in depth-first order: children (2i, 2j), (2i+1, 2j), (2i, 2j+1),
    # (2i+1, 2j+1) make it the Morton order of the leaves' lattice corners,
    # i on the even bits. Lattice order matters: _self_thin is greedy in it.
    leaf_i, leaf_j, leaf_step = map(np.concatenate, (leaf_i, leaf_j, leaf_step))
    order = np.argsort(_morton(leaf_i, leaf_j), kind="stable")
    leaf_i, leaf_j, leaf_step = leaf_i[order], leaf_j[order], leaf_step[order]
    # corners (i, j), (i+1, j), (i, j+1), (i+1, j+1) of each leaf, first
    # occurrences kept
    ki = np.column_stack([leaf_i, leaf_i + leaf_step, leaf_i, leaf_i + leaf_step]).ravel()
    kj = np.column_stack([leaf_j, leaf_j, leaf_j + leaf_step, leaf_j + leaf_step]).ravel()
    _, first = np.unique(ki << (_MAX_DEPTH + 1) | kj, return_index=True)
    first.sort()
    unit = size / 2.0 ** _MAX_DEPTH
    p = ki[first] * unit
    q = kj[first] * unit
    return np.column_stack([ox + p + _SHEAR[0] * q, oy + _SHEAR[1] * q])


def _sizing_at(domain: PackingDomain, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The domain's sizing field at equal-shape points, broadcast to their
    shape (a constant field may return a scalar)."""
    return np.broadcast_to(domain.sizing(xs, ys), np.shape(xs))


def _morton(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Interleaved bits of non-negative integers below 2**_MAX_DEPTH:
    bit b of i goes to bit 2b, bit b of j to bit 2b + 1."""
    code = np.zeros(len(i), dtype=np.int64)
    for b in range(_MAX_DEPTH):
        code |= ((i >> b) & 1) << (2 * b) | ((j >> b) & 1) << (2 * b + 1)
    return code


def _no_room(max_anchor_overlap: float | None) -> list[Bubble]:
    if max_anchor_overlap is None:
        warnings.warn("no room for interior bubbles")
    return []


# quadtree leaf sizes quantize in (r, 2r]; thinning restores near-tangent
# density where grading makes adjacent leaves overshoot
SELF_OVERLAP_LIMIT = 0.45


def _self_thin(pts: np.ndarray, radii: np.ndarray):
    """Greedy pass accepting candidates in lattice order, dropping any that
    overlap an already-accepted candidate beyond SELF_OVERLAP_LIMIT.

    Exactly tangent uniform lattices pass through unchanged.
    """
    if not len(pts):
        return pts, radii
    # an overlap beyond the limit needs l < r_i + r_j <= 2 * max radius
    i, j = cKDTree(pts).query_pairs(2.0 * float(radii.max()), output_type="ndarray").T
    l = np.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])
    clash = overlap_ratio(l, radii[i], radii[j]) > SELF_OVERLAP_LIMIT
    # pairs come with i < j; taken in order of the later candidate j, the
    # earlier one's fate is already settled, and an accepted i rejects j
    i, j = i[clash], j[clash]
    order = np.argsort(j, kind="stable")
    rejected = [False] * len(pts)
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if not rejected[a]:
            rejected[b] = True
    accepted = [k for k, r in enumerate(rejected) if not r]
    return pts[accepted], radii[accepted]


def _anchor_pairs(pts: np.ndarray, ax: np.ndarray, ay: np.ndarray, reach: float):
    """Index pairs (point, anchor) of the (n,2) points and the anchors at
    (ax, ay) whose centres lie within `reach`, widened by the rounding margin
    on the coordinate scale: a superset of the pairs an exact per-pair test
    within `reach` can pick."""
    if not len(pts):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    centres = np.column_stack([ax, ay])
    scale = max(float(np.abs(pts).max()), float(np.abs(centres).max()))
    m = cKDTree(pts).sparse_distance_matrix(cKDTree(centres), reach + ROUNDING_MARGIN * scale,
                                            output_type="ndarray")
    return m["i"], m["j"]


def _anchor_overlap_below(pts: np.ndarray, radii: np.ndarray,
                          anchors: list[Bubble], limit: float) -> np.ndarray:
    """Whether each candidate's overlap ratio with every anchor stays at or
    below limit, tested on the k-d tree pairs that can exceed it."""
    ax, ay, ar = _anchor_arrays(anchors)
    ok = np.ones(len(pts), dtype=bool)
    if not len(pts):
        return ok
    r_max, a_max = float(radii.max()), float(ar.max())
    i, a = _anchor_pairs(pts, ax, ay, r_max + a_max + max(-limit, 0.0) * min(r_max, a_max))
    d = np.sqrt((pts[i, 0] - ax[a]) ** 2 + (pts[i, 1] - ay[a]) ** 2)
    ok[i[~(overlap_ratio(d, radii[i], ar[a]) <= limit)]] = False
    return ok


def _inside_any_anchor(pts: np.ndarray, anchors: list[Bubble]) -> np.ndarray:
    """Whether each point lies strictly inside an anchor's disk."""
    ax, ay, ar = _anchor_arrays(anchors)
    hit = np.zeros(len(pts), dtype=bool)
    i, a = _anchor_pairs(pts, ax, ay, float(ar.max()))
    d2 = (pts[i, 0] - ax[a]) ** 2 + (pts[i, 1] - ay[a]) ** 2
    hit[i[d2 < ar[a] ** 2]] = True
    return hit
