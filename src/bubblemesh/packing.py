"""Initial bubble placement: boundary packing, interior quadtree packing and
anchor-based radius interpolation.

Interior candidates come from a quadtree over rhombic (60-degree sheared)
coordinates whose leaf corners tile a triangular lattice, so a uniformly
sized region packs tangentially with vertex degree 6.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (closest_point_on_segment, point_in_polygon,
                       points_in_polygon, polygon_perimeter,
                       polygon_signed_area)

BOUNDARY = "boundary"
INTERIOR_ANCHOR = "interior-anchor"
MOBILE = "mobile"

# relative gap tolerance for boundary tangency, in units of the smaller radius
BOUNDARY_GAP_TOL = 0.1

_SHEAR = (0.5, math.sqrt(3.0) / 2.0)  # second lattice basis vector
_MAX_DEPTH = 24


class PackingError(Exception):
    pass


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
    with a pointwise bubble-radius bound."""

    outer: np.ndarray
    holes: list[np.ndarray] = field(default_factory=list)
    sizing: Callable[[float, float], float] = lambda x, y: 1.0

    def __post_init__(self):
        self.outer = np.asarray(self.outer, dtype=float).reshape(-1, 2)
        self.holes = [np.asarray(h, dtype=float).reshape(-1, 2) for h in self.holes]
        if polygon_signed_area(self.outer) <= 0:
            raise PackingError("outer boundary must be counterclockwise")
        for h in self.holes:
            if polygon_signed_area(h) >= 0:
                raise PackingError("holes must be clockwise")

    def loops(self) -> list[np.ndarray]:
        return [self.outer] + list(self.holes)

    def contains(self, x: float, y: float) -> bool:
        if not point_in_polygon(x, y, self.outer):
            return False
        return not any(point_in_polygon(x, y, h) for h in self.holes)

    def bbox(self):
        lo = self.outer.min(axis=0)
        hi = self.outer.max(axis=0)
        return lo, hi

    def all_segments(self) -> np.ndarray:
        """(S,4) array of boundary segments (ax, ay, bx, by) over all loops."""
        segs = []
        for loop in self.loops():
            nxt = np.roll(loop, -1, axis=0)
            segs.append(np.column_stack([loop, nxt]))
        return np.concatenate(segs)

    def project_inside(self, x: float, y: float, radius: float):
        """Nearest boundary point pushed inward by the given radius.

        Interior lies to the left of directed boundary segments (outer CCW,
        holes CW), so the inward offset uses the left normal.
        """
        best = (math.inf, x, y, 0.0, 0.0)
        for ax, ay, bx, by in self.all_segments():
            qx, qy, d2 = closest_point_on_segment(x, y, ax, ay, bx, by)
            if d2 < best[0]:
                ln = math.hypot(bx - ax, by - ay)
                if ln > 0.0:
                    nx, ny = -(by - ay) / ln, (bx - ax) / ln
                    best = (d2, qx, qy, nx, ny)
        _, qx, qy, nx, ny = best
        return qx + nx * radius, qy + ny * radius


def interpolate_radius(x: float, y: float, anchors: list[Bubble],
                       bound: Callable[[float, float], float] | None = None) -> float:
    """Inverse-square-distance weighted anchor radius, clamped by the radius bound."""
    if not anchors:
        raise PackingError("no anchor bubbles to interpolate from")
    wsum = 0.0
    rsum = 0.0
    r = None
    for a in anchors:
        d2 = (x - a.x) ** 2 + (y - a.y) ** 2
        if d2 < 1e-24:
            r = a.radius
            break
        w = 1.0 / d2
        wsum += w
        rsum += w * a.radius
    if r is None:
        r = rsum / wsum
    if bound is not None:
        r = min(r, bound(x, y))
    return r


def _interpolate_radii_batch(points: np.ndarray, anchors: list[Bubble]) -> np.ndarray:
    """Vectorized inverse-square-distance interpolation for many points."""
    ax = np.array([a.x for a in anchors])
    ay = np.array([a.y for a in anchors])
    ar = np.array([a.radius for a in anchors])
    out = np.empty(len(points))
    chunk = max(1, 2_000_000 // max(len(anchors), 1))
    for start in range(0, len(points), chunk):
        p = points[start:start + chunk]
        d2 = (p[:, 0, None] - ax[None, :]) ** 2 + (p[:, 1, None] - ay[None, :]) ** 2
        hit = d2 < 1e-24
        d2 = np.maximum(d2, 1e-24)
        w = 1.0 / d2
        vals = (w * ar[None, :]).sum(axis=1) / w.sum(axis=1)
        rows = np.any(hit, axis=1)
        if np.any(rows):
            vals[rows] = ar[np.argmax(hit[rows], axis=1)]
        out[start:start + chunk] = vals
    return out


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
    out: list[Bubble] = []
    for loop in domain.loops():
        perimeter = polygon_perimeter(loop)
        first_r = domain.sizing(float(loop[0, 0]), float(loop[0, 1]))
        if perimeter < 2.0 * first_r:
            raise PackingError("boundary too small for sizing")
        n = len(loop)
        edges = []
        for i in range(n):
            ax, ay = loop[i]
            bx, by = loop[(i + 1) % n]
            edges.append(_march_edge(domain, float(ax), float(ay),
                                     float(bx), float(by)))
        _limit_loop_gradation(edges)
        for i in range(n):
            ax, ay = loop[i]
            bx, by = loop[(i + 1) % n]
            ra = domain.sizing(float(ax), float(ay))
            out.append(Bubble(float(ax), float(ay), ra, BOUNDARY))
            length, steps = edges[i]
            if length <= 0.0:
                continue
            ux = (bx - float(ax)) / length
            uy = (by - float(ay)) / length
            s = 0.0
            for step in steps[:-1]:
                s += step
                px = float(ax) + ux * s
                py = float(ay) + uy * s
                out.append(Bubble(px, py, domain.sizing(px, py), BOUNDARY))
    return out


def _march_edge(domain, ax, ay, bx, by):
    """March one edge at the local tangent spacing; returns (length, steps)
    with steps summing exactly to length."""
    length = math.hypot(bx - ax, by - ay)
    if length <= 0.0:
        return length, []
    ux = (bx - ax) / length
    uy = (by - ay) / length

    def radius_at(s: float) -> float:
        return domain.sizing(ax + ux * s, ay + uy * s)

    arcs = [0.0]
    while arcs[-1] < length and len(arcs) < 100000:
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
    return length, [(arcs[k + 1] - arcs[k]) * scale for k in range(pick)]


def _limit_loop_gradation(edges) -> None:
    """Cap adjacent interval ratios at BOUNDARY_GRADATION cyclically around
    a loop, renormalizing each edge to its length between capping rounds."""
    for _ in range(12):
        seq = []
        for ei, (_, steps) in enumerate(edges):
            seq.extend((ei, si) for si in range(len(steps)))
        if len(seq) < 2:
            return
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
            if steps:
                total = sum(steps)
                if total > 0.0:
                    factor = length / total
                    for si in range(len(steps)):
                        steps[si] *= factor


def pack_interior_quadtree(domain: PackingDomain, anchors: list[Bubble],
                           max_anchor_overlap: float | None = None) -> list[Bubble]:
    """Fill the domain interior with mobile bubbles on an adaptive rhombic lattice.

    A quadtree over sheared coordinates subdivides cells until the rhombus
    side matches the local tangent spacing; leaf corners become candidates.
    Candidates are kept when strictly inside the domain, not center-inside
    any anchor, and not degenerate-close to the boundary. When
    max_anchor_overlap is given, candidates whose pairwise overlap with any
    anchor exceeds it are also rejected (gap-filling mode: occupied regions
    stay untouched). Radii come from anchor interpolation clamped by the
    domain sizing. An empty result warns in primary packing only: gap
    filling that finds no gap is a normal outcome.
    """
    lo, hi = domain.bbox()
    width = float(hi[0] - lo[0])
    height = float(hi[1] - lo[1])
    if width <= 0 or height <= 0:
        warnings.warn("domain has empty interior")
        return []
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
    probe = np.linspace(0.0, 1.0, 5)
    rb_ref = max(domain.sizing(float(lo[0] + tx * width), float(lo[1] + ty * height))
                 for tx in probe for ty in probe)
    spacing = 2.0 * rb_ref
    size = spacing * 2.0 ** max(0, math.ceil(math.log2(size / spacing)))

    # integer cell coordinates: cell (i, j) at depth d spans
    # [i, i+1] x [j, j+1] in units of size / 2^d; corners are deduplicated
    # on the integer lattice at _MAX_DEPTH so shared corners coincide exactly
    unit = size / 2.0 ** _MAX_DEPTH
    corners: dict[tuple[int, int], tuple[float, float]] = {}

    def emit(i: int, j: int, d: int):
        key = (i << (_MAX_DEPTH - d), j << (_MAX_DEPTH - d))
        if key not in corners:
            p = key[0] * unit
            q = key[1] * unit
            corners[key] = (ox + p + _SHEAR[0] * q, oy + _SHEAR[1] * q)

    bx0, by0 = float(lo[0]), float(lo[1])
    bx1, by1 = float(hi[0]), float(hi[1])

    def recurse(i: int, j: int, d: int):
        s = size / 2.0 ** d
        p = i * s
        q = j * s
        # physical parallelogram bbox of the cell, pruned against domain bbox
        xs = ox + p + _SHEAR[0] * q
        ys = oy + _SHEAR[1] * q
        if xs > bx1 or xs + 1.5 * s < bx0 or ys > by1 or ys + _SHEAR[1] * s < by0:
            return
        cx = xs + 0.5 * s + _SHEAR[0] * 0.5 * s
        cy = ys + _SHEAR[1] * 0.5 * s
        # conservative bound: the finest demand anywhere in the cell governs,
        # so steep grading bands never underfill (excess density is the
        # quantity control's job; a deficit cannot be repaired)
        rb = min(domain.sizing(cx, cy),
                 domain.sizing(xs, ys),
                 domain.sizing(xs + s, ys),
                 domain.sizing(xs + _SHEAR[0] * s, ys + _SHEAR[1] * s),
                 domain.sizing(xs + (1.0 + _SHEAR[0]) * s, ys + _SHEAR[1] * s))
        if s > 2.0 * rb and d < _MAX_DEPTH:
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

    pts = np.array(list(corners.values()))
    keep = points_in_polygon(pts, domain.outer)
    for h in domain.holes:
        keep &= ~points_in_polygon(pts, h)
    if anchors:
        keep &= ~_inside_any_anchor(pts, anchors)
    edge_eps = 1e-9 * math.hypot(width, height)
    keep &= _segment_distances_sq(pts, domain.all_segments()) >= edge_eps ** 2
    kept = pts[keep]

    if not len(kept):
        return _no_room(max_anchor_overlap)
    radii = _interpolate_radii_batch(kept, anchors) if anchors else \
        np.array([domain.sizing(float(p[0]), float(p[1])) for p in kept])
    radii = np.minimum(radii, [domain.sizing(float(p[0]), float(p[1])) for p in kept])
    if anchors and max_anchor_overlap is not None:
        ok = _anchor_overlap_below(kept, radii, anchors, max_anchor_overlap)
        kept = kept[ok]
        radii = radii[ok]
    kept, radii = _self_thin(kept, radii)
    if not len(kept):
        return _no_room(max_anchor_overlap)
    return [Bubble(float(px), float(py), float(r), MOBILE)
            for (px, py), r in zip(kept, radii)]


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
    clash = (radii[i] + radii[j] - l) / np.minimum(radii[i], radii[j]) > SELF_OVERLAP_LIMIT
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


def _anchor_overlap_below(pts: np.ndarray, radii: np.ndarray,
                          anchors: list[Bubble], limit: float) -> np.ndarray:
    ax = np.array([a.x for a in anchors])
    ay = np.array([a.y for a in anchors])
    ar = np.array([a.radius for a in anchors])
    ok = np.ones(len(pts), dtype=bool)
    chunk = max(1, 2_000_000 // len(anchors))
    for start in range(0, len(pts), chunk):
        p = pts[start:start + chunk]
        r = radii[start:start + chunk]
        d = np.sqrt((p[:, 0, None] - ax[None, :]) ** 2 + (p[:, 1, None] - ay[None, :]) ** 2)
        ov = (r[:, None] + ar[None, :] - d) / np.minimum(r[:, None], ar[None, :])
        ok[start:start + chunk] = ov.max(axis=1) <= limit
    return ok


def _inside_any_anchor(pts: np.ndarray, anchors: list[Bubble]) -> np.ndarray:
    ax = np.array([a.x for a in anchors])
    ay = np.array([a.y for a in anchors])
    ar2 = np.array([a.radius for a in anchors]) ** 2
    hit = np.zeros(len(pts), dtype=bool)
    chunk = max(1, 2_000_000 // len(anchors))
    for start in range(0, len(pts), chunk):
        p = pts[start:start + chunk]
        d2 = (p[:, 0, None] - ax[None, :]) ** 2 + (p[:, 1, None] - ay[None, :]) ** 2
        hit[start:start + chunk] = np.any(d2 < ar2[None, :], axis=1)
    return hit


def _segment_distances_sq(pts: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Squared distance from each point to the nearest of the given segments."""
    a = segs[:, 0:2]
    v = segs[:, 2:4] - a
    vv = np.maximum((v * v).sum(axis=1), 1e-300)
    best = np.full(len(pts), np.inf)
    chunk = max(1, 2_000_000 // max(len(segs), 1))
    for start in range(0, len(pts), chunk):
        p = pts[start:start + chunk]
        w = p[:, None, :] - a[None, :, :]
        t = np.clip((w * v[None, :, :]).sum(axis=2) / vv[None, :], 0.0, 1.0)
        d = w - t[:, :, None] * v[None, :, :]
        best[start:start + chunk] = (d * d).sum(axis=2).min(axis=1)
    return best
