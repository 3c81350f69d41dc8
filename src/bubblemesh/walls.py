"""Wall clearance of relaxing bubbles.

A bubble's disk must stay inside the domain: after each step, a bubble
whose centre has less than a full radius of clearance from its nearest
boundary segment, or lies on the segment's outer side, is projected back
along that segment's inward normal. Every segment comes from the domain's
`geometry.Segments` table, `PackingDomain.segments`. `WallClamp` checks a
bubble against every segment, then leaves it unchecked until it has moved
as far as its room: the distance it can go before the check's verdict
could change (a Verlet skin per bubble). Skipping a row inside its room
leaves the clamp's result unchanged.
"""
from __future__ import annotations

import numpy as np

from .geometry import (_CHUNK_ELEMENTS, ROUNDING_MARGIN, nearest_segments,
                       segment_distances)
from .packing import PackingDomain


class WallClamp:
    """The wall check of one relaxation's bubbles, kept per slot (bubble
    index, whose radius never changes): where each was last checked and the
    square of its room there (0 until a check leaves it alone, and after a
    check that projects it). Slots appended by quantity control join on
    their first check. `checks` counts the rows sent through the full
    check."""

    def __init__(self, domain: PackingDomain):
        self.domain = domain
        self.segments = s = domain.segments
        # every vertex starts one segment
        self.margin = ROUNDING_MARGIN * float(np.abs([s.ax, s.ay]).max())
        self.at = np.zeros((0, 2))
        self.room2 = np.zeros(0)
        self.checks = 0

    def clear(self, points: np.ndarray, radius: np.ndarray) -> np.ndarray:
        """Which of the (n,2) points the full check leaves alone."""
        seg, _, d2 = nearest_segments(points, self.segments)
        return self._clear(points, radius, seg, d2)

    def _clear(self, p, radius, seg, d2):
        """Whether each row of p, at squared distance d2 from its nearest
        segment seg, is clear: a full radius of clearance and strictly on
        the segment's inner side."""
        ax, ay, vx, vy = (c[seg] for c in self.segments[:4])
        # interior is to the left of the nearest directed segment
        inside = vx * (p[:, 1] - ay) - vy * (p[:, 0] - ax) > 0.0
        return (d2 >= radius * radius) & inside

    def _check(self, p: np.ndarray, radius: np.ndarray):
        """The full check of each row of p from one distance pass over
        every segment: whether it is clear, its room (0 unless clear), and
        its nearest segment (the first of equals) and t on it. The room is
        how far it can move before the verdict could change: the smaller of
        its clearance beyond its radius and, for every segment,
        the larger of its signed distance to the segment's line (inward
        positive) and half its distance beyond the nearest (the move after
        which the segment could become the nearest). Less the rounding
        margin."""
        s = self.segments
        clear, room = np.empty(len(p), dtype=bool), np.zeros(len(p))
        seg, t = np.empty(len(p), dtype=np.int64), np.empty(len(p))
        chunk = max(1, _CHUNK_ELEMENTS // len(s.ax))
        for start in range(0, len(p), chunk):
            rows = slice(start, start + chunk)
            pr = p[rows]
            tt, dd = segment_distances(pr, s)
            pick = np.arange(len(dd)), np.argmin(dd, axis=1)
            seg[rows], t[rows], d2 = pick[1], tt[pick], dd[pick]
            clear[rows] = ok = self._clear(pr, radius[rows], pick[1], d2)
            d = np.sqrt(d2[ok])
            dist = np.sqrt(dd[ok])
            line = s.nx * (pr[ok, :1] - s.ax) + s.ny * (pr[ok, 1:] - s.ay)
            reach = np.maximum(line, 0.5 * (dist - d[:, None])).min(axis=1)
            room[start + np.flatnonzero(ok)] = np.minimum(
                d - radius[rows][ok], reach) - self.margin
        return clear, room, seg, t

    def clamp(self, slots: np.ndarray, p: np.ndarray, radius: np.ndarray):
        """Wall check of the bubbles `slots` at the rows of p (k,2): one that
        escaped or hugs the wall is moved a full radius along the inward
        normal from its closest point on its nearest segment (the first of
        equals), and checked again on its next step. A row still within its
        room of where a check last left it alone is left alone without a
        check. Returns the corrected positions and the mask of projected
        rows."""
        grow = int(slots.max(initial=-1)) + 1 - len(self.room2)
        if grow > 0:  # quantity control appended bubbles
            self.at = np.concatenate([self.at, np.zeros((grow, 2))])
            self.room2 = np.concatenate([self.room2, np.zeros(grow)])
        step = p - self.at[slots]
        near = np.flatnonzero(~((step * step).sum(axis=1) < self.room2[slots]))
        self.checks += len(near)
        fix = np.zeros(len(p), dtype=bool)
        if not len(near):
            return p, fix
        clear, room, seg, t = self._check(p[near], radius[near])
        rows = slots[near]
        self.at[rows] = p[near]
        self.room2[rows] = np.square(np.maximum(room, 0.0))

        bad = near[~clear]
        fix[bad] = True
        if not len(bad):
            return p, fix
        s, k, t, r = self.segments, seg[~clear], t[~clear], radius[bad]
        out = p.copy()
        out[bad] = np.column_stack([s.ax[k] + t * s.vx[k] + s.nx[k] * r,
                                    s.ay[k] + t * s.vy[k] + s.ny[k] * r])
        return out, fix
