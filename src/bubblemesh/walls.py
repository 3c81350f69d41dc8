"""Wall clearance of relaxing bubbles.

A bubble's disk must stay inside the domain: after each step, a bubble
whose centre has less than a full radius of clearance from its nearest
boundary segment, or lies on the segment's outer side, is projected back.
`WallClamp` checks a bubble against every segment, then leaves it unchecked
until it has moved as far as its room: the distance it can go before the
check's verdict could change (a Verlet skin per bubble). Skipping a row
inside its room leaves the clamp's result unchanged.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import (_CHUNK_ELEMENTS, ROUNDING_MARGIN, _nearest_segments,
                       _segment_distances, _segment_terms)
from .packing import PackingDomain

WALL_CLEARANCE = 1.0  # a bubble's disk must stay inside the wall: its center
                      # keeps a full radius of clearance, or it is projected


class WallClamp:
    """The wall check of one relaxation's bubbles, kept per slot (bubble
    index, whose radius never changes): where each was last checked and the
    square of its room there (0 until a check leaves it alone, and after a
    check that projects it). Slots appended by quantity control join on
    their first check. `checks` counts the rows sent through the full
    check."""

    def __init__(self, domain: PackingDomain):
        self.domain = domain
        self.segments = domain.all_segments()
        self.margin = ROUNDING_MARGIN * float(np.abs(self.segments).max())
        # per segment: start, direction and inward (left) unit normal (NaN
        # for a zero-length segment), and the squared length the distance
        # passes divide by
        ax, ay, vx, vy, self.length2 = _segment_terms(self.segments)
        length = np.array([math.hypot(u, v) for u, v in zip(vx, vy)])
        with np.errstate(divide="ignore", invalid="ignore"):
            self.terms = np.stack([ax, ay, vx, vy, -vy / length, vx / length])
        self.at = np.zeros((0, 2))
        self.room2 = np.zeros(0)
        self.checks = 0

    def clear(self, points: np.ndarray, radius: np.ndarray) -> np.ndarray:
        """Which of the (n,2) points the full check leaves alone."""
        seg, _, d2 = _nearest_segments(points, *self.terms[:4], self.length2)
        return self._clear(points, radius, seg, d2)

    def _clear(self, p, radius, seg, d2):
        """Whether each row of p, at squared distance d2 from its nearest
        segment seg, is clear: a full radius of clearance and strictly on
        the segment's inner side."""
        ax, ay, vx, vy = self.terms[:4, seg]
        clearance = WALL_CLEARANCE * radius
        # interior is to the left of the nearest directed segment
        inside = vx * (p[:, 1] - ay) - vy * (p[:, 0] - ax) > 0.0
        return (d2 >= clearance * clearance) & inside

    def _check(self, p: np.ndarray, radius: np.ndarray):
        """The full check of each row of p from one distance pass over
        every segment: whether it is clear, and its room (0 unless clear):
        how far it can move before the verdict could change. The
        room is the smaller of its clearance beyond WALL_CLEARANCE * radius
        and, for every segment, the larger of its signed distance to the
        segment's line (inward positive; none for a zero-length segment)
        and half its distance beyond the nearest (the move after which the
        segment could become the nearest). Less the rounding margin."""
        clear = np.empty(len(p), dtype=bool)
        room = np.zeros(len(p))
        ax, ay, _, _, nx, ny = self.terms
        chunk = max(1, _CHUNK_ELEMENTS // len(self.segments))
        for start in range(0, len(p), chunk):
            rows = slice(start, start + chunk)
            pr = p[rows]
            dd = _segment_distances(pr, *self.terms[:4], self.length2)[1]
            seg = np.argmin(dd, axis=1)
            d2 = dd[np.arange(len(dd)), seg]
            clear[rows] = ok = self._clear(pr, radius[rows], seg, d2)
            d = np.sqrt(d2[ok])
            dist = np.sqrt(dd[ok])
            # fmax skips the NaN line distance of a zero-length segment
            line = nx * (pr[ok, :1] - ax) + ny * (pr[ok, 1:] - ay)
            reach = np.fmax(line, 0.5 * (dist - d[:, None])).min(axis=1)
            room[start + np.flatnonzero(ok)] = np.minimum(
                d - WALL_CLEARANCE * radius[rows][ok], reach) - self.margin
        return clear, room

    def clamp(self, slots: np.ndarray, p: np.ndarray, radius: np.ndarray):
        """Wall check of the bubbles `slots` at the rows of p (k,2): one that
        escaped or hugs the wall is projected back to a full radius of
        clearance from its nearest segment of non-zero length (the first of
        equals; `PackingDomain.project_inside`), and checked again on its
        next step. A row still within its room of where a check
        last left it alone is left alone without a check. Returns the
        corrected positions and the mask of projected rows."""
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
        clear, room = self._check(p[near], radius[near])
        rows = slots[near]
        self.at[rows] = p[near]
        self.room2[rows] = np.square(np.maximum(room, 0.0))

        bad = near[~clear]
        fix[bad] = True
        if not len(bad):
            return p, fix
        out = p.copy()
        out[bad] = self.domain.project_inside(p[bad], radius[bad])
        return out, fix
