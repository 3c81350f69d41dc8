"""Wall clearance of relaxing bubbles.

A bubble's disk must stay inside the domain: after each step, a bubble
whose centre has less than a full radius of clearance from its nearest
boundary segment, or lies on the segment's outer side, is projected back.
`_BoundaryProximity` bins the boundary segments into grid cells, so the
check touches only a handful of segments, and certifies each cell's
sub-boxes once: the largest radius for which the check provably leaves
every point of the sub-box alone. Rows under that radius skip the
nearest-segment pass, which leaves the clamp's result unchanged.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import nearest_segments
from .packing import PackingDomain

WALL_CLEARANCE = 1.0  # a bubble's disk must stay inside the wall: its center
                      # keeps a full radius of clearance, or it is projected

_SUBBOXES = 8             # certificate sub-boxes per cell side
_CERT_CHUNK = 4096        # elements of the certificate's (sub-box x segment)
                          # temporaries, built a bounded number at a time
_CERT_MARGIN = 1e-9       # rounding margin, as a share of the coordinate scale


class _BoundaryProximity:
    """Grid cells near the domain boundary, each holding the segment indices
    that pass close by, so wall checks touch only a handful of segments.
    Cells are twice the largest bubble radius the checks will see. For the
    vector check `slot` maps each cell of a dense grid to a row of `table`,
    the cell's segment list padded with -1 to the longest list (-1 where
    no segment passes). `cert[row, sub-box]` is the clearance certificate
    of each cell's sub-boxes (a last row of -inf serves slot -1), and
    `checks` counts the rows sent through the nearest-segment pass."""

    def __init__(self, domain: PackingDomain, max_radius: float):
        self.domain = domain
        self.cell = cell = max(2.0 * max_radius, 1e-12)
        self.segments = domain.all_segments()
        lo, hi = domain.bbox()
        self.bbox = (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))
        cells: dict[tuple[int, int], set[int]] = {}
        for si, (ax, ay, bx, by) in enumerate(self.segments):
            length = math.hypot(bx - ax, by - ay)
            steps = max(1, int(math.ceil(2.0 * length / cell)))
            for s in range(steps + 1):
                t = s / steps
                px = ax + t * (bx - ax)
                py = ay + t * (by - ay)
                cx = int(math.floor(px / cell))
                cy = int(math.floor(py / cell))
                for ix in range(cx - 1, cx + 2):
                    for iy in range(cy - 1, cy + 2):
                        cells.setdefault((ix, iy), set()).add(si)
        self.cells = {key: sorted(v) for key, v in cells.items()}

        # dense grid of cell rows with a border of empty cells, onto which
        # clipped indices of far-away points land
        keys = np.array(list(self.cells))
        self.origin = keys.min(axis=0) - 1
        self.slot = np.full(keys.max(axis=0) - self.origin + 2, -1)
        self.slot[tuple((keys - self.origin).T)] = np.arange(len(keys))
        self.last_cell = np.array(self.slot.shape) - 1
        self.table = np.full((len(keys), max(map(len, self.cells.values()))), -1)
        for row, segs in enumerate(self.cells.values()):
            self.table[row, :len(segs)] = segs
        # per segment: start, direction, length and inward (left) unit
        # normal, in the scalar projection's arithmetic; a zero-length
        # segment sends its bubbles to domain.project_inside
        ax, ay, bx, by = self.segments.T
        vx, vy = bx - ax, by - ay
        length = np.array([math.hypot(u, v) for u, v in zip(vx, vy)])
        with np.errstate(divide="ignore", invalid="ignore"):
            self.terms = np.stack([ax, ay, vx, vy, length, -vy / length, vx / length])
        self.cert = self._certificate(keys)
        self.checks = 0

    def _certificate(self, keys: np.ndarray) -> np.ndarray:
        """(rows + 1, S*S) certified radii of the S x S sub-boxes of each
        cell, sub-box (sx, sy) at column sx * S + sy; the last row is -inf.

        A sub-box, grown by a rounding margin on every side, is certified
        up to radius R when both hold for every point p in it:
        - every local segment is more than WALL_CLEARANCE * R from p: the
          distance from the sub-box centre less the half-diagonal bounds
          it from below;
        - each local segment that can be p's nearest (its lower bound does
          not exceed the smallest upper bound, centre distance plus
          half-diagonal) has the whole sub-box strictly on its inner side.
        A zero-length segment has no inner side, so a sub-box it can be
        nearest to is never certified (the clamp projects its bubbles)."""
        S = _SUBBOXES
        table = self.table
        scale = float(np.abs(self.segments).max()) + 2.0 * self.cell
        tol = _CERT_MARGIN * scale
        hw = 0.5 * self.cell / S + tol       # half-width of a grown sub-box
        half = math.hypot(hw, hw)
        ax, ay, vx, vy, _, nx, ny = self.terms
        den = vx * vx + vy * vy
        # sub-box centre offsets in cells, sub-box (sx, sy) at sx * S + sy
        u = (np.arange(S) + 0.5) / S
        ux, uy = u.repeat(S)[:, None], np.tile(u, S)[:, None]
        cert = np.full((len(keys) + 1, S * S), -np.inf)
        step = max(1, _CERT_CHUNK // (S * S * table.shape[1]))
        for start in range(0, len(keys), step):
            # (cells, sub-boxes, local segments) arrays for a block of cells
            block = slice(start, min(start + step, len(keys)))
            seg = table[block, None, :]
            px = (keys[block, 0, None, None] + ux) * self.cell
            py = (keys[block, 1, None, None] + uy) * self.cell
            sax, say, svx, svy, sden = ax[seg], ay[seg], vx[seg], vy[seg], den[seg]
            dx, dy = px - sax, py - say
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(sden > 0.0, np.clip((dx * svx + dy * svy) / sden, 0.0, 1.0), 0.0)
            dist = np.where(seg >= 0, np.hypot(dx - t * svx, dy - t * svy), np.inf)
            nearest = dist.min(axis=2)
            can_be_nearest = dist <= nearest[..., None] + 2.0 * half + tol
            # smallest signed distance over the grown sub-box to the line
            # through each segment, inward positive (NaN for zero length)
            snx, sny = nx[seg], ny[seg]
            clear = snx * dx + sny * dy - (np.abs(snx) + np.abs(sny)) * hw
            inner = ~(can_be_nearest & ~(clear > tol)).any(axis=2)
            cert[block] = np.where(inner, (nearest - half - tol) / WALL_CLEARANCE, -np.inf)
        return cert

    def clamp(self, p: np.ndarray, radius: np.ndarray):
        """Wall check of the bubbles at the rows of p (k,2): one that escaped
        or hugs the wall is projected back to a full radius of clearance
        from its nearest local segment (the first of equals), and one in a
        cell no segment passes is projected only when outside the bbox.
        Rows under their sub-box's certified radius are left alone without
        a nearest-segment pass. Returns the corrected positions and the mask
        of projected rows."""
        f = p / self.cell
        whole = np.floor(f)
        cell = whole.astype(np.int64) - self.origin
        cell = np.minimum(np.maximum(cell, 0), self.last_cell)
        row = self.slot[cell[:, 0], cell[:, 1]]
        sub = np.minimum(((f - whole) * _SUBBOXES).astype(np.int64), _SUBBOXES - 1)
        certified = radius < self.cert[row, sub[:, 0] * _SUBBOXES + sub[:, 1]]
        x0, y0, x1, y1 = self.bbox
        project = (row < 0) & ((p < (x0, y0)) | (p > (x1, y1))).any(axis=1)
        near = np.flatnonzero((row >= 0) & ~certified)
        self.checks += len(near)
        if not len(near) and not project.any():
            return p, project
        moved = project.copy()
        out = p.copy()

        seg, t, d2 = nearest_segments(p[near], self.segments, self.table[row[near]])
        ax, ay, vx, vy, length, nx, ny = self.terms[:, seg]
        px, py, r = p[near, 0], p[near, 1], radius[near]
        clearance = WALL_CLEARANCE * r
        # interior is to the left of the nearest directed segment
        inside = vx * (py - ay) - vy * (px - ax) > 0.0
        fix = ~((d2 >= clearance * clearance) & inside)
        moved[near] = fix
        degenerate = fix & ~(length > 0.0)
        project[near[degenerate]] = True
        fix &= ~degenerate
        out[near[fix], 0] = (ax + t * vx + nx * r)[fix]
        out[near[fix], 1] = (ay + t * vy + ny * r)[fix]
        if project.any():
            out[project] = self.domain.project_inside(p[project], radius[project])
        return out, moved
