"""Physically-based bubble relaxation and quantity control.

Each bubble obeys m x'' + c x' = f where f sums pairwise interaction forces;
the ODE is integrated with classical RK4 one bubble at a time, all other
bubbles frozen during that bubble's step. A sweep runs these steps
sequentially in colour order (multicolour Gauss-Seidel): the neighbour graph
is coloured greedily so that no two bubbles of one colour interact, and each
colour class then takes its RK4 step as one array operation, which equals
stepping its members one after another. Two quantity-control strategies
are provided: the original alternating insert/delete pass driven by a summed
overlap ratio, and the boundary-region pass that prunes bubbles overlapping
anchors once, before any relaxation.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay as _SciDelaunay
from scipy.spatial import QhullError, cKDTree

from .geometry import (closest_point_on_segment, hashed_unit_direction,
                       points_in_polygon)
from .packing import (BOUNDARY, INTERIOR_ANCHOR, MOBILE, Bubble,
                      PackingDomain, interpolate_radius)

_KIND_CODE = {BOUNDARY: 0, INTERIOR_ANCHOR: 1, MOBILE: 2}
_KIND_NAME = {v: k for k, v in _KIND_CODE.items()}


class RelaxationError(Exception):
    pass


@dataclass(frozen=True)
class ForceParams:
    """Cubic pair-force law: F(0)=f0, F(1)=0, F'(1)=-k*l0, F(cutoff)=0 in w=l/l0."""

    k: float = 1.0
    f0: float = 1.0
    cutoff: float = 1.5

    def __post_init__(self):
        if self.k <= 0 or self.f0 <= 0:
            raise ValueError("k and f0 must be positive")


@dataclass(frozen=True)
class DynamicsParams:
    """Mass-spring-damper integration and convergence controls.

    Defaults realize near-critical damping c = 1.4*sqrt(m*k) and
    dt = 0.2*sqrt(m/k) at unit mass and stiffness.
    """

    m: float = 1.0
    c: float = 1.4
    dt: float = 0.2
    force_tol: float = 1e-3
    max_sweeps: int = 400
    stall_window: int = 30
    stall_angle: float = 0.1

    def __post_init__(self):
        if min(self.m, self.c, self.dt, self.force_tol) <= 0:
            raise ValueError("m, c, dt and force_tol must be positive")


class ConvergenceTrace:
    """Per-sweep record: bubble count, max net force, min mesh angle, wall time."""

    def __init__(self):
        self.rows: list[tuple[int, int, float, float, float]] = []
        self.converged = False
        self.converged_sweep: int | None = None

    def add(self, sweep, count, max_force, min_angle, elapsed):
        self.rows.append((int(sweep), int(count), float(max_force),
                          float(min_angle), float(elapsed)))

    @property
    def sweeps(self) -> int:
        return self.rows[-1][0] if self.rows else 0

    @property
    def final_min_angle(self) -> float:
        return self.rows[-1][3] if self.rows else 0.0

    @property
    def elapsed(self) -> float:
        return self.rows[-1][4] if self.rows else 0.0

    def time_to_sustain_angle(self, angle: float) -> float | None:
        """Wall time of the first sweep from which the min angle never drops
        below the target again (transient spikes do not count)."""
        result = None
        for _, _, _, ang, elapsed in self.rows:
            if ang >= angle:
                if result is None:
                    result = elapsed
            else:
                result = None
        return result

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sweep", "bubble_count", "max_force", "min_angle_deg", "elapsed_s"])
            for row in self.rows:
                writer.writerow([row[0], row[1], f"{row[2]:.9g}", f"{row[3]:.9g}", f"{row[4]:.6f}"])


# ---------------------------------------------------------------------------
# Pair force law

def _cubic_coeffs(l0: float, k: float, f0: float):
    kl = k * l0
    c3 = 2.0 * kl - (2.0 / 3.0) * f0
    c2 = (7.0 / 3.0) * f0 - 5.0 * kl
    c1 = 3.0 * kl - (8.0 / 3.0) * f0
    return c1, c2, c3


_COINCIDENT = 1e-12  # centres closer than this push apart along a hashed direction


def force_magnitude(l, l0, params: ForceParams):
    """Signed radial force: positive repels, negative attracts, 0 beyond cutoff.
    Takes scalars or equal-shape arrays of distances and rest lengths."""
    c1, c2, c3 = _cubic_coeffs(l0, params.k, params.f0)
    w = l / l0
    return np.where(l >= params.cutoff * l0, 0.0,
                    ((c3 * w + c2) * w + c1) * w + params.f0)


def pair_force(b_i: Bubble, b_j: Bubble, params: ForceParams,
               i: int = 0, j: int = 1, seed: int = 0) -> np.ndarray:
    """Force exerted on b_i by b_j, along the center line."""
    dx = b_i.x - b_j.x
    dy = b_i.y - b_j.y
    l = math.hypot(dx, dy)
    if l < _COINCIDENT:
        ux, uy = hashed_unit_direction(i, j, seed)
        return np.array([params.f0 * ux, params.f0 * uy])
    mag = force_magnitude(l, b_i.radius + b_j.radius, params)
    return np.array([mag * dx / l, mag * dy / l])


def _net_forces(dx, dy, l0, owner, count: int, i, j, params: ForceParams,
                seed: int) -> np.ndarray:
    """(count, 2) net forces: pair e adds the force that bubble j[e] exerts
    on bubble i[e], at offset (dx[e], dy[e]) and rest length l0[e], to row
    owner[e]; each row sums its pairs in the order given."""
    l = np.sqrt(dx * dx + dy * dy)
    coincident = l < _COINCIDENT
    l = np.where(coincident, 1.0, l)
    mag = force_magnitude(l, l0, params)
    fx = mag * dx / l
    fy = mag * dy / l
    for e in np.flatnonzero(coincident).tolist():
        fx[e], fy[e] = (params.f0 * u for u in hashed_unit_direction(int(i[e]), int(j[e]), seed))
    return np.column_stack([np.bincount(owner, fx, count),
                            np.bincount(owner, fy, count)])


def rk4_damped_step(x: np.ndarray, v: np.ndarray, force_fn, m: float, c: float,
                    dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One classical RK4 step of m x'' + c x' = f(x) with frozen surroundings."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    a1 = (force_fn(x) - c * v) / m
    k1x = v
    k2x = v + 0.5 * dt * a1
    a2 = (force_fn(x + 0.5 * dt * k1x) - c * k2x) / m
    k3x = v + 0.5 * dt * a2
    a3 = (force_fn(x + 0.5 * dt * k2x) - c * k3x) / m
    k4x = v + dt * a3
    a4 = (force_fn(x + dt * k3x) - c * k4x) / m
    x1 = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    v1 = v + (dt / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    return x1, v1


# ---------------------------------------------------------------------------
# Simulation state and neighbor index

class RelaxState:
    """Mutable bubble population as parallel numpy arrays in insertion
    order; a removed bubble keeps its slot with `alive` False."""

    __slots__ = ("x", "y", "vx", "vy", "r", "kind", "alive", "seed")

    def __init__(self, bubbles: list[Bubble], seed: int = 0):
        self.x = np.array([b.x for b in bubbles], dtype=float)
        self.y = np.array([b.y for b in bubbles], dtype=float)
        self.vx = np.zeros(len(bubbles))
        self.vy = np.zeros(len(bubbles))
        self.r = np.array([b.radius for b in bubbles], dtype=float)
        self.kind = np.array([_KIND_CODE[b.kind] for b in bubbles], dtype=int)
        self.alive = np.ones(len(bubbles), dtype=bool)
        self.seed = seed

    def append(self, x, y, radius, kind=MOBILE):
        for name, value in (("x", x), ("y", y), ("vx", 0.0), ("vy", 0.0),
                            ("r", radius), ("kind", _KIND_CODE[kind]), ("alive", True)):
            setattr(self, name, np.append(getattr(self, name), value))

    def alive_indices(self) -> np.ndarray:
        return np.flatnonzero(self.alive)

    def mobile_indices(self) -> np.ndarray:
        return np.flatnonzero(self.alive & (self.kind != _KIND_CODE[BOUNDARY]))

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.alive))

    def to_bubbles(self) -> list[Bubble]:
        idx = self.alive_indices()
        return [Bubble(x, y, r, _KIND_NAME[k]) for x, y, r, k in
                zip(*(a[idx].tolist() for a in (self.x, self.y, self.r, self.kind)))]

    def max_radius(self) -> float:
        """Largest alive radius (1.0 when no bubble is alive)."""
        return float(self.r[self.alive].max()) if self.alive.any() else 1.0

    def positions(self, indices=None) -> np.ndarray:
        idx = self.alive_indices() if indices is None else indices
        return np.column_stack([self.x[idx], self.y[idx]])


# neighbor queries pad their radius so the k-d tree returns a superset;
# the callers' exact distance tests decide membership
_QUERY_PAD = 1.0 + 1e-9


def _ball_query(state: RelaxState):
    """k-d tree over the alive bubbles: near(x, y, radius) returns, in
    ascending order, the still-alive indices within the padded radius."""
    ids = state.alive_indices()
    tree = cKDTree(state.positions(ids))

    def near(x: float, y: float, radius: float) -> list[int]:
        hits = tree.query_ball_point((x, y), radius * _QUERY_PAD, return_sorted=True)
        return [j for j in ids[hits].tolist() if state.alive[j]]

    return near


WALL_CLEARANCE = 1.0  # a bubble's disk must stay inside the wall: its center
                      # keeps a full radius of clearance, or it is projected


class _BoundaryProximity:
    """Grid cells near the domain boundary, each holding the segment indices
    that pass close by, so wall checks touch only a handful of segments.
    Cells are twice the largest bubble radius the checks will see. For the
    vector check `slot` maps each cell of a dense grid to a row of `table`,
    the cell's segment list padded with -1 to the longest list (-1 where
    no segment passes)."""

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
        # per segment: start, direction, squared length, length and inward
        # (left) unit normal, in the scalar projection's arithmetic; a
        # zero-length segment sends its bubbles to domain.project_inside
        ax, ay, bx, by = self.segments.T
        vx, vy = bx - ax, by - ay
        length = np.array([math.hypot(u, v) for u, v in zip(vx, vy)])
        with np.errstate(divide="ignore", invalid="ignore"):
            self.terms = np.stack([ax, ay, vx, vy, vx * vx + vy * vy, length,
                                   -vy / length, vx / length])

    def clamp(self, p: np.ndarray, radius: np.ndarray):
        """Wall check of the bubbles at the rows of p (k,2): one that escaped
        or hugs the wall is projected back to a full radius of clearance
        from its nearest local segment (the first of equals), and one in a
        cell no segment passes is projected only when outside the bbox.
        Returns the corrected positions and the mask of projected rows."""
        cell = np.floor(p / self.cell).astype(np.int64) - self.origin
        cell = np.minimum(np.maximum(cell, 0), self.last_cell)
        row = self.slot[cell[:, 0], cell[:, 1]]
        x0, y0, x1, y1 = self.bbox
        project = (row < 0) & ((p < (x0, y0)) | (p > (x1, y1))).any(axis=1)
        moved = project.copy()
        out = p.copy()

        near = np.flatnonzero(row >= 0)
        seg = self.table[row[near]]
        ax, ay, vx, vy, denom = self.terms[:5, seg]
        px, py = p[near, :1], p[near, 1:]
        t = ((px - ax) * vx + (py - ay) * vy) / np.where(denom > 0.0, denom, 1.0)
        t = np.where(denom > 0.0, np.minimum(1.0, np.maximum(0.0, t)), 0.0)
        dx = px - (ax + t * vx)
        dy = py - (ay + t * vy)
        d2 = np.where(seg >= 0, dx * dx + dy * dy, np.inf)
        pick = (np.arange(len(near)), np.argmin(d2, axis=1))
        ax, ay, vx, vy, _, length, nx, ny = self.terms[:, seg[pick]]
        t = t[pick]
        px, py, r = p[near, 0], p[near, 1], radius[near]
        clearance = WALL_CLEARANCE * r
        # interior is to the left of the nearest directed segment
        inside = vx * (py - ay) - vy * (px - ax) > 0.0
        fix = ~((d2[pick] >= clearance * clearance) & inside)
        moved[near] = fix
        degenerate = fix & ~(length > 0.0)
        project[near[degenerate]] = True
        fix &= ~degenerate
        out[near[fix], 0] = (ax + t * vx + nx * r)[fix]
        out[near[fix], 1] = (ay + t * vy + ny * r)[fix]
        for i in np.flatnonzero(project).tolist():
            out[i] = self.domain.project_inside(p[i, 0], p[i, 1], radius[i])
        return out, moved


# ---------------------------------------------------------------------------
# One relaxation sweep

def _sweep_neighbors(state: RelaxState, cutoff: float):
    """Directed pairs (i, j), i a mobile bubble and j any alive one within
    the pair's force reach cutoff * (r_i + r_j) plus a slack for the motion
    during the sweep, at start-of-sweep positions; sorted by i, then j.
    One tree query and one vector cull."""
    r_max = state.max_radius()
    slack = 0.5 * r_max
    ids = state.alive_indices()
    px, py, pr = state.x[ids], state.y[ids], state.r[ids]
    a, b = cKDTree(np.column_stack([px, py])).query_pairs(
        (2.0 * cutoff * r_max + slack) * _QUERY_PAD, output_type="ndarray").T
    reach = cutoff * (pr[a] + pr[b]) + slack
    keep = (px[a] - px[b]) ** 2 + (py[a] - py[b]) ** 2 <= reach * reach
    i = ids[np.concatenate([a[keep], b[keep]])]
    j = ids[np.concatenate([b[keep], a[keep]])]
    moving = state.kind[i] != _KIND_CODE[BOUNDARY]
    i, j = i[moving], j[moving]
    order = np.lexsort((j, i))
    return i[order], j[order]


def _greedy_colours(state: RelaxState, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Colour of every bubble slot, -1 unless alive and mobile: in ascending
    index order, each mobile bubble takes the smallest colour that none of
    its lower-index mobile neighbours (pairs (i, j) sorted by i) has taken."""
    mobile = state.mobile_indices()
    lower = (j < i) & (state.kind[j] != _KIND_CODE[BOUNDARY])
    low_i, low_j = i[lower], j[lower].tolist()
    starts = np.searchsorted(low_i, mobile).tolist()
    taken_by: dict[int, int] = {}
    for b, start, end in zip(mobile.tolist(), starts, starts[1:] + [len(low_j)]):
        taken = 0
        for n in low_j[start:end]:
            taken |= 1 << taken_by[n]
        taken_by[b] = (~taken & (taken + 1)).bit_length() - 1
    colour = np.full(len(state.x), -1)
    colour[mobile] = list(taken_by.values())
    return colour


def relax_step(state: RelaxState, force: ForceParams, dyn: DynamicsParams,
               walls: _BoundaryProximity | None = None) -> float:
    """Sequentially integrate every mobile bubble over one dt against its
    neighbours' latest positions, in colour order; returns the max net-force
    magnitude observed at the bubbles' pre-step positions. With `walls`, a
    bubble that ends its step without a radius of clearance from the domain
    boundary is projected back and stopped.

    Neighbor lists come from start-of-sweep positions (`_sweep_neighbors`).
    No two bubbles of one colour are neighbours, so each colour class takes
    one RK4 step on (k,2) arrays, its members' forces summed per bubble in
    ascending neighbour order: the same result as stepping them one by one.
    """
    x, y, r = state.x, state.y, state.r
    i, j = _sweep_neighbors(state, force.cutoff)
    colour = _greedy_colours(state, i, j)
    pair_colour = colour[i]
    max_f = 0.0
    for k in range(int(colour.max(initial=-1)) + 1):
        members = np.flatnonzero(colour == k)
        sel = pair_colour == k
        ci, cj = i[sel], j[sel]
        owner = np.searchsorted(members, ci)
        l0 = r[ci] + r[cj]
        xj, yj = x[cj], y[cj]
        evaluations = []

        def net(p):
            f = _net_forces(p[owner, 0] - xj, p[owner, 1] - yj, l0, owner,
                            len(members), ci, cj, force, state.seed)
            evaluations.append(f)
            return f

        p1, v1 = rk4_damped_step(state.positions(members),
                                 np.column_stack([state.vx[members], state.vy[members]]),
                                 net, dyn.m, dyn.c, dyn.dt)
        f1 = evaluations[0]
        max_f = max(max_f, float(np.sqrt(f1[:, 0] * f1[:, 0] + f1[:, 1] * f1[:, 1]).max()))
        if not (np.isfinite(p1).all() and np.isfinite(v1).all()):
            raise RelaxationError("dynamics diverged; reduce dt")
        if walls is not None:
            p1, stopped = walls.clamp(p1, r[members])
            v1[stopped] = 0.0
        x[members], y[members] = p1.T
        state.vx[members], state.vy[members] = v1.T
    return max_f


# ---------------------------------------------------------------------------
# Overlap ratios and quantity control

def overlap_pairwise(b0: Bubble, b_i: Bubble) -> float:
    """(r0 + ri - l) / min(r0, ri): 0 at tangency, negative when separated."""
    l = math.hypot(b0.x - b_i.x, b0.y - b_i.y)
    return (b0.radius + b_i.radius - l) / min(b0.radius, b_i.radius)


def overlap_original(i: int, bubbles: list[Bubble]) -> float:
    """Summed overlap ratio of bubble i against neighbors within 2*r0.

    Each exactly tangent equal-radius neighbor contributes 1. The neighbor
    cutoff carries a 1e-12 relative slack so exact tangency is inclusive
    under floating point.
    """
    state = RelaxState(bubbles)
    return _summed_overlap(state, _ball_query(state), i)


def _summed_overlap(state: RelaxState, near, i: int) -> float:
    r0 = state.r[i]
    x0, y0 = state.x[i], state.y[i]
    reach = 2.0 * r0
    total = 0.0
    for j in near(x0, y0, reach):
        if j == i:
            continue
        l = math.hypot(state.x[j] - x0, state.y[j] - y0)
        if l <= reach * (1.0 + 1e-12):
            total += (2.0 * r0 + state.r[j] - l) / r0
    return total


def _qc_original_state(state: RelaxState, low: float, high: float,
                       anchors: list[Bubble], domain: PackingDomain | None) -> int:
    """Single pass over bubble indices: insert into the largest angular gap
    when the summed overlap is below `low`, delete when above `high`.

    Inserted bubbles join the neighbor index immediately (the index is
    rebuilt) so later bubbles in the same pass see them; insertions that
    would violate the wall clearance are skipped.
    """
    near = _ball_query(state)
    max_r = state.max_radius()
    segments = domain.all_segments() if domain is not None else None
    changes = 0
    n0 = len(state.alive)
    for i in range(n0):
        if not state.alive[i] or state.kind[i] != _KIND_CODE[MOBILE]:
            continue
        r0 = state.r[i]
        x0, y0 = state.x[i], state.y[i]
        total = _summed_overlap(state, near, i)
        if total > high:
            state.alive[i] = False
            changes += 1
        elif total < low:
            # gap directions come from the wider force neighborhood so the
            # insertion never aims at a bubble just beyond the 2 r0 window
            wide = [j for j in near(x0, y0, 3.0 * r0)
                    if j != i and math.hypot(state.x[j] - x0, state.y[j] - y0) <= 3.0 * r0]
            if wide:
                angles = sorted(math.atan2(state.y[j] - y0, state.x[j] - x0) for j in wide)
                gaps = [(angles[(k + 1) % len(angles)] - angles[k]) % (2.0 * math.pi)
                        for k in range(len(angles))]
                if len(angles) == 1:
                    direction = angles[0] + math.pi
                else:
                    kbest = max(range(len(gaps)), key=lambda k: (gaps[k], -k))
                    direction = angles[kbest] + 0.5 * gaps[kbest]
            else:
                ux, uy = hashed_unit_direction(i, i, state.seed)
                direction = math.atan2(uy, ux)
            ca, sa = math.cos(direction), math.sin(direction)
            probe_x = x0 + 2.0 * r0 * ca
            probe_y = y0 + 2.0 * r0 * sa
            if anchors:
                r_new = interpolate_radius(probe_x, probe_y, anchors,
                                           domain.sizing if domain is not None else None)
            else:
                r_new = r0
            nx = x0 + (r0 + r_new) * ca
            ny = y0 + (r0 + r_new) * sa
            if domain is not None:
                if not domain.contains(nx, ny):
                    continue
                d2 = _segment_distance_sq(nx, ny, segments)
                if d2 < (WALL_CLEARANCE * r_new) ** 2:
                    continue
            # block only severe collisions; milder crowding is the original
            # method's own churn and gets resolved by its delete branch
            if any((r_new + state.r[j] - math.hypot(state.x[j] - nx, state.y[j] - ny))
                   / min(r_new, state.r[j]) > 1.0
                   for j in near(nx, ny, r_new + max_r)):
                continue
            state.append(nx, ny, r_new, MOBILE)
            near = _ball_query(state)
            changes += 1
    return changes


def _segment_distance_sq(x: float, y: float, segments) -> float:
    best = math.inf
    for ax, ay, bx, by in segments:
        _, _, d2 = closest_point_on_segment(x, y, ax, ay, bx, by)
        if d2 < best:
            best = d2
    return best


def qc_original(bubbles: list[Bubble], low: float = 5.0, high: float = 8.0,
                anchors: list[Bubble] | None = None,
                domain: PackingDomain | None = None,
                seed: int = 0) -> tuple[list[Bubble], int]:
    """Original quantity control pass; returns (modified list, change count)."""
    if low >= high:
        raise ValueError("need low < high")
    state = RelaxState(bubbles, seed=seed)
    if anchors is None:
        anchors = [b for b in bubbles if b.kind != MOBILE]
    changes = _qc_original_state(state, low, high, anchors, domain)
    return state.to_bubbles(), changes


def _qc_boundary_region_state(state: RelaxState, anchor_ids: list[int],
                              threshold: float) -> int:
    near = _ball_query(state)
    max_r = state.max_radius()
    anchor_set = set(anchor_ids)
    removed = 0
    for a in anchor_ids:
        if not state.alive[a]:
            continue
        ra = state.r[a]
        xa, ya = state.x[a], state.y[a]
        hits = []
        # an overlap above the threshold needs l < ra + rj - threshold * min(ra, rj)
        for j in near(xa, ya, ra + max_r + max(-threshold, 0.0) * ra):
            if j in anchor_set or state.kind[j] != _KIND_CODE[MOBILE]:
                continue
            l = math.hypot(state.x[j] - xa, state.y[j] - ya)
            ov = (ra + state.r[j] - l) / min(ra, state.r[j])
            if ov > threshold:
                hits.append((-ov, j))
        for _, j in sorted(hits):
            state.alive[j] = False
            removed += 1
    return removed


def qc_boundary_region(bubbles: list[Bubble], anchors: list[Bubble],
                       threshold: float = 1.0) -> list[Bubble]:
    """Remove mobile bubbles that overlap any anchor beyond the threshold.

    Runs exactly once, one pass over the anchors in list order, removing the
    most-overlapping bubbles first. Anchors are never removed. Idempotent.
    """
    anchor_ids = [i for i, b in enumerate(bubbles) if any(b is a for a in anchors)]
    if len(anchor_ids) != len(anchors):
        # anchors given by value rather than identity: match by kind
        anchor_ids = [i for i, b in enumerate(bubbles) if b.kind != MOBILE]
    state = RelaxState(bubbles)
    _qc_boundary_region_state(state, anchor_ids, threshold)
    return state.to_bubbles()


# ---------------------------------------------------------------------------
# Convergence loop

def triangulation_min_angle(points: np.ndarray, domain: PackingDomain | None) -> float:
    """Minimum interior angle (degrees) of a Delaunay snapshot of the points,
    ignoring triangles outside the domain. Monitoring statistic only."""
    if len(points) < 3:
        return 0.0
    try:
        tri = _SciDelaunay(points)
    except QhullError:
        return 0.0
    faces = tri.simplices
    if domain is not None:
        cent = points[faces].mean(axis=1)
        keep = points_in_polygon(cent, domain.outer)
        for h in domain.holes:
            keep &= ~points_in_polygon(cent, h)
        faces = faces[keep]
    if not len(faces):
        return 0.0
    v = points[faces]
    min_cos = -1.0
    for kidx in range(3):
        a = v[:, kidx]
        b = v[:, (kidx + 1) % 3]
        cc = v[:, (kidx + 2) % 3]
        e1 = b - a
        e2 = cc - a
        n1 = np.linalg.norm(e1, axis=1)
        n2 = np.linalg.norm(e2, axis=1)
        denom = np.maximum(n1 * n2, 1e-300)
        cosang = np.einsum("ij,ij->i", e1, e2) / denom
        min_cos = max(min_cos, float(np.max(np.clip(cosang, -1.0, 1.0))))
    return math.degrees(math.acos(min_cos))


def relax_until_converged(bubbles: list[Bubble], domain: PackingDomain,
                          force: ForceParams | None = None,
                          dyn: DynamicsParams | None = None,
                          strategy: str = "new-qc",
                          qc_threshold: float = 1.0,
                          qc_low: float = 5.0, qc_high: float = 8.0,
                          qc_period: int = 10,
                          seed: int = 0) -> tuple[list[Bubble], ConvergenceTrace]:
    """Relax bubbles to equilibrium under the chosen quantity-control strategy.

    new-qc: one boundary-region pruning pass, then pure relaxation sweeps.
    original-qc: a quantity-control pass every `qc_period` sweeps; converges
    only when the force/stall tests pass and a pass makes zero changes.
    none: pure relaxation (no quantity control).
    """
    if strategy not in ("new-qc", "original-qc", "none"):
        raise ValueError(f"unknown strategy '{strategy}'")
    force = force or ForceParams()
    dyn = dyn or DynamicsParams()
    t0 = time.perf_counter()
    trace = ConvergenceTrace()

    state = RelaxState(bubbles, seed=seed)
    anchor_ids = [i for i, b in enumerate(bubbles) if b.kind != MOBILE]
    if strategy == "new-qc":
        _qc_boundary_region_state(state, anchor_ids, qc_threshold)

    # quantity control inserts radii interpolated from the anchors (which it
    # never removes) or copied from a neighbor, so the largest alive radius
    # cannot grow and wall cells sized now serve every sweep
    walls = None if domain is None else _BoundaryProximity(domain, state.max_radius())
    anchors = [bubbles[i] for i in anchor_ids]
    history: list[float] = []
    qc_clean = strategy != "original-qc"

    for sweep in range(1, dyn.max_sweeps + 1):
        max_f = relax_step(state, force, dyn, walls)
        ang = triangulation_min_angle(state.positions(), domain)
        trace.add(sweep, state.count, max_f, ang, time.perf_counter() - t0)
        history.append(ang)

        if strategy == "original-qc" and sweep % qc_period == 0:
            changes = _qc_original_state(state, qc_low, qc_high, anchors, domain)
            qc_clean = changes == 0
            if changes:
                history.clear()

        converged = max_f < dyn.force_tol
        if not converged and len(history) >= dyn.stall_window:
            window = history[-dyn.stall_window:]
            converged = (max(window) - min(window)) < dyn.stall_angle
        if converged:
            if strategy == "original-qc" and not qc_clean:
                changes = _qc_original_state(state, qc_low, qc_high, anchors, domain)
                qc_clean = changes == 0
                if changes:
                    history.clear()
                    continue
            trace.converged = True
            trace.converged_sweep = sweep
            break

    return state.to_bubbles(), trace
