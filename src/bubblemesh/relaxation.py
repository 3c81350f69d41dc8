"""Physically-based bubble relaxation and quantity control.

Each bubble obeys m x'' + c x' = f where f sums pairwise interaction forces;
the ODE is integrated with classical RK4 one bubble at a time, all other
bubbles frozen during that bubble's step. Two quantity-control strategies
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
from scipy.spatial import QhullError

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


def force_magnitude(l: float, l0: float, params: ForceParams) -> float:
    """Signed radial force: positive repels, negative attracts, 0 beyond cutoff."""
    if l >= params.cutoff * l0:
        return 0.0
    c1, c2, c3 = _cubic_coeffs(l0, params.k, params.f0)
    w = l / l0
    return ((c3 * w + c2) * w + c1) * w + params.f0


def pair_force(b_i: Bubble, b_j: Bubble, params: ForceParams,
               i: int = 0, j: int = 1, seed: int = 0) -> np.ndarray:
    """Force exerted on b_i by b_j, along the center line."""
    dx = b_i.x - b_j.x
    dy = b_i.y - b_j.y
    l = math.hypot(dx, dy)
    if l < 1e-12:
        ux, uy = hashed_unit_direction(i, j, seed)
        return np.array([params.f0 * ux, params.f0 * uy])
    mag = force_magnitude(l, b_i.radius + b_j.radius, params)
    return np.array([mag * dx / l, mag * dy / l])


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
    """Mutable array-of-floats state for a bubble population."""

    __slots__ = ("x", "y", "vx", "vy", "r", "kind", "alive", "seed")

    def __init__(self, bubbles: list[Bubble], seed: int = 0):
        self.x = [float(b.x) for b in bubbles]
        self.y = [float(b.y) for b in bubbles]
        self.vx = [0.0] * len(bubbles)
        self.vy = [0.0] * len(bubbles)
        self.r = [float(b.radius) for b in bubbles]
        self.kind = [_KIND_CODE[b.kind] for b in bubbles]
        self.alive = [True] * len(bubbles)
        self.seed = seed

    def append(self, x, y, radius, kind=MOBILE):
        self.x.append(float(x))
        self.y.append(float(y))
        self.vx.append(0.0)
        self.vy.append(0.0)
        self.r.append(float(radius))
        self.kind.append(_KIND_CODE[kind])
        self.alive.append(True)

    def alive_indices(self) -> list[int]:
        return [i for i, a in enumerate(self.alive) if a]

    def mobile_indices(self) -> list[int]:
        return [i for i, a in enumerate(self.alive) if a and self.kind[i] != 0]

    @property
    def count(self) -> int:
        return sum(self.alive)

    def to_bubbles(self) -> list[Bubble]:
        return [Bubble(self.x[i], self.y[i], self.r[i], _KIND_NAME[self.kind[i]])
                for i in self.alive_indices()]

    def positions(self, indices=None) -> np.ndarray:
        idx = self.alive_indices() if indices is None else indices
        return np.array([[self.x[i], self.y[i]] for i in idx])


class UniformGrid:
    """Uniform hash grid over alive bubbles; cell size 2x the max current radius."""

    def __init__(self, state: RelaxState, indices=None):
        idx = state.alive_indices() if indices is None else indices
        rmax = max((state.r[i] for i in idx), default=1.0)
        self.cell = max(2.0 * rmax, 1e-12)
        self.max_r = rmax
        self.table: dict[tuple[int, int], list[int]] = {}
        x, y, cell = state.x, state.y, self.cell
        for i in idx:
            key = (int(math.floor(x[i] / cell)), int(math.floor(y[i] / cell)))
            self.table.setdefault(key, []).append(i)

    def gather(self, x: float, y: float, radius: float) -> list[int]:
        reach = int(math.ceil(radius / self.cell))
        cx = int(math.floor(x / self.cell))
        cy = int(math.floor(y / self.cell))
        out: list[int] = []
        table = self.table
        for ix in range(cx - reach, cx + reach + 1):
            for iy in range(cy - reach, cy + reach + 1):
                lst = table.get((ix, iy))
                if lst:
                    out.extend(lst)
        return out


WALL_CLEARANCE = 1.0  # a bubble's disk must stay inside the wall: its center
                      # keeps a full radius of clearance, or it is projected


class _BoundaryProximity:
    """Grid cells near the domain boundary, each holding the segment indices
    that pass close by, so wall checks touch only a handful of segments."""

    def __init__(self, domain: PackingDomain, cell: float):
        self.cell = cell
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

    def local_segments(self, x: float, y: float):
        key = (int(math.floor(x / self.cell)), int(math.floor(y / self.cell)))
        return self.cells.get(key)

    def outside_bbox(self, x: float, y: float) -> bool:
        x0, y0, x1, y1 = self.bbox
        return x < x0 or x > x1 or y < y0 or y > y1

    def enforce_clearance(self, domain: PackingDomain, x: float, y: float,
                          radius: float):
        """Project a bubble that escaped or hugs the wall back to a full
        radius of clearance; returns None when no correction is needed."""
        local = self.local_segments(x, y)
        if local is None:
            if self.outside_bbox(x, y):
                return domain.project_inside(x, y, radius)
            return None
        best_d2 = math.inf
        best = None
        for si in local:
            ax, ay, bx, by = self.segments[si]
            qx, qy, d2 = closest_point_on_segment(x, y, ax, ay, bx, by)
            if d2 < best_d2:
                best_d2 = d2
                best = (qx, qy, ax, ay, bx, by)
        if best is None:
            return None
        qx, qy, ax, ay, bx, by = best
        clearance = WALL_CLEARANCE * radius
        # interior is to the left of the nearest directed segment
        inside = (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0.0
        if best_d2 >= clearance * clearance and inside:
            return None
        ln = math.hypot(bx - ax, by - ay)
        if ln <= 0.0:
            return domain.project_inside(x, y, radius)
        nx, ny = -(by - ay) / ln, (bx - ax) / ln
        return qx + nx * radius, qy + ny * radius


# ---------------------------------------------------------------------------
# One relaxation sweep

def relax_step(state: RelaxState, force: ForceParams, dyn: DynamicsParams,
               domain: PackingDomain | None = None,
               grid: UniformGrid | None = None) -> float:
    """Sequentially integrate every mobile bubble over one dt; returns the max
    net-force magnitude observed at the bubbles' pre-step positions."""
    if grid is None:
        grid = UniformGrid(state)
    xs, ys, vxs, vys, rs = state.x, state.y, state.vx, state.vy, state.r
    cutoff, k, f0 = force.cutoff, force.k, force.f0
    m, c, dt = dyn.m, dyn.c, dyn.dt
    seed = state.seed
    sqrt = math.sqrt
    mobile = state.mobile_indices()
    alive = state.alive

    # candidate neighbor lists from start-of-sweep positions, with slack for
    # the motion that happens during the sweep; the distance cull is
    # vectorized because graded populations gather hundreds of candidates
    slack = 0.5 * grid.max_r
    xs_np = np.asarray(xs)
    ys_np = np.asarray(ys)
    rs_np = np.asarray(rs)
    alive_np = np.asarray(alive)
    neighbor_lists: dict[int, list[int]] = {}
    for i in mobile:
        cand = grid.gather(xs[i], ys[i], cutoff * (rs[i] + grid.max_r) + slack)
        idx = np.asarray(cand, dtype=np.int64)
        reach = cutoff * (rs[i] + rs_np[idx]) + slack
        d2 = (xs_np[idx] - xs[i]) ** 2 + (ys_np[idx] - ys[i]) ** 2
        mask = (d2 <= reach * reach) & alive_np[idx] & (idx != i)
        neighbor_lists[i] = idx[mask].tolist()

    prox = None
    if domain is not None:
        prox = _BoundaryProximity(domain, grid.cell)

    two_thirds_f0 = (2.0 / 3.0) * f0
    seven_thirds_f0 = (7.0 / 3.0) * f0
    eight_thirds_f0 = (8.0 / 3.0) * f0
    max_f = 0.0

    for i in mobile:
        nbrs = neighbor_lists[i]
        ri = rs[i]

        def net(px, py):
            fx = 0.0
            fy = 0.0
            for j in nbrs:
                if not alive[j]:
                    continue
                dx = px - xs[j]
                dy = py - ys[j]
                l0 = ri + rs[j]
                lc = cutoff * l0
                l2 = dx * dx + dy * dy
                if l2 >= lc * lc:
                    continue
                if l2 < 1e-24:
                    ux, uy = hashed_unit_direction(i, j, seed)
                    fx += f0 * ux
                    fy += f0 * uy
                    continue
                l = sqrt(l2)
                kl = k * l0
                w = l / l0
                mag = (((2.0 * kl - two_thirds_f0) * w
                        + (seven_thirds_f0 - 5.0 * kl)) * w
                       + (3.0 * kl - eight_thirds_f0)) * w + f0
                s = mag / l
                fx += dx * s
                fy += dy * s
            return fx, fy

        x0, y0 = xs[i], ys[i]
        vx0, vy0 = vxs[i], vys[i]

        f1x, f1y = net(x0, y0)
        fmag = sqrt(f1x * f1x + f1y * f1y)
        if fmag > max_f:
            max_f = fmag
        a1x = (f1x - c * vx0) / m
        a1y = (f1y - c * vy0) / m

        k2x = vx0 + 0.5 * dt * a1x
        k2y = vy0 + 0.5 * dt * a1y
        f2x, f2y = net(x0 + 0.5 * dt * vx0, y0 + 0.5 * dt * vy0)
        a2x = (f2x - c * k2x) / m
        a2y = (f2y - c * k2y) / m

        k3x = vx0 + 0.5 * dt * a2x
        k3y = vy0 + 0.5 * dt * a2y
        f3x, f3y = net(x0 + 0.5 * dt * k2x, y0 + 0.5 * dt * k2y)
        a3x = (f3x - c * k3x) / m
        a3y = (f3y - c * k3y) / m

        k4x = vx0 + dt * a3x
        k4y = vy0 + dt * a3y
        f4x, f4y = net(x0 + dt * k3x, y0 + dt * k3y)
        a4x = (f4x - c * k4x) / m
        a4y = (f4y - c * k4y) / m

        x1 = x0 + (dt / 6.0) * (vx0 + 2.0 * k2x + 2.0 * k3x + k4x)
        y1 = y0 + (dt / 6.0) * (vy0 + 2.0 * k2y + 2.0 * k3y + k4y)
        vx1 = vx0 + (dt / 6.0) * (a1x + 2.0 * a2x + 2.0 * a3x + a4x)
        vy1 = vy0 + (dt / 6.0) * (a1y + 2.0 * a2y + 2.0 * a3y + a4y)

        if not (math.isfinite(x1) and math.isfinite(y1)
                and math.isfinite(vx1) and math.isfinite(vy1)):
            raise RelaxationError("dynamics diverged; reduce dt")

        if prox is not None:
            corrected = prox.enforce_clearance(domain, x1, y1, ri)
            if corrected is not None:
                x1, y1 = corrected
                vx1 = vy1 = 0.0

        xs[i] = x1
        ys[i] = y1
        vxs[i] = vx1
        vys[i] = vy1

    return max_f


# ---------------------------------------------------------------------------
# Overlap ratios and quantity control

def overlap_pairwise(b0: Bubble, b_i: Bubble) -> float:
    """(r0 + ri - l) / min(r0, ri): 0 at tangency, negative when separated."""
    l = math.hypot(b0.x - b_i.x, b0.y - b_i.y)
    return (b0.radius + b_i.radius - l) / min(b0.radius, b_i.radius)


def overlap_original(i: int, bubbles: list[Bubble],
                     grid: UniformGrid | None = None,
                     state: RelaxState | None = None) -> float:
    """Summed overlap ratio of bubble i against neighbors within 2*r0.

    Each exactly tangent equal-radius neighbor contributes 1. The neighbor
    cutoff carries a 1e-12 relative slack so exact tangency is inclusive
    under floating point.
    """
    if state is None:
        state = RelaxState(bubbles)
    r0 = state.r[i]
    x0, y0 = state.x[i], state.y[i]
    reach = 2.0 * r0
    if grid is None:
        cand = [j for j in state.alive_indices() if j != i]
    else:
        cand = [j for j in grid.gather(x0, y0, reach) if j != i and state.alive[j]]
    total = 0.0
    for j in cand:
        l = math.hypot(state.x[j] - x0, state.y[j] - y0)
        if l <= reach * (1.0 + 1e-12):
            total += (2.0 * r0 + state.r[j] - l) / r0
    return total


def _qc_original_state(state: RelaxState, low: float, high: float,
                       anchors: list[Bubble], domain: PackingDomain | None) -> int:
    """Single pass over bubble indices: insert into the largest angular gap
    when the summed overlap is below `low`, delete when above `high`.

    Inserted bubbles join the neighbor index immediately so later bubbles in
    the same pass see them; insertions that would violate the wall clearance
    are skipped.
    """
    grid = UniformGrid(state)
    segments = domain.all_segments() if domain is not None else None
    changes = 0
    n0 = len(state.alive)
    for i in range(n0):
        if not state.alive[i] or state.kind[i] != _KIND_CODE[MOBILE]:
            continue
        r0 = state.r[i]
        x0, y0 = state.x[i], state.y[i]
        reach = 2.0 * r0
        nbrs = []
        for j in grid.gather(x0, y0, reach):
            if j == i or not state.alive[j]:
                continue
            l = math.hypot(state.x[j] - x0, state.y[j] - y0)
            if l <= reach * (1.0 + 1e-12):
                nbrs.append((j, l))
        total = sum((2.0 * r0 + state.r[j] - l) / r0 for j, l in nbrs)
        if total > high:
            state.alive[i] = False
            changes += 1
        elif total < low:
            # gap directions come from the wider force neighborhood so the
            # insertion never aims at a bubble just beyond the 2 r0 window
            wide = []
            for j in grid.gather(x0, y0, 3.0 * r0):
                if j != i and state.alive[j]:
                    l = math.hypot(state.x[j] - x0, state.y[j] - y0)
                    if l <= 3.0 * r0:
                        wide.append(j)
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
            crowded = False
            for j in grid.gather(nx, ny, r_new + grid.max_r):
                if j == i or not state.alive[j]:
                    continue
                l = math.hypot(state.x[j] - nx, state.y[j] - ny)
                if (r_new + state.r[j] - l) / min(r_new, state.r[j]) > 1.0:
                    crowded = True
                    break
            if crowded:
                continue
            j_new = len(state.alive)
            state.append(nx, ny, r_new, MOBILE)
            key = (int(math.floor(nx / grid.cell)), int(math.floor(ny / grid.cell)))
            grid.table.setdefault(key, []).append(j_new)
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
    grid = UniformGrid(state)
    anchor_set = set(anchor_ids)
    removed = 0
    for a in anchor_ids:
        if not state.alive[a]:
            continue
        ra = state.r[a]
        xa, ya = state.x[a], state.y[a]
        hits = []
        for j in grid.gather(xa, ya, ra + grid.max_r):
            if j in anchor_set or not state.alive[j] or state.kind[j] != _KIND_CODE[MOBILE]:
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

    anchors = [bubbles[i] for i in anchor_ids]
    history: list[float] = []
    qc_clean = strategy != "original-qc"

    for sweep in range(1, dyn.max_sweeps + 1):
        max_f = relax_step(state, force, dyn, domain=domain)
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
