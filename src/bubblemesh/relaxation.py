"""Physically-based bubble relaxation and quantity control.

Each bubble, of unit mass, obeys x'' + c x' = f where f sums pairwise
interaction forces. Relaxation needs only the equilibrium, not an accurate
trajectory, so every strategy relaxes by FIRE (`FireState`): a damped
semi-implicit Euler step, one force evaluation per sweep (bubble meshing as
published uses classical RK4, four), with a per-sweep dt, velocity mixing
and restarts, which the system's potential allows. Under original-qc, which
inserts and deletes bubbles, a pass that changes the population puts FIRE's
dt and mixing back to their start.
A sweep steps every mobile bubble at once (Jacobi), each against every
other bubble frozen at its start-of-sweep position, as one step on (2,k)
arrays. Two quantity-control strategies are provided: the original
alternating insert/delete pass driven by a summed overlap ratio, and the
boundary-region pass that prunes bubbles overlapping anchors once, before
any relaxation.

The convergence loop carries each sweep's bookkeeping over from the last,
with the same result: a `SweepPairs` Verlet list of one population, which
holds each pair once and has the force terms laid out over it, and the wall
clamp's room per bubble (`walls.WallClamp`). Each sweep is certified before
its force evaluation: unless the list was built since the population last
changed and every bubble's move since then stays within the list's margin,
an unlisted pair may have come within reach, and the list is built first.

The force test runs after every sweep. The min-angle monitor
(`delaunay.triangulation_min_angle`, one Qhull call, looked up here at call
time) runs only for the stall test: every `_ANGLE_EVERY` sweeps under
original-qc, whose population changes while it relaxes. A fixed population
(new-qc, none) never calls it, and stops by the force test or at the sweep
cap. The relaxed state's min angle is its mesh's (`mesh.quality_report`).
"""
from __future__ import annotations

import csv
import math
import time
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .config import PipelineConfig
from .delaunay import triangulation_min_angle
from .geometry import hashed_unit_direction
from .packing import (BOUNDARY, INTERIOR_ANCHOR, MOBILE, AnchorField, Bubble,
                      PackingDomain, interpolate_radius, overlap_ratio)
from .walls import WallClamp

_KIND_CODE = {BOUNDARY: 0, INTERIOR_ANCHOR: 1, MOBILE: 2}
_KIND_NAME = {v: k for k, v in _KIND_CODE.items()}

# sweeps between two samples of the min-angle monitor, and original-qc's
# stall test: its window in sweeps and the range in degrees it must stay under
_ANGLE_EVERY = 10
_STALL_WINDOW = 30
_STALL_ANGLE = 0.1

# the force law's reach, in units of the pair's rest length r_i + r_j
_CUTOFF = 1.5


class RelaxationError(Exception):
    pass


class ConvergenceTrace:
    """Per-sweep record: bubble count, max net force, min mesh angle, wall time.
    The angle is NaN on the sweeps the monitor did not sample: all under
    new-qc and none, the last included, and all but each `_ANGLE_EVERY`-th
    under original-qc.

    `stop_reason` says why the relaxation ended: "force" (max net force
    under tolerance), "stall" (original-qc only: min angle flat over the
    stall window) or "sweep-cap" (neither before max_sweeps), and the run
    `converged` unless it is "sweep-cap". The counters, deterministic and not written to the CSV:
    `pair_rebuilds` (Verlet pair list builds: the first, one per population
    change and one per sweep that starts without the list's certificate),
    `fire_restarts` (FIRE's sweeps with P <= 0, the first sweep among them;
    `FireState.start` after a population change is not one), `wall_checks`
    (rows sent through the wall clamp's full check), and
    original-qc's `qc_insert_attempts` (bubbles whose summed overlap asked
    for an insertion), `qc_inserts` (insertions placed) and
    `qc_candidates_redone` (insertion candidates derived again on their own
    row inside a pass, because an earlier change of the pass reached them or
    the bubble's sum fell under the low threshold after the pass's batch).
    """

    def __init__(self):
        self.rows: list[tuple[int, int, float, float, float]] = []
        self.stop_reason = "sweep-cap"
        self.pair_rebuilds = 0
        self.fire_restarts = 0
        self.wall_checks = 0
        self.qc_insert_attempts = 0
        self.qc_inserts = 0
        self.qc_candidates_redone = 0

    def add(self, sweep, count, max_force, min_angle, elapsed):
        self.rows.append((int(sweep), int(count), float(max_force),
                          float(min_angle), float(elapsed)))

    @property
    def converged(self) -> bool:
        return self.stop_reason != "sweep-cap"

    @property
    def sweeps(self) -> int:
        return self.rows[-1][0] if self.rows else 0

    @property
    def elapsed(self) -> float:
        return self.rows[-1][4] if self.rows else 0.0

    def sampled_rows(self) -> list[tuple[int, int, float, float, float]]:
        """The rows whose min angle was measured."""
        return [row for row in self.rows if not math.isnan(row[3])]

    def time_to_sustain_angle(self, angle: float) -> float | None:
        """Wall time of the first sampled sweep from which the min angle
        never drops below the target again (transient spikes do not count)."""
        result = None
        for _, _, _, ang, elapsed in self.sampled_rows():
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
                angle = "" if math.isnan(row[3]) else f"{row[3]:.9g}"
                writer.writerow([row[0], row[1], f"{row[2]:.9g}", angle, f"{row[4]:.6f}"])


# ---------------------------------------------------------------------------
# Pair force law: a cubic of unit stiffness in w = l / l0 with F(0) = f0,
# F(1) = 0, F'(1) = -l0 and F(_CUTOFF) = 0

def _cubic_law(l0, f0: float):
    """Per-pair terms of the cubic at rest length l0: the cutoff distance
    _CUTOFF * l0 and the coefficients c1, c2, c3 of F(w) = ((c3 w + c2) w +
    c1) w + f0."""
    c3 = 2.0 * l0 - (2.0 / 3.0) * f0
    c2 = (7.0 / 3.0) * f0 - 5.0 * l0
    c1 = 3.0 * l0 - (8.0 / 3.0) * f0
    return _CUTOFF * l0, c1, c2, c3


_COINCIDENT = 1e-12  # centres closer than this push apart along a hashed direction


def force_magnitude(l, l0, f0: float, law=None):
    """Signed radial force: positive repels, negative attracts, 0 beyond cutoff.
    Takes scalars or equal-shape arrays of distances and rest lengths; `law`
    is `_cubic_law(l0, f0)`, passed in when it is already at hand."""
    reach, c1, c2, c3 = _cubic_law(l0, f0) if law is None else law
    w = l / l0
    return np.where(l >= reach, 0.0, ((c3 * w + c2) * w + c1) * w + f0)


def _coincident_push(i: int, j: int, seed: int, f0: float) -> tuple[float, float]:
    """Force on bubble i from bubble j at the same centre: f0 along the
    hashed direction of the pair (lower index first), reversed when i is
    the higher index, so that the two bubbles are pushed apart."""
    ux, uy = hashed_unit_direction(min(i, j), max(i, j), seed)
    s = f0 if i < j else -f0
    return s * ux, s * uy


def rk4_damped_step(x: np.ndarray, v: np.ndarray, force_fn, m: float, c: float,
                    dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One classical RK4 step of m x'' + c x' = f(x) with frozen surroundings.

    The integrator of bubble meshing as published; no relaxation sweep calls
    it (`relax_step` takes one semi-implicit Euler step)."""
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
# Simulation state

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


# ---------------------------------------------------------------------------
# One relaxation sweep

class SweepPairs:
    """Verlet pair list (Verlet 1967) of one relaxation at the force law's
    f0, with the sweep's force terms laid out over it, kept from sweep to
    sweep while the population stays the same. It holds each undirected
    pair (a, b) of slots once, a < b and at least one of them mobile, within
    force reach _CUTOFF * (r_a + r_b) plus a `margin` at the positions of
    its build. The margin is the largest radius.

    Laid out with the list, the pairs sorted by a * n + b over the n slots:
    `members` (the alive mobile slots, ascending), `bins` (the slots b, a,
    b + n and a + n, where the pairs' x forces on b, on a, then their y
    forces on b and on a go), rest length l0 = r_a + r_b and the
    `_cubic_law` terms `law`.

    A sweep builds it when it is not `certified`: before the first build,
    after `expire` (a population change) and when the moves since the build
    exceed the margin. `rebuilds` counts the builds."""

    def __init__(self, f0: float):
        self.f0 = f0
        self.rebuilds = 0
        self.expire()

    def expire(self):
        """Withdraw the certificate, as a population change does: the next
        sweep builds the list again."""
        self._at = None

    def certified(self, state: RelaxState) -> bool:
        """Whether no unlisted pair can have come within force reach at the
        start of a sweep: the list was built since it last expired, and each
        slot's distance from where the build found it, a member's plus the
        largest, stays within the margin. The sweep evaluates its forces at
        those positions only, so a pair has closed by at most its member's
        move plus its neighbour's move."""
        if self._at is None:
            return False
        moved = np.hypot(state.x - self._at[0], state.y - self._at[1])
        return moved.take(self.members).max(initial=0.0) + moved.max(initial=0.0) <= self.margin

    def forces(self, state: RelaxState) -> np.ndarray:
        """The (2, k) net forces on the k members at the current positions.
        Each pair's force on a is evaluated once, 0 beyond its reach, and
        its force on b is its exact negation; each slot sums its forces from
        its lower neighbours, then its higher ones, each group in ascending
        order, so in ascending neighbour order."""
        a, b, x, y, f0 = self.a, self.b, state.x, state.y, self.f0
        d = np.stack([x.take(a) - x.take(b), y.take(a) - y.take(b)])
        dd = d * d
        l = np.sqrt(dd[0] + dd[1])
        coincident = np.flatnonzero(l < _COINCIDENT)
        l[coincident] = 1.0
        f = force_magnitude(l, self.l0, f0, self.law) * d / l
        for e in coincident.tolist():
            f[:, e] = _coincident_push(int(a[e]), int(b[e]), state.seed, f0)
        f = np.bincount(self.bins, np.concatenate([-f, f], axis=1).ravel(), 2 * len(x))
        return f.reshape(2, -1).take(self.members, axis=1)

    def _build(self, state: RelaxState):
        r_max = state.max_radius()
        margin = r_max
        ids = state.alive_indices()
        px, py, pr = state.x[ids], state.y[ids], state.r[ids]
        if len(ids) and not np.isfinite(np.ptp(px) ** 2 + np.ptp(py) ** 2):
            # the k-d tree squares the extent of the points
            raise RelaxationError("dynamics diverged")
        a, b = cKDTree(np.column_stack([px, py])).query_pairs(
            (2.0 * _CUTOFF * r_max + margin) * _QUERY_PAD,
            output_type="ndarray").T
        reach = _CUTOFF * (pr[a] + pr[b]) + margin
        near = (px[a] - px[b]) ** 2 + (py[a] - py[b]) ** 2 <= (reach * _QUERY_PAD) ** 2
        a, b = ids[a[near]], ids[b[near]]
        mobile = state.kind != _KIND_CODE[BOUNDARY]
        keep = mobile[a] | mobile[b]
        a, b, n = a[keep], b[keep], len(state.alive)
        order = np.argsort(a * n + b)
        self.a, self.b = a, b = a[order], b[order]
        self.members = state.mobile_indices()
        self.bins = np.concatenate([b, a, b + n, a + n])
        self.l0 = state.r[a] + state.r[b]
        self.law = _cubic_law(self.l0, self.f0)
        self.margin = margin
        self._at = state.x.copy(), state.y.copy()
        self.rebuilds += 1


# FIRE's constants: dt at the start, alpha at the start and after a restart,
# the positive sweeps before dt may grow, dt's growth and alpha's decay per
# sweep after them, the largest dt in units of the start dt, and the
# residual damping of its step. Mass and stiffness are one: another
# stiffness would scale f0, the damping's square, 1/dt^2 and the force
# tolerance together, and change no trajectory in sweeps.
_FIRE_DT = 0.4
_FIRE_ALPHA = 0.1
_FIRE_DELAY = 5
_FIRE_GROW, _FIRE_DECAY = 1.1, 0.99
_FIRE_DT_MAX = 1.5
_FIRE_DAMPING = 0.7


class FireState:
    """FIRE (Bitzek et al. 2006) over one relaxation: the sweep's dt, the
    mixing weight `alpha`, the positive sweeps since the last restart and
    the count of `restarts`.

    Each sweep weighs the power P = sum f . v at its start positions (each
    sum taken in member order, one bubble after another). If P > 0 it mixes
    v <- (1 - alpha) v + alpha |v| f / |f| over all members at once, and
    from the `_FIRE_DELAY + 1`-th positive sweep on grows dt by
    `_FIRE_GROW` up to `_FIRE_DT_MAX` times `_FIRE_DT` and decays
    alpha by `_FIRE_DECAY`; otherwise it zeroes v, halves dt and restarts
    alpha at `_FIRE_ALPHA`. A relaxation starts at rest, so its first sweep
    restarts too. The damped semi-implicit Euler step (the MD step of FIRE
    2.0, Guenole et al. 2020) then takes that dt and the residual damping
    `_FIRE_DAMPING`."""

    def __init__(self):
        self.restarts = 0
        self.start()

    def start(self):
        """Put dt, alpha and the positive sweeps back to their start values,
        as after a population change; `restarts` carries over."""
        self.dt, self.alpha, self.positive = _FIRE_DT, _FIRE_ALPHA, 0

    def mix(self, v: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The (2, k) velocities v that the sweep steps with, given the
        forces f at its start positions; updates dt and alpha."""
        power = _running_sum(f[0] * v[0] + f[1] * v[1])
        if not power > 0.0:
            self.dt *= 0.5
            self.alpha = _FIRE_ALPHA
            self.positive = 0
            self.restarts += 1
            return np.zeros_like(v)
        v_norm = math.sqrt(_running_sum(v[0] * v[0] + v[1] * v[1]))
        f_norm = math.sqrt(_running_sum(f[0] * f[0] + f[1] * f[1]))
        v = (1.0 - self.alpha) * v + (self.alpha * v_norm / f_norm) * f
        self.positive += 1
        if self.positive > _FIRE_DELAY:
            self.dt = min(_FIRE_GROW * self.dt, _FIRE_DT_MAX * _FIRE_DT)
            self.alpha *= _FIRE_DECAY
        return v


def _running_sum(a: np.ndarray) -> float:
    """The sum of a's entries added one after another, in order."""
    return float(np.cumsum(a)[-1])


def relax_step(state: RelaxState, walls: WallClamp, pairs: SweepPairs,
               fire: FireState) -> float:
    """Integrate every mobile bubble over one time step at once (a Jacobi
    sweep), each against every other bubble frozen at its start-of-sweep
    position; returns the max net-force magnitude at the start positions.
    A bubble that ends its step without a radius of clearance from the
    domain boundary is projected back and stopped (`walls.clamp`).

    The members take one FIRE step on (2,k) arrays, with f the forces at
    the start positions (`SweepPairs.forces` over `pairs`, built first when
    it is not certified): FIRE mixes or zeroes v0 and sets dt
    (`FireState.mix` of `fire`), then the damped semi-implicit Euler step
    v1 = v0 + dt (f - c v0) / m, p1 = p0 + dt v1, takes c = `_FIRE_DAMPING`.
    """
    if not pairs.certified(state):
        pairs._build(state)
    members = pairs.members
    if not len(members):
        return 0.0
    x, y = state.x, state.y
    p0 = np.stack([x.take(members), y.take(members)])
    v0 = np.stack([state.vx.take(members), state.vy.take(members)])
    f = pairs.forces(state)
    v0 = fire.mix(v0, f)
    v1 = v0 + fire.dt * (f - _FIRE_DAMPING * v0)
    p1 = p0 + fire.dt * v1
    if not (np.isfinite(p1).all() and np.isfinite(v1).all()):
        raise RelaxationError("dynamics diverged")
    p1, stopped = walls.clamp(members, p1.T, state.r[members])
    v1[:, stopped] = 0.0
    x[members], y[members] = p1.T
    state.vx[members], state.vy[members] = v1
    return float(np.sqrt(f[0] * f[0] + f[1] * f[1]).max())


# ---------------------------------------------------------------------------
# Quantity control

def _overlap_sums(state: RelaxState, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Original-qc summed overlap of every slot over the directed pairs
    (i, j), added in the order given (`np.bincount`): each other bubble j
    within 2 r_i (1 + 1e-12), the slack keeping exact tangency inclusive,
    adds (2 r_i + r_j - l) / r_i, so a tangent equal-radius neighbour adds 1."""
    ri = state.r[i]
    l = np.hypot(state.x[j] - state.x[i], state.y[j] - state.y[i])
    near = (l <= 2.0 * ri * (1.0 + 1e-12)) & (i != j)
    return np.bincount(i[near], ((2.0 * ri + state.r[j] - l) / ri)[near], len(state.alive))


def _pass_queries(state: RelaxState):
    """Ball queries of one original-qc pass: the alive slots `ids` at its
    start, their k-d tree, and `near(x, y, radius)`, the (row, slot) pairs
    of the alive slots within the padded radius of each point (x[row],
    y[row]) of the arrays, by row, then slot, from a tree built again after
    insertions."""
    ids = state.alive_indices()
    tree = cKDTree(state.positions(ids))
    built = [len(state.alive), ids, tree]

    def near(x, y, radius):
        if built[0] != len(state.alive):
            slots = state.alive_indices()
            built[:] = len(state.alive), slots, cKDTree(state.positions(slots))
        hits = built[2].query_ball_point(np.column_stack([x, y]), radius * _QUERY_PAD,
                                         return_sorted=True)
        own = np.repeat(np.arange(len(hits)), [len(h) for h in hits])
        slot = built[1][np.fromiter(chain.from_iterable(hits), np.intp, len(own))]
        keep = state.alive[slot]
        return own[keep], slot[keep]

    return ids, tree, near


def _insertion_candidates(state: RelaxState, rows: np.ndarray, near, anchors: AnchorField,
                          walls: WallClamp, max_r: float):
    """The original-qc insertion candidate of each mobile slot in `rows`,
    each row derived on its own, so a batch equals one-row calls bit for
    bit: the new bubble's centre x and y, its radius, whether the wall check
    (`walls.clear`) leaves it alone, and its blockers as (row, slot) pairs,
    by row: the alive slots within r_new + max_r of the new bubble that it
    would overlap by a ratio above 1.

    The new bubble is tangent to the slot's bubble (radius r0), in the middle
    of the largest angular gap (the first of equals) between the other
    bubbles within 3 r0, opposite the only one, or along the slot's hashed
    direction when there is none. Its radius is interpolated from the
    anchors 2 r0 out in that direction (r0 without anchors). Angles and
    distances come from `math`, which rounds apart from numpy's."""
    x0, y0, r0 = state.x[rows], state.y[rows], state.r[rows]
    # gap directions come from the wider force neighborhood so the
    # insertion never aims at a bubble just beyond the 2 r0 window
    own, j = near(x0, y0, 3.0 * r0)
    dx, dy = (state.x[j] - x0[own]).tolist(), (state.y[j] - y0[own]).tolist()
    wide = (j != rows[own]) & (np.array(list(map(math.hypot, dx, dy))) <= 3.0 * r0[own])
    angle = np.array(list(map(math.atan2, dy, dx)))[wide]
    own = own[wide]
    angle = angle[np.lexsort((angle, own))]  # own is sorted already
    count = np.bincount(own, minlength=len(rows))
    first = np.cumsum(count) - count
    at = np.arange(len(own))
    following = np.where(at + 1 < (first + count)[own], at + 1, first[own])
    gap = (angle[following] - angle) % (2.0 * math.pi)
    direction = np.empty(len(rows))
    some = count > 0
    best = np.lexsort((at, -gap, own))[first[some]]  # largest gap, then lowest k
    direction[some] = np.where(count[some] == 1, angle[best] + math.pi,
                               angle[best] + 0.5 * gap[best])
    for k in np.flatnonzero(~some).tolist():
        ux, uy = hashed_unit_direction(int(rows[k]), int(rows[k]), state.seed)
        direction[k] = math.atan2(uy, ux)
    ca = np.array(list(map(math.cos, direction.tolist())))
    sa = np.array(list(map(math.sin, direction.tolist())))
    if anchors:
        r_new = interpolate_radius(x0 + 2.0 * r0 * ca, y0 + 2.0 * r0 * sa, anchors,
                                   walls.domain.sizing)
    else:
        r_new = r0
    nx = x0 + (r0 + r_new) * ca
    ny = y0 + (r0 + r_new) * sa
    clear = walls.clear(np.column_stack([nx, ny]), r_new)
    # block only severe collisions; milder crowding is the original
    # method's own churn and gets resolved by its delete branch
    own, j = near(nx, ny, r_new + max_r)
    l = np.array(list(map(math.hypot, (state.x[j] - nx[own]).tolist(),
                          (state.y[j] - ny[own]).tolist())))
    hit = overlap_ratio(l, r_new[own], state.r[j]) > 1.0
    return nx, ny, r_new, clear, own[hit], j[hit]


def _qc_original_state(state: RelaxState, low: float, high: float,
                       anchors: AnchorField, walls: WallClamp,
                       trace: ConvergenceTrace) -> int:
    """Single pass over bubble indices: insert into the largest angular gap
    (`_insertion_candidates`) when the summed overlap is below `low`, delete
    when above `high`; returns the number of changes, and adds the
    insertions attempted, placed and derived again to `trace`'s counters.

    The summed overlaps come from one k-d tree pair pass; a bubble is summed
    again, on its own row, when a change earlier in the pass fell within
    2 r_max of it. The insertion candidates of the bubbles under `low` at
    the pass start come from one batch; one is derived again, on its own
    row, when a change earlier in the pass fell within 3 r0 of its bubble or
    an insertion within r_new + max_r of its new bubble, and so is that of a
    bubble whose summed overlap fell under `low` since the start. A
    candidate is placed unless the wall check (`walls.clear`) would move it
    or a blocker is alive."""
    n0 = len(state.alive)
    ids, tree, near = _pass_queries(state)
    max_r = state.max_radius()
    window = 2.0 * max_r * _QUERY_PAD
    a, b = ids[tree.query_pairs(window, output_type="ndarray")].reshape(-1, 2).T
    order = np.argsort(a * n0 + b)
    a, b = a[order], b[order]
    # each slot sums its lower neighbours, then its higher ones: in ascending order
    totals = _overlap_sums(state, np.concatenate([b, a]), np.concatenate([a, b]))
    stale = np.zeros(n0, dtype=bool)
    mobile = np.flatnonzero(state.alive & (state.kind == _KIND_CODE[MOBILE]))
    want = mobile[totals[mobile] < low]
    batch = _insertion_candidates(state, want, near, anchors, walls, max_r)
    row_of = dict(zip(want.tolist(), range(len(want))))
    fresh = np.ones(len(want), dtype=bool)  # reached by no change so far
    wide_reach = 3.0 * state.r[want] * _QUERY_PAD
    block_reach = (batch[2] + max_r) * _QUERY_PAD
    changes = attempts = redone = 0
    for i in mobile.tolist():
        total = totals[i]
        if stale[i]:
            _, row = near(state.x[i:i + 1], state.y[i:i + 1], 2.0 * state.r[i:i + 1])
            total = _overlap_sums(state, np.full(len(row), i), row)[i]
        if total > high:
            state.alive[i] = False
            at = (state.x[i], state.y[i])
        elif total < low:
            attempts += 1
            cand, k = batch, row_of.get(i)
            if k is None or not fresh[k]:
                cand, k = _insertion_candidates(state, np.array([i]), near, anchors,
                                                walls, max_r), 0
                redone += 1
            nx, ny, r_new, clear, own, blockers = cand
            if not clear[k] or state.alive[blockers[own == k]].any():
                continue
            nx, ny, r_new = nx[k], ny[k], r_new[k]
            state.append(nx, ny, r_new, MOBILE)
            at = (nx, ny)
            # an insertion may block the candidates within its reach
            fresh &= np.hypot(batch[0] - nx, batch[1] - ny) > block_reach
        else:
            continue
        changes += 1
        # a deletion or insertion moves the gaps of the bubbles within 3 r0
        fresh &= np.hypot(state.x[want] - at[0], state.y[want] - at[1]) > wide_reach
        # a deletion or insertion moves the sums of the bubbles within 2 r_max
        stale[ids[tree.query_ball_point(at, window)]] = True
    trace.qc_insert_attempts += attempts
    trace.qc_inserts += len(state.alive) - n0
    trace.qc_candidates_redone += redone
    return changes


def _qc_boundary_region_state(state: RelaxState, anchors: AnchorField,
                              threshold: float) -> int:
    """Remove every mobile bubble whose overlap ratio with an anchor (the
    state's other bubbles, none moved yet) exceeds the threshold, by gap
    filling's test `AnchorField.overlap_at_most`; return how many went. A
    removal moves no other pair's overlap, so one pass decides all."""
    mobiles = np.flatnonzero(state.alive & (state.kind == _KIND_CODE[MOBILE]))
    gone = mobiles[~anchors.overlap_at_most(state.positions(mobiles), state.r[mobiles],
                                            threshold)]
    state.alive[gone] = False
    return len(gone)


# ---------------------------------------------------------------------------
# Convergence loop

def relax_until_converged(bubbles: list[Bubble], domain: PackingDomain,
                          cfg: PipelineConfig | None = None, *,
                          strategy: str | None = None
                          ) -> tuple[list[Bubble], ConvergenceTrace]:
    """Relax bubbles to equilibrium under the chosen quantity-control strategy,
    with the relaxation keys of `cfg` (`max_sweeps`, `force_tol_factor`,
    `qc_*`, `seed`; the defaults when None). `strategy` defaults to
    `cfg.qc` + "-qc"; "none" runs no quantity control.

    The force and its tolerance scale with the input bubbles, before any
    pruning: f0 is the smallest radius, which at the force law's unit
    stiffness keeps the cubic repulsive below tangency and attractive up to
    the cutoff for every pair scale in the population, and the sweeps stop
    by force once the max net force is under `force_tol_factor` times the
    mean radius.

    Every strategy takes FIRE sweeps (`FireState`, one per relaxation).
    new-qc: one boundary-region pruning pass before the sweeps.
    original-qc: a quantity-control pass every `qc_period` sweeps; a pass
    that changes the population puts FIRE's dt, alpha and positive sweeps
    back to their start (`FireState.start`), keeping the velocities, and
    expires the pair list (`SweepPairs.expire`). It
    converges only when the force/stall tests pass and a pass makes zero
    changes.

    The force test runs every sweep; new-qc and none stop by it or at
    `max_sweeps`. Under original-qc, the stall test also runs on the
    min-angle samples, taken every `_ANGLE_EVERY` sweeps: it passes when the
    samples spanning the last `_STALL_WINDOW` sweeps lie within
    `_STALL_ANGLE` degrees, and a quantity-control pass that changes the
    population clears them. No other sweep calls the monitor.
    """
    cfg = PipelineConfig() if cfg is None else cfg
    strategy = strategy or f"{cfg.qc}-qc"
    if strategy not in ("new-qc", "original-qc", "none"):
        raise ValueError(f"unknown strategy '{strategy}'")
    radii = [b.radius for b in bubbles]
    f0 = float(np.min(radii))
    if not f0 > 0.0:
        raise RelaxationError(f"f0 (the smallest radius, {f0}) must be positive")
    force_tol = cfg.force_tol_factor * float(np.mean(radii))
    t0 = time.perf_counter()
    trace = ConvergenceTrace()

    state = RelaxState(bubbles, seed=cfg.seed)
    anchors = AnchorField([b for b in bubbles if b.kind != MOBILE])
    if strategy == "new-qc":
        _qc_boundary_region_state(state, anchors, cfg.qc_threshold)

    walls = WallClamp(domain)
    original = strategy == "original-qc"
    history: list[float] = []  # min-angle samples since the last population change
    span = _STALL_WINDOW // _ANGLE_EVERY + 1
    qc_clean = not original
    pairs = SweepPairs(f0)
    fire = FireState()

    def quantity_control() -> bool:
        """One original-qc pass; whether it left the population as it was."""
        nonlocal qc_clean
        qc_clean = _qc_original_state(state, cfg.qc_low, cfg.qc_high, anchors, walls,
                                      trace) == 0
        if not qc_clean:
            history.clear()
            fire.start()
            pairs.expire()
        return qc_clean

    for sweep in range(1, cfg.max_sweeps + 1):
        max_f = relax_step(state, walls, pairs, fire)
        count, ang = state.count, math.nan
        # a row describes the population before the sweep's quantity control
        sample = original and sweep % _ANGLE_EVERY == 0
        if sample:
            ang = triangulation_min_angle(state.positions(), domain)
            history.append(ang)
        elapsed = time.perf_counter() - t0

        if original and sweep % cfg.qc_period == 0:
            quantity_control()

        reason = "force" if max_f < force_tol else None
        if reason is None and sample and len(history) >= span:
            window = history[-span:]
            if (max(window) - min(window)) < _STALL_ANGLE:
                reason = "stall"
        # original-qc stops only after a pass that changes nothing
        if reason and (qc_clean or quantity_control()):
            trace.stop_reason = reason
        trace.add(sweep, count, max_f, ang, elapsed)
        if trace.converged:
            break

    trace.pair_rebuilds = pairs.rebuilds
    trace.fire_restarts = fire.restarts
    trace.wall_checks = walls.checks
    return state.to_bubbles(), trace
