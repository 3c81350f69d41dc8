import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from bubblemesh import relaxation
from bubblemesh.config import PipelineConfig, PipelineError
from bubblemesh.geometry import (hashed_unit_direction, nearest_segments,
                                 segment_distances)
from bubblemesh.packing import (BOUNDARY, INTERIOR_ANCHOR, MOBILE, AnchorField, Bubble,
                                PackingDomain, interpolate_radius, overlap_ratio,
                                pack_boundary, pack_interior_quadtree)
from bubblemesh.relaxation import (_QUERY_PAD, ConvergenceTrace, FireState,
                                   RelaxationError, RelaxState, SweepPairs, _overlap_sums,
                                   force_magnitude, relax_step,
                                   relax_until_converged, rk4_damped_step)
from bubblemesh.walls import WallClamp

from conftest import (bench_module, closest_point_on_segment, far_box, loop_segments,
                      scalar_ball_query, scalar_pair_force, scalar_qc_boundary_region)

F0 = 1.0  # the force law's f0 in the step-level tests
DT = 0.4  # FIRE's start dt


def sweep_neighbors(state, cutoff, margin):
    """Directed pairs (i, j), i a mobile bubble and j any alive one within
    the pair's force reach cutoff * (r_i + r_j) plus `margin`, sorted by i,
    then j, from a fresh k-d tree query with SweepPairs' padded distance
    test: the reference for the pairs that SweepPairs lists."""
    r_max = state.max_radius()
    ids = state.alive_indices()
    px, py, pr = state.x[ids], state.y[ids], state.r[ids]
    a, b = cKDTree(np.column_stack([px, py])).query_pairs(
        (2.0 * cutoff * r_max + margin) * _QUERY_PAD, output_type="ndarray").T
    reach = cutoff * (pr[a] + pr[b]) + margin
    keep = (px[a] - px[b]) ** 2 + (py[a] - py[b]) ** 2 <= (reach * _QUERY_PAD) ** 2
    i = ids[np.concatenate([a[keep], b[keep]])]
    j = ids[np.concatenate([b[keep], a[keep]])]
    moving = state.kind[i] != relaxation._KIND_CODE[BOUNDARY]
    i, j = i[moving], j[moving]
    order = np.lexsort((j, i))
    return i[order], j[order]


def directed_view(pairs, state):
    """The directed pairs (i, j), i mobile, sorted by i, then j, of the
    pairs that `pairs` holds once: each pair (a, b) as (a, b) when a is
    mobile and as (b, a) when b is."""
    mobile = state.kind != relaxation._KIND_CODE[BOUNDARY]
    a, b = pairs.a, pairs.b
    i = np.concatenate([a[mobile[a]], b[mobile[b]]])
    j = np.concatenate([b[mobile[a]], a[mobile[b]]])
    order = np.lexsort((j, i))
    return i[order], j[order]


def directed_forces(state, f0, members, i, j):
    """The (2, k) net forces on the members over the directed pairs (i, j),
    sorted by i, then j: each pair's force on i evaluated on its own, once
    per direction, and summed per member in that order. The sweep kernel of
    the list that held both directions of a pair, kept as the oracle of
    `SweepPairs.forces`."""
    x, y, k = state.x, state.y, len(members)
    owner = np.searchsorted(members, i)
    bins = np.concatenate([owner, owner + k])
    p0 = np.stack([x.take(members), y.take(members)])
    d = p0.take(owner, axis=1) - np.stack([x.take(j), y.take(j)])
    dd = d * d
    l = np.sqrt(dd[0] + dd[1])
    coincident = np.flatnonzero(l < 1e-12)
    l[coincident] = 1.0
    f = force_magnitude(l, state.r[i] + state.r[j], f0) * d / l
    for e in coincident.tolist():
        f[:, e] = relaxation._coincident_push(int(i[e]), int(j[e]), state.seed, f0)
    return np.bincount(bins, f.ravel(), 2 * k).reshape(2, k)


def euler_step(x, v, f, dt):
    """The damped semi-implicit Euler step of x'' + 0.7 x' = f that a FIRE
    sweep takes at dt: the new velocity first, then the position with it."""
    v1 = v + dt * (f - 0.7 * v)
    return x + dt * v1, v1


def jacobi_sweep(state, f0, walls=None, fire=None):
    """One sweep as a fresh all-pairs list gives it: every mobile bubble
    steps at once against every other alive bubble at its start-of-sweep
    position, its forces summed in ascending neighbour order, then FIRE
    mixes the velocities (`fire`, a fresh `FireState` when None) and the
    step takes its dt. A pair beyond its force reach adds an exact zero, so
    relax_step, over a list holding every pair within reach, must end here
    bit for bit."""
    x, y, r = state.x, state.y, state.r
    members, ids = state.mobile_indices(), state.alive_indices()
    i, j = np.repeat(members, len(ids)), np.tile(ids, len(members))
    i, j = i[i != j], j[i != j]
    owner = np.searchsorted(members, i)
    p0 = state.positions(members)
    dx, dy = p0[owner, 0] - x[j], p0[owner, 1] - y[j]
    l = np.sqrt(dx * dx + dy * dy)
    coincident = l < 1e-12
    l = np.where(coincident, 1.0, l)
    mag = force_magnitude(l, r[i] + r[j], f0)
    fx, fy = mag * dx / l, mag * dy / l
    for e in np.flatnonzero(coincident).tolist():
        a, b = int(i[e]), int(j[e])
        ux, uy = hashed_unit_direction(min(a, b), max(a, b), state.seed)
        sign = f0 if a < b else -f0
        fx[e], fy[e] = sign * ux, sign * uy
    f = np.column_stack([np.bincount(owner, fx, len(members)),
                         np.bincount(owner, fy, len(members))])
    fire = FireState() if fire is None else fire
    v0 = fire.mix(np.stack([state.vx[members], state.vy[members]]), f.T).T
    p1, v1 = euler_step(p0, v0, f, fire.dt)
    if walls is not None:
        p1, stopped = walls.clamp(members, p1, r[members])
        v1[stopped] = 0.0
    x[members], y[members] = p1.T
    state.vx[members], state.vy[members] = v1.T
    return float(np.sqrt(f[:, 0] * f[:, 0] + f[:, 1] * f[:, 1]).max())


def scalar_fire_mix(f, v, fire):
    """FIRE's mixing or restart in Python floats over the members' forces f
    and velocities v, lists of (x, y): the power and the norms summed
    bubble by bubble, then the mixed or zeroed velocities that the step
    takes, and dt and alpha. `fire` is a dict of dt, alpha, positive and
    restarts, updated in place; the oracle of `FireState.mix`."""
    power = v_sq = f_sq = 0.0
    for (fx, fy), (vx, vy) in zip(f, v):
        power += fx * vx + fy * vy
        v_sq += vx * vx + vy * vy
        f_sq += fx * fx + fy * fy
    if power > 0.0:
        scale = fire["alpha"] * math.sqrt(v_sq) / math.sqrt(f_sq)
        v = [((1.0 - fire["alpha"]) * vx + scale * fx, (1.0 - fire["alpha"]) * vy + scale * fy)
             for (fx, fy), (vx, vy) in zip(f, v)]
        fire["positive"] += 1
        if fire["positive"] > 5:
            fire["dt"] = min(1.1 * fire["dt"], 1.5 * DT)
            fire["alpha"] *= 0.99
        return v
    fire.update(dt=0.5 * fire["dt"], alpha=0.1, positive=0, restarts=fire["restarts"] + 1)
    return [(0.0, 0.0)] * len(v)


def scalar_fire_sweep(state, f0, walls, fire):
    """One FIRE sweep in Python floats, one mobile bubble after another:
    each bubble's force summed over every other alive bubble in ascending
    order at the start positions, `scalar_fire_mix`, the damped
    semi-implicit Euler step with the residual damping 0.7, and the scalar
    wall check. `fire` is a dict of dt, alpha, positive and restarts,
    updated in place; the oracle of relax_step with a `FireState`. Returns
    the max net force and the rows the walls stopped."""
    x, y, r = state.x.tolist(), state.y.tolist(), state.r.tolist()
    vx0, vy0 = state.vx.tolist(), state.vy.tolist()
    members, alive = state.mobile_indices().tolist(), state.alive_indices().tolist()
    f = []
    for i in members:
        fx = fy = 0.0
        for j in alive:
            if j == i:
                continue
            dx, dy = x[i] - x[j], y[i] - y[j]
            l = math.sqrt(dx * dx + dy * dy)
            mag = float(force_magnitude(l, r[i] + r[j], f0))
            fx += mag * dx / l
            fy += mag * dy / l
        f.append((fx, fy))
    v = scalar_fire_mix(f, [(vx0[i], vy0[i]) for i in members], fire)
    dt, c, stopped = fire["dt"], 0.7, []
    for k, (i, (fx, fy), (vx, vy)) in enumerate(zip(members, f, v)):
        vx, vy = vx + dt * (fx - c * vx), vy + dt * (fy - c * vy)
        px, py = x[i] + dt * vx, y[i] + dt * vy
        fixed = enforce_clearance(walls, px, py, r[i])
        if fixed is not None:
            (px, py), vx, vy = fixed, 0.0, 0.0
            stopped.append(k)
        state.x[i], state.y[i], state.vx[i], state.vy[i] = px, py, vx, vy
    return max(math.sqrt(fx * fx + fy * fy) for fx, fy in f), stopped


def project_inside_loop(domain, x, y, radius):
    """Scalar boundary projection of one point: the reference for the wall
    clamp's projection. The first nearest segment wins; its left normal
    points inward."""
    best = (math.inf, x, y, 0.0, 0.0)
    for ax, ay, bx, by in loop_segments(domain):
        qx, qy, d2, _ = closest_point_on_segment(x, y, ax, ay, bx, by)
        if d2 < best[0]:
            ln = math.hypot(bx - ax, by - ay)
            best = (d2, qx, qy, -(by - ay) / ln, (bx - ax) / ln)
    _, qx, qy, nx, ny = best
    return qx + nx * radius, qy + ny * radius


def enforce_clearance(walls, x, y, radius):
    """Scalar wall check of one bubble against every segment: the reference
    for the vector clamp. Returns the corrected centre, or None when no
    correction is needed."""
    best_d2 = math.inf
    for ax, ay, bx, by in loop_segments(walls.domain):
        qx, qy, d2, _ = closest_point_on_segment(x, y, ax, ay, bx, by)
        if d2 < best_d2:
            best_d2 = d2
            best = (qx, qy, ax, ay, bx, by)
    qx, qy, ax, ay, bx, by = best
    inside = (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0.0
    if best_d2 >= radius * radius and inside:
        return None
    ln = math.hypot(bx - ax, by - ay)
    nx, ny = -(by - ay) / ln, (bx - ax) / ln
    return qx + nx * radius, qy + ny * radius


def two_pass_clamp(walls, slots, p, radius):
    """`WallClamp.clamp` with two distance passes per full check:
    `nearest_segments` for the verdict, then `segment_distances` again on
    the clear rows for their room. The reference for the one-pass check;
    it keeps its state in `walls` as the clamp does."""
    grow = int(slots.max(initial=-1)) + 1 - len(walls.room2)
    if grow > 0:
        walls.at = np.concatenate([walls.at, np.zeros((grow, 2))])
        walls.room2 = np.concatenate([walls.room2, np.zeros(grow)])
    step = p - walls.at[slots]
    near = np.flatnonzero(~((step * step).sum(axis=1) < walls.room2[slots]))
    fix = np.zeros(len(p), dtype=bool)
    if not len(near):
        return p, fix
    seg, t, d2 = nearest_segments(p[near], walls.segments)
    ax, ay, vx, vy, _, _, nx, ny = walls.segments[:8]
    inside = vx[seg] * (p[near, 1] - ay[seg]) - vy[seg] * (p[near, 0] - ax[seg]) > 0.0
    clear = (d2 >= radius[near] * radius[near]) & inside
    c = near[clear]
    d = np.sqrt(d2[clear])
    dist = np.sqrt(segment_distances(p[c], walls.segments)[1])
    line = nx * (p[c, :1] - ax) + ny * (p[c, 1:] - ay)
    reach = np.fmax(line, 0.5 * (dist - d[:, None])).min(axis=1)
    room = np.zeros(len(near))
    room[clear] = np.minimum(d - radius[c], reach) - walls.margin
    walls.at[slots[near]] = p[near]
    walls.room2[slots[near]] = np.square(np.maximum(room, 0.0))
    bad = near[~clear]
    fix[bad] = True
    out = p.copy()
    for row, k, tk in zip(bad, seg[~clear], t[~clear]):
        out[row] = (ax[k] + tk * vx[k] + nx[k] * radius[row],
                    ay[k] + tk * vy[k] + ny[k] * radius[row])
    return out, fix


def hex_neighbors(n, r=0.5, center=(0.0, 0.0)):
    """n bubbles of radius r exactly tangent to a central bubble of radius r."""
    out = []
    for s in range(n):
        ang = 2 * math.pi * s / max(n, 1)
        out.append(Bubble(center[0] + 2 * r * math.cos(ang),
                          center[1] + 2 * r * math.sin(ang), r, MOBILE))
    return out


RECTANGLE = [[0.0, 0.0], [10.0, 0.0], [10.0, 8.0], [0.0, 8.0]]
SQUARE_HOLE = [[3.0, 2.0], [3.0, 6.0], [7.0, 6.0], [7.0, 2.0]]
# the rectangle and the square hole, each with a straight corner that splits
# an edge in two collinear segments
COLLINEAR = [[0.0, 0.0], [5.0, 0.0], [10.0, 0.0], [10.0, 8.0], [0.0, 8.0]]
COLLINEAR_HOLE = [[3.0, 2.0], [3.0, 4.0], [3.0, 6.0], [7.0, 6.0], [7.0, 2.0]]
# the rectangle with a thin notch down from its top edge to a tip at (8.5, 4)
NOTCHED = [[0.0, 0.0], [10.0, 0.0], [10.0, 8.0], [8.7, 8.0], [8.5, 4.0], [8.3, 8.0],
           [0.0, 8.0]]


def graded_holed_plate():
    """A 6 x 4 plate with a square hole and radii graded 0.25 -> 0.5, and a
    function giving fresh copies of its packed bubbles."""
    def sizing(x, y):
        return 0.25 + 0.25 * np.minimum(np.abs(x - 3.0) / 3.0, 1.0)

    outer = np.array([[0.0, 0.0], [6.0, 0.0], [6.0, 4.0], [0.0, 4.0]])
    hole = np.array([[2.5, 1.5], [2.5, 2.5], [3.5, 2.5], [3.5, 1.5]])
    domain = PackingDomain(outer=outer, holes=[hole], sizing=sizing)
    boundary = pack_boundary(domain)
    interior = pack_interior_quadtree(domain, AnchorField(boundary))
    return domain, lambda: [Bubble(b.x, b.y, b.radius, b.kind) for b in boundary + interior]


def square_domain(side=10.0, radius=0.5):
    outer = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    return PackingDomain(outer=outer, holes=[], sizing=lambda x, y: radius)


def hex_lattice(r=0.5, origin=(0.0, 0.0)):
    """A 5 x 5 triangular lattice of tangent bubbles: the 3 x 3 middle
    mobile, the ring around it boundary."""
    bubbles = []
    for row in range(5):
        for col in range(5):
            x = origin[0] + 2 * r * col + (r if row % 2 else 0.0)
            y = origin[1] + r * math.sqrt(3.0) * row
            interior = 1 <= row <= 3 and 1 <= col <= 3
            bubbles.append(Bubble(x, y, r, MOBILE if interior else BOUNDARY))
    return bubbles


@functools.lru_cache(maxsize=None)
def graded_holed_square():
    """A 20 x 10 plate with a round hole, radii graded 0.2 -> 0.5 away from
    it, and its quadtree packing (one list shared by the callers, which the
    passes read into fresh state and never change)."""
    def sizing(x, y):
        d = np.maximum(np.hypot(x - 10.0, y - 5.0) - 2.0, 0.0)
        return 0.2 + 0.3 * np.minimum(d / 4.0, 1.0)

    outer = np.array([[0.0, 0.0], [20.0, 0.0], [20.0, 10.0], [0.0, 10.0]])
    angles = -2 * np.pi * np.arange(24) / 24
    hole = np.column_stack([10 + 2 * np.cos(angles), 5 + 2 * np.sin(angles)])
    domain = PackingDomain(outer=outer, holes=[hole], sizing=sizing)
    boundary = pack_boundary(domain)
    return domain, boundary + pack_interior_quadtree(domain, AnchorField(boundary))


def random_population(seed, n=300, side=10.0):
    """Bubbles scattered over a square with every tenth one an anchor:
    crowded spots and gaps side by side."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.5, side - 0.5, size=(n, 2))
    radii = rng.uniform(0.2, 0.5, size=n)
    return [Bubble(float(x), float(y), float(r), BOUNDARY if k % 10 == 0 else MOBILE)
            for k, ((x, y), r) in enumerate(zip(xy, radii))]


# ---------------------------------------------------------------------------
# Scalar quantity-control passes: the oracles of the pair-array passes. Each
# bubble queries its own neighbours from a k-d tree that is rebuilt after
# every insertion (`scalar_ball_query`; the boundary-region oracle
# `scalar_qc_boundary_region` lives in conftest, shared with the remesh tests).

def scalar_summed_overlap(state, near, i, hypot=math.hypot):
    r0 = state.r[i]
    x0, y0 = state.x[i], state.y[i]
    reach = 2.0 * r0
    total = 0.0
    for j in near(x0, y0, reach):
        if j == i:
            continue
        l = hypot(state.x[j] - x0, state.y[j] - y0)
        if l <= reach * (1.0 + 1e-12):
            total += (2.0 * r0 + state.r[j] - l) / r0
    return total


def scalar_qc_original(state, low, high, anchors, walls, trace):
    near = scalar_ball_query(state)
    max_r = state.max_radius()
    changes = 0
    for i in range(len(state.alive)):
        if not state.alive[i] or state.kind[i] != relaxation._KIND_CODE[MOBILE]:
            continue
        r0 = state.r[i]
        x0, y0 = state.x[i], state.y[i]
        total = scalar_summed_overlap(state, near, i)
        if total > high:
            state.alive[i] = False
            changes += 1
        elif total < low:
            trace.qc_insert_attempts += 1
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
            r_new = (interpolate_radius(probe_x, probe_y, anchors, walls.domain.sizing)
                     if anchors else r0)
            nx = x0 + (r0 + r_new) * ca
            ny = y0 + (r0 + r_new) * sa
            if not walls.clear(np.array([[nx, ny]]), np.array([r_new]))[0]:
                continue
            if any((r_new + state.r[j] - math.hypot(state.x[j] - nx, state.y[j] - ny))
                   / min(r_new, state.r[j]) > 1.0
                   for j in near(nx, ny, r_new + max_r)):
                continue
            state.append(nx, ny, r_new, MOBILE)
            near = scalar_ball_query(state)
            changes += 1
            trace.qc_inserts += 1
    return changes


def qc_original(bubbles, low=5.0, high=8.0, anchors=None, domain=None, seed=0,
                qc=relaxation._qc_original_state, trace=None):
    """One original-qc pass over fresh state: (state, change count). The
    anchors' table is built from `anchors`, the non-mobile bubbles when
    None, the walls are `domain`'s, `far_box(bubbles)`'s when None, and the
    counters go to `trace`, a fresh `ConvergenceTrace` when None."""
    state = RelaxState(bubbles, seed=seed)
    if anchors is None:
        anchors = [b for b in bubbles if b.kind != MOBILE]
    walls = WallClamp(far_box(bubbles) if domain is None else domain)
    return state, qc(state, low, high, AnchorField(anchors), walls,
                     ConvergenceTrace() if trace is None else trace)


def qc_boundary_region(bubbles, threshold=1.0, qc=None):
    """One boundary-region pass over fresh state: (state, removal count).
    `qc(state, threshold)` makes it; None is `_qc_boundary_region_state`
    over the table of the non-mobile bubbles."""
    state = RelaxState(bubbles)
    if qc is None:
        anchors = AnchorField([b for b in bubbles if b.kind != MOBILE])
        return state, relaxation._qc_boundary_region_state(state, anchors, threshold)
    return state, qc(state, threshold)


def state_arrays(state):
    return tuple(getattr(state, name) for name in ("x", "y", "r", "kind", "alive"))


def summed_overlap(bubbles, i):
    """Bubble i's summed overlap against every other bubble in the list."""
    j = np.array([k for k in range(len(bubbles)) if k != i], dtype=int)
    return _overlap_sums(RelaxState(bubbles), np.full(len(j), i), j)[i]


class TestPairForce:
    def test_zero_at_tangency(self):
        a = Bubble(0.0, 0.0, 0.5)
        b = Bubble(1.0, 0.0, 0.5)
        assert np.linalg.norm(scalar_pair_force(a, b, F0)) < 1e-12

    def test_zero_beyond_cutoff(self):
        a = Bubble(0.0, 0.0, 0.5)
        for d in (1.5, 1.6, 4.0):
            b = Bubble(d, 0.0, 0.5)
            assert np.linalg.norm(scalar_pair_force(a, b, F0)) == 0.0

    def test_repulsion_at_half_tangency(self):
        a = Bubble(0.0, 0.0, 0.5)
        b = Bubble(0.5, 0.0, 0.5)  # l = 0.5 * (r_i + r_j)
        f = scalar_pair_force(a, b, F0)
        assert f[0] < 0.0  # pushes a away from b
        assert abs(f[1]) == 0.0
        assert np.linalg.norm(f) > 0.0

    def test_attraction_between_tangency_and_cutoff(self):
        a = Bubble(0.0, 0.0, 0.5)
        b = Bubble(1.25, 0.0, 0.5)
        f = scalar_pair_force(a, b, F0)
        assert f[0] > 0.0  # pulls a toward b

    def test_newtons_third_law_exact(self, rng):
        for _ in range(50):
            xa, ya, xb, yb = rng.uniform(-2, 2, 4)
            ra, rb = rng.uniform(0.1, 1.0, 2)
            a = Bubble(xa, ya, ra)
            b = Bubble(xb, yb, rb)
            fab = scalar_pair_force(a, b, F0, i=0, j=1)
            fba = scalar_pair_force(b, a, F0, i=1, j=0)
            assert fab[0] == -fba[0] and fab[1] == -fba[1]
        # coincident centres push the two bubbles apart along one line
        a, b = Bubble(1.0, 1.0, 0.5), Bubble(1.0, 1.0, 0.3)
        for seed in range(8):
            for i in range(30):
                for j in range(i + 1, 30):
                    fab = scalar_pair_force(a, b, F0, i=i, j=j, seed=seed)
                    fba = scalar_pair_force(b, a, F0, i=j, j=i, seed=seed)
                    assert fab[0] == -fba[0] and fab[1] == -fba[1]
                    assert (fab[0], fab[1]) == hashed_unit_direction(i, j, seed)

    def test_cubic_continuity(self):
        l0 = 1.2
        ws = np.linspace(0.0, 1.5, 3001)
        vals = [force_magnitude(w * l0, l0, F0) for w in ws]
        assert abs(vals[-1]) < 1e-12  # exactly zero at the cutoff
        jumps = np.abs(np.diff(vals))
        assert jumps.max() < 0.02  # smooth on [0, 1.5]

    def test_coincident_centers_deterministic(self):
        a = Bubble(1.0, 1.0, 0.5)
        b = Bubble(1.0, 1.0, 0.5)
        f1 = scalar_pair_force(a, b, F0, i=3, j=7, seed=42)
        f2 = scalar_pair_force(a, b, F0, i=3, j=7, seed=42)
        assert np.array_equal(f1, f2)
        assert np.linalg.norm(f1) == pytest.approx(F0, rel=1e-12)


class TestStep:
    def test_matches_damped_closed_form(self):
        # m x'' + c x' = f with constant f has a closed-form response
        m, c, dt = 1.0, 1.0, 0.05
        f = np.array([0.7, -0.3])
        x0 = np.array([0.2, 0.1])
        v0 = np.array([0.4, -0.2])
        x1, v1 = rk4_damped_step(x0, v0, lambda x: f, m, c, dt)
        decay = math.exp(-c * dt / m)
        v_exact = f / c + (v0 - f / c) * decay
        x_exact = x0 + (f / c) * dt + (m / c) * (v0 - f / c) * (1.0 - decay)
        assert np.linalg.norm(x1 - x_exact) / np.linalg.norm(x_exact) < 1e-8
        assert np.linalg.norm(v1 - v_exact) / np.linalg.norm(v_exact) < 1e-8

    def test_sweep_matches_reference_integrator(self):
        # a mobile bubble among frozen ones advances exactly like the
        # reference single-bubble semi-implicit Euler step; FIRE's first
        # sweep starts at rest and restarts, so the step takes DT / 2
        frozen = [Bubble(0.0, 0.0, 0.5, BOUNDARY), Bubble(1.4, 0.0, 0.5, BOUNDARY)]
        mobile = Bubble(0.6, 0.4, 0.5, MOBILE)
        state = RelaxState(frozen + [mobile])
        relax_step(state, WallClamp(far_box(frozen + [mobile])), SweepPairs(F0), FireState())

        net = sum((scalar_pair_force(mobile, b, F0) for b in frozen), np.zeros(2))
        x1, v1 = euler_step(np.array([0.6, 0.4]), np.zeros(2), net, 0.5 * DT)
        assert state.x[2] == pytest.approx(x1[0], abs=1e-14)
        assert state.y[2] == pytest.approx(x1[1], abs=1e-14)

    def test_graded_sweep_matches_sequential_oracle(self, rng):
        # mixed radii exercise the per-pair force reach; the scalar oracle
        # steps one mobile bubble after another, each with scalar_pair_force
        # summed over every other alive bubble at its start-of-sweep
        # position, at the dt / 2 of FIRE's first sweep
        n = 40
        xy = rng.uniform(0.0, 3.5, size=(n, 2))
        radii = rng.uniform(0.2, 0.5, size=n)
        kinds = [(BOUNDARY, INTERIOR_ANCHOR, MOBILE)[k % 3] for k in range(n)]
        bubbles = [Bubble(x, y, r, kind) for (x, y), r, kind in zip(xy, radii, kinds)]
        state = RelaxState(bubbles)
        max_f = relax_step(state, WallClamp(far_box(bubbles)), SweepPairs(F0), FireState())

        ref = [(b.x, b.y) for b in bubbles]
        ref_max_f = 0.0
        for i, b in enumerate(bubbles):
            if b.kind == BOUNDARY:
                continue

            net = sum((scalar_pair_force(b, other, F0, i, j)
                       for j, other in enumerate(bubbles) if j != i), np.zeros(2))
            ref_max_f = max(ref_max_f, float(np.linalg.norm(net)))
            x1, _ = euler_step(np.array([b.x, b.y]), np.zeros(2), net, 0.5 * DT)
            ref[i] = tuple(x1)
        assert max_f == pytest.approx(ref_max_f, abs=1e-12)
        moved = sum(math.hypot(s - b.x, t - b.y) > 1e-3
                    for s, t, b in zip(state.x, state.y, bubbles))
        assert moved >= 10
        assert state.x == pytest.approx([x for x, _ in ref], abs=1e-12)
        assert state.y == pytest.approx([y for _, y in ref], abs=1e-12)

    def test_coincident_pair_separates_along_hashed_direction(self):
        # coincident centres push apart along the seeded hashed direction of
        # the pair, as scalar_pair_force defines it: both bubbles step at
        # once, so they end on that line, on opposite sides of their start
        seed = 5
        bubbles = [Bubble(2.0, 2.0, 0.5, MOBILE), Bubble(2.0, 2.0, 0.5, MOBILE)]
        state = RelaxState(bubbles, seed=seed)
        relax_step(state, WallClamp(far_box(bubbles)), SweepPairs(F0), FireState())

        ref = [euler_step(np.array([2.0, 2.0]), np.zeros(2),
                          scalar_pair_force(bubbles[i], bubbles[j], F0, i, j, seed),
                          0.5 * DT)[0]
               for i, j in ((0, 1), (1, 0))]
        assert state.x == pytest.approx([x for x, _ in ref], abs=1e-12)
        assert state.y == pytest.approx([y for _, y in ref], abs=1e-12)
        ux, uy = hashed_unit_direction(0, 1, seed)
        for k, side in ((0, 1.0), (1, -1.0)):
            dx, dy = state.x[k] - 2.0, state.y[k] - 2.0
            assert side * (dx * ux + dy * uy) > 1e-3
            assert abs(dx * uy - dy * ux) < 1e-12

    def test_one_force_evaluation_per_sweep(self, monkeypatch):
        # the sweep kernel calls the force law once per sweep, in both
        # relaxations of the graded plate
        calls = []
        law = relaxation.force_magnitude

        def counted(*args):
            calls.append(len(args[0]))
            return law(*args)

        monkeypatch.setattr(relaxation, "force_magnitude", counted)
        traces = graded_plate_runs()
        assert len(calls) == sum(trace.sweeps for trace in traces) > 100
        assert min(calls) > 0

    @pytest.mark.parametrize("bubbles", [
        # pairwise distances 1.25, 1.25 and 1.5, exact in binary, so that
        # scalar_pair_force's hypot and the sweep's square root agree to the
        # bit
        [Bubble(0.0, 0.0, 0.5, MOBILE), Bubble(0.75, 1.0, 0.45, MOBILE),
         Bubble(1.5, 0.0, 0.55, BOUNDARY)],
        [Bubble(0.0, 0.0, 0.5, MOBILE), Bubble(0.75, 1.0, 0.45, INTERIOR_ANCHOR),
         Bubble(1.5, 0.0, 0.55, MOBILE)],
        [Bubble(2.0, 2.0, 0.5, MOBILE), Bubble(2.0, 2.0, 0.5, MOBILE)],
    ], ids=["boundary", "anchor", "coincident"])
    def test_sweep_equals_scalar_euler_oracle_bit_for_bit(self, bubbles):
        # every mobile bubble, moving at its own velocity, has
        # scalar_pair_force summed over the others in ascending order, all
        # at their start positions; FIRE mixes the velocities (P > 0, the
        # anchor and coincident cases) or zeroes them and halves dt (the
        # boundary case), as scalar_fire_mix does, and each bubble takes the
        # damped semi-implicit Euler step at FIRE's dt
        seed = 4
        state = RelaxState(bubbles, seed=seed)
        velocity = [(0.3, -0.2), (-0.1, 0.25), (0.05, 0.4)]
        state.vx[:], state.vy[:] = np.transpose(velocity[:len(bubbles)])
        fire = FireState()
        max_f = relax_step(state, WallClamp(far_box(bubbles)), SweepPairs(F0), fire)

        members = [i for i, b in enumerate(bubbles) if b.kind != BOUNDARY]
        nets = []
        for i in members:
            net = np.zeros(2)
            for j, other in enumerate(bubbles):
                if j != i:
                    net = net + scalar_pair_force(bubbles[i], other, F0, i, j, seed)
            nets.append(net)
        want = dict(dt=DT, alpha=0.1, positive=0, restarts=0)
        mixed = scalar_fire_mix([tuple(net.tolist()) for net in nets],
                                [velocity[i] for i in members], want)
        assert (fire.dt, fire.restarts) == (want["dt"], want["restarts"])
        for i, net, v in zip(members, nets, mixed):
            x0 = np.array([bubbles[i].x, bubbles[i].y])
            x1, v1 = euler_step(x0, np.array(v), net, want["dt"])
            assert np.abs(x1 - x0).max() > 1e-3
            assert (state.x[i], state.y[i]) == tuple(x1)
            assert (state.vx[i], state.vy[i]) == tuple(v1)
        for i, b in enumerate(bubbles):
            if b.kind == BOUNDARY:
                assert (state.x[i], state.y[i]) == (b.x, b.y)
        assert max_f == max(math.sqrt(net[0] * net[0] + net[1] * net[1]) for net in nets) > 0.0


def graded_plate_runs(**keys):
    """A new-qc relaxation of the graded holed plate, and an original-qc one
    whose passes insert and delete, one deletion (of the one large bubble)
    shrinking the largest radius, both with the config keys given (the
    original-qc one at qc_period 5 and seed 3 unless given): their traces."""
    domain, bubbles = graded_holed_plate()
    _, new = relax_until_converged(bubbles(), domain, PipelineConfig(**keys),
                                   strategy="new-qc")
    _, original = relax_until_converged(bubbles() + [Bubble(1.2, 2.0, 0.9, MOBILE)], domain,
                                        PipelineConfig(**{"qc_period": 5, "seed": 3, **keys}),
                                        strategy="original-qc")
    return new, original


def unlisted_within_reach(pairs, state, cutoff):
    """How many directed pairs (i, j), i a member of `pairs` and j any other
    alive bubble, are within force reach at the current positions but not
    on the list."""
    ids, n, members = state.alive_indices(), len(state.alive), pairs.members
    dx = state.x[members][:, None] - state.x[ids]
    dy = state.y[members][:, None] - state.y[ids]
    reach = cutoff * (state.r[members][:, None] + state.r[ids])
    i, j = np.nonzero(dx * dx + dy * dy < reach * reach)
    i, j = members[i], ids[j]
    within = (i * n + j)[i != j]
    i, j = directed_view(pairs, state)
    return int(np.count_nonzero(~np.isin(within, i * n + j)))


def listing_at_evaluations(monkeypatch, verdict=None,
                           runs=graded_plate_runs):
    """Calls `runs` (`graded_plate_runs` at the default config unless
    given) and returns the traces it returns, the certificate's verdicts at
    every sweep start (None where the list had expired or was never built,
    so the sweep builds it) and the count of `unlisted_within_reach` at
    every force evaluation, when the sweep's bubbles are still at their
    start positions. `verdict`, when given, replaces the verdict on a built
    list."""
    at, verdicts, unlisted = {}, [], []
    certified = SweepPairs.certified
    law = relaxation.force_magnitude

    def judged(self, state):
        at.update(pairs=self, state=state, cutoff=relaxation._CUTOFF)
        if self._at is None:  # the sweep builds the list
            verdicts.append(None)
            return False
        verdicts.append(certified(self, state))
        return verdicts[-1] if verdict is None else verdict

    def evaluated(*args):
        unlisted.append(unlisted_within_reach(at["pairs"], at["state"], at["cutoff"]))
        return law(*args)

    monkeypatch.setattr(SweepPairs, "certified", judged)
    monkeypatch.setattr(relaxation, "force_magnitude", evaluated)
    return runs(), verdicts, unlisted


class TestSweepPairs:
    def test_pairs_equal_fresh_query_every_sweep(self, monkeypatch):
        # in a new-qc run and an original-qc run, a list just built holds,
        # in its directed view, the pairs within reach and the largest
        # radius of a fresh k-d tree query, and holds each of them once; it
        # is built at the start, after a pass that changes the alive set and
        # when a sweep starts without the certificate, and only then
        seen, verdicts = [], []
        build, certified = SweepPairs._build, SweepPairs.certified

        def checked_build(self, state):
            build(self, state)
            assert self.margin == state.max_radius()
            want = sweep_neighbors(state, relaxation._CUTOFF, self.margin)
            i, j = directed_view(self, state)
            assert np.array_equal(i, want[0]) and np.array_equal(j, want[1])
            assert (self.a < self.b).all()
            held = set(zip(self.a.tolist(), self.b.tolist()))
            assert len(held) == len(self.a)
            assert held == {(min(i, j), max(i, j)) for i, j in zip(*want)}

        def judged(self, state):
            seen.append((frozenset(state.alive_indices().tolist()), state.max_radius()))
            verdicts.append(None if self._at is None else certified(self, state))
            return bool(verdicts[-1])

        monkeypatch.setattr(SweepPairs, "_build", checked_build)
        monkeypatch.setattr(SweepPairs, "certified", judged)
        # at f0 = the smallest radius, original-qc's moves fail the
        # certificate within 40 sweeps with a pass every 10 sweeps, not 5
        new, original = graded_plate_runs(max_sweeps=40, force_tol_factor=1e-9, qc_period=10)
        assert len(seen) == len(verdicts) == new.sweeps + original.sweeps == 80
        new_fails = verdicts[:40].count(False)
        assert verdicts[:40].count(None) == 1 and verdicts[0] is None
        assert new.pair_rebuilds == 1 + new_fails < new.sweeps
        assert new_fails > 0
        seen = seen[40:]
        alive = [slots for slots, _ in seen]
        assert any(b - a for a, b in zip(alive, alive[1:]))   # an insertion
        assert any(a - b for a, b in zip(alive, alive[1:]))   # a deletion
        assert seen[0][1] == 0.9 and seen[-1][1] == 0.5
        population_changes = sum(a != b for a, b in zip(seen, seen[1:]))
        original_fails = verdicts[40:].count(False)
        assert original_fails > 0
        assert verdicts[40:].count(None) == 1 + population_changes
        assert original.pair_rebuilds == 1 + population_changes + original_fails

    def test_no_unlisted_pair_within_reach_at_any_stage(self, monkeypatch):
        # a sweep evaluates its forces once, at the start positions, after
        # the certificate: in both runs, every pair within its force reach
        # at every evaluation is on the list, the certificate having built
        # the list again first whenever moves since its build could have
        # closed an unlisted pair
        traces, verdicts, unlisted = listing_at_evaluations(monkeypatch)
        assert len(unlisted) == len(verdicts) == sum(trace.sweeps for trace in traces)
        assert not any(unlisted)
        assert False in verdicts

    def test_unlisted_pairs_come_within_reach_without_the_certificate(self, monkeypatch):
        # a scattered population whose deep overlaps throw bubbles far, run
        # with every certificate passed: moves since the build bring pairs
        # that the list does not hold within reach, so the certificate's
        # rebuild is what lists them before the evaluation. The same run
        # with the certificate evaluates no unlisted pair within reach
        def runs():
            _, trace = relax_until_converged(random_population(0), square_domain(),
                                             PipelineConfig(max_sweeps=60), strategy="none")
            return [trace]

        traces, verdicts, unlisted = listing_at_evaluations(monkeypatch, True, runs)
        assert len(unlisted) == sum(trace.sweeps for trace in traces) == 60
        assert sum(count > 0 for count in unlisted) > 10
        monkeypatch.undo()
        traces, verdicts, unlisted = listing_at_evaluations(monkeypatch, None, runs)
        assert len(unlisted) == 60 and not any(unlisted)
        assert False in verdicts

    def test_certified_only_between_a_build_and_its_expiry(self):
        # a list is not certified before its first build nor after expire(),
        # whatever the moves; in between, moves within the margin keep it
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE), Bubble(1.2, 0.0, 0.5, MOBILE)]
        state = RelaxState(bubbles)
        pairs = SweepPairs(F0)
        assert not pairs.certified(state) and pairs.rebuilds == 0
        pairs._build(state)
        assert pairs.certified(state) and pairs.rebuilds == 1
        state.x[0] += 0.2
        assert pairs.certified(state)
        pairs.expire()
        assert not pairs.certified(state)
        state.x[0] -= 0.2  # back where the build found it
        assert not pairs.certified(state)
        pairs._build(state)
        assert pairs.certified(state) and pairs.rebuilds == 2

    @pytest.mark.parametrize("speed", [18.5, 10.0])
    def test_listed_pair_closing_mid_sweep_gets_its_force(self, speed):
        # bubble 1 starts 1.85 from bubble 0, listed (reach + margin is
        # 2.2) but out of reach (1.65); then both move 0.125 towards each
        # other, 1.6 apart, within reach, and the moves (0.25 with the
        # neighbour's) keep the certificate. Bubble 0 is stepped at `speed`:
        # the pair gets its force over the kept list, as the all-pairs
        # reference gives it
        bubbles = [Bubble(0.0, 0.0, 0.55, MOBILE), Bubble(1.85, 0.0, 0.55, MOBILE)]
        kept, ref, free = (RelaxState(bubbles, seed=2) for _ in range(3))
        pairs = SweepPairs(F0)
        pairs._build(kept)
        assert pairs.a.tolist() == [0] and pairs.b.tolist() == [1]
        for state in (kept, ref, free):
            state.x[:] = [0.125, 1.725]
            state.vx[0] = speed
        walls = WallClamp(far_box(bubbles))
        assert relax_step(kept, walls, pairs, FireState()) == jacobi_sweep(ref, F0) > 0.0
        assert pairs.rebuilds == 1
        for name in ("x", "y", "vx", "vy"):
            assert np.array_equal(getattr(kept, name), getattr(ref, name))
        free.alive[1] = False  # bubble 0 alone
        relax_step(free, WallClamp(far_box(bubbles)), SweepPairs(F0), FireState())
        assert ref.vx[0] != free.vx[0]

    def test_fast_bubble_sweep_is_redone_over_a_wider_list(self):
        # bubble 0 starts 2.5 from bubble 1, beyond the list (2.0), moving
        # towards it and pushed that way by the boundary bubble 3, so FIRE
        # keeps its velocity (P > 0): its first sweep takes it to 3.272,
        # within 0.78 of bubble 1. Its move fails the certificate at the
        # next sweep's start, the list is built again first, and the sweep
        # ends where the all-pairs reference ends
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE), Bubble(2.5, 0.0, 0.5, MOBILE),
                   Bubble(0.0, 5.0, 0.5, MOBILE), Bubble(-0.9, 0.0, 0.5, BOUNDARY)]
        kept, ref, free = (RelaxState(bubbles, seed=2) for _ in range(3))
        kept.vx[0] = ref.vx[0] = free.vx[0] = 11.3
        free.alive[1] = False
        pairs = SweepPairs(F0)
        walls, free_walls = WallClamp(far_box(bubbles)), WallClamp(far_box(bubbles))
        for sweep in range(2):
            assert relax_step(kept, walls, pairs, FireState()) == jacobi_sweep(ref, F0)
            relax_step(free, free_walls, SweepPairs(F0), FireState())
            if sweep == 0:
                assert pairs.a.tolist() == [0] and pairs.b.tolist() == [3]
                assert 3.25 < kept.x[0] < 2.5 + 0.78
        for name in ("x", "y", "vx", "vy"):
            assert np.array_equal(getattr(kept, name), getattr(ref, name))
        assert pairs.rebuilds == 2 and pairs.margin == 0.5
        assert pairs.a.tolist() == [0] and pairs.b.tolist() == [1]
        assert ref.x[0] != free.x[0]  # bubble 1 pushed it on

    def test_neighbours_move_counts_against_the_margin(self):
        # the list holds pairs within reach + 0.5 (the margin); bubble 1
        # starts 0.02 beyond it, then bubble 0 moves 0.05 and bubble 1 0.5
        # towards each other, 1.47 apart, within reach: bubble 0's own moves
        # fit the margin, but with bubble 1's the pair can have come within
        # reach, so the list is built again before the sweep's evaluation,
        # and the sweep ends as the reference does
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE), Bubble(2.02, 0.0, 0.5, BOUNDARY)]
        kept, ref, free = (RelaxState(bubbles) for _ in range(3))
        pairs = SweepPairs(F0)
        pairs._build(kept)
        assert pairs.a.tolist() == []
        for state in (kept, ref, free):
            state.x[:] = [0.05, 1.52]
        assert 2 * 0.05 <= pairs.margin < 0.05 + 0.5
        relax_step(kept, WallClamp(far_box(bubbles)), pairs, FireState())
        jacobi_sweep(ref, F0)
        for name in ("x", "y", "vx", "vy"):
            assert np.array_equal(getattr(kept, name), getattr(ref, name))
        assert pairs.rebuilds == 2 and pairs.a.tolist() == [0]
        free.alive[1] = False
        relax_step(free, WallClamp(far_box(bubbles)), SweepPairs(F0), FireState())
        assert ref.vx[0] != free.vx[0]

    def test_kept_bookkeeping_sweeps_as_the_mask_reference(self):
        # sweeps that keep their pair list, its layout and their FIRE state
        # end bit for bit where the all-pairs reference sweep ends
        domain, bubbles = graded_holed_plate()
        kept, ref = RelaxState(bubbles()), RelaxState(bubbles())
        walls, ref_walls = WallClamp(domain), WallClamp(domain)
        pairs = SweepPairs(F0)
        fire, ref_fire = FireState(), FireState()
        dts = []
        for _ in range(40):
            assert relax_step(kept, walls, pairs, fire) == jacobi_sweep(
                ref, F0, ref_walls, ref_fire)
            dts.append(fire.dt)
        for name in ("x", "y", "vx", "vy"):
            assert np.array_equal(getattr(kept, name), getattr(ref, name))
        assert (fire.dt, fire.alpha, fire.restarts) == (ref_fire.dt, ref_fire.alpha,
                                                         ref_fire.restarts)
        assert 1 < pairs.rebuilds < 40 and max(dts) > DT


    @pytest.mark.parametrize("name", ["plate", "sphere", "graded-qc"])
    def test_forces_equal_the_directed_kernel_on_the_workloads(self, monkeypatch, tmp_path,
                                                                name):
        # at every sweep of the benchmark workload's seed-0 relaxations
        # (graded-qc's two), the forces over the list, each pair evaluated
        # once, equal bit for bit those of the directed kernel over the
        # fresh query's pairs at the list's build
        build, forces = SweepPairs._build, SweepPairs.forces
        listed, compared = {}, []

        def built(self, state):
            build(self, state)
            listed[self] = sweep_neighbors(state, relaxation._CUTOFF, self.margin)

        def checked(self, state):
            got = forces(self, state)
            want = directed_forces(state, self.f0, state.mobile_indices(), *listed[self])
            assert got.tobytes() == want.tobytes()
            compared.append(len(directed_view(self, state)[0]) - len(self.a))
            return got

        monkeypatch.setattr(SweepPairs, "_build", built)
        monkeypatch.setattr(SweepPairs, "forces", checked)
        workloads = bench_module("workloads")
        wl, cfg = workloads.load(name, 0, tmp_path)
        traces = workloads.traces(wl, workloads.entry_point(wl)(cfg))
        assert len(compared) == sum(trace.sweeps for trace in traces)
        assert min(compared) > 0  # pairs of two mobile bubbles, held once


def copy_state(state):
    """A RelaxState with copies of `state`'s arrays."""
    out = RelaxState([], seed=state.seed)
    for name in ("x", "y", "vx", "vy", "r", "kind", "alive"):
        setattr(out, name, getattr(state, name).copy())
    return out


def walled_fire_system():
    """Nine bubbles of radii 0.3 to 0.5 scattered over a 4 x 4 box with deep
    overlaps, the first a boundary bubble: FIRE restarts after its first
    sweep, its dt reaches the largest value, and the walls stop bubbles."""
    rng = np.random.RandomState(5)
    xy = rng.uniform(0.6, 3.4, size=(9, 2))
    radii = rng.uniform(0.3, 0.5, size=9)
    return square_domain(side=4.0), [
        Bubble(float(x), float(y), float(r), BOUNDARY if k == 0 else MOBILE)
        for k, ((x, y), r) in enumerate(zip(xy, radii))]


class TestFire:
    def test_sweeps_equal_the_scalar_fire_oracle_bit_for_bit(self):
        # 40 FIRE sweeps over a kept pair list and a kept wall clamp end each
        # sweep where the scalar oracle ends it, bit for bit, with the same
        # max force, dt, alpha, positive sweeps and restarts
        domain, bubbles = walled_fire_system()
        state, ref = RelaxState(bubbles, seed=5), RelaxState(bubbles, seed=5)
        walls, ref_walls, pairs = WallClamp(domain), WallClamp(domain), SweepPairs(F0)
        fire = FireState()
        want = dict(dt=DT, alpha=0.1, positive=0, restarts=0)
        dts, stops = [], 0
        for _ in range(40):
            max_f = relax_step(state, walls, pairs, fire)
            ref_max_f, stopped = scalar_fire_sweep(ref, F0, ref_walls, want)
            assert max_f == ref_max_f
            for name in ("x", "y", "vx", "vy"):
                assert np.array_equal(getattr(state, name), getattr(ref, name))
            assert (fire.dt, fire.alpha, fire.positive, fire.restarts) == (
                want["dt"], want["alpha"], want["positive"], want["restarts"])
            dts.append(fire.dt)
            stops += len(stopped)
        assert fire.restarts >= 2 and stops > 0 and pairs.rebuilds > 1
        assert max(dts) == 1.5 * DT

    def test_restart_zeroes_velocities_halves_dt_and_resets_alpha(self):
        # eight sweeps whose velocities point along the forces (P > 0) grow
        # dt from the sixth on and decay alpha; one against them (P < 0),
        # and one at rest (P = 0), restart
        fire = FireState()
        f = np.array([[1.0, -0.5, 0.25], [0.5, 0.0, -1.0]])
        for _ in range(8):
            fire.mix(0.3 * f, f)
        assert fire.positive == 8 and fire.restarts == 0
        assert fire.dt == 1.1 * (1.1 * (1.1 * 0.4)) and fire.alpha == 0.1 * 0.99 * 0.99 * 0.99
        for k, v in enumerate((-0.3 * f, np.zeros_like(f)), start=1):
            dt = fire.dt
            mixed = fire.mix(v, f)
            assert mixed.shape == f.shape and not mixed.any()
            assert (fire.dt, fire.alpha, fire.positive, fire.restarts) == (0.5 * dt, 0.1, 0, k)

    @pytest.mark.parametrize("strategy", ["new-qc", "none"])
    def test_dt_never_exceeds_one_and_a_half_dyn_dt(self, monkeypatch, strategy):
        # FIRE grows dt only after five positive sweeps in a row, by 1.1 a
        # sweep, never past 1.5 times its start dt, which the graded plate's
        # fixed population reaches; a restart halves it
        step, seen = relaxation.relax_step, []

        def watched(state, walls, pairs, fire):
            before = fire.dt, fire.restarts
            max_f = step(state, walls, pairs, fire)
            seen.append((before, (fire.dt, fire.restarts, fire.positive), DT))
            return max_f

        monkeypatch.setattr(relaxation, "relax_step", watched)
        domain, bubbles = graded_holed_plate()
        _, trace = relax_until_converged(bubbles(), domain, strategy=strategy)
        assert trace.converged and len(seen) == trace.sweeps
        for (dt0, restarts0), (dt1, restarts1, positive), base in seen:
            assert dt1 <= 1.5 * base
            if restarts1 > restarts0:
                assert dt1 == 0.5 * dt0 and positive == 0
            else:
                assert dt1 == (min(1.1 * dt0, 1.5 * base) if positive > 5 else dt0)
        assert max(dt for (_, (dt, _, _), _) in seen) == 1.5 * DT
        assert trace.fire_restarts == seen[-1][1][1] >= 1

    def test_original_qc_starts_fire_again_after_a_population_change(self, monkeypatch):
        # in an original-qc run whose passes insert and delete, the sweep
        # after a pass that changed the population starts from FIRE's start
        # values, dt = DT, alpha 0.1 and no positive sweeps, with the
        # velocities and the restart count carried over; every other sweep
        # starts where the last one left FIRE
        step, qc, events = relaxation.relax_step, relaxation._qc_original_state, []

        def watched(state, walls, pairs, fire):
            before = (fire.dt, fire.alpha, fire.positive, fire.restarts)
            moving = bool(state.vx.any() or state.vy.any())
            max_f = step(state, walls, pairs, fire)
            events.append(("step", before, (fire.dt, fire.alpha, fire.positive,
                                            fire.restarts), moving))
            return max_f

        def counted(*args):
            changes = qc(*args)
            events.append(("qc", changes))
            return changes

        monkeypatch.setattr(relaxation, "relax_step", watched)
        monkeypatch.setattr(relaxation, "_qc_original_state", counted)
        domain, bubbles = graded_holed_plate()
        cfg = PipelineConfig(max_sweeps=60, force_tol_factor=1e-9, qc_period=5, seed=3)
        _, trace = relax_until_converged(bubbles() + [Bubble(1.2, 2.0, 0.9, MOBILE)], domain,
                                         cfg, strategy="original-qc")
        last, changed, starts = (DT, 0.1, 0, 0), False, 0
        for event in events:
            if event[0] == "qc":
                changed |= event[1] > 0
                continue
            _, before, after, moving = event
            if changed:
                assert before == (DT, 0.1, 0, last[3]) and moving
                starts += last[:2] != (DT, 0.1)
            else:
                assert before == last
            last, changed = after, False
        assert sum(event[0] == "step" for event in events) == trace.sweeps == 60
        assert starts >= 3
        assert trace.fire_restarts == last[3] >= 1


class TestRelaxStep:
    def test_equilibrium_is_fixed_point(self):
        bubbles = [Bubble(3.0, 3.0, 0.5, MOBILE)]
        state = RelaxState(bubbles)
        relax_step(state, WallClamp(far_box(bubbles)), SweepPairs(F0), FireState())
        assert state.x[0] == 3.0 and state.y[0] == 3.0

    def test_tangent_pair_unmoved(self):
        # the cubic leaves a ~1e-16 force residue at w=1, so "unchanged"
        # holds to rounding, not bitwise
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE), Bubble(1.0, 0.0, 0.5, MOBILE)]
        state = RelaxState(bubbles)
        relax_step(state, WallClamp(far_box(bubbles)), SweepPairs(F0), FireState())
        assert state.x[0] == pytest.approx(0.0, abs=1e-12)
        assert state.x[1] == pytest.approx(1.0, abs=1e-12)
        assert state.y == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_fixed_bubbles_bitwise_stationary(self):
        bubbles = [Bubble(0.123456, 0.654321, 0.5, BOUNDARY),
                   Bubble(0.5, 0.1, 0.5, MOBILE)]
        state, walls = RelaxState(bubbles), WallClamp(far_box(bubbles))
        for _ in range(25):
            relax_step(state, walls, SweepPairs(F0), FireState())
        assert state.x[0] == 0.123456 and state.y[0] == 0.654321

    def test_overlapping_pair_separates(self):
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE), Bubble(0.6, 0.0, 0.5, MOBILE)]
        state, walls = RelaxState(bubbles), WallClamp(far_box(bubbles))
        for _ in range(40):
            relax_step(state, walls, SweepPairs(F0), FireState())
        d = math.hypot(state.x[1] - state.x[0], state.y[1] - state.y[0])
        assert d == pytest.approx(1.0, abs=0.05)

    def test_huge_time_step_diverges(self, monkeypatch):
        # an overlapping pair stepped with a huge dt leaves the floats, and
        # the sweep says so before the walls see the step
        monkeypatch.setattr(relaxation, "_FIRE_DT", 1e200)
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE), Bubble(0.6, 0.0, 0.5, MOBILE)]
        state = RelaxState(bubbles)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(RelaxationError, match="diverged"):
            relax_step(state, WallClamp(far_box(bubbles)), SweepPairs(F0), FireState())
        assert state.x.tolist() == [0.0, 0.6]  # nothing written

    @pytest.mark.parametrize("dt", [1e80, 1e100, 1e150, 1e155, 1e200])
    def test_unstable_time_step_diverges_with_a_kept_list(self, monkeypatch, dt):
        # an overlapping pair stepped over and over with a huge dt and a
        # kept pair list: the relaxation says it diverged, whatever step
        # first meets the floats' limits. From 1e80 the first sweep throws
        # the pair to finite positions whose squared extent overflows, and
        # the next sweep's list build says so; from 1e155 the first step
        # leaves the floats itself and says so before it writes. Each sweep
        # takes a fresh FIRE state, which starts at dt.
        monkeypatch.setattr(relaxation, "_FIRE_DT", dt)
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE), Bubble(0.3, 0.0, 0.5, MOBILE)]
        state, walls = RelaxState(bubbles), WallClamp(far_box(bubbles))
        pairs, done = SweepPairs(F0), []
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(RelaxationError, match="diverged"):
            for _ in range(1000):
                relax_step(state, walls, pairs, FireState())
                done.append(state.x.tolist())
        sweeps = 1 if dt < 1e155 else 0
        assert len(done) == sweeps and np.isfinite(state.x).all()
        assert (state.x.tolist() == [0.0, 0.3]) == (sweeps == 0)

    def test_list_build_past_the_float_range_diverges(self):
        # bubbles whose squared extent overflows the floats cannot be put in
        # a k-d tree; building the pair list over them says they diverged
        state = RelaxState([Bubble(-1e154, 0.0, 0.5, MOBILE), Bubble(1e154, 0.0, 0.5, MOBILE)])
        with np.errstate(over="ignore"), pytest.raises(RelaxationError, match="diverged"):
            SweepPairs(F0)._build(state)

    @pytest.mark.parametrize("outer,hole", [
        (RECTANGLE, SQUARE_HOLE),
        # a straight corner: its two collinear segments tie there
        (COLLINEAR, SQUARE_HOLE),
        # a diamond hole's corners tie between two segments
        (RECTANGLE, [[5.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 4.0]]),
        # a straight corner on the hole
        (RECTANGLE, COLLINEAR_HOLE),
    ], ids=["outer0", "outer1", "diamond-hole", "hole-collinear"])
    def test_wall_clamp_matches_scalar_check(self, rng, outer, hole):
        # the clamp equals the scalar check against every segment; a second
        # call at the same points checks again only the rows it did not
        # leave alone with room to spare, and gives the same result
        hole = np.array(hole)
        domain = PackingDomain(outer=np.array(outer), holes=[hole])
        walls = WallClamp(domain)
        corners = np.concatenate([domain.outer, hole])
        on_walls = [a + t * (b - a) for a, b in zip(corners, np.roll(corners, -1, axis=0))
                    for t in np.linspace(0.0, 1.0, 7)]
        pts = np.concatenate([
            rng.uniform(-2.0, 12.0, size=(3000, 2)),   # outside the bbox too
            rng.uniform(3.5, 6.5, size=(300, 2)) * [1.0, 0.8],  # the hole's inside
            corners, corners + 1e-9, corners - 0.3,
            np.array(on_walls),
            np.mgrid[-1:12, -1:10].reshape(2, -1).T * 1.0,     # a unit lattice
            np.mgrid[-8:96, -8:80].reshape(2, -1).T * 0.125,   # an eighth lattice
        ])
        radii = rng.uniform(0.1, 0.5, size=len(pts))
        slots = np.arange(len(pts))
        out, moved = walls.clamp(slots, pts, radii)
        for (x, y), r, got, hit in zip(pts.tolist(), radii.tolist(), out, moved):
            want = enforce_clearance(walls, x, y, r)
            if want is None:
                assert not hit and got.tolist() == [x, y]
            else:
                assert hit and got.tolist() == [float(want[0]), float(want[1])]
        assert 0 < moved.sum() < len(pts) and walls.checks == len(pts)
        # every point outside the domain is projected, the hole's inside too
        outside = ~domain.contains_points(pts)
        assert moved[outside].all()
        assert outside[3000:3300].sum() > 100
        again, moved_again = walls.clamp(slots, pts, radii)
        assert np.array_equal(again, out) and np.array_equal(moved_again, moved)
        assert walls.checks - len(pts) == np.count_nonzero(walls.room2 == 0.0) < len(pts)

    def test_certificate_skips_most_rows_on_relaxed_lattice(self):
        # after relaxation bubbles keep clear of the walls, and their room
        # spares most of them the full check on most sweeps
        domain = PackingDomain(outer=np.array(RECTANGLE), holes=[np.array(SQUARE_HOLE)],
                               sizing=lambda x, y: np.full(np.shape(x), 0.4))
        boundary = pack_boundary(domain)
        interior = pack_interior_quadtree(domain, AnchorField(boundary))
        out, trace = relax_until_converged(boundary + interior, domain)
        assert trace.converged
        mobile = [b for b in out if b.kind != BOUNDARY]
        assert trace.wall_checks < 0.2 * trace.sweeps * len(mobile)

    @pytest.mark.parametrize("outer,hole,shift", [
        # a notch whose tip turns the boundary by ~175 degrees: moves below
        # the tip cross its sides' line extensions without nearing a wall
        (NOTCHED, SQUARE_HOLE, 0.0),
        (COLLINEAR, COLLINEAR_HOLE, 0.0),
        (RECTANGLE, [[5.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 4.0]], 0.0),
        (NOTCHED, SQUARE_HOLE, 1e6),
    ], ids=["notch", "collinear", "diamond-hole", "notch-at-1e6"])
    def test_kept_clamp_equals_fresh_clamp_every_step(self, outer, hole, shift):
        # bubbles walk at random, across walls too; a clamp kept over the
        # walk, which skips rows within their room, gives at every step what
        # a fresh clamp gives, and skips most rows
        rng = np.random.RandomState(11)
        domain = PackingDomain(outer=np.array(outer) + shift, holes=[np.array(hole) + shift])
        kept = WallClamp(domain)
        n, steps = 20, 200
        slots = np.arange(n)
        radii = rng.uniform(0.1, 0.5, size=n)
        pts = rng.uniform(-1.0, 11.0, size=(n, 2)) + shift
        moves = 0
        for _ in range(steps):
            out, moved = kept.clamp(slots, pts, radii)
            want = WallClamp(domain).clamp(slots, pts, radii)
            assert np.array_equal(out, want[0]) and np.array_equal(moved, want[1])
            moves += moved.sum()
            pts = out + rng.normal(0.0, 0.05, size=(n, 2))
        assert moves > 0 and kept.checks < 0.5 * n * steps

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_kept_clamp_equals_fresh_clamp_at_the_edge_of_its_room(self, shift):
        # bubbles just clear of a triangular hole's slanted walls each step
        # straight at the wall by their whole room: the rounding margin keeps
        # a move that ends within rounding of the clearance out of the
        # skipped rows
        rng = np.random.RandomState(12)
        hole = np.array([[3.1, 2.3], [2.7, 5.9], [6.6, 4.7]])
        domain = PackingDomain(outer=np.array(RECTANGLE) + shift, holes=[hole + shift])
        n = 400
        slots = np.arange(n)
        radii = rng.uniform(0.1, 0.5, size=n)
        hole_walls = np.array(loop_segments(domain)[4:]) - shift
        a, b = np.split(hole_walls[rng.randint(len(hole_walls), size=n)], 2, axis=1)
        inward = (b - a)[:, ::-1] * [-1.0, 1.0] / np.hypot(*(b - a).T)[:, None]
        gap = radii + rng.uniform(0.001, 0.2, size=n)
        pts = a + rng.uniform(0.3, 0.7, size=(n, 1)) * (b - a) + inward * gap[:, None] + shift
        for scale in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
            kept = WallClamp(domain)
            assert not kept.clamp(slots, pts, radii)[1].any()
            step = pts - inward * (scale * np.sqrt(kept.room2))[:, None]
            out, moved = kept.clamp(slots, step, radii)
            want = WallClamp(domain).clamp(slots, step, radii)
            assert np.array_equal(out, want[0]) and np.array_equal(moved, want[1])

    @pytest.mark.parametrize("outer,hole", [
        (NOTCHED, SQUARE_HOLE),
        # straight corners on the outer loop and on the hole
        (COLLINEAR, COLLINEAR_HOLE),
    ], ids=["notch", "collinear"])
    def test_one_pass_check_equals_two_pass_check(self, outer, hole):
        # random rows walking across the walls: positions, projected mask
        # and kept room equal those of the two-pass check at every step
        rng = np.random.RandomState(13)
        domain = PackingDomain(outer=np.array(outer), holes=[np.array(hole)])
        walls, ref = WallClamp(domain), WallClamp(domain)
        n = 60
        radii = rng.uniform(0.1, 0.5, size=n)
        pts = rng.uniform(-1.0, 11.0, size=(n, 2))
        pts[:4] = [[5.0, 0.0], [3.0, 4.0], [3.0, 4.2], [5.0, 0.3]]  # at the straight corners
        moved = 0
        for _ in range(60):
            slots = np.sort(rng.choice(n, size=n // 2, replace=False))
            out, fix = walls.clamp(slots, pts[slots], radii[slots])
            want, want_fix = two_pass_clamp(ref, slots, pts[slots], radii[slots])
            assert np.array_equal(out, want) and np.array_equal(fix, want_fix)
            assert np.array_equal(walls.room2, ref.room2) and np.array_equal(walls.at, ref.at)
            moved += fix.sum()
            pts[slots] = out
            pts += rng.normal(0.0, 0.1, size=(n, 2))
        assert moved and 0 < np.count_nonzero(walls.room2) < n

    @pytest.mark.parametrize("outer", [RECTANGLE, COLLINEAR])
    def test_project_inside_matches_scalar_loop(self, rng, outer):
        # a diamond hole's corners lie on the diagonals, equally far from
        # two segments; corners and wall points tie between neighbours.
        # Radii beyond any room in the plate make the clamp project every
        # row from its nearest segment and t.
        hole = np.array([[5.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 4.0]])
        domain = PackingDomain(outer=np.array(outer), holes=[hole])
        corners = np.concatenate([domain.outer, hole])
        on_walls = [a + t * (b - a) for a, b in zip(corners, np.roll(corners, -1, axis=0))
                    for t in np.linspace(0.0, 1.0, 5)]
        pts = np.concatenate([rng.uniform(-2.0, 12.0, size=(2000, 2)), corners,
                              np.array(on_walls), np.mgrid[-1:12, -1:10].reshape(2, -1).T,
                              [[5.0, 4.0], [1.0, 1.0], [9.0, 7.0]]])
        radii = rng.uniform(4.0, 4.5, size=len(pts))
        walls = WallClamp(domain)
        got, moved = walls.clamp(np.arange(len(pts)), pts, radii)
        want = [project_inside_loop(domain, x, y, r)
                for (x, y), r in zip(pts.tolist(), radii.tolist())]
        assert moved.all() and np.array_equal(got, np.array(want, dtype=float))
        assert walls.clamp(np.arange(0), pts[:0], radii[:0])[0].shape == (0, 2)


class TestOverlapOriginal:
    @pytest.mark.parametrize("n,expected", [(6, 6.0), (4, 4.0), (9, 9.0)])
    def test_tangent_equal_neighbors(self, n, expected):
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE)] + hex_neighbors(n)
        assert summed_overlap(bubbles, 0) == pytest.approx(expected, abs=1e-9)

    def test_no_neighbors(self):
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE), Bubble(10.0, 0.0, 0.5, MOBILE)]
        assert summed_overlap(bubbles, 0) == 0.0

    def test_beyond_2r0_excluded(self):
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE), Bubble(1.01, 0.0, 0.5, MOBILE)]
        assert summed_overlap(bubbles, 0) == 0.0

    def test_pass_sums_rows_in_ascending_neighbour_order(self, monkeypatch):
        # the pass's one pair pass gives, bit for bit, the running sum over
        # ascending neighbours that a row recomputed later in the pass gets
        sums = []

        def recording(state, i, j):
            sums.append(_overlap_sums(state, i, j))
            return sums[-1]

        monkeypatch.setattr(relaxation, "_overlap_sums", recording)
        bubbles = random_population(3)
        qc_original(bubbles)
        state = RelaxState(bubbles)
        near = scalar_ball_query(state)
        want = [scalar_summed_overlap(state, near, k, hypot=np.hypot)
                for k in range(len(bubbles))]
        assert sums[0][:len(bubbles)].tolist() == want


class TestOverlapPairwise:
    def test_tangent(self):
        assert overlap_ratio(1.0, 0.5, 0.5) == pytest.approx(0.0)

    def test_concentric(self):
        assert overlap_ratio(0.0, 0.7, 0.7) == pytest.approx(2.0)

    def test_direct_value(self):
        assert overlap_ratio(1.5, 1.0, 1.0) == pytest.approx(0.5)

    def test_separated_negative(self):
        assert overlap_ratio(2.0, 0.5, 0.5) < 0.0

    def test_arrays_symmetric_bit_for_bit(self):
        rng = np.random.default_rng(5)
        l, a, b = rng.uniform(0.0, 2.0, size=(3, 1000))
        got = overlap_ratio(l, a, b)
        assert np.array_equal(got, overlap_ratio(l, b, a))
        assert np.array_equal(got, [(x + y - d) / min(x, y)
                                    for d, x, y in zip(l.tolist(), a.tolist(), b.tolist())])


class TestQCOriginal:
    def test_hexagonal_packing_unchanged(self):
        # interior bubbles of a perfect triangular lattice all have overlap 6
        state, changes = qc_original(hex_lattice())
        assert changes == 0
        assert state.count == 25

    def test_isolated_bubble_insertion(self):
        domain = square_domain(side=20.0, radius=0.5)
        state, changes = qc_original([Bubble(10.0, 10.0, 0.5, MOBILE)], anchors=[],
                                     domain=domain)
        assert changes == 1
        assert state.count == 2

    def test_overcrowded_bubble_deleted(self):
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE)] + hex_neighbors(9)
        state, changes = qc_original(bubbles)
        assert changes >= 1
        assert not any(b.x == 0.0 and b.y == 0.0 for b in state.to_bubbles())

    def test_threshold_validation(self):
        with pytest.raises(PipelineError, match=r"^\[config\] qc_low: "):
            PipelineConfig(qc_low=8.0, qc_high=5.0)

    def test_insertions_visible_within_pass(self):
        # each under-dense bubble's only wide neighbor sits 1.2 away on its
        # far side, so both aim their insertion at the origin; the second
        # must see the first's insertion
        _, bubbles = insertions_visible_case()
        state, changes = qc_original(bubbles)
        at_origin = [b for b in state.to_bubbles() if math.hypot(b.x, b.y) < 1e-9]
        assert changes >= 1
        assert len(at_origin) == 1

    def test_tolerant_thresholds_change_less_on_graded_packing(self):
        # one pass over a graded packing: (4,10) must touch fewer bubbles
        # than (5,8)
        domain, bubbles = graded_holed_square()
        _, tight = qc_original(bubbles, 5.0, 8.0, domain=domain)
        _, loose = qc_original(bubbles, 4.0, 10.0, domain=domain)
        assert loose < tight


def boxed(bubbles):
    """(far_box(bubbles), bubbles): a case whose walls never bind."""
    return far_box(bubbles), bubbles


def insertions_visible_case():
    return boxed([Bubble(-2.2, 0.0, 0.5, BOUNDARY), Bubble(-1.0, 0.0, 0.5, MOBILE),
                  Bubble(1.0, 0.0, 0.5, MOBILE), Bubble(2.2, 0.0, 0.5, BOUNDARY)])


def random_case(seed):
    return lambda: (square_domain(side=10.0, radius=0.35), random_population(seed))


def crowd(x, y, degrees):
    """Anchors of radius 0.5 at 0.6 from (x, y), one per angle: nine of them
    sum a radius-0.5 bubble there to 16.2, over every high threshold."""
    return [Bubble(x + 0.6 * math.cos(math.radians(a)), y + 0.6 * math.sin(math.radians(a)),
                   0.5, BOUNDARY) for a in degrees]


# Passes whose earlier change reaches a later insertion candidate. Every
# mobile bubble but the crowded one sums to 0, so it asks for an insertion
# at the (5, 8) and (4, 10) thresholds.

def deleted_blocker_case():
    # the crowded bubble at (1, 0) is deleted first; it blocked the
    # candidate of the small bubble at the origin, aimed away from the
    # anchor at (-0.55, 0) to (0.7, 0), and lies beyond that bubble's 3 r0
    return boxed(crowd(1.0, 0.0, range(-80, 81, 20))
                 + [Bubble(-0.55, 0.0, 0.5, BOUNDARY), Bubble(1.0, 0.0, 0.5, MOBILE),
                    Bubble(0.0, 0.0, 0.2, MOBILE)])


def deleted_wide_neighbour_case():
    # the crowded bubble at the origin is deleted first; it lies 1.4 from
    # the bubble at (1.4, 0), inside that bubble's 3 r0 and beyond its 2 r_max
    # stale window, and was one of the two neighbours that set its gap
    return boxed(crowd(0.0, 0.0, range(100, 261, 20))
                 + [Bubble(1.4, 1.2, 0.5, BOUNDARY), Bubble(0.0, 0.0, 0.5, MOBILE),
                    Bubble(1.4, 0.0, 0.5, MOBILE)])


def inserted_in_wide_window_case():
    # the bubble at (-0.5, 2.2) inserts at (-0.5, 1.2), 1.3 from the bubble at
    # the origin: inside its 3 r0 and beyond the 2 r_max stale window, and 2
    # from the candidate it aimed at (1, 0) away from the anchor at (-1.2, 0)
    return boxed([Bubble(-1.2, 0.0, 0.5, BOUNDARY), Bubble(-0.5, 3.4, 0.5, BOUNDARY),
                  Bubble(-0.5, 2.2, 0.5, MOBILE), Bubble(0.0, 0.0, 0.5, MOBILE)])


def inserted_blocker_case():
    # the bubble at (1, 1.15) inserts at (1, 0.15), 1.01 from the small bubble
    # at the origin (beyond its 3 r0 and the stale window) and 0.34 from
    # that bubble's candidate at (0.7, 0), which it blocks
    return boxed([Bubble(-0.55, 0.0, 0.5, BOUNDARY), Bubble(1.0, 2.35, 0.5, BOUNDARY),
                  Bubble(1.0, 1.15, 0.5, MOBILE), Bubble(0.0, 0.0, 0.2, MOBILE)])


@functools.lru_cache(maxsize=None)
def relaxed_graded_square():
    """graded_holed_square's packing after 12 sweeps without quantity
    control, where insertion candidates fail on the walls and on collisions
    as in the graded-qc benchmark workload (one list shared by the callers,
    as graded_holed_square's)."""
    domain, bubbles = graded_holed_square()
    out, _ = relax_until_converged(bubbles, domain,
                                   PipelineConfig(max_sweeps=12, force_tol_factor=1e-12),
                                   strategy="none")
    return domain, out


# (domain, bubbles) on which the pair-array and scalar passes are compared
QC_CASES = {
    "hex-lattice": lambda: boxed(hex_lattice()),
    "hex-lattice-crowded": lambda: boxed(hex_lattice() + hex_neighbors(9, center=(2.0, 1.7))),
    "graded": graded_holed_square,
    "graded-relaxed": relaxed_graded_square,
    "insertions-visible": insertions_visible_case,
    "deleted-blocker": deleted_blocker_case,
    "deleted-wide-neighbour": deleted_wide_neighbour_case,
    "inserted-in-wide-window": inserted_in_wide_window_case,
    "inserted-blocker": inserted_blocker_case,
    "random-0": random_case(0),
    "random-1": random_case(1),
}


class TestQCMatchesScalarPasses:
    """The pair-array passes make the scalar passes' decisions: the same
    change counts, alive masks and inserted bubbles, bit for bit, and the
    same insertion attempts."""

    @pytest.mark.parametrize("thresholds", [(5.0, 8.0), (4.0, 10.0), (-1.0, 0.5)])
    @pytest.mark.parametrize("case", sorted(QC_CASES))
    def test_original_qc(self, case, thresholds):
        domain, bubbles = QC_CASES[case]()
        tally, want_tally = ConvergenceTrace(), ConvergenceTrace()
        new, changes = qc_original(bubbles, *thresholds, domain=domain, seed=4, trace=tally)
        old, want = qc_original(bubbles, *thresholds, domain=domain, seed=4,
                                qc=scalar_qc_original, trace=want_tally)
        assert changes == want
        for got, expected in zip(state_arrays(new), state_arrays(old)):
            assert np.array_equal(got, expected)
        assert ((tally.qc_insert_attempts, tally.qc_inserts)
                == (want_tally.qc_insert_attempts, want_tally.qc_inserts))

    def test_random_population_inserts_and_deletes(self):
        # the pass counts its insertions, and the attempts that the wall or
        # the collision test turned down
        domain, bubbles = random_case(0)()
        tally = ConvergenceTrace()
        state, changes = qc_original(bubbles, domain=domain, trace=tally)
        deleted = np.count_nonzero(~state.alive[:len(bubbles)])
        inserted = len(state.alive) - len(bubbles)
        assert deleted > 0 and inserted > 0 and changes == deleted + inserted
        assert tally.qc_inserts == inserted < tally.qc_insert_attempts
        assert 0 < tally.qc_candidates_redone < tally.qc_insert_attempts

    def test_redone_candidates_counted(self):
        # each case whose earlier change reaches a later candidate derives
        # that candidate again, and places it unless the change blocked it;
        # a deleted blocker only lifts the block (alive mask)
        for case, inserts, redone in [("deleted-blocker", 1, 0), ("deleted-wide-neighbour", 1, 1),
                                      ("inserted-in-wide-window", 2, 1),
                                      ("inserted-blocker", 1, 1)]:
            tally = ConvergenceTrace()
            qc_original(QC_CASES[case]()[1], trace=tally)
            assert (tally.qc_inserts, tally.qc_candidates_redone) == (inserts, redone), case

    @pytest.mark.parametrize("threshold", [1.0, 1.2, 0.5, -0.5])
    @pytest.mark.parametrize("case", sorted(QC_CASES))
    def test_boundary_region(self, case, threshold):
        _, bubbles = QC_CASES[case]()
        new, removed = qc_boundary_region(bubbles, threshold)
        old, want = qc_boundary_region(bubbles, threshold, qc=scalar_qc_boundary_region)
        assert removed == want
        assert np.array_equal(new.alive, old.alive)


class TestInsertionCandidates:
    def candidates(self, case):
        """The batch of every mobile slot of a case at the start of a pass,
        and a function deriving the candidates of some of its rows."""
        domain, bubbles = QC_CASES[case]()
        state = RelaxState(bubbles, seed=4)
        anchors = AnchorField([b for b in bubbles if b.kind != MOBILE])
        walls = WallClamp(domain)
        _, _, near = relaxation._pass_queries(state)
        rows = state.mobile_indices()

        def derive(some):
            return relaxation._insertion_candidates(state, some, near, anchors, walls,
                                                    state.max_radius())
        return rows, derive

    @pytest.mark.parametrize("case", ["graded-relaxed", "random-0", "deleted-wide-neighbour",
                                      "hex-lattice"])
    def test_batch_rows_equal_one_row_calls(self, case):
        rows, derive = self.candidates(case)
        *batch, own, blockers = derive(rows)
        for k in range(len(rows)):
            *one, one_own, one_blockers = derive(rows[k:k + 1])
            assert [column[k] for column in batch] == [column[0] for column in one]
            assert one_own.tolist() == [0] * len(one_own)
            assert blockers[own == k].tolist() == one_blockers.tolist()

    def test_relaxed_graded_candidates_fail_on_walls_and_collisions(self):
        rows, derive = self.candidates("graded-relaxed")
        _, _, _, clear, own, _ = derive(rows)
        blocked = np.isin(np.arange(len(rows)), own)
        assert (~clear).sum() > 10 and (clear & blocked).sum() > 10

    def test_no_rows(self):
        rows, derive = self.candidates("graded-relaxed")
        assert [len(column) for column in derive(rows[:0])] == [0] * 6


class TestQCBoundaryRegion:
    def test_no_overlap_unchanged(self):
        anchors = [Bubble(0.0, 0.0, 0.5, BOUNDARY)]
        mobiles = [Bubble(2.0, 0.0, 0.5, MOBILE)]
        state, removed = qc_boundary_region(anchors + mobiles, 1.0)
        assert (state.count, removed) == (2, 0)

    def test_concentric_removed(self):
        anchors = [Bubble(0.0, 0.0, 0.5, BOUNDARY)]
        mobiles = [Bubble(0.0, 0.0, 0.5, MOBILE)]
        state, removed = qc_boundary_region(anchors + mobiles, 1.0)
        out = state.to_bubbles()
        assert (len(out), removed) == (1, 1)
        assert out[0].kind == BOUNDARY

    def test_anchors_never_removed(self):
        # two anchors overlap each other hugely: both must survive
        anchors = [Bubble(0.0, 0.0, 0.5, BOUNDARY), Bubble(0.1, 0.0, 0.5, INTERIOR_ANCHOR)]
        state, removed = qc_boundary_region(anchors, 1.0)
        assert (state.count, removed) == (2, 0)

    def test_idempotent(self):
        anchors = [Bubble(0.0, 0.0, 0.5, BOUNDARY), Bubble(3.0, 0.0, 0.5, BOUNDARY)]
        mobiles = [Bubble(0.2, 0.1, 0.5, MOBILE), Bubble(1.5, 0.0, 0.5, MOBILE),
                   Bubble(2.9, 0.0, 0.4, MOBILE)]
        once, _ = qc_boundary_region(anchors + mobiles, 1.0)
        twice, removed = qc_boundary_region(once.to_bubbles(), 1.0)
        assert removed == 0
        assert once.to_bubbles() == twice.to_bubbles()

    def test_only_bubbles_over_the_threshold_removed(self):
        anchors = [Bubble(0.0, 0.0, 0.5, BOUNDARY)]
        near = Bubble(0.05, 0.0, 0.5, MOBILE)
        far = Bubble(0.6, 0.0, 0.5, MOBILE)
        state, removed = qc_boundary_region(anchors + [near, far], 1.0)
        # near overlap = 1.9 removed; far overlap = 0.8 kept
        assert removed == 1
        assert state.to_bubbles() == anchors + [far]

    def test_bubble_over_two_anchors_counted_once(self):
        anchors = [Bubble(-0.05, 0.0, 0.5, BOUNDARY), Bubble(0.05, 0.0, 0.5, BOUNDARY)]
        state, removed = qc_boundary_region(anchors + [Bubble(0.0, 0.0, 0.5, MOBILE)], 1.0)
        assert (state.count, removed) == (2, 1)

    def test_negative_threshold_reaches_separated_bubbles(self):
        # overlap -0.4 exceeds a threshold of -0.5 although the disks are apart
        anchors = [Bubble(0.0, 0.0, 0.5, BOUNDARY)]
        state, removed = qc_boundary_region(anchors + [Bubble(1.2, 0.0, 0.5, MOBILE)], -0.5)
        assert (state.count, removed) == (1, 1)


class TestRelaxUntilConverged:
    def test_already_converged_hexagonal(self):
        domain = square_domain(side=8.0, radius=0.5)
        out, trace = relax_until_converged(hex_lattice(origin=(1.0, 1.0)), domain,
                                           PipelineConfig(force_tol_factor=1e-6),
                                           strategy="none")
        assert trace.converged
        assert trace.sweeps == 1
        assert len(trace.rows) == 1

    def test_stop_reason_names_the_test_that_ended_the_run(self, monkeypatch):
        domain = square_domain(side=6.0, radius=0.5)
        boundary = pack_boundary(domain)
        interior = pack_interior_quadtree(domain, AnchorField(boundary))
        # at 180 degrees every full stall window stalls: under original-qc
        # with passes that never change the population (no sum is below 0
        # or above 1e9) the run stops at the second sample; a fixed
        # population has no stall test and runs to the sweep cap
        monkeypatch.setattr(relaxation, "_STALL_WINDOW", 10)
        monkeypatch.setattr(relaxation, "_STALL_ANGLE", 180.0)
        keys = dict(qc_low=0.0, qc_high=1e9)
        stall = PipelineConfig(max_sweeps=40, force_tol_factor=1e-9, **keys)
        cases = [(PipelineConfig(max_sweeps=4, force_tol_factor=1e-9, **keys), "none",
                  ("sweep-cap", False, 4)),
                 (PipelineConfig(force_tol_factor=1e9, **keys), "none", ("force", True, 1)),
                 (stall, "original-qc", ("stall", True, 20)),
                 (stall, "none", ("sweep-cap", False, 40)),
                 (stall, "new-qc", ("sweep-cap", False, 40))]
        for cfg, strategy, expected in cases:
            bubbles = [Bubble(b.x, b.y, b.radius, b.kind) for b in boundary + interior]
            _, trace = relax_until_converged(bubbles, domain, cfg, strategy=strategy)
            assert (trace.stop_reason, trace.converged, trace.sweeps) == expected

    def test_deterministic_traces(self):
        domain = square_domain(side=6.0, radius=0.5)
        boundary = pack_boundary(domain)
        interior = pack_interior_quadtree(domain, AnchorField(boundary))
        cfg = PipelineConfig(max_sweeps=25, force_tol_factor=1e-9, seed=7)
        runs = []
        for _ in range(2):
            bubbles = [Bubble(b.x, b.y, b.radius, b.kind) for b in boundary + interior]
            out, trace = relax_until_converged(bubbles, domain, cfg, strategy="new-qc")
            runs.append((tuple((b.x, b.y, b.radius) for b in out),
                         tuple(r[:4] for r in trace.rows),
                         (trace.pair_rebuilds, trace.fire_restarts)))
        assert runs[0] == runs[1]
        assert runs[0][2][1] >= 1  # FIRE's first sweep starts at rest

    def test_original_qc_runs_repeat_exactly(self):
        # quantity control inserts and deletes and the wall clamp acts, yet
        # two runs end at the same positions bit for bit with the same trace
        # apart from wall time, and the same bookkeeping counts
        domain, bubbles = graded_holed_plate()
        cfg = PipelineConfig(max_sweeps=30, force_tol_factor=1e-9, qc_period=5, seed=3)
        runs = []
        for _ in range(2):
            out, trace = relax_until_converged(bubbles(), domain, cfg, strategy="original-qc")
            runs.append((tuple((b.x, b.y, b.radius, b.kind) for b in out),
                         tuple(r[:4] for r in trace.rows),
                         (trace.pair_rebuilds, trace.wall_checks, trace.qc_insert_attempts,
                          trace.qc_inserts, trace.qc_candidates_redone, trace.fire_restarts)))
        assert runs[0] == runs[1]
        counts = {row[1] for row in runs[0][1]}
        assert len(counts) > 1  # quantity control changed the population
        rebuilds, wall_checks, attempts, inserts, redone, restarts = runs[0][2]
        assert 1 < rebuilds < 30 and wall_checks > 0 and restarts >= 1
        assert attempts > inserts > 0 and attempts > redone

    def test_energy_dissipation_proxy(self, monkeypatch):
        # no QC, small dt: the decay envelope of the max net force (running
        # 20-sweep maximum) is non-increasing after the first 10 sweeps,
        # within a 5% transient-violation allowance. The raw per-sweep max
        # oscillates as the damped bubbles overshoot and swing back.
        domain = square_domain(side=8.0, radius=0.5)
        boundary = pack_boundary(domain)
        interior = pack_interior_quadtree(domain, AnchorField(boundary))
        monkeypatch.setattr(relaxation, "_FIRE_DT", 0.1)
        out, trace = relax_until_converged(
            boundary + interior, domain, PipelineConfig(max_sweeps=120, force_tol_factor=1e-12),
            strategy="none")
        forces = [row[2] for row in trace.rows]
        window = 30
        envelope = [max(forces[i:i + window]) for i in range(10, len(forces) - window)]
        violations = sum(b > a * 1.001 for a, b in zip(envelope, envelope[1:]))
        assert violations <= max(1, int(0.05 * len(envelope)))
        assert forces[-1] < 0.25 * max(forces[10:])  # net decay happened

    def test_force_and_tolerance_scale_with_the_input_bubbles(self, monkeypatch):
        # f0 is the smallest input radius and the force tolerance
        # force_tol_factor times the mean input radius, both taken before
        # new-qc prunes: here it prunes the smallest bubble, concentric with
        # an anchor. A max force just under the tolerance stops the run by
        # force at its first sweep; one at the tolerance runs to the cap.
        bubbles = [Bubble(1.0, 1.0, 0.5, BOUNDARY), Bubble(1.0, 1.0, 0.2, MOBILE),
                   Bubble(4.0, 4.0, 0.4, MOBILE), Bubble(7.0, 3.0, 0.6, MOBILE)]
        cfg = PipelineConfig(max_sweeps=3, force_tol_factor=0.1)
        force_tol = 0.1 * float(np.mean([0.5, 0.2, 0.4, 0.6]))
        for max_f, expected in ((np.nextafter(force_tol, 0.0), ("force", 1)),
                                (force_tol, ("sweep-cap", 3))):
            seen = []

            def step(state, walls, pairs, fire):
                seen.append((pairs.f0, state.count))
                return max_f

            monkeypatch.setattr(relaxation, "relax_step", step)
            _, trace = relax_until_converged(bubbles, square_domain(), cfg)
            assert (trace.stop_reason, trace.sweeps) == expected
            assert set(seen) == {(0.2, 3)}

    @pytest.mark.parametrize("strategy", ["new-qc", "original-qc", "none"])
    def test_input_bubbles_left_as_they_were(self, strategy):
        # run_compare_qc hands both strategies the same list: a relaxation
        # that prunes, inserts, deletes and moves bubbles reads its input
        # and leaves every bubble of it as it was, field by field
        domain, bubbles = graded_holed_plate()
        given = bubbles() + [Bubble(1.2, 2.0, 0.9, MOBILE)]
        before = [replace(b) for b in given]
        out, trace = relax_until_converged(given, domain,
                                           PipelineConfig(max_sweeps=30, qc_period=5, seed=3),
                                           strategy=strategy)
        assert [vars(b) for b in given] == [vars(b) for b in before]
        assert trace.sweeps > 1 and out != before

    @pytest.mark.parametrize("radius", [0.0, -0.3, math.nan])
    def test_non_positive_radius_rejected(self, radius):
        bubbles = [Bubble(1.0, 1.0, 0.5, BOUNDARY), Bubble(3.0, 3.0, radius, MOBILE)]
        with pytest.raises(RelaxationError, match="smallest radius.* must be positive"):
            relax_until_converged(bubbles, square_domain())

    def test_nonconverged_flag(self):
        bubbles = [Bubble(4.0, 4.0, 0.5, MOBILE), Bubble(4.4, 4.0, 0.5, MOBILE)]
        domain = square_domain(side=8.0, radius=0.5)
        out, trace = relax_until_converged(
            bubbles, domain, PipelineConfig(max_sweeps=1, force_tol_factor=1e-15),
            strategy="none")
        assert not trace.converged

    def test_trace_csv(self, tmp_path):
        trace = ConvergenceTrace()
        trace.add(1, 100, 0.5, 30.0, 0.1)
        trace.add(2, 100, 0.25, math.nan, 0.2)  # a sweep the monitor did not sample
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sweep,bubble_count,max_force,min_angle_deg,elapsed_s"
        assert lines[1].startswith("1,100,0.5,30")
        assert lines[2] == "2,100,0.25,,0.200000"
