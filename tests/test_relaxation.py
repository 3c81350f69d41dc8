import math

import numpy as np
import pytest

from bubblemesh.geometry import closest_point_on_segment, hashed_unit_direction
from bubblemesh.packing import (BOUNDARY, INTERIOR_ANCHOR, MOBILE, Bubble,
                                PackingDomain, pack_boundary,
                                pack_interior_quadtree)
from bubblemesh.relaxation import (WALL_CLEARANCE, ConvergenceTrace,
                                   DynamicsParams, ForceParams, RelaxState,
                                   _BoundaryProximity, _greedy_colours,
                                   _sweep_neighbors, force_magnitude,
                                   overlap_original, overlap_pairwise,
                                   pair_force, qc_boundary_region, qc_original,
                                   relax_step, relax_until_converged,
                                   rk4_damped_step)

FORCE = ForceParams(k=1.0, f0=1.0)


def reach_colours(bubbles, cutoff):
    """Brute-force greedy colouring in ascending index order. Two non-boundary
    bubbles are neighbours when within a sweep's reach: cutoff * (r_i + r_j)
    plus a slack of half the largest radius."""
    slack = 0.5 * max(b.radius for b in bubbles)
    colour = {}
    for i, b in enumerate(bubbles):
        if b.kind == BOUNDARY:
            continue
        taken = {c for j, c in colour.items()
                 if math.hypot(b.x - bubbles[j].x, b.y - bubbles[j].y)
                 <= cutoff * (b.radius + bubbles[j].radius) + slack}
        colour[i] = min(set(range(len(taken) + 1)) - taken)
    return colour


def enforce_clearance(walls, x, y, radius):
    """Scalar wall check of one bubble: the reference for the vector clamp.
    Returns the corrected centre, or None when no correction is needed."""
    local = walls.cells.get((int(math.floor(x / walls.cell)), int(math.floor(y / walls.cell))))
    if local is None:
        x0, y0, x1, y1 = walls.bbox
        if x < x0 or x > x1 or y < y0 or y > y1:
            return walls.domain.project_inside(x, y, radius)
        return None
    best_d2 = math.inf
    for si in local:
        ax, ay, bx, by = walls.segments[si]
        qx, qy, d2 = closest_point_on_segment(x, y, ax, ay, bx, by)
        if d2 < best_d2:
            best_d2 = d2
            best = (qx, qy, ax, ay, bx, by)
    qx, qy, ax, ay, bx, by = best
    clearance = WALL_CLEARANCE * radius
    inside = (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0.0
    if best_d2 >= clearance * clearance and inside:
        return None
    ln = math.hypot(bx - ax, by - ay)
    if ln <= 0.0:
        return walls.domain.project_inside(x, y, radius)
    nx, ny = -(by - ay) / ln, (bx - ax) / ln
    return qx + nx * radius, qy + ny * radius


def hex_neighbors(n, r=0.5, center=(0.0, 0.0)):
    """n bubbles of radius r exactly tangent to a central bubble of radius r."""
    out = []
    for s in range(n):
        ang = 2 * math.pi * s / max(n, 1)
        out.append(Bubble(center[0] + 2 * r * math.cos(ang),
                          center[1] + 2 * r * math.sin(ang), r, MOBILE))
    return out


def square_domain(side=10.0, radius=0.5):
    outer = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    return PackingDomain(outer=outer, holes=[], sizing=lambda x, y: radius)


class TestPairForce:
    def test_zero_at_tangency(self):
        a = Bubble(0.0, 0.0, 0.5)
        b = Bubble(1.0, 0.0, 0.5)
        assert np.linalg.norm(pair_force(a, b, FORCE)) < 1e-12

    def test_zero_beyond_cutoff(self):
        a = Bubble(0.0, 0.0, 0.5)
        for d in (1.5, 1.6, 4.0):
            b = Bubble(d, 0.0, 0.5)
            assert np.linalg.norm(pair_force(a, b, FORCE)) == 0.0

    def test_repulsion_at_half_tangency(self):
        a = Bubble(0.0, 0.0, 0.5)
        b = Bubble(0.5, 0.0, 0.5)  # l = 0.5 * (r_i + r_j)
        f = pair_force(a, b, FORCE)
        assert f[0] < 0.0  # pushes a away from b
        assert abs(f[1]) == 0.0
        assert np.linalg.norm(f) > 0.0

    def test_attraction_between_tangency_and_cutoff(self):
        a = Bubble(0.0, 0.0, 0.5)
        b = Bubble(1.25, 0.0, 0.5)
        f = pair_force(a, b, FORCE)
        assert f[0] > 0.0  # pulls a toward b

    def test_newtons_third_law_exact(self, rng):
        for _ in range(50):
            xa, ya, xb, yb = rng.uniform(-2, 2, 4)
            ra, rb = rng.uniform(0.1, 1.0, 2)
            a = Bubble(xa, ya, ra)
            b = Bubble(xb, yb, rb)
            fab = pair_force(a, b, FORCE, i=0, j=1)
            fba = pair_force(b, a, FORCE, i=1, j=0)
            assert fab[0] == -fba[0] and fab[1] == -fba[1]

    def test_cubic_continuity(self):
        l0 = 1.2
        ws = np.linspace(0.0, 1.5, 3001)
        vals = [force_magnitude(w * l0, l0, FORCE) for w in ws]
        assert abs(vals[-1]) < 1e-12  # exactly zero at the cutoff
        jumps = np.abs(np.diff(vals))
        assert jumps.max() < 0.02  # smooth on [0, 1.5]

    def test_coincident_centers_deterministic(self):
        a = Bubble(1.0, 1.0, 0.5)
        b = Bubble(1.0, 1.0, 0.5)
        f1 = pair_force(a, b, FORCE, i=3, j=7, seed=42)
        f2 = pair_force(a, b, FORCE, i=3, j=7, seed=42)
        assert np.array_equal(f1, f2)
        assert np.linalg.norm(f1) == pytest.approx(FORCE.f0, rel=1e-12)


class TestRK4:
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
        # reference single-bubble RK4 step
        frozen = [Bubble(0.0, 0.0, 0.5, BOUNDARY), Bubble(1.4, 0.0, 0.5, BOUNDARY)]
        mobile = Bubble(0.6, 0.4, 0.5, MOBILE)
        dyn = DynamicsParams()
        state = RelaxState(frozen + [mobile])
        relax_step(state, FORCE, dyn)

        def net(x):
            total = np.zeros(2)
            probe = Bubble(x[0], x[1], 0.5)
            for b in frozen:
                total += pair_force(probe, b, FORCE)
            return total

        x1, v1 = rk4_damped_step(np.array([0.6, 0.4]), np.zeros(2), net,
                                 dyn.m, dyn.c, dyn.dt)
        assert state.x[2] == pytest.approx(x1[0], abs=1e-14)
        assert state.y[2] == pytest.approx(x1[1], abs=1e-14)

    def test_graded_sweep_matches_sequential_oracle(self, rng):
        # mixed radii exercise the per-pair force reach; the oracle sums
        # pair_force over every alive bubble, each mobile bubble stepping
        # against the others' latest positions, in the order of its own
        # greedy colouring: by colour, then by index
        n = 40
        xy = rng.uniform(0.0, 3.5, size=(n, 2))
        radii = rng.uniform(0.2, 0.5, size=n)
        kinds = [MOBILE if k % 3 else BOUNDARY for k in range(n)]
        bubbles = [Bubble(x, y, r, kind) for (x, y), r, kind in zip(xy, radii, kinds)]
        dyn = DynamicsParams()
        state = RelaxState(bubbles)
        max_f = relax_step(state, FORCE, dyn)

        ref = [Bubble(b.x, b.y, b.radius, b.kind) for b in bubbles]
        colour = reach_colours(bubbles, FORCE.cutoff)
        ref_max_f = 0.0
        for i in sorted(colour, key=lambda i: (colour[i], i)):
            b = ref[i]

            def net(x):
                probe = Bubble(x[0], x[1], b.radius)
                return sum((pair_force(probe, other, FORCE, i, j)
                            for j, other in enumerate(ref) if j != i), np.zeros(2))

            ref_max_f = max(ref_max_f, float(np.linalg.norm(net([b.x, b.y]))))
            x1, _ = rk4_damped_step(np.array([b.x, b.y]), np.zeros(2), net,
                                    dyn.m, dyn.c, dyn.dt)
            b.x, b.y = x1
        assert max_f == pytest.approx(ref_max_f, abs=1e-12)
        moved = sum(math.hypot(s - b.x, t - b.y) > 1e-3
                    for s, t, b in zip(state.x, state.y, bubbles))
        assert moved >= 10
        assert state.x == pytest.approx([b.x for b in ref], abs=1e-12)
        assert state.y == pytest.approx([b.y for b in ref], abs=1e-12)

    def test_colour_classes_hold_no_neighbours(self, rng):
        # a colour class steps at once, so no two of its bubbles may lie
        # within reach + slack of each other; the colouring is the greedy
        # one in index order, and anchors move while boundary bubbles do not
        n = 300
        xy = rng.uniform(0.0, 8.0, size=(n, 2))
        radii = rng.uniform(0.15, 0.5, size=n)
        kinds = [(BOUNDARY, INTERIOR_ANCHOR, MOBILE, MOBILE)[k % 4] for k in range(n)]
        bubbles = [Bubble(x, y, r, kind) for (x, y), r, kind in zip(xy, radii, kinds)]
        state = RelaxState(bubbles)
        colour = _greedy_colours(state, *_sweep_neighbors(state, FORCE.cutoff))
        expected = reach_colours(bubbles, FORCE.cutoff)
        assert colour.tolist() == [expected.get(i, -1) for i in range(n)]
        slack = 0.5 * radii.max()
        for a in range(n):
            for b in range(a + 1, n):
                if colour[a] >= 0 and colour[a] == colour[b]:
                    assert (math.hypot(*(xy[a] - xy[b]))
                            > FORCE.cutoff * (radii[a] + radii[b]) + slack)
        assert colour.max() >= 3

    def test_coincident_pair_separates_along_hashed_direction(self):
        # coincident centres push apart along the seeded hashed direction,
        # as pair_force defines it; bubble 0 (colour 0) steps first
        seed = 5
        bubbles = [Bubble(2.0, 2.0, 0.5, MOBILE), Bubble(2.0, 2.0, 0.5, MOBILE)]
        dyn = DynamicsParams()
        state = RelaxState(bubbles, seed=seed)
        relax_step(state, FORCE, dyn)

        ref = [Bubble(2.0, 2.0, 0.5, MOBILE), Bubble(2.0, 2.0, 0.5, MOBILE)]
        for i, j in ((0, 1), (1, 0)):
            def net(x):
                return pair_force(Bubble(x[0], x[1], 0.5), ref[j], FORCE, i, j, seed)

            x1, _ = rk4_damped_step(np.array([ref[i].x, ref[i].y]), np.zeros(2), net,
                                    dyn.m, dyn.c, dyn.dt)
            ref[i].x, ref[i].y = x1
        assert state.x == pytest.approx([b.x for b in ref], abs=1e-12)
        assert state.y == pytest.approx([b.y for b in ref], abs=1e-12)
        ux, uy = hashed_unit_direction(0, 1, seed)
        dx, dy = state.x[0] - 2.0, state.y[0] - 2.0
        assert dx * ux + dy * uy > 1e-3
        assert abs(dx * uy - dy * ux) < 1e-12
        assert math.hypot(state.x[1] - state.x[0], state.y[1] - state.y[0]) > 1e-3


class TestRelaxStep:
    def test_equilibrium_is_fixed_point(self):
        state = RelaxState([Bubble(3.0, 3.0, 0.5, MOBILE)])
        relax_step(state, FORCE, DynamicsParams())
        assert state.x[0] == 3.0 and state.y[0] == 3.0

    def test_tangent_pair_unmoved(self):
        # the cubic leaves a ~1e-16 force residue at w=1, so "unchanged"
        # holds to rounding, not bitwise
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE), Bubble(1.0, 0.0, 0.5, MOBILE)]
        state = RelaxState(bubbles)
        relax_step(state, FORCE, DynamicsParams())
        assert state.x[0] == pytest.approx(0.0, abs=1e-12)
        assert state.x[1] == pytest.approx(1.0, abs=1e-12)
        assert state.y == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_fixed_bubbles_bitwise_stationary(self):
        bubbles = [Bubble(0.123456, 0.654321, 0.5, BOUNDARY),
                   Bubble(0.5, 0.1, 0.5, MOBILE)]
        state = RelaxState(bubbles)
        for _ in range(25):
            relax_step(state, FORCE, DynamicsParams())
        assert state.x[0] == 0.123456 and state.y[0] == 0.654321

    def test_overlapping_pair_separates(self):
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE), Bubble(0.6, 0.0, 0.5, MOBILE)]
        state = RelaxState(bubbles)
        for _ in range(40):
            relax_step(state, FORCE, DynamicsParams())
        d = math.hypot(state.x[1] - state.x[0], state.y[1] - state.y[0])
        assert d == pytest.approx(1.0, abs=0.05)


    @pytest.mark.parametrize("outer", [
        [[0.0, 0.0], [10.0, 0.0], [10.0, 8.0], [0.0, 8.0]],
        # a repeated vertex makes a zero-length first segment
        [[0.0, 0.0], [0.0, 0.0], [10.0, 0.0], [10.0, 8.0], [0.0, 8.0]],
    ])
    def test_wall_clamp_matches_scalar_check(self, rng, outer):
        hole = np.array([[3.0, 2.0], [3.0, 6.0], [7.0, 6.0], [7.0, 2.0]])
        domain = PackingDomain(outer=np.array(outer), holes=[hole])
        walls = _BoundaryProximity(domain, 0.5)
        corners = np.concatenate([domain.outer, hole])
        on_walls = [a + t * (b - a) for a, b in zip(corners, np.roll(corners, -1, axis=0))
                    for t in np.linspace(0.0, 1.0, 7)]
        pts = np.concatenate([
            rng.uniform(-2.0, 12.0, size=(3000, 2)),   # outside the bbox too
            rng.uniform(3.5, 6.5, size=(300, 2)) * [1.0, 0.8],  # the hole's empty cells
            corners, corners + 1e-9, corners - 0.3,
            np.array(on_walls),
            np.mgrid[-1:12, -1:10].reshape(2, -1).T * walls.cell,  # cell edges
        ])
        radii = rng.uniform(0.1, 0.5, size=len(pts))
        out, moved = walls.clamp(pts, radii)
        for (x, y), r, got, hit in zip(pts.tolist(), radii.tolist(), out, moved):
            want = enforce_clearance(walls, x, y, r)
            if want is None:
                assert not hit and got.tolist() == [x, y]
            else:
                assert hit and got.tolist() == [float(want[0]), float(want[1])]
        assert 0 < moved.sum() < len(pts)


class TestOverlapOriginal:
    @pytest.mark.parametrize("n,expected", [(6, 6.0), (4, 4.0), (9, 9.0)])
    def test_tangent_equal_neighbors(self, n, expected):
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE)] + hex_neighbors(n)
        assert overlap_original(0, bubbles) == pytest.approx(expected, abs=1e-9)

    def test_no_neighbors(self):
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE), Bubble(10.0, 0.0, 0.5, MOBILE)]
        assert overlap_original(0, bubbles) == 0.0

    def test_beyond_2r0_excluded(self):
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE), Bubble(1.01, 0.0, 0.5, MOBILE)]
        assert overlap_original(0, bubbles) == 0.0


class TestOverlapPairwise:
    def test_tangent(self):
        assert overlap_pairwise(Bubble(0, 0, 0.5), Bubble(1.0, 0, 0.5)) == pytest.approx(0.0)

    def test_concentric(self):
        assert overlap_pairwise(Bubble(0, 0, 0.7), Bubble(0, 0, 0.7)) == pytest.approx(2.0)

    def test_direct_value(self):
        assert overlap_pairwise(Bubble(0, 0, 1.0), Bubble(1.5, 0, 1.0)) == pytest.approx(0.5)

    def test_separated_negative(self):
        assert overlap_pairwise(Bubble(0, 0, 0.5), Bubble(2.0, 0, 0.5)) < 0.0


class TestQCOriginal:
    def test_hexagonal_packing_unchanged(self):
        # interior bubbles of a perfect triangular lattice all have overlap 6
        r = 0.5
        bubbles = []
        for row in range(5):
            for col in range(5):
                x = 2 * r * col + (r if row % 2 else 0.0)
                y = r * math.sqrt(3.0) * row
                interior = 1 <= row <= 3 and 1 <= col <= 3
                bubbles.append(Bubble(x, y, r, MOBILE if interior else BOUNDARY))
        out, changes = qc_original(bubbles, 5.0, 8.0)
        assert changes == 0
        assert len(out) == len(bubbles)

    def test_isolated_bubble_insertion(self):
        domain = square_domain(side=20.0, radius=0.5)
        bubbles = [Bubble(10.0, 10.0, 0.5, MOBILE)]
        out, changes = qc_original(bubbles, 5.0, 8.0, anchors=[], domain=domain)
        assert changes == 1
        assert len(out) == 2

    def test_overcrowded_bubble_deleted(self):
        bubbles = [Bubble(0.0, 0.0, 0.5, MOBILE)] + hex_neighbors(9)
        out, changes = qc_original(bubbles, 5.0, 8.0)
        assert changes >= 1
        assert not any(b.x == 0.0 and b.y == 0.0 for b in out)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            qc_original([Bubble(0, 0, 0.5)], 8.0, 5.0)

    def test_insertions_visible_within_pass(self):
        # each under-dense bubble's only wide neighbor sits 1.2 away on its
        # far side, so both aim their insertion at the origin; the second
        # must see the first's insertion
        bubbles = [Bubble(-2.2, 0.0, 0.5, BOUNDARY), Bubble(-1.0, 0.0, 0.5, MOBILE),
                   Bubble(1.0, 0.0, 0.5, MOBILE), Bubble(2.2, 0.0, 0.5, BOUNDARY)]
        out, changes = qc_original(bubbles, 5.0, 8.0)
        at_origin = [b for b in out if math.hypot(b.x, b.y) < 1e-9]
        assert changes >= 1
        assert len(at_origin) == 1

    def test_tolerant_thresholds_change_less_on_graded_packing(self):
        # one pass over a graded packing: (4,10) must touch fewer bubbles
        # than (5,8)
        def sizing(x, y):
            d = max(math.hypot(x - 10.0, y - 5.0) - 2.0, 0.0)
            return 0.2 + 0.3 * min(d / 4.0, 1.0)

        outer = np.array([[0.0, 0.0], [20.0, 0.0], [20.0, 10.0], [0.0, 10.0]])
        angles = -2 * np.pi * np.arange(24) / 24
        hole = np.column_stack([10 + 2 * np.cos(angles), 5 + 2 * np.sin(angles)])
        domain = PackingDomain(outer=outer, holes=[hole], sizing=sizing)
        boundary = pack_boundary(domain)
        bubbles = boundary + pack_interior_quadtree(domain, boundary)
        _, tight = qc_original([Bubble(b.x, b.y, b.radius, b.kind) for b in bubbles],
                               5.0, 8.0, domain=domain)
        _, loose = qc_original([Bubble(b.x, b.y, b.radius, b.kind) for b in bubbles],
                               4.0, 10.0, domain=domain)
        assert loose < tight


class TestQCBoundaryRegion:
    def test_no_overlap_unchanged(self):
        anchors = [Bubble(0.0, 0.0, 0.5, BOUNDARY)]
        mobiles = [Bubble(2.0, 0.0, 0.5, MOBILE)]
        out = qc_boundary_region(anchors + mobiles, anchors, 1.0)
        assert len(out) == 2

    def test_concentric_removed(self):
        anchors = [Bubble(0.0, 0.0, 0.5, BOUNDARY)]
        mobiles = [Bubble(0.0, 0.0, 0.5, MOBILE)]
        out = qc_boundary_region(anchors + mobiles, anchors, 1.0)
        assert len(out) == 1
        assert out[0].kind == BOUNDARY

    def test_anchors_never_removed(self):
        # two anchors overlap each other hugely: both must survive
        anchors = [Bubble(0.0, 0.0, 0.5, BOUNDARY), Bubble(0.1, 0.0, 0.5, INTERIOR_ANCHOR)]
        out = qc_boundary_region(list(anchors), anchors, 1.0)
        assert len(out) == 2

    def test_idempotent(self):
        anchors = [Bubble(0.0, 0.0, 0.5, BOUNDARY), Bubble(3.0, 0.0, 0.5, BOUNDARY)]
        mobiles = [Bubble(0.2, 0.1, 0.5, MOBILE), Bubble(1.5, 0.0, 0.5, MOBILE),
                   Bubble(2.9, 0.0, 0.4, MOBILE)]
        once = qc_boundary_region(anchors + mobiles, anchors, 1.0)
        twice = qc_boundary_region(once, [b for b in once if b.kind != MOBILE], 1.0)
        assert [(b.x, b.y) for b in once] == [(b.x, b.y) for b in twice]

    def test_most_overlapping_removed_first(self):
        anchors = [Bubble(0.0, 0.0, 0.5, BOUNDARY)]
        near = Bubble(0.05, 0.0, 0.5, MOBILE)
        far = Bubble(0.6, 0.0, 0.5, MOBILE)
        out = qc_boundary_region(anchors + [near, far], anchors, 1.0)
        # near overlap = 1.9 removed; far overlap = 0.8 kept
        assert len(out) == 2
        assert any(b.x == 0.6 for b in out)

    def test_negative_threshold_reaches_separated_bubbles(self):
        # overlap -0.4 exceeds a threshold of -0.5 although the disks are apart
        anchors = [Bubble(0.0, 0.0, 0.5, BOUNDARY)]
        out = qc_boundary_region(anchors + [Bubble(1.2, 0.0, 0.5, MOBILE)], anchors, -0.5)
        assert len(out) == 1


class TestRelaxUntilConverged:
    def test_already_converged_hexagonal(self):
        r = 0.5
        bubbles = []
        for row in range(5):
            for col in range(5):
                x = 1.0 + 2 * r * col + (r if row % 2 else 0.0)
                y = 1.0 + r * math.sqrt(3.0) * row
                interior = 1 <= row <= 3 and 1 <= col <= 3
                bubbles.append(Bubble(x, y, r, MOBILE if interior else BOUNDARY))
        domain = square_domain(side=8.0, radius=r)
        out, trace = relax_until_converged(bubbles, domain, force=FORCE,
                                           dyn=DynamicsParams(force_tol=1e-6),
                                           strategy="none")
        assert trace.converged
        assert trace.sweeps == 1
        assert len(trace.rows) == 1

    def test_deterministic_traces(self):
        domain = square_domain(side=6.0, radius=0.5)
        boundary = pack_boundary(domain)
        interior = pack_interior_quadtree(domain, boundary)
        dyn = DynamicsParams(max_sweeps=25, force_tol=1e-9)
        runs = []
        for _ in range(2):
            bubbles = [Bubble(b.x, b.y, b.radius, b.kind) for b in boundary + interior]
            out, trace = relax_until_converged(bubbles, domain, force=FORCE, dyn=dyn,
                                               strategy="new-qc", seed=7)
            runs.append((tuple((b.x, b.y, b.radius) for b in out),
                         tuple(r[:4] for r in trace.rows)))
        assert runs[0] == runs[1]

    def test_original_qc_runs_repeat_exactly(self):
        # quantity control inserts and deletes and the wall clamp acts, yet
        # two runs end at the same positions bit for bit with the same trace
        # apart from wall time
        def sizing(x, y):
            return 0.25 + 0.25 * min(abs(x - 3.0) / 3.0, 1.0)

        outer = np.array([[0.0, 0.0], [6.0, 0.0], [6.0, 4.0], [0.0, 4.0]])
        hole = np.array([[2.5, 1.5], [2.5, 2.5], [3.5, 2.5], [3.5, 1.5]])
        domain = PackingDomain(outer=outer, holes=[hole], sizing=sizing)
        boundary = pack_boundary(domain)
        interior = pack_interior_quadtree(domain, boundary)
        dyn = DynamicsParams(max_sweeps=30, force_tol=1e-9)
        runs = []
        for _ in range(2):
            bubbles = [Bubble(b.x, b.y, b.radius, b.kind) for b in boundary + interior]
            out, trace = relax_until_converged(bubbles, domain, force=FORCE, dyn=dyn,
                                               strategy="original-qc", qc_period=5, seed=3)
            runs.append((tuple((b.x, b.y, b.radius, b.kind) for b in out),
                         tuple(r[:4] for r in trace.rows)))
        assert runs[0] == runs[1]
        counts = {row[1] for row in runs[0][1]}
        assert len(counts) > 1  # quantity control changed the population

    def test_energy_dissipation_proxy(self):
        # no QC, small dt: the decay envelope of the max net force (running
        # 20-sweep maximum) is non-increasing after the first 10 sweeps,
        # within a 5% transient-violation allowance. The raw per-sweep max
        # oscillates as the Gauss-Seidel wavefront moves between bubbles.
        domain = square_domain(side=8.0, radius=0.5)
        boundary = pack_boundary(domain)
        interior = pack_interior_quadtree(domain, boundary)
        dyn = DynamicsParams(dt=0.1, max_sweeps=120, force_tol=1e-12, stall_window=10**6)
        out, trace = relax_until_converged(boundary + interior, domain,
                                           force=FORCE, dyn=dyn, strategy="none")
        forces = [row[2] for row in trace.rows]
        window = 30
        envelope = [max(forces[i:i + window]) for i in range(10, len(forces) - window)]
        violations = sum(b > a * 1.001 for a, b in zip(envelope, envelope[1:]))
        assert violations <= max(1, int(0.05 * len(envelope)))
        assert forces[-1] < 0.25 * max(forces[10:])  # net decay happened

    def test_nonconverged_flag(self):
        bubbles = [Bubble(4.0, 4.0, 0.5, MOBILE), Bubble(4.4, 4.0, 0.5, MOBILE)]
        domain = square_domain(side=8.0, radius=0.5)
        dyn = DynamicsParams(max_sweeps=1, force_tol=1e-15, stall_window=10**6)
        out, trace = relax_until_converged(bubbles, domain, force=FORCE, dyn=dyn,
                                           strategy="none")
        assert not trace.converged

    def test_trace_csv(self, tmp_path):
        trace = ConvergenceTrace()
        trace.add(1, 100, 0.5, 30.0, 0.1)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sweep,bubble_count,max_force,min_angle_deg,elapsed_s"
        assert lines[1].startswith("1,100,0.5,30")
