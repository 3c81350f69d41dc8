import math

import numpy as np
import pytest

from bubblemesh.sizing import (SizingError, SizingParams, _max_normal_curvature,
                               _principal_curvatures, g_of_eps, radius_bound,
                               radius_bound_evaluator)
from bubblemesh.surfaces import (cylinder_patch, make_surface, plane,
                                 sphere_patch, torus_patch, wavy_patch)

from conftest import allowable_edge_3d, fundamental_forms, jacobian, sigma1

# frozen by direct numeric evaluation of (1-eps)*sqrt(40*(1-sqrt(1-1.2*eps)))
G_OF_0_01 = 0.4857303141213317
G_OF_0_02 = 0.6810225031620099


class TestGofEps:
    def test_known_values(self):
        assert g_of_eps(0.01) == pytest.approx(G_OF_0_01, rel=1e-12)
        assert g_of_eps(0.02) == pytest.approx(G_OF_0_02, rel=1e-12)

    def test_zero_tolerance_limit(self):
        assert g_of_eps(1e-12) < 1e-5

    def test_monotone_on_small_tolerances(self):
        eps = np.linspace(1e-4, 0.05, 40)
        vals = [g_of_eps(e) for e in eps]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [0.0, -0.01, 1.0 / 1.2, 0.9])
    def test_out_of_range(self, bad):
        with pytest.raises(SizingError):
            g_of_eps(bad)


def max_normal_curvature(surface, u, v):
    """The largest principal curvature magnitude at (u, v), as the edge
    bound `allowable_edge_3d` takes it."""
    return _max_normal_curvature(fundamental_forms(surface, u, v))


class TestCurvature:
    def test_plane_is_flat(self):
        assert max_normal_curvature(plane(), 0.3, 0.7) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("R", [1.0, 2.0, 0.5])
    def test_sphere(self, R):
        surf = sphere_patch(radius=R)
        assert max_normal_curvature(surf, 0.4, 1.0) == pytest.approx(1.0 / R, rel=1e-7)

    def test_cylinder(self):
        surf = cylinder_patch(radius=2.0)
        k1, k2 = _principal_curvatures(*fundamental_forms(surf, 0.5, 0.5))
        ks = sorted([abs(k1), abs(k2)])
        assert ks[0] == pytest.approx(0.0, abs=1e-12)
        assert ks[1] == pytest.approx(0.5, rel=1e-9)
        assert max_normal_curvature(surf, 0.5, 0.5) == pytest.approx(0.5, rel=1e-9)

    def test_torus(self):
        surf = torus_patch(major=2.0, minor=0.5)
        # at v=0 (outer equator) curvatures are 1/r and cos(v)/(R + r cos v)
        k = max_normal_curvature(surf, 0.3, 0.0)
        assert k == pytest.approx(2.0, rel=1e-9)


class TestSigma1:
    def test_identity_embedding(self):
        assert sigma1(plane(), 0.2, 0.9) == pytest.approx(1.0, rel=1e-12)

    def test_axis_scaling(self):
        surf = wavy_patch(amplitude=0.0)
        # zero amplitude wavy graph is the identity embedding
        assert sigma1(surf, 1.0, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_unit_cylinder_orthonormal_jacobian(self):
        surf = cylinder_patch(radius=1.0)
        assert sigma1(surf, 0.7, 0.3) == pytest.approx(1.0, rel=1e-12)

    def test_svd_matches_first_fundamental_form(self):
        surf = torus_patch(major=2.0, minor=0.7)
        for u, v in [(0.1, 0.2), (0.9, 1.1), (2.0, 2.5)]:
            J = jacobian(surf, u, v)
            JtJ = J.T @ J
            eigs = np.linalg.eigvalsh(JtJ)
            assert sigma1(surf, u, v) == pytest.approx(math.sqrt(eigs[-1]), rel=1e-12)


class TestRadiusBound:
    def test_plane_clamped_to_cap(self):
        params = SizingParams(epsilon=0.01, r_min=0.05, r_max=0.5)
        assert allowable_edge_3d(plane(), 0.5, 0.5, params) == math.inf
        assert radius_bound(plane(), 0.5, 0.5, params) == pytest.approx(0.5)

    def test_sphere_edge_length(self):
        params = SizingParams(epsilon=0.01, r_min=1e-4, r_max=10.0)
        assert allowable_edge_3d(sphere_patch(radius=1.0), 0.3, 1.0, params) == \
            pytest.approx(G_OF_0_01, rel=1e-9)
        assert allowable_edge_3d(sphere_patch(radius=2.0), 0.3, 1.0, params) == \
            pytest.approx(2.0 * G_OF_0_01, rel=1e-9)

    def test_sphere_bound_composition(self):
        surf = sphere_patch(radius=1.0)
        params = SizingParams(epsilon=0.01, r_min=1e-4, r_max=10.0)
        u, v = 0.4, 1.2
        s1 = sigma1(surf, u, v)
        expected = min(params.r_max, G_OF_0_01 / (2.0 * s1))
        assert radius_bound(surf, u, v, params) == pytest.approx(expected, rel=1e-9)

    def test_uniform_mode(self):
        params = SizingParams(epsilon=0.01, r_min=0.3, r_max=0.3)
        assert radius_bound(plane(), 0.1, 0.1, params) == pytest.approx(0.3)
        assert radius_bound(sphere_patch(), 0.3, 1.0, params) == pytest.approx(0.3)

    def test_scale_covariance(self):
        # scaling the embedding by t scales the 3D edge bound by t
        params = SizingParams(epsilon=0.02, r_min=1e-6, r_max=1e6)
        for t in (2.0, 5.0):
            l1 = allowable_edge_3d(sphere_patch(radius=1.0), 0.5, 1.0, params)
            lt = allowable_edge_3d(sphere_patch(radius=t), 0.5, 1.0, params)
            assert lt == pytest.approx(t * l1, rel=1e-7)
            # in parameter units the sphere's sigma1 also scales by t, so the
            # unclamped bound is scale-free
            r1 = radius_bound(sphere_patch(radius=1.0), 0.5, 1.0, params)
            rt = radius_bound(sphere_patch(radius=t), 0.5, 1.0, params)
            assert rt == pytest.approx(r1, rel=1e-7)

    def test_continuity_on_wavy(self):
        surf = wavy_patch(amplitude=0.7, freq_u=1.0, freq_v=1.3)
        params = SizingParams(epsilon=0.01, r_min=0.01, r_max=1.0)
        us = np.linspace(0.5, 5.5, 60)
        vals = [radius_bound(surf, u, 2.0, params) for u in us]
        jumps = np.abs(np.diff(vals))
        assert jumps.max() < 0.1  # no jumps beyond smooth variation

    def test_invalid_params(self):
        with pytest.raises(SizingError):
            SizingParams(epsilon=0.9, r_min=0.1, r_max=1.0)
        with pytest.raises(SizingError):
            SizingParams(epsilon=0.01, r_min=1.0, r_max=0.1)


def scalar_radius_bound(surface, u, v, params):
    """Pointwise radius bound in the scalar arithmetic (np.dot forms,
    np.linalg.norm, one SVD per point): the oracle the array-valued
    functions must reproduce bit for bit."""
    fu = surface.du(u, v)
    fv = surface.dv(u, v)
    E, F, G = float(np.dot(fu, fu)), float(np.dot(fu, fv)), float(np.dot(fv, fv))
    n = np.cross(fu, fv)
    n = n / np.linalg.norm(n)
    L = float(np.dot(surface.duu(u, v), n))
    M = float(np.dot(surface.duv(u, v), n))
    N = float(np.dot(surface.dvv(u, v), n))
    a = E * G - F * F
    b = E * N + G * L - 2.0 * F * M
    c = L * N - M * M
    root = math.sqrt(max(b * b - 4.0 * a * c, 0.0))
    kappa = max(abs((b + root) / (2.0 * a)), abs((b - root) / (2.0 * a)))
    lp = math.inf if kappa == 0.0 else g_of_eps(params.epsilon) / kappa
    s1 = float(np.linalg.svd(np.column_stack([fu, fv]), compute_uv=False)[0])
    lp_param = lp / s1 if math.isfinite(lp) else math.inf
    return min(max(lp_param, 2.0 * params.r_min), 2.0 * params.r_max) / 2.0


class TestArrayRadiusBound:
    @pytest.mark.parametrize("name", ["sphere", "torus", "cylinder", "wavy", "plane"])
    @pytest.mark.parametrize("params", [SizingParams(5e-5, 1e-5, 10.0),
                                        SizingParams(0.01, 0.05, 0.2)])
    def test_equals_scalar_arithmetic(self, name, params, rng):
        # the sphere is umbilic everywhere, where the curvature discriminant
        # is ~0 and its square root magnifies any last-bit difference
        surf = make_surface(name)
        u0, u1, v0, v1 = surf.domain
        # a tenth of each side beyond the rectangle: those points are clipped
        x = rng.uniform(u0 - 0.1 * (u1 - u0), u1 + 0.1 * (u1 - u0), size=(20, 20))
        y = rng.uniform(v0 - 0.1 * (v1 - v0), v1 + 0.1 * (v1 - v0), size=(20, 20))
        assert np.any(x < u0) and np.any(y > v1)
        got = radius_bound_evaluator(surf, params)(x, y)
        u, v = surf.clip(x, y)
        ref = np.array([scalar_radius_bound(surf, a, b, params)
                        for a, b in zip(u.ravel().tolist(), v.ravel().tolist())])
        assert got.shape == x.shape
        assert np.array_equal(got.ravel(), ref)
        for k in range(0, 400, 97):
            assert radius_bound(surf, float(u.flat[k]), float(v.flat[k]), params) == ref[k]

    def test_irregular_point_in_batch_raises(self):
        flat_line = cylinder_patch(radius=0.0)
        with pytest.raises(SizingError, match=r"irregular surface point at \(u,v\)=\(0.5,"):
            radius_bound(flat_line, np.array([0.5, 0.6]), np.array([0.2, 0.3]),
                         SizingParams(0.01, 0.05, 0.2))


@pytest.mark.parametrize("name,params", [
    ("plane", {}), ("sphere", {"radius": 1.7}), ("cylinder", {"radius": 1.4}),
    ("torus", {"major": 2.0, "minor": 0.7}),
    ("wavy", {"amplitude": 0.7, "freq_u": 1.3, "freq_v": 0.8})])
def test_partials_equal_central_differences(name, params, rng):
    # the closed-form partials against central differences at random
    # interior points: the first of `position`, the second of `du` and `dv`
    # (duv both ways). The parameters are not 1, so a missing radius or
    # frequency factor shows; the differences are good to ~1e-10, and a
    # sign or factor error in any component moves it by far more than 1e-6
    surf = make_surface(name, **params)
    u0, u1, v0, v1 = surf.domain
    u = rng.uniform(u0 + 0.05 * (u1 - u0), u1 - 0.05 * (u1 - u0), size=50)
    v = rng.uniform(v0 + 0.05 * (v1 - v0), v1 - 0.05 * (v1 - v0), size=50)
    h = 1e-5

    def central(f):
        return ((f(u + h, v) - f(u - h, v)) / (2.0 * h),
                (f(u, v + h) - f(u, v - h)) / (2.0 * h))

    (fu, fv), (fuu, fuv), (fvu, fvv) = central(surf.position), central(surf.du), central(surf.dv)
    for closed, numeric in ((surf.du, fu), (surf.dv, fv), (surf.duu, fuu), (surf.duv, fuv),
                            (surf.duv, fvu), (surf.dvv, fvv)):
        assert np.abs(closed(u, v) - numeric).max() < 1e-6


def test_make_surface_registry():
    surf = make_surface("cylinder", radius=2.0)
    assert surf.name == "cylinder"
    with pytest.raises(KeyError):
        make_surface("moebius")
