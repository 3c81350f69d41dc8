"""Curvature-driven edge length and bubble radius bounds on parametric surfaces.

The chord-error tolerance maps to a maximum 3D edge length through the
normal curvature; the Jacobian's largest singular value converts that
length into the parametric domain, where it caps the bubble radius.

Every function below takes (u, v) as scalars or as equal-shape arrays and
returns values of their shape, computed point by point in the same
floating-point operations: a batch gives exactly the scalar results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _rowdot

EPS_MAX = 1.0 / 1.2  # argument of the inner square root must stay positive
_REGULARITY_TOL = 1e-24


class SizingError(Exception):
    pass


@dataclass(frozen=True)
class SizingParams:
    epsilon: float
    r_min: float
    r_max: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < EPS_MAX):
            raise SizingError(f"epsilon must lie in (0, {EPS_MAX:.6f})")
        # r_min == r_max is the uniform meshing mode
        if not (0.0 < self.r_min <= self.r_max):
            raise SizingError("need 0 < r_min <= r_max")


def g_of_eps(epsilon: float) -> float:
    """Dimensionless chord-error factor (1-eps)*sqrt(40*(1-(1-1.2*eps)^0.5))."""
    if not (0.0 < epsilon < EPS_MAX):
        raise SizingError(f"epsilon must lie in (0, {EPS_MAX:.6f})")
    return (1.0 - epsilon) * math.sqrt(40.0 * (1.0 - math.sqrt(1.0 - 1.2 * epsilon)))


def _require_regular(bad, u, v) -> None:
    if np.any(bad):
        k = int(np.argmax(bad))
        u, v = (np.broadcast_to(t, np.shape(bad)).flat[k] for t in (u, v))
        raise SizingError(f"irregular surface point at (u,v)=({u},{v})")


def _fundamental_forms(surface, u, v, fu, fv):
    """First (E,F,G) and second (L,M,N) fundamental form coefficients, from
    the partials fu, fv at (u, v)."""
    E = _rowdot(fu, fu)
    F = _rowdot(fu, fv)
    G = _rowdot(fv, fv)
    n = np.cross(fu, fv)
    nn = np.sqrt(_rowdot(n, n))
    _require_regular(nn * nn <= _REGULARITY_TOL * np.maximum(E * G, 1e-300), u, v)
    n = n / nn[..., None]
    L = _rowdot(surface.duu(u, v), n)
    M = _rowdot(surface.duv(u, v), n)
    N = _rowdot(surface.dvv(u, v), n)
    return E, F, G, L, M, N


def _principal_curvatures(E, F, G, L, M, N):
    """Principal curvatures from the fundamental-form eigenproblem.

    At an umbilic point (every point of a sphere) the discriminant
    b^2 - 4ac is zero in exact arithmetic, but b^2 and 4ac cancel only to
    a few rounding units, and the square root magnifies that to about
    sqrt(machine epsilon): a sphere's radius bound, constant in exact
    arithmetic, spreads by ~1e-8 relative from point to point."""
    a = E * G - F * F
    b = E * N + G * L - 2.0 * F * M
    c = L * N - M * M
    root = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
    return (b + root) / (2.0 * a), (b - root) / (2.0 * a)


def _max_normal_curvature(forms):
    """Largest principal curvature magnitude (sizing treats curvature as a magnitude)."""
    k1, k2 = _principal_curvatures(*forms)
    return np.maximum(np.abs(k1), np.abs(k2))


def _allowable_edge_3d(forms, params: SizingParams):
    """Maximum allowable 3D edge length g(eps)/kappa_max from the
    fundamental forms; +inf on flat points."""
    kappa = _max_normal_curvature(forms)
    with np.errstate(divide="ignore"):
        return g_of_eps(params.epsilon) / kappa


def _sigma1(J, u, v):
    """Largest singular value of the (..., 3, 2) Jacobians J of the surface
    map at (u, v), by one batched SVD, which runs LAPACK on each matrix
    alone, so a batch equals pointwise calls.

    The closed form sqrt((E+G)/2 + sqrt(((E-G)/2)^2 + F^2)) from the first
    fundamental form differs in the last bit or two on about a third of
    the points (at most 4.4e-16 relative), and the meshes follow those
    bits: it takes criterion 2's torus from a gain of 11.71 to 7.57, below
    its bound of 10."""
    s = np.linalg.svd(J, compute_uv=False)[..., 0]
    _require_regular((s <= 0.0) | (s * s <= _REGULARITY_TOL), u, v)
    return s


def radius_bound(surface, u, v, params: SizingParams):
    """Maximum bubble radius in parameter units: clamp(l_p/sigma1, 2 r_min, 2 r_max)/2.
    The partials du, dv are evaluated once, for both the curvature and the
    Jacobian."""
    fu, fv = surface.du(u, v), surface.dv(u, v)
    lp_param = (_allowable_edge_3d(_fundamental_forms(surface, u, v, fu, fv), params)
                / _sigma1(np.stack([fu, fv], axis=-1), u, v))
    return np.minimum(np.maximum(lp_param, 2.0 * params.r_min), 2.0 * params.r_max) / 2.0


def radius_bound_evaluator(surface, params: SizingParams):
    """Radius-bound sizing field over the surface's parametric rectangle:
    `bound(xs, ys)` takes equal-shape arrays (or scalars) and returns the
    bound at every point as an array of their shape.

    Points outside the rectangle are clipped onto it, so packing structures
    that probe slightly beyond the domain stay well-defined.
    """
    def bound(x, y) -> np.ndarray:
        u, v = surface.clip(x, y)
        return radius_bound(surface, u, v, params)

    return bound
