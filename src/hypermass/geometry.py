"""Ambient 3-metrics, parametrized closed surfaces and their curvature.

Charts are open subsets of R^3 with a metric component function g_ij(p).
Surfaces are parametrizations F(theta, phi) of a topological sphere into a
chart that return their closed-form 2-jet (position, first and second
parameter derivatives), carrying a Gauss-Legendre (in cos theta) x
trapezoid (in phi) quadrature grid.  Metric first derivatives are complex
steps of the component function (Squire & Trapp 1998), exact to roundoff,
so the node pass (:func:`surface_forms`) holds no finite-difference
stencil.  It calls no LAPACK either: the normal is the cofactor identity
(g F_theta) x (g F_phi) = det(g) g^{-1} (F_theta x F_phi), normalized, and
the 2x2 determinants and traces are closed form.  Its fundamental forms
carry every surface quantity downstream, the Gauss curvature included
(:func:`gauss_curvature`).  Only the scalar curvature keeps a second-order
outer stencil in ``fd_step``, so that its convergence order in the step is
a testable 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (ChartBoundary, DegenerateImmersion, DomainError,
                     MissingEmbedding)

__all__ = [
    "MetricField",
    "QuadratureGrid",
    "SurfaceData",
    "SphereTensor",
    "SurfaceForms",
    "euclidean_metric",
    "hyperbolic_ball_metric",
    "ads_schwarzschild_metric",
    "wang_ah_metric",
    "ads_horizon_radius",
    "geodesic_sphere_surface",
    "coordinate_sphere_surface",
    "radial_profile_surface",
    "unit_direction_jet",
    "christoffel_many",
    "scalar_curvature_many",
    "surface_forms",
    "gauss_curvature",
]

# complex step of a metric derivative: Im g(p + i h v) / h = d_v g, with no
# subtractive cancellation, so any h this small is exact to roundoff
_COMPLEX_STEP = 1e-30
# the AdS-Schwarzschild chart stops this far outside the horizon
_HORIZON_MARGIN = 0.1


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricField:
    """Chart-based Riemannian 3-metric.

    ``components`` maps points of shape (..., 3) to symmetric positive
    definite matrices of shape (..., 3, 3).  It must accept complex points
    p + i h v and stay analytic there, so that Im g(p + i h v) / h is the
    derivative of g along v (the complex step every metric derivative
    uses): domain checks read the real part and nothing casts to float.
    ``chart_distance`` returns the distance from a real point to the chart
    boundary (np.inf for a global chart); the curvature stencil refuses to
    straddle the boundary.
    """

    tag: str
    components: Callable[[np.ndarray], np.ndarray]
    chart_distance: Callable[[np.ndarray], np.ndarray]


def _chart_points(p) -> np.ndarray:
    """``p`` as a float array, or as the complex array it already is."""
    p = np.asarray(p)
    return p.astype(np.result_type(p, 1.0), copy=False)


def euclidean_metric() -> MetricField:
    def comps(p):
        return np.broadcast_to(np.eye(3), np.shape(p)[:-1] + (3, 3)).copy()

    return MetricField(
        tag="Euclidean",
        components=comps,
        chart_distance=lambda p: np.full(np.asarray(p).shape[:-1], np.inf),
    )


def hyperbolic_ball_metric(k: float = 1.0) -> MetricField:
    """Poincare ball model of H^3_{-k^2}: g = (f(x)/k)^2 delta."""
    if k <= 0:
        raise DomainError("curvature scale k must be positive")

    def comps(p):
        p = _chart_points(p)
        r2 = np.sum(p * p, axis=-1)
        if np.any(r2.real >= 1.0):
            raise DomainError("hyperbolic ball chart requires |x| < 1")
        f = 2.0 / (1.0 - r2)
        return np.eye(3) * ((f / k) ** 2)[..., None, None]

    def dist(p):
        p = np.asarray(p, dtype=float)
        return 1.0 - np.sqrt(np.sum(p * p, axis=-1))

    return MetricField(
        tag="HyperbolicBall",
        components=comps,
        chart_distance=dist,
    )


def ads_horizon_radius(m: float, k: float) -> float:
    """Positive root of k^2 r^3 + r - 2m = 0 (V(r) = 0)."""
    roots = np.roots([k * k, 0.0, 1.0, -2.0 * m])
    real = [r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0]
    if not real:
        return 0.0
    return max(real)


def ads_schwarzschild_metric(m: float, k: float = 1.0) -> MetricField:
    """Static AdS-Schwarzschild slice in Cartesian-like chart coordinates.

    In the chart y = r * direction the metric is
    g_ij = delta_ij + (1/V - 1) y_i y_j / r^2 with V = 1 + k^2 r^2 - 2m/r.
    The chart is restricted to r > r_horizon + 0.1 so V > 0.
    """
    if m < 0 or k <= 0:
        raise DomainError("need m >= 0 and k > 0")
    r_min = ads_horizon_radius(m, k) + _HORIZON_MARGIN

    def V(r):
        return 1.0 + (k * r) ** 2 - 2.0 * m / r

    def comps(p):
        p = _chart_points(p)
        r = np.sqrt(np.sum(p * p, axis=-1))
        if np.any(r.real <= r_min):
            raise DomainError("point inside the excluded AdS-Schwarzschild core")
        nhat = p / r[..., None]
        coef = 1.0 / V(r) - 1.0
        return np.eye(3) + (coef[..., None, None] * nhat[..., :, None]
                            * nhat[..., None, :])

    def dist(p):
        p = np.asarray(p, dtype=float)
        return np.sqrt(np.sum(p * p, axis=-1)) - r_min

    return MetricField(
        tag="AdSSchwarzschild",
        components=comps,
        chart_distance=dist,
    )


@dataclass(frozen=True)
class SphereTensor:
    """Pure-trace symmetric 2-tensor on the round sphere: h = (tau/2) g_0.

    The trace profile is tau(x) = 2 * g0_coeff + linear . x for unit vectors
    x, which covers constant multiples of g_0 and first-moment profiles.
    """

    g0_coeff: float = 0.0
    linear: tuple = (0.0, 0.0, 0.0)

    def trace(self, xhat: np.ndarray) -> np.ndarray:
        a = np.asarray(self.linear, dtype=float)
        return 2.0 * self.g0_coeff + np.asarray(xhat) @ a


def wang_ah_metric(h: SphereTensor, k: float = 1.0) -> MetricField:
    """Asymptotically hyperbolic collar metric sinh^{-2}(r)(dr^2 + g_r).

    Chart coordinates are (r, theta, phi) with g_r = g_0 + (r^3/3) h.  Only
    k = 1 is meaningful for this normal form.
    """
    if k != 1.0:
        raise DomainError("the AH collar normal form is stated at k = 1")

    def comps(p):
        p = _chart_points(p)
        r, th = p[..., 0], p[..., 1]
        if np.any(r.real <= 0):
            raise DomainError("collar chart requires r > 0")
        xhat = np.stack([np.sin(th) * np.cos(p[..., 2]),
                         np.sin(th) * np.sin(p[..., 2]),
                         np.cos(th)], axis=-1)
        gr = 1.0 + (r ** 3 / 3.0) * 0.5 * h.trace(xhat)
        s2 = 1.0 / np.sinh(r) ** 2
        diag = np.stack([s2, s2 * gr, s2 * gr * np.sin(th) ** 2], axis=-1)
        return np.eye(3) * diag[..., None, :]

    def dist(p):
        p = np.asarray(p, dtype=float)
        return np.minimum.reduce([p[..., 0], 1.0 - p[..., 0],
                                  p[..., 1], math.pi - p[..., 1]])

    return MetricField(
        tag="WangAH",
        components=comps,
        chart_distance=dist,
    )


# ---------------------------------------------------------------------------
# quadrature grid


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes in cos theta crossed with a uniform phi grid.

    The Gauss-Legendre nodes exclude the poles exactly, so no pole handling
    is needed anywhere downstream.  ``measure_weights`` are the du x dphi
    weights divided by sin theta: summing weights * area_element over nodes
    approximates the surface area (4 pi for the round unit sphere).
    """

    n_theta: int
    n_phi: int
    theta: np.ndarray
    u_weights: np.ndarray
    phi: np.ndarray

    @classmethod
    def build(cls, n_theta: int, n_phi: int) -> "QuadratureGrid":
        if n_theta < 2 or n_phi < 2:
            raise DomainError("grid must have at least 2 x 2 nodes")
        u, wu = np.polynomial.legendre.leggauss(n_theta)
        theta = np.arccos(u)
        phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        return cls(n_theta=n_theta, n_phi=n_phi, theta=theta,
                   u_weights=wu, phi=phi)

    @property
    def n_nodes(self) -> int:
        return self.n_theta * self.n_phi

    def node_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (theta, phi) node coordinates, theta-major order."""
        T, P = np.meshgrid(self.theta, self.phi, indexing="ij")
        return T.ravel(), P.ravel()

    def node_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Node axes theta[:, None], phi[None, :]: they broadcast to the
        grid, which flattens to the order of :meth:`node_arrays`, and trig
        of each axis runs once per grid line instead of once per node."""
        return self.theta[:, None], self.phi[None, :]

    def measure_weights(self) -> np.ndarray:
        w_phi = 2.0 * math.pi / self.n_phi
        w = (self.u_weights / np.sin(self.theta))[:, None] * w_phi
        return np.broadcast_to(w, (self.n_theta, self.n_phi)).ravel()

    def node_index(self, i_theta: int, i_phi: int) -> int:
        return i_theta * self.n_phi + i_phi

    def describe_node(self, node: int) -> str:
        i, j = divmod(node, self.n_phi)
        return (f"node {node} (theta={self.theta[i]:.4f}, "
                f"phi={self.phi[j]:.4f})")


def unit_directions(theta, phi) -> np.ndarray:
    """Unit vectors at broadcastable (theta, phi), shape (..., 3)."""
    st = np.sin(theta)
    return np.stack(np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi),
                                        np.cos(theta)), axis=-1)


def unit_direction_jet(theta, phi) -> tuple:
    """The 2-jet of the unit sphere at broadcastable (theta, phi): u with
    its first and second parameter derivatives, shapes (..., 3),
    (..., 2, 3) and (..., 2, 2, 3), parameter axes in (theta, phi) order."""
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    shape = np.broadcast_shapes(np.shape(st), np.shape(sp))
    u = np.empty(shape + (3,))
    du = np.zeros(shape + (2, 3))
    ddu = np.zeros(shape + (2, 2, 3))
    u[..., 0], u[..., 1], u[..., 2] = st * cp, st * sp, ct
    du[..., 0, 0], du[..., 0, 1], du[..., 0, 2] = ct * cp, ct * sp, -st
    du[..., 1, 0], du[..., 1, 1] = -u[..., 1], u[..., 0]
    ddu[..., 0, 0, :] = -u
    ddu[..., 0, 1, 0], ddu[..., 0, 1, 1] = -du[..., 0, 1], du[..., 0, 0]
    ddu[..., 1, 0, :] = ddu[..., 0, 1, :]
    ddu[..., 1, 1, :2] = -u[..., :2]
    return u, du, ddu


# ---------------------------------------------------------------------------
# surfaces


@dataclass
class SurfaceData:
    """Parametrized closed surface with quadrature grid.

    ``F`` maps parameter arrays (theta, phi) to the closed-form 2-jet of the
    surface in ambient chart coordinates: ``(F, dF, ddF)`` of shapes
    (..., 3), (..., 2, 3) and (..., 2, 2, 3), the parameter axes in
    (theta, phi) order.  ``F0`` (optional) returns the same jet of the
    isometric image in the Poincare ball of H^3_{-k^2}.  Both must accept
    broadcastable (theta, phi) arrays, as numpy ufuncs do: the geometry
    evaluates them on the grid axes ``theta[:, None]``, ``phi[None, :]``.
    Normals point toward the chart origin; ``orientation_sign`` = -1 flips
    them (useful only to probe hypothesis failures).
    """

    F: Callable
    grid: QuadratureGrid
    k: float = 1.0
    F0: Optional[Callable] = None
    orientation_sign: int = 1

    def __post_init__(self):
        if self.orientation_sign not in (1, -1):
            raise DomainError("orientation_sign must be +1 or -1")

    def h3_view(self) -> "SurfaceData":
        """The H^3-side surface: F0 immersed in the hyperbolic ball chart."""
        if self.F0 is None:
            raise MissingEmbedding("surface carries no hyperbolic embedding")
        return SurfaceData(F=self.F0, grid=self.grid, k=self.k, F0=self.F0,
                           orientation_sign=1)


def _radial_graph(profile, tilt=(0.0, 0.0, 0.0)) -> Callable:
    """Jet callable of the radial graph F = R(s) u with s = tilt . u, where
    ``profile(s)`` returns R and its first two derivatives in s."""
    a = np.asarray(tilt, dtype=float)

    def F(theta, phi):
        u, du, ddu = unit_direction_jet(theta, phi)
        if not a.any():   # constant radius: a scaled unit sphere
            R = profile(0.0)[0]
            for J in (u, du, ddu):
                J *= R
            return u, du, ddu
        ds = du @ a
        R, R1, R2 = profile(u @ a)
        dR = R1[..., None] * ds
        ddR = (R2[..., None, None] * ds[..., :, None] * ds[..., None, :]
               + R1[..., None, None] * (ddu @ a))
        dF = R[..., None, None] * du + dR[..., None] * u[..., None, :]
        ddF = R[..., None, None, None] * ddu
        ddF += ddR[..., None] * u[..., None, None, :]
        ddF += dR[..., :, None, None] * du[..., None, :, :]
        ddF += dR[..., None, :, None] * du[..., :, None, :]
        return R[..., None] * u, dF, ddF

    return F


def _ball_profile(base: float, k: float) -> Callable:
    """Ball radius tanh(k rho / 2) of the geodesic radius rho = base + s,
    and its first two derivatives in s."""
    def profile(s):
        rho = base + s
        if np.any(rho <= 0):
            raise DomainError("radial profile must stay positive")
        R = np.tanh(0.5 * k * rho)
        R1 = 0.5 * k / np.cosh(0.5 * k * rho) ** 2
        return R, R1, -k * R * R1

    return profile


def geodesic_sphere_surface(rho: float, k: float,
                            grid: QuadratureGrid) -> SurfaceData:
    """Geodesic sphere of radius rho about the origin of the ball chart:
    the radial profile of constant geodesic radius."""
    if rho <= 0:
        raise DomainError("rho must be positive")
    return radial_profile_surface(rho, (0.0, 0.0, 0.0), k, grid)


def coordinate_sphere_surface(r: float, grid: QuadratureGrid,
                              k: float = 1.0) -> SurfaceData:
    """Coordinate sphere of areal radius r, paired with its H^3 image.

    The induced metric is r^2 g_0, so the isometric image is the geodesic
    sphere with sinh(k rho) = k r.
    """
    if r <= 0:
        raise DomainError("r must be positive")
    F = _radial_graph(lambda s: (r, 0.0, 0.0))
    F0 = _radial_graph(_ball_profile(math.asinh(k * r) / k, k))
    return SurfaceData(F=F, grid=grid, k=k, F0=F0)


def radial_profile_surface(base: float, linear, k: float,
                           grid: QuadratureGrid) -> SurfaceData:
    """Star-shaped surface in H^3: geodesic radius base + linear . direction."""
    tilt = np.asarray(linear, dtype=float).reshape(3)
    F = _radial_graph(_ball_profile(base, k), tilt)
    return SurfaceData(F=F, grid=grid, k=k, F0=F)


# ---------------------------------------------------------------------------
# metric derivatives


def _complex_step(metric: MetricField, pts: np.ndarray,
                  v: np.ndarray) -> np.ndarray:
    """h d_v g_ij at ``pts`` along ``v`` (both (..., 3)), h = _COMPLEX_STEP:
    the imaginary part of one complex step of ``metric.components``, shape
    (..., 3, 3).  Callers apply 1/h once, to what they contract it into."""
    return metric.components(pts + (1j * _COMPLEX_STEP) * v).imag


def christoffel_many(metric: MetricField, pts: np.ndarray) -> np.ndarray:
    """Gamma^i_jk at each point, shape (..., 3, 3, 3)."""
    pts = np.asarray(pts, dtype=float)
    ginv = np.linalg.inv(metric.components(pts))
    # D[..., l, i, j] = d_l g_ij, one complex step per chart axis
    D = np.stack([_complex_step(metric, pts, e) for e in np.eye(3)],
                 axis=-3) / _COMPLEX_STEP
    # S_ljk = d_j g_lk + d_k g_jl - d_l g_jk
    S = (np.einsum("...jlk->...ljk", D)
         + np.einsum("...kjl->...ljk", D)
         - D)
    return 0.5 * np.einsum("...il,...ljk->...ijk", ginv, S)


def scalar_curvature_many(metric: MetricField, pts: np.ndarray,
                          fd_step: float = 1e-4) -> np.ndarray:
    """Scalar curvature by contraction of the numerically assembled Ricci.

    The derivative of the Christoffel symbols is a second-order central
    difference of step ``fd_step``, so the observed convergence order in
    fd_step is 2; the symbols themselves are exact to roundoff.
    """
    pts = np.asarray(pts, dtype=float)
    if np.any(metric.chart_distance(pts) <= 4.0 * fd_step):
        raise ChartBoundary(
            "chart margin below 4 * fd_step for curvature stencil")
    G0 = christoffel_many(metric, pts)
    dG = np.zeros(pts.shape[:-1] + (3, 3, 3, 3))
    for m_ax in range(3):
        e = np.zeros(3)
        e[m_ax] = 1.0
        Gp = christoffel_many(metric, pts + fd_step * e)
        Gm = christoffel_many(metric, pts - fd_step * e)
        dG[..., m_ax, :, :, :] = (Gp - Gm) / (2.0 * fd_step)
    ricci = (np.einsum("...iijk->...jk", dG)
             - np.einsum("...jiik->...jk", dG)
             + np.einsum("...iip,...pjk->...jk", G0, G0)
             - np.einsum("...ijp,...pik->...jk", G0, G0))
    ginv = np.linalg.inv(metric.components(pts))
    return np.einsum("...jk,...jk->...", ginv, ricci)


# ---------------------------------------------------------------------------
# fundamental forms


@dataclass
class SurfaceForms:
    """Per-node extrinsic data for a whole quadrature grid."""

    first: np.ndarray          # (N, 2, 2)
    second: np.ndarray         # (N, 2, 2)
    mean_curvature: np.ndarray  # (N,)
    area_element: np.ndarray   # (N,) sqrt(det g_ab)
    chart_points: np.ndarray   # (N, 3)


def _det2(a: np.ndarray) -> np.ndarray:
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def _check_nondegenerate(gab):
    det = _det2(gab)
    scale = max(float(np.max(np.abs(gab))) ** 2, 1e-300)
    if np.any(det < 1e-14 * scale):
        raise DegenerateImmersion("induced metric numerically degenerate")
    return det


def surface_forms(surface: SurfaceData, metric: MetricField) -> SurfaceForms:
    """Fundamental forms at every quadrature node (vectorized).

    The second form is the Gauss formula h_ab = g(N, d_a d_b F) +
    (1/2)[N.(d_{F_a} g).F_b + N.(d_{F_b} g).F_a - F_a.(d_N g).F_b], read off
    the surface jet and three complex-step metric derivatives, each
    contracted as soon as it is made.  Normals are inward, so convex
    surfaces about the chart center have positive mean curvature (geodesic
    spheres in H^3 get H = k coth(k rho)).
    """
    p, dF, ddF = surface.F(*surface.grid.node_axes())
    g = metric.components(p)
    # tangents as columns, stored contiguous: matmul is slower on a view
    dFT = np.ascontiguousarray(np.swapaxes(dF, -1, -2))
    gF = dF @ g                       # lowered tangents g F_a (g symmetric)
    gab = gF @ dFT
    det = _check_nondegenerate(gab)
    # g-unit normal by the cofactor identity
    # (g F_theta) x (g F_phi) = det(g) g^{-1} (F_theta x F_phi)
    N = np.cross(gF[..., 0, :], gF[..., 1, :])
    gN = np.einsum("...ij,...j->...i", g, N)
    sign = np.where(np.einsum("...i,...i->...", N, p) <= 0.0, 1.0, -1.0)
    scale = (sign * surface.orientation_sign
             / np.sqrt(np.einsum("...i,...i->...", N, gN)))[..., None]
    N *= scale
    second = np.einsum("...abi,...i->...ab", ddF, gN * scale)
    del g, gF, gN, ddF    # room for the complex steps
    # h [N.(d_{F_a} g).F_b + (a <-> b) - F_a.(d_N g).F_b], one complex step
    # alive at a time; NdgF[a, b] = ((h d_{F_a} g) N) . F_b
    NdgF = np.stack([np.einsum("...ij,...j->...i",
                               _complex_step(metric, p, dF[..., a, :]), N)
                     for a in (0, 1)], axis=-2) @ dFT
    bracket = (NdgF + np.swapaxes(NdgF, -1, -2)
               - dF @ _complex_step(metric, p, N) @ dFT)
    second += (0.5 / _COMPLEX_STEP) * bracket
    H = 0.5 * (gab[..., 1, 1] * second[..., 0, 0]
               + gab[..., 0, 0] * second[..., 1, 1]
               - gab[..., 0, 1] * second[..., 0, 1]
               - gab[..., 1, 0] * second[..., 1, 0]) / det
    # the (n_theta, n_phi, ...) grid flattens to theta-major (N, ...) nodes
    first, second, H, ae, p = (a.reshape((-1,) + a.shape[2:]) for a
                               in (gab, second, H, np.sqrt(det), p))
    return SurfaceForms(first=first, second=second, mean_curvature=H,
                        area_element=ae, chart_points=p)


def gauss_curvature(forms: SurfaceForms, c: float) -> np.ndarray:
    """Gauss curvature at every node of ``forms``, by the Gauss equation
    K = c + det II / det I of a surface in a space of constant sectional
    curvature ``c``."""
    return c + _det2(forms.second) / _det2(forms.first)
