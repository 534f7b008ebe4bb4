"""Ambient 3-metrics, parametrized closed surfaces and numerical curvature.

Charts are open subsets of R^3 with a metric component function g_ij(p).
Surfaces are parametrizations F(theta, phi) of a topological sphere into a
chart, carrying a Gauss-Legendre (in cos theta) x trapezoid (in phi)
quadrature grid.  All curvature quantities are obtained by finite
differences: fourth-order stencils in parameter space and for the metric
first derivatives, second-order outer stencils for the curvature tensor so
the convergence order in the step size is a testable 2.  The fundamental
forms of one node pass (:func:`surface_forms`) carry every surface quantity
downstream, the Gauss curvature included (:func:`gauss_curvature`).
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
    "christoffel_many",
    "scalar_curvature_many",
    "surface_forms",
    "gauss_curvature",
]

# 4th-order central first derivative: offsets in units of h and weights / h.
_D1_OFF = np.array([-2.0, -1.0, 1.0, 2.0])
_D1_W = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
# the AdS-Schwarzschild chart stops this far outside the horizon
_HORIZON_MARGIN = 0.1


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricField:
    """Chart-based Riemannian 3-metric.

    ``components`` maps points of shape (..., 3) to symmetric positive
    definite matrices of shape (..., 3, 3).  ``chart_distance`` returns the
    distance from a point to the chart boundary (np.inf for a global chart);
    finite-difference stencils refuse to straddle the boundary.
    """

    tag: str
    components: Callable[[np.ndarray], np.ndarray]
    chart_distance: Callable[[np.ndarray], np.ndarray]


def euclidean_metric() -> MetricField:
    def comps(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape[:-1] + (3, 3))
        out[...] = np.eye(3)
        return out

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
        p = np.asarray(p, dtype=float)
        r2 = np.sum(p * p, axis=-1)
        if np.any(r2 >= 1.0):
            raise DomainError("hyperbolic ball chart requires |x| < 1")
        f = 2.0 / (1.0 - r2)
        out = np.zeros(p.shape[:-1] + (3, 3))
        out[...] = np.eye(3)
        return out * (f / k)[..., None, None] ** 2

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
        p = np.asarray(p, dtype=float)
        r2 = np.sum(p * p, axis=-1)
        r = np.sqrt(r2)
        if np.any(r <= r_min):
            raise DomainError("point inside the excluded AdS-Schwarzschild core")
        nhat = p / r[..., None]
        out = np.zeros(p.shape[:-1] + (3, 3))
        out[...] = np.eye(3)
        coef = 1.0 / V(r) - 1.0
        out += coef[..., None, None] * nhat[..., :, None] * nhat[..., None, :]
        return out

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
        xhat = np.asarray(xhat, dtype=float)
        a = np.asarray(self.linear, dtype=float)
        return 2.0 * self.g0_coeff + xhat @ a


def wang_ah_metric(h: SphereTensor, k: float = 1.0) -> MetricField:
    """Asymptotically hyperbolic collar metric sinh^{-2}(r)(dr^2 + g_r).

    Chart coordinates are (r, theta, phi) with g_r = g_0 + (r^3/3) h.  Only
    k = 1 is meaningful for this normal form.
    """
    if k != 1.0:
        raise DomainError("the AH collar normal form is stated at k = 1")

    def comps(p):
        p = np.asarray(p, dtype=float)
        r = p[..., 0]
        th = p[..., 1]
        if np.any(r <= 0):
            raise DomainError("collar chart requires r > 0")
        xhat = np.stack([np.sin(th) * np.cos(p[..., 2]),
                         np.sin(th) * np.sin(p[..., 2]),
                         np.cos(th)], axis=-1)
        tau = h.trace(xhat)
        gr = 1.0 + (r ** 3 / 3.0) * 0.5 * tau
        s2 = np.sinh(r) ** -2
        out = np.zeros(p.shape[:-1] + (3, 3))
        out[..., 0, 0] = s2
        out[..., 1, 1] = s2 * gr
        out[..., 2, 2] = s2 * gr * np.sin(th) ** 2
        return out

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


def unit_directions(theta, phi) -> np.ndarray:
    """Unit vectors at broadcastable (theta, phi), shape (..., 3)."""
    st = np.sin(theta)
    return np.stack(np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi),
                                        np.cos(theta)), axis=-1)


# ---------------------------------------------------------------------------
# surfaces


@dataclass
class SurfaceData:
    """Parametrized closed surface with quadrature grid.

    ``F`` maps parameter arrays (theta, phi) to ambient chart coordinates of
    shape (..., 3); ``F0`` (optional) maps them to Poincare-ball coordinates
    of the isometric image in H^3_{-k^2}.  Both must accept broadcastable
    (theta, phi) arrays, as numpy ufuncs do: the geometry evaluates them on
    the grid axes ``theta[:, None]``, ``phi[None, :]``.  Normals point
    toward the chart origin; ``orientation_sign`` = -1 flips them (useful
    only to probe hypothesis failures).
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


def _ball_radius(k: float, rho) -> np.ndarray:
    return np.tanh(0.5 * k * np.asarray(rho, dtype=float))


def geodesic_sphere_surface(rho: float, k: float,
                            grid: QuadratureGrid) -> SurfaceData:
    """Geodesic sphere of radius rho about the origin of the ball chart."""
    if rho <= 0:
        raise DomainError("rho must be positive")
    Rb = float(_ball_radius(k, rho))

    def F(theta, phi):
        return Rb * unit_directions(theta, phi)

    return SurfaceData(F=F, grid=grid, k=k, F0=F)


def coordinate_sphere_surface(r: float, grid: QuadratureGrid,
                              k: float = 1.0) -> SurfaceData:
    """Coordinate sphere of areal radius r, paired with its H^3 image.

    The induced metric is r^2 g_0, so the isometric image is the geodesic
    sphere with sinh(k rho) = k r.
    """
    if r <= 0:
        raise DomainError("r must be positive")
    rho = math.asinh(k * r) / k
    Rb0 = float(_ball_radius(k, rho))

    def F(theta, phi):
        return r * unit_directions(theta, phi)

    def F0(theta, phi):
        return Rb0 * unit_directions(theta, phi)

    return SurfaceData(F=F, grid=grid, k=k, F0=F0)


def radial_profile_surface(base: float, linear, k: float,
                           grid: QuadratureGrid) -> SurfaceData:
    """Star-shaped surface in H^3: geodesic radius base + linear . direction."""
    a = np.asarray(linear, dtype=float).reshape(3)

    def F(theta, phi):
        n = unit_directions(theta, phi)
        rho = base + n @ a
        if np.any(rho <= 0):
            raise DomainError("radial profile must stay positive")
        return _ball_radius(k, rho)[..., None] * n

    return SurfaceData(F=F, grid=grid, k=k, F0=F)


# ---------------------------------------------------------------------------
# finite differences


def _param_d1(fn, theta, phi, axis, h):
    acc = None
    for off, w in zip(_D1_OFF, _D1_W):
        term = w * (fn(theta + off * h, phi) if axis == 0
                    else fn(theta, phi + off * h))
        acc = term if acc is None else acc + term
    return acc / h


def _metric_first_derivs(metric, pts, h):
    """d_l g_ij by 4th-order central differences; shape (..., 3, 3, 3)."""
    pts = np.asarray(pts, dtype=float)
    D = np.zeros(pts.shape[:-1] + (3, 3, 3))
    for l in range(3):
        e = np.zeros(3)
        e[l] = 1.0
        acc = None
        for off, w in zip(_D1_OFF, _D1_W):
            term = w * metric.components(pts + off * h * e)
            acc = term if acc is None else acc + term
        D[..., l, :, :] = acc / h
    return D


def christoffel_many(metric: MetricField, pts: np.ndarray,
                     fd_step: float = 1e-4) -> np.ndarray:
    """Gamma^i_jk at each point, shape (..., 3, 3, 3)."""
    pts = np.asarray(pts, dtype=float)
    if np.any(metric.chart_distance(pts) <= 2.0 * fd_step):
        raise ChartBoundary(
            "chart margin below 2 * fd_step for Christoffel stencil")
    g = metric.components(pts)
    ginv = np.linalg.inv(g)
    D = _metric_first_derivs(metric, pts, fd_step)
    # S_ljk = d_j g_lk + d_k g_jl - d_l g_jk
    S = (np.einsum("...jlk->...ljk", D)
         + np.einsum("...kjl->...ljk", D)
         - D)
    return 0.5 * np.einsum("...il,...ljk->...ijk", ginv, S)


def scalar_curvature_many(metric: MetricField, pts: np.ndarray,
                          fd_step: float = 1e-4,
                          gamma_step: float = 1e-4) -> np.ndarray:
    """Scalar curvature by contraction of the numerically assembled Ricci.

    The outer derivative of the Christoffel symbols uses a second-order
    central difference of step ``fd_step`` (the observed convergence order in
    fd_step is 2); the symbols themselves use a fourth-order stencil of step
    ``gamma_step`` so their error is negligible in the balance.
    """
    pts = np.asarray(pts, dtype=float)
    if np.any(metric.chart_distance(pts) <= 4.0 * fd_step):
        raise ChartBoundary(
            "chart margin below 4 * fd_step for curvature stencil")
    G0 = christoffel_many(metric, pts, gamma_step)
    dG = np.zeros(pts.shape[:-1] + (3, 3, 3, 3))
    for m_ax in range(3):
        e = np.zeros(3)
        e[m_ax] = 1.0
        Gp = christoffel_many(metric, pts + fd_step * e, gamma_step)
        Gm = christoffel_many(metric, pts - fd_step * e, gamma_step)
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
    normal: np.ndarray         # (N, 3) ambient components
    mean_curvature: np.ndarray  # (N,)
    area_element: np.ndarray   # (N,) sqrt(det g_ab)
    chart_points: np.ndarray   # (N, 3)


def _induced_frame(surface, metric, theta, phi, h):
    p = surface.F(theta, phi)
    Ft = _param_d1(surface.F, theta, phi, 0, h)
    Fp = _param_d1(surface.F, theta, phi, 1, h)
    g = metric.components(p)
    return p, Ft, Fp, g


def _first_form(Ft, Fp, g):
    gab = np.empty(Ft.shape[:-1] + (2, 2))
    gab[..., 0, 0] = np.einsum("...i,...ij,...j->...", Ft, g, Ft)
    gab[..., 0, 1] = np.einsum("...i,...ij,...j->...", Ft, g, Fp)
    gab[..., 1, 0] = gab[..., 0, 1]
    gab[..., 1, 1] = np.einsum("...i,...ij,...j->...", Fp, g, Fp)
    return gab


def _check_nondegenerate(gab):
    det = np.linalg.det(gab)
    scale = max(float(np.max(np.abs(gab))) ** 2, 1e-300)
    if np.any(det < 1e-14 * scale):
        raise DegenerateImmersion("induced metric numerically degenerate")
    return det


def _inward_normal(surface, metric, theta, phi, h):
    p, Ft, Fp, g = _induced_frame(surface, metric, theta, phi, h)
    w = np.cross(Ft, Fp)
    n = np.linalg.solve(g, w[..., None])[..., 0]
    norm = np.sqrt(np.einsum("...i,...ij,...j->...", n, g, n))
    n = n / norm[..., None]
    toward_origin = np.einsum("...i,...i->...", n, -p)
    sign = np.where(toward_origin >= 0.0, 1.0, -1.0) * surface.orientation_sign
    return n * sign[..., None]


def surface_forms(surface: SurfaceData, metric: MetricField,
                  param_step: float = 1e-3,
                  fd_step: float = 1e-4) -> SurfaceForms:
    """Fundamental forms at every quadrature node (vectorized).

    The Weingarten data uses the inward-normal convention, so convex
    surfaces about the chart center have positive mean curvature (geodesic
    spheres in H^3 get H = k coth(k rho)).
    """
    theta, phi = surface.grid.node_axes()
    p, Ft, Fp, g = _induced_frame(surface, metric, theta, phi, param_step)
    gab = _first_form(Ft, Fp, g)
    det = _check_nondegenerate(gab)

    def nrm(th, ph):
        return _inward_normal(surface, metric, th, ph, param_step)

    N = nrm(theta, phi)
    dNt = _param_d1(nrm, theta, phi, 0, param_step)
    dNp = _param_d1(nrm, theta, phi, 1, param_step)
    gamma = christoffel_many(metric, p, fd_step)
    covNt = dNt + np.einsum("...ijk,...j,...k->...i", gamma, Ft, N)
    covNp = dNp + np.einsum("...ijk,...j,...k->...i", gamma, Fp, N)
    A = np.empty_like(gab)
    A[..., 0, 0] = -np.einsum("...i,...ij,...j->...", covNt, g, Ft)
    A[..., 0, 1] = -np.einsum("...i,...ij,...j->...", covNt, g, Fp)
    A[..., 1, 0] = -np.einsum("...i,...ij,...j->...", covNp, g, Ft)
    A[..., 1, 1] = -np.einsum("...i,...ij,...j->...", covNp, g, Fp)
    ginv_ab = np.linalg.inv(gab)
    H = 0.5 * np.einsum("...ab,...ab->...", ginv_ab, 0.5 * (A + np.swapaxes(A, -1, -2)))
    # the (n_theta, n_phi, ...) grid flattens to theta-major (N, ...) nodes
    first, second, normal, H, ae, p = (a.reshape((-1,) + a.shape[2:]) for a
                                       in (gab, A, N, H, np.sqrt(det), p))
    return SurfaceForms(first=first, second=second, normal=normal,
                        mean_curvature=H, area_element=ae, chart_points=p)


def gauss_curvature(forms: SurfaceForms, c: float) -> np.ndarray:
    """Gauss curvature at every node of ``forms``, by the Gauss equation
    K = c + det II / det I of a surface in a space of constant sectional
    curvature ``c``."""
    second = 0.5 * (forms.second + np.swapaxes(forms.second, -1, -2))
    return c + np.linalg.det(second) / np.linalg.det(forms.first)
