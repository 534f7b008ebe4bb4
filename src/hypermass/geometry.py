"""Ambient 3-metrics, radial-graph surfaces and their curvature.

Every metric the node pass runs in is a warped product
g = dr^2/V(r) + r^2 g_S2 in the polar chart (r, theta, phi): AdS-Schwarzschild
(V = 1 + k^2 r^2 - 2m/r), H^3_{-k^2} in areal radius (V = 1 + k^2 r^2) and
Euclidean space (V = 1).  Every surface is a radial graph r = R(theta, phi)
that returns the closed-form 2-jet of R, on a Gauss-Legendre (in cos theta,
:func:`gauss_legendre`) x trapezoid (in phi) quadrature grid.  The node pass
(:func:`surface_forms`) writes the first and second fundamental forms of
such a graph out in V, V' and the jet: no metric components, no Christoffel
symbols and no linear algebra.  Its forms carry every surface quantity
downstream, the Gauss curvature included (:func:`gauss_curvature`), and the
scalar curvature is closed form too (:func:`scalar_curvature`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (ConfigError, ConvergenceFailure, DomainError,
                     MissingEmbedding)

__all__ = [
    "MetricField",
    "QuadratureGrid",
    "SurfaceData",
    "SphereTensor",
    "SurfaceForms",
    "gauss_legendre",
    "euclidean_metric",
    "hyperbolic_ball_metric",
    "ads_schwarzschild_metric",
    "wang_ah_metric",
    "ads_horizon_radius",
    "geodesic_sphere_surface",
    "coordinate_sphere_surface",
    "radial_profile_surface",
    "scalar_curvature",
    "surface_forms",
    "gauss_curvature",
]

# the AdS-Schwarzschild chart stops this far outside the horizon
_HORIZON_MARGIN = 0.1


# ---------------------------------------------------------------------------
# metrics


def _check_k(k: float) -> None:
    """Curvature scale k > 0 with k^2 a normal float, so 1/k^2 is finite."""
    if not (k > 0 and k * k >= sys.float_info.min):
        raise ConfigError(f"curvature scale k = {k!r} must be positive, "
                          f"with k^2 a normal float")


@dataclass
class MetricField:
    """Riemannian 3-metric in the polar chart (r, theta, phi).

    The node pass needs ``V`` and its derivative ``dV`` (callables of r) of a
    warped product g = dr^2/V(r) + r^2 g_S2 on the chart r > ``r_min``.
    ``components`` maps chart points (..., 3), complex ones included, to the
    components (..., 3, 3), diag(1/V, r^2, r^2 sin^2 theta) for a warped
    product.  No mass path reads them: they write the metric out for checks
    that start from components alone.  The AH collar metric is no warped
    product and carries components only.
    """

    tag: str
    components: Callable[[np.ndarray], np.ndarray]
    V: Optional[Callable] = None
    dV: Optional[Callable] = None
    r_min: float = 0.0


def _warped_product(tag: str, V: Callable, dV: Callable,
                    r_min: float = 0.0) -> MetricField:
    def components(p):
        p = np.asarray(p)
        r, theta = p[..., 0], p[..., 1]
        if np.any(np.real(r) <= r_min):
            raise DomainError(f"{tag} chart requires r > {r_min:.6g}")
        diag = np.stack([1.0 / V(r), r * r, (r * np.sin(theta)) ** 2],
                        axis=-1)
        return diag[..., None, :] * np.eye(3)

    return MetricField(tag=tag, components=components, V=V, dV=dV,
                       r_min=r_min)


def euclidean_metric() -> MetricField:
    return _warped_product("Euclidean", np.ones_like, np.zeros_like)


def hyperbolic_ball_metric(k: float = 1.0) -> MetricField:
    """H^3_{-k^2} in areal radius: V = 1 + k^2 r^2 (the CLI's
    ``hyperbolic_ball``; a point at areal radius r lies at ball radius
    k r / (1 + sqrt(1 + k^2 r^2)) of the Poincare ball)."""
    _check_k(k)
    k2 = k * k
    return _warped_product("Hyperbolic", lambda r: 1.0 + k2 * r * r,
                           lambda r: 2.0 * k2 * r)


def ads_horizon_radius(m: float, k: float) -> float:
    """The root of k^2 r^3 + r - 2m = 0 (V(r) = 0), the only real one since
    the cubic is strictly increasing: with r = 2 sinh(t)/(k sqrt 3) it reads
    sinh(3t) = 3 sqrt(3) m k."""
    s3 = math.sqrt(3.0)
    return 2.0 / (k * s3) * math.sinh(math.asinh(3.0 * s3 * m * k) / 3.0)


def ads_schwarzschild_metric(m: float, k: float = 1.0) -> MetricField:
    """Static AdS-Schwarzschild slice: V = 1 + k^2 r^2 - 2m/r, on the chart
    r > r_horizon + 0.1, so that V > 0."""
    if not m >= 0:              # NaN included
        raise ConfigError(f"need m >= 0, got {m!r}")
    _check_k(k)
    k2 = k * k
    return _warped_product(
        "AdSSchwarzschild", lambda r: 1.0 + k2 * r * r - 2.0 * m / r,
        lambda r: 2.0 * k2 * r + 2.0 * m / (r * r),
        ads_horizon_radius(m, k) + _HORIZON_MARGIN)


def scalar_curvature(metric: MetricField, r) -> np.ndarray:
    """Scalar curvature 2(1 - V - r V')/r^2 of dr^2/V + r^2 g_S2 at radii
    ``r``: -6 k^2 for H^3 and AdS-Schwarzschild of any mass, 0 for
    Euclidean space."""
    return 2.0 * (1.0 - metric.V(r) - r * metric.dV(r)) / (r * r)


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


def wang_ah_metric(h: SphereTensor) -> MetricField:
    """Asymptotically hyperbolic collar metric sinh^{-2}(r)(dr^2 + g_r), a
    normal form stated at k = 1.

    Chart coordinates are (r, theta, phi) with g_r = g_0 + (r^3/3) h.
    Library only: no surface of the node pass runs in it.
    """
    def comps(p):
        p = np.asarray(p)
        r, th = p[..., 0], p[..., 1]
        if np.any(np.real(r) <= 0):
            raise DomainError("collar chart requires r > 0")
        xhat = np.stack([np.sin(th) * np.cos(p[..., 2]),
                         np.sin(th) * np.sin(p[..., 2]),
                         np.cos(th)], axis=-1)
        gr = 1.0 + (r ** 3 / 3.0) * 0.5 * h.trace(xhat)
        s2 = 1.0 / np.sinh(r) ** 2
        diag = np.stack([s2, s2 * gr, s2 * gr * np.sin(th) ** 2], axis=-1)
        return np.eye(3) * diag[..., None, :]

    return MetricField(tag="WangAH", components=comps)


# ---------------------------------------------------------------------------
# quadrature grid

# Newton steps allowed per Gauss-Legendre rule (from Tricomi's guess the
# rules of 2 to 2048 nodes take 3 or 4), and the step size that ends them:
# the node is then off by at most about n^2/6 times its square, roundoff
_GL_MAX_STEPS = 20
_GL_STEP_TOL = 1e-12


def _legendre(n: int, x: np.ndarray):
    """(P_{j-1}(x), P_j(x)) for j = 1, ..., n in turn, by the three-term
    recurrence written P_{j+1} = x P_j + (j/(j+1)) (x P_j - P_{j-1})."""
    p0, p1 = np.ones_like(x), x
    yield p0, p1
    for j in range(1, n):
        t = x * p1
        p0, p1 = p1, t + (j / (j + 1)) * (t - p0)
        yield p0, p1


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], both parts symmetric
    about 0: ascending nodes, the roots of P_n by Newton's method from
    Tricomi's guess (1 - 1/(8n^2) + 1/(8n^3)) cos(pi (4k - 1)/(4n + 2)), and
    weights scaled to sum to 2.  Each weight is the Christoffel function
    1/sum_{j<n} (j + 1/2) P_j^2 at its node, which varies slowly; the
    textbook 1/(P_{n-1} P_n') varies on the node spacing, so it turns the
    node's rounding into weight errors 100 times larger (1.7e-11 against
    2.6e-13 at n = 128, against 40-digit roots)."""
    k = np.arange(1, n + 1)
    x = -((1.0 - (n - 1) / (8.0 * n ** 3))
          * np.cos(math.pi * (4 * k - 1) / (4 * n + 2)))
    for _ in range(_GL_MAX_STEPS):
        for p0, p1 in _legendre(n, x):   # ends at P_{n-1}, P_n
            pass
        dx = p1 * (x * x - 1.0) / (n * (x * p1 - p0))   # P_n / P_n'
        x -= dx
        if np.max(np.abs(dx)) <= _GL_STEP_TOL:
            break
    else:
        raise ConvergenceFailure(f"Gauss-Legendre nodes of order {n} did not "
                                 f"converge in {_GL_MAX_STEPS} Newton steps")
    w = 1.0 / sum((j + 0.5) * p * p
                  for j, (p, _) in enumerate(_legendre(n, x)))
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return x, w * (2.0 / w.sum())


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
        # numpy refuses a node array of more bytes than intp holds, or builds
        # it empty, as np.arange(2**63) is
        if 8 * n_theta * n_phi > np.iinfo(np.intp).max:
            raise DomainError(f"a {n_theta} x {n_phi} grid is too big: its "
                              f"node arrays exceed numpy's size limit")
        u, wu = gauss_legendre(n_theta)
        theta = np.arccos(u)
        phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        return cls(n_theta=n_theta, n_phi=n_phi, theta=theta,
                   u_weights=wu, phi=phi)

    def node_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Node axes theta[:, None], phi[None, :]: they broadcast to the
        grid, which flattens to the theta-major node order, and trig of
        each axis runs once per grid line instead of once per node."""
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


# ---------------------------------------------------------------------------
# surfaces


@dataclass
class SurfaceData:
    """Radial graph r = R(theta, phi) with quadrature grid.

    ``F`` maps parameter arrays (theta, phi) to the closed-form 2-jet of R:
    ``(R, (R_theta, R_phi), (R_thetatheta, R_thetaphi, R_phiphi))``, each
    entry broadcastable to the grid.  ``F0`` (optional) is the same jet of
    the isometric image, a radial graph in H^3_{-k^2} in areal radius.  Both
    must accept broadcastable (theta, phi) arrays, as numpy ufuncs do: the
    geometry evaluates them on the grid axes ``theta[:, None]``,
    ``phi[None, :]``, and a graph of constant radius may return scalars, so
    that its node pass runs on the theta axis alone.  Normals point inward,
    N^r < 0.
    """

    F: Callable
    grid: QuadratureGrid
    k: float = 1.0
    F0: Optional[Callable] = None

    def h3_view(self) -> "SurfaceData":
        """The H^3-side surface: F0 as a radial graph in H^3."""
        if self.F0 is None:
            raise MissingEmbedding("surface carries no hyperbolic embedding")
        return SurfaceData(F=self.F0, grid=self.grid, k=self.k, F0=self.F0)


def _constant_graph(R: float) -> Callable:
    """Jet callable of the graph of constant radius R."""
    def F(theta, phi):
        return R, (0.0, 0.0), (0.0, 0.0, 0.0)

    return F


def _tilted_graph(base: float, tilt: np.ndarray, k: float) -> Callable:
    """Jet callable of R = sinh(k (base + s))/k with s = tilt . u: the areal
    radius of the geodesic radius base + s.  With P = a1 cos phi +
    a2 sin phi and Q = a2 cos phi - a1 sin phi, s = sin theta P +
    cos theta a3, and s_thetatheta = -s, s_thetaphi = cos theta Q,
    s_phiphi = -sin theta P."""
    a1, a2, a3 = (float(c) for c in tilt)

    def F(theta, phi):
        st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
        P, Q = a1 * cp + a2 * sp, a2 * cp - a1 * sp
        s = st * P + ct * a3
        s_t, s_p = ct * P - st * a3, st * Q
        rho = base + s
        R = np.sinh(k * rho) / k
        R1 = np.cosh(k * rho)          # dR/ds
        R2 = (k * k) * R               # d^2R/ds^2
        return R, (R1 * s_t, R1 * s_p), (R2 * s_t * s_t - R1 * s,
                                         R2 * s_t * s_p + R1 * (ct * Q),
                                         R2 * s_p * s_p - R1 * (st * P))

    return F


def geodesic_sphere_surface(rho: float, k: float,
                            grid: QuadratureGrid) -> SurfaceData:
    """Geodesic sphere of radius rho about the origin of H^3: the areal
    radius sinh(k rho)/k."""
    return radial_profile_surface(rho, (0.0, 0.0, 0.0), k, grid)


def coordinate_sphere_surface(r: float, grid: QuadratureGrid,
                              k: float = 1.0) -> SurfaceData:
    """Coordinate sphere of areal radius r, paired with its H^3 image.

    The induced metric is r^2 g_0, so the isometric image is the sphere of
    the same areal radius in H^3: F0 is the same jet.
    """
    if not r > 0:               # NaN included
        raise ConfigError(f"r must be positive, got {r!r}")
    _check_k(k)
    F = _constant_graph(float(r))
    return SurfaceData(F=F, grid=grid, k=k, F0=F)


def radial_profile_surface(base: float, linear, k: float,
                           grid: QuadratureGrid) -> SurfaceData:
    """Star-shaped surface in H^3: geodesic radius base + linear . direction,
    as the graph of its areal radius."""
    _check_k(k)
    tilt = np.asarray(linear, dtype=float).reshape(3)
    amplitude = math.hypot(*tilt)
    if not base > amplitude:
        raise ConfigError(f"the least geodesic radius of the surface must be "
                          f"positive, got {base - amplitude:.6g}")
    top = base + amplitude              # the greatest geodesic radius
    try:
        R = math.sinh(k * top) / k
    except OverflowError:
        raise DomainError(f"the areal radius at geodesic radius {top:.6g} "
                          f"overflows a float") from None
    F = _tilted_graph(base, tilt, k) if tilt.any() else _constant_graph(R)
    return SurfaceData(F=F, grid=grid, k=k, F0=F)


# ---------------------------------------------------------------------------
# fundamental forms


@dataclass
class SurfaceForms:
    """Per-node extrinsic data for a whole quadrature grid: the components
    of I and II, each a float or an array that broadcasts to the grid."""

    first: tuple               # (E, F, G)
    second: tuple              # (h_tt, h_tp, h_pp)
    mean_curvature: np.ndarray  # (N,)
    area_element: np.ndarray   # (N,) sqrt(det g_ab)
    radius: np.ndarray         # (N,) chart radius R of each node


def _nodes(x, shape) -> np.ndarray:
    """``x``, broadcast to the grid, flattened to theta-major nodes (N,)."""
    return np.broadcast_to(x, shape).ravel()


def surface_forms(surface: SurfaceData, metric: MetricField) -> SurfaceForms:
    """Fundamental forms at every quadrature node, in closed form.

    For the radial graph r = R(theta, phi) in g = dr^2/V + r^2 g_S2, with
    W = sqrt(V + (R_theta^2 + R_phi^2 / sin^2 theta) / R^2):

        I  = [[R_t^2/V + R^2, R_t R_p/V], [R_t R_p/V, R_p^2/V + R^2 sin^2]]
        II_ab = -(1/W) [R_ab - (V'/2V + 2/R) R_a R_b + c_ab]

    with c_tt = -R V, c_tp = -R_p cot theta, c_pp = -R V sin^2 theta +
    R_t sin theta cos theta: the normal is inward, N^r < 0, so convex graphs
    get positive mean curvature (geodesic spheres in H^3 get
    H = k coth(k rho)).
    """
    if metric.V is None:
        raise DomainError(f"the node pass needs a metric dr^2/V + r^2 g_S2, "
                          f"not {metric.tag}")
    grid = surface.grid
    theta, phi = grid.node_axes()
    R, (Rt, Rp), (Rtt, Rtp, Rpp) = surface.F(theta, phi)
    if np.any(R <= metric.r_min):
        raise DomainError(f"surface reaches r = {np.min(R):.6g}, outside the "
                          f"{metric.tag} chart r > {metric.r_min:.6g}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        st, ct = np.sin(theta), np.cos(theta)
        st2 = st * st
        V = metric.V(R)
        R2 = R * R
        E = Rt * Rt / V + R2
        F = Rt * Rp / V
        G = Rp * Rp / V + R2 * st2
        c = 0.5 * metric.dV(R) / V + 2.0 / R
        RV = R * V
        scale = -1.0 / np.sqrt(V + (Rt * Rt + Rp * Rp / st2) / R2)
        h_tt = scale * (Rtt - c * Rt * Rt - RV)
        h_tp = scale * (Rtp - c * Rt * Rp - Rp * ct / st)
        h_pp = scale * (Rpp - c * Rp * Rp - RV * st2 + Rt * st * ct)
        det = E * G - F * F
        H = (G * h_tt - 2.0 * F * h_tp + E * h_pp) / (2.0 * det)
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(det))):
        # det I = E G - F^2 of order R^4 is 0 only when it underflows
        where = (f"underflow a float on the surface down to r = "
                 f"{np.min(R):.6g}" if np.any(det == 0.0) else
                 f"overflow a float on the surface up to r = {np.max(R):.6g}")
        raise DomainError(f"the forms {where} in the {metric.tag} chart")
    shape = (grid.n_theta, grid.n_phi)
    return SurfaceForms(first=(E, F, G), second=(h_tt, h_tp, h_pp),
                        mean_curvature=_nodes(H, shape),
                        area_element=_nodes(np.sqrt(det), shape),
                        radius=_nodes(R, shape))


def gauss_curvature(forms: SurfaceForms, c: float) -> np.ndarray:
    """Gauss curvature at every node of ``forms``, by the Gauss equation
    K = c + det II / det I of a surface in a space of constant sectional
    curvature ``c``; it broadcasts to the grid as the components do."""
    (E, F, G), (h_tt, h_tp, h_pp) = forms.first, forms.second
    return c + (h_tt * h_pp - h_tp * h_tp) / (E * G - F * F)
