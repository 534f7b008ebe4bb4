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
    "SurfaceForms",
    "gauss_legendre",
    "euclidean_metric",
    "hyperbolic_ball_metric",
    "ads_schwarzschild_metric",
    "mass_aspect_trace",
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
    """Curvature scale k > 0 with k^2 a normal float: k^2, 1/k^2 finite."""
    if not (k > 0 and sys.float_info.min <= k * k <= sys.float_info.max):
        raise ConfigError(f"curvature scale k = {k!r} must be positive, "
                          f"with k^2 a normal float")


@dataclass
class MetricField:
    """Riemannian 3-metric in the polar chart (r, theta, phi).

    The node pass needs ``V`` and its derivative ``dV`` (callables of r) of a
    warped product g = dr^2/V(r) + r^2 g_S2 on the chart r > ``r_min``.  The
    AH collar metric is no warped product: it carries ``components`` only,
    a map of chart points (..., 3), complex ones included, to the components
    (..., 3, 3).
    """

    tag: str
    V: Optional[Callable] = None
    dV: Optional[Callable] = None
    r_min: float = 0.0
    components: Optional[Callable[[np.ndarray], np.ndarray]] = None


def euclidean_metric() -> MetricField:
    return MetricField("Euclidean", np.ones_like, np.zeros_like)


def hyperbolic_ball_metric(k: float = 1.0) -> MetricField:
    """H^3_{-k^2} in areal radius: V = 1 + k^2 r^2 (the CLI's
    ``hyperbolic_ball``; a point at areal radius r lies at ball radius
    k r / (1 + sqrt(1 + k^2 r^2)) of the Poincare ball)."""
    _check_k(k)
    k2 = k * k
    return MetricField("Hyperbolic", lambda r: 1.0 + k2 * r * r,
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
    return MetricField(
        "AdSSchwarzschild", lambda r: 1.0 + k2 * r * r - 2.0 * m / r,
        lambda r: 2.0 * k2 * r + 2.0 * m / (r * r),
        ads_horizon_radius(m, k) + _HORIZON_MARGIN)


def scalar_curvature(metric: MetricField, r) -> np.ndarray:
    """Scalar curvature 2(1 - V - r V')/r^2 of dr^2/V + r^2 g_S2 at radii
    ``r``: -6 k^2 for H^3 and AdS-Schwarzschild of any mass, 0 for
    Euclidean space."""
    return 2.0 * (1.0 - metric.V(r) - r * metric.dV(r)) / (r * r)


def mass_aspect_trace(g0_coeff: float, linear, theta, phi):
    """tr h = 2 g0_coeff + a . u of the pure-trace mass-aspect tensor h =
    (tr h / 2) g_0, a = ``linear``, u = (sin theta cos phi, sin theta
    sin phi, cos theta), at broadcastable (theta, phi), complex theta too.

    Only the terms of a nonzero coefficient are added, so tr h keeps the
    shape it varies on: a numpy float (which overflows as arrays do) for
    an isotropic h, the shape of theta when a_1 = a_2 = 0, and the
    broadcast of theta and phi otherwise."""
    a1, a2, a3 = linear
    tau = np.float64(2.0 * g0_coeff)
    if a3:
        tau = tau + a3 * np.cos(theta)
    if not (a1 or a2):
        return tau
    # the one array of the broadcast shape: the rest is added in place
    tau_phi = np.sin(theta) * (a1 * np.cos(phi) + a2 * np.sin(phi))
    tau_phi += tau
    return tau_phi


def wang_ah_metric(g0_coeff: float, linear) -> MetricField:
    """Asymptotically hyperbolic collar metric sinh^{-2}(r)(dr^2 + g_r), a
    normal form stated at k = 1.

    Chart coordinates are (r, theta, phi) with g_r = g_0 + (r^3/3) h, h the
    pure-trace tensor of trace :func:`mass_aspect_trace`.  Library only: no
    surface of the node pass runs in it.
    """
    def comps(p):
        p = np.asarray(p)
        r, th = p[..., 0], p[..., 1]
        if np.any(np.real(r) <= 0):
            raise DomainError("collar chart requires r > 0")
        tau = mass_aspect_trace(g0_coeff, linear, th, p[..., 2])
        gr = 1.0 + (r ** 3 / 3.0) * 0.5 * tau
        s2 = 1.0 / np.sinh(r) ** 2
        diag = np.stack([s2, s2 * gr, s2 * gr * np.sin(th) ** 2], axis=-1)
        return np.eye(3) * diag[..., None, :]

    return MetricField(tag="WangAH", components=comps)


# ---------------------------------------------------------------------------
# quadrature grid

# Series evaluations allowed per block of Gauss-Legendre nodes.  From
# Tricomi's guess with its 1/n^4 term, one Halley step ends every node but
# the 1 to 3 nearest the pole, which take one or two more evaluations of
# their rows alone, in every rule tried from 2 to 50000 nodes.
_GL_MAX_STEPS = 20
# Halley's step s leaves the node off its root by about n(n + 1) s^3/6, so
# a node stops once n(n + 1) s^3 is at most this (or s the iterate's grid)
_GL_HALLEY_RESIDUAL = 1e-17
# floats in the rule's one trig buffer
_GL_BUFFER = 1 << 15


def _legendre_series(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, b): +-P_n(cos theta) = sum_k b_k cos(m_k phi) for even n and
    sum_k b_k sin(m_k phi) for odd n, phi = pi/2 - theta, over the n//2 + 1
    terms m = n, n - 2, ...: the cosine series sum_j a_j a_(n-j)
    cos((n - 2j) theta), a_j = (2j choose j)/4^j, with its j and n - j
    terms added.  The sign, (-1)^(n//2), moves no root and no 2/P_phi^2."""
    h = n // 2
    a = np.empty(n + 1)
    a[0] = 1.0
    j = np.arange(1.0, n + 1)
    np.cumprod((j - 0.5) / j, out=a[1:])
    b = a[:h + 1] * a[:n - h - 1:-1]
    b[:n - h] *= 2.0   # all but the constant term of an even n
    b[1::2] *= -1.0    # cos(m pi/2) or sin(m pi/2), times (-1)^(n//2)
    return n - 2.0 * np.arange(h + 1), b


def _series(trig, phi, m, b, buf):
    """sum_k b_k trig(m_k phi) at each phi, through ``buf``, a (phi.size,
    m.size) array overwritten in place."""
    np.multiply.outer(phi, m, out=buf)
    trig(buf, out=buf)
    buf *= b
    return buf.sum(axis=1)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], both parts symmetric
    about 0: ascending nodes and weights scaled to sum to 2.

    Halley's method in phi = pi/2 - theta on the series of
    :func:`_legendre_series` (Swarztrauber 2002) takes a fixed number of
    numpy calls per step, for the n//2 positive nodes, in blocks of at most
    ``_GL_BUFFER`` trig buffer floats; the middle node of an odd n is 0.
    It starts from Tricomi's guess (1 - 1/(8n^2) + 1/(8n^3) - (39 -
    28/sin^2 theta_k)/(384 n^4)) cos theta_k, theta_k = pi (4k - 1)/(4n +
    2), with its second-order term (Hale and Townsend 2013), and P_phiphi =
    tan(phi) P_phi - n(n + 1) P from Legendre's equation, so one evaluation
    of P and P_phi makes a step.  A node stops once its step s is at most
    (``_GL_HALLEY_RESIDUAL``/(n(n + 1)))^(1/3) or the iterate's grid, and
    only the rows of the nodes still moving, the few nearest the pole, are
    evaluated again.  Each iterate is rounded to a multiple of 2^(l - 52),
    l the bit length of n, so every angle m phi is exact (rounding it moved
    nodes by 2 ulps at n = 265), and the last step is taken to second order
    from phi as it is, x = sin(phi - s) = sin phi - s cos phi - (s^2/2)
    sin phi, where cos theta would round pi/2 - phi first.

    Each weight, 2/((1 - x^2) P_n'(x)^2), is 2/P_phi^2, with P_phi carried
    from the last iterate to the root as P_phi - s P_phiphi + (s^2/2)
    P_phiphiphi, P_phiphiphi = sec^2(phi) P_phi + tan(phi) P_phiphi -
    n(n + 1) P_phi by Legendre's equation (to first order the weights were
    up to 3.6e-11 off at n = 128); at a root it moves by only the node's
    relative rounding in theta.  Against 40-digit roots the weights are off
    by 1.1e-15 at n = 128 (2.6e-13 as the Christoffel function by the
    three-term recurrence), and each node by at most an ulp."""
    h = n // 2
    m, b = _legendre_series(n)
    if n % 2:
        value, slope, bm = np.sin, np.cos, b * m
    else:
        value, slope, bm = np.cos, np.sin, -b * m
    lam = n * (n + 1.0)
    c = np.cos(math.pi * (4 * np.arange(h, 0, -1) - 1) / (4 * n + 2))
    phi = np.arcsin((1.0 - (n - 1) / (8.0 * n ** 3)
                     - (39.0 - 28.0 / (1.0 - c * c)) / (384.0 * n ** 4)) * c)
    # m N 2^(l - 52) is exact for integers m <= n < 2^l and N < 2^(53 - l)
    grid = 2.0 ** (n.bit_length() - 52)
    tol = max((_GL_HALLEY_RESIDUAL / lam) ** (1.0 / 3.0), grid)
    # P, P_phi and the last step of each node at its last iterate phi
    p, p_phi, step = np.empty(h), np.empty(h), np.empty(h)
    rows = max(1, _GL_BUFFER // m.size)
    buf = np.empty(min(h, rows) * m.size)
    for lo in range(0, h, rows):
        at = np.arange(lo, min(lo + rows, h))   # the nodes still moving
        for _ in range(_GL_MAX_STEPS):
            phi[at] = np.rint(phi[at] / grid) * grid
            q = phi[at]
            t = buf[:q.size * m.size].reshape(q.size, m.size)
            P, d = _series(value, q, m, b, t), _series(slope, q, m, bm, t)
            # Newton's step u and Halley's, u/(1 - u P_phiphi/(2 P_phi))
            u = P / d
            s = u / (1.0 - 0.5 * u * (np.sin(q) / np.cos(q) - lam * u))
            p[at], p_phi[at], step[at] = P, d, s
            moving = np.flatnonzero(np.abs(s) > tol)
            if not moving.size:
                break
            at = at[moving]
            phi[at] -= s[moving]
        else:
            raise ConvergenceFailure(f"Gauss-Legendre nodes of order {n} "
                                     f"did not converge in {_GL_MAX_STEPS} "
                                     f"Halley steps")
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    tan_phi = sin_phi / cos_phi
    p_phiphi = tan_phi * p_phi - lam * p
    p_phi3 = p_phi / (cos_phi * cos_phi) + tan_phi * p_phiphi - lam * p_phi
    x = sin_phi - step * (cos_phi + 0.5 * step * sin_phi)
    x = np.concatenate((-x[::-1], [0.0] * (n % 2), x))
    w = 2.0 / (p_phi - step * (p_phiphi - 0.5 * step * p_phi3)) ** 2
    # the middle node's P_phi, at phi = 0, is sum_k b_k m_k
    w = np.concatenate((w[::-1], [2.0 / bm.sum() ** 2] * (n % 2), w))
    return x, w * (2.0 / math.fsum(w))


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes in cos theta crossed with a uniform phi grid.

    The Gauss-Legendre nodes exclude the poles exactly, so no pole handling
    is needed anywhere downstream.  ``measure_weights`` are the du x dphi
    weights divided by sin theta, a theta column that broadcasts to the
    grid: summing weights * area_element over the nodes approximates the
    surface area (4 pi for the round unit sphere).  A node is a
    theta-major index into the (n_theta, n_phi) grid.
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
        return (self.u_weights / np.sin(self.theta))[:, None] * w_phi

    def least_node(self, x) -> tuple:
        """``(value, node)``: the least value of ``x``, a field that
        broadcasts to the grid, and the first node that holds it, in
        theta-major order: the least of ``x`` at its own shape, on the first
        theta line and phi node of the axes it is constant along."""
        x = np.reshape(x, (1,) * (2 - np.ndim(x)) + np.shape(x))
        i, j = np.unravel_index(np.argmin(x), x.shape)
        return float(x[i, j]), int(i) * self.n_phi + int(j)

    def describe_node(self, node: int) -> str:
        i, j = divmod(node, self.n_phi)
        return (f"node {node} (theta={self.theta[i]:.4f}, "
                f"phi={self.phi[j]:.4f})")


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
    """Per-node extrinsic data for a whole quadrature grid, each field a
    float or an array that broadcasts to the grid, at the shape the pass
    computed it: a graph of constant radius keeps them on the theta axis."""

    first: tuple               # (E, F, G)
    second: tuple              # (h_tt, h_tp, h_pp)
    mean_curvature: np.ndarray
    area_element: np.ndarray   # sqrt(det g_ab)
    radius: np.ndarray         # chart radius R of each node


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
    theta, phi = surface.grid.node_axes()
    R, (Rt, Rp), (Rtt, Rtp, Rpp) = surface.F(theta, phi)
    if np.any(R <= metric.r_min):
        raise DomainError(f"surface reaches r = {np.min(R):.6g}, outside the "
                          f"{metric.tag} chart r > {metric.r_min:.6g}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        st, ct = np.sin(theta), np.cos(theta)
        st2 = st * st
        V = metric.V(R)
        if not np.all(np.isfinite(V)):
            raise DomainError(f"V = 1/g_rr overflows a float on the surface "
                              f"up to r = {np.max(R):.6g} in the "
                              f"{metric.tag} chart")
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
    return SurfaceForms(first=(E, F, G), second=(h_tt, h_tp, h_pp),
                        mean_curvature=H, area_element=np.sqrt(det), radius=R)


def gauss_curvature(forms: SurfaceForms, c: float) -> np.ndarray:
    """Gauss curvature at every node of ``forms``, by the Gauss equation
    K = c + det II / det I of a surface in a space of constant sectional
    curvature ``c``; it broadcasts to the grid as the components do."""
    (E, F, G), (h_tt, h_tp, h_pp) = forms.first, forms.second
    return c + (h_tt * h_pp - h_tp * h_tp) / (E * G - F * F)
