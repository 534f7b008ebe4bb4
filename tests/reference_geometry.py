"""Reference geometry for the tests: the generic Gauss formula on metric
components, an oracle independent of the closed forms of
``hypermass.geometry``.

A :class:`Chart` is a component function g_ij(p) of points (..., 3) that
returns (..., 3, 3) and stays analytic at complex points, so that every
metric derivative is a complex step Im g(p + i h v) / h (Squire & Trapp
1998), exact to roundoff; plus the distance of a point to the chart
boundary.  On a chart this module computes

- the fundamental forms of a surface given by its 2-jet (F, dF, ddF) in the
  chart (:func:`forms`): the unit normal by the cofactor identity
  (g F_theta) x (g F_phi) = det(g) g^{-1} (F_theta x F_phi), the second
  form by the Gauss formula h_ab = g(N, d_a d_b F) + (1/2)[N.(d_{F_a} g).F_b
  + N.(d_{F_b} g).F_a - F_a.(d_N g).F_b];
- Christoffel symbols, and the scalar curvature by a second-order central
  stencil of them in ``fd_step``, so that its convergence order in the step
  is a testable 2.

The package's surfaces are radial graphs r = R(theta, phi);
:func:`polar_jet`, :func:`cartesian_jet` and :func:`ball_jet` turn their jets
into 2-jets in the polar chart, a Cartesian chart and the Poincare ball.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hypermass.errors import DomainError

COMPLEX_STEP = 1e-30


class ChartBoundary(Exception):
    """Point too close to the chart boundary for the curvature stencil."""


@dataclass
class Chart:
    components: Callable   # (..., 3) -> (..., 3, 3), analytic
    distance: Callable     # (..., 3) -> (...,), to the chart boundary


def polar_chart(metric) -> Chart:
    """The (r, theta, phi) components diag(1/V, r^2, r^2 sin^2 theta) of a
    package warped product dr^2/V + r^2 g_S2, written out from its ``V``
    alone; its boundary is r = r_min and the poles."""
    def components(p):
        p = np.asarray(p)
        r, theta = p[..., 0], p[..., 1]
        if np.any(np.real(r) <= metric.r_min):
            raise DomainError(f"{metric.tag} chart requires "
                              f"r > {metric.r_min:.6g}")
        diag = np.stack([1.0 / metric.V(r), r * r, (r * np.sin(theta)) ** 2],
                        axis=-1)
        return diag[..., None, :] * np.eye(3)

    def distance(p):
        p = np.asarray(p, dtype=float)
        return np.minimum.reduce([p[..., 0] - metric.r_min, p[..., 1],
                                  math.pi - p[..., 1]])

    return Chart(components, distance)


def euclidean_chart() -> Chart:
    return Chart(
        lambda p: np.broadcast_to(np.eye(3), np.shape(p)[:-1] + (3, 3)).copy(),
        lambda p: np.full(np.shape(p)[:-1], np.inf))


def ball_chart(k: float = 1.0) -> Chart:
    """Poincare ball model of H^3_{-k^2}: g = (2 / (k (1 - |x|^2)))^2 delta."""
    def components(p):
        p = np.asarray(p)
        r2 = np.sum(p * p, axis=-1)
        if np.any(np.real(r2) >= 1.0):
            raise DomainError("hyperbolic ball chart requires |x| < 1")
        f = 2.0 / (k * (1.0 - r2))
        return np.eye(3) * (f * f)[..., None, None]

    def distance(p):
        p = np.asarray(p, dtype=float)
        return 1.0 - np.sqrt(np.sum(p * p, axis=-1))

    return Chart(components, distance)


# ---------------------------------------------------------------------------
# jets


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


def graph_jet(F, theta, phi) -> tuple:
    """The radial-graph jet ``F`` broadcast to the nodes: R (...),
    dR (..., 2) and ddR (..., 2, 2)."""
    shape = np.broadcast_shapes(np.shape(theta), np.shape(phi))
    R, (Rt, Rp), (Rtt, Rtp, Rpp) = F(theta, phi)

    def nodes(x):
        return np.broadcast_to(np.asarray(x, dtype=float), shape)

    dR = np.stack([nodes(Rt), nodes(Rp)], axis=-1)
    ddR = np.stack([np.stack([nodes(Rtt), nodes(Rtp)], axis=-1),
                    np.stack([nodes(Rtp), nodes(Rpp)], axis=-1)], axis=-2)
    return np.array(nodes(R)), dR, ddR


def polar_jet(F) -> Callable:
    """Jet callable of the point (R, theta, phi) of the polar chart."""
    def jet(theta, phi):
        R, dR, ddR = graph_jet(F, theta, phi)
        p = np.stack(np.broadcast_arrays(R, theta, phi), axis=-1)
        dF = np.zeros(R.shape + (2, 3))
        dF[..., 0] = dR
        dF[..., 0, 1] = dF[..., 1, 2] = 1.0
        ddF = np.zeros(R.shape + (2, 2, 3))
        ddF[..., 0] = ddR
        return p, dF, ddF

    return jet


def _radial_jet(r, dr, ddr, theta, phi) -> tuple:
    """The 2-jet of r u from the jet of the scalar r, by the product rule."""
    u, du, ddu = unit_direction_jet(theta, phi)
    dF = r[..., None, None] * du + dr[..., None] * u[..., None, :]
    ddF = (r[..., None, None, None] * ddu
           + ddr[..., None] * u[..., None, None, :]
           + dr[..., :, None, None] * du[..., None, :, :]
           + dr[..., None, :, None] * du[..., :, None, :])
    return r[..., None] * u, dF, ddF


def cartesian_jet(F) -> Callable:
    """Jet callable of R u: the graph in the Cartesian chart of its polar
    chart."""
    def jet(theta, phi):
        return _radial_jet(*graph_jet(F, theta, phi), theta, phi)

    return jet


def ball_jet(F, k: float = 1.0) -> Callable:
    """Jet callable of b(R) u, b = k R / (1 + S) with S = sqrt(1 + k^2 R^2):
    the graph of areal radius R in H^3 seen in the Poincare ball, with
    b' = k / (S (1 + S)) and b'' = -k^3 R (1 + 2S) / (S^3 (1 + S)^2)."""
    def jet(theta, phi):
        R, dR, ddR = graph_jet(F, theta, phi)
        S = np.sqrt(1.0 + (k * R) ** 2)
        b = k * R / (1.0 + S)
        b1 = k / (S * (1.0 + S))
        b2 = -k ** 3 * R * (1.0 + 2.0 * S) / (S ** 3 * (1.0 + S) ** 2)
        db = b1[..., None] * dR
        ddb = (b2[..., None, None] * dR[..., :, None] * dR[..., None, :]
               + b1[..., None, None] * ddR)
        return _radial_jet(b, db, ddb, theta, phi)

    return jet


# ---------------------------------------------------------------------------
# metric derivatives and curvature


def complex_step(chart: Chart, pts, v) -> np.ndarray:
    """h d_v g_ij at ``pts`` along ``v`` (both (..., 3)), h = COMPLEX_STEP."""
    return chart.components(pts + (1j * COMPLEX_STEP) * v).imag


def christoffel_many(chart: Chart, pts) -> np.ndarray:
    """Gamma^i_jk at each point, shape (..., 3, 3, 3)."""
    pts = np.asarray(pts, dtype=float)
    ginv = np.linalg.inv(chart.components(pts))
    # D[..., l, i, j] = d_l g_ij, one complex step per chart axis
    D = np.stack([complex_step(chart, pts, e) for e in np.eye(3)],
                 axis=-3) / COMPLEX_STEP
    # S_ljk = d_j g_lk + d_k g_jl - d_l g_jk
    S = (np.einsum("...jlk->...ljk", D) + np.einsum("...kjl->...ljk", D) - D)
    return 0.5 * np.einsum("...il,...ljk->...ijk", ginv, S)


def scalar_curvature_many(chart: Chart, pts, fd_step: float = 1e-4):
    """Scalar curvature by contraction of the numerically assembled Ricci;
    the derivative of the Christoffel symbols is a second-order central
    difference of step ``fd_step``."""
    pts = np.asarray(pts, dtype=float)
    if np.any(chart.distance(pts) <= 4.0 * fd_step):
        raise ChartBoundary("chart margin below 4 * fd_step")
    G0 = christoffel_many(chart, pts)
    dG = np.zeros(pts.shape[:-1] + (3, 3, 3, 3))
    for axis, e in enumerate(np.eye(3)):
        dG[..., axis, :, :, :] = (christoffel_many(chart, pts + fd_step * e)
                                  - christoffel_many(chart, pts - fd_step * e)
                                  ) / (2.0 * fd_step)
    ricci = (np.einsum("...iijk->...jk", dG)
             - np.einsum("...jiik->...jk", dG)
             + np.einsum("...iip,...pjk->...jk", G0, G0)
             - np.einsum("...ijp,...pik->...jk", G0, G0))
    ginv = np.linalg.inv(chart.components(pts))
    return np.einsum("...jk,...jk->...", ginv, ricci)


# ---------------------------------------------------------------------------
# fundamental forms


def cartesian_radial(N, p):
    """N . p: negative for a normal toward the origin of a Cartesian chart."""
    return np.einsum("...i,...i->...", N, p)


def polar_radial(N, p):
    """N^r: negative for a normal toward the origin of the polar chart."""
    return N[..., 0]


@dataclass
class Forms:
    """The reference forms, flattened to theta-major nodes like
    ``hypermass.geometry.SurfaceForms``."""

    first: np.ndarray           # (N, 2, 2)
    second: np.ndarray          # (N, 2, 2)
    mean_curvature: np.ndarray  # (N,)
    area_element: np.ndarray    # (N,)
    normal: np.ndarray          # (N, 3) unit normal, chart components
    points: np.ndarray          # (N, 3)

    def gauss_curvature(self, c: float) -> np.ndarray:
        """K = c + det II / det I (Gauss equation in a space form)."""
        return c + (np.linalg.det(self.second) / np.linalg.det(self.first))


def forms(jet, grid, chart: Chart, radial=cartesian_radial,
          orientation_sign: int = 1) -> Forms:
    """Fundamental forms of the surface with 2-jet ``jet`` in ``chart`` at
    every node of ``grid``.  The normal is the one with ``radial(N, p)`` < 0,
    times ``orientation_sign``."""
    p, dF, ddF = jet(*grid.node_axes())
    g = chart.components(p)
    gF = dF @ g
    gab = gF @ np.swapaxes(dF, -1, -2)
    N = np.cross(gF[..., 0, :], gF[..., 1, :])
    gN = np.einsum("...ij,...j->...i", g, N)
    sign = np.where(radial(N, p) < 0.0, 1.0, -1.0) * orientation_sign
    scale = sign / np.sqrt(np.einsum("...i,...i->...", N, gN))
    N *= scale[..., None]
    gN *= scale[..., None]
    dg = [complex_step(chart, p, v) / COMPLEX_STEP
          for v in (dF[..., 0, :], dF[..., 1, :], N)]
    NdgF = np.stack([np.einsum("...i,...ij,...bj->...b", N, dg[a], dF)
                     for a in (0, 1)], axis=-2)
    second = (np.einsum("...i,...abi->...ab", gN, ddF)
              + 0.5 * (NdgF + np.swapaxes(NdgF, -1, -2)
                       - np.einsum("...ai,...ij,...bj->...ab", dF, dg[2],
                                   dF)))
    H = 0.5 * np.einsum("...ab,...ab->...", np.linalg.inv(gab), second)
    flat = [a.reshape((-1,) + a.shape[2:]) for a in
            (gab, second, H, np.sqrt(np.linalg.det(gab)), N, p)]
    return Forms(*flat)


def polar_forms(surface, metric, F=None, orientation_sign: int = 1) -> Forms:
    """Reference forms of the graph ``F`` (default ``surface.F``) in the
    polar chart of the package metric ``metric``, for the normal with
    N^r < 0 times ``orientation_sign``."""
    return forms(polar_jet(F or surface.F), surface.grid, polar_chart(metric),
                 polar_radial, orientation_sign)


def ball_forms(surface, F=None) -> Forms:
    """Reference forms of the H^3 graph ``F`` (default ``surface.F``) in the
    Poincare ball of curvature -k^2."""
    return forms(ball_jet(F or surface.F, surface.k), surface.grid,
                 ball_chart(surface.k), cartesian_radial)
