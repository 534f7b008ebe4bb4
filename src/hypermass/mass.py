"""Mass functionals: E(Sigma), the Shi-Tam vector, Wang's AH mass and the
small-radius asymptotic limit.

Everything is assembled from the extrinsic data of the surface in its
ambient manifold (mean curvature H) and of its isometric image in
H^3_{-k^2} (mean curvature H_0 and hyperboloid position X):

    E(Sigma)    = int (H_0^2 - H^2)/H  X          dSigma
    M_alpha     = int (H_0 - H) (x_1, x_2, x_3, alpha t) dSigma

The forms of a surface (:func:`surface_mass_data`) and the small-sphere
expansion (:func:`ah_sphere_data`) both build a :class:`SurfaceMassData`,
so E(Sigma) and E(S_r) are one sum, :meth:`SurfaceMassData.energy`.

H <= 0 anywhere is a hard error, never a silent skip.

Every integral is a sum over the nodes that returns exactly what
``math.fsum`` would: the correctly rounded sum of the node values, the same
bits whatever their order.  :func:`_fsum_rows` gets it without leaving
numpy, by error-free extraction (Rump, Ogita and Oishi, "Accurate
floating-point summation, part I", SIAM J. Sci. Comput. 31, 2008): adding
and subtracting sigma = 2^(e+M), with 2^e above every |p| of a row of N
values and 2^M >= N + 2, splits each p into a high part q, whose sum over
the row is exact in any order, and an exact residual p - q below
2^(e+M-53).  Extraction repeats on the residuals until their plain sum,
with its error bound, can no longer move the rounded total; ``math.fsum``
of the few exact partial sums then gives the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (ConfigError, DomainError, IsometryViolation,
                     NonPositiveMeanCurvature)
from .geometry import (MetricField, QuadratureGrid, SphereTensor, SurfaceData,
                       SurfaceForms, hyperbolic_ball_metric, surface_forms,
                       unit_directions)
from .hypgeom import areal_to_minkowski
from .lorentz import LorentzVector
from .spinor import _as_spinor, killing_spinor_norms_sq

__all__ = [
    "SurfaceMassData",
    "mass_forms",
    "isometry_mismatch",
    "surface_mass_data",
    "energy_momentum",
    "shi_tam_alpha",
    "shi_tam_vector",
    "round_sphere_quadrature",
    "wang_mass",
    "killing_weighted_mass",
    "ah_sphere_data",
    "asymptotic_limit",
]

ISO_TOL = 1e-8   # the default bound on isometry_mismatch

# ---------------------------------------------------------------------------
# exact sums


def _fsum_rows(rows: np.ndarray) -> list:
    """``[math.fsum(row) for row in rows]`` of a float (m, N) array by
    error-free extraction (module docstring), in two buffers of N values of
    its own: the rows are only read.  A row whose extraction constant would
    overflow goes to ``math.fsum`` itself, and a sum that is not a finite
    float (an integrand overflowed) is a DomainError."""
    rows = np.ascontiguousarray(rows, dtype=float)
    n = rows.shape[1]
    M = (n + 1).bit_length()          # 2^M >= n + 2
    # a plain sum of n values of magnitude at most b is off by at most
    # 2 n^2 u b (u = 2^-53): twice that covers the rounding of the bound,
    # and n times the least subnormal its underflow
    slack = 4.0 * n * n * 2.0 ** -53
    q, r = np.empty(n), np.empty(n)
    out = []
    for p in rows:
        big = max(p.max(), -p.min())
        if not big < 2.0 ** (1023 - M):   # nan, inf or near the overflow
            try:
                out.append(math.fsum(p))
            except (OverflowError, ValueError):   # past the range, inf - inf
                out.append(math.nan)
            continue
        parts = []                    # exact partial sums
        while True:
            sigma = math.ldexp(1.0, math.frexp(big)[1] + M)
            np.add(p, sigma, out=q)
            q -= sigma
            parts.append(float(q.sum()))
            p = np.subtract(p, q, out=r)
            big = max(p.max(), -p.min())
            s = float(p.sum())
            # rounded once both ends of the residuals' error bound round to
            # the same float
            d = slack * big + n * 5e-324 if big else 0.0
            lo = math.fsum((*parts, s, -d))
            if lo == math.fsum((*parts, s, d)):
                out.append(lo)
                break
    if not all(map(math.isfinite, out)):
        raise DomainError(f"a node integral overflows a float: {out}")
    return out


# ---------------------------------------------------------------------------
# shared per-surface data


@dataclass
class SurfaceMassData:
    """Node data entering every mass integral: a surface in its ambient
    (:func:`surface_mass_data`) or a small sphere (:func:`ah_sphere_data`).
    Positions are stored once, as X; :attr:`ball_points` derives from it."""

    H: np.ndarray            # ambient-side mean curvature (N,)
    H0: np.ndarray           # H^3-side mean curvature (N,)
    X: np.ndarray            # hyperboloid positions of F0's nodes (N, 4)
    measure: np.ndarray      # quadrature weight * area element (N,)
    k: float
    killing_forms: dict = field(default_factory=dict, init=False, repr=False)

    def weighted(self, rows: np.ndarray) -> list:
        """The exact sums of measure * row over the nodes, one float for
        each row of ``rows`` (m, N)."""
        return _fsum_rows(self.measure * rows)

    def area(self) -> float:
        """int dSigma, the exact sum of the measure."""
        return _fsum_rows(self.measure[None])[0]

    @property
    def ball_points(self) -> np.ndarray:
        """Poincare-ball points X_s / (1 + X_t) of the nodes (N, 3), k = 1."""
        return self.X[:, :3] / (1.0 + self.X[:, 3:])

    @property
    def weight(self) -> np.ndarray:
        """(H_0^2 - H^2)/H at each node: the integrand of E and of Q."""
        return (self.H0 ** 2 - self.H ** 2) / self.H

    @np.errstate(over="ignore", invalid="ignore")
    def energy(self) -> LorentzVector:
        """E(Sigma) = int ((H_0^2 - H^2)/H) X dSigma."""
        return LorentzVector(*self.weighted(np.multiply(self.weight, self.X.T,
                                                        order="C")))

    def killing_form(self, sign: int) -> np.ndarray:
        """Q_sign = int ((H_0^2 - H^2)/H) M dSigma, with |psi_a^{sign}|^2 =
        a^H M a at each node: M is polarized from the norms at a = e_0, e_1,
        e_0 + e_1, e_0 + i e_1, and each real entry of Q is one
        :meth:`weighted` sum.  Built once for each sign +-1, at k = 1 only;
        read-only."""
        if self.k != 1.0:
            raise DomainError("spinor-weighted integrals require k = 1")
        if sign not in self.killing_forms:
            with np.errstate(over="ignore", invalid="ignore"):
                n0, n1, n_re, n_im = killing_spinor_norms_sq(
                    np.array([[[1, 0]], [[0, 1]], [[1, 1]], [[1, 1j]]]),
                    self.ball_points, sign)
                rows = np.stack((n0, n1, 0.5 * (n_re - n0 - n1),
                                 0.5 * (n0 + n1 - n_im)))
                rows *= self.weight
                q00, q11, re01, im01 = self.weighted(rows)
            Q = np.array([[q00, complex(re01, im01)],
                          [complex(re01, -im01), q11]])
            Q.flags.writeable = False
            self.killing_forms[sign] = Q
        return self.killing_forms[sign]


def mass_forms(surface: SurfaceData, ambient: MetricField) -> tuple:
    """The one node pass that the hypothesis checks and every mass integral
    share: forms of F in ``ambient``, and of F0 in H^3 (areal radius).  A
    surface without F0 raises MissingEmbedding before any work is done.
    """
    h3 = surface.h3_view()
    forms = surface_forms(surface, ambient)
    return forms, surface_forms(h3, hyperbolic_ball_metric(surface.k))


def isometry_mismatch(forms: SurfaceForms, forms0: SurfaceForms) -> float:
    """Max pointwise difference of the two induced metrics."""
    return float(max(np.max(np.abs(a - b))
                     for a, b in zip(forms.first, forms0.first)))


def surface_mass_data(surface: SurfaceData, ambient: MetricField,
                      iso_tol: float = ISO_TOL,
                      forms: Optional[tuple] = None) -> SurfaceMassData:
    """Extract H, H_0, X and the measure; enforce the standing hypotheses.

    ``forms`` is the :func:`mass_forms` pair of a caller that already has
    it; otherwise it is computed here.  The isometry test compares the
    induced metrics of that pair, the ones the integrals use.
    """
    forms, forms0 = forms or mass_forms(surface, ambient)
    mismatch = isometry_mismatch(forms, forms0)
    if mismatch > iso_tol:
        raise IsometryViolation(
            f"induced metrics disagree by {mismatch:.3e} (tol {iso_tol:.1e})")
    H = forms.mean_curvature
    if np.any(H <= 0.0):
        node = int(np.argmin(H))
        raise NonPositiveMeanCurvature(
            f"H = {H[node]:.6g} <= 0 at {surface.grid.describe_node(node)}")
    # F0's nodes at areal radius R0 in direction u: X = (R0 u, sqrt(1/k^2 +
    # R0^2)) on the hyperboloid, exact with no chart in between
    R0, k = forms0.radius, surface.k
    u = unit_directions(*surface.grid.node_axes()).reshape(-1, 3)
    return SurfaceMassData(H=H, H0=forms0.mean_curvature,
                           X=areal_to_minkowski(R0, u, k),
                           measure=(surface.grid.measure_weights()
                                    * forms.area_element),
                           k=k)


# ---------------------------------------------------------------------------
# functionals


def energy_momentum(surface: SurfaceData, ambient: MetricField,
                    data: Optional[SurfaceMassData] = None) -> LorentzVector:
    """E(Sigma) = int ((H_0^2 - H^2)/H) X dSigma."""
    return (data or surface_mass_data(surface, ambient)).energy()


def shi_tam_alpha(R1: float, R2: float) -> float:
    """alpha = coth R1 + (1/sinh R1) sqrt(sinh^2 R2 / sinh^2 R1 - 1)."""
    if R1 <= 0 or R1 > R2:
        raise DomainError("need 0 < R1 <= R2")
    s1 = math.sinh(R1)
    ratio = (math.sinh(R2) / s1) ** 2 - 1.0
    return 1.0 / math.tanh(R1) + math.sqrt(max(0.0, ratio)) / s1


@np.errstate(over="ignore", invalid="ignore")
def shi_tam_vector(data: SurfaceMassData, alpha: float) -> LorentzVector:
    """M_alpha = int (H_0 - H) (x_1, x_2, x_3, alpha t) dSigma."""
    if alpha < 1.0:
        raise DomainError("alpha must be >= 1")
    W = data.X.T.copy()
    W[3] *= alpha
    W *= data.H0 - data.H
    return LorentzVector(*data.weighted(W))


def round_sphere_quadrature(h: SphereTensor, grid: QuadratureGrid) -> tuple:
    """The round sphere on ``grid`` with the mass-aspect tensor h on it:
    ``(xhat, w, tau)``, the unit directions (N, 3), the weights of dS (N,)
    and tr(h) at the nodes (N,).  They are all that :func:`ah_sphere_data`
    and :func:`wang_mass` read, so one build serves every radius."""
    theta, phi = grid.node_axes()
    xhat = unit_directions(theta, phi).reshape(-1, 3)
    # measure weights already carry 1/sin(theta); dS = sin(theta) dtheta dphi
    w = grid.measure_weights().reshape(grid.n_theta, -1) * np.sin(theta)
    return xhat, w.ravel(), h.trace(xhat)


@np.errstate(over="ignore", invalid="ignore")
def wang_mass(sphere: tuple) -> LorentzVector:
    """Wang's AH energy-momentum from the mass-aspect tensor h, on the
    :func:`round_sphere_quadrature` triple ``sphere``.

    The scalar slot is int tr(h) dS and the vector slot int tr(h) x dS over
    the round sphere, stored as the time and the spatial part of the
    LorentzVector.
    """
    xhat, w, tau = sphere
    rows = np.empty((4, len(w)))
    np.multiply(w, tau, out=rows[3])
    np.multiply(rows[3], xhat.T, out=rows[:3])
    return LorentzVector(*_fsum_rows(rows))


def killing_weighted_mass(surface: SurfaceData, ambient: MetricField, a,
                          sign: int, data: Optional[SurfaceMassData] = None):
    """int ((H_0^2 - H^2)/H) |psi_a^{sign}|^2 dSigma (k = 1) for spinors
    ``a`` of shape (..., 2), a float for one spinor: Re(a^H Q a), with the
    2x2 Hermitian Q of :meth:`SurfaceMassData.killing_form` summed from the
    nodes, never from E or zeta, so that the identity with
    -2 <E(Sigma), zeta_a^{sign}> stays a cross-check of two routes."""
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    a = _as_spinor(a)
    d = data or surface_mass_data(surface, ambient)
    Q = d.killing_form(int(sign))
    val = np.einsum("...k,kl,...l->...", a.conj(), Q, a)
    return float(val.real) if val.ndim == 0 else val.real


# ---------------------------------------------------------------------------
# asymptotically hyperbolic small-sphere machinery


def ah_sphere_data(r: float, sphere: tuple) -> SurfaceMassData:
    """Truncated small-sphere expansion data for the geodesic sphere S_r,
    0 < r <= 0.5, on the :func:`round_sphere_quadrature` triple ``sphere``
    (k = 1): H and H_0 from the collar expansions truncated at the printed
    orders (the omitted terms are o(r^3) relative), the round dS over
    sinh^2 r, and the exact hyperboloid points at areal radius
    sinh(rho_r) = 1/r, matching the displayed leading behavior (x/r, 1/r).
    H_0 = cosh r at every node is a broadcast view, not an array."""
    if not 0.0 < r <= 0.5:
        raise ConfigError(f"radius r = {r!r} must lie in (0, 0.5]")
    xhat, w, tau = sphere
    H = math.cosh(r) - 0.25 * r ** 3 * tau
    if np.any(H <= 0.0):
        raise NonPositiveMeanCurvature(
            f"expanded H <= 0 at node {int(np.argmin(H))} for r = {r}")
    H0 = np.broadcast_to(math.cosh(r), tau.shape)
    R = np.float64(1.0 / r)     # the areal radius of every node
    return SurfaceMassData(H=H, H0=H0, X=areal_to_minkowski(R, xhat),
                           measure=w * (1.0 / math.sinh(r) ** 2), k=1.0)


def asymptotic_limit(sphere: tuple, radii) -> tuple:
    """E(S_r) along decreasing radii, on the :func:`round_sphere_quadrature`
    triple ``sphere``, and its Richardson limit, as the pair
    ``(energies, extrapolated)`` of shapes (len(radii), 4) and (4,).

    The extrapolation is two-point with assumed leading order 1 in r, using
    the two smallest radii; at least three radii are required so that an
    observed order can be read off the series alongside.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 3:
        raise ConfigError(f"need at least 3 radii, got {len(radii)}")
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ConfigError(f"radii must be strictly decreasing, got {radii}")
    energies = np.array([ah_sphere_data(r, sphere).energy() for r in radii])
    (r1, r2), (E1, E2) = radii[-2:], energies[-2:]
    return energies, (1.0 / (r1 - r2)) * (r1 * E2 - r2 * E1)
