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

X is stored as the rows of factors of :func:`areal_to_minkowski`, and
every integral is one call of :func:`_row_sums`: each row, the product of
its factors times the integrand's, is summed at the shape of its factors.
A row with no factor on the phi axis is summed as its theta column; cos phi
or sin phi times a theta column is 0, what the trapezoid rule in phi gives;
any other row is written and summed in one buffer of N values, with a
second as the scratch of the sum.  Buffers are made when a row first needs
them, so no integral holds X or its integrand as a (4, N) block, and those
of a surface whose fields have no phi axis, a coordinate sphere, hold no
array of N values.

Every integral is a sum over the nodes that returns exactly what
``math.fsum`` of its N node values would, the correctly rounded sum, the
same bits whatever their order, except a row of cos phi or sin phi times a
theta column: its sum is the 0.0 of the quadrature rule, not the fsum of
the rounding noise of its node values.  :func:`_fsum` passes a short row,
such as a theta column, to ``math.fsum`` as a list, and sums a long one
without leaving numpy, by error-free extraction (Rump, Ogita and Oishi,
"Accurate floating-point summation, part I", SIAM J. Sci. Comput. 31,
2008): adding and subtracting sigma = 2^(e+M), with 2^e above every |p| of
a row of N values and 2^M >= N + 2, splits each p into a high part q, whose
sum over the row is exact in any order, and an exact residual p - q of at
most 2^(e+M-53).  Extraction repeats on the residuals, with that bound in
place of their largest, until their plain sum, with its error bound, can no
longer move the rounded total; ``math.fsum`` of the few exact partial sums
then gives the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (ConfigError, DomainError, IsometryViolation,
                     NonPositiveMeanCurvature)
from .geometry import (MetricField, QuadratureGrid, SurfaceData, SurfaceForms,
                       hyperbolic_ball_metric, mass_aspect_trace,
                       surface_forms)
from .hypgeom import areal_to_minkowski
from .lorentz import LorentzVector
from .spinor import GAMMAS, _as_spinor

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


# rows of at most this many values go to math.fsum of their list: faster up
# to about here than the extraction's passes (20 us either way at 512)
_FSUM_SHORT = 512


def _fsum(p: np.ndarray, q: np.ndarray) -> float:
    """``math.fsum(p)`` of a float (N,) array ``p``: of ``p.tolist()`` for a
    row of at most ``_FSUM_SHORT`` values, otherwise by error-free
    extraction (module docstring), in ``p`` itself and ``q``, a scratch
    buffer of N values: the residuals overwrite ``p``.  A row whose
    extraction constant would overflow goes to ``math.fsum`` too, and one
    whose sum is past the range of a float, or that holds inf and -inf,
    sums to nan."""
    n = len(p)
    M = (n + 1).bit_length()          # 2^M >= n + 2
    # a plain sum of n values of magnitude at most b is off by at most
    # 2 n^2 u b (u = 2^-53): twice that covers the rounding of the bound,
    # and n times the least subnormal its underflow
    slack = 4.0 * n * n * 2.0 ** -53
    big = max(p.max(), -p.min()) if n > _FSUM_SHORT else math.inf
    if not big < 2.0 ** (1023 - M):   # short, nan, inf or near the overflow
        try:
            total = math.fsum(p.tolist())
        except (OverflowError, ValueError):   # past the range, inf - inf
            total = math.nan
    else:
        parts = []                    # exact partial sums
        while True:
            sigma = math.ldexp(1.0, math.frexp(big)[1] + M)
            np.add(p, sigma, out=q)
            q -= sigma
            parts.append(float(q.sum()))
            p -= q
            s = float(p.sum())
            # each residual is the rounding of p + sigma, at most u sigma;
            # residuals that sum to 0 may all be 0, which only their
            # largest shows (the bound sinks by 2^(M - 52) a round)
            big = sigma * 2.0 ** -53 if s else max(p.max(), -p.min())
            # rounded once both ends of the residuals' error bound round to
            # the same float
            d = slack * big + n * 5e-324 if big else 0.0
            total = math.fsum((*parts, s, -d))
            if total == math.fsum((*parts, s, d)):
                break
    return total


@np.errstate(over="ignore", invalid="ignore")
def _row_sums(shape: tuple, rows, *factors) -> list:
    """The exact sums over the nodes of ``shape`` (last axis phi) of each
    row of ``rows`` times ``factors``, reduced over phi first as the shapes
    of the row's factors allow:

    - none has a phi axis: the row is a theta column, so with n_phi = 2^a
      b, b odd, the column repeated b times is summed and scaled by 2^a,
      the N-node sum bit for bit (2^a commutes with rounding, and a sum
      below 2^-1021 is exact).  A scaled sum past the largest float takes
      the N-node path, which refuses it;
    - one has, at shape (1, n_phi): it is cos phi or sin phi, the only
      phi-only factors any producer makes (:func:`areal_to_minkowski`),
      and the row sums to 0.0, the n_phi-point trapezoid rule's exact
      integral, not the rounding noise of its nodes, or to nan where the
      product of its theta columns is not finite;
    - otherwise the row is written out over the N nodes.

    A row is written in a buffer of the shape it needs, made on first need:
    its first factor is copied in, the rest and then ``factors`` are
    multiplied in, in order, and it is summed in place by :func:`_fsum`.  A
    sum that is not a finite float (an integrand overflowed) is a
    DomainError that names every sum of the integral."""
    buffers = {}

    def node_sum(row, at):
        if at not in buffers:
            nodes = np.empty(at)
            buffers[at] = nodes, nodes.reshape(-1), np.empty(nodes.size)
        nodes, p, q = buffers[at]
        np.copyto(nodes, row[0])
        for f in row[1:]:
            nodes *= f
        return _fsum(p, q)

    *theta, n_phi = shape
    a = (n_phi & -n_phi).bit_length() - 1          # n_phi = 2^a b, b odd
    sums = []
    for row in rows:
        row = (*row, *factors)
        phi = [s for s in map(np.shape, row) if s[-1:] not in ((), (1,))]
        if phi == [(1, n_phi)]:
            # nan, as the nodes would sum, where the theta column is not
            # finite: its inf or nan times cos phi or sin phi
            column = math.prod(f for f in row if np.shape(f) != (1, n_phi))
            sums.append(0.0 if np.all(np.isfinite(column)) else math.nan)
            continue
        if not phi:
            total = node_sum(row, (*theta, n_phi >> a))
            if math.frexp(total)[1] + a <= 1024:    # 2^a total is a float
                sums.append(math.ldexp(total, a))
                continue
        sums.append(node_sum(row, shape))
    if not all(map(math.isfinite, sums)):
        raise DomainError(f"a node integral overflows a float: {sums}")
    return sums


# ---------------------------------------------------------------------------
# shared per-surface data


@dataclass
class SurfaceMassData:
    """Node data entering every mass integral: a surface in its ambient
    (:func:`surface_mass_data`) or a small sphere (:func:`ah_sphere_data`),
    each field at the shape it is computed at.  The positions X of F0's
    nodes are the four rows of factors of :func:`areal_to_minkowski`, each
    row multiplied out only in the buffer of an integral."""

    H: np.ndarray            # ambient-side mean curvature
    H0: np.ndarray           # H^3-side mean curvature
    measure: np.ndarray      # quadrature weight * area element
    X: tuple                 # rows (x1, x2, x3, t) of F0's positions
    k: float
    killing_forms: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def shape(self) -> tuple:
        """The node shape, the broadcast of the factors of X: every field
        broadcasts to it, and it flattens to the theta-major node order."""
        return np.broadcast_shapes(*(np.shape(f) for row in self.X
                                     for f in row))

    def weighted(self, factor, t_scale: float = 1.0) -> list:
        """The exact sums of measure (factor X_c) over the nodes for the rows
        c of X (x1, x2, x3, t), X_t scaled by ``t_scale`` first: measure
        ((t_scale X_t) factor)."""
        x1, x2, x3, t = self.X
        return _row_sums(self.shape, (x1, x2, x3, (*t, t_scale)), factor,
                         self.measure)

    def area(self) -> float:
        """int dSigma, the exact sum of the measure over the nodes."""
        return _row_sums(self.shape, ((self.measure,),))[0]

    @property
    def weight(self) -> np.ndarray:
        """(H_0^2 - H^2)/H at each node: the weight of X in the integrand
        of E."""
        return (self.H0 ** 2 - self.H ** 2) / self.H

    @np.errstate(over="ignore", invalid="ignore")
    def energy(self) -> LorentzVector:
        """E(Sigma) = int ((H_0^2 - H^2)/H) X dSigma."""
        return LorentzVector(*self.weighted(self.weight))

    def killing_form(self, sign: int) -> np.ndarray:
        """Q_sign = 2 (E_t Id + sign i E_s . gamma), E(Sigma) in the spinor
        basis: a^H Q a = -2 <E, zeta_a^{sign}>, the spinor-weighted integral
        int ((H_0^2 - H^2)/H) |psi_a^{sign}|^2 dSigma.  ``sign`` is +-1 in
        any numeric type; Q is built once for each, at k = 1 only, and is
        read-only."""
        if self.k != 1.0:
            raise DomainError("spinor-weighted integrals require k = 1")
        if sign not in (1, -1):
            raise DomainError("sign must be +1 or -1")
        sign = int(sign)
        if sign not in self.killing_forms:
            E = self.energy()
            E_gamma = np.einsum("j,jkl->kl", (E.x1, E.x2, E.x3), GAMMAS)
            Q = 2.0 * (E.t * np.eye(2) + sign * 1j * E_gamma)
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


def _refuse_nonpositive(name: str, H, grid: QuadratureGrid, where: str = ""):
    """Refuse H <= 0 anywhere on ``grid``, naming the least H and its first
    node by :meth:`QuadratureGrid.least_node`, whatever shape H has."""
    if np.any(H <= 0.0):
        least, node = grid.least_node(H)
        raise NonPositiveMeanCurvature(
            f"{name} = {least:.6g} <= 0 at {grid.describe_node(node)}{where}")


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
    H, grid = forms.mean_curvature, surface.grid
    _refuse_nonpositive("H", H, grid)
    # F0's nodes on the hyperboloid from their areal radius R0, exact with
    # no chart in between
    X = areal_to_minkowski(forms0.radius, *grid.node_axes(), surface.k)
    return SurfaceMassData(H=H, H0=forms0.mean_curvature,
                           measure=grid.measure_weights() * forms.area_element,
                           X=X, k=surface.k)


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
    return LorentzVector(*data.weighted(data.H0 - data.H, alpha))


def round_sphere_quadrature(g0_coeff: float, linear,
                            grid: QuadratureGrid) -> tuple:
    """The round sphere on ``grid`` with the mass-aspect tensor h of
    :func:`mass_aspect_trace` on it: ``(grid, w, tau)``, the grid, the
    weights du dphi of dS on the theta axis and tr(h) at the shape it varies
    on.  They are all that :func:`ah_sphere_data` and :func:`wang_mass`
    read, so one build serves every radius."""
    w = grid.u_weights[:, None] * (2.0 * math.pi / grid.n_phi)
    return grid, w, mass_aspect_trace(g0_coeff, linear, *grid.node_axes())


@np.errstate(over="ignore", invalid="ignore")
def wang_mass(sphere: tuple) -> LorentzVector:
    """Wang's AH energy-momentum from the mass-aspect tensor h, on the
    :func:`round_sphere_quadrature` data ``sphere``.

    The scalar slot is int tr(h) dS and the vector slot int tr(h) x dS over
    the round sphere, stored as the time and the spatial part of the
    LorentzVector: the rows x, y, z of X at R = 1 and the row 1, times w
    and tau, summed over the grid's nodes.
    """
    grid, w, tau = sphere
    rows = (*areal_to_minkowski(1.0, *grid.node_axes(), 1.0)[:3], (1.0,))
    return LorentzVector(*_row_sums((grid.n_theta, grid.n_phi), rows, w,
                                    tau))


def killing_weighted_mass(surface: SurfaceData, ambient: MetricField, a,
                          sign: int, data: Optional[SurfaceMassData] = None):
    """int ((H_0^2 - H^2)/H) |psi_a^{sign}|^2 dSigma (k = 1) for spinors
    ``a`` of shape (..., 2), a float for one spinor: Re(a^H Q a), with Q the
    :meth:`SurfaceMassData.killing_form` of E(Sigma)."""
    a = _as_spinor(a)
    Q = (data or surface_mass_data(surface, ambient)).killing_form(sign)
    val = np.einsum("...k,kl,...l->...", a.conj(), Q, a)
    return float(val.real) if val.ndim == 0 else val.real


# ---------------------------------------------------------------------------
# asymptotically hyperbolic small-sphere machinery


def ah_sphere_data(r: float, sphere: tuple) -> SurfaceMassData:
    """Truncated small-sphere expansion data for the geodesic sphere S_r,
    0 < r <= 0.5, on the :func:`round_sphere_quadrature` data ``sphere``
    (k = 1): H and H_0 from the collar expansions truncated at the printed
    orders (the omitted terms are o(r^3) relative), the round dS over
    sinh^2 r, and the exact hyperboloid points of areal radius sinh(rho_r) =
    1/r at the nodes, matching the displayed leading behavior (x/r, 1/r).
    H_0 = cosh r at every node is one float, and H has the shape of tr h."""
    if not 0.0 < r <= 0.5:
        raise ConfigError(f"radius r = {r!r} must lie in (0, 0.5]")
    grid, w, tau = sphere
    H = math.cosh(r) - 0.25 * r ** 3 * tau
    _refuse_nonpositive("expanded H", H, grid, f" for r = {r}")
    return SurfaceMassData(
        H=H, H0=math.cosh(r), measure=w * (1.0 / math.sinh(r) ** 2),
        X=areal_to_minkowski(1.0 / r, *grid.node_axes(), 1.0), k=1.0)


def asymptotic_limit(sphere: tuple, radii) -> tuple:
    """E(S_r) along decreasing radii, on the :func:`round_sphere_quadrature`
    data ``sphere``, and its Richardson limit, as the pair
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
