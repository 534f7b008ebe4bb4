"""Mass functionals: E(Sigma), the Shi-Tam vector, Wang's AH mass and the
small-radius asymptotic limit.

Everything is assembled from the extrinsic data of the surface in its
ambient manifold (mean curvature H) and of its isometric image in
H^3_{-k^2} (mean curvature H_0 and hyperboloid position X):

    E(Sigma)    = int (H_0^2 - H^2)/H  X          dSigma
    M_alpha     = int (H_0 - H) (x_1, x_2, x_3, alpha t) dSigma

Both are read off dH = H_0 - H, the first as dH (2 H + dH)/H, and no
difference of the two curvatures is taken where dH has a closed form: on a
surface that is its own H^3 image, the node pass builds dH from delta V =
V - V0 (:func:`geometry.paired_forms`).  That pass (:func:`mass_forms`, a
block of theta rows at a time) and the small-sphere expansion
(:func:`ah_sphere_data`) both make a :class:`SurfaceMassData`, so E(Sigma)
and E(S_r) are one sum, :meth:`SurfaceMassData.energy`.

H <= 0 anywhere is a hard error, never a silent skip.

X is stored as the rows of factors of :func:`areal_to_minkowski`, and
every integral is one call of :func:`_row_sums`, with one rule for each
row, the product of its factors times the integrand's: its phi sum, one
per theta row, times its theta factors is a theta column, summed by
:func:`_fsum`, the correctly rounded ``math.fsum`` of its n_theta values.
The phi sum is n_phi where no factor has a phi axis, 0 for cos phi or sin
phi alone, what the trapezoid rule in phi gives, and otherwise numpy's
pairwise sum along phi of the row's phi factors, formed a block of at most
``_BLOCK_NODES`` nodes of theta rows at a time.  So no integral holds X,
its integrand or E(Sigma)'s weight, which is formed a block at a time too,
as an array of N values, and every sum is within the bound stated at
:func:`_row_sums` (Higham, "The accuracy of floating point summation",
SIAM J. Sci. Comput. 14, 1993).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (ConfigError, DomainError, IsometryViolation,
                     NonPositiveMeanCurvature)
from .geometry import (MetricField, QuadratureGrid, SurfaceData,
                       gauss_curvature, graph_terms, mass_aspect_trace,
                       paired_forms)
from .hypgeom import areal_to_minkowski
from .lorentz import LorentzVector
from .spinor import GAMMAS, _spinor_parts

__all__ = [
    "SurfaceMassData",
    "mass_forms",
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
# node sums


# nodes per block of theta rows of the node pass and of a row's phi sums: a
# grid of at most this many nodes, or whose jets have no phi axis, is one
# block of the node pass
_BLOCK_NODES = 1 << 12


def _fsum(p: np.ndarray) -> float:
    """``math.fsum(p.tolist())``, the correctly rounded sum of a float (n,)
    array ``p``, or nan where math.fsum refuses it (a sum past the range of
    a float, or inf and -inf)."""
    try:
        return math.fsum(p.tolist())
    except (OverflowError, ValueError):     # past the range, inf - inf
        return math.nan


def _at(f, rows=slice(None)):
    """A row's factor ``f`` at the theta rows ``rows`` of the grid: f itself
    where it has no theta axis, and fn of its fields there for a factor
    ``(fn, *fields)``.  At ``slice(0)``, no row, a factor with a phi axis
    has one, of n_phi nodes, and one on both axes is of shape (0, n_phi),
    so its shape there tells what kind of factor f is."""
    if isinstance(f, tuple):
        return f[0](*[_at(x, rows) for x in f[1:]])
    return f[rows] if getattr(f, "ndim", 0) == 2 and len(f) > 1 else f


@np.errstate(over="ignore", invalid="ignore")
def _row_sums(shape: tuple, rows, *factors) -> list:
    """The sums over the nodes of ``shape``, (n_theta, n_phi), of each row
    of ``rows`` times ``factors``: :func:`_fsum` of the row's theta column,
    its phi sum times its theta factors (those with no phi axis), in order.
    The phi sum of a row is

    - n_phi, where no factor has a phi axis;
    - 0.0, where the only one is cos phi or sin phi, at shape (1, n_phi),
      the only phi-only factors any producer makes
      (:func:`areal_to_minkowski`): the n_phi-point trapezoid rule's exact
      integral, not the rounding noise of its nodes.  It comes after the
      theta factors, so the column is nan, as the nodes would sum, where
      their product is not finite;
    - otherwise, the sum along phi of the row's fields (factors on both
      axes) and phi-only factors, multiplied in that order, by numpy's
      pairwise sum, one per theta row, formed a block of at most
      ``_BLOCK_NODES`` nodes of theta rows at a time.  Rows of the same
      fields share their product, and rows of the same fields and
      phi-only factors their phi sums too.

    A factor of ``factors`` may be ``(fn, *fields)``, fn of the fields:
    formed a block at a time where it has a phi axis, else whole once.  A
    sum that is not a finite float (an integrand overflowed) is a
    DomainError that names every sum of the integral.

    A row's sum is within (d(n_phi) + 2 m + 2) u sum |q|, to first order in
    u = 2^-53, of math.fsum of its node products q, its factors multiplied
    out at each node in the order used here (fields, phi-only factors, then
    theta factors): d(n) <= ceil(log2 n) + 17 is the most roundings numpy's
    pairwise sum (8 accumulators over blocks of at most 128 values, halved
    above that) puts on a value, log2 n + 11 for n a power of two; each of
    the m theta factors rounds once on a theta row's entry where it rounds
    once on each node of q; and math.fsum of the column rounds once.  A row
    with no phi axis, m factors in all, is within 2 m u sum |q|, inside
    that bound at d = 0: n_phi times its factors rounds m times on each
    entry of its column where q rounds m - 1 times.  Where n_phi is a power
    of two and no product leaves the normal range, those products are
    exact, and its sum is math.fsum of its N node values bit for bit."""
    n_theta, n_phi = shape
    # a factor (fn, *fields) with a phi axis is formed a block at a time,
    # any other whole, once
    factors = [f if np.shape(_at(f, slice(0)))[-1:] not in ((), (1,))
               else _at(f) for f in factors]
    # the phi factors of rows with a phi sum per theta row, fields and
    # phi-only, by their ids, with those sums; each row's place in columns
    # holds its phi sum and theta factors until the blocks are summed
    columns, phis = [], {}
    for row in rows:
        row = (*row, *factors)
        fields, trig, thetas = [], [], []
        for f in row:
            s = (0, n_phi) if isinstance(f, tuple) else np.shape(f)
            (thetas if s[-1:] in ((), (1,)) else
             trig if s == (1, n_phi) else fields).append(f)
        if fields or len(trig) > 1:
            key = tuple([id(f) for f in fields]), tuple([id(f) for f in trig])
            *_, phi_sum = phis.setdefault(key, (fields, trig,
                                                np.empty((n_theta, 1))))
            columns.append((phi_sum, *thetas))
        elif trig:      # 0.0 last: nan where the theta product is not finite
            columns.append((*thetas, 0.0))
        else:
            columns.append((float(n_phi), *thetas))
    step = max(1, _BLOCK_NODES // n_phi)
    for lo in range(0, n_theta, step):
        block, products = slice(lo, lo + step), {}
        for (key, _), (fields, trig, phi_sum) in phis.items():
            if key not in products:     # rows of the same fields share it
                fields = [_at(f, block) for f in fields]
                products[key] = (math.prod(fields[1:], start=fields[0])
                                 if fields else 1.0)
            phi_sum[block, 0] = math.prod(trig, start=products[key]).sum(-1)
    sums = []
    for first, *rest in columns:
        column = np.full((n_theta, 1), first)
        for f in rest:
            column *= f
        sums.append(_fsum(column.reshape(-1)))
    if not all(map(math.isfinite, sums)):
        raise DomainError(f"a node integral overflows a float: {sums}")
    return sums


def _energy_weight(H, dH):
    """dH (H_0 + H)/H, E(Sigma)'s weight, as ((H + dH) + H) dH / H."""
    return (H + dH + H) * dH / H


# ---------------------------------------------------------------------------
# shared per-surface data


@dataclass
class SurfaceMassData:
    """Node data entering every mass integral, made by :func:`mass_forms`
    or :func:`ah_sphere_data`: each field at the shape it is computed at,
    broadcasting to ``grid``.  ``X`` is F0's positions as the rows of
    factors of :func:`areal_to_minkowski` of ``R0``, and ``shape`` the
    grid's."""

    H: np.ndarray            # ambient-side mean curvature
    dH: np.ndarray           # H0 - H, H0 the H^3-side mean curvature
    measure: np.ndarray      # quadrature weight * area element
    R0: np.ndarray           # areal radius of F0's nodes
    grid: QuadratureGrid
    k: float
    killing_forms: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.shape = (self.grid.n_theta, self.grid.n_phi)
        self.X = areal_to_minkowski(self.R0, *self.grid.node_axes(), self.k)

    def weighted(self, factor, t_scale: float = 1.0) -> list:
        """The :func:`_row_sums` of measure (factor X_c) over the nodes for
        the rows c of X (x1, x2, x3, t), X_t scaled by ``t_scale`` first:
        measure ((t_scale X_t) factor); ``factor`` may be a factor
        ``(fn, *fields)`` of :func:`_row_sums`."""
        x1, x2, x3, t = self.X
        if t_scale != 1.0:              # 1.0 X_t is X_t
            t = (*t, t_scale)
        return _row_sums(self.shape, (x1, x2, x3, t), factor, self.measure)

    def area(self) -> float:
        """int dSigma, the :func:`_row_sums` sum of the measure over the
        nodes."""
        return _row_sums(self.shape, ((self.measure,),))[0]

    def energy(self) -> LorentzVector:
        """E(Sigma) = int (dH (H_0 + H)/H) X dSigma, H_0 = H + dH, the
        weight formed by :func:`_row_sums`, a block at a time in long rows."""
        return LorentzVector(*self.weighted((_energy_weight, self.H, self.dH)))

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
    """The one node pass of both sides that the hypothesis checks and every
    mass integral share, as ``(data, checks)``: the
    :class:`SurfaceMassData` of F in ``ambient`` and F0 in H^3, and the
    dict of ``isometry_mismatch`` (the max over nodes of max(|E0 - E|,
    |F0 - F|, |G0 - G|) / max(E, G), I = (E, F, G) of F in ``ambient``),
    ``min_gauss_plus_k2`` (K of F0 by the Gauss equation) and
    ``min_scalar_plus_6k2`` (R + 6k^2 of ``ambient``, exact on its whole
    chart).  A surface without F0 raises MissingEmbedding
    before any work is done."""
    surface.h3_view()           # MissingEmbedding before any work
    grid = surface.grid
    rows = max(1, _BLOCK_NODES // grid.n_phi)
    try:
        return _node_pass(surface, ambient, rows)
    except DomainError:
        if rows >= grid.n_theta:
            raise
    # run again as one block, so that the error names the whole grid's
    # extreme R
    return _node_pass(surface, ambient, grid.n_theta)


def _phi_axis(*jets) -> bool:
    """Whether any entry of the 2-jets ``jets`` has a phi axis."""
    return any(getattr(x, "shape", ())[-1:] not in ((), (1,))
               for R, first, second in jets for x in (R, *first, *second))


def _node_pass(surface: SurfaceData, ambient: MetricField,
               rows: int) -> tuple:
    """:func:`mass_forms` in blocks of ``rows`` theta rows, or in one block
    when the first block's jets have no phi axis; a grid of one block keeps
    its fields at the shape the pass computed them."""
    grid, k = surface.grid, surface.k
    weights = grid.measure_weights()
    iso = 0.0
    # np.minimum carries a nan from any block, as np.min of the grid would
    min_k = math.inf
    fields = None
    phi = grid.phi[None, :]
    lo = 0
    while lo < grid.n_theta:
        hi = min(lo + rows, grid.n_theta)
        theta = grid.theta[lo:hi, None]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            jet = surface.F(theta, phi)
            jet0 = jet if surface.F0 is surface.F else surface.F0(theta, phi)
        if hi < grid.n_theta and not (lo or _phi_axis(jet, jet0)):
            rows = grid.n_theta
            continue
        # the graph terms hold what the pass reads of the jets; graph0 is
        # graph exactly when F0 is F
        graph = graph_terms(theta, jet)
        graph0 = graph if jet0 is jet else graph_terms(theta, jet0)
        del jet, jet0
        forms, forms0, dI, dH = paired_forms(ambient, k, graph, graph0)
        # the forms refuse an I that is not finite, so no |I0 - I| is nan,
        # and each is measured on the scale max(E, G) >= R^2 > 0 of I
        scale = np.maximum(forms.first[0], forms.first[2])
        iso = max(iso, *(np.max(np.abs(d) / scale) for d in dI))
        min_k = np.minimum(min_k, np.min(gauss_curvature(forms0, -k * k)))
        block_fields = (forms.mean_curvature, dH,
                        weights[lo:hi] * forms.area_element,
                        forms0.radius)
        if rows >= grid.n_theta:
            fields = block_fields
        else:
            if fields is None:
                fields = [np.empty((grid.n_theta, grid.n_phi))
                          for _ in block_fields]
            for out, x in zip(fields, block_fields):
                out[lo:hi] = x
        # the next block's pass runs without this one's arrays, but for
        # block_fields: with every array freed, malloc handed the block's
        # memory back to the system and faulted it in again for the next
        # block (1342 page faults in a tilted 128x256 op against 759)
        del graph, graph0, forms, forms0, dI, dH, scale
        lo = hi
    # R is -6a on the whole chart, and 6.0 * (k * k) cancels a = k * k
    # exactly
    checks = {"isometry_mismatch": float(iso),
              "min_gauss_plus_k2": float(min_k + k * k),
              "min_scalar_plus_6k2": float(ambient.scalar_curvature()
                                           + 6.0 * (k * k))}
    return SurfaceMassData(*fields, grid=grid, k=k), checks


def _refuse_nonpositive(name: str, H, grid: QuadratureGrid, where: str = ""):
    """Refuse H <= 0 anywhere on ``grid``, naming the least H and its first
    node by :meth:`QuadratureGrid.least_node`, whatever shape H has."""
    if np.any(H <= 0.0):
        least, node = grid.least_node(H)
        raise NonPositiveMeanCurvature(
            f"{name} = {least:.6g} <= 0 at {grid.describe_node(node)}{where}")


def surface_mass_data(surface: SurfaceData, ambient: MetricField,
                      iso_tol: float = ISO_TOL,
                      forms: Optional[tuple] = None) -> SurfaceMassData:
    """The :class:`SurfaceMassData` of ``surface`` in ``ambient``, from
    ``forms``, the :func:`mass_forms` pair of a caller that has it, or a
    pass of its own; raises IsometryViolation past ``iso_tol`` and
    NonPositiveMeanCurvature where H <= 0."""
    data, checks = forms or mass_forms(surface, ambient)
    mismatch = checks["isometry_mismatch"]
    if mismatch > iso_tol:
        raise IsometryViolation(
            f"induced metrics disagree by {mismatch:.3e} (tol {iso_tol:.1e})")
    _refuse_nonpositive("H", data.H, surface.grid)
    return data


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


def shi_tam_vector(data: SurfaceMassData, alpha: float) -> LorentzVector:
    """M_alpha = int (H_0 - H) (x_1, x_2, x_3, alpha t) dSigma."""
    if alpha < 1.0:
        raise DomainError("alpha must be >= 1")
    return LorentzVector(*data.weighted(data.dH, alpha))


def round_sphere_quadrature(g0_coeff: float, linear,
                            grid: QuadratureGrid) -> tuple:
    """The round sphere on ``grid`` with the mass-aspect tensor h of
    :func:`mass_aspect_trace` on it: ``(grid, w, tau)``, the grid, the
    weights du dphi of dS on the theta axis and tr(h) at the shape it varies
    on.  They are all that :func:`ah_sphere_data` and :func:`wang_mass`
    read, so one build serves every radius."""
    w = grid.u_weights[:, None] * (2.0 * math.pi / grid.n_phi)
    return grid, w, mass_aspect_trace(g0_coeff, linear, *grid.node_axes())


def wang_mass(sphere: tuple) -> LorentzVector:
    """Wang's AH energy-momentum from the mass-aspect tensor h, on the
    :func:`round_sphere_quadrature` data ``sphere``.

    The scalar slot is int tr(h) dS and the vector slot int tr(h) x dS over
    the round sphere, stored as the time and the spatial part of the
    LorentzVector: the rows x, y, z of X at R = 1 and the row 1, times w
    and tau, summed over the grid's nodes.
    """
    grid, w, tau = sphere
    # the rows of X at R = 1 without their factors R
    (st, cp, _), (_, sp, _), (_, ct), _ = areal_to_minkowski(
        1.0, *grid.node_axes(), 1.0)
    rows = ((st, cp), (st, sp), (ct,), ())
    return LorentzVector(*_row_sums((grid.n_theta, grid.n_phi), rows, w,
                                    tau))


def killing_weighted_mass(surface: SurfaceData, ambient: MetricField, a,
                          sign: int, data: Optional[SurfaceMassData] = None):
    """int ((H_0^2 - H^2)/H) |psi_a^{sign}|^2 dSigma (k = 1) for spinors
    ``a`` of shape (..., 2), a float for one spinor: Re(a^H Q a), with Q the
    :meth:`SurfaceMassData.killing_form` of E(Sigma).

    Re(a^H Q a) is written out in real arithmetic, one formula for one
    spinor in floats and for a stack in arrays, rounded as a complex
    ``einsum`` of one spinor rounds it: each term is the product
    (conj(a_k) Q_kl) a_l, taken in that order, of two complex products
    (x + iy)(u + iv) = (xu - yv) + i(xv + yu), each real product and sum
    rounded on its own; the real parts of the terms are summed over l for
    each k, and those sums over k, each sum from 0.0."""
    (r0, r1), (i0, i1) = _spinor_parts(a)          # a_l = r_l + i i_l
    Q = (data or surface_mass_data(surface, ambient)).killing_form(sign)
    (q00, q01), (q10, q11) = Q.tolist()
    # t_kl = Re(z a_l), z = conj(a_k) Q_kl = u + i v
    u, v = r0 * q00.real + i0 * q00.imag, r0 * q00.imag - i0 * q00.real
    t00 = u * r0 - v * i0
    u, v = r0 * q01.real + i0 * q01.imag, r0 * q01.imag - i0 * q01.real
    t01 = u * r1 - v * i1
    u, v = r1 * q10.real + i1 * q10.imag, r1 * q10.imag - i1 * q10.real
    t10 = u * r0 - v * i0
    u, v = r1 * q11.real + i1 * q11.imag, r1 * q11.imag - i1 * q11.real
    t11 = u * r1 - v * i1
    return (0.0 + t00 + t01) + (0.0 + t10 + t11)


# ---------------------------------------------------------------------------
# asymptotically hyperbolic small-sphere machinery


def ah_sphere_data(r: float, sphere: tuple,
                   out=(None, None)) -> SurfaceMassData:
    """Truncated small-sphere expansion data for the geodesic sphere S_r,
    0 < r <= 0.5, on the :func:`round_sphere_quadrature` data ``sphere``
    (k = 1): H and H_0 from the collar expansions truncated at the printed
    orders (the omitted terms are o(r^3) relative), the round dS over
    sinh^2 r, and the exact hyperboloid points of areal radius sinh(rho_r) =
    1/r at the nodes, matching the displayed leading behavior (x/r, 1/r).
    dH = H_0 - H = (r^3/4) tr h, H_0 = cosh r, is handed over as expanded,
    and dH and H have the shape of tr h; ``out``, a pair of arrays of that
    shape, receives them, so that a series of radii writes them in place."""
    if not 0.0 < r <= 0.5:
        raise ConfigError(f"radius r = {r!r} must lie in (0, 0.5]")
    grid, w, tau = sphere
    dH = np.multiply(0.25 * r ** 3, tau, out=out[0])   # H0 - H, as expanded
    H = np.subtract(math.cosh(r), dH, out=out[1])
    _refuse_nonpositive("expanded H", H, grid, f" for r = {r}")
    sinh2 = math.sinh(r) ** 2       # 0.0 below r = 1.5e-162
    if not sinh2:
        raise DomainError(f"dS / sinh^2 r overflows a float for r = {r!r}")
    return SurfaceMassData(H=H, dH=dH, measure=w * (1.0 / sinh2),
                           R0=1.0 / r, grid=grid, k=1.0)


def asymptotic_limit(sphere: tuple, radii) -> tuple:
    """E(S_r) along decreasing radii, on the :func:`round_sphere_quadrature`
    data ``sphere``, and its limit as r -> 0, as the pair
    ``(energies, extrapolated)`` of shapes (len(radii), 4) and (4,).

    E(S_r) = L + c_2 r^2 + c_3 r^3 + ... has no r term: the measure's
    1/sinh^2 r and X's sqrt(1 + 1/r^2) are even in r, and the weight
    (2H + dH) dH/H is 2 dH (1 + O(r^3)).  Cut after r^n, (E - L)/r^2 is
    a polynomial of degree n - 2 in r, so its divided difference over the
    n radii r_i is 0: L = sum a_i E_i / sum a_i, a_i = 1/(r_i^2 prod_{j !=
    i} (r_i - r_j)), and each radius removes one more order.  At least
    three radii are required, so that an observed order can be read off
    the series alongside.  Radii so close together that sum |a_i| is at
    least |sum a_i| / eps are refused: the limit would keep no correct
    digit.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 3:
        raise ConfigError(f"need at least 3 radii, got {len(radii)}")
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ConfigError(f"radii must be strictly decreasing, got {radii}")
    tau = sphere[2]
    # dH and H of every radius, written in place
    out = np.empty((2, *tau.shape)) if np.ndim(tau) else (None, None)
    energies = np.array([ah_sphere_data(r, sphere, out).energy()
                         for r in radii])
    # the a_i in Python floats; a product that underflows to 0 is an
    # infinite a_i, and a sum of them that is not finite is refused
    dens = [r * r * math.prod(r - s for s in radii if s != r) for r in radii]
    alphas = [1.0 / d if d else math.inf for d in dens]
    total = sum(alphas)
    if not (math.isfinite(total) and total):
        raise DomainError(f"the extrapolation weights of radii {radii} "
                          f"are not finite")
    # an error of one ulp in each E_i moves the limit by up to sum |a_i| /
    # |sum a_i| ulps: from 1/eps on, by as much as the limit itself
    spread = sum(abs(a) for a in alphas)
    if spread >= abs(total) / sys.float_info.epsilon:
        raise DomainError(f"the extrapolation over radii {radii} amplifies "
                          f"an error in E(S_r) {spread / abs(total):.3g} "
                          f"times, at least 1/eps: no digit of its limit "
                          f"is correct")
    # + 0.0 writes the limit of h = 0 as 0.0, not -0.0
    return energies, sum(a / total * E for a, E in zip(alphas, energies)) + 0.0
