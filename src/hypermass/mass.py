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
every integral is one call of :func:`_row_sums`: each row, the product of
its factors times the integrand's, is summed at the shape of its factors.
A row with no factor on the phi axis is summed as its theta column; cos phi
or sin phi times a theta column is 0, what the trapezoid rule in phi gives;
a row with a field on both axes, on a grid of more than ``_FSUM_SHORT``
nodes, is long: it is summed a block of at most ``_BLOCK_NODES`` nodes of
theta rows at a time, phi first, into one entry per theta row, and the
entries times its theta factors are summed as a theta column.  Any other
row, of at most ``_FSUM_SHORT`` nodes, is written out over its nodes.  So
no integral holds X, its integrand or E(Sigma)'s weight, which is formed a
block at a time too, as an array of N values.

A row of at most ``_FSUM_SHORT`` values, such as a theta column, sums to
the correctly rounded ``math.fsum`` of its values, and a longer one to
numpy's pairwise sum, within the bound stated at :func:`_fsum`; a long
row's phi-first sum is within the bound stated at :func:`_row_sums`
(Higham, "The accuracy of floating point summation", SIAM J. Sci. Comput.
14, 1993).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (ConfigError, DomainError, IsometryViolation,
                     NonPositiveMeanCurvature)
from .geometry import (MetricField, QuadratureGrid, SurfaceData,
                       gauss_curvature, graph_terms, mass_aspect_trace,
                       paired_forms, scalar_curvature)
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


# rows of at most this many values go to math.fsum of their list: on the
# convergence benchmark, AdS coordinate spheres whose integrals are theta
# columns of at most 128 values, their correctly rounded sums are worth 0.30
# of digits_mean (the digits of E_t against its closed form) over np.sum
_FSUM_SHORT = 512

# nodes per block of theta rows of the node pass and of a long row's sum: a
# grid of at most this many nodes, or whose jets have no phi axis, is one
# block of the node pass
_BLOCK_NODES = 1 << 12


def _fsum(p: np.ndarray) -> float:
    """The sum of a float (N,) array ``p``: ``math.fsum(p.tolist())`` for a
    row of at most ``_FSUM_SHORT`` values, or nan where math.fsum refuses it
    (a sum past the range of a float, or inf and -inf); numpy's pairwise
    sum of a longer row, inf or nan where math.fsum refuses it.

    A longer row's sum is within (ceil(log2 N) + 19) u sum |p|, u = 2^-53,
    of math.fsum's: numpy's pairwise sum (8 accumulators over blocks of at
    most 128 values, halved above that) rounds each value at most
    ceil(log2 N) + 17 times, whose error bound gamma is below
    (ceil(log2 N) + 18) u sum |p|, and math.fsum rounds once.
    :func:`_row_sums` hands it the theta column of a long row's entries,
    not the row's N node values."""
    if len(p) <= _FSUM_SHORT:
        try:
            return math.fsum(p.tolist())
        except (OverflowError, ValueError):   # past the range, inf - inf
            return math.nan
    return float(p.sum()) + 0.0   # math.fsum's 0.0 for -0.0s, on any numpy


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
    """The :func:`_fsum` sums over the nodes of ``shape`` (last axis phi) of
    each row of ``rows`` times ``factors``, reduced over phi first as the
    shapes of the row's factors allow:

    - none has a phi axis: the row is a theta column, so with n_phi = 2^a
      b, b odd, the column repeated b times is summed and scaled by 2^a,
      which keeps the correctly rounded N-node sum of a short column bit
      for bit (2^a commutes with rounding, and a sum below 2^-1021 is
      exact).  A scaled sum past the largest float takes the N-node path,
      which refuses it;
    - one has, at shape (1, n_phi): it is cos phi or sin phi, the only
      phi-only factors any producer makes (:func:`areal_to_minkowski`),
      and the row sums to 0.0, the n_phi-point trapezoid rule's exact
      integral, not the rounding noise of its nodes, or to nan where the
      product of its theta columns is not finite;
    - a field on both axes, on more than ``_FSUM_SHORT`` nodes: the row is
      long, and is summed a block of at most ``_BLOCK_NODES`` nodes of
      theta rows at a time.  In each block its fields are multiplied, in
      order, then its cos phi or sin phi, and the product is reduced along
      phi by numpy's pairwise sum into one entry per theta row; rows of the
      same fields share that product, and rows of the same fields and trig
      factors their entries too.  The entries times the row's theta
      factors, in order, are summed by :func:`_fsum` as a theta column;
    - otherwise (at most ``_FSUM_SHORT`` nodes) the row is written out over
      the nodes.

    A factor of ``factors`` may be ``(fn, *fields)``, fn of the fields: a
    block at a time in the long rows, where it has a phi axis on a long
    grid, else formed whole once.  A row written out, or a theta column,
    is its first factor times the rest and then ``factors``, in order, and
    is summed by :func:`_fsum`.  A sum that is not a finite float (an
    integrand overflowed) is a DomainError that names every sum of the
    integral.

    A long row's sum is within (d(n_phi) + 2 m + d_theta + 1) u sum |q|,
    to first order in u = 2^-53, of math.fsum of its node products q, its
    factors multiplied out at each node in the order the blocks use them
    (fields, trig, then theta factors): d(n) <= ceil(log2 n) + 17 is the
    most roundings numpy's pairwise sum puts on a value (at :func:`_fsum`;
    log2 n + 11 for n a power of two), each of the m theta factors rounds
    once on a theta row's entry where it rounds once on each node of q,
    and d_theta is 1 for math.fsum of at most ``_FSUM_SHORT`` entries and
    d(n_theta) past it.  As ceil(log2 N) >= ceil(log2 n_phi) +
    ceil(log2 n_theta) - 1, that is within :func:`_fsum`'s bound for one
    row of N values, (ceil(log2 N) + 19) u sum |q|, wherever n_theta <=
    ``_FSUM_SHORT`` and 2 m + 1 <= ceil(log2 n_theta), or n_phi is a power
    of two and m <= 3 (the producers' rows have m <= 3); a column of more
    than ``_FSUM_SHORT`` entries adds d(n_theta) - 1."""
    def node_sum(row, at):
        nodes = np.full(at, row[0])
        for f in row[1:]:
            nodes *= f
        return _fsum(nodes.reshape(-1))

    n_theta, n_phi = (1, *shape)[-2:]
    a = (n_phi & -n_phi).bit_length() - 1          # n_phi = 2^a b, b odd
    long = n_theta * n_phi > _FSUM_SHORT
    # a factor (fn, *fields) with a phi axis stays one on a long grid, to be
    # formed a block at a time, and is formed whole elsewhere
    factors = [f if long and np.shape(_at(f, slice(0)))[-1:] not in ((), (1,))
               else _at(f) for f in factors]
    # the phi factors of long rows, fields and trig, by their ids, with the
    # entries of their theta rows; a long row's place in sums holds its
    # entries and theta factors until the blocks are summed
    sums, phis = [], {}
    for row in rows:
        row = (*row, *factors)
        fields, trig, thetas = [], [], []
        for f in row:
            s = (0, n_phi) if isinstance(f, tuple) else np.shape(f)
            (thetas if s[-1:] in ((), (1,)) else
             trig if s == (1, n_phi) else fields).append(f)
        if fields and long:
            key = tuple([id(f) for f in fields]), tuple([id(f) for f in trig])
            *_, entries = phis.setdefault(key, (fields, trig,
                                                np.empty((n_theta, 1))))
            sums.append((entries, *thetas))
            continue
        if not fields and len(trig) == 1:
            # nan, as the nodes would sum, where the theta column is not
            # finite: its inf or nan times cos phi or sin phi
            column = math.prod(thetas)
            sums.append(0.0 if np.all(np.isfinite(column)) else math.nan)
            continue
        if not fields and not trig:
            total = node_sum(row, (n_theta, n_phi >> a))
            if math.frexp(total)[1] + a <= 1024:    # 2^a total is a float
                sums.append(math.ldexp(total, a))
                continue
        sums.append(node_sum(row, shape))
    step = max(1, _BLOCK_NODES // n_phi)
    for lo in range(0, n_theta, step):
        block, products = slice(lo, lo + step), {}
        for (key, _), (fields, trig, entries) in phis.items():
            if key not in products:     # rows of the same fields share it
                products[key] = math.prod([_at(f, block) for f in fields[1:]],
                                          start=_at(fields[0], block))
            entries[block, 0] = math.prod(trig, start=products[key]).sum(-1)
    sums = [node_sum(s, (n_theta, 1)) if isinstance(s, tuple) else s
            for s in sums]
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
    dict of ``isometry_mismatch`` (max |I - I0|), ``min_gauss_plus_k2``
    (K of F0 by the Gauss equation) and ``min_scalar_plus_6k2`` (R of the
    ambient at F's nodes).  A surface without F0 raises MissingEmbedding
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
    iso = [0.0] * 3
    # np.minimum carries a nan from any block, as np.min of the grid would
    min_k = min_r = math.inf
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
        # the forms refuse an I that is not finite, so no |I0 - I| is nan
        iso = [max(m, np.max(np.abs(d))) for m, d in zip(iso, dI)]
        min_k = np.minimum(min_k, np.min(gauss_curvature(forms0, -k * k)))
        min_r = np.minimum(min_r, np.min(scalar_curvature(ambient,
                                                          forms.radius)))
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
        del graph, graph0, forms, forms0, dI, dH
        lo = hi
    checks = {"isometry_mismatch": float(max(iso)),
              "min_gauss_plus_k2": float(min_k + k * k),
              "min_scalar_plus_6k2": float(min_r + 6.0 * k * k)}
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
    tau = sphere[2]
    # dH and H of every radius, written in place
    out = np.empty((2, *tau.shape)) if np.ndim(tau) else (None, None)
    energies = np.array([ah_sphere_data(r, sphere, out).energy()
                         for r in radii])
    (r1, r2), (E1, E2) = radii[-2:], energies[-2:]
    return energies, (1.0 / (r1 - r2)) * (r1 * E2 - r2 * E1)
