"""Shared fixtures: the expensive scenario computations are session-scoped so
the mass tests and the acceptance suite reuse one set of surface solves."""

import dataclasses
import math

import numpy as np
import pytest

from hypermass import geometry as geo
from hypermass import mass as massmod
from hypermass import spinor
from hypermass.lorentz import minkowski_inner

ADS_M = 0.1
ADS_RADII = (1.0, 2.0, 4.0)
RIGID_RADII = (0.5, 1.0, 2.0)
ASYMPTOTIC_RADII = (0.2, 0.1, 0.05)
TILTED_LINEAR = (0.1, 0.2, 0.3)
# the linear part of an isotropic mass-aspect tensor
ZERO_LINEAR = (0.0, 0.0, 0.0)


def ads_potential(r, m=ADS_M, k=1.0):
    return 1.0 + (k * r) ** 2 - 2.0 * m / r


@pytest.fixture(scope="session")
def grid64():
    return geo.QuadratureGrid.build(64, 128)


@pytest.fixture(scope="session")
def grid32():
    return geo.QuadratureGrid.build(32, 64)


@pytest.fixture(scope="session")
def hyp_metric():
    return geo.hyperbolic_ball_metric(1.0)


@pytest.fixture(scope="session")
def ads_metric():
    return geo.ads_schwarzschild_metric(ADS_M, 1.0)


@pytest.fixture(scope="session")
def rigid_scenarios(grid64, hyp_metric):
    """Geodesic spheres in H^3 with F = F0: (surface, data, E) per radius."""
    out = {}
    for rho in RIGID_RADII:
        surface = geo.geodesic_sphere_surface(rho, 1.0, grid64)
        data = massmod.surface_mass_data(surface, hyp_metric)
        E = massmod.energy_momentum(surface, hyp_metric, data=data)
        out[rho] = (surface, data, E)
    return out


@pytest.fixture(scope="session")
def ads_scenarios(grid64, ads_metric):
    """AdS-Schwarzschild coordinate spheres: (surface, data, E) per radius."""
    out = {}
    for r in ADS_RADII:
        surface = geo.coordinate_sphere_surface(r, grid64)
        data = massmod.surface_mass_data(surface, ads_metric)
        E = massmod.energy_momentum(surface, ads_metric, data=data)
        out[r] = (surface, data, E)
    return out


@pytest.fixture(scope="session")
def tilted_ads_scenarios(grid32, grid64, ads_metric):
    """A tilted radial profile (base 1, linear TILTED_LINEAR) in
    AdS-Schwarzschild, forced past the isometry check, which F0 = F fails
    there, so that E has a spatial part: (surface, data, E) per grid."""
    out = {}
    for grid in (grid32, grid64):
        surface = geo.radial_profile_surface(1.0, TILTED_LINEAR, 1.0, grid)
        data = massmod.surface_mass_data(surface, ads_metric, iso_tol=1.0)
        E = massmod.energy_momentum(surface, ads_metric, data=data)
        out[grid.n_theta, grid.n_phi] = (surface, data, E)
    return out


@pytest.fixture(scope="session")
def asymptotic_results(grid32):
    """For the three acceptance mass-aspect fields: the asymptotic_limit
    pair (energies, extrapolated) at ASYMPTOTIC_RADII, and Upsilon/2 of
    wang_mass, as a triple."""
    fields = {
        "half_g0": (0.5, ZERO_LINEAR),
        "g0": (1.0, ZERO_LINEAR),
        "x3": (0.0, (0.0, 0.0, 1.0)),
    }
    spheres = {name: massmod.round_sphere_quadrature(*h, grid32)
               for name, h in fields.items()}
    return {name: (*massmod.asymptotic_limit(sphere, ASYMPTOTIC_RADII),
                   0.5 * np.asarray(massmod.wang_mass(sphere)))
            for name, sphere in spheres.items()}


def forms_of(surface, metric):
    """``geometry.surface_forms`` in ``metric`` of the graph of
    ``surface.F``, its jet evaluated on the grid's node axes as the node
    pass evaluates it."""
    theta, phi = surface.grid.node_axes()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        graph = geo.graph_terms(theta, surface.F(theta, phi))
    return geo.surface_forms(metric, graph)


def node_arrays(grid):
    """Flattened (theta, phi) node coordinates of ``grid``, theta-major."""
    T, P = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    return T.ravel(), P.ravel()


def n_nodes(grid):
    return grid.n_theta * grid.n_phi


def on_nodes(x, grid):
    """``x``, broadcast to the nodes of ``grid``, flattened to theta-major
    order (N,): ``grid`` is a QuadratureGrid, or a SurfaceMassData, whose
    node fields broadcast to its node shape."""
    shape = (grid.shape if isinstance(grid, massmod.SurfaceMassData)
             else (grid.n_theta, grid.n_phi))
    return np.broadcast_to(x, shape).ravel()


def positions(data):
    """The hyperboloid positions X of the nodes of a SurfaceMassData, rows
    (4, N) in theta-major node order: each row the product of its factors
    in their order, as the integrals multiply it out, so its bits are those
    that the integrals sum."""
    X = np.empty((4,) + data.shape)
    for row, (first, *rest) in zip(X, data.X):
        row[...] = first
        for f in rest:
            row *= f
    return X.reshape(4, -1)


def form_matrices(forms, grid):
    """``forms`` in the layout of ``reference_geometry.Forms``: its
    components (a, b, c) of I and II packed into the symmetric
    [[a, b], [b, c]] at every node of ``grid``, shape (N, 2, 2), and its
    mean curvature, area element and radius flattened to (N,)."""
    def matrix(components):
        a, b, c = (on_nodes(x, grid) for x in components)
        return np.stack([a, b, b, c], axis=-1).reshape(-1, 2, 2)

    return dataclasses.replace(
        forms, first=matrix(forms.first), second=matrix(forms.second),
        mean_curvature=on_nodes(forms.mean_curvature, grid),
        area_element=on_nodes(forms.area_element, grid),
        radius=on_nodes(forms.radius, grid))


def norm_inf(v) -> float:
    """The largest |component| of a 4-vector or array ``v``."""
    return float(np.max(np.abs(np.asarray(v))))


def classify_by_null_pairings(v, samples, tol: float = 1e-12) -> bool:
    """Sampled sufficient test: true iff <v, zeta> < -tol for every sample
    row of ``samples`` (n, 4).

    A nonzero vector is timelike future directed iff the pairing is negative
    for *all* future null directions; a finite sample makes this one-sided.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("samples must be nonempty")
    return bool(np.all(minkowski_inner(v, samples) < -tol))


def random_spinors(rng, n):
    return rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))


def einsum_killing_norms_sq(a, points, sign):
    """|psi_a^{sign}(x)|^2 = f(x) |(Id + sign i gamma(x)) a|^2 by two complex
    einsums over (..., 2, 2) matrices, as killing_spinor_norms_sq once
    computed it: the oracle that its written-out 2x2 product matches bit for
    bit, and the norms of reference_spinor.node_killing_form."""
    a = np.asarray(a, dtype=complex)
    points = np.asarray(points, dtype=float)
    f = 2.0 / (1.0 - np.sum(points * points, axis=-1))
    gx = np.einsum("...j,jkl->...kl", points, spinor.GAMMAS)
    psi = np.einsum("...kl,...l->...k", np.eye(2) + sign * 1j * gx, a)
    return f * np.sum(np.abs(psi) ** 2, axis=-1)


def make_classified_vector(rng, cls):
    """Random LorentzVector of the requested causal class, with a definite
    margin from the null cone for the timelike/spacelike cases so a finite
    null sample can separate them."""
    from hypermass.lorentz import LorentzVector

    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    scale = 10.0 ** rng.uniform(-3, 3)
    if cls == "TimelikeFuture":
        s, w = rng.uniform(0.0, 0.8), 1.0
    elif cls == "TimelikePast":
        s, w = rng.uniform(0.0, 0.8), -1.0
    elif cls == "Spacelike":
        s, w = 1.0, rng.uniform(-0.8, 0.8)
    elif cls == "NullFuture":
        s, w = 1.0, 1.0
    elif cls == "NullPast":
        s, w = 1.0, -1.0
    else:
        raise ValueError(cls)
    v = scale * np.array([s * n[0], s * n[1], s * n[2], w])
    return LorentzVector(*v)


def scaled_sphere(r):
    """Jet callable of the radial graph of constant radius ``r``."""
    return lambda t, p: (r, (0.0, 0.0), (0.0, 0.0, 0.0))


def waist_graph(a):
    """Jet callable of R = 1 + a cos 2 theta, a graph on the theta axis
    alone; from a = 0.45 its waist is not convex, and on a 16 x 32 grid
    its least H lies at node 256, the first of the row theta = 1.4756."""
    def F(theta, phi):
        c2, s2 = np.cos(2.0 * theta), np.sin(2.0 * theta)
        return 1.0 + a * c2, (-2.0 * a * s2, 0.0), (-4.0 * a * c2, 0.0, 0.0)

    return F


def exact_ads_energy(r, m=ADS_M, k=1.0):
    """Closed-form reduction of the energy integrand on a coordinate sphere.

    With H = sqrt(V)/r, H_0 = sqrt(1 + k^2 r^2)/r and X = (r x, sqrt(1/k^2
    + r^2)), X_t = sqrt(1 + k^2 r^2)/k, the weight (H_0^2 - H^2)/H equals
    (2m/r^3) * r/sqrt(V); the spatial part integrates to zero by parity and
    the time part gives (8 pi m/k) sqrt((1 + k^2 r^2)/V(r)) against
    dSigma = r^2 dS.
    """
    V = ads_potential(r, m, k)
    return 8.0 * math.pi * m / k * math.sqrt((1.0 + (k * r) ** 2) / V)
