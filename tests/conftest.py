"""Shared fixtures: the expensive scenario computations are session-scoped so
the mass tests and the acceptance suite reuse one set of surface solves."""

import dataclasses
import math

import numpy as np
import pytest

from hypermass import geometry as geo
from hypermass import mass as massmod
from hypermass.lorentz import minkowski_inner

ADS_M = 0.1
ADS_RADII = (1.0, 2.0, 4.0)
RIGID_RADII = (0.5, 1.0, 2.0)


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
def asymptotic_results(grid32):
    """asymptotic_limit for the three acceptance mass-aspect fields."""
    radii = [0.2, 0.1, 0.05]
    fields = {
        "half_g0": geo.SphereTensor(g0_coeff=0.5),
        "g0": geo.SphereTensor(g0_coeff=1.0),
        "x3": geo.SphereTensor(linear=(0.0, 0.0, 1.0)),
    }
    return {name: massmod.asymptotic_limit(h, radii, grid32)
            for name, h in fields.items()}


def node_arrays(grid):
    """Flattened (theta, phi) node coordinates of ``grid``, theta-major."""
    T, P = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    return T.ravel(), P.ravel()


def n_nodes(grid):
    return grid.n_theta * grid.n_phi


def on_nodes(x, grid):
    """``x``, broadcast to ``grid``, flattened to its theta-major nodes."""
    return np.broadcast_to(x, (grid.n_theta, grid.n_phi)).ravel()


def form_matrices(forms, grid):
    """``forms`` with its components (a, b, c) of I and II packed into the
    symmetric [[a, b], [b, c]] at every node of ``grid``, shape (N, 2, 2),
    the layout of ``reference_geometry.Forms``."""
    def matrix(components):
        a, b, c = (on_nodes(x, grid) for x in components)
        return np.stack([a, b, b, c], axis=-1).reshape(-1, 2, 2)

    return dataclasses.replace(forms, first=matrix(forms.first),
                               second=matrix(forms.second))


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


def exact_ads_energy(r, m=ADS_M, k=1.0):
    """Closed-form reduction of the energy integrand on a coordinate sphere.

    With H = sqrt(V)/r, H_0 = sqrt(1 + r^2)/r and X = (r x, sqrt(1 + r^2))
    the weight (H_0^2 - H^2)/H equals (2m/r^3) * r/sqrt(V); the spatial part
    integrates to zero by parity and the time part gives
    8 pi m sqrt((1 + r^2)/V(r)) against dSigma = r^2 dS.
    """
    V = ads_potential(r, m, k)
    return 8.0 * math.pi * m * math.sqrt((1.0 + (k * r) ** 2) / V)
