"""The ball -> hyperboloid map and radial bounds."""

import math

import numpy as np
import pytest

from hypermass.errors import DomainError
from hypermass.geometry import (QuadratureGrid, geodesic_sphere_surface,
                                radial_profile_surface)
from hypermass.hypgeom import ball_to_minkowski, radial_bounds


def random_ball_points(rng, n, rmax=0.95):
    x = rng.standard_normal((n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * (rmax * rng.uniform(0, 1, (n, 1)) ** (1 / 3))


def f_from_time(x):
    # f(x) = 2 / (1 - |x|^2) = X_t + 1 at k = 1
    return ball_to_minkowski(x)[..., 3] + 1.0


def to_ball(X):
    """Inverse of the ball -> hyperboloid map, x = X_s / (1 + X_t)."""
    return X[..., :3] / (1.0 + X[..., 3:])


def node_bounds(surface):
    """radial_bounds of the H^3-side nodes of ``surface``."""
    nodes = surface.F0(*surface.grid.node_axes())[0]
    return radial_bounds(nodes, surface.k)


def sphere_bounds(rho, k, n_theta=16):
    grid = QuadratureGrid.build(n_theta, 2 * n_theta)
    return node_bounds(geodesic_sphere_surface(rho, k, grid))


class TestConformalFactor:
    def test_origin(self):
        assert f_from_time([0, 0, 0]) == 2.0

    def test_half_radius(self):
        f = f_from_time([0.5, 0, 0])
        assert abs(f - 8.0 / 3.0) < 1e-15

    def test_diverges_toward_boundary(self):
        assert f_from_time([0.999999, 0, 0]) > 1e5
        with pytest.raises(DomainError):
            ball_to_minkowski([1.0, 0, 0])
        with pytest.raises(DomainError):
            ball_to_minkowski([[0.1, 0, 0], [0.0, 0.6, 0.9]])


class TestBallToHyperboloid:
    def test_origin_maps_to_center(self):
        assert ball_to_minkowski([0, 0, 0]).tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_axis_point(self):
        rho = 1.3
        X = ball_to_minkowski([math.tanh(rho / 2), 0, 0])
        assert abs(X[0] - math.sinh(rho)) < 1e-14
        assert abs(X[3] - math.cosh(rho)) < 1e-14
        r1, r2 = sphere_bounds(rho, 1.0)
        assert abs(r1 - rho) < 1e-13 and abs(r2 - rho) < 1e-13

    def test_sheet_constraint(self):
        rng = np.random.default_rng(11)
        X = ball_to_minkowski(random_ball_points(rng, 100))
        q = np.sum(X[:, :3] ** 2, axis=1) - X[:, 3] ** 2
        assert np.max(np.abs(q + 1.0)) < 1e-12
        assert np.all(X[:, 3] > 0.0)


class TestHyperboloidToBall:
    def test_center(self):
        assert np.all(to_ball(ball_to_minkowski([0, 0, 0])) == 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        x = random_ball_points(rng, 100)
        assert np.max(np.abs(to_ball(ball_to_minkowski(x)) - x)) < 1e-13


class TestGeodesicDistance:
    # distances from the chart origin, the one centre radial_bounds measures
    def test_center_to_itself(self):
        assert radial_bounds(np.zeros((8, 16, 3))) == (0.0, 0.0)

    def test_axis_distance(self):
        r1, r2 = sphere_bounds(1.0, 1.0)
        assert abs(r1 - 1.0) < 1e-14 and abs(r2 - 1.0) < 1e-14


class TestRadialBounds:
    def test_geodesic_sphere(self):
        r1, r2 = sphere_bounds(1.0, 1.0)
        assert abs(r1 - 1.0) < 1e-12 and abs(r2 - 1.0) < 1e-12

    def test_perturbed_profile(self):
        # rho(theta) = 1 + 0.1 cos(theta); the node extremes reach the true
        # extremes only as the Gauss-Legendre nodes approach the poles, hence
        # the fine theta grid.
        grid = QuadratureGrid.build(1024, 16)
        surface = radial_profile_surface(1.0, (0.0, 0.0, 0.1), 1.0, grid)
        r1, r2 = node_bounds(surface)
        assert abs(r1 - 0.9) < 1e-6
        assert abs(r2 - 1.1) < 1e-6


class TestModelInvariants:
    def test_bijection_residual(self):
        rng = np.random.default_rng(29)
        pts = random_ball_points(rng, 1000)
        assert np.max(np.abs(to_ball(ball_to_minkowski(pts)) - pts)) < 1e-12

    def test_conformal_factor_vs_time_component(self):
        # at k = 1: t = (1+|x|^2)/(1-|x|^2) = f - 1, and X_s = f x
        rng = np.random.default_rng(31)
        x = random_ball_points(rng, 100)
        f = 2.0 / (1.0 - np.sum(x * x, axis=1))
        X = ball_to_minkowski(x)
        assert np.max(np.abs(f - (X[:, 3] + 1))) < 1e-12
        assert np.max(np.abs(X[:, :3] - f[:, None] * x)) < 1e-12

    def test_distance_vs_artanh(self):
        # d(o, x) = (2/k) artanh(|x|); a geodesic sphere of radius rho has
        # ball radius tanh(k rho / 2)
        rng = np.random.default_rng(37)
        for k in (0.5, 1.0, 2.0):
            for rho in rng.uniform(0.1, 3.0, 5):
                r1, r2 = sphere_bounds(rho, k, 8)
                radius = math.tanh(0.5 * k * rho)
                expect = 2.0 / k * math.atanh(radius)
                assert abs(r1 - expect) < 1e-10 and abs(r2 - expect) < 1e-10
