"""The ball -> hyperboloid map, the rows of the areal -> hyperboloid map,
and radial bounds."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermass.errors import DomainError
from hypermass.geometry import (QuadratureGrid, geodesic_sphere_surface,
                                radial_profile_surface)
from hypermass.hypgeom import (areal_to_minkowski, ball_to_minkowski,
                               radial_bounds)


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
    """The geodesic radial bounds of the H^3-side nodes of ``surface`` at
    its k: radial_bounds, stated at k = 1, of the nodes rescaled to k = 1,
    and scaled back."""
    k = surface.k
    nodes = surface.F0(*surface.grid.node_axes())[0]
    return tuple(r / k for r in radial_bounds(k * nodes))


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


GRID_AXES = st.tuples(st.integers(min_value=2, max_value=24),
                      st.integers(min_value=2, max_value=48))


class TestArealRows:
    # areal_to_minkowski returns the rows of X as factors; each row's
    # product, in the factors' order, is what the integrals multiply out
    @given(k=st.floats(min_value=1e-3, max_value=1e3),
           R=st.floats(min_value=1e-6, max_value=1e6),
           tilt=st.floats(min_value=-0.9, max_value=0.9),
           axes=GRID_AXES)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_rows_lie_on_the_hyperboloid(self, k, R, tilt, axes):
        # <X, X> = -1/k^2 to rounding relative to X_t^2, on a coordinate
        # sphere (R a float) and on a tilted profile (R at every node)
        grid = QuadratureGrid.build(*axes)
        theta, phi = grid.node_axes()
        for radius in (R, R * (1.0 + tilt * np.sin(theta) * np.cos(phi))):
            rows = areal_to_minkowski(radius, theta, phi, k)
            x1, x2, x3, t = (np.broadcast_to(functools.reduce(np.multiply, row),
                                             axes) for row in rows)
            q = x1 * x1 + x2 * x2 + x3 * x3 - t * t
            assert np.all(np.abs(q + 1.0 / (k * k)) <= 1e-14 * t * t)
            assert np.all(t > 0.0)

    @given(k=st.floats(min_value=1e-3, max_value=1e3),
           R=st.floats(min_value=1e-6, max_value=1e6), axes=GRID_AXES)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_only_cos_and_sin_phi_carry_phi_on_a_sphere(self, k, R, axes):
        # on a coordinate sphere every factor of a row but cos phi and
        # sin phi has no phi axis, so a row's other factors can be summed
        # over phi apart from them
        grid = QuadratureGrid.build(*axes)
        theta, phi = grid.node_axes()
        rows = areal_to_minkowski(R, theta, phi, k)

        def has_phi_axis(f):
            return np.shape(f)[1:] == (grid.n_phi,)

        assert [[i for i, f in enumerate(row) if has_phi_axis(f)]
                for row in rows] == [[1], [1], [], []]
        assert rows[0][1].tobytes() == np.cos(phi).tobytes()
        assert rows[1][1].tobytes() == np.sin(phi).tobytes()
