"""Metrics, surfaces, quadrature, and curvature: the closed-form node pass
against the reference geometry of ``reference_geometry``."""

import ast
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_geometry as ref
from hypermass import geometry as geo
from hypermass.errors import ConfigError, ConvergenceFailure, DomainError
from hypermass.geometry import (QuadratureGrid, SurfaceData,
                                ads_horizon_radius, ads_schwarzschild_metric,
                                coordinate_sphere_surface, euclidean_metric,
                                gauss_curvature, geodesic_sphere_surface,
                                hyperbolic_ball_metric,
                                radial_profile_surface, scalar_curvature,
                                surface_forms, wang_ah_metric)
from hypermass.hypgeom import areal_to_minkowski
from hypermass.mass import isometry_mismatch, mass_forms, surface_mass_data

from conftest import (ADS_M, ads_potential, form_matrices, n_nodes,
                      node_arrays, on_nodes, scaled_sphere)

EPS = np.finfo(float).eps
# ulps of its terms that tr h may be off 2 g0 + a . u by
TRACE_ULPS = 4


@pytest.fixture(scope="module")
def grid16():
    return QuadratureGrid.build(16, 32)


@pytest.fixture(scope="module")
def grid64():
    return QuadratureGrid.build(64, 128)


def at_point(many, chart, p):
    """A pointwise ``*_many`` quantity at the one chart point ``p``."""
    return many(chart, np.asarray(p, dtype=float)[None])[0]


def rel_err(new, reference):
    return float(np.max(np.abs(new - reference))
                 / np.max(np.abs(reference)))


def random_polar_points(rng, n, r_lo, r_hi):
    """(r, theta, phi) with theta away from the poles."""
    return np.stack([rng.uniform(r_lo, r_hi, n), rng.uniform(0.3, 2.8, n),
                     rng.uniform(0.0, 2.0 * math.pi, n)], axis=-1)


# 4th-order central differences: first-derivative offsets and weights / h,
# and second-derivative weights / h^2 at offsets -2..2
D1 = {-2: 1.0 / 12.0, -1: -8.0 / 12.0, 1: 8.0 / 12.0, 2: -1.0 / 12.0}
D2 = {-2: -1.0 / 12.0, -1: 16.0 / 12.0, 0: -30.0 / 12.0, 1: 16.0 / 12.0,
      2: -1.0 / 12.0}


def fd_jet(F, theta, phi, h=2e-3):
    """The jet of the radial graph ``F`` rebuilt from its radii alone by
    4th-order central differences: the cross-check of the closed forms."""
    def radius(i, j):
        return ref.graph_jet(F, theta + i * h, phi + j * h)[0]

    d_t = sum(w * radius(i, 0) for i, w in D1.items()) / h
    d_p = sum(w * radius(0, j) for j, w in D1.items()) / h
    d_tt = sum(w * radius(i, 0) for i, w in D2.items()) / h ** 2
    d_pp = sum(w * radius(0, j) for j, w in D2.items()) / h ** 2
    d_tp = sum(wi * wj * radius(i, j) for i, wi in D1.items()
               for j, wj in D1.items()) / h ** 2
    return (radius(0, 0), np.stack([d_t, d_p], axis=-1),
            np.stack([np.stack([d_tt, d_tp], axis=-1),
                      np.stack([d_tp, d_pp], axis=-1)], axis=-2))


def pulled_back_pair(grid):
    """One tilted surface in two charts: (jet, chart) in y, with the ball
    metric pulled back by Phi(y) = y + eps |y|^2 c, and (image jet, ball)
    in the ball, the image jet following by the chain rule."""
    eps, c = 0.3, np.array([0.2, -0.1, 0.25])
    ball = ref.ball_chart(1.0)

    def phi(y):
        return y + eps * np.sum(y * y, axis=-1)[..., None] * c

    def jac(y):
        return np.eye(3) + 2.0 * eps * c[:, None] * y[..., None, :]

    def pulled(y):
        J = jac(y)
        return np.swapaxes(J, -1, -2) @ ball.components(phi(y)) @ J

    F = ref.ball_jet(
        radial_profile_surface(0.6, (0.05, 0.1, -0.08), 1.0, grid).F)

    def image(t, p):
        y, dy, ddy = F(t, p)
        J = jac(y)
        quad = np.einsum("...ai,...bi->...ab", dy, dy)
        return (phi(y), np.einsum("...ij,...aj->...ai", J, dy),
                np.einsum("...ij,...abj->...abi", J, ddy)
                + 2.0 * eps * quad[..., None] * c)

    return (F, ref.Chart(pulled, ball.distance)), (image, ball)


METRICS = {
    "euclidean": (ref.polar_chart(euclidean_metric()).components,
                  lambda rng: random_polar_points(rng, 1, 0.5, 3.0)[0]),
    "ball": (ref.ball_chart(1.5).components,
             lambda rng: rng.uniform(-0.35, 0.35, 3)),
    "ads": (ref.polar_chart(ads_schwarzschild_metric(ADS_M, 1.0)).components,
            lambda rng: random_polar_points(rng, 1, 0.9, 2.5)[0]),
    "wang_ah": (wang_ah_metric(0.5, (0.1, -0.2, 0.3)).components,
                lambda rng: rng.uniform([0.2, 0.5, 0.0], [0.8, 2.6, 6.0])),
    # tr h a float and a theta column
    "wang_ah_isotropic": (wang_ah_metric(0.5, (0.0, 0.0, 0.0)).components,
                          lambda rng: rng.uniform([0.2, 0.5, 0.0],
                                                  [0.8, 2.6, 6.0])),
    "wang_ah_axial": (wang_ah_metric(0.5, (0.0, 0.0, 0.3)).components,
                      lambda rng: rng.uniform([0.2, 0.5, 0.0],
                                              [0.8, 2.6, 6.0])),
}


class TestMetricComplexStep:
    # the components the reference reads accept complex points:
    # Im g(p + i h v) / h = d_v g
    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_matches_fd_derivative(self, name):
        components, draw = METRICS[name]
        rng = np.random.default_rng(sorted(METRICS).index(name))
        for _ in range(10):
            p, v = draw(rng), rng.standard_normal(3)
            step = components(p + 1e-30j * v).imag / 1e-30
            h = 1e-4
            fd = sum(w * components(p + i * h * v) for i, w in D1.items()) / h
            assert np.max(np.abs(step - fd)) < 1e-8

    @pytest.mark.parametrize("name, outside", [
        ("ball", [1.2, 0.0, 0.0]), ("ads", [0.2, 0.0, 0.0]),
        ("wang_ah", [-0.1, 1.0, 0.0])])
    def test_outside_chart_raises(self, name, outside):
        components = METRICS[name][0]
        for p in (np.array(outside), outside + 1e-30j * np.ones(3)):
            with pytest.raises(DomainError):
                components(p)


class TestSurfaceJets:
    @pytest.mark.parametrize("make", [
        lambda grid: geodesic_sphere_surface(0.8, 1.3, grid),
        lambda grid: coordinate_sphere_surface(2.0, grid),
        lambda grid: radial_profile_surface(1.0, (0.1, -0.2, 0.15), 1.0,
                                            grid)],
        ids=["geodesic", "coordinate", "profile"])
    def test_factory_jets_match_fd_jet(self, make, grid16):
        surface = make(grid16)
        theta, phi = grid16.node_axes()
        for F in (surface.F, surface.F0):
            for exact, fd in zip(ref.graph_jet(F, theta, phi),
                                 fd_jet(F, theta, phi)):
                assert exact.shape == fd.shape
                assert np.max(np.abs(exact - fd)) < 1e-8

    def test_unit_direction_jet_positions(self, grid16):
        # the reference's directions are the package's one direction
        # formula, the rows x, y, z of X at R = 1, bit for bit
        theta, phi = grid16.node_axes()
        u = ref.unit_direction_jet(theta, phi)[0]
        for c, (first, *rest) in enumerate(
                areal_to_minkowski(1.0, theta, phi, 1.0)[:3]):
            row = np.broadcast_to(first, u.shape[:2]).copy()
            for f in rest:
                row *= f
            assert row.tobytes() == u[..., c].tobytes(), c

    def test_areal_radius_of_geodesic_spheres(self, grid16):
        for k, rho in ((1.0, 0.8), (0.5, 2.0)):
            R = geodesic_sphere_surface(rho, k, grid16).F(
                *grid16.node_axes())[0]
            assert R == math.sinh(k * rho) / k


# a coefficient of h, 0 often, so that every zero pattern of (g0, a) is drawn
COEFF = st.one_of(st.just(0.0), st.floats(min_value=-10.0, max_value=10.0))


class TestMassAspectTrace:
    # tr h = 2 g0 + a . u against the reference's unit directions and their
    # theta derivative, on grids up to 24 x 48
    @given(g0=COEFF, linear=st.tuples(COEFF, COEFF, COEFF),
           axes=st.tuples(st.integers(min_value=2, max_value=24),
                          st.integers(min_value=2, max_value=48)))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_against_reference_directions(self, g0, linear, axes):
        grid = QuadratureGrid.build(*axes)
        theta, phi = grid.node_axes()
        u, du, _ = ref.unit_direction_jet(theta, phi)
        a = np.array(linear)
        # the shape tr h varies on: none, theta, or theta and phi
        shape = ((grid.n_theta, grid.n_phi) if a[:2].any() else
                 (grid.n_theta, 1) if a[2] else ())
        tau = geo.mass_aspect_trace(g0, linear, theta, phi)
        assert np.shape(tau) == shape
        # a few ulps of the terms 2 |g0| + |a_c u_c|
        terms = 2.0 * abs(g0) + np.abs(u) @ np.abs(a)
        assert np.all(np.abs(tau - (2.0 * g0 + u @ a)) <= TRACE_ULPS
                      * EPS * terms)
        # at complex theta, as the collar metric's complex steps read it:
        # the same values and shape, and Im tr h / h = a . u_theta
        h = 1e-30
        step = geo.mass_aspect_trace(g0, linear, theta + 1j * h, phi)
        assert np.shape(step) == shape
        assert np.all(np.abs(step.real - tau) <= TRACE_ULPS * EPS * terms)
        # Im tr h, about a . u_theta h, is subnormal where that is below
        # 2^-1022: each rounding may then be off by up to 2^-1074, which
        # is no ulp of it (a_3 = 3.27e-281 at theta = 0.955 gives
        # -2.67e-311)
        dtau = du[..., 0, :] @ a
        assert np.all(np.abs(step.imag / h - dtau) <= TRACE_ULPS * EPS
                      * (np.abs(du[..., 0, :]) @ np.abs(a))
                      + TRACE_ULPS * 2.0 ** -1074 / h)


class TestQuadratureGrid:
    def test_weight_sum_is_sphere_area(self, grid16):
        theta, _ = node_arrays(grid16)
        total = np.sum(on_nodes(grid16.measure_weights(), grid16)
                       * np.sin(theta))
        assert abs(total - 4 * math.pi) < 1e-12

    def test_rejects_tiny_grids(self):
        with pytest.raises(DomainError):
            QuadratureGrid.build(1, 1)

    @pytest.mark.parametrize("n_theta, n_phi", [
        (8, 2 ** 62), (8, 2 ** 63), (2 ** 62, 16)])
    def test_rejects_grids_past_numpy_size_limit(self, n_theta, n_phi):
        # numpy refuses an axis of 2^62 before it allocates, and builds
        # np.arange(2**63) empty: both are refused before any array
        with pytest.raises(DomainError, match="grid is too big"):
            QuadratureGrid.build(n_theta, n_phi)

    def test_node_index_layout(self, grid16):
        # nodes run theta-major: node i * n_phi + j sits at (theta_i, phi_j)
        theta, phi = node_arrays(grid16)
        i = 3 * grid16.n_phi + 7
        assert theta[i] == grid16.theta[3]
        assert phi[i] == grid16.phi[7]
        assert grid16.describe_node(i) == (
            f"node {i} (theta={grid16.theta[3]:.4f}, "
            f"phi={grid16.phi[7]:.4f})")

    def test_least_node_is_the_broadcast_argmin(self):
        # the least value of a field at its own shape and the first node,
        # theta-major, that holds it: the argmin of the field broadcast to
        # the grid, ties and nan included, on scalar, theta-axis, phi-axis
        # and full fields drawn from a few values so that ties are common
        rng = np.random.default_rng(24)
        for case in range(800):
            n_theta, n_phi = (int(n) for n in rng.integers(2, 9, 2))
            grid = QuadratureGrid.build(n_theta, n_phi)
            shape = [(), (n_theta, 1), (1, n_phi), (n_phi,),
                     (n_theta, n_phi)][case % 5]
            x = rng.integers(-2, 3, shape).astype(float)
            if case % 7 == 0 and x.ndim:
                x.flat[rng.integers(x.size)] = math.nan
            flat = np.broadcast_to(x, (n_theta, n_phi))
            node = int(np.argmin(flat))
            got = grid.least_node(x if x.ndim else float(x))
            assert np.float64(got[0]).tobytes() == flat.flat[node].tobytes()
            assert got[1] == node and type(got[1]) is int

    def test_node_axes_match_flat_nodes_bitwise(self, grid16):
        # a field written from the node axes is, theta-major, the field of
        # the flat nodes bit for bit: the reference directions and tr h
        for field, width in (
                (lambda t, p: ref.unit_direction_jet(t, p)[0], (3,)),
                (lambda t, p: geo.mass_aspect_trace(
                    0.5, (0.3, -0.2, 0.1), t, p), ())):
            on_axes = field(*grid16.node_axes())
            assert on_axes.shape == (grid16.n_theta, grid16.n_phi) + width
            flat = field(*node_arrays(grid16))
            assert on_axes.reshape((-1,) + width).tobytes() == flat.tobytes()


class TestAdsHorizonRadius:
    CASES = ((0.1, 1.0), (1e-12, 1.0), (5.0, 2.0), (1e6, 0.1), (0.3, 10.0))

    @pytest.mark.parametrize("m, k", CASES)
    def test_root_of_the_cubic(self, m, k):
        r = ads_horizon_radius(m, k)
        # the cubic's terms are at most 2m each: its residual is roundoff
        assert abs(k * k * r ** 3 + r - 2.0 * m) <= 8 * EPS * 2.0 * m

    @pytest.mark.parametrize("m, k", CASES)
    def test_matches_the_companion_matrix_root(self, m, k):
        roots = np.roots([k * k, 0.0, 1.0, -2.0 * m])
        real = [z.real for z in roots if abs(z.imag) < 1e-12]
        assert len(real) == 1
        assert abs(ads_horizon_radius(m, k) - real[0]) <= 4 * EPS * real[0]

    def test_massless_has_no_horizon(self):
        assert ads_horizon_radius(0.0, 1.0) == 0.0
        assert ads_schwarzschild_metric(0.0, 1.0).r_min == 0.1


def _mp_gauss_point(n, x, mp):
    """A Gauss-Legendre node near ``x`` and its weight 2 (1 - x^2) /
    (n P_{n-1}(x))^2, by Newton's method in 40-digit arithmetic."""
    def legendre(r):
        p0, p1 = mp.mpf(1), r
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * r * p1 - j * p0) / (j + 1)
        return p0, p1

    with mp.workdps(40):
        r = mp.mpf(float(x))
        for _ in range(3):
            p0, p1 = legendre(r)
            r -= p1 * (r * r - 1) / (n * (r * p1 - p0))
        p0 = legendre(r)[0]
        return float(r), float(2 * (1 - r * r) / (n * p0) ** 2)


GL_ORDERS = (2, 3, 8, 16, 33, 64, 128, 256, 1024)


class TestGaussLegendre:
    # the grid's rule, built without numpy.polynomial or np.linalg, against
    # numpy's leggauss (imported here only)
    @pytest.mark.parametrize("n", GL_ORDERS)
    def test_matches_leggauss(self, n):
        from numpy.polynomial.legendre import leggauss
        x, w = geo.gauss_legendre(n)
        x_ref, w_ref = leggauss(n)
        assert np.max(np.abs(x - x_ref)) <= 2e-16
        # leggauss's own pole weights at n = 1024 are 1.2e-9 off 40-digit
        # ones (these are 3.5e-12 off; test_pole_weights)
        bound = 2e-9 if n == 1024 else 1e-9
        assert np.max(np.abs(w / w_ref - 1.0)) <= bound

    @pytest.mark.parametrize("n", (128, 1024))
    def test_pole_weights(self, n):
        mp = pytest.importorskip("mpmath")
        x, w = geo.gauss_legendre(n)
        for i in (0, 1, 2, n // 4):
            x_ref, w_ref = _mp_gauss_point(n, x[i], mp)
            assert abs(x[i] - x_ref) <= 2.3e-16
            assert abs(w[i] / w_ref - 1.0) <= 1e-11

    @pytest.mark.parametrize("n", GL_ORDERS)
    def test_symmetric_and_exact(self, n):
        x, w = geo.gauss_legendre(n)
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        assert abs(math.fsum(w) - 2.0) <= 4.5e-16
        # x^(2j) for every j < n: the rule is exact to degree 2n - 1
        for j in range(n):
            assert abs(math.fsum(w * x ** (2 * j)) - 2.0 / (2 * j + 1)) <= 1e-14

    @pytest.mark.parametrize("n", (16, 33, 128, 256))
    def test_every_node_against_40_digits(self, n):
        # every node within an ulp, and the weights of the series in phi
        # within 1.8e-15 (the Christoffel function by the three-term
        # recurrence: 2.6e-13 at n = 128 and 2.1e-13 at n = 256)
        mp = pytest.importorskip("mpmath")
        x, w = geo.gauss_legendre(n)
        for i in range(n // 2, n):
            x_ref, w_ref = _mp_gauss_point(n, x[i], mp)
            assert abs(x[i] - x_ref) <= 1.2e-16
            assert abs(w[i] / w_ref - 1.0) <= 1e-14

    def test_every_order_to_300(self):
        # each parity of the series and its middle node, in one block (the
        # blocks are split at n = 1024 above and 2048 below)
        from numpy.polynomial.legendre import leggauss
        for n in range(2, 301):
            x, w = geo.gauss_legendre(n)
            x_ref, w_ref = leggauss(n)
            assert np.all(np.diff(x) > 0), n
            assert np.array_equal(x, -x[::-1]), n
            assert np.array_equal(w, w[::-1]), n
            if n % 2:
                assert x[n // 2] == 0.0, n
            assert abs(math.fsum(w) - 2.0) <= 4.5e-16, n
            assert np.max(np.abs(x - x_ref)) <= 2e-16, n
            assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-9, n

    def test_working_memory_is_bounded(self):
        # tracemalloc peak of the 2048-point rule: the trig buffer, capped
        # at _GL_BUFFER floats, and 10.2 n floats of node arrays
        n = 2048
        tracemalloc.start()
        try:
            geo.gauss_legendre(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (geo._GL_BUFFER + 12 * n)

    @pytest.mark.parametrize("n", (16, 32, 64, 128, 256, 1024, 2048))
    def test_one_series_evaluation(self, n, monkeypatch):
        # each evaluation sums P and P_phi over the rows of its nodes: one
        # over all n//2 of them, then only the few pole nodes still moving
        # (2 or 3 rows, once or twice)
        rows = []
        series = geo._series

        def counted(trig, phi, m, b, buf):
            rows.append(phi.size)
            return series(trig, phi, m, b, buf)

        monkeypatch.setattr(geo, "_series", counted)
        geo.gauss_legendre(n)
        assert sum(rows) <= 2 * (n // 2 + 4)

    def test_newton_cap(self, monkeypatch):
        monkeypatch.setattr(geo, "_GL_MAX_STEPS", 1)
        with pytest.raises(ConvergenceFailure, match="order 64"):
            QuadratureGrid.build(64, 128)

    def test_grid_carries_the_rule(self, grid16):
        u, w = geo.gauss_legendre(16)
        assert grid16.u_weights.tobytes() == w.tobytes()
        assert grid16.theta.tobytes() == np.arccos(u).tobytes()


class TestChristoffel:
    # the reference's complex-step symbols, on its charts and on the polar
    # components of the package metrics
    def test_euclidean_vanishes(self):
        G = at_point(ref.christoffel_many, ref.euclidean_chart(),
                     [0.3, -0.2, 0.7])
        assert np.max(np.abs(G)) < 1e-12

    def test_hyperbolic_origin_vanishes(self):
        G = at_point(ref.christoffel_many, ref.ball_chart(1.0),
                     [0.0, 0.0, 0.0])
        assert np.max(np.abs(G)) < 1e-10

    def test_ads_radial_symbol(self):
        # Gamma^r_rr = -V'/(2V) in the polar chart
        r = 2.0
        V = ads_potential(r)
        dV = 2.0 * r + 2.0 * ADS_M / r ** 2
        G = at_point(ref.christoffel_many,
                     ref.polar_chart(ads_schwarzschild_metric(ADS_M, 1.0)),
                     [r, 1.0, 0.3])
        assert abs(G[0, 0, 0] - (-dV / (2.0 * V))) < 1e-12

    def test_symmetry_in_lower_indices(self):
        G = at_point(ref.christoffel_many, ref.ball_chart(1.0),
                     [0.2, 0.1, -0.3])
        assert np.max(np.abs(G - np.swapaxes(G, 1, 2))) < 1e-12

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_ball_closed_form_to_boundary(self, k):
        # Gamma^i_jk = delta^i_j s_k + delta^i_k s_j - delta_jk s_i with
        # s = 2x / (1 - |x|^2), up to where a stencil would leave the chart
        rng = np.random.default_rng(5)
        dirs = rng.standard_normal((5, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        x = dirs * np.array([0.1, 0.5, 0.9, 0.99, 0.999999])[:, None]
        x = np.concatenate([x, [[0.999999, 0.0, 0.0]]])
        s = 2.0 * x / (1.0 - np.sum(x * x, axis=-1))[:, None]
        d = np.eye(3)
        exact = (np.einsum("ij,nk->nijk", d, s)
                 + np.einsum("ik,nj->nijk", d, s)
                 - np.einsum("jk,ni->nijk", d, s))
        G = ref.christoffel_many(ref.ball_chart(k), x)
        err = np.max(np.abs(G - exact), axis=(1, 2, 3))
        assert np.all(err <= 1e-12 * np.max(np.abs(exact), axis=(1, 2, 3)))


class TestMeanCurvature:
    def test_geodesic_sphere(self, grid16):
        surface = geodesic_sphere_surface(1.0, 1.0, grid16)
        forms = surface_forms(surface, hyperbolic_ball_metric(1.0))
        target = 1.0 / math.tanh(1.0)
        assert np.max(np.abs(forms.mean_curvature - target)) < 1e-8

    def test_coth_scaling(self, grid16):
        for k, rho in ((0.5, 1.0), (2.0, 0.7)):
            surface = geodesic_sphere_surface(rho, k, grid16)
            forms = surface_forms(surface, hyperbolic_ball_metric(k))
            target = k / math.tanh(k * rho)
            assert np.max(np.abs(forms.mean_curvature - target)) < 1e-8

    def test_ads_coordinate_sphere(self, grid16):
        r = 2.0
        surface = coordinate_sphere_surface(r, grid16)
        forms = surface_forms(surface, ads_schwarzschild_metric(ADS_M, 1.0))
        target = math.sqrt(ads_potential(r)) / r
        assert np.max(np.abs(forms.mean_curvature - target)) < 1e-8

    @pytest.mark.parametrize("k, rho", [(1.0, 0.5), (1.0, 1.0), (1.0, 2.0),
                                        (0.5, 1.0), (2.0, 0.7)])
    def test_geodesic_sphere_to_roundoff(self, grid32, k, rho):
        surface = geodesic_sphere_surface(rho, k, grid32)
        H = surface_forms(surface, hyperbolic_ball_metric(k)).mean_curvature
        assert np.max(np.abs(H - k / math.tanh(k * rho))) <= 1e-13

    @pytest.mark.parametrize("r", [2.0, 10.0])
    def test_ads_pair_to_roundoff(self, grid32, r):
        forms, forms0 = mass_forms(coordinate_sphere_surface(r, grid32),
                                   ads_schwarzschild_metric(ADS_M, 1.0))
        H, H0 = forms.mean_curvature, forms0.mean_curvature
        assert np.max(np.abs(H - math.sqrt(ads_potential(r)) / r)) <= 1e-13
        assert np.max(np.abs(H0 - math.sqrt(1.0 + r * r) / r)) <= 1e-13

    @pytest.mark.parametrize("r", [100.0, 300.0, 1000.0])
    def test_large_radius_pair_to_roundoff(self, grid32, r):
        # the polar chart carries no conditioning in r: a few ulp of H at
        # every radius
        forms, forms0 = mass_forms(coordinate_sphere_surface(r, grid32),
                                   ads_schwarzschild_metric(ADS_M, 1.0))
        H, H0 = forms.mean_curvature, forms0.mean_curvature
        assert np.max(np.abs(H - math.sqrt(ads_potential(r)) / r)) <= 1e-15
        assert np.max(np.abs(H0 - math.sqrt(1.0 + r * r) / r)) <= 1e-15

    def test_euclidean_unit_sphere(self, grid16):
        surface = coordinate_sphere_surface(1.0, grid16)
        forms = surface_forms(surface, euclidean_metric())
        assert np.max(np.abs(forms.mean_curvature - 1.0)) < 1e-10

    def test_phi_shift_covariance(self, grid16):
        # shift by an exact multiple of the phi spacing, so H of the shifted
        # parametrization is a cyclic permutation of the original values
        surface = radial_profile_surface(1.0, (0.05, -0.02, 0.1), 1.0, grid16)
        n_phi = grid16.n_phi
        c = 5 * (2.0 * math.pi / n_phi)
        shifted = SurfaceData(F=lambda t, p: surface.F(t, p + c),
                              grid=grid16, k=1.0)
        metric = hyperbolic_ball_metric(1.0)
        H = surface_forms(surface, metric).mean_curvature.reshape(-1, n_phi)
        Hs = surface_forms(shifted, metric).mean_curvature.reshape(-1, n_phi)
        assert np.max(np.abs(Hs - np.roll(H, -5, axis=1))) < 1e-10

    def test_chart_independence(self, grid16):
        # H of one surface in two charts of the reference (see
        # pulled_back_pair): the pullback is not conformally flat, so every
        # connection term of the Gauss formula is live there
        (jet, chart), (image, ball) = pulled_back_pair(grid16)
        forms = ref.forms(jet, grid16, chart)
        forms0 = ref.forms(image, grid16, ball)
        assert np.max(np.abs(forms.mean_curvature
                             - forms0.mean_curvature)) < 1e-12
        # det II sees the antisymmetric part of II that H cannot
        assert np.max(np.abs(forms.gauss_curvature(-1.0)
                             - forms0.gauss_curvature(-1.0))) < 1e-12

    def test_convex_surfaces_have_positive_h(self, grid16):
        hyp = hyperbolic_ball_metric(1.0)
        candidates = [
            (geodesic_sphere_surface(0.3, 1.0, grid16), hyp),
            (geodesic_sphere_surface(2.5, 1.0, grid16), hyp),
            (radial_profile_surface(1.0, (0.1, 0.0, -0.05), 1.0, grid16), hyp),
            (coordinate_sphere_surface(1.5, grid16),
             ads_schwarzschild_metric(ADS_M, 1.0)),
        ]
        for surface, metric in candidates:
            forms = surface_forms(surface, metric)
            assert np.min(forms.mean_curvature) > 0.0

    def test_forms_flatten_theta_major(self, grid16):
        surface = radial_profile_surface(1.0, (0.05, -0.02, 0.1), 1.0, grid16)
        forms = surface_forms(surface, hyperbolic_ball_metric(1.0))
        n = n_nodes(grid16)
        packed = form_matrices(forms, grid16)
        assert packed.first.shape == packed.second.shape == (n, 2, 2)
        assert (packed.mean_curvature.shape == packed.area_element.shape
                == packed.radius.shape == (n,))
        flat = surface.F(*node_arrays(grid16))[0]
        assert packed.radius.tobytes() == flat.tobytes()

    def test_degenerate_immersion(self, grid16):
        # a radial graph degenerates only where it reaches the chart
        # origin, which no chart admits
        for metric in (euclidean_metric(), hyperbolic_ball_metric(1.0)):
            point = SurfaceData(F=scaled_sphere(0.0), grid=grid16, k=1.0)
            with pytest.raises(DomainError):
                surface_forms(point, metric)
        inside = SurfaceData(F=scaled_sphere(0.25), grid=grid16, k=1.0)
        with pytest.raises(DomainError):
            surface_forms(inside, ads_schwarzschild_metric(ADS_M, 1.0))
        # the factories refuse a profile whose least geodesic radius is
        # <= 0 though no node lands on it, and a k of no H^3, up front
        with pytest.raises(DomainError, match="least geodesic radius"):
            radial_profile_surface(0.5, (0.3, 0.4, 0.0), 1.0, grid16)
        with pytest.raises(DomainError, match="curvature scale"):
            geodesic_sphere_surface(1.0, 0.0, grid16)
        # a NaN mass or radius is refused too, not taken for an overflow
        # later
        for m in (-0.1, math.nan):
            with pytest.raises(DomainError, match="need m >= 0"):
                ads_schwarzschild_metric(m, 1.0)
        for r in (0.0, math.nan):
            with pytest.raises(DomainError, match="r must be positive"):
                coordinate_sphere_surface(r, grid16)

    def test_scenario_ranges_are_config_errors(self, grid16):
        # the factories are the one check on a scenario's k, m and radii,
        # which the CLI reports as config errors; to a library caller a
        # ConfigError is still a DomainError
        assert issubclass(ConfigError, DomainError)
        with pytest.raises(ConfigError, match="curvature scale k = 0.0"):
            hyperbolic_ball_metric(0.0)
        with pytest.raises(ConfigError, match=r"^need m >= 0, got -0.1$"):
            ads_schwarzschild_metric(-0.1, 1.0)
        with pytest.raises(ConfigError, match=r"^r must be positive, got 0.0"):
            coordinate_sphere_surface(0.0, grid16)
        with pytest.raises(ConfigError, match="least geodesic radius"):
            radial_profile_surface(0.5, (0.3, 0.4, 0.0), 1.0, grid16)
        # a geodesic sphere is told its radius, not base - |linear|
        with pytest.raises(ConfigError, match="least geodesic radius") as bad:
            geodesic_sphere_surface(-1.0, 1.0, grid16)
        assert str(bad.value).endswith("got -1") and "linear" not in str(
            bad.value)
        # an areal radius past the float range is no config error
        with pytest.raises(DomainError, match="overflows") as big:
            geodesic_sphere_surface(800.0, 1.0, grid16)
        assert not isinstance(big.value, ConfigError)

    @pytest.mark.parametrize("make", [
        hyperbolic_ball_metric,
        lambda k: ads_schwarzschild_metric(ADS_M, k),
        lambda k: coordinate_sphere_surface(2.0, QuadratureGrid.build(8, 16),
                                            k),
        lambda k: radial_profile_surface(1.0, (0.1, 0.0, 0.2), k,
                                         QuadratureGrid.build(8, 16)),
        lambda k: geodesic_sphere_surface(1.0, k,
                                          QuadratureGrid.build(8, 16))],
        ids=["hyperbolic_ball", "ads", "coordinate_sphere", "radial_profile",
             "geodesic_sphere"])
    def test_k_whose_square_overflows_is_a_config_error(self, make):
        # k^2 must be a normal float at both ends: 1e200^2 is inf, which
        # would make the node pass overflow and blame the surface
        with pytest.raises(ConfigError, match=(
                r"^curvature scale k = 1e\+200 must be positive, "
                r"with k\^2 a normal float$")):
            make(1e200)

    def test_collar_metric_is_refused(self, grid16):
        # the AH collar is no warped product: the node pass cannot run there
        surface = coordinate_sphere_surface(0.5, grid16)
        with pytest.raises(DomainError):
            surface_forms(surface, wang_ah_metric(0.5, (0.0, 0.0, 0.0)))


class TestGaussCurvature:
    # K = c + det II / det I read off the node-pass forms (Gauss equation)
    def test_geodesic_sphere(self, grid16):
        surface = geodesic_sphere_surface(1.0, 1.0, grid16)
        forms = surface_forms(surface, hyperbolic_ball_metric(1.0))
        K = gauss_curvature(forms, -1.0)
        target = 1.0 / math.sinh(1.0) ** 2
        assert np.max(np.abs(K - target)) < 1e-6

    def test_euclidean_unit_sphere(self, grid16):
        surface = coordinate_sphere_surface(1.0, grid16)
        K = gauss_curvature(surface_forms(surface, euclidean_metric()), 0.0)
        assert np.max(np.abs(K - 1.0)) < 1e-6

    def test_ads_coordinate_sphere(self, grid16):
        # Sigma's K is read from its isometric image in H^3
        surface = coordinate_sphere_surface(2.0, grid16)
        forms0 = surface_forms(surface.h3_view(), hyperbolic_ball_metric(1.0))
        K = gauss_curvature(forms0, -1.0)
        assert np.max(np.abs(K - 0.25)) < 1e-6

    def test_mass_pass_geodesic_sphere(self, grid64):
        surface = geodesic_sphere_surface(1.0, 1.0, grid64)
        _, forms0 = mass_forms(surface, hyperbolic_ball_metric(1.0))
        K = gauss_curvature(forms0, -1.0)
        assert np.max(np.abs(K - 1.0 / math.sinh(1.0) ** 2)) < 1e-9

    def test_mass_pass_ads_coordinate_sphere(self, grid64):
        r = 2.0
        surface = coordinate_sphere_surface(r, grid64)
        _, forms0 = mass_forms(surface, ads_schwarzschild_metric(ADS_M, 1.0))
        K = gauss_curvature(forms0, -1.0)
        assert np.max(np.abs(K - 1.0 / r ** 2)) < 1e-9


def linalg_node_pass(jet, grid, chart, radial, c):
    """A second reference formulation of the Gauss formula, through batched
    LAPACK and 3-operand einsum (np.linalg.solve for the normal, the
    np.linalg.inv trace for H, np.linalg.det for the area element and K).
    Returns (first, second, H, area element, K) on the (n_theta, n_phi)
    grid."""
    p, dF, ddF = jet(*grid.node_axes())
    g = chart.components(p)
    gab = np.einsum("...ai,...ij,...bj->...ab", dF, g, dF)
    w = np.cross(dF[..., 0, :], dF[..., 1, :])
    N = np.linalg.solve(g, w[..., None])[..., 0]
    N /= np.sqrt(np.einsum("...i,...i->...", N, w))[..., None]
    N *= np.where(radial(N, p) < 0.0, 1.0, -1.0)[..., None]
    dg_t, dg_p, dg_N = (chart.components(p + 1e-30j * v).imag / 1e-30
                        for v in (dF[..., 0, :], dF[..., 1, :], N))
    NdgF = np.stack([np.einsum("...i,...ij,...bj->...b", N, dg, dF)
                     for dg in (dg_t, dg_p)], axis=-2)
    gN = np.einsum("...ij,...j->...i", g, N)
    second = (np.einsum("...i,...abi->...ab", gN, ddF)
              + 0.5 * (NdgF + np.swapaxes(NdgF, -1, -2)
                       - np.einsum("...ai,...ij,...bj->...ab", dF, dg_N, dF)))
    H = 0.5 * np.einsum("...ab,...ab->...", np.linalg.inv(gab), second)
    det = np.linalg.det(gab)
    K = c + np.linalg.det(second) / det
    return gab, second, H, np.sqrt(det), K


def _graph_case(surface, metric, c):
    """A package surface and metric: the closed-form pass, and the LAPACK
    reference in the metric's own polar components."""
    return (surface, metric, (ref.polar_jet(surface.F), surface.grid,
                              ref.polar_chart(metric), ref.polar_radial, c))


# name -> (surface, metric or None, linalg_node_pass arguments): c is the
# sectional curvature K = c + det II / det I assumes.  AdS-Schwarzschild is
# no space form, so c = 0 there compares det II / det I itself.
NODE_PASS_CASES = {
    "pullback": lambda grid: (None, None, pulled_back_pair(grid)[0]
                              + (grid, ref.cartesian_radial, -1.0)),
    "ads_r10": lambda grid: _graph_case(
        coordinate_sphere_surface(10.0, grid),
        ads_schwarzschild_metric(ADS_M, 1.0), 0.0),
    "profile": lambda grid: _graph_case(
        radial_profile_surface(1.0, (0.12, -0.05, 0.2), 1.0, grid),
        hyperbolic_ball_metric(1.0), -1.0),
}


class TestNodePassAlgebra:
    # the closed-form node pass against a LAPACK formulation of the Gauss
    # formula, and the design it keeps: no np.linalg call, no metric
    # components, and a small memory peak
    @pytest.mark.parametrize("case", sorted(NODE_PASS_CASES))
    def test_matches_linalg_reference(self, case, grid16):
        surface, metric, args = NODE_PASS_CASES[case](grid16)
        if case == "pullback":
            # the reference's own two formulations (cofactor normal and
            # closed 2x2 algebra against LAPACK) agree off any warped product
            jet, chart, grid, radial, c = args
            forms = ref.forms(jet, grid, chart, radial)
            got = (forms.first, forms.second, forms.mean_curvature,
                   forms.area_element, forms.gauss_curvature(c))
            ref_args = (jet, grid, chart, radial, c)
        else:
            forms = surface_forms(surface, metric)
            K = on_nodes(gauss_curvature(forms, args[-1]), grid16)
            forms = form_matrices(forms, grid16)
            got = (forms.first, forms.second, forms.mean_curvature,
                   forms.area_element, K)
            ref_args = args
        for new, old in zip(got, linalg_node_pass(*ref_args)):
            old = old.reshape(new.shape)
            assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))

    def test_calls_no_linalg(self, grid16, monkeypatch):
        cases = [NODE_PASS_CASES[case](grid16)[:2]
                 for case in ("ads_r10", "profile")]

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called by the node pass")

        for name in np.linalg.__all__:
            if callable(getattr(np.linalg, name)):
                monkeypatch.setattr(np.linalg, name, refuse)
        for surface, metric in cases:
            gauss_curvature(surface_forms(surface, metric), -1.0)

    def test_reads_no_metric_components(self, grid16):
        # the pass works from V and V' alone: the warped products carry no
        # (..., 3, 3) components, and a metric whose components refuse
        # every call gives the same forms bit for bit
        for metric in (euclidean_metric(), hyperbolic_ball_metric(1.0),
                       ads_schwarzschild_metric(ADS_M, 1.0)):
            assert metric.components is None, metric.tag
        surface = radial_profile_surface(1.0, (0.12, -0.05, 0.2), 1.0, grid16)
        metric = ads_schwarzschild_metric(ADS_M, 1.0)
        expect = form_matrices(surface_forms(surface, metric), grid16)

        def refuse(p):
            raise AssertionError("metric components read by the node pass")

        metric.components = refuse
        forms = form_matrices(surface_forms(surface, metric), grid16)
        for name in ("first", "second", "mean_curvature", "area_element",
                     "radius"):
            got = getattr(forms, name)
            assert got.dtype == np.float64
            assert got.tobytes() == getattr(expect, name).tobytes()

    def test_source_has_no_complex_or_linalg(self):
        # geometry.py names no complex dtype or literal and no np.linalg
        tree = ast.parse(inspect.getsource(geo))
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Constant)
                        and isinstance(node.value, complex))
            assert not (isinstance(node, ast.Name)
                        and node.id in ("complex", "complex128"))
            assert not (isinstance(node, ast.Attribute)
                        and node.attr in ("linalg", "complex128"))

    @pytest.mark.parametrize("tilt, bound", [
        ((0.0, 0.0, 0.0), 4.5), ((0.12, -0.05, 0.2), 24.0)],
        ids=["sphere", "tilted"])
    def test_memory_peak(self, tilt, bound):
        # tracemalloc peak of one pass at 128x256 in float (N,) arrays
        # (numpy 2.4): 3.05 for a sphere, whose outputs take 3 with the
        # forms on the theta axis, and 20.0 for a tilted graph; a float
        # (N, 3, 3) array is 9 of them
        grid = QuadratureGrid.build(128, 256)
        surface = radial_profile_surface(1.0, tilt, 1.0, grid)
        metric = ads_schwarzschild_metric(ADS_M, 1.0)
        tracemalloc.start()
        try:
            surface_forms(surface, metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * n_nodes(grid) * np.dtype(float).itemsize


def _seeded_tilt(seed):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(3)
    return d / np.linalg.norm(d) * rng.uniform(0.1, 0.3)


# closed form against reference: relative to the largest reference entry
FORMS_TOL = 1e-13


class TestClosedFormAgainstReference:
    # the closed-form I, II, H, area element and K0 against the reference's
    # complex-step Gauss formula in the metric's own polar components, and
    # in the Poincare ball for the H^3 side
    @pytest.mark.parametrize("r", [2.0, 10.0, 100.0])
    def test_ads_coordinate_spheres(self, grid16, r):
        surface = coordinate_sphere_surface(r, grid16)
        ads, hyp = ads_schwarzschild_metric(ADS_M, 1.0), hyperbolic_ball_metric(1.0)
        forms, forms0 = mass_forms(surface, ads)
        K0 = on_nodes(gauss_curvature(forms0, -1.0), grid16)
        forms, forms0 = (form_matrices(f, grid16) for f in (forms, forms0))
        for new, old in ((forms, ref.polar_forms(surface, ads)),
                         (forms0, ref.polar_forms(surface, hyp)),
                         (forms0, ref.ball_forms(surface))):
            for name in ("first", "second", "mean_curvature", "area_element"):
                assert rel_err(getattr(new, name),
                               getattr(old, name)) <= FORMS_TOL, name
        # K0 = -1 + det II0 / det I0 = 1/r^2, the sphere's own curvature
        assert np.max(np.abs(K0 - 1.0 / r ** 2)) <= 1e-15
        K0_ball = ref.ball_forms(surface).gauss_curvature(-1.0)
        assert np.max(np.abs(K0 - K0_ball)) <= 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tilted_h3_graphs_against_ball_chart(self, grid16, seed):
        k = (1.0, 0.5, 2.0)[seed]
        surface = radial_profile_surface(1.0, _seeded_tilt(seed), k, grid16)
        forms = surface_forms(surface, hyperbolic_ball_metric(k))
        K = on_nodes(gauss_curvature(forms, -k * k), grid16)
        forms, old = form_matrices(forms, grid16), ref.ball_forms(surface)
        for name in ("first", "second", "mean_curvature", "area_element"):
            assert rel_err(getattr(forms, name),
                           getattr(old, name)) <= FORMS_TOL, name
        assert rel_err(K, old.gauss_curvature(-k * k)) <= 1e-13

    def test_tilted_ads_graph(self, grid16):
        # every term of II, cot theta included, off the round sphere
        surface = radial_profile_surface(1.0, _seeded_tilt(3), 1.0, grid16)
        metric = ads_schwarzschild_metric(ADS_M, 1.0)
        forms = form_matrices(surface_forms(surface, metric), grid16)
        old = ref.polar_forms(surface, metric)
        for name in ("first", "second", "mean_curvature", "area_element"):
            assert rel_err(getattr(forms, name),
                           getattr(old, name)) <= FORMS_TOL, name

    @pytest.mark.parametrize("sign", [1, -1])
    def test_inward_normal_in_polar_chart(self, grid16, sign):
        # the reference normal with N^r < 0 at every node of a tilted graph
        # gives the closed form's II, and its flip gives -II: the inward
        # test in the polar chart is N^r < 0, not N . p < 0
        surface = radial_profile_surface(1.0, _seeded_tilt(4), 1.0, grid16)
        metric = ads_schwarzschild_metric(ADS_M, 1.0)
        old = ref.polar_forms(surface, metric, orientation_sign=sign)
        assert np.all(sign * old.normal[:, 0] < 0.0)
        forms = form_matrices(surface_forms(surface, metric), grid16)
        assert rel_err(forms.second, sign * old.second) <= FORMS_TOL
        assert np.all(forms.mean_curvature > 0.0)

    @pytest.mark.parametrize("name", ["euclidean", "hyperbolic", "ads"])
    def test_scalar_curvature_matches_stencil(self, name):
        metric = {"euclidean": euclidean_metric(),
                  "hyperbolic": hyperbolic_ball_metric(1.3),
                  "ads": ads_schwarzschild_metric(ADS_M, 1.0)}[name]
        pts = random_polar_points(np.random.default_rng(7), 10, 1.2, 4.0)
        R = scalar_curvature(metric, pts[:, 0])
        stencil = ref.scalar_curvature_many(ref.polar_chart(metric), pts)
        assert np.max(np.abs(R - stencil)) < 1e-5
        assert np.max(np.abs(R - {"euclidean": 0.0, "hyperbolic": -6 * 1.69,
                                  "ads": -6.0}[name])) <= 1e-14


class TestScalarCurvature:
    # the reference stencil, the oracle of the closed form
    def test_hyperbolic_ball(self):
        rng = np.random.default_rng(41)
        pts = rng.uniform(-0.4, 0.4, (20, 3))
        R = ref.scalar_curvature_many(ref.ball_chart(1.0), pts)
        assert np.max(np.abs(R + 6.0)) < 1e-5

    def test_ads_schwarzschild(self):
        chart = ref.polar_chart(ads_schwarzschild_metric(ADS_M, 1.0))
        pts = random_polar_points(np.random.default_rng(43), 10, 1.5, 4.0)
        R = ref.scalar_curvature_many(chart, pts)
        assert np.max(np.abs(R + 6.0)) < 1e-5

    def test_euclidean(self):
        R = at_point(ref.scalar_curvature_many,
                     ref.polar_chart(euclidean_metric()), [1.1, 0.7, 0.3])
        assert abs(R) < 1e-6

    def test_analytic_cross_check(self):
        R = at_point(ref.scalar_curvature_many, ref.ball_chart(2.0),
                     [0.1, 0.0, 0.2])
        assert abs(R - (-6.0 * 2.0 ** 2)) < 1e-4

    def test_fd_order_two(self):
        chart = ref.ball_chart(1.0)
        p = np.array([[0.25, -0.1, 0.15]])
        steps = np.array([1e-2, 5e-3, 2.5e-3])
        errs = np.array([abs(ref.scalar_curvature_many(chart, p,
                                                       fd_step=s)[0] + 6.0)
                         for s in steps])
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.2

    def test_chart_boundary(self):
        with pytest.raises(ref.ChartBoundary):
            at_point(ref.scalar_curvature_many, ref.ball_chart(1.0),
                     [0.99999, 0, 0])


class TestIntegrate:
    def test_geodesic_sphere_area(self, grid64):
        surface = geodesic_sphere_surface(1.0, 1.0, grid64)
        data = surface_mass_data(surface, hyperbolic_ball_metric(1.0))
        area = data.area()
        target = 4 * math.pi * math.sinh(1.0) ** 2
        assert abs(area - target) < 1e-8 * target

    def test_unit_sphere_area(self, grid64):
        surface = coordinate_sphere_surface(1.0, grid64)
        ae = surface_forms(surface, euclidean_metric()).area_element
        area = math.fsum(on_nodes(grid64.measure_weights() * ae, grid64))
        assert abs(area - 4 * math.pi) < 1e-10

    def test_odd_integrand_vanishes(self, grid64):
        surface = coordinate_sphere_surface(1.0, grid64)
        theta, phi = node_arrays(grid64)
        x1 = ref.unit_direction_jet(theta, phi)[0][:, 0]
        ae = surface_forms(surface, euclidean_metric()).area_element
        w_ae = on_nodes(grid64.measure_weights() * ae, grid64)
        assert abs(math.fsum(w_ae * x1)) < 1e-12

    def test_quadrature_error_decay(self):
        # Gauss-Legendre in cos(theta) integrates this area exactly at every
        # resolution (the integrand is constant in cos theta), so both errors
        # sit at roundoff; the spectral-ratio assertion carries a roundoff
        # floor to stay meaningful.
        target = 4 * math.pi * math.sinh(1.0) ** 2
        errs = {}
        for n in (8, 32):
            grid = QuadratureGrid.build(n, 2 * n)
            surface = geodesic_sphere_surface(1.0, 1.0, grid)
            data = surface_mass_data(surface, hyperbolic_ball_metric(1.0))
            area = data.area()
            errs[n] = abs(area - target)
        assert errs[32] < max(1e-3 * errs[8], 1e-12 * target)


class TestVerifyIsometric:
    def test_identical_embeddings(self, grid16):
        surface = geodesic_sphere_surface(1.0, 1.0, grid16)
        forms = mass_forms(surface, hyperbolic_ball_metric(1.0))
        assert isometry_mismatch(*forms) < 1e-12

    def test_ads_pairing(self, grid16):
        # coordinate sphere r = 2 paired with the H^3 sphere of areal radius
        # 2: both induce 4 g_0
        surface = coordinate_sphere_surface(2.0, grid16)
        metric = ads_schwarzschild_metric(ADS_M, 1.0)
        assert isometry_mismatch(*mass_forms(surface, metric)) < 1e-10

    def test_mismatched_radii_detected(self, grid16):
        r, r0 = 2.0, 1.5
        surface = SurfaceData(F=scaled_sphere(r), grid=grid16, k=1.0,
                              F0=scaled_sphere(r0))
        mismatch = isometry_mismatch(*mass_forms(surface, euclidean_metric()))
        # max component of (r^2 - r0^2) (dtheta^2 + sin^2 theta dphi^2)
        assert abs(mismatch - (r ** 2 - r0 ** 2)) < 1e-3
