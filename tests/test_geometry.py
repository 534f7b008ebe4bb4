"""Metrics, surfaces, quadrature, and numerical curvature."""

import math
import tracemalloc

import numpy as np
import pytest

from hypermass.errors import (ChartBoundary, DegenerateImmersion, DomainError)
from hypermass.geometry import (MetricField, QuadratureGrid, SphereTensor,
                                SurfaceData,
                                ads_schwarzschild_metric, christoffel_many,
                                coordinate_sphere_surface, euclidean_metric,
                                gauss_curvature, geodesic_sphere_surface,
                                hyperbolic_ball_metric,
                                radial_profile_surface,
                                scalar_curvature_many, surface_forms,
                                unit_direction_jet, unit_directions,
                                wang_ah_metric)
from hypermass.mass import isometry_mismatch, mass_forms, surface_mass_data

from conftest import ADS_M, ads_potential, scaled_sphere


@pytest.fixture(scope="module")
def grid16():
    return QuadratureGrid.build(16, 32)


@pytest.fixture(scope="module")
def grid64():
    return QuadratureGrid.build(64, 128)


def at_point(many, metric, p):
    """A pointwise ``*_many`` quantity at the one chart point ``p``."""
    return many(metric, np.asarray(p, dtype=float)[None])[0]


# 4th-order central differences: first-derivative offsets and weights / h,
# and second-derivative weights / h^2 at offsets -2..2
D1 = {-2: 1.0 / 12.0, -1: -8.0 / 12.0, 1: 8.0 / 12.0, 2: -1.0 / 12.0}
D2 = {-2: -1.0 / 12.0, -1: 16.0 / 12.0, 0: -30.0 / 12.0, 1: 16.0 / 12.0,
      2: -1.0 / 12.0}


def fd_jet(F, theta, phi, h=2e-3):
    """The 2-jet of the jet callable ``F`` rebuilt from its positions alone
    by 4th-order central differences: the cross-check of the closed forms."""
    def pos(i, j):
        return F(theta + i * h, phi + j * h)[0]

    d_t = sum(w * pos(i, 0) for i, w in D1.items()) / h
    d_p = sum(w * pos(0, j) for j, w in D1.items()) / h
    d_tt = sum(w * pos(i, 0) for i, w in D2.items()) / h ** 2
    d_pp = sum(w * pos(0, j) for j, w in D2.items()) / h ** 2
    d_tp = sum(wi * wj * pos(i, j) for i, wi in D1.items()
               for j, wj in D1.items()) / h ** 2
    return (pos(0, 0), np.stack([d_t, d_p], axis=-2),
            np.stack([np.stack([d_tt, d_tp], axis=-2),
                      np.stack([d_tp, d_pp], axis=-2)], axis=-3))


def pulled_back_pair(grid):
    """One tilted surface in two charts: (surface, metric) in y, with the
    ball metric pulled back by Phi(y) = y + eps |y|^2 c, and (image, ball)
    in the ball, the image jet following by the chain rule."""
    eps, c = 0.3, np.array([0.2, -0.1, 0.25])
    ball = hyperbolic_ball_metric(1.0)

    def phi(y):
        return y + eps * np.sum(y * y, axis=-1)[..., None] * c

    def jac(y):
        return np.eye(3) + 2.0 * eps * c[:, None] * y[..., None, :]

    def pulled(y):
        J = jac(y)
        return np.swapaxes(J, -1, -2) @ ball.components(phi(y)) @ J

    F = radial_profile_surface(0.6, (0.05, 0.1, -0.08), 1.0, grid).F

    def image(t, p):
        y, dy, ddy = F(t, p)
        J = jac(y)
        quad = np.einsum("...ai,...bi->...ab", dy, dy)
        return (phi(y), np.einsum("...ij,...aj->...ai", J, dy),
                np.einsum("...ij,...abj->...abi", J, ddy)
                + 2.0 * eps * quad[..., None] * c)

    metric = MetricField("pullback", pulled, ball.chart_distance)
    return ((SurfaceData(F=F, grid=grid), metric),
            (SurfaceData(F=image, grid=grid), ball))


METRICS = {
    "euclidean": (euclidean_metric(), lambda rng: rng.uniform(-3, 3, 3)),
    "ball": (hyperbolic_ball_metric(1.5),
             lambda rng: rng.uniform(-0.35, 0.35, 3)),
    "ads": (ads_schwarzschild_metric(ADS_M, 1.0),
            lambda rng: rng.choice([-1, 1], 3) * rng.uniform(0.9, 2.5, 3)),
    "wang_ah": (wang_ah_metric(SphereTensor(0.5, (0.1, -0.2, 0.3))),
                lambda rng: rng.uniform([0.2, 0.5, 0.0], [0.8, 2.6, 6.0])),
}


class TestMetricComplexStep:
    # components accept complex points: Im g(p + i h v) / h = d_v g
    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_matches_fd_derivative(self, name):
        metric, draw = METRICS[name]
        rng = np.random.default_rng(sorted(METRICS).index(name))
        for _ in range(10):
            p, v = draw(rng), rng.standard_normal(3)
            step = metric.components(p + 1e-30j * v).imag / 1e-30
            h = 1e-4
            fd = sum(w * metric.components(p + i * h * v)
                     for i, w in D1.items()) / h
            assert np.max(np.abs(step - fd)) < 1e-8

    @pytest.mark.parametrize("name, outside", [
        ("ball", [1.2, 0.0, 0.0]), ("ads", [0.2, 0.0, 0.0]),
        ("wang_ah", [-0.1, 1.0, 0.0])])
    def test_outside_chart_raises(self, name, outside):
        metric = METRICS[name][0]
        for p in (np.array(outside), outside + 1e-30j * np.ones(3)):
            with pytest.raises(DomainError):
                metric.components(p)


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
            for exact, fd in zip(F(theta, phi), fd_jet(F, theta, phi)):
                assert exact.shape == fd.shape
                assert np.max(np.abs(exact - fd)) < 1e-8

    def test_unit_direction_jet_positions(self, grid16):
        u = unit_direction_jet(*grid16.node_axes())[0]
        assert u.tobytes() == unit_directions(*grid16.node_axes()).tobytes()


class TestQuadratureGrid:
    def test_weight_sum_is_sphere_area(self, grid16):
        theta, _ = grid16.node_arrays()
        total = np.sum(grid16.measure_weights() * np.sin(theta))
        assert abs(total - 4 * math.pi) < 1e-12

    def test_rejects_tiny_grids(self):
        with pytest.raises(DomainError):
            QuadratureGrid.build(1, 1)

    def test_node_index_layout(self, grid16):
        theta, phi = grid16.node_arrays()
        i = grid16.node_index(3, 7)
        assert theta[i] == grid16.theta[3]
        assert phi[i] == grid16.phi[7]

    def test_node_axes_match_flat_nodes_bitwise(self, grid16):
        on_axes = unit_directions(*grid16.node_axes())
        assert on_axes.shape == (grid16.n_theta, grid16.n_phi, 3)
        flat = unit_directions(*grid16.node_arrays())
        assert on_axes.reshape(-1, 3).tobytes() == flat.tobytes()


class TestChristoffel:
    def test_euclidean_vanishes(self):
        G = at_point(christoffel_many, euclidean_metric(), [0.3, -0.2, 0.7])
        assert np.max(np.abs(G)) < 1e-12

    def test_hyperbolic_origin_vanishes(self):
        G = at_point(christoffel_many, hyperbolic_ball_metric(1.0),
                     [0.0, 0.0, 0.0])
        assert np.max(np.abs(G)) < 1e-10

    def test_ads_radial_symbol(self):
        # at (r, 0, 0) the x-axis is radial: Gamma^x_xx = -V'/(2V)
        r = 2.0
        V = ads_potential(r)
        dV = 2.0 * r + 2.0 * ADS_M / r ** 2
        G = at_point(christoffel_many, ads_schwarzschild_metric(ADS_M, 1.0),
                     [r, 0.0, 0.0])
        assert abs(G[0, 0, 0] - (-dV / (2.0 * V))) < 1e-7

    def test_symmetry_in_lower_indices(self):
        G = at_point(christoffel_many, hyperbolic_ball_metric(1.0),
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
        G = christoffel_many(hyperbolic_ball_metric(k), x)
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

    def test_euclidean_unit_sphere(self, grid16):
        surface = SurfaceData(F=unit_direction_jet, grid=grid16, k=1.0)
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
        # H of one surface in two charts (see pulled_back_pair): the
        # pullback is not conformally flat, so every connection term of the
        # Gauss formula is live there
        (surface, metric), (image, ball) = pulled_back_pair(grid16)
        forms = surface_forms(surface, metric)
        forms0 = surface_forms(image, ball)
        assert np.max(np.abs(forms.mean_curvature
                             - forms0.mean_curvature)) < 1e-12
        # det II sees the antisymmetric part of II that H cannot
        assert np.max(np.abs(gauss_curvature(forms, -1.0)
                             - gauss_curvature(forms0, -1.0))) < 1e-12

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
        n = grid16.n_nodes
        assert forms.first.shape == forms.second.shape == (n, 2, 2)
        assert forms.chart_points.shape == (n, 3)
        assert forms.mean_curvature.shape == forms.area_element.shape == (n,)
        flat = surface.F(*grid16.node_arrays())[0]
        assert forms.chart_points.tobytes() == flat.tobytes()

    def test_degenerate_immersion(self, grid16):
        def point(t, p):
            shape = np.broadcast(t, p).shape
            return (np.broadcast_to([1.0, 0.0, 0.0], shape + (3,)),
                    np.zeros(shape + (2, 3)), np.zeros(shape + (2, 2, 3)))

        surface = SurfaceData(F=point, grid=grid16, k=1.0)
        with pytest.raises(DegenerateImmersion):
            surface_forms(surface, euclidean_metric())


class TestGaussCurvature:
    # K = c + det II / det I read off the node-pass forms (Gauss equation)
    def test_geodesic_sphere(self, grid16):
        surface = geodesic_sphere_surface(1.0, 1.0, grid16)
        forms = surface_forms(surface, hyperbolic_ball_metric(1.0))
        K = gauss_curvature(forms, -1.0)
        target = 1.0 / math.sinh(1.0) ** 2
        assert np.max(np.abs(K - target)) < 1e-6

    def test_euclidean_unit_sphere(self, grid16):
        surface = SurfaceData(F=unit_direction_jet, grid=grid16, k=1.0)
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



def linalg_node_pass(surface, metric, c):
    """A test-only reference for :func:`surface_forms`: the same Gauss
    formula through batched LAPACK and 3-operand einsum (np.linalg.solve for
    the normal, the np.linalg.inv trace for H, np.linalg.det for the area
    element and K).  Returns (first, second, H, area element, K) on the
    (n_theta, n_phi) grid."""
    p, dF, ddF = surface.F(*surface.grid.node_axes())
    g = metric.components(p)
    gab = np.einsum("...ai,...ij,...bj->...ab", dF, g, dF)
    w = np.cross(dF[..., 0, :], dF[..., 1, :])
    N = np.linalg.solve(g, w[..., None])[..., 0]
    N /= np.sqrt(np.einsum("...i,...i->...", N, w))[..., None]
    sign = np.where(np.einsum("...i,...i->...", N, -p) >= 0.0, 1.0, -1.0)
    N *= (sign * surface.orientation_sign)[..., None]
    dg_t, dg_p, dg_N = (metric.components(p + 1e-30j * v).imag / 1e-30
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


# (surface, metric, c): c is the sectional curvature K = c + det II / det I
# assumes.  AdS-Schwarzschild is no space form, so c = 0 there compares
# det II / det I itself, which c = -1 would cancel to 1e-2 at r = 10.
NODE_PASS_CASES = {
    "pullback": lambda grid: pulled_back_pair(grid)[0] + (-1.0,),
    "ads_r10": lambda grid: (coordinate_sphere_surface(10.0, grid),
                             ads_schwarzschild_metric(ADS_M, 1.0), 0.0),
    "profile": lambda grid: (
        radial_profile_surface(1.0, (0.12, -0.05, 0.2), 1.0, grid),
        hyperbolic_ball_metric(1.0), -1.0),
}


class TestNodePassAlgebra:
    # the closed-form node pass against its LAPACK formulation, and the
    # design it keeps: no np.linalg call, 1 real + 3 complex metric
    # evaluations, and one complex step alive at a time
    @pytest.mark.parametrize("case", sorted(NODE_PASS_CASES))
    def test_matches_linalg_reference(self, case, grid16):
        surface, metric, c = NODE_PASS_CASES[case](grid16)
        forms = surface_forms(surface, metric)
        got = (forms.first, forms.second, forms.mean_curvature,
               forms.area_element, gauss_curvature(forms, c))
        for new, ref in zip(got, linalg_node_pass(surface, metric, c)):
            ref = ref.reshape(new.shape)
            assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_calls_no_linalg(self, grid16, monkeypatch):
        cases = [NODE_PASS_CASES[case](grid16) for case in NODE_PASS_CASES]

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg called by the node pass")

        for name in np.linalg.__all__:
            if callable(getattr(np.linalg, name)):
                monkeypatch.setattr(np.linalg, name, refuse)
        for surface, metric, c in cases:
            gauss_curvature(surface_forms(surface, metric), c)

    def test_four_metric_evaluations(self, grid16):
        ads = ads_schwarzschild_metric(ADS_M, 1.0)
        calls = []

        def components(p):
            calls.append((p.dtype.kind, p.shape))
            return ads.components(p)

        metric = MetricField(ads.tag, components, ads.chart_distance)
        surface_forms(coordinate_sphere_surface(2.0, grid16), metric)
        shape = (grid16.n_theta, grid16.n_phi, 3)
        assert calls == [("f", shape)] + [("c", shape)] * 3

    def test_one_complex_step_alive(self):
        # the pass peaks at 4.97 complex (N, 3, 3) arrays (numpy 2.4); with
        # the three steps alive at once it peaks at 6.53
        grid = QuadratureGrid.build(128, 256)
        surface = coordinate_sphere_surface(2.0, grid)
        metric = ads_schwarzschild_metric(ADS_M, 1.0)
        tracemalloc.start()
        try:
            surface_forms(surface, metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.4 * grid.n_nodes * np.dtype(complex).itemsize * 9


class TestScalarCurvature:
    def test_hyperbolic_ball(self):
        rng = np.random.default_rng(41)
        metric = hyperbolic_ball_metric(1.0)
        pts = rng.uniform(-0.4, 0.4, (20, 3))
        R = scalar_curvature_many(metric, pts)
        assert np.max(np.abs(R + 6.0)) < 1e-5

    def test_ads_schwarzschild(self):
        metric = ads_schwarzschild_metric(ADS_M, 1.0)
        rng = np.random.default_rng(43)
        dirs = rng.standard_normal((10, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = dirs * rng.uniform(1.5, 4.0, (10, 1))
        R = scalar_curvature_many(metric, pts)
        assert np.max(np.abs(R + 6.0)) < 1e-5

    def test_euclidean(self):
        R = at_point(scalar_curvature_many, euclidean_metric(),
                     [0.1, 0.2, 0.3])
        assert abs(R) < 1e-6

    def test_analytic_cross_check(self):
        R = at_point(scalar_curvature_many, hyperbolic_ball_metric(2.0),
                     [0.1, 0.0, 0.2])
        assert abs(R - (-6.0 * 2.0 ** 2)) < 1e-4

    def test_fd_order_two(self):
        metric = hyperbolic_ball_metric(1.0)
        p = np.array([[0.25, -0.1, 0.15]])
        steps = np.array([1e-2, 5e-3, 2.5e-3])
        errs = np.array([abs(scalar_curvature_many(metric, p, fd_step=s)[0]
                             + 6.0) for s in steps])
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.2

    def test_chart_boundary(self):
        with pytest.raises(ChartBoundary):
            at_point(scalar_curvature_many, hyperbolic_ball_metric(1.0),
                     [0.99999, 0, 0])


class TestIntegrate:
    def test_geodesic_sphere_area(self, grid64):
        surface = geodesic_sphere_surface(1.0, 1.0, grid64)
        data = surface_mass_data(surface, hyperbolic_ball_metric(1.0))
        area = data.weighted(np.ones(grid64.n_nodes))
        target = 4 * math.pi * math.sinh(1.0) ** 2
        assert abs(area - target) < 1e-8 * target

    def test_unit_sphere_area(self, grid64):
        surface = SurfaceData(F=unit_direction_jet, grid=grid64, k=1.0)
        ae = surface_forms(surface, euclidean_metric()).area_element
        area = math.fsum(grid64.measure_weights() * ae)
        assert abs(area - 4 * math.pi) < 1e-10

    def test_odd_integrand_vanishes(self, grid64):
        surface = SurfaceData(F=unit_direction_jet, grid=grid64, k=1.0)
        theta, phi = grid64.node_arrays()
        x1 = unit_directions(theta, phi)[:, 0]
        ae = surface_forms(surface, euclidean_metric()).area_element
        w = grid64.measure_weights()
        assert abs(math.fsum(w * ae * x1)) < 1e-12

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
            area = data.weighted(np.ones(grid.n_nodes))
            errs[n] = abs(area - target)
        assert errs[32] < max(1e-3 * errs[8], 1e-12 * target)


class TestVerifyIsometric:
    def test_identical_embeddings(self, grid16):
        surface = geodesic_sphere_surface(1.0, 1.0, grid16)
        forms = mass_forms(surface, hyperbolic_ball_metric(1.0))
        assert isometry_mismatch(*forms) < 1e-12

    def test_ads_pairing(self, grid16):
        # coordinate sphere r = 2 paired with the geodesic sphere sinh rho = 2:
        # both induce 4 g_0
        surface = coordinate_sphere_surface(2.0, grid16)
        metric = ads_schwarzschild_metric(ADS_M, 1.0)
        assert isometry_mismatch(*mass_forms(surface, metric)) < 1e-10

    def test_mismatched_radii_detected(self, grid16):
        r, r0 = 2.0, 1.5
        rho = math.asinh(r0)
        Rb = math.tanh(rho / 2.0)

        surface = SurfaceData(F=scaled_sphere(r), grid=grid16, k=1.0,
                              F0=scaled_sphere(Rb))
        mismatch = isometry_mismatch(*mass_forms(surface, euclidean_metric()))
        # max component of (r^2 - r0^2) (dtheta^2 + sin^2 theta dphi^2)
        assert abs(mismatch - (r ** 2 - r0 ** 2)) < 1e-3
