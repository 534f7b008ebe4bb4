"""Mass functionals: E(Sigma), Shi-Tam, Wang's mass, asymptotic limit."""

import contextlib
import copy
import dataclasses
import io
import math
import re
import tracemalloc

import numpy as np
import pytest

import reference_geometry as ref
from hypermass.errors import (ConfigError, DomainError, IsometryViolation,
                              MissingEmbedding, NonPositiveMeanCurvature)
from hypermass.geometry import (QuadratureGrid, SphereTensor, SurfaceData,
                                ads_schwarzschild_metric,
                                coordinate_sphere_surface,
                                euclidean_metric, geodesic_sphere_surface,
                                hyperbolic_ball_metric,
                                radial_profile_surface, surface_forms,
                                unit_directions)
from hypermass.hypgeom import areal_to_minkowski, ball_to_minkowski
from hypermass.lorentz import (CausalClass, classify, minkowski_inner,
                               sample_null_cone)
from hypermass import cli
from hypermass import mass as massmod
from hypermass.mass import (ah_sphere_data, asymptotic_limit,
                            energy_momentum, killing_weighted_mass,
                            mass_forms, round_sphere_quadrature,
                            shi_tam_alpha, shi_tam_vector,
                            surface_mass_data, wang_mass)
from hypermass.spinor import killing_spinor_norms_sq, zeta_of

from conftest import (ADS_M, ADS_RADII, ASYMPTOTIC_RADII, RIGID_RADII,
                      ads_potential, exact_ads_energy, form_matrices, n_nodes,
                      norm_inf, random_spinors, scaled_sphere)


def mobius_jet(F, a):
    """Jet callable of T_a o F by the chain rule, for the ball isometry
    T_a(x) = ((1 + 2a.x + |x|^2) a + (1 - |a|^2) x) / (1 + 2a.x + |a|^2|x|^2)
    (k = 1), written as T = N / D: with N = T D differentiated once and
    twice, DT[u] = (DN[u] - T DD[u]) / D and
    D2T[u, v] = (D2N[u, v] - DT[u] DD[v] - DT[v] DD[u] - T D2D[u, v]) / D."""
    a = np.asarray(a, dtype=float)
    a2 = float(a @ a)

    def G(theta, phi):
        x, dx, ddx = F(theta, phi)
        ax, xx = x @ a, np.sum(x * x, axis=-1)
        D = (1.0 + 2.0 * ax + a2 * xx)[..., None]
        T = ((1.0 + 2.0 * ax + xx)[..., None] * a + (1.0 - a2) * x) / D

        def dD(u):
            return 2.0 * np.sum((a + a2 * x) * u, axis=-1)[..., None]

        def dT(u):
            dN = (2.0 * np.sum((a + x) * u, axis=-1)[..., None] * a
                  + (1.0 - a2) * u)
            return (dN - T * dD(u)) / D

        dG = np.stack([dT(dx[..., p, :]) for p in range(2)], axis=-2)
        ddG = np.empty_like(ddx)
        for p in range(2):
            for q in range(2):
                u, v = dx[..., p, :], dx[..., q, :]
                uv = np.sum(u * v, axis=-1)[..., None]
                d2T = (2.0 * uv * a - dG[..., p, :] * dD(v)
                       - dG[..., q, :] * dD(u) - T * (2.0 * a2 * uv)) / D
                ddG[..., p, q, :] = d2T + dT(ddx[..., p, q, :])
        return T, dG, ddG

    return G


class TestEnergyMomentum:
    def test_rigidity(self, rigid_scenarios):
        for rho in RIGID_RADII:
            _, _, E = rigid_scenarios[rho]
            assert norm_inf(E) < 1e-10

    def test_rigidity_of_a_moved_sphere(self, grid64, hyp_metric):
        # the geodesic sphere rho = 1 moved by a ball isometry, through the
        # reference Gauss formula in the Poincare ball, paired with the
        # centred sphere through the closed-form pass: H and H0 come from
        # different nodes and different code, so E = 0 is no identity of
        # one computation (d(0, a) = 0.44 < rho keeps the chart origin
        # inside, where the normals point)
        rho, a = 1.0, (0.12, -0.1, 0.15)
        centred = geodesic_sphere_surface(rho, 1.0, grid64)
        moved = ref.forms(mobius_jet(ref.ball_jet(centred.F), a), grid64,
                          ref.ball_chart(1.0))
        forms0 = surface_forms(centred, hyp_metric)
        assert np.max(np.abs(moved.first
                             - form_matrices(forms0, grid64).first)) <= 1e-12
        u = unit_directions(*grid64.node_axes()).reshape(-1, 3)
        data = massmod.SurfaceMassData(
            H=moved.mean_curvature, H0=forms0.mean_curvature,
            X=areal_to_minkowski(forms0.radius, u),
            measure=grid64.measure_weights() * moved.area_element, k=1.0)
        assert np.max(np.abs(data.H - 1.0 / math.tanh(rho))) <= 1e-12
        assert np.any(data.H != data.H0)
        assert norm_inf(data.energy()) <= 1e-9

    def test_ads_closed_form_oracle(self, ads_scenarios):
        for r in ADS_RADII:
            _, _, E = ads_scenarios[r]
            target = exact_ads_energy(r)
            assert abs(E.t - target) < 1e-8 * target
            assert max(abs(E.x1), abs(E.x2), abs(E.x3)) < 1e-9
            assert classify(E) is CausalClass.TIMELIKE_FUTURE

    @pytest.mark.parametrize("n_theta", [32, 64, 128])
    @pytest.mark.parametrize("r", [2.0, 10.0])
    def test_ads_closed_form_to_roundoff(self, ads_metric, r, n_theta):
        grid = QuadratureGrid.build(n_theta, 2 * n_theta)
        E = energy_momentum(coordinate_sphere_surface(r, grid), ads_metric)
        target = exact_ads_energy(r)
        assert abs(E.t - target) <= 1e-10 * target
        assert max(abs(E.x1), abs(E.x2), abs(E.x3)) <= 1e-10

    def test_normalized_r_independence(self, ads_scenarios):
        # E_t / sqrt((1 + r^2)/V(r)) is the r-independent combination
        ratios = [ads_scenarios[r][2].t
                  / math.sqrt((1 + r ** 2) / ads_potential(r))
                  for r in ADS_RADII]
        spread = max(ratios) - min(ratios)
        assert spread < 1e-9 * ratios[0]

    def test_vanishing_mass_parameter(self, grid32):
        metric = ads_schwarzschild_metric(0.0, 1.0)
        surface = coordinate_sphere_surface(2.0, grid32)
        E = energy_momentum(surface, metric)
        assert norm_inf(E) < 1e-10

    def test_missing_embedding(self, grid32):
        surface = SurfaceData(F=scaled_sphere(1.0), grid=grid32, k=1.0)
        with pytest.raises(MissingEmbedding):
            energy_momentum(surface, hyperbolic_ball_metric(1.0))

    def test_nonpositive_mean_curvature_names_node(self, grid32):
        # geodesic radius 1 + 0.95 cos theta: the dimple near the south
        # pole is not convex
        surface = radial_profile_surface(1.0, (0.0, 0.0, 0.95), 1.0, grid32)
        with pytest.raises(NonPositiveMeanCurvature) as exc:
            energy_momentum(surface, hyperbolic_ball_metric(1.0))
        assert "node" in str(exc.value)

    def test_isometry_violation(self, grid32):
        surface = SurfaceData(F=scaled_sphere(2.0), F0=scaled_sphere(1.5),
                              grid=grid32, k=1.0)
        with pytest.raises(IsometryViolation):
            energy_momentum(surface, ads_schwarzschild_metric(ADS_M, 1.0))

    def test_isometry_violation_is_the_reported_criterion(self, grid32):
        # the induced metrics differ by 2e-8: above iso_tol = 1e-8, the
        # bound the mass report prints, though below iso_tol times the
        # metric scale 4
        rho = math.asinh(math.sqrt(4.0 - 2e-8))
        surface = SurfaceData(
            F=scaled_sphere(2.0),
            F0=geodesic_sphere_surface(rho, 1.0, grid32).F0,
            grid=grid32, k=1.0)
        with pytest.raises(IsometryViolation):
            energy_momentum(surface, euclidean_metric())


class TestShiTam:
    def test_alpha_coincident_radii(self):
        assert abs(shi_tam_alpha(1.0, 1.0) - 1.0 / math.tanh(1.0)) < 1e-15

    def test_alpha_one_two(self):
        s1, s2 = math.sinh(1.0), math.sinh(2.0)
        direct = 1.0 / math.tanh(1.0) \
            + math.sqrt(s2 ** 2 / s1 ** 2 - 1.0) / s1
        assert abs(shi_tam_alpha(1.0, 2.0) - direct) < 1e-14
        assert abs(direct - 3.7974) < 5e-4

    def test_alpha_large_radius_limit(self):
        assert abs(shi_tam_alpha(30.0, 30.0) - 1.0) < 1e-12

    def test_alpha_domain_errors(self):
        with pytest.raises(DomainError):
            shi_tam_alpha(2.0, 1.0)
        with pytest.raises(DomainError):
            shi_tam_alpha(0.0, 1.0)

    def test_alpha_exceeds_one_on_grid(self):
        r1s = np.linspace(0.1, 3.0, 20)
        for R1 in r1s:
            for R2 in np.linspace(R1, R1 + 3.0, 20):
                assert shi_tam_alpha(float(R1), float(R2)) > 1.0

    def test_alpha_increasing_in_outer_radius(self):
        R1 = 0.8
        vals = [shi_tam_alpha(R1, R2) for R2 in np.linspace(R1, 4.0, 25)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_vector_vanishes_on_rigid_sphere(self, rigid_scenarios):
        _, data, _ = rigid_scenarios[1.0]
        M = shi_tam_vector(data, alpha=1.5)
        assert norm_inf(M) < 1e-10

    def test_ads_time_component_positive(self, ads_scenarios):
        _, data, _ = ads_scenarios[2.0]
        M = shi_tam_vector(data, alpha=1.0)
        assert M.t > 0.0
        assert np.min(data.H0 - data.H) > 0.0  # H_0 > H pointwise (V < 1+r^2)

    def test_alpha_ordering(self, ads_scenarios):
        _, data, _ = ads_scenarios[2.0]
        M1 = shi_tam_vector(data, alpha=1.0)
        M2 = shi_tam_vector(data, alpha=2.0)
        assert M2.t > M1.t
        assert abs(M2.t - 2.0 * M1.t) < 1e-12 * abs(M1.t)  # linear in alpha

    def test_alpha_below_one_rejected(self, rigid_scenarios):
        _, data, _ = rigid_scenarios[1.0]
        with pytest.raises(DomainError):
            shi_tam_vector(data, alpha=0.5)


class TestWangMass:
    def test_round_multiple(self, grid64):
        ups = wang_mass(round_sphere_quadrature(SphereTensor(g0_coeff=0.5),
                                                grid64))
        assert abs(ups.t - 4 * math.pi) < 1e-12
        assert max(abs(ups.x1), abs(ups.x2), abs(ups.x3)) < 1e-12

    def test_zero_tensor(self, grid64):
        assert norm_inf(wang_mass(round_sphere_quadrature(SphereTensor(),
                                                           grid64))) == 0.0

    def test_odd_trace_profile(self, grid64):
        ups = wang_mass(round_sphere_quadrature(
            SphereTensor(linear=(0.0, 0.0, 1.0)), grid64))
        assert abs(ups.t) < 1e-12
        assert abs(ups.x3 - 4 * math.pi / 3) < 1e-12
        assert max(abs(ups.x1), abs(ups.x2)) < 1e-12


class TestKillingWeightedMass:
    def test_rigid_sphere_vanishes(self, rigid_scenarios, hyp_metric):
        surface, data, _ = rigid_scenarios[1.0]
        for a in ([1, 0], [0.3 + 1j, -0.7]):
            val = killing_weighted_mass(surface, hyp_metric, a, 1, data=data)
            assert abs(val) < 1e-10

    def test_ads_dual_path(self, ads_scenarios, ads_metric):
        surface, data, E = ads_scenarios[2.0]
        val = killing_weighted_mass(surface, ads_metric, [1, 0], 1, data=data)
        pairing = minkowski_inner(E, zeta_of([1, 0], 1))
        assert val > 0.0
        assert abs(val + 2.0 * pairing) < 1e-8 * (1.0 + abs(pairing))

    def test_dual_path_many_spinors(self, ads_scenarios, ads_metric):
        surface, data, E = ads_scenarios[1.0]
        rng = np.random.default_rng(79)
        for a in random_spinors(rng, 50):
            for sign in (1, -1):
                val = killing_weighted_mass(surface, ads_metric, a, sign,
                                            data=data)
                pairing = minkowski_inner(E, zeta_of(a, sign))
                assert abs(val + 2.0 * pairing) < 1e-8 * (1.0 + abs(pairing))

    def test_quadratic_scaling(self, ads_scenarios, ads_metric):
        surface, data, _ = ads_scenarios[2.0]
        a = np.array([0.4, 0.9 - 0.3j])
        v1 = killing_weighted_mass(surface, ads_metric, a, 1, data=data)
        v2 = killing_weighted_mass(surface, ads_metric, 3.0 * a, 1, data=data)
        assert abs(v2 - 9.0 * v1) < 1e-12 * abs(v2)

    def test_characterization_consistency(self, ads_scenarios, ads_metric):
        # classify(E) = TimelikeFuture <=> weighted mass > 0 on all sampled
        # null directions (a -> zeta_a is onto the future null cone)
        from hypermass.spinor import null_to_spinor

        surface, data, E = ads_scenarios[2.0]
        assert classify(E) is CausalClass.TIMELIKE_FUTURE
        vals = killing_weighted_mass(surface, ads_metric,
                                     null_to_spinor(sample_null_cone(500)), 1,
                                     data=data)
        assert vals.shape == (500,) and np.all(vals > 0.0)


@pytest.fixture(scope="module")
def ads_r10(grid64, ads_metric):
    """The AdS-Schwarzschild coordinate sphere r = 10: (surface, data, E)."""
    surface = coordinate_sphere_surface(10.0, grid64)
    data = surface_mass_data(surface, ads_metric)
    return surface, data, energy_momentum(surface, ads_metric, data=data)


@pytest.fixture
def form_builds(monkeypatch):
    """Sign of each Q build: the only node pass of the spinor-weighted mass
    is its call of killing_spinor_norms_sq."""
    signs = []
    norms = massmod.killing_spinor_norms_sq

    def counted(a, points, sign, *args, **kwargs):
        signs.append(sign)
        return norms(a, points, sign, *args, **kwargs)

    monkeypatch.setattr(massmod, "killing_spinor_norms_sq", counted)
    return signs


class TestKillingForm:
    def test_eigenvalues_are_the_null_pairing_extremes(self, ads_scenarios,
                                                       ads_r10):
        # Q_sign has eigenvalues 2 (E_t -+ |E_s|) = -2 (max, min) of
        # <E, zeta> over the future null zeta = (u, 1)
        for _, data, E in (ads_scenarios[2.0], ads_r10):
            spatial = math.hypot(E.x1, E.x2, E.x3)
            expect = 2.0 * np.array([E.t - spatial, E.t + spatial])
            for sign in (1, -1):
                lam = np.linalg.eigvalsh(data.killing_form(sign))
                assert np.max(np.abs(lam - expect)) \
                    < 1e-8 * (1.0 + norm_inf(E))

    def test_hermitian_and_read_only(self, ads_scenarios):
        _, data, _ = ads_scenarios[2.0]
        for sign in (1, -1):
            Q = data.killing_form(sign)
            assert Q.shape == (2, 2)
            assert np.array_equal(Q, Q.conj().T)
            assert not Q.flags.writeable

    def test_positive_definite_when_timelike_future(self, ads_scenarios,
                                                    ads_r10):
        for _, data, E in list(ads_scenarios.values()) + [ads_r10]:
            assert classify(E) is CausalClass.TIMELIKE_FUTURE
            for sign in (1, -1):
                assert np.min(np.linalg.eigvalsh(data.killing_form(sign))) > 0

    def test_vanishes_on_rigid_spheres(self, rigid_scenarios):
        for rho in RIGID_RADII:
            _, data, _ = rigid_scenarios[rho]
            for sign in (1, -1):
                assert np.max(np.abs(data.killing_form(sign))) <= 1e-10

    def test_matches_the_per_node_route(self, ads_scenarios, ads_metric):
        surface, data, _ = ads_scenarios[2.0]
        w = (data.H0 ** 2 - data.H ** 2) / data.H
        rng = np.random.default_rng(2718)
        for sign in (1, -1):
            killing_weighted_mass(surface, ads_metric, [1, 0], sign,
                                  data=data)  # warm the memo
            for a in random_spinors(rng, 50):
                norms = killing_spinor_norms_sq(a, data.ball_points, sign)
                [node_route] = data.weighted(w * norms[None])
                val = killing_weighted_mass(surface, ads_metric, a, sign,
                                            data=data)
                assert abs(val - node_route) <= 1e-13 * abs(node_route)

    def test_stacked_spinors_match_single_calls(self, ads_scenarios,
                                                ads_metric):
        surface, data, _ = ads_scenarios[2.0]
        A = random_spinors(np.random.default_rng(161), 20)
        for sign in (1, -1):
            stacked = killing_weighted_mass(surface, ads_metric, A, sign,
                                            data=data)
            single = [killing_weighted_mass(surface, ads_metric, a, sign,
                                            data=data) for a in A]
            assert all(isinstance(v, float) for v in single)
            assert stacked.shape == (20,)
            assert np.allclose(stacked, single, rtol=1e-15, atol=0.0)

    def test_checks_run_on_a_warm_memo(self, ads_scenarios, ads_metric):
        surface, data, _ = ads_scenarios[2.0]
        for sign in (1, -1):
            killing_weighted_mass(surface, ads_metric, [1, 0], sign,
                                  data=data)
        for a, sign in (([np.nan, 0], 1), ([1, 0, 0], 1), ([1, 0], 0)):
            with pytest.raises(DomainError):
                killing_weighted_mass(surface, ads_metric, a, sign, data=data)
        k2 = copy.copy(data)  # shares the warm memo
        k2.k = 2.0
        assert set(k2.killing_forms) == {1, -1}
        with pytest.raises(DomainError):
            killing_weighted_mass(surface, ads_metric, [1, 0], 1, data=k2)

    def test_one_build_per_sign(self, ads_scenarios, ads_metric,
                                form_builds):
        surface, data, _ = ads_scenarios[2.0]
        fresh = dataclasses.replace(data)
        assert fresh.killing_forms == {}
        for a in random_spinors(np.random.default_rng(5), 200):
            for sign in (1, -1):
                killing_weighted_mass(surface, ads_metric, a, sign,
                                      data=fresh)
        assert form_builds == [1, -1]
        # a sign equal to +-1 in another numeric type reuses the same Q
        for sign in (np.array(1), np.int64(-1), 1.0):
            killing_weighted_mass(surface, ads_metric, [1, 0], sign,
                                  data=fresh)
        assert form_builds == [1, -1]
        other = dataclasses.replace(data)
        assert other.killing_forms == {}
        killing_weighted_mass(surface, ads_metric, [1, 0], -1, data=other)
        assert form_builds == [1, -1, -1]


class TestAHSphereData:
    def test_zero_tensor(self, grid64):
        d = ah_sphere_data(0.3, round_sphere_quadrature(SphereTensor(), grid64))
        assert np.all(d.H == d.H0)
        assert np.all(d.H == math.cosh(0.3))

    def test_round_multiple_offset(self, grid64):
        c, r = 0.7, 0.1
        d = ah_sphere_data(
            r, round_sphere_quadrature(SphereTensor(g0_coeff=c), grid64))
        expect = -0.25 * r ** 3 * 2 * c
        assert np.max(np.abs((d.H - d.H0) - expect)) < 1e-15

    def test_h_positive_in_validity_range(self, grid64):
        for tau in (10.0, -10.0):
            d = ah_sphere_data(0.5, round_sphere_quadrature(
                SphereTensor(g0_coeff=tau / 2.0), grid64))
            assert np.min(d.H) > 0.0

    def test_radius_validation(self, grid64):
        # the one range check on the asymptotic radii, a config error
        sphere = round_sphere_quadrature(SphereTensor(), grid64)
        for r in (0.6, 0.0, math.nan):
            with pytest.raises(ConfigError, match="must lie in"):
                ah_sphere_data(r, sphere)

    def test_positions_on_hyperboloid(self, grid64):
        d = ah_sphere_data(
            0.2, round_sphere_quadrature(SphereTensor(g0_coeff=1.0), grid64))
        q = np.sum(d.X[:, :3] ** 2, axis=1) - d.X[:, 3] ** 2
        assert np.max(np.abs(q + 1.0)) < 1e-12

    @pytest.mark.parametrize("r", [0.5, 0.2, 0.025])
    def test_ball_points_map_to_positions(self, r, grid64):
        d = ah_sphere_data(
            r, round_sphere_quadrature(SphereTensor(g0_coeff=1.0), grid64))
        assert d.k == 1.0
        X = ball_to_minkowski(d.ball_points)
        assert np.max(np.abs(X - d.X)) < 1e-12 * np.max(np.abs(d.X))

    def test_energy_is_round_sphere_sum(self):
        # the expansion integral as a sum over the round dS weights, written
        # out apart from SurfaceMassData.energy
        r, grid = 0.1, QuadratureGrid.build(16, 32)
        d = ah_sphere_data(r, round_sphere_quadrature(
            SphereTensor(g0_coeff=0.5, linear=(0.3, -0.2, 0.1)), grid))
        theta = grid.node_axes()[0]
        w_round = (grid.measure_weights().reshape(grid.n_theta, -1)
                   * np.sin(theta)).ravel()
        integ = w_round / math.sinh(r) ** 2 * ((d.H0 ** 2 - d.H ** 2) / d.H)
        expect = [math.fsum((integ * d.X[:, c]).tolist()) for c in range(4)]
        E = d.energy()
        assert [E.x1, E.x2, E.x3, E.t] == pytest.approx(expect, rel=1e-15)


class TestAsymptoticLimit:
    def test_limits_match_half_upsilon(self, asymptotic_results):
        for name, (_, extrapolated, upsilon_half) in \
                asymptotic_results.items():
            scale = max(norm_inf(upsilon_half), 1.0)
            assert norm_inf(extrapolated - upsilon_half) < 0.01 * scale, name

    def test_observed_order_at_least_one(self, asymptotic_results):
        sizes = [1.0 / r for r in ASYMPTOTIC_RADII]
        for name, (energies, _, _) in asymptotic_results.items():
            assert float(cli.observed_orders(energies, sizes)[-1]) >= 1.0, \
                name

    def test_zero_field_is_exact(self, grid64):
        energies, extrapolated = asymptotic_limit(
            round_sphere_quadrature(SphereTensor(), grid64), ASYMPTOTIC_RADII)
        assert energies.shape == (len(ASYMPTOTIC_RADII), 4)
        for E in energies:
            assert norm_inf(E) == 0.0
        assert norm_inf(extrapolated) == 0.0
        # no order is read off a series of exact zeros
        sizes = [1.0 / r for r in ASYMPTOTIC_RADII]
        assert cli.observed_orders(energies, sizes)[-1] == "floor"

    def test_small_sphere_energy_time_slot(self, grid64):
        # (H0^2 - H^2)/H -> (1/2) tr(h) r^3 and the measure ~ dS/r^2 with
        # time position ~ 1/r, so the time component approaches
        # (1/2) int tr h dS as r -> 0
        h = SphereTensor(g0_coeff=0.5)
        E = ah_sphere_data(0.05, round_sphere_quadrature(h, grid64)).energy()
        assert abs(E.t - 2 * math.pi) < 0.01 * 2 * math.pi

    def test_requires_three_decreasing_radii(self, grid64):
        # the one check on the count and the order of the radii
        sphere = round_sphere_quadrature(SphereTensor(g0_coeff=1.0), grid64)
        with pytest.raises(ConfigError, match="at least 3 radii"):
            asymptotic_limit(sphere, [0.2, 0.1])
        with pytest.raises(ConfigError, match="strictly decreasing"):
            asymptotic_limit(sphere, [0.1, 0.2, 0.05])


class TestSurfaceMassData:
    def test_ball_points_map_to_positions(self, grid32, hyp_metric):
        # the hyperboloid positions from the areal radius, and those of the
        # ball points, agree on a tilted graph
        surface = radial_profile_surface(1.0, (0.2, -0.1, 0.1), 1.0, grid32)
        data = surface_mass_data(surface, hyp_metric)
        X = ball_to_minkowski(data.ball_points)
        assert np.max(np.abs(X - data.X)) < 1e-14 * np.max(np.abs(data.X))

    def test_h3_side_mean_curvature(self, rigid_scenarios):
        _, data, _ = rigid_scenarios[1.0]
        assert np.max(np.abs(data.H0 - 1.0 / math.tanh(1.0))) < 1e-8

    def test_weights_integrate_area(self, ads_scenarios):
        _, data, _ = ads_scenarios[2.0]
        [area] = data.weighted(np.ones_like(data.H)[None])
        assert abs(area - 16 * math.pi) < 1e-8 * 16 * math.pi

    def test_overflowing_integrand_is_a_domain_error(self):
        # H ~ 4e297 at r = 0.2: H^2 overflows, so E and Q sum to nan or inf;
        # and (H0 - H) x, with x_t = 1e10, overflows M_alpha
        data = ah_sphere_data(0.2, round_sphere_quadrature(
            SphereTensor(g0_coeff=-1e300), QuadratureGrid.build(8, 16)))
        with pytest.raises(DomainError, match="overflows a float"):
            data.energy()
        with pytest.raises(DomainError, match="overflows a float"):
            data.killing_form(1)
        with pytest.raises(DomainError, match="overflows a float"):
            data.weighted(np.full_like(data.H, np.inf)[None])
        far = massmod.SurfaceMassData(
            H=np.ones(2), H0=np.full(2, 1e300), X=np.full((2, 4), 1e10),
            measure=np.ones(2), k=1.0)
        with pytest.raises(DomainError, match="overflows a float"):
            shi_tam_vector(far, 1.0)
        # finite node values whose exact sum is past the largest float,
        # where math.fsum raises OverflowError
        edge = massmod.SurfaceMassData(
            H=np.ones(2), H0=np.full(2, 1e308), X=np.ones((2, 4)),
            measure=np.ones(2), k=1.0)
        with pytest.raises(DomainError, match="overflows a float"):
            shi_tam_vector(edge, 1.0)
        # tr(h) = 2 g0_coeff overflows, and inf * 0 is nan in the rows
        with pytest.raises(DomainError, match="overflows a float"):
            wang_mass(round_sphere_quadrature(SphereTensor(g0_coeff=1e308),
                                              QuadratureGrid.build(8, 16)))
        # X_t = sqrt(1/k^2 + R^2) divides by k^2, so a k whose square
        # underflows is refused before any node is built
        with pytest.raises(DomainError, match="k\\^2 a normal float"):
            surface_mass_data(coordinate_sphere_surface(
                2.0, QuadratureGrid.build(8, 16), 1e-170), euclidean_metric())

    def test_positivity_sampled(self, ads_scenarios, rigid_scenarios):
        for r in ADS_RADII:
            assert classify(ads_scenarios[r][2]) \
                is CausalClass.TIMELIKE_FUTURE
        for rho in RIGID_RADII:
            assert norm_inf(rigid_scenarios[rho][2]) < 1e-10


def _adversarial_rows(case, rng):
    """Seeded rows (m, N) on which a sum that is not exactly rounded, or
    that loses a sign or an exponent, differs from math.fsum."""
    if case == "single":
        return np.array([[rng.standard_normal()], [-0.0], [5e-324],
                         [-1.5e300]])
    if case == "odd":
        return [rng.standard_normal((3, n)) for n in (3, 7, 101, 4097)]
    if case == "large":
        return rng.standard_normal((2, 40000)) * rng.uniform(0.5, 2.0, 40000)
    if case == "zeros":
        rows = np.zeros((3, 1001))
        rows[1] = -0.0
        rows[2, ::3] = -0.0
        return rows
    if case == "spread":
        return (rng.standard_normal((4, 2001))
                * 10.0 ** rng.uniform(-30, 30, (4, 2001)))
    if case == "huge":
        return (rng.standard_normal((3, 1001))
                * 10.0 ** rng.uniform(290, 300, (3, 1001)))
    if case == "tiny":
        rows = (rng.standard_normal((3, 1001))
                * 10.0 ** rng.uniform(-320, -290, (3, 1001)))
        rows[2, ::7] = 5e-324
        return rows
    if case == "cancel":
        # sign-alternating pairs that cancel to about 0, and exactly
        a = rng.standard_normal(2000) * 10.0 ** rng.uniform(-20, 20, 2000)
        near = np.empty(4000)
        near[0::2], near[1::2] = a, -a * (1.0 + 1e-16 * rng.standard_normal(
            2000))
        exact = np.concatenate([a, -a])
        return np.stack([near, exact, rng.permutation(exact), near[::-1]])
    if case == "ties":
        # exact sums on and next to a rounding midpoint
        u = 2.0 ** -53
        rows = [[1.0, u, 0.0], [1.0, u, u * u], [1.0, u, -u * u],
                [1.0 + 2 * u, u, 0.0], [-1.0, -u, 0.0], [3.0, -u, 0.0]]
        return np.array(rows)[:, rng.permutation(3)]
    raise ValueError(case)


SUM_CASES = ("single", "odd", "large", "zeros", "spread", "huge", "tiny",
             "cancel", "ties")


class TestExactSums:
    # massmod._fsum_rows returns math.fsum's float bit for bit, without a
    # tolist, and never writes into its input
    @staticmethod
    def assert_fsum(rows):
        rows = np.ascontiguousarray(rows)
        before = rows.tobytes()
        got = massmod._fsum_rows(rows)
        expect = [math.fsum(row.tolist()) for row in rows]
        assert np.array(got).tobytes() == np.array(expect).tobytes()
        assert all(type(s) is float for s in got)
        assert rows.tobytes() == before

    @pytest.mark.parametrize("case", SUM_CASES)
    def test_equals_fsum(self, case):
        rows = _adversarial_rows(case, np.random.default_rng(2008))
        for block in rows if isinstance(rows, list) else [rows]:
            self.assert_fsum(block)

    def test_equals_fsum_on_random_rows(self):
        rng = np.random.default_rng(31)
        for i in range(1500):
            n = int(rng.integers(1, 300))
            scale = 10.0 ** rng.uniform(-40, 40, (2, n)) if i % 2 else 1.0
            rows = rng.standard_normal((2, n)) * scale
            if i % 3 == 0:
                rows[1] -= rows[1].mean()
            self.assert_fsum(rows)

    def test_non_finite_entry_gives_non_finite_sum(self):
        # the sum of a row with a nan or an inf is nan or +-inf, and is
        # refused as a DomainError that names every row's sum
        finite = math.fsum([0.1, 0.2, 0.3])
        for row, total in [([1.0, np.nan, 2.0], math.nan),
                           ([1.0, np.inf, 2.0], math.inf),
                           ([np.inf, 1.0, -np.inf], math.nan),
                           ([-np.inf, 1.0, 0.5], -math.inf)]:
            with pytest.raises(DomainError, match=re.escape(
                    f"overflows a float: {[total, finite]}")):
                massmod._fsum_rows(np.array([row, [0.1, 0.2, 0.3]]))
        assert massmod._fsum_rows([[0.1, 0.2, 0.3]]) == [finite]

    def test_overflow_as_fsum(self):
        # a row whose exact sum is past the largest float is refused, as
        # math.fsum refuses it, but as a DomainError
        row = [1.7e308, 1.7e308]
        with pytest.raises(OverflowError):
            math.fsum(row)
        with pytest.raises(DomainError, match="overflows a float"):
            massmod._fsum_rows(np.array([row]))

    def test_any_layout(self):
        # nested lists, and a transposed (non-contiguous) view
        assert massmod._fsum_rows([[0.1, 0.2, 0.3]]) == [0.6]
        cols = np.random.default_rng(5).standard_normal((100, 3))
        assert massmod._fsum_rows(cols.T) == [math.fsum(c) for c in cols.T]


NODE_FIELDS = ("H", "H0", "X", "measure")


def _node_bytes(data):
    return {name: getattr(data, name).tobytes() for name in NODE_FIELDS}


class TestReductionsReadOnly:
    # the reductions work in buffers of their own: the node data of a
    # SurfaceMassData is byte-unchanged by every functional that sums it
    def test_functionals(self, grid32, ads_metric):
        surface = coordinate_sphere_surface(2.0, grid32)
        data = surface_mass_data(surface, ads_metric)
        before = _node_bytes(data)
        data.energy()
        shi_tam_vector(data, 1.3)
        for sign in (1, -1):
            data.killing_form(sign)
        data.area()
        data.weighted(np.ones_like(data.H)[None])
        assert _node_bytes(data) == before

    def test_run_convergence(self, tmp_path, monkeypatch):
        made = []
        build = massmod.surface_mass_data

        def recorded(*args, **kwargs):
            data = build(*args, **kwargs)
            made.append((data, _node_bytes(data)))
            return data

        monkeypatch.setattr(massmod, "surface_mass_data", recorded)
        cfg = cli.resolve_config({
            "metric": {"type": "ads_schwarzschild", "k": 1.0, "m": ADS_M},
            "surface": {"type": "coordinate_sphere", "r": 2.0}})
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run_convergence(cfg, [8, 16, 32], outdir=tmp_path)
        assert len(made) == 3
        for data, before in made:
            assert _node_bytes(data) == before


def test_reduction_memory_peak():
    # tracemalloc peak of E and M_alpha at 128x256 in float (N,) arrays
    # (numpy 2.4): 10.0, all of it the integrand rows (4, N), their
    # product with the measure and the two extraction buffers (N,) (13.0
    # for the tolist and fsum sums that these replace)
    grid = QuadratureGrid.build(128, 256)
    metric = ads_schwarzschild_metric(ADS_M, 1.0)
    surface = coordinate_sphere_surface(2.0, grid)
    data = surface_mass_data(surface, metric)
    tracemalloc.start()
    try:
        data.energy()
        shi_tam_vector(data, 1.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12.0 * n_nodes(grid) * np.dtype(float).itemsize


def test_mass_forms_keep_sphere_components_on_the_theta_axis():
    # the two node passes of a graph of constant radius hold H, the area
    # element and R of each side as float (N,) arrays, 6 N floats, and the
    # components of I and II on the theta axis; (N, 2, 2) matrices held 22
    grid = QuadratureGrid.build(128, 256)
    surface = coordinate_sphere_surface(2.0, grid)
    metric = ads_schwarzschild_metric(ADS_M, 1.0)
    tracemalloc.start()
    try:
        pair = mass_forms(surface, metric)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    for forms in pair:
        for x in forms.first + forms.second:
            assert np.shape(x) in ((), (grid.n_theta, 1))
    assert held <= 8.0 * n_nodes(grid) * np.dtype(float).itemsize
