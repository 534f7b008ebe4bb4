"""Mass functionals: E(Sigma), Shi-Tam, Wang's mass, asymptotic limit."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_geometry as ref
import reference_spinor
from hypermass.errors import (ConfigError, DomainError, IsometryViolation,
                              MissingEmbedding, NonPositiveMeanCurvature)
from hypermass.geometry import (QuadratureGrid, SurfaceData,
                                ads_schwarzschild_metric,
                                coordinate_sphere_surface,
                                euclidean_metric, geodesic_sphere_surface,
                                hyperbolic_ball_metric,
                                radial_profile_surface, surface_forms)
from hypermass.hypgeom import areal_to_minkowski, ball_to_minkowski
from hypermass.lorentz import (CausalClass, classify, minkowski_inner,
                               sample_null_cone)
from hypermass import cli
from hypermass import mass as massmod
from hypermass.mass import (ah_sphere_data, asymptotic_limit,
                            energy_momentum, killing_weighted_mass,
                            mass_forms, round_sphere_quadrature,
                            shi_tam_alpha, shi_tam_vector,
                            SurfaceMassData, surface_mass_data, wang_mass)
from hypermass.spinor import zeta_of

from conftest import (ADS_M, ADS_RADII, ASYMPTOTIC_RADII, RIGID_RADII,
                      TILTED_LINEAR, ZERO_LINEAR, ads_potential,
                      einsum_killing_norms_sq, exact_ads_energy,
                      form_matrices, n_nodes, node_arrays, norm_inf,
                      on_nodes, positions, random_spinors, scaled_sphere,
                      waist_graph)


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
        shape = (grid64.n_theta, grid64.n_phi)
        data = massmod.SurfaceMassData(
            H=moved.mean_curvature.reshape(shape),
            H0=forms0.mean_curvature,
            measure=(grid64.measure_weights()
                     * moved.area_element.reshape(shape)),
            X=areal_to_minkowski(forms0.radius, *grid64.node_axes(), 1.0),
            k=1.0)
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
    def test_ads_closed_form_to_roundoff(self, r, n_theta, k=1.0):
        grid = QuadratureGrid.build(n_theta, 2 * n_theta)
        E = energy_momentum(coordinate_sphere_surface(r, grid, k),
                            ads_schwarzschild_metric(ADS_M, k))
        target = exact_ads_energy(r, k=k)
        assert abs(E.t - target) <= 1e-10 * target
        assert max(abs(E.x1), abs(E.x2), abs(E.x3)) <= 1e-10

    @pytest.mark.parametrize("k", [0.5, 2.0])
    @pytest.mark.parametrize("n_theta", [32, 64, 128])
    @pytest.mark.parametrize("r", [2.0, 10.0])
    def test_ads_closed_form_to_roundoff_at_k(self, r, n_theta, k):
        # E_t = (8 pi m/k) sqrt((1 + k^2 r^2)/V) at every k, where X_t =
        # sqrt(1/k^2 + r^2) carries the 1/k
        self.test_ads_closed_form_to_roundoff(r, n_theta, k)

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

    # the least H and the first theta-major node that holds it, as the
    # flattened (N,) field names them, for a graph whose node fields stay
    # on the theta axis (a row index taken for a node would name node 8)
    @pytest.mark.parametrize("case, message", [
        ("theta_axis",
         "H = -0.642385 <= 0 at node 256 (theta=1.4756, phi=0.0000)"),
        ("tilted",
         "H = -15.9219 <= 0 at node 204 (theta=1.8563, phi=2.3562)")])
    def test_nonpositive_mean_curvature_message(self, case, message):
        grid, metric = QuadratureGrid.build(16, 32), hyperbolic_ball_metric(1.0)
        if case == "theta_axis":
            surface = SurfaceData(F=waist_graph(0.5), F0=waist_graph(0.5),
                                  grid=grid, k=1.0)
        else:
            surface = radial_profile_surface(1.0, (0.5, -0.6, 0.3), 1.0,
                                             grid)
        H = surface_forms(surface, metric).mean_curvature
        assert (np.shape(H) == (16, 1)) == (case == "theta_axis")
        H = on_nodes(H, grid)
        node = int(np.argmin(H))
        assert message == (f"H = {H[node]:.6g} <= 0 at "
                           f"{grid.describe_node(node)}")
        with pytest.raises(NonPositiveMeanCurvature) as exc:
            surface_mass_data(surface, metric)
        assert str(exc.value) == message

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
        ups = wang_mass(round_sphere_quadrature(0.5, ZERO_LINEAR, grid64))
        assert abs(ups.t - 4 * math.pi) < 1e-12
        assert max(abs(ups.x1), abs(ups.x2), abs(ups.x3)) < 1e-12

    def test_zero_tensor(self, grid64):
        assert norm_inf(wang_mass(round_sphere_quadrature(
            0.0, ZERO_LINEAR, grid64))) == 0.0

    def test_odd_trace_profile(self, grid64):
        ups = wang_mass(round_sphere_quadrature(
            0.0, (0.0, 0.0, 1.0), grid64))
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
    """One entry for each E that a Q build sums: Q is read off
    SurfaceMassData.energy, and these tests call nothing else that sums E."""
    builds = []
    energy = massmod.SurfaceMassData.energy

    def counted(self):
        builds.append(self)
        return energy(self)

    monkeypatch.setattr(massmod.SurfaceMassData, "energy", counted)
    return builds


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
        points = reference_spinor.ball_points(data)
        rng = np.random.default_rng(2718)
        for sign in (1, -1):
            killing_weighted_mass(surface, ads_metric, [1, 0], sign,
                                  data=data)  # warm the memo
            for a in random_spinors(rng, 50):
                norms = einsum_killing_norms_sq(a, points, sign)
                [node_route] = reference_spinor.node_integral(data, norms)
                val = killing_weighted_mass(surface, ads_metric, a, sign,
                                            data=data)
                assert abs(val - node_route) <= 1e-13 * abs(node_route)

    @pytest.mark.parametrize("grid", [(32, 64), (64, 128)],
                             ids=["32x64", "64x128"])
    def test_matches_the_node_killing_form_with_momentum(
            self, tilted_ads_scenarios, ads_metric, grid):
        # E_s != 0, so the E_s . gamma term of Q is exercised: Q from E
        # and Q summed from the nodes agree on the spinor-weighted mass
        surface, data, E = tilted_ads_scenarios[grid]
        assert norm_inf([E.x1, E.x2, E.x3]) > 1e-2
        A = random_spinors(np.random.default_rng(1618), 50)
        for sign in (1, -1):
            node = reference_spinor.node_weighted_mass(data, A, sign)
            val = killing_weighted_mass(surface, ads_metric, A, sign,
                                        data=data)
            assert np.all(np.abs(val - node) <= 1e-13 * np.abs(node))

    @pytest.mark.parametrize("grid", [(32, 64), (64, 128)],
                             ids=["32x64", "64x128"])
    def test_eigenvalues_with_momentum(self, tilted_ads_scenarios, grid):
        # both the engine's Q and the node-summed Q have eigenvalues
        # 2 (E_t -+ |E_s|), with |E_s| about 0.045 here
        _, data, E = tilted_ads_scenarios[grid]
        spatial = math.hypot(E.x1, E.x2, E.x3)
        expect = 2.0 * np.array([E.t - spatial, E.t + spatial])
        for sign in (1, -1):
            for Q in (data.killing_form(sign),
                      reference_spinor.node_killing_form(data, sign)):
                lam = np.linalg.eigvalsh(Q)
                assert np.max(np.abs(lam - expect)) <= 1e-14 * E.t

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
        for a, sign in (([np.nan, 0], 1), ([1, 0, 0], 1), ([1, 0], 0),
                        ([1, 0], 1.5)):
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
        assert [d is fresh for d in form_builds] == [True, True]
        assert list(fresh.killing_forms) == [1, -1]
        # a sign equal to +-1 in another numeric type reuses the same Q
        for sign in (np.array(1), np.int64(-1), 1.0):
            killing_weighted_mass(surface, ads_metric, [1, 0], sign,
                                  data=fresh)
        assert len(form_builds) == 2
        other = dataclasses.replace(data)
        assert other.killing_forms == {}
        killing_weighted_mass(surface, ads_metric, [1, 0], -1, data=other)
        assert len(form_builds) == 3 and form_builds[2] is other
        assert list(other.killing_forms) == [-1]

class TestAHSphereData:
    def test_zero_tensor(self, grid64):
        d = ah_sphere_data(0.3, round_sphere_quadrature(0.0, ZERO_LINEAR,
                                                        grid64))
        assert np.all(d.H == d.H0)
        assert np.all(d.H == math.cosh(0.3))

    def test_round_multiple_offset(self, grid64):
        c, r = 0.7, 0.1
        d = ah_sphere_data(
            r, round_sphere_quadrature(c, ZERO_LINEAR, grid64))
        expect = -0.25 * r ** 3 * 2 * c
        assert np.max(np.abs((d.H - d.H0) - expect)) < 1e-15

    def test_h_positive_in_validity_range(self, grid64):
        for tau in (10.0, -10.0):
            d = ah_sphere_data(0.5, round_sphere_quadrature(
                tau / 2.0, ZERO_LINEAR, grid64))
            assert np.min(d.H) > 0.0

    def test_radius_validation(self, grid64):
        # the one range check on the asymptotic radii, a config error
        sphere = round_sphere_quadrature(0.0, ZERO_LINEAR, grid64)
        for r in (0.6, 0.0, math.nan):
            with pytest.raises(ConfigError, match="must lie in"):
                ah_sphere_data(r, sphere)

    def test_positions_on_hyperboloid(self, grid64):
        d = ah_sphere_data(
            0.2, round_sphere_quadrature(1.0, ZERO_LINEAR, grid64))
        X = positions(d)
        q = np.sum(X[:3] ** 2, axis=0) - X[3] ** 2
        assert np.max(np.abs(q + 1.0)) < 1e-12

    @pytest.mark.parametrize("r", [0.5, 0.2, 0.025])
    def test_ball_points_map_to_positions(self, r, grid64):
        d = ah_sphere_data(
            r, round_sphere_quadrature(1.0, ZERO_LINEAR, grid64))
        assert d.k == 1.0
        X = ball_to_minkowski(reference_spinor.ball_points(d))
        Xd = positions(d)
        assert np.max(np.abs(X.T - Xd)) < 1e-12 * np.max(np.abs(Xd))

    # the least expanded H and the first theta-major node that holds it, as
    # grid.least_node names them and as the reference tr h on the flat
    # nodes places them, whatever shape tr h has
    @pytest.mark.parametrize("g0, linear, shape", [
        (20.0, ZERO_LINEAR, ()), (0.0, (0.0, 0.0, 80.0), (16, 1)),
        (5.0, (60.0, -40.0, 10.0), (16, 32))],
        ids=["float", "theta_column", "full"])
    def test_nonpositive_expanded_h_names_node(self, g0, linear, shape):
        r, grid = 0.5, QuadratureGrid.build(16, 32)
        sphere = round_sphere_quadrature(g0, linear, grid)
        assert np.shape(sphere[2]) == shape
        least, node = grid.least_node(math.cosh(r)
                                      - 0.25 * r ** 3 * sphere[2])
        xhat = ref.unit_direction_jet(*node_arrays(grid))[0]
        H = math.cosh(r) - 0.25 * r ** 3 * (2.0 * g0 + xhat @ linear)
        assert int(np.argmin(H)) == node
        assert least == pytest.approx(H[node], rel=1e-14) and least <= 0.0
        with pytest.raises(NonPositiveMeanCurvature) as exc:
            ah_sphere_data(r, sphere)
        assert str(exc.value) == (f"expanded H = {least:.6g} <= 0 at "
                                  f"{grid.describe_node(node)} for r = {r}")

    def test_energy_is_round_sphere_sum(self):
        # the expansion integral as a sum over the round dS weights, written
        # out apart from SurfaceMassData.energy
        r, grid = 0.1, QuadratureGrid.build(16, 32)
        d = ah_sphere_data(r, round_sphere_quadrature(
            0.5, (0.3, -0.2, 0.1), grid))
        theta = grid.node_axes()[0]
        w_round = on_nodes(grid.measure_weights() * np.sin(theta), grid)
        H = on_nodes(d.H, grid)
        integ = w_round / math.sinh(r) ** 2 * ((d.H0 ** 2 - H ** 2) / H)
        expect = [math.fsum((integ * X).tolist()) for X in positions(d)]
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
            round_sphere_quadrature(0.0, ZERO_LINEAR, grid64),
            ASYMPTOTIC_RADII)
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
        E = ah_sphere_data(0.05, round_sphere_quadrature(
            0.5, ZERO_LINEAR, grid64)).energy()
        assert abs(E.t - 2 * math.pi) < 0.01 * 2 * math.pi

    def test_requires_three_decreasing_radii(self, grid64):
        # the one check on the count and the order of the radii
        sphere = round_sphere_quadrature(1.0, ZERO_LINEAR, grid64)
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
        X = ball_to_minkowski(reference_spinor.ball_points(data))
        Xd = positions(data)
        assert np.max(np.abs(X.T - Xd)) < 1e-14 * np.max(np.abs(Xd))

    def test_h3_side_mean_curvature(self, rigid_scenarios):
        _, data, _ = rigid_scenarios[1.0]
        assert np.max(np.abs(data.H0 - 1.0 / math.tanh(1.0))) < 1e-8

    def test_weights_integrate_area(self, ads_scenarios):
        _, data, _ = ads_scenarios[2.0]
        area = data.area()
        assert abs(area - 16 * math.pi) < 1e-8 * 16 * math.pi

    def test_overflowing_integrand_is_a_domain_error(self):
        # H ~ 4e297 at r = 0.2: H^2 overflows, so E and Q sum to nan or inf;
        # and (H0 - H) x, with x_t = 1e10, overflows M_alpha
        data = ah_sphere_data(0.2, round_sphere_quadrature(
            -1e300, ZERO_LINEAR, QuadratureGrid.build(8, 16)))
        with pytest.raises(DomainError, match="overflows a float"):
            data.energy()
        with pytest.raises(DomainError, match="overflows a float"):
            data.killing_form(1)
        with pytest.raises(DomainError, match="overflows a float"):
            data.weighted(np.inf)
        # at theta = pi/2, phi = 0: x1 = R, and X_t = sqrt(1 + R^2)
        equator = (math.pi / 2, 0.0)
        far = massmod.SurfaceMassData(
            H=np.ones(2), H0=np.full(2, 1e300), measure=np.ones(2),
            X=areal_to_minkowski(np.full(2, 1e10), *equator, 1.0), k=1.0)
        with pytest.raises(DomainError, match="overflows a float"):
            shi_tam_vector(far, 1.0)
        # finite node values whose exact sum is past the largest float,
        # where math.fsum raises OverflowError
        edge = massmod.SurfaceMassData(
            H=np.ones(2), H0=np.full(2, 1e308), measure=np.ones(2),
            X=areal_to_minkowski(np.ones(2), *equator, 1.0), k=1.0)
        with pytest.raises(DomainError, match="overflows a float"):
            shi_tam_vector(edge, 1.0)
        # tr(h) = 2 g0_coeff overflows, and inf * 0 is nan in the rows
        with pytest.raises(DomainError, match="overflows a float"):
            wang_mass(round_sphere_quadrature(1e308, ZERO_LINEAR,
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
    # massmod._fsum returns math.fsum's float bit for bit, without a
    # tolist, working in the row it sums and one scratch buffer
    @staticmethod
    def assert_fsum(rows):
        rows = np.array(rows, dtype=float)
        expect = [math.fsum(row.tolist()) for row in rows]
        got = [massmod._fsum(row, np.empty(len(row))) for row in rows]
        assert np.array(got).tobytes() == np.array(expect).tobytes()
        assert all(type(s) is float for s in got)

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
        # the sum of a row with a nan or an inf is nan or +-inf, and an
        # integral with such a sum is refused by the row loop as a
        # DomainError that names every sum of it
        finite = massmod._fsum(np.array([0.1, 0.2, 0.3]), np.empty(3))
        assert finite == math.fsum([0.1, 0.2, 0.3])
        for row, total in [([1.0, np.nan, 2.0], math.nan),
                           ([1.0, np.inf, 2.0], math.inf),
                           ([np.inf, 1.0, -np.inf], math.nan),
                           ([-np.inf, 1.0, 0.5], -math.inf)]:
            got = massmod._fsum(np.array(row), np.empty(3))
            assert np.float64(got).tobytes() == np.float64(total).tobytes()
            with pytest.raises(DomainError, match=re.escape(
                    f"overflows a float: {[total, finite]}")):
                massmod._row_sums((3,), ((np.array(row),),
                                         ([0.1, 0.2, 0.3],)))
        assert massmod._row_sums((3,), (([0.1, 0.2, 0.3],),)) == [finite]

    def test_phi_row_of_a_non_finite_column(self):
        # cos phi or sin phi times theta columns sums to the trapezoid
        # rule's 0.0 where their product is finite, and to nan, as its
        # nodes would, where it holds inf or nan
        cp = np.cos(2.0 * math.pi * np.arange(4) / 4)[None, :]
        finite = np.array([[1.0], [2.0], [3.0]])
        assert massmod._row_sums((3, 4), ((finite, cp),), finite) == [0.0]
        for bad in ([[1.0], [np.inf], [2.0]], [[np.nan], [1.0], [2.0]]):
            with pytest.raises(DomainError, match=re.escape("[nan, 24.0]")):
                massmod._row_sums((3, 4), ((cp, np.array(bad)), (finite,)),
                                  [[1.0], [1.0], [1.0]])
        # overflowing columns, whose product is inf
        with pytest.raises(DomainError, match=re.escape("[nan]")):
            massmod._row_sums((3, 4), ((finite * 1e200, cp),), 1e200)
        # an isotropic h of -1e300: the x and y slots are nan too, not 0.0
        sphere = round_sphere_quadrature(-1e300, ZERO_LINEAR,
                                         QuadratureGrid.build(16, 32))
        with pytest.raises(DomainError, match=re.escape(
                "overflows a float: [nan, nan, nan, -inf]")):
            asymptotic_limit(sphere, ASYMPTOTIC_RADII)

    @pytest.mark.parametrize("n", (massmod._FSUM_SHORT - 1,
                                   massmod._FSUM_SHORT,
                                   massmod._FSUM_SHORT + 1, 32768))
    def test_both_sides_of_the_short_rows(self, n):
        # math.fsum of the list on either side of the short-row length,
        # or nan where math.fsum refuses the row: special values, an
        # overflowing sum, subnormals, and a row that sums to exactly 0
        rng = np.random.default_rng(n)

        def row(*special):
            # normal values, with ``special`` spread from first to last
            p = rng.standard_normal(n)
            p[np.linspace(0, n - 1, len(special)).astype(int)] = special
            return p

        tiny = rng.standard_normal(n) * 1e-310
        tiny[::5] = 5e-324
        half = rng.standard_normal(n // 2)
        exact = np.concatenate((half, [0.0] * (n % 2), -half[::-1]))
        rows = [row(), row(np.nan), row(np.inf), row(-np.inf),
                row(np.inf, -np.inf), row(np.nan, np.inf),
                np.full(n, 1.7e308), np.full(n, -1e305), tiny,
                rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n),
                exact]
        for p in rows:
            try:
                expect = math.fsum(p.tolist())
            except (OverflowError, ValueError):
                expect = math.nan
            got = massmod._fsum(p.copy(), np.empty(n))
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(expect).tobytes()

    def test_overflow_as_fsum(self):
        # a row whose exact sum is past the largest float is refused, as
        # math.fsum refuses it, but as a DomainError
        row = [1.7e308, 1.7e308]
        with pytest.raises(OverflowError):
            math.fsum(row)
        with pytest.raises(DomainError, match="overflows a float"):
            massmod._row_sums((2,), ((np.array(row),),))

    def test_any_layout(self):
        # a row that is a strided or a reversed view of a block, summed in
        # that block
        cols = np.random.default_rng(5).standard_normal((100, 3))
        expect = [math.fsum(c) for c in cols.T]
        assert [massmod._fsum(c, np.empty(100)) for c in cols.T] == expect
        row = np.random.default_rng(6).standard_normal(101)
        expect = math.fsum(row)
        assert massmod._fsum(row[::-1], np.empty(101)) == expect


# n_phi of each kind: odd, even but not a power of two, and a power of two
N_PHI = st.one_of(
    st.integers(min_value=1, max_value=34).map(lambda h: 2 * h + 1),
    st.sampled_from([n for n in range(6, 71, 2) if n & (n - 1)]),
    st.sampled_from([2, 4, 8, 16, 32, 64]))


def _flat_row_sum(row, grid):
    """math.fsum of the N node values of a row of factors, multiplied out
    in order over the flat nodes."""
    nodes = on_nodes(row[0], grid).copy()
    for f in row[1:]:
        nodes *= on_nodes(f, grid)
    return math.fsum(nodes.tolist())


class TestPhiFirstSums:
    # the row loop sums a row with no phi axis as its theta column, scaled
    # to the N-node sum bit for bit, and a cos phi or sin phi row over
    # theta columns as 0
    @given(n_theta=st.integers(min_value=2, max_value=40), n_phi=N_PHI,
           k=st.floats(min_value=1e-3, max_value=1e3),
           R=st.floats(min_value=1e-6, max_value=1e6),
           alpha=st.floats(min_value=1.0, max_value=3.0),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_theta_only_integrands(self, n_theta, n_phi, k, R, alpha, seed):
        # z, t and the area: math.fsum of the flat N node values, bit for
        # bit; x and y: 0.0, the trapezoid rule's integral of cos phi and
        # sin phi, whose node values fsum to rounding noise of at most
        # n_phi 2^-52
        grid = QuadratureGrid.build(n_theta, n_phi)
        theta, phi = grid.node_axes()
        rng = np.random.default_rng(seed)
        R = R * rng.uniform(0.5, 2.0, (n_theta, 1)) if seed % 2 else R
        weight = (rng.standard_normal((n_theta, 1))
                  * 10.0 ** rng.uniform(-3.0, 3.0, (n_theta, 1)))
        measure = grid.measure_weights() * rng.uniform(0.5, 2.0, (n_theta, 1))
        X = areal_to_minkowski(R, theta, phi, k)
        data = SurfaceMassData(H=1.0, H0=1.0, measure=measure, X=X, k=k)
        got = data.weighted(weight, alpha)
        x1, x2, x3, t = X
        expect = [_flat_row_sum((*row, weight, measure), grid)
                  for row in (x3, (*t, alpha))]
        assert [v.hex() for v in got] == [
            "0x0.0p+0", "0x0.0p+0", *(v.hex() for v in expect)]
        assert data.area().hex() == _flat_row_sum((measure,), grid).hex()
        for f in (np.cos, np.sin):
            assert abs(math.fsum(f(grid.phi))) <= n_phi * 2.0 ** -52

    @pytest.mark.parametrize("n_phi", [2, 3, 12, 64])
    def test_subnormal_theta_sum(self, n_phi):
        # a theta column whose sum is subnormal, or the least normal float
        # after rounding, gives the flat sum bit for bit
        for column in ([3e-310, -1e-310], [2.0 ** -1022, -2.0 ** -1074],
                       [2.0 ** -1022, 2.0 ** -1075 * 3, -5e-324],
                       [1e-300, -1e-300 + 5e-324]):
            column = np.array(column)[:, None]
            grid = QuadratureGrid.build(len(column), n_phi)
            got = massmod._row_sums((len(column), n_phi), ((column,),))
            assert got[0].hex() == _flat_row_sum((column,), grid).hex()

    @pytest.mark.parametrize("n_phi", [2, 3, 12, 64])
    def test_overflowing_theta_sum(self, n_phi):
        # a theta column whose N-node sum is past the largest float, though
        # its own sum, or that of b copies, may not be, is the flat path's
        # DomainError; one whose N-node sum is just below it is that sum
        top = np.finfo(float).max
        column = np.array([top / 2, top / 4])[:, None]
        with pytest.raises(OverflowError):
            math.fsum([top / 2, top / 4] * n_phi)
        with pytest.raises(DomainError, match="overflows a float"):
            massmod._row_sums((2, n_phi), ((column,),))
        column = np.array([top / n_phi * (1.0 - 2.0 ** -50), 0.0])[:, None]
        expect = _flat_row_sum((column,), QuadratureGrid.build(2, n_phi))
        assert expect > top / 2
        assert massmod._row_sums((2, n_phi), ((column,),)) == [expect]

    def test_only_a_phi_axis_alone_is_summed_as_zero(self):
        # a factor on the phi axis alone times theta columns sums to 0; a
        # row with two of them, or one of them and a full field, is summed
        # over the N nodes, as is every row of a full field
        grid = QuadratureGrid.build(6, 10)
        theta, phi = grid.node_axes()
        cp, full = np.cos(phi), np.cos(theta + phi)
        shape = (grid.n_theta, grid.n_phi)
        assert massmod._row_sums(shape, ((np.sin(theta), cp, 2.0),)) == [0.0]
        for row in ((cp, cp), (cp, full), (full,), (theta, full)):
            assert massmod._row_sums(shape, (row,)) == [
                _flat_row_sum(row, grid)]


def _node_bytes(data):
    """The bytes of every node field of ``data``: H, H0, the measure and
    the factors of each row of X."""
    fields = dict(H=data.H, H0=data.H0, measure=data.measure)
    fields.update(((c, i), f) for c, row in enumerate(data.X)
                  for i, f in enumerate(row))
    return {name: np.asarray(x).tobytes() for name, x in fields.items()}


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
        data.weighted(1.0)
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


def _peak_floats(fn, grid):
    """The tracemalloc peak of ``fn()``, in floats per node of ``grid``."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (n_nodes(grid) * np.dtype(float).itemsize)


def _reduction_peak(surface, metric):
    """The tracemalloc peak of E, M_alpha and the area of ``surface``, in
    floats per node."""
    data = surface_mass_data(surface, metric)
    return _peak_floats(lambda: (data.energy(), shi_tam_vector(data, 1.3),
                                 data.area()), surface.grid)


def test_reduction_memory_peak():
    # tracemalloc peak of E, M_alpha and the area at 128x256 in float (N,)
    # arrays (numpy 2.4): 0.11, the theta columns that each integral sums
    # its rows z and t in, its rows x and y being 0 with no buffer at all
    # (2.26 when every row was written out in two buffers of N values, 2.51
    # when each integral wrote X_t from R, 6.0 when X and each integrand
    # were (4, N) blocks)
    grid = QuadratureGrid.build(128, 256)
    assert _reduction_peak(coordinate_sphere_surface(2.0, grid),
                           ads_schwarzschild_metric(ADS_M, 1.0)) <= 0.25


def test_tilted_reduction_memory_peak():
    # as above on a tilted H^3 profile, whose weight is N values: 3.26, the
    # two buffers and the weight (5.01 when each integral wrote X_t from
    # R, in temporaries of N values)
    grid = QuadratureGrid.build(128, 256)
    assert _reduction_peak(
        radial_profile_surface(1.0, TILTED_LINEAR, 1.0, grid),
        hyperbolic_ball_metric(1.0)) <= 3.5


def test_asymptotic_memory_peak():
    # tracemalloc peak of the asymptotic series at four radii and Wang's
    # mass at 128x256 in float (N,) arrays: 4.3, H and the weight of one
    # radius and the two row buffers (5.0 when the measure was N values and
    # H0 = cosh r N copies; 12.0 when X and each integrand were (4, N)
    # blocks)
    grid = QuadratureGrid.build(128, 256)
    sphere = round_sphere_quadrature(
        0.5, (0.3, -0.2, 0.1), grid)
    peak = _peak_floats(lambda: (
        asymptotic_limit(sphere, (0.2, 0.1, 0.05, 0.025)), wang_mass(sphere)),
        grid)
    assert peak <= 4.5


def test_round_sphere_quadrature_memory_peak():
    # tracemalloc peak of the round sphere of a linear h at 128x256 in
    # float (N,) arrays: 1.53, tr h written once at the grid's shape
    # (5.02 when it was the matmul of the (N, 3) stack of unit directions)
    grid = QuadratureGrid.build(128, 256)
    assert _peak_floats(lambda: round_sphere_quadrature(
        0.5, (0.3, -0.2, 0.1), grid), grid) <= 2.5


def test_isotropic_asymptotic_memory_peak():
    # as above for an isotropic h, whose tr h is one float, so that every
    # row of the series and of Wang's mass is a theta column or 0: 0.14
    # (4.30 when tr h was N copies of that float)
    grid = QuadratureGrid.build(128, 256)
    sphere = round_sphere_quadrature(0.5, ZERO_LINEAR, grid)
    peak = _peak_floats(lambda: (
        asymptotic_limit(sphere, (0.2, 0.1, 0.05, 0.025)), wang_mass(sphere)),
        grid)
    assert peak <= 0.25


def _op_peak(tmp_path, grid, *argv):
    """The tracemalloc peak of one CLI op on AdS r = 2 at ``grid`` with
    Shi-Tam, in floats per node: ``argv`` is the command and the options
    that follow the config."""
    cfg = tmp_path / "ads.yaml"
    cfg.write_text(json.dumps({
        "metric": {"type": "ads_schwarzschild", "k": 1.0, "m": ADS_M},
        "surface": {"type": "coordinate_sphere", "r": 2.0},
        "resolution": {"n_theta": grid.n_theta, "n_phi": grid.n_phi},
        "outputs": {"shi_tam": True}}))
    argv = [argv[0], str(cfg), *argv[1:], "--output", str(tmp_path / "out")]
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        peak = _peak_floats(lambda: codes.append(cli.main(argv)), grid)
    assert codes == [0]
    return peak


def test_mass_op_memory_peak(tmp_path):
    # tracemalloc peak of a whole mass op with Shi-Tam, AdS r = 2 at
    # 128x256, in float (N,) arrays: 0.23, from the config to the report,
    # with no array of N values (1.09 when the node of the least H was
    # found in a broadcast copy of H, 2.4 when every integral row was
    # written out in two buffers of N values, 2.65 when each integral wrote
    # X_t from R, 10.1 when X and each integrand were (4, N) blocks)
    grid = QuadratureGrid.build(128, 256)
    assert _op_peak(tmp_path, grid, "mass", "--force") <= 0.5


def test_convergence_op_memory_peak(tmp_path):
    # tracemalloc peak of a whole convergence op on AdS r = 2 at 16, 32, 64
    # and 128, in float (N,) arrays of its 128x256 grid: 0.18 (2.34 when
    # every integral row was written out in two buffers of N values)
    grid = QuadratureGrid.build(128, 256)
    assert _op_peak(tmp_path, grid, "convergence",
                    "--resolutions", "16,32,64,128") <= 0.5


def test_mass_forms_keep_sphere_components_on_the_theta_axis():
    # the two node passes of a graph of constant radius hold every field on
    # the theta axis, 0.06 N floats at 128x256; H, the area element and R
    # of each side flattened to (N,) held 6 N, and (N, 2, 2) matrices 22
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


def test_coordinate_sphere_stores_no_node_array():
    # the node fields keep the shape they are computed at, the theta axis
    # on a coordinate sphere, or the phi axis for cos and sin phi, and X is
    # stored as its rows of factors: SurfaceMassData holds no array of N
    # values at all (0.03 N floats at 128x256, 4.0 N when it held X)
    grid = QuadratureGrid.build(32, 64)
    surface = coordinate_sphere_surface(2.0, grid)
    metric = ads_schwarzschild_metric(ADS_M, 1.0)
    forms, forms0 = mass_forms(surface, metric)
    data = surface_mass_data(surface, metric, forms=(forms, forms0))
    column, row = ((), (grid.n_theta, 1)), (1, grid.n_phi)
    for side in (forms, forms0):
        for name in ("mean_curvature", "area_element", "radius"):
            assert np.shape(getattr(side, name)) in column, name
    for name in ("H", "H0", "measure"):
        assert np.shape(getattr(data, name)) in column, name
    theta, R = column[1], ()
    assert [[np.shape(f) for f in x] for x in data.X] == [
        [theta, row, R], [theta, row, R], [R, theta], [R]]
    assert data.shape == (grid.n_theta, grid.n_phi)
    data.energy()
    shi_tam_vector(data, 1.3)
    data.area()
    held = [x for value in vars(data).values()
            for x in (value if isinstance(value, tuple) else (value,))]
    held += [f for x in data.X for f in x]
    assert all(np.size(x) < n_nodes(grid) for x in held
               if isinstance(x, np.ndarray))


def test_node_shape_is_broadcast_once(monkeypatch):
    # the node shape is the broadcast of the nine factors of X, taken once
    # per SurfaceMassData however many integrals read it
    calls = []
    broadcast_shapes = np.broadcast_shapes

    def counted(*shapes):
        calls.append(shapes)
        return broadcast_shapes(*shapes)

    grid = QuadratureGrid.build(16, 32)
    data = surface_mass_data(radial_profile_surface(1.0, TILTED_LINEAR, 1.0,
                                                    grid),
                             hyperbolic_ball_metric(1.0))
    monkeypatch.setattr(np, "broadcast_shapes", counted)
    for _ in range(2):
        data.energy(), shi_tam_vector(data, 1.3), data.area()
    assert len(calls) == 1 and len(calls[0]) == 9
    assert data.shape == (grid.n_theta, grid.n_phi)


@pytest.fixture
def summed_rows(monkeypatch):
    """The bytes of every row that reaches massmod._fsum, in call order:
    a row as it is summed, with every factor of its integrand applied."""
    rows = []
    fsum = massmod._fsum

    def recorded(p, q):
        rows.append(p.tobytes())
        return fsum(p, q)

    monkeypatch.setattr(massmod, "_fsum", recorded)
    return rows


def _assert_flat_sums(got, rows, summed, grid=None, zero=()):
    """The flat rows (m, N) ``rows`` are those that reached the exact sum,
    in order, and ``got`` is math.fsum of each of them, bit for bit.  With
    ``grid``, the rows are of an integrand with no phi axis: each reaches
    the sum as its theta column repeated b times, n_phi = 2^a b with b odd,
    and the rows ``zero``, cos phi and sin phi times a theta column, reach
    no sum and are 0.0."""
    rows = np.atleast_2d(rows)
    expect = [0.0 if c in zero else math.fsum(row.tolist())
              for c, row in enumerate(rows)]
    if grid is not None:
        n_phi = grid.n_phi
        b = n_phi // (n_phi & -n_phi)
        nodes = rows.reshape(len(rows), grid.n_theta, n_phi)
        rows = [row for c, row in enumerate(nodes) if c not in zero]
        assert all((row == row[:, :1]).all() for row in rows)
        rows = [row[:, :b].ravel() for row in rows]
    assert summed == [row.tobytes() for row in rows]
    assert np.array(got).tobytes() == np.array(expect).tobytes()
    summed.clear()


@pytest.mark.parametrize("case", ["ads_sphere", "ads_sphere_12x24_k05",
                                  "tilted_h3", "tilted_ads"])
def test_rows_and_sums_match_the_flat_layout(case, summed_rows):
    # X, the integrand rows and the sums of E, M_alpha and the area, bit
    # for bit, against the node fields flattened to (N,), X = (R0 u,
    # sqrt(1/k^2 + R0^2)) from the reference's unit directions of the flat
    # nodes (N, 3), and math.fsum of the flat products in the order
    # measure (weight X), measure ((H0 - H) X) and
    # measure ((alpha X_t) (H0 - H)); the tilted AdS profile is forced past
    # the isometry check, so H != H0 off the theta axis.  A sum can hide a
    # regrouped product, so each row is checked where it reaches the sum.
    # A sphere's integrand has no phi axis: its rows x and y are the stated
    # 0, not math.fsum of their rounding noise, and its other rows reach
    # the sum as theta columns (b = 1 copy at n_phi = 32, 3 at 24)
    grid = QuadratureGrid.build(*((12, 24) if case.endswith("k05")
                                  else (16, 32)))
    hyp, ads = hyperbolic_ball_metric(1.0), ads_schwarzschild_metric(ADS_M)
    surface, metric = {
        "ads_sphere": (coordinate_sphere_surface(2.0, grid), ads),
        "ads_sphere_12x24_k05": (coordinate_sphere_surface(2.0, grid, 0.5),
                                 ads_schwarzschild_metric(ADS_M, 0.5)),
        "tilted_h3": (radial_profile_surface(1.0, (0.2, -0.1, 0.1), 1.0,
                                             grid), hyp),
        "tilted_ads": (radial_profile_surface(1.0, TILTED_LINEAR, 1.0, grid),
                       ads)}[case]
    forms, forms0 = mass_forms(surface, metric)
    data = surface_mass_data(surface, metric, iso_tol=1.0,
                             forms=(forms, forms0))
    R0 = on_nodes(forms0.radius, grid)
    u = ref.unit_direction_jet(*node_arrays(grid))[0]
    X = np.empty((len(R0), 4))
    X[:, :3] = R0[:, None] * u
    X[:, 3] = np.sqrt(1.0 / (surface.k * surface.k) + R0 * R0)
    assert positions(data).tobytes() == X.T.tobytes()

    H = on_nodes(forms.mean_curvature, grid)
    H0 = on_nodes(forms0.mean_curvature, grid)
    measure = (on_nodes(grid.measure_weights(), grid)
               * on_nodes(forms.area_element, grid))
    sphere = dict(grid=grid, zero=(0, 1)) if "sphere" in case else {}
    _assert_flat_sums(data.energy(), measure * ((H0 ** 2 - H ** 2) / H * X.T),
                      summed_rows, **sphere)
    alpha = 1.3
    rows = X.T.copy()
    rows[3] *= alpha
    rows *= H0 - H
    _assert_flat_sums(shi_tam_vector(data, alpha), measure * rows,
                      summed_rows, **sphere)
    _assert_flat_sums(data.area(), measure, summed_rows,
                      grid=sphere.get("grid"))


def test_round_sphere_rows_and_sums_match_the_flat_layout(summed_rows):
    # E(S_r) and Wang's mass on the round sphere, as above: X = (R x, R y,
    # R z, sqrt(1 + R^2)) at R = 1/r from the reference's flat unit
    # directions (N, 3), the weights w = u_weights 2 pi / n_phi, and
    # math.fsum of measure (weight X) and of ((x, y, z, 1) w) tau, with
    # tau = tr h to rounding of 2 g0 + a . u
    grid = QuadratureGrid.build(16, 32)
    g0, linear = 0.5, (0.3, -0.2, 0.1)
    sphere = round_sphere_quadrature(g0, linear, grid)
    xhat = ref.unit_direction_jet(*node_arrays(grid))[0]
    w = on_nodes(grid.u_weights[:, None] * (2.0 * math.pi / grid.n_phi),
                 grid)
    tau = on_nodes(sphere[2], grid)
    assert np.max(np.abs(tau - (2.0 * g0 + xhat @ linear))) <= 1e-15
    r = 0.1
    data = ah_sphere_data(r, sphere)
    R = 1.0 / r
    X = np.empty((4, len(w)))
    X[:3] = R * xhat.T
    X[3] = np.sqrt(1.0 + R * R)
    assert positions(data).tobytes() == X.tobytes()
    H, H0 = on_nodes(data.H, data), on_nodes(data.H0, data)
    measure = w * (1.0 / math.sinh(r) ** 2)
    _assert_flat_sums(data.energy(), measure * ((H0 ** 2 - H ** 2) / H * X),
                      summed_rows)
    _assert_flat_sums(wang_mass(sphere), [*(xhat.T * w * tau), w * tau],
                      summed_rows)
