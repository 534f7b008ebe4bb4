"""Killing spinors, the null-vector map, and the frozen sign convention."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermass.errors import DomainError, NotNull
from hypermass.geometry import (QuadratureGrid, geodesic_sphere_surface,
                                hyperbolic_ball_metric)
from hypermass.hypgeom import ball_to_minkowski
from hypermass.lorentz import (CausalClass, classify, minkowski_inner,
                               sample_null_cone)
from hypermass.mass import killing_weighted_mass
from hypermass import spinor
from hypermass.spinor import (GAMMAS, S_ZETA, killing_spinor_norms_sq,
                              null_to_spinor, verify_zet, zeta_of)

import reference_spinor
from conftest import einsum_killing_norms_sq, random_spinors

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def random_interior_points(rng, n, half_width=0.57):
    return rng.uniform(-half_width, half_width, (n, 3))


def minkowski_square(z):
    return np.sum(z[..., :3] ** 2, axis=-1) - z[..., 3] ** 2


def passing_sign_choices(monkeypatch, n_samples=200, seed=20240):
    """The (s_gamma, s_zeta) of gamma_j = s_gamma i sigma_j and the factor
    s_zeta for which the identity holds to 1e-12 at random (a, x) on both
    branches and zeta_a is future directed."""
    rng = np.random.default_rng(seed)
    A = random_spinors(rng, n_samples)
    X = random_interior_points(rng, n_samples)
    passing = []
    for s_gamma in (1, -1):
        for s_zeta in (1, -1):
            monkeypatch.setattr(spinor, "GAMMAS", s_gamma * 1j * PAULI)
            monkeypatch.setattr(spinor, "S_ZETA", s_zeta)
            if (np.all(zeta_of(A, 1)[:, 3] >= 0)
                    and np.max(verify_zet(A, X)) <= 1e-12):
                passing.append((s_gamma, s_zeta))
    return passing


class TestCliffordRep:
    def test_clifford_relation(self):
        for i in range(3):
            for j in range(3):
                anti = GAMMAS[i] @ GAMMAS[j] + GAMMAS[j] @ GAMMAS[i]
                want = -2.0 * (i == j) * np.eye(2)
                assert np.max(np.abs(anti - want)) < 1e-15

    def test_skew_hermitian(self):
        for g in GAMMAS:
            assert np.max(np.abs(g + g.conj().T)) < 1e-15

    def test_calibration_recovers_frozen_signs(self, monkeypatch):
        # the identity pins s_zeta and is blind to s_gamma, so two of the
        # four choices survive; the frozen one is gamma_j = +i sigma_j
        assert passing_sign_choices(monkeypatch) == [(1, S_ZETA), (-1, S_ZETA)]
        assert np.array_equal(GAMMAS, 1j * PAULI)

    def test_zet_residual_with_calibrated_signs(self):
        rng = np.random.default_rng(47)
        pts = random_interior_points(rng, 100)
        A = random_spinors(rng, 100)
        assert np.max(verify_zet(A, pts)) < 1e-12


class TestKillingSpinor:
    def test_origin_value(self):
        # psi = sqrt(2) (1, 0) at the origin, on both branches
        n2 = killing_spinor_norms_sq([1, 0], [0, 0, 0])
        assert n2.shape == (2,)
        assert np.all(np.abs(n2 - 2.0) < 1e-15)

    def test_zero_spinor(self):
        assert np.all(killing_spinor_norms_sq([0, 0], [0.3, 0.1, -0.2]) == 0.0)

    def test_norm_expansion_oracle(self):
        # |psi|^2 = f (|a|^2 (1+|x|^2) +- 2 Re(i <a, gamma(x) a>)) using the
        # conjugate-first Hermitian product and gamma(x)^dag gamma(x) = |x|^2;
        # one spinor per point, both branches evaluated in one call
        rng = np.random.default_rng(53)
        pts = random_interior_points(rng, 100)
        A = random_spinors(rng, 100)
        for sign, norms in zip((1, -1), killing_spinor_norms_sq(A, pts)):
            for a, x, direct in zip(A, pts, norms):
                gx = np.einsum("j,jkl->kl", x, GAMMAS)
                f = 2.0 / (1.0 - x @ x)
                cross = 2.0 * sign * (1j * np.vdot(a, gx @ a)).real
                expect = f * (float(np.vdot(a, a).real) * (1 + x @ x) + cross)
                assert abs(direct - expect) < 1e-12 * (1 + abs(expect))

    def test_vectorized_norms_match(self):
        # one spinor broadcast over the points, as killing_weighted_mass
        # calls it, against the same spinor repeated per point
        rng = np.random.default_rng(59)
        pts = random_interior_points(rng, 40)
        a = np.array([0.3 + 0.4j, -1.1 + 0.2j])
        norms = killing_spinor_norms_sq(a, pts)
        rows = killing_spinor_norms_sq(np.tile(a, (40, 1)), pts)
        assert norms.shape == rows.shape == (2, 40)
        assert np.all(np.abs(norms - rows) < 1e-13 * (1 + rows))

    def test_matches_the_einsum_bit_for_bit(self):
        # the written-out product rounds as the complex einsum did: one
        # spinor per point and one spinor broadcast over the points
        rng = np.random.default_rng(61)
        for _ in range(5):
            pts = random_interior_points(rng, 300)
            A = random_spinors(rng, 300)
            for a in (A, A[0]):
                norms = killing_spinor_norms_sq(a, pts)
                for sign, row in zip((1, -1), norms):
                    assert (row.tobytes()
                            == einsum_killing_norms_sq(a, pts, sign).tobytes())

    @pytest.mark.parametrize("r", [1.0, 2.0, 4.0])
    def test_polarization_basis_matches_the_einsum(self, ads_scenarios, r):
        # the (4, 1, 2) basis that reference_spinor.node_killing_form
        # polarizes, over the ball points of an AdS coordinate sphere
        basis = reference_spinor.POLARIZATION_BASIS
        points = reference_spinor.ball_points(ads_scenarios[r][1])
        norms = killing_spinor_norms_sq(basis, points)
        assert norms.shape == (2, 4, len(points))
        for sign, row in zip((1, -1), norms):
            assert (row.tobytes()
                    == einsum_killing_norms_sq(basis, points, sign).tobytes())

    def test_requires_unit_curvature(self):
        # the Killing spinor formulas are stated at k = 1
        surface = geodesic_sphere_surface(1.0, 2.0,
                                          QuadratureGrid.build(8, 16))
        with pytest.raises(DomainError):
            killing_weighted_mass(surface, hyperbolic_ball_metric(2.0),
                                  [1, 0], 1)

    def test_rejects_bad_sign(self):
        # the kernel takes no sign, as it evaluates both branches; zeta_of,
        # the one per-branch map, refuses a sign other than +1 or -1
        with pytest.raises(TypeError):
            killing_spinor_norms_sq([1, 0], [0, 0, 0], 2)
        with pytest.raises(DomainError):
            zeta_of([1, 0], 2)

    def test_rejects_non_finite_spinors(self):
        A = np.array([[1, 0], [0.5, np.inf * 1j]])
        with pytest.raises(DomainError):
            killing_spinor_norms_sq(A, [0, 0, 0])
        with pytest.raises(DomainError):
            zeta_of(A, 1)


class TestZetaOf:
    def test_unit_spinor_is_unit_null(self):
        z = zeta_of([1, 0], 1)
        assert z.shape == (4,)
        assert abs(abs(z[3]) - 1.0) < 1e-15
        assert abs(np.sum(z[:3] ** 2) - 1.0) < 1e-14
        assert classify(z) is CausalClass.NULL_FUTURE

    def test_zero_spinor(self):
        assert np.all(zeta_of([0, 0], 1) == 0.0)

    def test_nullity(self):
        rng = np.random.default_rng(61)
        A = random_spinors(rng, 100)
        for sign in (1, -1):
            z = zeta_of(A, sign)
            assert z.shape == (100, 4)
            scale = np.max(np.abs(z), axis=1) ** 2
            assert np.all(np.abs(minkowski_square(z))
                          < 1e-14 * np.maximum(scale, 1.0))

    @given(st.floats(min_value=0.0, max_value=2 * math.pi),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_phase_invariance(self, theta, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z1 = zeta_of(a, 1)
        z2 = zeta_of(np.exp(1j * theta) * a, 1)
        assert np.max(np.abs(z1 - z2)) < 1e-14 * max(np.max(np.abs(z1)), 1.0)

    def test_real_scaling_is_quadratic(self):
        rng = np.random.default_rng(67)
        A = random_spinors(rng, 20)
        lam = rng.uniform(0.1, 3.0, (20, 1))
        z1 = zeta_of(A, 1)
        z2 = zeta_of(lam * A, 1)
        scale = np.maximum(np.max(np.abs(z2), axis=1, keepdims=True), 1.0)
        assert np.all(np.abs(z2 - lam ** 2 * z1) < 1e-13 * scale)


class TestVerifyZet:
    def test_origin(self):
        assert np.all(verify_zet([1, 0], [0, 0, 0]) < 1e-14)

    def test_random_points(self):
        rng = np.random.default_rng(71)
        pts = random_interior_points(rng, 100)
        A = random_spinors(rng, 100)
        res = verify_zet(A, pts)
        assert res.shape == (2, 100)
        assert np.all(res < 1e-12)

    def test_zero_spinor(self):
        assert np.all(verify_zet([0, 0], [0.2, -0.4, 0.1]) == 0.0)

    def test_detects_wrong_sign_convention(self, monkeypatch):
        monkeypatch.setattr(spinor, "S_ZETA", -S_ZETA)
        res = verify_zet([1, 0], [0.3, 0.0, 0.1])
        assert np.all(res > 0.1)

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           n=st.integers(min_value=1, max_value=40),
           scale=st.floats(min_value=-3.0, max_value=3.0),
           one_spinor=st.booleans())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_both_signs_in_one_call(self, seed, n, scale, one_spinor):
        # one call checks both branches, sharing the work that no branch
        # changes (X(x), f, |a|^2 and <gamma_j a, a>); the row of each
        # branch is, bit for bit, the composition of the public parts:
        # its row of the norms and zeta_of of its sign
        rng = np.random.default_rng(seed)
        A = random_spinors(rng, 1 if one_spinor else n)[0 if one_spinor
                                                        else slice(None)]
        A = A * 10.0 ** scale
        X = random_interior_points(rng, n)
        both = verify_zet(A, X)
        norms = killing_spinor_norms_sq(A, X)
        assert both.shape == norms.shape == (2, n)
        for row, n2, sign in zip(both, norms, (1, -1)):
            parts = np.abs(n2 + 2.0 * minkowski_inner(
                ball_to_minkowski(X), zeta_of(A, sign)))
            assert row.tobytes() == parts.tobytes()

    @pytest.mark.parametrize("sign", [(), (1, 2), (1, 0), 2, [1, -1]])
    def test_rejects_bad_signs(self, sign):
        # the check takes no sign, as it checks both branches; zeta_of, the
        # one per-branch map, refuses any sign but +1 or -1
        with pytest.raises(TypeError):
            verify_zet([1, 0], [0.1, 0.2, 0.3], sign)
        with pytest.raises(DomainError):
            zeta_of([1, 0], sign)


class TestNullToSpinor:
    def test_recovers_basis_spinor(self):
        z = zeta_of([1, 0], 1)
        z_unit = z / abs(z[3])
        a = null_to_spinor(z_unit)
        back = zeta_of(a, 1)
        assert np.max(np.abs(back - z_unit)) < 1e-12

    def test_round_trip_on_cone_samples(self):
        Z = sample_null_cone(500)
        A = null_to_spinor(Z)
        assert A.shape == (500, 2)
        assert np.max(np.abs(np.sum(np.abs(A) ** 2, axis=1) - 1.0)) < 1e-14
        assert np.max(np.abs(zeta_of(A, 1) - Z)) < 1e-12

    def test_random_null_round_trip(self):
        rng = np.random.default_rng(73)
        n = rng.standard_normal((100, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        Z = np.concatenate([n, np.ones((100, 1))], axis=1)
        A = null_to_spinor(Z)
        assert np.max(np.abs(zeta_of(A, 1) - Z)) < 1e-12

    def test_spacelike_rejected(self):
        with pytest.raises(NotNull):
            null_to_spinor([2.0, 0.0, 0.0, 1.0])

    def test_past_null_rejected(self):
        with pytest.raises(NotNull):
            null_to_spinor([1.0, 0.0, 0.0, -1.0])

    def test_wrong_shape_rejected(self):
        with pytest.raises(DomainError):
            null_to_spinor([1.0, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [[2.0, 0.0, 0.0, 1.0],
                                     [0.0, 1.0, 0.0, -1.0]])
    def test_one_bad_row_in_a_stack_rejected(self, bad):
        Z = sample_null_cone(20)
        Z = Z.reshape(4, 5, 4).copy()
        assert null_to_spinor(Z).shape == (4, 5, 2)
        Z[2, 3] = bad
        with pytest.raises(NotNull):
            null_to_spinor(Z)
