"""Minkowski arithmetic and causal classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermass.lorentz import (GOLDEN_ANGLE, CausalClass, LorentzVector,
                               classify, minkowski_inner, sample_null_cone)
from conftest import classify_by_null_pairings, make_classified_vector

EPS = np.finfo(float).eps


def V(*c):
    return LorentzVector(*c)


class TestMinkowskiInner:
    def test_time_unit(self):
        assert minkowski_inner(V(0, 0, 0, 1), V(0, 0, 0, 1)) == -1.0

    def test_space_unit(self):
        assert minkowski_inner(V(1, 0, 0, 0), V(1, 0, 0, 0)) == 1.0

    def test_null(self):
        assert minkowski_inner(V(1, 0, 0, 1), V(1, 0, 0, 1)) == 0.0

    def test_symmetric_bilinear(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u, v, w = rng.standard_normal((3, 4))
            a = rng.standard_normal()
            assert minkowski_inner(u, v) == minkowski_inner(v, u)
            lhs = minkowski_inner(u + a * v, w)
            rhs = minkowski_inner(u, w) + a * minkowski_inner(v, w)
            assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))

    def test_reversed_order_agrees(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c = rng.standard_normal(4) * 10.0 ** rng.uniform(-3, 3)
            fwd = c[0] * c[0] + c[1] * c[1] + c[2] * c[2] - c[3] * c[3]
            rev = -c[3] * c[3] + c[2] * c[2] + c[1] * c[1] + c[0] * c[0]
            assert abs(fwd - rev) <= 4 * EPS * float(c @ c)

    def test_broadcasts_over_arrays(self):
        # (..., 4) operands broadcast, each value in the written-out order
        rng = np.random.default_rng(8)
        U, W = rng.standard_normal((5, 4)), rng.standard_normal((3, 5, 4))
        got = minkowski_inner(U, W)
        assert got.shape == (3, 5)
        for i, j in np.ndindex(3, 5):
            u, w = U[j].tolist(), W[i, j].tolist()
            assert got[i, j] == (u[0] * w[0] + u[1] * w[1] + u[2] * w[2]
                                 - u[3] * w[3])
        assert minkowski_inner(V(*U[0]), W[0, 0]) == got[0, 0]


class TestLorentzVector:
    def test_array_of_components(self):
        v = V(1.5, -2.0, 0.25, 3.0)
        assert np.asarray(v).tolist() == [1.5, -2.0, 0.25, 3.0]
        assert np.asarray(v, dtype=complex).dtype == complex


class TestClassify:
    def test_examples(self):
        assert classify(V(0, 0, 0, 1)) is CausalClass.TIMELIKE_FUTURE
        assert classify(V(1, 0, 0, 1)) is CausalClass.NULL_FUTURE
        assert classify(V(2, 0, 0, 1)) is CausalClass.SPACELIKE

    def test_zero_and_past(self):
        assert classify(V(0, 0, 0, 0)) is CausalClass.ZERO_VECTOR
        assert classify(V(1e-13, 0, 0, 0)) is CausalClass.ZERO_VECTOR
        assert classify(V(0, 0, 0, -1)) is CausalClass.TIMELIKE_PAST
        assert classify(V(1, 0, 0, -1)) is CausalClass.NULL_PAST

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            classify(V(0, 0, 0, 1), tol=0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            V(math.nan, 0, 0, 0)
        with pytest.raises(ValueError):
            classify(np.array([math.nan, 0.0, 0.0, 1.0]))

    def test_arrays_classify_like_vectors(self):
        rng = np.random.default_rng(12)
        for cls in ("TimelikeFuture", "TimelikePast", "Spacelike",
                    "NullFuture", "NullPast"):
            v = make_classified_vector(rng, cls)
            assert classify(np.asarray(v)) is classify(v)
        assert classify(np.zeros(4)) is CausalClass.ZERO_VECTOR
        with pytest.raises(ValueError):
            classify(np.array([0.0, 0.0, 1.0]))

    @given(st.lists(st.one_of(st.just(0.0), st.tuples(
        st.sampled_from((1.0, -1.0)),
        st.floats(min_value=-50.0, max_value=50.0)).map(
            lambda p: p[0] * 10.0 ** p[1])), min_size=3, max_size=3),
        st.floats(min_value=-1e-6, max_value=1e-6),
        st.sampled_from((1.0, -1.0, 0.5, 3.0)),
        st.sampled_from((1e-12, 1e-6, 0.5, 2.0)))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_scaled_squares_keep_the_unscaled_class(self, spatial, shift,
                                                    ratio, tol):
        # classify squares v scaled by a power of two: on vectors whose
        # squares are normal floats either way (components 0 or 10^-50 to
        # 10^50), the class is that of the rule on the unscaled squares,
        # near the null band too (t = ratio |v_s| (1 + shift))
        t = ratio * math.hypot(*spatial) * (1.0 + shift)
        v = np.array([*spatial, t if t else ratio])
        q = minkowski_inner(v, v)
        n2 = v[0] ** 2 + v[1] ** 2 + v[2] ** 2 + v[3] ** 2
        if np.max(np.abs(v)) <= tol:
            expect = CausalClass.ZERO_VECTOR
        elif abs(q) <= tol * n2:
            expect = (CausalClass.NULL_FUTURE if v[3] >= 0
                      else CausalClass.NULL_PAST)
        elif q < 0:
            expect = (CausalClass.TIMELIKE_FUTURE if v[3] > 0
                      else CausalClass.TIMELIKE_PAST)
        else:
            expect = CausalClass.SPACELIKE
        assert classify(v, tol) is expect

    def test_no_square_overflows(self):
        # vectors past 1e154, whose unscaled squares overflow a float: so
        # squared, the first two classify as NullFuture and Spacelike, with
        # a numpy overflow warning
        for v in ([0.0, 0.0, 0.0, 3.257349830438657e+155],
                  [0.0, 0.0, 1.1793632577567317e+167,
                   1.3518860568373469e+184],
                  [1e308, 0.0, 0.0, 1.7e308]):
            assert classify(np.array(v)) is CausalClass.TIMELIKE_FUTURE
        assert classify(np.array([1.7e308, 0.0, 0.0, -1e308])) \
            is CausalClass.SPACELIKE
        assert classify(np.array([1e308, 0.0, 0.0, -1e308])) \
            is CausalClass.NULL_PAST

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, lam, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(4)
        assert classify(lam * v) is classify(v)


class TestNullCone:
    def test_pole_first(self):
        assert sample_null_cone(1).tolist() == [[0.0, 0.0, 1.0, 1.0]]

    def test_unit_spatial_constraint(self):
        Z = sample_null_cone(2)
        assert isinstance(Z, np.ndarray) and Z.shape == (2, 4)
        assert np.all(np.abs(np.sum(Z[:, :3] ** 2, axis=1) - 1.0) < 1e-14)
        assert np.all(Z[:, 3] == 1.0)

    def test_golden_angle_spiral(self):
        m = 500
        for i, z in enumerate(sample_null_cone(m)):
            h = 1.0 - 2.0 * i / (m - 1)
            s, phi = math.sqrt(max(0.0, 1.0 - h * h)), i * GOLDEN_ANGLE
            assert z.tolist() == pytest.approx(
                [s * math.cos(phi), s * math.sin(phi), h, 1.0],
                rel=0.0, abs=1e-15)

    def test_pairwise_angles_positive(self):
        dirs = sample_null_cone(100)[:, :3]
        cosines = dirs @ dirs.T
        np.fill_diagonal(cosines, -1.0)
        assert np.max(cosines) < 1.0 - 1e-8

    def test_all_null_future(self):
        for z in sample_null_cone(50):
            assert abs(minkowski_inner(z, z)) < 1e-14
            assert classify(z) is CausalClass.NULL_FUTURE

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            sample_null_cone(0)


class TestNullPairings:
    def test_timelike_future_true(self):
        samples = sample_null_cone(100)
        assert classify_by_null_pairings(V(0, 0, 0, 1), samples)
        assert np.all(minkowski_inner(V(0, 0, 0, 1), samples) == -1.0)

    def test_spacelike_false(self):
        assert not classify_by_null_pairings(V(2, 0, 0, 1),
                                             sample_null_cone(100))

    def test_past_false(self):
        assert not classify_by_null_pairings(V(0, 0, 0, -1),
                                             sample_null_cone(100))

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            classify_by_null_pairings(V(0, 0, 0, 1), [])
        with pytest.raises(ValueError):
            classify_by_null_pairings(V(0, 0, 0, 1), np.empty((0, 4)))

    def test_agreement_with_classify(self):
        """TimelikeFuture <=> pairing test true; the three definitely-not
        classes imply false (1000 random vectors, 500 samples)."""
        rng = np.random.default_rng(17)
        samples = sample_null_cone(500)
        classes = ["TimelikeFuture", "TimelikePast", "Spacelike",
                   "NullFuture", "NullPast"]
        for i in range(1000):
            cls = classes[i % len(classes)]
            v = make_classified_vector(rng, cls)
            assert classify(v).value == cls
            paired = classify_by_null_pairings(v, samples)
            if cls == "TimelikeFuture":
                assert paired
            elif cls in ("TimelikePast", "NullPast", "Spacelike"):
                assert not paired
