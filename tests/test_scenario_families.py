"""The paper's mass theorems as property tests over scenario families:
AdS-Schwarzschild coordinate spheres, whose E is future timelike with the
closed-form E_t of criterion 2a, and radial profiles in H^3, whose E is 0
(rigidity); and the CLI's refusal contract over configs at the edges of
their ranges.  Draws are derandomized, so the suite stays deterministic."""

import contextlib
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypermass import cli

from hypermass.errors import NonPositiveMeanCurvature
from hypermass.geometry import (QuadratureGrid, ads_horizon_radius,
                                ads_schwarzschild_metric,
                                coordinate_sphere_surface,
                                hyperbolic_ball_metric,
                                radial_profile_surface)
from hypermass.lorentz import CausalClass, classify
from hypermass.mass import mass_forms, surface_mass_data

from conftest import exact_ads_energy

EPS = np.finfo(float).eps

GRIDS = st.tuples(st.integers(min_value=2, max_value=32),
                  st.integers(min_value=2, max_value=64))

# AdS-Schwarzschild coordinate spheres: r from just inside the chart,
# r > r_horizon + 0.1, to 10^4 times its edge
ADS_SPHERES = dict(m=st.floats(min_value=1e-3, max_value=10.0),
                   k=st.floats(min_value=0.5, max_value=2.0),
                   lift=st.floats(min_value=1e-3, max_value=4.0), axes=GRIDS)

# E_t is read off dH (2 H + dH)/H with dH = H0 - H from delta V = -2m/r,
# not from the difference H0^2 - H^2 = 2m/r^3 of two rounded terms of
# order k^2, whose cancellation, past a relative eps k^2 r^3/m of 1e-10
# (eps r^3/m at k = 1), set the error of E_t until it was built that way:
# the draws past that floor keep their own test
FLOOR = 1e-10


def _ads_case(m, k, lift, axes):
    """(E, its closed-form E_t, eps k^2 r^3/m) of the drawn sphere."""
    r = (ads_horizon_radius(m, k) + 0.1) * 10.0 ** lift
    surface = coordinate_sphere_surface(r, QuadratureGrid.build(*axes), k)
    E = surface_mass_data(surface, ads_schwarzschild_metric(m, k)).energy()
    return E, exact_ads_energy(r, m, k), EPS * k * k * r ** 3 / m


def _assert_ads_energy(E, exact):
    assert classify(E) is CausalClass.TIMELIKE_FUTURE
    assert E.x1 == 0.0 and E.x2 == 0.0
    assert abs(E.t - exact) <= 1e-13 * exact
    assert math.hypot(E.x1, E.x2, E.x3) <= 1e-15 * E.t


@given(**ADS_SPHERES)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_ads_coordinate_spheres(m, k, lift, axes):
    E, exact, floor = _ads_case(m, k, lift, axes)
    assume(floor <= FLOOR)
    _assert_ads_energy(E, exact)


def test_ads_coordinate_spheres_past_the_floor():
    # the draws past the floor, checked after hypothesis has drawn them
    # all: a failing example inside @given would go to hypothesis's
    # failure report, whose import warns, an error in this suite
    failed = []

    @given(**ADS_SPHERES)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def draw(m, k, lift, axes):
        E, exact, floor = _ads_case(m, k, lift, axes)
        assume(floor > FLOOR)
        try:
            _assert_ads_energy(E, exact)
        except AssertionError:
            failed.append((m, k, lift, axes))

    draw()
    assert failed == []


@given(base=st.floats(min_value=0.05, max_value=5.0),
       tilt=st.tuples(*[st.one_of(st.just(0.0),
                                  st.floats(min_value=-1.0, max_value=1.0))]
                      * 3),
       fraction=st.floats(min_value=0.0, max_value=0.9),
       k=st.floats(min_value=0.5, max_value=2.0), axes=GRIDS)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_h3_radial_profiles(base, tilt, fraction, k, axes):
    # geodesic radius base + a . u with |a| = fraction * base: F0 = F in
    # the ambient H^3 itself, so H0 = H at every node and E is 0 exactly;
    # a profile with H <= 0 somewhere is outside the theorem, and refused
    norm = math.hypot(*tilt)
    linear = [fraction * base * c / norm if norm else 0.0 for c in tilt]
    surface = radial_profile_surface(base, linear, k,
                                     QuadratureGrid.build(*axes))
    metric = hyperbolic_ball_metric(k)
    forms = mass_forms(surface, metric)
    if np.any(forms[0].H <= 0.0):
        with pytest.raises(NonPositiveMeanCurvature):
            surface_mass_data(surface, metric, forms=forms)
        return
    E = surface_mass_data(surface, metric, forms=forms).energy()
    assert np.asarray(E).tolist() == [0.0] * 4


# E_t(S_r) of a coordinate sphere is 8 pi m/k (1 - x)^(-1/2), x = 2m/(r (1
# + k^2 r^2)) = 2m/(k^2 r^3) (1 - 1/(k^2 r^2) + ...), a series in 1/r of
# orders 0, 3, 5, 6, 7, 8, ...: its r^0 term, the n = 2 limit, is the AH
# mass 8 pi m/k, solved for from the pipeline's E_t at five radii.  E_x
# and E_y are 0.0 by the trapezoid rule in phi; E_z is rounding, since the
# nodes theta = arccos(u) of a symmetric rule u round asymmetrically
AH_RADII = (10.0, 30.0, 100.0, 300.0, 1000.0)
AH_ORDERS = (0.0, 3.0, 5.0, 6.0, 7.0)


@pytest.mark.parametrize("k, m", [(1.0, 0.1), (0.5, 0.3), (2.0, 0.05),
                                  (1.0, 1.0)])
def test_ads_energy_tends_to_the_ah_mass(k, m):
    grid = QuadratureGrid.build(32, 64)
    metric = ads_schwarzschild_metric(m, k)
    E_t = []
    for r in AH_RADII:
        E = mass_forms(coordinate_sphere_surface(r, grid, k), metric)[0]
        E = E.energy()
        assert E.x1 == E.x2 == 0.0
        assert abs(E.x3) <= 1e-15 * E.t
        E_t.append(E.t)
    powers = np.power.outer(AH_RADII, np.negative(AH_ORDERS))
    limit = np.linalg.solve(powers, E_t)[0]
    ah_mass = 8.0 * math.pi * m / k
    assert abs(limit - ah_mass) <= 1e-13 * ah_mass


def _powers(lo, hi):
    """10^e for e drawn from [lo, hi]."""
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0 ** e)


def _signed(values):
    return st.tuples(st.sampled_from((1.0, -1.0)), values).map(
        lambda pair: pair[0] * pair[1])


@st.composite
def _edge_configs(draw):
    """(argv after the config path, config) of a mass, convergence or
    asymptotic op at 8x16 whose k, m, radii, profile or h is at the edge of
    its range: a k whose square is near underflow or below it, r on either
    side of r_horizon + 0.1 or up to 1e300, m up to 1e300, a profile whose
    base - |linear| is down to 1e-12, radii down to 5e-324 and h
    coefficients up to +-1e300."""
    command = draw(st.sampled_from(("mass", "mass --force", "convergence",
                                    "asymptotic")))
    cfg = {"resolution": {"n_theta": 8, "n_phi": 16}}
    if command == "asymptotic":
        coeff = st.one_of(st.just(0.0), st.floats(min_value=-1.0,
                                                  max_value=1.0),
                          _signed(_powers(-3.0, 300.0)))
        smallest = st.one_of(st.just(5e-324), st.just(0.05),
                             _powers(-323.0, -1.01))
        cfg["asymptotic"] = {
            "h": {"g0_coeff": draw(coeff), "linear": draw(st.lists(
                coeff, min_size=3, max_size=3))},
            "radii": [0.2, 0.1, draw(smallest)]}
        return ["asymptotic"], cfg
    k = draw(st.one_of(st.just(1.0), _powers(-165.0, -150.0)))
    kind = draw(st.sampled_from(("hyperbolic_ball", "ads_schwarzschild",
                                 "euclidean")))
    cfg["metric"] = {"type": kind, "k": k}
    edge = 0.1
    if kind == "ads_schwarzschild":
        m = draw(st.one_of(st.just(0.1), _powers(-3.0, 300.0)))
        cfg["metric"]["m"] = m
        if k > 0.0:
            edge = ads_horizon_radius(m, k) + 0.1
    if draw(st.booleans()):
        r = draw(st.one_of(
            st.floats(min_value=-1e-9, max_value=1e-9).map(
                lambda d: edge * (1.0 + d)),
            _powers(-1.0, 300.0)))
        cfg["surface"] = {"type": "coordinate_sphere", "r": r}
    else:
        base = draw(_powers(-3.0, 2.0))
        gap = draw(_powers(-12.0, 0.0)) * base
        tilt = draw(st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)]
                              * 3).filter(lambda t: math.hypot(*t) > 0.1))
        scale = (base - gap) / math.hypot(*tilt)
        cfg["surface"] = {"type": "radial_profile", "base": base,
                          "linear": [scale * c for c in tilt]}
    if command == "convergence":
        return ["convergence", "--resolutions", "8,16,32"], cfg
    return command.split(), cfg


# the first line of a refusal, by exit code
REFUSALS = {1: "error: ", 2: "config error: ", 3: "hypothesis failure: "}


def _euclidean_sphere(r):
    """A forced mass op on the coordinate sphere of radius ``r`` in
    Euclidean space at 8x16, whose E grows without bound in r."""
    return (["mass", "--force"],
            {"resolution": {"n_theta": 8, "n_phi": 16},
             "metric": {"type": "euclidean"},
             "surface": {"type": "coordinate_sphere", "r": r}})


@given(case=_edge_configs())
# future timelike E of 3e155 and 1e184, whose squares overflow a float:
# unscaled, they classify as NullFuture and Spacelike, with a numpy
# overflow warning
@example(case=_euclidean_sphere(4.0124869669270774e+38))
@example(case=_euclidean_sphere(5.727070854799361e+45))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_edge_configs_answer_or_refuse(case):
    # every config either gets finite numbers and exit 0, or one typed
    # stderr line and its exit code: no traceback (an exception out of
    # cli.main) and no numpy warning.  This is the refusal contract, not
    # accuracy: large-r E is ROADMAP item 2
    (command, *options), cfg = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edge.yaml"
        path.write_text(yaml.safe_dump(cfg))
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main([command, str(path), *options,
                             "--output", tmp])
    assert [str(w.message) for w in caught] == [], cfg
    if code == 0:
        assert err.getvalue() == "", cfg
        assert not re.search(r"\b(nan|inf)", out.getvalue(), re.I), cfg
    else:
        assert code in REFUSALS, cfg
        assert out.getvalue() == "", cfg
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(REFUSALS[code]), cfg
