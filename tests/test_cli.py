"""CLI subcommands: configs, reports, determinism, exit codes."""

import inspect
import io
import itertools
import json
import math
import operator
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import yaml

from hypermass import cli
from hypermass import geometry as geo
from hypermass import mass as massmod
from hypermass import spinor
from hypermass.cli import build_metric, build_surface, load_config, main
from hypermass.errors import ConfigError
from hypermass.lorentz import classify, minkowski_inner, sample_null_cone

from conftest import exact_ads_energy, forms_of, waist_graph

ADS_CONFIG = """
metric: {type: ads_schwarzschild, k: 1.0, m: 0.1}
surface: {type: coordinate_sphere, r: 2.0}
resolution: {n_theta: 32, n_phi: 64}
"""

GEO_CONFIG = """
metric: {type: hyperbolic_ball, k: 1.0}
surface: {type: geodesic_sphere, rho: 1.0}
resolution: {n_theta: 16, n_phi: 32}
outputs: {shi_tam: true}
asymptotic:
  h: {g0_coeff: 0.5}
  radii: [0.2, 0.1, 0.05]
"""

# an h with every linear component nonzero, over the radii formatted in
TILTED_SERIES_CONFIG = """
resolution: {{n_theta: 16, n_phi: 32}}
asymptotic:
  h: {{g0_coeff: 0.5, linear: [0.3, -0.2, 0.1]}}
  radii: [{}]
"""

# E_t ~ 2.6e-8: the zero vector at causal_tol 1e-6, timelike at 1e-12
SMALL_E_CONFIG = """
metric: {type: ads_schwarzschild, k: 1.0, m: 1.0e-9}
surface: {type: coordinate_sphere, r: 2.0}
resolution: {n_theta: 16, n_phi: 32}
tolerances: {causal_tol: 1.0e-6}
"""

REPORT_KEYS = {"format_version", "E", "causal_class", "M_alpha", "alpha",
               "hypothesis_checks", "resolution", "null_pairing", "forced",
               "config"}

CHECK_KEYS = {"min_mean_curvature", "min_gauss_plus_k2", "min_scalar_plus_6k2",
              "isometry_mismatch", "iso_tol"}

TILTED_ADS_CONFIG = """
metric: {type: ads_schwarzschild, k: 1.0, m: 0.1}
surface: {type: radial_profile, base: 1.5, linear: [0.1, -0.05, 0.1]}
resolution: {n_theta: 16, n_phi: 32}
"""

# geodesic radius 1 + 0.95 cos theta, not convex: H = -50.8 at its node
# nearest the south pole
NONCONVEX_CONFIG = """
metric: {type: hyperbolic_ball, k: 1.0}
surface: {type: radial_profile, base: 1.0, linear: [0, 0, 0.95]}
resolution: {n_theta: 16, n_phi: 32}
"""


# configs that would otherwise run another scenario than they name, or
# blame the surface for k, and the one line each prints; of two keys of
# other types the first in the resolver's table is named, not the first in
# the file
EXACT_CONFIG_ERRORS = {
    "surface: {type: coordinate_sphere, rho: 5}":
        "config error: surface.rho is not a key of coordinate_sphere",
    "metric: {type: hyperbolic_ball, m: 0.1}":
        "config error: metric.m is not a key of hyperbolic_ball",
    "surface: {linear: [0, 0, 0.3]}":
        "config error: surface.linear is not a key of geodesic_sphere",
    "surface: {type: radial_profile, r: 2.0, rho: 1.0}":
        "config error: surface.rho is not a key of radial_profile",
    "metric: {k: 1.0e+200}":
        "config error: curvature scale k = 1e+200 must be positive, "
        "with k^2 a normal float",
    "metric: {type: [1]}": "config error: unknown metric type: [1]",
}

# the node pass overflows a float past R ~ 1e77 (det I ~ R^4)
HUGE_ADS_CONFIG = """
metric: {type: ads_schwarzschild, k: 1.0, m: 0.1}
surface: {type: coordinate_sphere, r: 1.0e+80}
"""

# sinh and cosh of the geodesic radius 700 + 10 sin theta cos phi are finite
# up to about 1.1e308, but the jet's products of them are not
OVERFLOWING_JET_CONFIG = """
surface: {type: radial_profile, base: 700, linear: [10, 0, 0]}
resolution: {n_theta: 16, n_phi: 32}
"""

# H ~ 4e297 at r = 0.2, so (H0^2 - H^2)/H overflows
OVERFLOWING_ASPECT_CONFIG = """
asymptotic:
  h: {g0_coeff: -1.0e+300, linear: [0, 0, 0]}
  radii: [0.2, 0.1, 0.05]
resolution: {n_theta: 8, n_phi: 16}
"""

def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def node_pass_calls(monkeypatch):
    """Metric tag of each surface_forms call, recorded through every
    hypermass module that binds the name."""
    calls = {"surface_forms": []}
    surface_forms = geo.surface_forms

    def counted_forms(metric, graph):
        calls["surface_forms"].append(metric.tag)
        return surface_forms(metric, graph)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "hypermass":
            continue
        if getattr(mod, "surface_forms", None) is surface_forms:
            monkeypatch.setattr(mod, "surface_forms", counted_forms)
    return calls


class TestMassCommand:
    def test_ads_report(self, tmp_path):
        cfg = write(tmp_path, "ads.yaml", ADS_CONFIG)
        code, out, _ = run(["mass", cfg, "--output", str(tmp_path / "o")])
        assert code == 0
        doc = json.loads((tmp_path / "o" / "mass_report.json").read_text())
        assert doc["causal_class"] == "TimelikeFuture"
        assert abs(doc["E"][3] - exact_ads_energy(2.0)) < 1e-6
        assert doc["hypothesis_checks"]["passed"] is True
        assert doc["null_pairing"]["max"] < 0.0
        assert doc["format_version"] == 2

    def test_geodesic_sphere_zero_vector(self, tmp_path):
        cfg = write(tmp_path, "geo.yaml", GEO_CONFIG)
        code, out, _ = run(["mass", cfg, "--output", str(tmp_path / "o")])
        assert code == 0
        doc = json.loads((tmp_path / "o" / "mass_report.json").read_text())
        assert doc["causal_class"] == "ZeroVector"
        # arcosh near argument 1 amplifies roundoff to ~sqrt(eps) in the
        # radial bounds, so alpha carries that noise
        assert abs(doc["alpha"] - 1.0 / math.tanh(1.0)) < 1e-6
        assert max(abs(c) for c in doc["M_alpha"]) < 1e-10

    def test_shi_tam_exactly_at_k1(self, tmp_path):
        # alpha(R1, R2) is stated at k = 1: M_alpha is reported there and
        # only there; GEO_CONFIG's retired outputs.shi_tam switch loads and
        # is ignored, like any unknown key
        for text, k1 in ((ADS_CONFIG, True),
                         (GEO_CONFIG.replace("k: 1.0", "k: 2.0"), False)):
            cfg = write(tmp_path, "k.yaml", text)
            assert run(["mass", cfg, "--output", str(tmp_path / "o")])[0] == 0
            doc = json.loads((tmp_path / "o" / "mass_report.json").read_text())
            assert (doc["M_alpha"] is not None) is k1
            assert (doc["alpha"] is not None) is k1
            assert doc["E"] is not None

    def test_report_embeds_resolved_config(self, tmp_path):
        cfg = write(tmp_path, "ads.yaml", ADS_CONFIG)
        run(["mass", cfg, "--output", str(tmp_path / "o")])
        doc = json.loads((tmp_path / "o" / "mass_report.json").read_text())
        assert doc["config"]["metric"] == {
            "type": "ads_schwarzschild", "k": 1.0, "m": 0.1}
        assert doc["config"]["tolerances"]["iso_tol"] == 1e-8

    def test_resolved_tolerances(self, tmp_path):
        # fd_step is not a config key: a config that still sets it loads and
        # ignores it, like any other unknown key
        for text in ("{}", "tolerances: {fd_step: 1.0e-3}"):
            cfg = load_config(write(tmp_path, "t.yaml", text))
            assert cfg["tolerances"] == {"iso_tol": 1e-8, "causal_tol": 1e-12}

    def test_report_schema(self, tmp_path):
        cfg = write(tmp_path, "ads.yaml", ADS_CONFIG)
        assert run(["mass", cfg, "--output", str(tmp_path / "o")])[0] == 0
        doc = json.loads((tmp_path / "o" / "mass_report.json").read_text())
        assert set(doc) == REPORT_KEYS
        checks = doc["hypothesis_checks"]
        assert set(checks) == CHECK_KEYS | {"passed"}
        assert all(type(checks[key]) is float for key in CHECK_KEYS)
        assert checks["passed"] is True
        assert doc["forced"] is False

    def test_forced_past_a_failed_soft_check(self, tmp_path, monkeypatch):
        # R + 6k^2 = -1 on the whole chart fails the R check alone; --force
        # goes on to the integrals and says so in the report
        monkeypatch.setattr(geo.MetricField, "scalar_curvature",
                            lambda metric: -7.0)
        cfg = write(tmp_path, "ads.yaml", ADS_CONFIG)
        code, out, _ = run(["mass", cfg, "--force",
                            "--output", str(tmp_path / "o")])
        assert code == 0
        assert "hypothesis checks passed: False" in out
        doc = json.loads((tmp_path / "o" / "mass_report.json").read_text())
        assert set(doc) == REPORT_KEYS
        assert doc["forced"] is True
        assert doc["hypothesis_checks"]["passed"] is False
        assert doc["hypothesis_checks"]["min_scalar_plus_6k2"] == -1.0
        assert abs(doc["E"][3] - exact_ads_energy(2.0)) < 1e-6
        assert doc["causal_class"] == "TimelikeFuture"

    # a waist whose H dips below 0 near the south pole; in AdS-Schwarzschild
    # its isometry check fails too
    @pytest.mark.parametrize("config, hard", [
        (ADS_CONFIG, ""),
        (NONCONVEX_CONFIG.replace("0.95", "0.56"), "min_mean_curvature"),
        (TILTED_ADS_CONFIG, "isometry_mismatch"),
        (NONCONVEX_CONFIG.replace("0.95", "0.56").replace(
            "hyperbolic_ball, k: 1.0", "ads_schwarzschild, k: 1.0, m: 0.1"),
         "min_mean_curvature or isometry_mismatch")],
        ids=["soft", "h", "isometry", "both"])
    def test_force_is_offered_only_where_it_passes(self, tmp_path,
                                                   monkeypatch, config, hard):
        # with the R check failed on top, --force gets past the failures
        # only when H > 0 and the mismatch holds: the integrals refuse both
        # even under --force, so the message names them instead
        monkeypatch.setattr(geo.MetricField, "scalar_curvature",
                            lambda metric: -7.0)
        cfg = write(tmp_path, "c.yaml", config)
        argv = ["mass", cfg, "--output", str(tmp_path / "o")]
        code, _, err = run(argv)
        assert code == 3 and err.count("\n") == 1
        assert "min_scalar_plus_6k2 = -1, need >= 0" in err
        hint = (f"--force does not get past {hard}" if hard
                else "rerun with --force to proceed")
        assert err.endswith(f"); {hint}\n")
        code, _, err = run(argv + ["--force"])
        assert code == (1 if hard else 0)
        assert err.startswith("error: ") if hard else err == ""

    def test_failure_names_the_failed_check(self, tmp_path):
        # H, K and R pass; only the isometry mismatch fails: a tilted
        # profile in AdS-Schwarzschild is paired with itself in H^3, and
        # the two metrics differ by 2m/r in V
        cfg = write(tmp_path, "iso.yaml", TILTED_ADS_CONFIG)
        code, _, err = run(["mass", cfg, "--output", str(tmp_path / "o")])
        assert code == 3
        assert "isometry_mismatch = " in err and "iso_tol = 1e-08" in err
        for key in ("min_mean_curvature", "min_gauss_plus_k2",
                    "min_scalar_plus_6k2"):
            assert key not in err
        doc = json.loads((tmp_path / "o" / "mass_report.json").read_text())
        assert doc["hypothesis_checks"]["min_mean_curvature"] > 0.0
        assert doc["hypothesis_checks"]["passed"] is False
        assert doc["E"] is None

    def test_nonconvex_surface_fails_checks(self, tmp_path):
        cfg = write(tmp_path, "bad.yaml", NONCONVEX_CONFIG)
        code, _, err = run(["mass", cfg, "--output", str(tmp_path / "o")])
        assert code == 3
        assert "min_mean_curvature = -" in err
        assert "node" in err and "theta" in err and "phi" in err
        doc = json.loads((tmp_path / "o" / "mass_report.json").read_text())
        assert doc["hypothesis_checks"]["passed"] is False
        assert doc["hypothesis_checks"]["min_mean_curvature"] < 0.0
        assert doc["E"] is None

    # H <= 0 names the least H and its first theta-major node in one line,
    # as the check (exit 3) and, under --force, as the integrals' error
    # (exit 1): on a graph whose node fields stay on the theta axis (a row
    # index taken for a node would name node 8) and on a tilted one
    @pytest.mark.parametrize("case, where", [
        ("theta_axis", "-0.642385 at node 256 (theta=1.4756, phi=0.0000)"),
        ("tilted", "-15.9219 at node 204 (theta=1.8563, phi=2.3562)")])
    @pytest.mark.parametrize("force", [False, True])
    def test_nonpositive_h_names_its_node(self, tmp_path, monkeypatch, case,
                                          where, force):
        cfg = write(tmp_path, "bad.yaml", NONCONVEX_CONFIG.replace(
            "[0, 0, 0.95]", "[0.5, -0.6, 0.3]"))
        if case == "theta_axis":
            monkeypatch.setattr(cli, "build_surface", lambda cfg, grid: (
                geo.SurfaceData(F=waist_graph(0.5), F0=waist_graph(0.5),
                                grid=grid, k=1.0)))
        argv = ["mass", cfg, "--output", str(tmp_path / "o")]
        code, _, err = run(argv + ["--force"] * force)
        value, node = where.split(" at ")
        if force:
            assert (code, err) == (1, f"error: H = {value} <= 0 at {node}\n")
        else:
            assert code == 3 and err.count("\n") == 1
            assert err.startswith("hypothesis failure: hypothesis checks "
                                  f"failed (min_mean_curvature = {where}, "
                                  "need > 0; ")

    def test_failure_report_layout(self, tmp_path):
        cfg = write(tmp_path, "bad.yaml", NONCONVEX_CONFIG)
        assert run(["mass", cfg, "--output", str(tmp_path / "o")])[0] == 3
        doc = json.loads((tmp_path / "o" / "mass_report.json").read_text())
        assert set(doc) == REPORT_KEYS
        assert doc["format_version"] == 2
        assert doc["resolution"] == [16, 32]
        assert doc["forced"] is False
        assert doc["null_pairing"] == {"min": None, "max": None}
        for key in ("E", "causal_class", "M_alpha", "alpha"):
            assert doc[key] is None

    def test_zero_energy_report_holds_no_negative_zero(self, tmp_path):
        # a tilted profile of H^3 itself has E = 0 exactly, and the null
        # pairing's extremes -E_t -+ |E_s| of it are written as 0.0, not as
        # the -0.0 - 0.0 = -0.0 of the minimum
        cfg = write(tmp_path, "tilted.yaml", """
metric: {type: hyperbolic_ball, k: 1.0}
surface: {type: radial_profile, base: 1.0, linear: [0.1, -0.2, 0.15]}
resolution: {n_theta: 32, n_phi: 64}
""")
        assert run(["mass", cfg, "--output", str(tmp_path / "o")])[0] == 0
        text = (tmp_path / "o" / "mass_report.json").read_text()
        doc = json.loads(text)
        assert doc["E"] == [0.0, 0.0, 0.0, 0.0]
        assert doc["null_pairing"] == {"min": 0.0, "max": 0.0}
        assert re.findall(r"-0\.0\b", text) == []

    @pytest.mark.parametrize("r", [2.0, 10.0])
    def test_null_pairing_is_exact(self, tmp_path, r):
        # the reported extremes bound every sampled future null pairing
        cfg = write(tmp_path, "ads.yaml", ADS_CONFIG.replace(
            "r: 2.0", f"r: {r}"))
        assert run(["mass", cfg, "--output", str(tmp_path / "o")])[0] == 0
        doc = json.loads((tmp_path / "o" / "mass_report.json").read_text())
        E = np.array(doc["E"])
        spatial = float(np.linalg.norm(E[:3]))
        assert doc["null_pairing"] == pytest.approx(
            {"min": -E[3] - spatial, "max": -E[3] + spatial}, rel=1e-15)
        sampled = minkowski_inner(E, sample_null_cone(500))
        assert doc["null_pairing"]["min"] <= np.min(sampled)
        assert np.max(sampled) <= doc["null_pairing"]["max"]

    def test_configured_causal_tol_classifies(self, tmp_path):
        cfg = write(tmp_path, "tiny.yaml", SMALL_E_CONFIG)
        assert run(["mass", cfg, "--output", str(tmp_path / "o")])[0] == 0
        doc = json.loads((tmp_path / "o" / "mass_report.json").read_text())
        assert 1e-12 < max(abs(c) for c in doc["E"]) < 1e-6
        assert doc["causal_class"] == "ZeroVector"

    def test_force_propagates_numeric_error(self, tmp_path):
        # --force bypasses the checks, but H <= 0 stays a hard error inside
        # the integrand, reported with its node coordinates
        cfg = write(tmp_path, "bad.yaml", NONCONVEX_CONFIG)
        code, _, err = run(["mass", cfg, "--force",
                            "--output", str(tmp_path / "o")])
        assert code == 1
        assert "theta" in err and "node" in err

    def test_missing_config(self, tmp_path):
        code, _, err = run(["mass", str(tmp_path / "none.yaml")])
        assert code == 2

    def test_non_integral_resolution_rejected(self, tmp_path):
        cfg = write(tmp_path, "r.yaml",
                    "resolution: {n_theta: 8.5, n_phi: 16.9}")
        code, _, err = run(["mass", cfg, "--output", str(tmp_path / "o")])
        assert code == 2
        assert "resolution.n_theta" in err and "8.5" in err
        assert not (tmp_path / "o").exists()

    def test_integral_float_resolution_loads(self, tmp_path):
        cfg = load_config(write(tmp_path, "r.yaml",
                                "resolution: {n_theta: 8.0, n_phi: 16.0}"))
        assert cfg["resolution"] == {"n_theta": 8, "n_phi": 16}
        assert all(type(n) is int for n in cfg["resolution"].values())

    def test_config_validation(self, tmp_path):
        bad_res = write(tmp_path, "r.yaml",
                        "resolution: {n_theta: 4, n_phi: 8}")
        assert run(["mass", bad_res])[0] == 2
        bad_tol = write(tmp_path, "t.yaml",
                        "tolerances: {iso_tol: -1.0}")
        assert run(["mass", bad_tol])[0] == 2
        bad_metric = write(tmp_path, "m.yaml",
                           "metric: {type: kerr}")
        assert run(["mass", bad_metric])[0] == 2

    def test_wang_ah_metric_is_unknown(self, tmp_path):
        # no surface can run in the collar chart of the wang_ah metric
        cfg = write(tmp_path, "w.yaml", "metric: {type: wang_ah}")
        code, _, err = run(["mass", cfg, "--output", str(tmp_path / "o")])
        assert code == 2
        assert "unknown metric type" in err

    @pytest.mark.parametrize("text", [
        "metric: {type: ads_schwarzschild, m: .nan}",
        "metric: {type: ads_schwarzschild, m: -0.1}",
        "surface: {type: coordinate_sphere, r: .inf}",
        "surface: {type: radial_profile, linear: 5}",
        "asymptotic: {h: {linear: 5}}",
        "asymptotic: {h: 5}",
        "asymptotic: 5",
        "metric: false",
        "surface: {type: geodesic_sphere, rho: -1.0}",
        "surface: {type: coordinate_sphere, r: 0.0}",
        "surface: {type: radial_profile, base: 0.5, linear: [0.3, 0.4, 0.0]}",
        "metric: {k: 1.0e-170}",
        "metric: {type: euclidean, k: 1.0e-310}",
        # base = |linear| by math.hypot, the factory's own measure
        "surface: {type: radial_profile, base: 0.9136288375816026, linear: "
        "[0.08282494558699316, 0.8782983255570211, -0.23759152462357513]}",
        "metric: {k: true}",
        "surface: {rho: yes}",
        *EXACT_CONFIG_ERRORS,
    ], ids=["nan_mass", "negative_mass", "infinite_r",
            "scalar_surface_linear", "scalar_h_linear", "scalar_h",
            "scalar_asymptotic",
            "false_metric", "negative_rho", "zero_r", "profile_reaches_zero",
            "k_squared_underflows", "subnormal_k", "profile_touches_zero",
            "boolean_k", "boolean_rho", "rho_of_coordinate_sphere",
            "mass_of_hyperbolic_ball", "linear_of_geodesic_sphere",
            "two_keys_of_other_types", "k_squared_overflows",
            "unhashable_type"])
    def test_bad_values_are_config_errors(self, tmp_path, text):
        cfg = write(tmp_path, "bad.yaml", text)
        code, _, err = run(["mass", cfg, "--output", str(tmp_path / "o")])
        assert code == 2
        assert err.startswith("config error")
        if text in EXACT_CONFIG_ERRORS:
            assert err == EXACT_CONFIG_ERRORS[text] + "\n"
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("command, text", [
        (["mass", "--force"], HUGE_ADS_CONFIG),
        (["convergence", "--resolutions", "8,16,32"], HUGE_ADS_CONFIG),
        (["mass"], "surface: {type: geodesic_sphere, rho: 800}"),
        (["mass", "--force"], "surface: {type: radial_profile, base: 300}"),
    ], ids=["forced_mass_r1e80", "convergence_r1e80", "geodesic_rho800",
            "forced_mass_base300"])
    def test_overflowing_geometry_is_a_domain_error(self, tmp_path, command,
                                                    text):
        assert_one_error_line(tmp_path, command, text)

    @pytest.mark.parametrize("command, text", [
        (["mass"], ADS_CONFIG),
        (["convergence", "--resolutions", "8,16,32"], ADS_CONFIG),
        (["asymptotic"], GEO_CONFIG),
    ], ids=["mass", "convergence", "asymptotic"])
    def test_unusable_output_is_a_config_error(self, tmp_path, command,
                                               text):
        # --output names an existing file: no directory can be made there
        (tmp_path / "o").write_text("")
        err = assert_one_error_line(tmp_path, command, text, code=2)
        assert err.startswith(f"config error: cannot write {tmp_path / 'o'}")

    def test_overflowing_mass_aspect_is_a_domain_error(self, tmp_path):
        assert_one_error_line(tmp_path, ["asymptotic"],
                              OVERFLOWING_ASPECT_CONFIG)

    @pytest.mark.parametrize("r", ["1.0e-200", "5.0e-324"])
    def test_tiny_radius_is_a_domain_error(self, tmp_path, r):
        # sinh^2 r rounds to 0 below r = 1.5e-162, so the measure dS /
        # sinh^2 r of S_r is not a float there
        err = assert_one_error_line(tmp_path, ["asymptotic"], (
            "asymptotic: {h: {g0_coeff: 0.5}, radii: [0.2, 0.1, %s]}\n"
            "resolution: {n_theta: 8, n_phi: 16}\n" % r))
        assert err == (f"error: dS / sinh^2 r overflows a float for "
                       f"r = {float(r)!r}\n")

    def test_underflowing_geometry_names_the_underflow(self, tmp_path):
        # det I ~ r^4 = 1e-400 underflows to 0 before anything overflows
        err = assert_one_error_line(
            tmp_path, ["mass"], "metric: {type: euclidean}\n"
            "surface: {type: coordinate_sphere, r: 1.0e-100}")
        assert err == ("error: the forms underflow a float on the surface "
                       "down to r = 1e-100 in the Euclidean chart\n")

    @pytest.mark.parametrize("text, message", [
        # k^2 = 1e308 is a normal float, but V = 1 + k^2 r^2 is not
        ("metric: {k: 1.0e+154}\nsurface: {type: coordinate_sphere, r: 2.0}",
         "V = 1/g_rr overflows a float on the surface up to r = 2 in the "
         "Hyperbolic chart"),
        # V = 1e160 is finite; det I ~ r^4 is not
        (HUGE_ADS_CONFIG, "the forms overflow a float on the surface up to "
         "r = 1e+80 in the AdSSchwarzschild chart"),
    ], ids=["V_k1e154", "forms_r1e80"])
    def test_overflowing_geometry_names_what_overflows(self, tmp_path, text,
                                                       message):
        err = assert_one_error_line(
            tmp_path, ["mass", "--force"],
            text + "\nresolution: {n_theta: 8, n_phi: 16}")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", [
        ["mass"], ["convergence", "--resolutions", "8,16,32"]],
        ids=["mass", "convergence"])
    def test_overflowing_jet_prints_no_warning(self, tmp_path, command):
        # the jet's own products overflow before V does: the one error line
        # names the V of the first grid, with no numpy warning before it
        err = assert_one_error_line(tmp_path, command, OVERFLOWING_JET_CONFIG)
        r = "9.42672e+307" if command[0] == "convergence" else "1.06759e+308"
        assert err == (f"error: V = 1/g_rr overflows a float on the surface "
                       f"up to r = {r} in the Hyperbolic chart\n")

    @pytest.mark.parametrize("command, text", [
        (["mass"], "resolution: {n_theta: 8, n_phi: 4611686018427387904}"),
        (["mass"], "resolution: {n_theta: 8, n_phi: 9223372036854775808}"),
        (["asymptotic"], GEO_CONFIG.replace("n_phi: 32",
                                            "n_phi: 4611686018427387904")),
        (["convergence", "--resolutions", "8,16,4611686018427387904"],
         ADS_CONFIG),
    ], ids=["mass", "mass_2_63", "asymptotic", "convergence"])
    def test_grid_past_numpy_size_limit_is_a_domain_error(self, tmp_path,
                                                          command, text):
        # refused before any array is built: numpy would refuse the 2^62
        # size itself, and build np.arange(2**63) empty
        err = assert_one_error_line(tmp_path, command, text)
        assert "grid is too big" in err
        assert not (tmp_path / "o").exists()

    # numpy's MemoryError, and a bare one, raised here without asking for
    # the memory
    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 488. GiB for an array with shape (65536000000,) "
         "and data type float64", None), ("", "MemoryError")],
        ids=["numpy", "bare"])
    @pytest.mark.parametrize("command, text", [
        (["mass"], ADS_CONFIG), (["asymptotic"], GEO_CONFIG),
        (["convergence", "--resolutions", "8,16,32"], ADS_CONFIG)],
        ids=["mass", "asymptotic", "convergence"])
    def test_unallocatable_grid_is_one_error_line(self, tmp_path, monkeypatch,
                                                  command, text, message,
                                                  line):
        def build(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(geo.QuadratureGrid, "build", build)
        cfg = write(tmp_path, "c.yaml", text)
        code, out, err = run([command[0], cfg, *command[1:],
                              "--output", str(tmp_path / "o")])
        assert (code, out, err) == (1, "", f"error: {line or message}\n")
        assert not (tmp_path / "o").exists()

    def test_tolerance_defaults_are_the_library_defaults(self):
        tols = cli.resolve_config({})["tolerances"]
        assert tols == {"iso_tol": 1e-8, "causal_tol": 1e-12}
        assert tols["iso_tol"] == inspect.signature(
            massmod.surface_mass_data).parameters["iso_tol"].default
        assert tols["causal_tol"] == inspect.signature(
            classify).parameters["tol"].default


# the CLI's entry point with PyYAML's pure-Python loader, as where PyYAML
# is built without libyaml
PURE_YAML_CLI = """
import sys, yaml
if hasattr(yaml, "CSafeLoader"):
    del yaml.CSafeLoader
from hypermass.cli import main
sys.exit(main(sys.argv[1:]))
"""


def assert_one_error_line(tmp_path, command, text, code=1, libyaml=True):
    """Run ``command`` on the config ``text`` (str or bytes), writing to
    ``tmp_path / "o"``, with ``assert_exits_with_one_line``."""
    path = tmp_path / "scenario.yaml"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return assert_exits_with_one_line(
        [command[0], str(path), *command[1:], "--output", str(tmp_path / "o")],
        code, libyaml)


def assert_exits_with_one_line(argv, code=1, libyaml=True):
    """Run the CLI on ``argv`` in a fresh process, with libyaml's loader or
    the pure-Python one, so that an escaped exception shows as a traceback
    and a numpy warning on stderr: it must exit ``code`` with the one line
    of a typed error, a config error for code 2, and print nothing else."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    entry = ["-m", "hypermass.cli"] if libyaml else ["-c", PURE_YAML_CLI]
    proc = subprocess.run([sys.executable, *entry, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("config error: " if code == 2 else "error: ")
    assert proc.stdout == ""
    return proc.stderr


def fill(argv, tmp_path):
    """``argv`` with ``{cfg}`` a config that loads (GEO_CONFIG), ``{absent}``
    a path with no file and ``{out}`` an output directory, all in
    ``tmp_path``."""
    paths = {"cfg": write(tmp_path, "geo.yaml", GEO_CONFIG),
             "absent": str(tmp_path / "absent.yaml"),
             "out": str(tmp_path / "o")}
    return [arg.format(**paths) for arg in argv]


class TestUsage:
    # every usage error is a config error: one stderr line and exit 2, from
    # a fresh process and from main() alike, which never raises SystemExit
    @pytest.mark.parametrize("argv, message", [
        ([], "no command: choose one of mass, asymptotic, spinor-check, "
             "convergence"),
        (["energy", "{cfg}"], "unknown command 'energy': choose one of mass, "
                              "asymptotic, spinor-check, convergence"),
        (["mass", "{cfg}", "--seed", "1"], "mass has no option --seed"),
        # an option name is whole: no prefix of it stands for it
        (["mass", "{cfg}", "--out", "{out}"], "mass has no option --out"),
        (["convergence", "{cfg}", "--res", "8,16,32"],
         "convergence has no option --res"),
        (["mass", "{cfg}", "--output"], "--output needs a value"),
        (["mass", "{cfg}", "--output", "--force"], "--output needs a value"),
        (["mass", "--force=yes", "{cfg}"], "--force takes no value"),
        (["mass"], "mass takes one config path, got 0"),
        (["mass", "{absent}"], "cannot read config: [Errno 2] No such file "
                               "or directory: '{absent}'"),
        (["asymptotic", "{cfg}", "{cfg}"],
         "asymptotic takes one config path, got 2"),
        (["spinor-check", "{cfg}"], "spinor-check takes no config path, "
                                    "got 1"),
        (["convergence", "{cfg}"], "convergence needs --resolutions"),
        (["spinor-check", "--seed", "x"],
         "--seed must be a finite number, got 'x'"),
        (["spinor-check", "--count", "0"], "--count must be at least 1, "
                                           "got '0'"),
        (["spinor-check", "--seed", "-1"], "--seed must be at least 0, "
                                           "got '-1'"),
    ], ids=["no_command", "unknown_command", "unknown_option",
            "output_prefix", "resolutions_prefix", "no_value",
            "option_for_value", "switch_value", "no_config",
            "absent_config", "two_configs", "config_for_spinor_check",
            "no_resolutions", "seed_x", "count_0", "seed_-1"])
    def test_usage_error_is_one_config_error_line(self, tmp_path, argv,
                                                  message):
        argv = fill(argv, tmp_path)
        line = f"config error: {fill([message], tmp_path)[0]}\n"
        assert assert_exits_with_one_line(argv, code=2) == line
        try:
            assert run(argv) == (2, "", line)
        except SystemExit as exc:
            pytest.fail(f"main raised SystemExit({exc.code})")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["mass", "-h"], ["asymptotic", "--help"],
        ["spinor-check", "-h"], ["convergence", "--help"],
        ["mass", "{cfg}", "--output", "{out}", "--help"]])
    def test_help_prints_the_usage(self, tmp_path, argv):
        assert run(fill(argv, tmp_path)) == (0, cli.__doc__, "")
        assert not (tmp_path / "o").exists()

    def test_help_from_a_fresh_process(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "hypermass.cli", "-h"],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, cli.__doc__, "")

    def test_usage_has_every_readme_form(self):
        readme = (ROOT / "README.md").read_text()
        [block] = re.findall(r"## CLI\n\n```sh\n(.*?)```", readme, re.S)
        lines = block.splitlines()
        assert len(lines) == 4
        for line in lines:
            assert f"\n  {line}\n" in cli.__doc__, line

    def test_options_anywhere_after_the_command(self, tmp_path, monkeypatch):
        # --name=value, a repeated switch and options before the config read
        # as the usual order does; the R check fails, so only a --force
        # that took effect gives exit 0
        monkeypatch.setattr(geo.MetricField, "scalar_curvature",
                            lambda metric: -7.0)
        cfg = write(tmp_path, "ads.yaml", ADS_CONFIG)
        outs = [tmp_path / "a", tmp_path / "b"]
        assert run(["mass", "--force", f"--output={outs[0]}", cfg,
                    "--force"])[0] == 0
        assert run(["mass", cfg, "--output", str(outs[1]), "--force"])[0] == 0
        a, b = (out / "mass_report.json" for out in outs)
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["forced"] is True

    # the argv forms bench/run.py builds, on small grids
    @pytest.mark.parametrize("argv", [
        ["mass", "{cfg}", "--force", "--output", "{out}"],
        ["asymptotic", "{cfg}", "--output", "{out}"],
        ["spinor-check", "--seed", "5", "--count", "20"],
        ["convergence", "{cfg}", "--resolutions", "8,16,32", "--output",
         "{out}"]], ids=lambda argv: argv[0])
    def test_benchmark_forms_run(self, tmp_path, argv):
        code, out, err = run(fill(argv, tmp_path))
        assert (code, err) == (0, "")
        assert out


# surfaces with a phi axis, whose node pass walks blocks of theta rows, at
# 16x32, and the error of each under mass --force: each names the extreme R,
# the node or the mismatch of the whole grid
BLOCKED_CONFIGS = {
    "outside_chart": (
        "metric: {type: ads_schwarzschild, m: 0.5}\n"
        "surface: {type: radial_profile, base: 1.0, linear: [0.6, 0, 0.2]}",
        "error: surface reaches r = 0.376321, outside the AdSSchwarzschild "
        "chart r > 0.782328"),
    "V_overflow": (
        "surface: {type: radial_profile, base: 700, linear: [10, 0, 0]}",
        "error: V = 1/g_rr overflows a float on the surface up to r = "
        "1.06759e+308 in the Hyperbolic chart"),
    "forms_underflow": (
        "metric: {type: euclidean}\nsurface: {type: radial_profile, "
        "base: 1.0e-100, linear: [5.0e-101, 0, 0]}",
        "error: the forms underflow a float on the surface down to r = "
        "5.02262e-101 in the Euclidean chart"),
    "forms_overflow": (
        "metric: {type: ads_schwarzschild, m: 0.1}\n"
        "surface: {type: radial_profile, base: 184, linear: [1.5, 0, 0.5]}",
        "error: the forms overflow a float on the surface up to r = "
        "1.97416e+80 in the AdSSchwarzschild chart"),
    "nonpositive_h": (
        "surface: {type: radial_profile, base: 1.0, linear: [0.3, 0, 0.95]}",
        "error: H = -4184.36 <= 0 at node 48 (theta=2.8071, phi=3.1416)"),
    "isometry": (
        "metric: {type: ads_schwarzschild, m: 0.1}\n"
        "surface: {type: radial_profile, base: 1.5, linear: [0.1, -0.05, "
        "0.1]}",
        "error: induced metrics disagree by 9.791e-05 (tol 1.0e-08)"),
    "passes": (
        "surface: {type: radial_profile, base: 1.0, linear: [0.1, 0.2, 0.3]}",
        ""),
}


def outputs_by_block_size(tmp_path, monkeypatch, argv):
    """The exit code, stdout, stderr and written files of the CLI on
    ``argv`` (then --output), with the node pass in blocks of one theta row
    and then in one block: they must agree."""
    outputs = []
    for budget in (1, 1 << 40):
        monkeypatch.setattr(massmod, "_BLOCK_NODES", budget)
        out = tmp_path / f"o{budget}"
        result = run([*argv, "--output", str(out)])
        files = ({p.name: p.read_bytes() for p in out.iterdir()}
                 if out.exists() else {})
        outputs.append((*result, files))
    assert outputs[0] == outputs[1]
    return outputs[0]


@pytest.mark.parametrize("command", [
    ["mass"], ["mass", "--force"], ["convergence", "--resolutions", "8,16,32"]],
    ids=["mass", "forced_mass", "convergence"])
@pytest.mark.parametrize("case", BLOCKED_CONFIGS)
def test_block_size_changes_no_output(tmp_path, monkeypatch, command, case):
    text, error = BLOCKED_CONFIGS[case]
    cfg = write(tmp_path, "c.yaml",
                text + "\nresolution: {n_theta: 16, n_phi: 32}\n")
    code, _, err, _ = outputs_by_block_size(tmp_path, monkeypatch,
                                            [command[0], cfg, *command[1:]])
    if command[-1] == "--force":
        assert (code, err) == ((1, error + "\n") if error else (0, ""))


def test_least_h_tie_names_the_first_node(tmp_path, monkeypatch):
    # H - 0.27 past its least, rounded to 0.1: the least, -0.3, is held by
    # the four nodes of H within 0.02 of its least, on two theta rows, the
    # least itself on the later; with a block per row, the first block that
    # holds the tie names its first node
    cfg = write(tmp_path, "c.yaml", BLOCKED_CONFIGS["passes"][0]
                + "\nresolution: {n_theta: 16, n_phi: 32}\n")
    config = load_config(cfg)
    surface = build_surface(config, geo.QuadratureGrid.build(16, 32))
    H = forms_of(surface, build_metric(config)).mean_curvature
    shift = np.min(H) + 0.27
    rounded = np.round(H - shift, 1)
    ties = np.argwhere(rounded == np.min(rounded))
    assert len(set(ties[:, 0])) > 1
    assert rounded[np.unravel_index(np.argmin(H), H.shape)] == -0.3
    i, j = ties[0]
    forms = geo.surface_forms

    def rounded_forms(*args, **kwargs):
        out = forms(*args, **kwargs)
        out.mean_curvature = np.round(out.mean_curvature - shift, 1)
        return out

    monkeypatch.setattr(geo, "surface_forms", rounded_forms)
    node = f"node {i * 32 + j} (theta="
    code, _, err, _ = outputs_by_block_size(tmp_path, monkeypatch,
                                            ["mass", cfg])
    assert code == 3 and f"min_mean_curvature = -0.3 at {node}" in err
    code, _, err, _ = outputs_by_block_size(tmp_path, monkeypatch,
                                            ["mass", cfg, "--force"])
    assert code == 1 and err.startswith(f"error: H = -0.3 <= 0 at {node}")


class TestNodePass:
    # a CLI surface is its own H^3 image, F0 is F: the forms pass runs in
    # the ambient alone, and the H^3 side is built from delta V
    def test_mass_is_one_pass_per_surface(self, tmp_path, node_pass_calls):
        cfg = write(tmp_path, "ads.yaml", ADS_CONFIG)
        assert run(["mass", cfg, "--output", str(tmp_path / "o")])[0] == 0
        assert node_pass_calls["surface_forms"] == ["AdSSchwarzschild"]

    def test_convergence_is_one_pass_per_resolution(self, tmp_path,
                                                    node_pass_calls):
        cfg = write(tmp_path, "ads.yaml", ADS_CONFIG)
        assert run(["convergence", cfg, "--resolutions", "8,16,32",
                    "--output", str(tmp_path / "o")])[0] == 0
        assert node_pass_calls["surface_forms"] == ["AdSSchwarzschild"] * 3

    def test_min_mean_curvature_is_the_integrated_h(self, tmp_path):
        cfg = write(tmp_path, "ads.yaml", ADS_CONFIG)
        assert run(["mass", cfg, "--output", str(tmp_path / "o")])[0] == 0
        doc = json.loads((tmp_path / "o" / "mass_report.json").read_text())
        config = load_config(cfg)
        grid = geo.QuadratureGrid.build(**config["resolution"])
        data = massmod.surface_mass_data(build_surface(config, grid),
                                         build_metric(config))
        assert doc["hypothesis_checks"]["min_mean_curvature"] \
            == float(np.min(data.H))

    def test_min_gauss_is_read_off_the_h3_forms(self, tmp_path):
        cfg = write(tmp_path, "ads.yaml", ADS_CONFIG)
        assert run(["mass", cfg, "--output", str(tmp_path / "o")])[0] == 0
        doc = json.loads((tmp_path / "o" / "mass_report.json").read_text())
        config = load_config(cfg)
        k = config["metric"]["k"]
        grid = geo.QuadratureGrid.build(**config["resolution"])
        surface = build_surface(config, grid)
        graph = geo.graph_terms(grid.theta[:, None],
                                surface.F(*grid.node_axes()))
        forms0 = geo.paired_forms(build_metric(config), k, graph, graph)[1]
        K = geo.gauss_curvature(forms0, -k * k)
        assert doc["hypothesis_checks"]["min_gauss_plus_k2"] \
            == float(np.min(K) + k * k)
        # the H^3 forms built from delta V are those of a pass in H^3, to
        # the rounding of det II / det I = K + k^2
        K_h3 = geo.gauss_curvature(forms_of(
            surface.h3_view(), geo.hyperbolic_ball_metric(k)), -k * k)
        bound = 8 * np.finfo(float).eps * np.max(np.abs(K_h3 + k * k))
        assert np.max(np.abs(K - K_h3)) <= bound


def large_radius_report(tmp_path, r, n_theta=32):
    cfg = write(tmp_path, "ads.yaml", ADS_CONFIG.replace(
        "r: 2.0", f"r: {r}").replace(
        "n_theta: 32, n_phi: 64", f"n_theta: {n_theta}, n_phi: {2 * n_theta}"))
    code, _, err = run(["mass", cfg, "--output", str(tmp_path / "o")])
    assert code == 0, err
    return json.loads((tmp_path / "o" / "mass_report.json").read_text())


class TestLargeRadius:
    # the polar chart holds no 1/V - 1 conditioning, so large coordinate
    # spheres keep their digits and pass every check
    def test_r100_meets_the_oracle(self, tmp_path):
        doc = large_radius_report(tmp_path, 100.0)
        E = doc["E"]
        assert abs(E[3] - exact_ads_energy(100.0)) \
            <= 1e-6 * exact_ads_energy(100.0)
        assert max(abs(c) for c in E[:3]) <= 1e-9
        assert doc["hypothesis_checks"]["passed"] is True
        assert doc["causal_class"] == "TimelikeFuture"

    def test_r300_returns_e_with_every_check_passed(self, tmp_path):
        doc = large_radius_report(tmp_path, 300.0)
        assert doc["hypothesis_checks"]["passed"] is True
        assert doc["hypothesis_checks"]["isometry_mismatch"] == 0.0
        assert abs(doc["E"][3] - exact_ads_energy(300.0)) \
            <= 1e-6 * exact_ads_energy(300.0)

    @pytest.mark.parametrize("r", [1e3, 1e4, 1e5, 1e6])
    def test_energy_keeps_its_digits(self, tmp_path, r):
        # dH = H0 - H from delta V = -2m/r: the difference H0^2 - H^2 of
        # two curvatures of order 1 printed E = (0, 0, 0.40285, 5.49842)
        # at r = 1e5 and ZeroVector at r = 1e6, both with every check passed
        doc = large_radius_report(tmp_path, r)
        E, exact = doc["E"], exact_ads_energy(r)
        assert doc["hypothesis_checks"]["passed"] is True
        assert doc["causal_class"] == "TimelikeFuture"
        assert abs(E[3] - exact) <= 1e-13 * exact
        assert math.hypot(*E[:3]) <= 1e-15 * E[3]

    @pytest.mark.parametrize("n_theta", [32, 128])
    def test_r1000_scalar_curvature_check(self, tmp_path, n_theta):
        doc = large_radius_report(tmp_path, 1000.0, n_theta)
        assert doc["hypothesis_checks"]["min_scalar_plus_6k2"] == 0.0
        assert doc["hypothesis_checks"]["passed"] is True


@pytest.mark.parametrize("k", [0.1, 1 / 3, 1.0, 2.0, 7.5])
@pytest.mark.parametrize("metric", [
    "{type: hyperbolic_ball, k: %r}", "{type: ads_schwarzschild, k: %r}",
    "{type: ads_schwarzschild, k: %r, m: 0.1}", "{type: euclidean, k: %r}"],
    ids=["hyperbolic_ball", "ads_m0", "ads_m0.1", "euclidean"])
def test_scalar_curvature_check_is_exact(tmp_path, metric, k):
    # R = -6a on the whole chart and a = k * k, so R + 6k^2 has no
    # rounding: 0.0, or 6k^2 in Euclidean space
    cfg = write(tmp_path, "c.yaml", f"metric: {metric % k}\n"
                "surface: {type: coordinate_sphere, r: 2.0}\n"
                "resolution: {n_theta: 8, n_phi: 16}\n")
    code, _, err = run(["mass", cfg, "--output", str(tmp_path / "o")])
    assert code == 0, err
    doc = json.loads((tmp_path / "o" / "mass_report.json").read_text())
    value = doc["hypothesis_checks"]["min_scalar_plus_6k2"]
    assert value == (6.0 * (k * k) if "euclidean" in metric else 0.0)


class TestAsymptoticCommand:
    def test_half_g0(self, tmp_path):
        cfg = write(tmp_path, "geo.yaml", GEO_CONFIG)
        code, out, _ = run(["asymptotic", cfg,
                            "--output", str(tmp_path / "o")])
        assert code == 0
        rows = (tmp_path / "o" / "asymptotic.csv").read_text().splitlines()
        table = {r.split(",")[0]: r.split(",")[1:] for r in rows[1:]}
        deviation = [abs(float(c)) for c in table["deviation"][1:]]
        assert max(deviation) < 0.01 * 2 * math.pi

    def test_zero_field(self, tmp_path):
        cfg = write(tmp_path, "z.yaml", GEO_CONFIG.replace(
            "g0_coeff: 0.5", "g0_coeff: 0.0"))
        code, out, _ = run(["asymptotic", cfg,
                            "--output", str(tmp_path / "o")])
        assert code == 0
        rows = (tmp_path / "o" / "asymptotic.csv").read_text().splitlines()
        for row in rows[1:]:
            label, cells = row.split(",")[0], row.split(",")[2:]
            if label in ("E", "extrapolated", "upsilon_half", "deviation"):
                assert all(float(c) == 0.0 for c in cells)
        # every difference of an exact-zero series is roundoff-sized, so no
        # order is printed for it
        assert rows[-1] == "observed_order,,floor,,,"
        assert out.splitlines()[-1] == "observed order: floor"

    def test_builds_one_round_sphere(self, tmp_path, monkeypatch):
        # every radius and Upsilon/2 read one round-sphere quadrature: tr h
        # is built once per op, not once per radius
        calls = []

        def mass_aspect_trace(*args):
            calls.append(args)
            return geo.mass_aspect_trace(*args)

        monkeypatch.setattr(massmod, "mass_aspect_trace", mass_aspect_trace)
        cfg = write(tmp_path, "geo.yaml", GEO_CONFIG.replace(
            "[0.2, 0.1, 0.05]", "[0.4, 0.2, 0.1, 0.05]"))
        code, _, _ = run(["asymptotic", cfg, "--output", str(tmp_path / "o")])
        assert code == 0
        assert len(calls) == 1

    def test_builds_no_metric_or_surface(self, tmp_path):
        # the series integrates the collar expansion alone: the ranges of
        # the metric and the surface, which their factories check, are not
        # asymptotic's to refuse, while mass refuses them
        cfg = write(tmp_path, "geo.yaml", GEO_CONFIG.replace(
            "k: 1.0", "k: -1.0").replace("rho: 1.0", "rho: -1.0"))
        code, _, err = run(["asymptotic", cfg,
                            "--output", str(tmp_path / "o")])
        assert (code, err) == (0, "")
        code, _, err = run(["mass", cfg, "--output", str(tmp_path / "m")])
        assert code == 2 and err.startswith("config error: curvature scale")

    def test_short_radii_list_rejected(self, tmp_path):
        cfg = write(tmp_path, "short.yaml", GEO_CONFIG.replace(
            "[0.2, 0.1, 0.05]", "[0.2, 0.1]"))
        code, _, err = run(["asymptotic", cfg,
                            "--output", str(tmp_path / "o")])
        assert (code, err) == (2, "config error: need at least 3 radii, "
                                  "got 2\n")
        assert not (tmp_path / "o").exists()

    def test_missing_section_rejected(self, tmp_path):
        cfg = write(tmp_path, "ads.yaml", ADS_CONFIG)
        assert run(["asymptotic", cfg, "--output", str(tmp_path)])[0] == 2

    # asymptotic_limit checks the count and the order of the radii, and
    # ah_sphere_data the range of each
    @pytest.mark.parametrize("radii, message", [
        ("[0.2, 0.3, 0.1]",
         "radii must be strictly decreasing, got [0.2, 0.3, 0.1]"),
        ("[0.2, 0.1, 0.1]",
         "radii must be strictly decreasing, got [0.2, 0.1, 0.1]"),
        ("[0.6, 0.2, 0.1]", "radius r = 0.6 must lie in (0, 0.5]"),
        ("[0.2, 0.1, 0.0]", "radius r = 0.0 must lie in (0, 0.5]"),
        ("[0.2, 0.1, -0.05]", "radius r = -0.05 must lie in (0, 0.5]")],
        ids=["increasing", "repeated", "above_half", "zero", "negative"])
    def test_bad_radii_are_config_errors(self, tmp_path, radii, message):
        cfg = write(tmp_path, "r.yaml", GEO_CONFIG.replace(
            "[0.2, 0.1, 0.05]", radii))
        code, _, err = run(["asymptotic", cfg,
                            "--output", str(tmp_path / "o")])
        assert code == 2
        assert err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    @staticmethod
    def _series(tmp_path, radii):
        """``hypermass asymptotic`` at 16x32 with a tilted h over
        ``radii``, as (code, out, err, csv or None)."""
        cfg = write(tmp_path, "series.yaml", TILTED_SERIES_CONFIG.format(
            ", ".join(map(repr, radii))))
        code, out, err = run(["asymptotic", cfg,
                              "--output", str(tmp_path / "o")])
        csv = tmp_path / "o" / "asymptotic.csv"
        return code, out, err, csv.read_text() if csv.exists() else None

    # radii so close that an error of one ulp in E(S_r) can move the limit
    # by as much as its own size: sum |a_i| >= |sum a_i| / eps; left to
    # run, the first lands 9.7 off Upsilon/2 and the second 4.3 off
    @pytest.mark.parametrize("radii, amplification", [
        ([0.3 - i * 1e-14 for i in range(5)], "1.24e+16"),
        (list(itertools.accumulate([0.3] + [2e-16] * 5, operator.sub)),
         "5.34e+16")], ids=["1e-14_apart", "2e-16_apart"])
    def test_digitless_extrapolation_refused(self, tmp_path, radii,
                                             amplification):
        code, out, err, csv = self._series(tmp_path, radii)
        assert (code, out, csv) == (1, "", None)
        assert err == (f"error: the extrapolation over radii {radii} "
                       f"amplifies an error in E(S_r) {amplification} "
                       f"times, at least 1/eps: no digit of its limit is "
                       f"correct\n")

    # the benchmark's radii (amplification 2.4) and 40 evenly spaced radii
    # (1.3e10) keep the limit they had before the refusal
    @pytest.mark.parametrize("radii, extrapolated", [
        ([0.2, 0.1, 0.05, 0.025],
         "0.62831856594932156,-0.41887904396621456,"
         "0.20943952198310734,6.2831852777236303"),
        (np.linspace(0.4, 0.01, 40).tolist(),
         "0.62831851539823269,-0.41887892798313997,"
         "0.20943863641118421,6.2831853189507427")], ids=["bench", "forty"])
    def test_conditioned_extrapolation_kept(self, tmp_path, radii,
                                            extrapolated):
        code, _, err, csv = self._series(tmp_path, radii)
        assert (code, err) == (0, "")
        assert f"\nextrapolated,,{extrapolated}\n" in csv


# spinor-check --count 2000 stdout by seed
SPINOR_CHECK_STDOUT = {
    seed: f"max identity residual: {zet}\n"
          "max null round-trip residual: 4.4408920985006262e-16\nPASS\n"
    for seed, zet in ((1, "8.5265128291212022e-14"),
                      (5, "1.1368683772161603e-13"),
                      (9, "1.7053025658242404e-13"),
                      (42, "8.5265128291212022e-14"))}


def _checked_samples(monkeypatch, seed, count):
    """The spinors a and ball points x that ``spinor-check --seed seed
    --count count`` checks, stacked, and the rows of each verify_zet call,
    recorded through a hook."""
    seen = []

    def record(a, x):
        # one call per block checks both branches
        seen.append((a.copy(), x.copy()))
        residuals = spinor.verify_zet(a, x)
        assert residuals.shape == (2, len(a))
        return residuals

    monkeypatch.setattr(cli, "verify_zet", record)
    with redirect_stdout(io.StringIO()):
        assert cli.run_spinor_check(seed, count) == 0
    return (np.concatenate([a for a, _ in seen]),
            np.concatenate([x for _, x in seen]), [len(a) for a, _ in seen])


class TestSpinorCheckCommand:
    def test_default_pass(self):
        code, out, _ = run(["spinor-check", "--seed", "42",
                            "--count", "300"])
        assert code == 0
        assert "PASS" in out

    def test_single_sample(self):
        assert run(["spinor-check", "--seed", "1", "--count", "1"])[0] == 0

    def test_negative_seed_rejected(self):
        code, _, err = run(["spinor-check", "--seed", "-1", "--count", "1"])
        assert code == 2
        assert "seed" in err

    def test_corrupted_sign_fails(self, monkeypatch):
        # the null vector with the wrong global sign breaks the identity
        monkeypatch.setattr(spinor, "S_ZETA", -spinor.S_ZETA)
        code, out, _ = run(["spinor-check", "--seed", "42", "--count", "10"])
        assert code == 1
        assert "FAIL" in out
        residual = float(out.splitlines()[0].split(":")[1])
        assert residual > 0.1

    @pytest.mark.parametrize("block", [cli.SPINOR_BLOCK, 7])
    def test_draws_are_one_per_sample(self, monkeypatch, block):
        # the (a, x) that verify_zet checks are, bit for bit, those written
        # out here from random.Random(seed)'s bytes, whatever the block
        # size: sample i reads the 7 little-endian 64-bit words 7i..7i+6, whose top 53
        # bits k_j give the uniforms u_j = k_j 2^-53 in [0, 1); by
        # Box-Muller a_l = sqrt(-2 log(1 - u_l)) (cos + i sin)(2 pi
        # u_{l+2}) for l = 0, 1, and x = -0.57 + 1.14 u_4..6; a shorter
        # count checks a prefix of a longer one's sequence
        monkeypatch.setattr(cli, "SPINOR_BLOCK", block)
        data = random.Random(5).randbytes(56 * 50)
        u = np.array([int.from_bytes(data[i:i + 8], "little") >> 11
                      for i in range(0, len(data), 8)], float)
        u = u.reshape(50, 7) * 2.0 ** -53
        radius = np.sqrt(-2.0 * np.log1p(-u[:, :2]))
        angle = 2.0 * np.pi * u[:, 2:4]
        want_A = radius * (np.cos(angle) + 1j * np.sin(angle))
        want_X = -0.57 + 1.14 * u[:, 4:]
        for count in (30, 50):
            A, X, rows = _checked_samples(monkeypatch, 5, count)
            assert rows == [min(block, count - i)
                            for i in range(0, count, block)]
            assert A.tobytes() == want_A[:count].tobytes()
            assert X.tobytes() == want_X[:count].tobytes()

    def test_sample_law(self, monkeypatch):
        # over 20 000 samples the four real components of a have the mean
        # and variance of standard normals to within 5 sigma, every a is
        # finite and every x lies in the cube |x_i| <= 0.57, inside the
        # unit ball; counts about the block size check prefixes of them
        A, X, _ = _checked_samples(monkeypatch, 42, 20000)
        Z = np.column_stack([A.real, A.imag])
        n = len(Z)
        assert np.all(np.abs(Z.mean(axis=0)) < 5.0 / math.sqrt(n))
        assert np.all(np.abs(Z.var(axis=0) - 1.0) < 5.0 * math.sqrt(2.0 / n))
        assert np.all(np.isfinite(A))
        assert np.all(np.abs(X) <= 0.57)
        assert np.all(np.linalg.norm(X, axis=1) < 1.0)
        block = cli.SPINOR_BLOCK
        for count in (1, block - 1, block, block + 1):
            a, x, _ = _checked_samples(monkeypatch, 42, count)
            assert a.tobytes() == A[:count].tobytes()
            assert x.tobytes() == X[:count].tobytes()

    @pytest.mark.parametrize("seed", sorted(SPINOR_CHECK_STDOUT))
    def test_stdout_is_pinned(self, seed):
        # --count 2000: sharing the sign-free work of the two signs of psi
        # moves no printed digit
        argv = ["spinor-check", "--seed", str(seed), "--count", "2000"]
        assert run(argv) == (0, SPINOR_CHECK_STDOUT[seed], "")

    def test_sign_free_work_once_per_block(self, monkeypatch):
        # both branches are checked in one verify_zet call per block, which
        # maps the block's ball points to the hyperboloid once
        seen = []
        to_hyperboloid = spinor.ball_to_minkowski

        def counted(x):
            seen.append(len(x))
            return to_hyperboloid(x)

        monkeypatch.setattr(spinor, "ball_to_minkowski", counted)
        monkeypatch.setattr(cli, "SPINOR_BLOCK", 7)
        with redirect_stdout(io.StringIO()):
            assert cli.run_spinor_check(5, 30) == 0
        assert seen == [7, 7, 7, 7, 2]

    def test_blocks_match_one_block(self, monkeypatch):
        # the draws are evaluated in blocks of SPINOR_BLOCK rows; a count
        # above the block size prints what one block of all rows prints
        argv = ["spinor-check", "--seed", "5", "--count", "50"]
        one_block = run(argv)
        monkeypatch.setattr(cli, "SPINOR_BLOCK", 7)
        assert run(argv) == one_block
        assert one_block[0] == 0


class TestConvergenceCommand:
    def test_geodesic_area_spectral(self, tmp_path):
        cfg = write(tmp_path, "geo.yaml", GEO_CONFIG)
        code, _, _ = run(["convergence", cfg, "--resolutions", "8,16,32",
                          "--output", str(tmp_path / "o")])
        assert code == 0
        rows = (tmp_path / "o" / "convergence.csv").read_text().splitlines()
        target = 4 * math.pi * math.sinh(1.0) ** 2
        errs = [abs(float(r.split(",")[2]) - target) for r in rows[1:]]
        # cos(theta)-Gauss-Legendre integrates this area exactly at every
        # resolution, so both errors sit at the roundoff of the area
        # elements and the ratio check needs that floor
        assert errs[-1] < max(1e-3 * errs[0], 1e-11 * target)

    def test_ads_energy_stabilizes(self, tmp_path):
        cfg = write(tmp_path, "ads.yaml", ADS_CONFIG)
        code, _, _ = run(["convergence", cfg, "--resolutions", "8,16,32",
                          "--output", str(tmp_path / "o")])
        assert code == 0
        rows = (tmp_path / "o" / "convergence.csv").read_text().splitlines()
        # the quadrature is already converged at n_theta = 8 for this
        # integrand, so stabilization shows as a sub-1e-8 plateau
        i_t = rows[0].split(",").index("E_t")
        et = [float(r.split(",")[i_t]) for r in rows[1:]]
        deltas = [abs(b - a) for a, b in zip(et, et[1:])]
        assert max(deltas) < 1e-8
        assert abs(et[-1] - exact_ads_energy(2.0)) < 1e-6

    def test_ads_energy_orders_are_roundoff(self, tmp_path):
        # E_t and the area are exact to roundoff at every resolution, so no
        # order is printed for them
        cfg = write(tmp_path, "ads.yaml", ADS_CONFIG)
        code, _, _ = run(["convergence", cfg, "--resolutions", "8,16,32,64",
                          "--output", str(tmp_path / "o")])
        assert code == 0
        rows = (tmp_path / "o" / "convergence.csv").read_text().splitlines()
        assert [r.split(",")[-2:] for r in rows[1:]] == [
            ["", ""], ["", ""], ["floor", "floor"], ["floor", "floor"]]

    def test_observed_order_of_second_order_sequence(self):
        sizes = [8, 16, 32, 64]
        orders = cli.observed_orders([1.0 + 1.0 / n ** 2 for n in sizes],
                                     sizes)
        assert orders[:2] == ["", ""]
        assert all(abs(float(p) - 2.0) < 1e-9 for p in orders[2:])
        # vector values: the max-norms of the successive differences, here
        # those of the second component
        vectors = [[1.0 + 0.5 / n ** 2, -2.0 + 3.0 / n ** 2, 5.0]
                   for n in sizes]
        orders = cli.observed_orders(vectors, sizes)
        assert orders[:2] == ["", ""]
        assert all(abs(float(p) - 2.0) < 1e-9 for p in orders[2:])

    def test_observed_order_uses_the_earlier_size_ratio(self):
        # on non-geometric sizes the order is log(d1/d2) over the log of
        # the ratio of the first two sizes, the leading-order estimate
        sizes = [8, 16, 64]
        d1, d2 = 1 / 8 ** 2 - 1 / 16 ** 2, 1 / 16 ** 2 - 1 / 64 ** 2
        order = cli.observed_orders([1.0 + 1.0 / n ** 2 for n in sizes],
                                    sizes)[2]
        assert float(order) == pytest.approx(math.log(d1 / d2) / math.log(2),
                                             rel=1e-12)
        assert abs(float(order) - 1.68) < 0.01

    def test_observed_order_of_plateau_is_floor(self):
        eps = sys.float_info.epsilon
        values = [3.0, 3.0 + 4 * eps, 3.0 + 4 * eps, 3.0 - 8 * eps]
        assert cli.observed_orders(values, [8, 16, 32, 64]) == [
            "", "", "floor", "floor"]
        # differences above 64 eps |value| give an order again
        order = cli.observed_orders([3.0, 3.0 + 1e-6, 3.0 + 1.25e-7],
                                    [8, 16, 32])[2]
        assert abs(float(order) - math.log2(1e-6 / 8.75e-7)) < 1e-6

    def test_single_resolution_rejected(self, tmp_path):
        cfg = write(tmp_path, "geo.yaml", GEO_CONFIG)
        assert run(["convergence", cfg, "--resolutions", "16",
                    "--output", str(tmp_path)])[0] == 2

    @pytest.mark.parametrize("resolutions", [
        "8,16,x", "8.5,16,32", "0,16,32", "4,8,16"])
    def test_bad_resolution_rejected(self, tmp_path, resolutions):
        # each entry is held to the rule of resolution.n_theta
        cfg = write(tmp_path, "geo.yaml", GEO_CONFIG)
        code, _, err = run(["convergence", cfg, "--resolutions", resolutions,
                            "--output", str(tmp_path / "o")])
        assert code == 2
        assert "--resolutions" in err
        assert not (tmp_path / "o").exists()


class TestDeterminism:
    def test_mass_reports_identical(self, tmp_path):
        cfg = write(tmp_path, "ads.yaml", ADS_CONFIG)
        for d in ("a", "b"):
            assert run(["mass", cfg, "--output", str(tmp_path / d)])[0] == 0
        assert (tmp_path / "a" / "mass_report.json").read_bytes() \
            == (tmp_path / "b" / "mass_report.json").read_bytes()

    def test_asymptotic_tables_identical(self, tmp_path):
        cfg = write(tmp_path, "geo.yaml", GEO_CONFIG)
        for d in ("a", "b"):
            assert run(["asymptotic", cfg,
                        "--output", str(tmp_path / d)])[0] == 0
        assert (tmp_path / "a" / "asymptotic.csv").read_bytes() \
            == (tmp_path / "b" / "asymptotic.csv").read_bytes()

    def test_spinor_check_output_identical(self):
        runs = [run(["spinor-check", "--seed", "7", "--count", "100"])
                for _ in range(2)]
        assert runs[0] == runs[1]


ROOT = Path(__file__).resolve().parents[1]

# a mass-sweep scenario as the benchmark writes it: JSON, which is YAML
SWEEP_CONFIG = json.dumps({
    "metric": {"type": "hyperbolic_ball", "k": 1.0},
    "surface": {"type": "radial_profile", "base": 1.0,
                "linear": [0.123456789012345, -0.0987654321, 1e-17]},
    "resolution": {"n_theta": 128, "n_phi": 256},
    "outputs": {"shi_tam": True}})


def readme_configs():
    text = (ROOT / "README.md").read_text()
    return re.findall(r"```yaml\n(.*?)```", text, re.S)


def _key_paths(tree, prefix=()):
    """The path of every key of the nested mappings ``tree``."""
    for key, value in tree.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def test_readme_examples_set_no_dead_key():
    # every key a README example sets is read: the resolved config has it
    texts = readme_configs()
    assert texts
    for text in texts:
        tree = yaml.safe_load(text)
        resolved = cli.resolve_config(tree)
        for path in _key_paths(tree):
            node = resolved
            for key in path:
                assert key in node, ".".join(path)
                node = node[key]


def test_readme_library_example_runs():
    # the python block of the README prints E and its causal class, timelike
    # future directed with E_t ~ 2.5388
    [code] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md")
                        .read_text(), re.S)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(code, {})
    printed = out.getvalue()
    assert printed.endswith(" CausalClass.TIMELIKE_FUTURE\n")
    assert abs(float(re.search(r"\bt=([^)]+)\)", printed)[1]) - 2.5388) < 5e-5


class TestYamlLoader:
    # load_config reads with libyaml's CSafeLoader when PyYAML has it, and
    # with the pure-Python SafeLoader when it does not: the same trees
    @pytest.mark.parametrize("text", readme_configs() + [
        ADS_CONFIG, GEO_CONFIG, SMALL_E_CONFIG, TILTED_ADS_CONFIG,
        SWEEP_CONFIG], ids=lambda t: str(len(t)))
    def test_both_loaders_resolve_alike(self, tmp_path, monkeypatch, text):
        cfg = write(tmp_path, "c.yaml", text)
        assert yaml.load(text, Loader=yaml.SafeLoader) \
            == yaml.load(text, Loader=getattr(yaml, "CSafeLoader",
                                              yaml.SafeLoader))
        fast = load_config(cfg)
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert load_config(cfg) == fast

    @pytest.mark.parametrize("libyaml", [True, False])
    def test_undecodable_bytes_exit_2(self, tmp_path, libyaml):
        # a config is read as bytes, so a byte that is no UTF-8 is malformed
        # YAML to the parser, not a UnicodeDecodeError; PyYAML words it on
        # two lines, the problem and its position, and the CLI on one
        err = assert_one_error_line(
            tmp_path, ["mass"], ADS_CONFIG.encode() + b"# \xff\n", code=2,
            libyaml=libyaml)
        assert err.startswith(
            "config error: malformed YAML: unacceptable character #x00ff: ")
        assert err.endswith(f'in "{tmp_path / "scenario.yaml"}", '
                            f"position {len(ADS_CONFIG) + 2}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("libyaml", [True, False])
    def test_utf16_config_loads(self, tmp_path, monkeypatch, libyaml):
        # the parser reads UTF-16 by its byte-order mark
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = tmp_path / "u16.yaml"
        path.write_bytes(ADS_CONFIG.encode("utf-16"))
        assert load_config(path) == load_config(write(tmp_path, "u8.yaml",
                                                      ADS_CONFIG))

    @pytest.mark.parametrize("libyaml", [True, False])
    def test_malformed_yaml_exits_2(self, tmp_path, monkeypatch, libyaml):
        # PyYAML words a parse error on four lines, a context and the
        # problem each with its mark: the CLI prints the problem and its
        # mark on one
        err = assert_one_error_line(tmp_path, ["mass"], "metric: [1, 2\n",
                                    code=2, libyaml=libyaml)
        assert err.startswith("config error: malformed YAML: ")
        assert err.endswith(
            f'in "{tmp_path / "scenario.yaml"}", line 2, column 1\n')
        if not libyaml:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        with pytest.raises(ConfigError):
            load_config(tmp_path / "scenario.yaml")


NO_POLYNOMIAL_SCRIPT = """
import contextlib, io, sys
from hypermass import cli
cfg, out = sys.argv[1], sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["mass", cfg, "--output", out]) == 0
    assert cli.main(["convergence", cfg, "--resolutions", "8,16,32",
                     "--output", out]) == 0
assert "numpy.polynomial" not in sys.modules
"""


def test_ops_import_no_numpy_polynomial(tmp_path):
    # the Gauss-Legendre rule is built in geometry: an op never pays for
    # importing numpy.polynomial
    cfg = write(tmp_path, "ads.yaml", ADS_CONFIG)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", NO_POLYNOMIAL_SCRIPT, cfg,
                           str(tmp_path / "o")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


FREEZE_SCRIPT = """
import contextlib, gc, io, sys
from hypermass import cli
before = gc.get_freeze_count()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["mass", sys.argv[1], "--output", sys.argv[2]]) == 0
print(before, gc.get_freeze_count())
"""


def test_main_freezes_start_up_objects(tmp_path):
    # start-up's objects are frozen before the op, so no collection that
    # the op sets off walks them, however many the imports left pending
    cfg = write(tmp_path, "ads.yaml", ADS_CONFIG.replace(
        "n_theta: 32, n_phi: 64", "n_theta: 16, n_phi: 32"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", FREEZE_SCRIPT, cfg,
                           str(tmp_path / "o")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stdout.split())
    assert before == 0 and after > 0


FREEZE_ONCE_SCRIPT = """
import contextlib, gc, io, sys
from hypermass import cli
counts = []
for _ in range(3):
    # cycles that the caller drops before each call
    for _ in range(1000):
        cycle = []
        cycle.append(cycle)
    del cycle
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["mass", sys.argv[1], "--output", sys.argv[2]]) == 0
    counts.append(gc.get_freeze_count())
print(*counts)
"""


def test_main_freezes_once_per_process(tmp_path):
    # a frozen object is never collected, so only the first call of main in
    # a process freezes: later calls leave the caller's garbage, and their
    # own, collectable
    cfg = write(tmp_path, "ads.yaml", ADS_CONFIG.replace(
        "n_theta: 32, n_phi: 64", "n_theta: 16, n_phi: 32"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", FREEZE_ONCE_SCRIPT, cfg,
                           str(tmp_path / "o")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, *later = map(int, proc.stdout.split())
    assert first > 0 and later == [first, first]
