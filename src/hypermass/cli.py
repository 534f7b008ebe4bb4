"""Batch front-end: scenario ingestion, hypothesis checks, reports.

Subcommands
-----------
mass <config>                 compute E (and M_alpha at k = 1)
asymptotic <config>           small-radius series E(S_r) -> Upsilon/2
spinor-check --seed S --count N   identity / round-trip residual sweep
convergence <config> --resolutions a,b,c   quantities vs grid resolution

Configs are YAML key trees (see README for the schema).  Identical config
and seed produce byte-identical JSON/CSV output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import geometry as geo
from . import mass as massmod
from .errors import ConfigError, HypermassError, HypothesisFailure
from .hypgeom import radial_bounds
from .lorentz import CAUSAL_TOL, classify, sample_null_cone
from .spinor import null_to_spinor, verify_zet, zeta_of


# ---------------------------------------------------------------------------
# config handling


def load_config(path) -> dict:
    try:
        # as bytes: the parser detects the encoding and refuses bad bytes
        with open(path, "rb") as fh:
            # libyaml's parser when PyYAML has it: the same safe schema
            cfg = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader",
                                               yaml.SafeLoader))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML: {_yaml_problem(exc)}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return resolve_config(cfg)


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """PyYAML's error on one line: the problem and where it is, without the
    context (``while parsing ...``) and source lines it prints under it."""
    mark = getattr(exc, "problem_mark", None)
    if mark is None or not exc.problem:
        # a reader error: the problem, then its position on a line of its own
        return " ".join(line.strip() for line in str(exc).splitlines())
    return (f'{exc.problem} in "{mark.name}", line {mark.line + 1}, '
            f"column {mark.column + 1}")


# the least n_theta, of a config or of a --resolutions entry
MIN_N_THETA = 8


def _number(value, name: str, kind=float, least=-math.inf):
    """``value`` as a finite ``kind`` of at least ``least``, or a
    ConfigError naming the key; a float that ``kind`` would change (8.5 as
    an int) is an error too, and so is a bool (YAML's true, yes, on)."""
    try:
        x = math.nan if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if isinstance(value, float) and x != value:
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    if x < least:
        raise ConfigError(f"{name} must be at least {least}, got {value!r}")
    return x


def _numbers(value, name: str, count=None) -> list:
    """``value`` as a list of finite floats (``count`` of them if given)."""
    if not isinstance(value, list) or count not in (None, len(value)):
        size = "" if count is None else f"{count} "
        raise ConfigError(f"{name} must be a list of {size}numbers")
    return [_number(c, name) for c in value]


def _section(node: dict, key: str) -> dict:
    """The mapping under ``key`` ({} when absent), or a ConfigError."""
    value = node.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping")
    return value


def resolve_config(cfg: dict) -> dict:
    """Fill defaults and check types; returns the fully resolved tree.  The
    metric and surface factories check the ranges of k, m and the radii."""
    out = {}
    res = _section(cfg, "resolution")
    out["resolution"] = {
        "n_theta": _number(res.get("n_theta", 64), "resolution.n_theta", int,
                           MIN_N_THETA),
        "n_phi": _number(res.get("n_phi", 128), "resolution.n_phi", int, 16)}

    tols = _section(cfg, "tolerances")
    out["tolerances"] = {
        key: _number(tols.get(key, default), f"tolerances.{key}")
        for key, default in (("iso_tol", massmod.ISO_TOL),
                             ("causal_tol", CAUSAL_TOL))}
    if any(v <= 0 for v in out["tolerances"].values()):
        raise ConfigError("all tolerances must be positive")

    met = _section(cfg, "metric")
    mtype = met.get("type", "hyperbolic_ball")
    k = _number(met.get("k", 1.0), "metric.k")
    if mtype not in ("hyperbolic_ball", "ads_schwarzschild", "euclidean"):
        raise ConfigError(f"unknown metric type: {mtype}")
    out["metric"] = {"type": mtype, "k": k}
    if mtype == "ads_schwarzschild":
        out["metric"]["m"] = _number(met.get("m", 0.0), "metric.m")

    surf = _section(cfg, "surface")
    stype = surf.get("type", "geodesic_sphere")
    if stype not in ("geodesic_sphere", "coordinate_sphere", "radial_profile"):
        raise ConfigError(f"unknown surface type: {stype}")
    out["surface"] = {"type": stype}
    if stype == "geodesic_sphere":
        out["surface"]["rho"] = _number(surf.get("rho", 1.0), "surface.rho")
    elif stype == "coordinate_sphere":
        out["surface"]["r"] = _number(surf.get("r", 2.0), "surface.r")
    else:
        out["surface"].update(
            base=_number(surf.get("base", 1.0), "surface.base"),
            linear=_numbers(surf.get("linear", [0.0, 0.0, 0.0]),
                            "surface.linear", 3))

    if cfg.get("asymptotic") is not None:
        asym = _section(cfg, "asymptotic")
        h = _section(asym, "h")
        out["asymptotic"] = {
            "h": {"g0_coeff": _number(h.get("g0_coeff", 0.0), "h.g0_coeff"),
                  "linear": _numbers(h.get("linear", [0.0, 0.0, 0.0]),
                                     "h.linear", 3)},
            "radii": _numbers(asym.get("radii", []), "asymptotic.radii"),
        }
    return out


def build_metric(cfg: dict) -> geo.MetricField:
    m = cfg["metric"]
    if m["type"] == "hyperbolic_ball":
        return geo.hyperbolic_ball_metric(m["k"])
    if m["type"] == "ads_schwarzschild":
        return geo.ads_schwarzschild_metric(m["m"], m["k"])
    return geo.euclidean_metric()


def build_surface(cfg: dict, grid: geo.QuadratureGrid) -> geo.SurfaceData:
    s = cfg["surface"]
    k = cfg["metric"]["k"]
    if s["type"] == "geodesic_sphere":
        return geo.geodesic_sphere_surface(s["rho"], k, grid)
    if s["type"] == "coordinate_sphere":
        return geo.coordinate_sphere_surface(s["r"], grid, k)
    return geo.radial_profile_surface(s["base"], s["linear"], k, grid)


# ---------------------------------------------------------------------------
# subcommands


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vector(v, sep: str = ",") -> str:
    """The components of the 4-vector ``v``, x1, x2, x3, t, joined by sep."""
    return sep.join(map(_fmt, np.asarray(v)))


def _write_text(path: Path, text: str):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# layout version of mass_report.json, whose keys run_mass writes
FORMAT_VERSION = 2


def run_mass(cfg: dict, force: bool = False, outdir: Path = Path(".")) -> dict:
    metric = build_metric(cfg)
    surface = build_surface(cfg, geo.QuadratureGrid.build(**cfg["resolution"]))
    k = cfg["metric"]["k"]
    tols = cfg["tolerances"]

    # one node pass: the checks read the same forms the integrals use
    forms, forms0 = massmod.mass_forms(surface, metric)
    H = forms.mean_curvature
    min_h = float(np.min(H))
    # K of the H^3 image by the Gauss equation: Sigma's K when isometric
    min_k = float(np.min(geo.gauss_curvature(forms0, -k * k)) + k * k)
    # the closed-form R of the ambient metric at every node
    min_r = float(np.min(geo.scalar_curvature(metric, forms.radius))
                  + 6.0 * k * k)
    mismatch = massmod.isometry_mismatch(forms, forms0)
    iso_tol = tols["iso_tol"]
    at_h = " at " + surface.grid.describe_node(int(np.argmin(H)))
    table = (  # key, value, whether its bound holds, the bound, where
        ("min_mean_curvature", min_h, min_h > 0.0, "> 0", at_h),
        ("min_gauss_plus_k2", min_k, min_k > 0.0, "> 0", ""),
        ("min_scalar_plus_6k2", min_r, min_r > -1e-5, "> -1e-05", ""),
        ("isometry_mismatch", mismatch, mismatch <= iso_tol,
         f"<= iso_tol = {iso_tol:g}", ""))
    failed = [f"{key} = {value:.6g}{where}, need {bound}"
              for key, value, ok, bound, where in table if not ok]
    checks = {key: value for key, value, *_ in table}
    checks.update(iso_tol=iso_tol, passed=not failed)
    doc = {"format_version": FORMAT_VERSION, "E": None, "causal_class": None,
           "M_alpha": None, "alpha": None, "hypothesis_checks": checks,
           "resolution": [surface.grid.n_theta, surface.grid.n_phi],
           "null_pairing": {"min": None, "max": None},
           "forced": force and not checks["passed"], "config": cfg}
    if failed and not force:
        _write_text(outdir / "mass_report.json", _json_dump(doc))
        raise HypothesisFailure("hypothesis checks failed ("
                                + "; ".join(failed)
                                + "); rerun with --force to proceed")

    data = massmod.surface_mass_data(surface, metric, iso_tol=iso_tol,
                                     forms=(forms, forms0))
    E = massmod.energy_momentum(surface, metric, data=data)
    # alpha(R1, R2) is stated at k = 1 and no k != 1 form is checked
    if k == 1.0:
        alpha = massmod.shi_tam_alpha(*radial_bounds(forms0.radius, k))
        M = massmod.shi_tam_vector(data, alpha)
        doc.update(M_alpha=np.asarray(M).tolist(), alpha=alpha)

    # exact extremes of <E, (u, 1)> = -E_t - E_s.u over unit vectors u
    spatial = math.hypot(E.x1, E.x2, E.x3)
    doc.update(E=np.asarray(E).tolist(),
               causal_class=classify(E, tols["causal_tol"]).value,
               null_pairing={"min": -E.t - spatial, "max": -E.t + spatial})
    _write_text(outdir / "mass_report.json", _json_dump(doc))
    print(f"E = ({_fmt_vector(E, ', ')})")
    print(f"causal class: {doc['causal_class']}")
    print(f"hypothesis checks passed: {checks['passed']}")
    return doc


def run_asymptotic(cfg: dict, outdir: Path = Path(".")) -> str:
    if "asymptotic" not in cfg:
        raise ConfigError("config has no 'asymptotic' section")
    radii = cfg["asymptotic"]["radii"]
    h = geo.SphereTensor(**cfg["asymptotic"]["h"])
    grid = geo.QuadratureGrid.build(**cfg["resolution"])
    # one round-sphere quadrature for every radius and for Upsilon;
    # asymptotic_limit and ah_sphere_data check the radii
    sphere = massmod.round_sphere_quadrature(h, grid)
    energies, extrapolated = massmod.asymptotic_limit(sphere, radii)
    upsilon_half = 0.5 * np.asarray(massmod.wang_mass(sphere))
    deviation = extrapolated - upsilon_half
    order = observed_orders(energies, [1.0 / r for r in radii])[-1]

    lines = ["label,r,x1,x2,x3,t"]
    for r, E in zip(radii, energies):
        lines.append(f"E,{_fmt(r)},{_fmt_vector(E)}")
    for label, v in [("extrapolated", extrapolated),
                     ("upsilon_half", upsilon_half),
                     ("deviation", deviation)]:
        lines.append(f"{label},,{_fmt_vector(v)}")
    lines.append(f"observed_order,,{order},,,")
    csv = "\n".join(lines) + "\n"
    _write_text(outdir / "asymptotic.csv", csv)
    print(f"extrapolated E: ({_fmt_vector(extrapolated, ', ')})")
    print(f"max deviation from Upsilon/2: {_fmt(np.max(np.abs(deviation)))}")
    print(f"observed order: {order}")
    return csv


# rows per verify_zet call in spinor-check: bounds its memory for any count
SPINOR_BLOCK = 4096


def run_spinor_check(seed: int, count: int) -> int:
    """Seeded residual sweep; returns a process exit code."""
    count = _number(count, "--count", int, 1)
    seed = _number(seed, "--seed", int, 0)
    rng = np.random.default_rng(seed)
    lo, hi = -0.57, 0.57        # the ball points' cube
    max_zet = 0.0
    for start in range(0, count, SPINOR_BLOCK):
        n = min(SPINOR_BLOCK, count - start)
        Z, U = np.empty((n, 4)), np.empty((n, 3))
        # one draw per sample, so a seed checks the same (a, x) sequence
        # whatever the block size: a = z_0:2 + i z_2:4 and x = lo + (hi -
        # lo) u are, bit for bit, standard_normal(2) + 1j *
        # standard_normal(2) and uniform(lo, hi, 3) drawn in turn
        for z, u in zip(Z, U):
            rng.standard_normal(out=z)
            rng.random(out=u)
        A = Z[:, :2] + 1j * Z[:, 2:]
        X = lo + (hi - lo) * U
        for sign in (1, -1):
            max_zet = max(max_zet, float(np.max(verify_zet(A, X, sign))))
    cone = sample_null_cone(500)
    max_rt = float(np.max(np.abs(zeta_of(null_to_spinor(cone), 1) - cone)))
    ok = max_zet < 1e-12 and max_rt < 1e-12
    print(f"max identity residual: {_fmt(max_zet)}")
    print(f"max null round-trip residual: {_fmt(max_rt)}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def observed_orders(values, sizes) -> list:
    """Observed convergence order of each value, a number or a vector, from
    it and the two before it at grid sizes ``sizes``: with d1, d2 the
    max-norms of the two successive differences, log(d1/d2) over the log of
    the earlier pair's size ratio.  Blank for the first two, and ``floor``
    when d1 or d2 is at most 64 eps |value|, i.e. roundoff."""
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
    out = ["", ""]
    for i in range(2, len(values)):
        window = values[i - 2:i + 1]
        d1, d2 = np.max(np.abs(np.diff(window, axis=0)), axis=1)
        scale = np.max(np.abs(window))
        if min(d1, d2) <= 64.0 * sys.float_info.epsilon * scale:
            out.append("floor")
        else:
            p = math.log(d1 / d2) / math.log(sizes[i - 1] / sizes[i - 2])
            out.append(_fmt(p))
    return out


def run_convergence(cfg: dict, resolutions, outdir: Path = Path(".")) -> str:
    if len(resolutions) < 3:
        raise ConfigError("need at least 3 resolutions")
    resolutions = [_number(n, "--resolutions entry", int, MIN_N_THETA)
                   for n in resolutions]
    metric = build_metric(cfg)
    rows = []
    for n_theta in resolutions:
        grid = geo.QuadratureGrid.build(n_theta, max(16, 2 * n_theta))
        surface = build_surface(cfg, grid)
        data = massmod.surface_mass_data(surface, metric,
                                         iso_tol=cfg["tolerances"]["iso_tol"])
        area = data.area()
        i_eq = grid.node_index(n_theta // 2, 0)
        E = massmod.energy_momentum(surface, metric, data=data)
        rows.append((n_theta, grid.n_phi, area, float(data.H[i_eq]), E))

    sizes = [row[0] for row in rows]
    area_ord = observed_orders([r[2] for r in rows], sizes)
    et_ord = observed_orders([r[4].t for r in rows], sizes)
    lines = ["n_theta,n_phi,area,H_probe,E_x1,E_x2,E_x3,E_t,"
             "area_order,E_t_order"]
    for row, ao, eo in zip(rows, area_ord, et_ord):
        n_t, n_p, area, hp, E = row
        lines.append(f"{n_t},{n_p},{_fmt(area)},{_fmt(hp)},{_fmt_vector(E)},"
                     f"{ao},{eo}")
    csv = "\n".join(lines) + "\n"
    _write_text(outdir / "convergence.csv", csv)
    print(csv, end="")
    return csv


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hypermass", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("mass", help="compute the energy-momentum report")
    pm.add_argument("config")
    pm.add_argument("--force", action="store_true",
                    help="proceed despite failed hypothesis checks")
    pm.add_argument("--output", default=".", help="output directory")

    pa = sub.add_parser("asymptotic", help="small-radius asymptotic series")
    pa.add_argument("config")
    pa.add_argument("--output", default=".")

    ps = sub.add_parser("spinor-check", help="identity/round-trip residuals")
    ps.add_argument("--seed", type=int, default=42)
    ps.add_argument("--count", type=int, default=1000)

    pc = sub.add_parser("convergence", help="quantities vs grid resolution")
    pc.add_argument("config")
    pc.add_argument("--resolutions", required=True,
                    help="comma-separated n_theta values, e.g. 8,16,32")
    pc.add_argument("--output", default=".")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "mass":
            run_mass(load_config(args.config), force=args.force,
                     outdir=Path(args.output))
        elif args.command == "asymptotic":
            run_asymptotic(load_config(args.config), outdir=Path(args.output))
        elif args.command == "spinor-check":
            return run_spinor_check(args.seed, args.count)
        elif args.command == "convergence":
            resolutions = [s for s in args.resolutions.split(",") if s]
            run_convergence(load_config(args.config), resolutions,
                            outdir=Path(args.output))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HypothesisFailure as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 3
    except (HypermassError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
