"""Batch front-end: scenario ingestion, hypothesis checks, reports.

usage:
  hypermass mass scenario.yaml [--force] [--output DIR]
  hypermass asymptotic scenario.yaml [--output DIR]
  hypermass spinor-check [--seed 42] [--count 1000]
  hypermass convergence scenario.yaml --resolutions 8,16,32 [--output DIR]
  hypermass -h | --help

mass          compute E (and M_alpha at k = 1); --force gets past the K
              and R checks only (min_gauss_plus_k2, min_scalar_plus_6k2)
asymptotic    small-radius series E(S_r) -> Upsilon/2
spinor-check  seeded identity / round-trip residual sweep
convergence   quantities vs grid resolution, one per n_theta given

An option is --name value or --name=value, before or after the config;
--output (default: the current directory) is where reports are written.
Configs are YAML key trees (see README for the schema); tolerances.iso_tol
(default 1e-8) bounds the isometry mismatch relative to the induced metric
I = (E, F, G), as max |I0 - I| / max(E, G) over the nodes.  Identical config
and seed produce byte-identical JSON/CSV output.  Exit codes: 0 success,
1 numeric failure, 2 config or usage error, 3 hypothesis failure.
"""

from __future__ import annotations

import gc
import json
import math
import random
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


# the keys of each metric and surface type, with their defaults: a key of
# another type of its section is refused, the first in this order named,
# and any other key ignored
METRIC_KEYS = {"hyperbolic_ball": {"k": 1.0},
               "ads_schwarzschild": {"k": 1.0, "m": 0.0},
               "euclidean": {"k": 1.0}}
SURFACE_KEYS = {"geodesic_sphere": {"rho": 1.0},
                "coordinate_sphere": {"r": 2.0},
                "radial_profile": {"base": 1.0, "linear": [0.0, 0.0, 0.0]}}


def _typed_section(cfg: dict, key: str, default: str, types: dict) -> dict:
    """The section ``key`` resolved: its type and that type's keys, or a
    ConfigError for an unknown type or a key of another type."""
    node = _section(cfg, key)
    kind = node.get("type", default)
    if not isinstance(kind, str) or kind not in types:   # [1] is unhashable
        raise ConfigError(f"unknown {key} type: {kind}")
    for other in (name for names in types.values() for name in names):
        if other in node and other not in types[kind]:
            raise ConfigError(f"{key}.{other} is not a key of {kind}")
    out = {"type": kind}
    for name, value in types[kind].items():
        value, where = node.get(name, value), f"{key}.{name}"
        out[name] = (_numbers(value, where, 3) if name == "linear"
                     else _number(value, where))
    return out


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

    out["metric"] = _typed_section(cfg, "metric", "hyperbolic_ball",
                                   METRIC_KEYS)
    out["surface"] = _typed_section(cfg, "surface", "geodesic_sphere",
                                    SURFACE_KEYS)

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

    # one node pass: the checks read the pass whose fields the integrals use
    forms = massmod.mass_forms(surface, metric)
    data, values = forms
    min_h, node = surface.grid.least_node(data.H)
    min_k, min_r, mismatch = (values[key] for key in (
        "min_gauss_plus_k2", "min_scalar_plus_6k2", "isometry_mismatch"))
    iso_tol = tols["iso_tol"]
    at_h = " at " + surface.grid.describe_node(node)
    # key, value, whether its bound holds, the bound, where, and whether
    # --force gets past it: the integrals refuse H <= 0 and the mismatch
    table = (
        ("min_mean_curvature", min_h, min_h > 0.0, "> 0", at_h, False),
        ("min_gauss_plus_k2", min_k, min_k > 0.0, "> 0", "", True),
        ("min_scalar_plus_6k2", min_r, min_r >= 0.0, ">= 0", "", True),
        ("isometry_mismatch", mismatch, mismatch <= iso_tol,
         f"<= iso_tol = {iso_tol:g}", "", False))
    failed = [f"{key} = {value:.6g}{where}, need {bound}"
              for key, value, ok, bound, where, _ in table if not ok]
    checks = {key: value for key, value, *_ in table}
    checks.update(iso_tol=iso_tol, passed=not failed)
    doc = {"format_version": FORMAT_VERSION, "E": None, "causal_class": None,
           "M_alpha": None, "alpha": None, "hypothesis_checks": checks,
           "resolution": [surface.grid.n_theta, surface.grid.n_phi],
           "null_pairing": {"min": None, "max": None},
           "forced": force and not checks["passed"], "config": cfg}
    if failed and not force:
        _write_text(outdir / "mass_report.json", _json_dump(doc))
        hard = [key for key, _, ok, *_, soft in table if not (ok or soft)]
        hint = ("--force does not get past " + " or ".join(hard) if hard
                else "rerun with --force to proceed")
        raise HypothesisFailure(f"hypothesis checks failed "
                                f"({'; '.join(failed)}); {hint}")

    data = massmod.surface_mass_data(surface, metric, iso_tol=iso_tol,
                                     forms=forms)
    E = data.energy()
    # alpha(R1, R2) is stated at k = 1 and no k != 1 form is checked
    if k == 1.0:
        alpha = massmod.shi_tam_alpha(*radial_bounds(data.R0))
        M = massmod.shi_tam_vector(data, alpha)
        doc.update(M_alpha=np.asarray(M).tolist(), alpha=alpha)

    # exact extremes of <E, (u, 1)> = -E_t - E_s.u over unit vectors u;
    # + 0.0 writes a zero E's -0.0 as 0.0
    spatial = math.hypot(E.x1, E.x2, E.x3)
    doc.update(E=np.asarray(E).tolist(),
               causal_class=classify(E, tols["causal_tol"]).value,
               null_pairing={"min": -E.t - spatial + 0.0,
                             "max": -E.t + spatial + 0.0})
    _write_text(outdir / "mass_report.json", _json_dump(doc))
    print(f"E = ({_fmt_vector(E, ', ')})")
    print(f"causal class: {doc['causal_class']}")
    print(f"hypothesis checks passed: {checks['passed']}")
    return doc


def run_asymptotic(cfg: dict, outdir: Path = Path(".")) -> str:
    if "asymptotic" not in cfg:
        raise ConfigError("config has no 'asymptotic' section")
    radii, h = cfg["asymptotic"]["radii"], cfg["asymptotic"]["h"]
    grid = geo.QuadratureGrid.build(**cfg["resolution"])
    # one round-sphere quadrature for every radius and for Upsilon;
    # asymptotic_limit and ah_sphere_data check the radii
    sphere = massmod.round_sphere_quadrature(h["g0_coeff"], h["linear"], grid)
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


# samples per randbytes draw and per verify_zet call in spinor-check: bounds
# its memory for any count, and the samples checked do not depend on it
SPINOR_BLOCK = 4096


def run_spinor_check(seed, count) -> int:
    """Seeded residual sweep; returns a process exit code.  ``seed`` and
    ``count`` are integers or their strings from the command line."""
    count = _number(count, "--count", int, 1)
    rnd = random.Random(_number(seed, "--seed", int, 0))
    lo, hi = -0.57, 0.57        # the ball points' cube
    max_zet = 0.0
    for start in range(0, count, SPINOR_BLOCK):
        n = min(SPINOR_BLOCK, count - start)
        # 7 uniforms in [0, 1) of 53 bits per sample, in one call; since
        # randbytes(a) + randbytes(b) is randbytes(a + b), a seed checks
        # the same (a, x) sequence whatever the block size
        w = np.frombuffer(rnd.randbytes(56 * n), "<u8").reshape(n, 7)
        v = (w >> 11) * 2.0 ** -53
        # Box-Muller: a is two independent complex standard normals
        r, angle = np.sqrt(-2.0 * np.log1p(-v[:, :2])), 2.0 * np.pi * v[:, 2:4]
        A = r * (np.cos(angle) + 1j * np.sin(angle))
        X = lo + (hi - lo) * v[:, 4:]
        # both branches in one call, which does their shared work once
        max_zet = max(max_zet, float(np.max(verify_zet(A, X))))
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
        grid = geo.QuadratureGrid.build(n_theta, 2 * n_theta)
        surface = build_surface(cfg, grid)
        data = massmod.surface_mass_data(surface, metric,
                                         iso_tol=cfg["tolerances"]["iso_tol"])
        E = data.energy()
        rows.append((n_theta, grid.n_phi, data.area(), E))

    sizes = [row[0] for row in rows]
    area_ord = observed_orders([r[2] for r in rows], sizes)
    et_ord = observed_orders([r[3].t for r in rows], sizes)
    lines = ["n_theta,n_phi,area,E_x1,E_x2,E_x3,E_t,area_order,E_t_order"]
    for (n_t, n_p, area, E), ao, eo in zip(rows, area_ord, et_ord):
        lines.append(f"{n_t},{n_p},{_fmt(area)},{_fmt_vector(E)},{ao},{eo}")
    csv = "\n".join(lines) + "\n"
    _write_text(outdir / "convergence.csv", csv)
    print(csv, end="")
    return csv


# ---------------------------------------------------------------------------
# entry point


# each command's options and their defaults: False for a switch, None for a
# value the command requires; every command but spinor-check takes one
# config path
OPTIONS = {
    "mass": {"--force": False, "--output": "."},
    "asymptotic": {"--output": "."},
    "spinor-check": {"--seed": "42", "--count": "1000"},
    "convergence": {"--resolutions": None, "--output": "."},
}


def parse_argv(argv) -> tuple:
    """The command, its config path (None for spinor-check) and its options
    by name, read from ``argv``; a usage error is a ConfigError.  Values stay
    strings: the commands check them."""
    if not argv or argv[0] not in OPTIONS:
        given = f"unknown command {argv[0]!r}" if argv else "no command"
        raise ConfigError(f"{given}: choose one of {', '.join(OPTIONS)}")
    command, *rest = argv
    opts = dict(OPTIONS[command])
    paths = []
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            paths.append(token)
            continue
        name, eq, value = token.partition("=")
        if name not in opts:
            raise ConfigError(f"{command} has no option {name}")
        if OPTIONS[command][name] is False:
            if eq:
                raise ConfigError(f"{name} takes no value")
            opts[name] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ConfigError(f"{name} needs a value")
        opts[name] = value
    takes = command != "spinor-check"
    if len(paths) != takes:
        raise ConfigError(f"{command} takes {'one' if takes else 'no'} "
                          f"config path, got {len(paths)}")
    missing = [name for name, value in opts.items() if value is None]
    if missing:
        raise ConfigError(f"{command} needs {missing[0]}")
    return command, paths[0] if takes else None, opts


def main(argv=None) -> int:
    """Run the command of ``argv`` (default ``sys.argv[1:]``) and return
    its exit code.

    The first call in a process freezes start-up's objects, numpy's and
    yaml's included, so that no collection an op's allocations set off
    walks them.  Later calls freeze nothing: a frozen object is never
    collected, so a caller that calls main again keeps its own garbage
    collectable."""
    if not gc.get_freeze_count():
        gc.freeze()
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(__doc__, end="")
        return 0
    try:
        command, config, opts = parse_argv(argv)
        if command == "spinor-check":
            return run_spinor_check(opts["--seed"], opts["--count"])
        cfg, outdir = load_config(config), Path(opts["--output"])
        if command == "mass":
            run_mass(cfg, force=opts["--force"], outdir=outdir)
        elif command == "asymptotic":
            run_asymptotic(cfg, outdir=outdir)
        else:
            resolutions = [s for s in opts["--resolutions"].split(",") if s]
            run_convergence(cfg, resolutions, outdir=outdir)
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
