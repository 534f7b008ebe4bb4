"""hypermass benchmark: time-to-answer, accuracy and per-module trace.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``mass-sweep``, ``spinor-series``, ``convergence`` or ``all``.
Every op is one user-level command run in a fresh interpreter, one at a
time, and its answer is checked against a closed-form oracle
(``oracles.py``).  The report lines go to stdout; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` and the per-module metrics with
``--trace 1``.  See ``bench/README.md`` for the design.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracing  # noqa: E402

ADS_M = 0.1
_LARGE_R = "R check fails and E_t is 52% off at r=100 (ROADMAP open item 2)"
# mass-sweep ops that miss their oracle at the commit that defined this
# benchmark.  Every run runs and checks them, the report prints their
# outcome and they count in digits_mean, so a fix shows; they stay out of
# the timings and of attempted/failed (see README).
KNOWN_DEFECTS = {
    "ads_r100@32x64": _LARGE_R,
    "ads_r100@64x128": _LARGE_R,
    "ads_r100@128x256": _LARGE_R,
    "ads_r10@32x64": "|E_x1| = 2.7e-9 misses the 1e-9 spatial tolerance",
}
GRIDS = ((32, 64), (64, 128), (128, 256))
ASYMPTOTIC_RADII = [0.2, 0.1, 0.05, 0.025]
SPINOR_CHECK_COUNT = 2000
PAIRING = {"r": 2.0, "m": ADS_M, "n_theta": 64, "n_phi": 128, "count": 200}
CONVERGENCE_RESOLUTIONS = (16, 32, 64, 128)
OP_TIMEOUT_S = 150.0      # a single op; the whole run must end within 180 s
RUN_BUDGET_S = 170.0

END_TO_END = {             # name: unit
    "setup_s": "s",
    "answer_startups": "startups",
    "digits_mean": "digits",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.load_config_s": "s",
    "cli.write_s": "s",
    "cli.write_bytes": "bytes",
    "geometry.self_s": "s",
    "geometry.surface_forms.calls": "count",
    "geometry.surface_forms.ambient_s": "s",
    "geometry.surface_forms.h3_s": "s",
    "geometry.gauss_curvature_all_s": "s",
    "geometry.verify_isometric.calls": "count",
    "geometry.verify_isometric_s": "s",
    "geometry.scalar_curvature_many_s": "s",
    "geometry.christoffel_many.calls": "count",
    "geometry.christoffel_many_s": "s",
    "geometry.unit_directions.calls": "count",
    "geometry.metric_evals": "count",
    "geometry.surface_evals": "count",
    "mass.self_s": "s",
    "mass.surface_mass_data.calls": "count",
    "mass.surface_mass_data_s": "s",
    "mass.reduce.calls": "count",
    "mass.reduce_s": "s",
    "mass.asymptotic_limit_s": "s",
    "mass.killing_weighted_mass_s": "s",
    "spinor.self_s": "s",
    "spinor.verify_zet.calls": "count",
    "spinor.zeta_of.calls": "count",
    "spinor.killing_spinor_norms_sq_s": "s",
    "hypgeom.self_s": "s",
    "hypgeom.ball_to_minkowski.calls": "count",
    "hypgeom.radial_bounds_s": "s",
    "lorentz.self_s": "s",
    "lorentz.minkowski_inner.calls": "count",
    "lorentz.sample_null_cone_s": "s",
    "trace.overhead_frac": "ratio",
}

# ---------------------------------------------------------------------------
# workloads


@dataclasses.dataclass
class Op:
    """One user-level command and the oracle its answer must meet.

    ``kind`` names the timing it contributes to (e.g. ``mass_s_64x128``).
    ``known_defect`` gives the reason when the op is a probe of a known
    defect (see ``KNOWN_DEFECTS``).
    """

    kind: str
    label: str
    command: str                 # CLI subcommand, or "pairing"
    check: Callable              # (op_dir, stdout, answer) -> (ok, err)
    config: dict = None
    args: list = dataclasses.field(default_factory=list)
    params: dict = dataclasses.field(default_factory=dict)
    known_defect: str = ""


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _mass_check(oracle):
    def check(op_dir, stdout, answer):
        report = _read_json(op_dir / "out" / "mass_report.json")
        if report["E"] is None:
            return False, None
        ok, err = oracle(report["E"], report["causal_class"])
        return ok and report["hypothesis_checks"]["passed"] is True, err
    return check


def _tilt(rng, max_norm=0.3):
    d = rng.standard_normal(3)
    return [float(c) for c in d / math.sqrt(float(d @ d))
            * rng.uniform(0.0, max_norm)]


def mass_sweep(rng):
    """``hypermass mass`` with Shi-Tam on 4 scenarios x 3 grids."""
    scenarios = []
    for r in (2.0, 10.0, 100.0):
        cfg = {"metric": {"type": "ads_schwarzschild", "k": 1.0, "m": ADS_M},
               "surface": {"type": "coordinate_sphere", "r": r}}
        check = _mass_check(lambda E, cls, r=r: oracles.check_ads_report(
            E, cls, r, ADS_M))
        scenarios.append((f"ads_r{r:g}", cfg, check))
    cfg = {"metric": {"type": "hyperbolic_ball", "k": 1.0},
           "surface": {"type": "radial_profile", "base": 1.0,
                       "linear": _tilt(rng)}}
    scenarios.append(("radial", cfg, _mass_check(oracles.check_rigid)))
    ops = []
    for name, cfg, check in scenarios:
        for n_theta, n_phi in GRIDS:
            full = dict(cfg, resolution={"n_theta": n_theta, "n_phi": n_phi},
                        outputs={"shi_tam": True})
            label = f"{name}@{n_theta}x{n_phi}"
            ops.append(Op(kind=f"mass_s_{n_theta}x{n_phi}", label=label,
                          command="mass", config=full, args=["--force"],
                          check=check,
                          known_defect=KNOWN_DEFECTS.get(label, "")))
    return ops


def _asymptotic_check(g0, linear):
    def check(op_dir, stdout, answer):
        for line in (op_dir / "out" / "asymptotic.csv").read_text().splitlines():
            cells = line.split(",")
            if cells[0] == "extrapolated":
                return oracles.check_asymptotic(
                    [float(c) for c in cells[2:6]], g0, linear)
        return False, None
    return check


SPINOR_ROUNDOFF = ("absolute 1e-12 bound on a residual that grows with "
                   "|a|^2 f(x): FAIL at ~1e-14 relative on some seeds")


def _spinor_check(op_dir, stdout, answer):
    values = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(":")
        values[key.strip()] = value.strip()
    ok, err = oracles.check_spinor_residuals(
        float(values["max identity residual"]),
        float(values["max null round-trip residual"]),
        stdout.splitlines()[-1:] == ["PASS"])
    # |psi|^2 reaches ~160 for the sampled spinors and points, so roundoff
    # alone can exceed the absolute bound; such a FAIL (seed 9 gives 1.08e-12)
    # is a known defect of the check, reported but not counted as failed
    return ok, err, SPINOR_ROUNDOFF if not ok and err < 1e-11 else ""


def spinor_series(rng):
    """Geometry-light ops: asymptotic series, spinor-check, pairing."""
    g0 = float(rng.uniform(0.2, 1.0))
    linear = [float(c) for c in rng.uniform(-1.0, 1.0, 3)]
    asym = {"resolution": {"n_theta": 128, "n_phi": 256},
            "asymptotic": {"h": {"g0_coeff": g0, "linear": linear},
                           "radii": ASYMPTOTIC_RADII}}
    seed = int(rng.integers(0, 2 ** 31))
    count = PAIRING["count"]
    spinors = rng.standard_normal((count, 4)).tolist()
    params = dict(PAIRING, spinors=spinors)

    def pairing_check(op_dir, stdout, answer):
        return oracles.check_pairing(answer["E"], answer["kwm"], spinors,
                                     PAIRING["r"], PAIRING["m"])

    return [
        Op(kind="asymptotic_s", label="asymptotic@128x256",
           command="asymptotic", config=asym,
           check=_asymptotic_check(g0, linear)),
        Op(kind="spinor_check_s", label=f"spinor-check@{SPINOR_CHECK_COUNT}",
           command="spinor-check",
           args=["--seed", str(seed), "--count", str(SPINOR_CHECK_COUNT)],
           check=_spinor_check),
        Op(kind="pairing_s", label=f"pairing@{count}x2", command="pairing",
           params=params, check=pairing_check),
    ]


def convergence(rng):
    """``hypermass convergence`` on AdS r=2 over four grids in one process."""
    r = 2.0
    cfg = {"metric": {"type": "ads_schwarzschild", "k": 1.0, "m": ADS_M},
           "surface": {"type": "coordinate_sphere", "r": r}}

    def check(op_dir, stdout, answer):
        rows = (op_dir / "out" / "convergence.csv").read_text().splitlines()
        header = rows[0].split(",")
        i_t = header.index("E_t")
        results = [oracles.check_ads([0.0, 0.0, 0.0, float(row.split(",")[i_t])],
                                     r, ADS_M) for row in rows[1:]]
        if len(results) != len(CONVERGENCE_RESOLUTIONS):
            return False, None
        return all(ok for ok, _ in results), max(err for _, err in results)

    res = ",".join(str(n) for n in CONVERGENCE_RESOLUTIONS)
    return [Op(kind="convergence_s", label=f"convergence@{res}",
               command="convergence", config=cfg,
               args=["--resolutions", res], check=check)]


WORKLOADS = {
    "mass-sweep": mass_sweep,
    "spinor-series": spinor_series,
    "convergence": convergence,
}


# ---------------------------------------------------------------------------
# running one op


@dataclasses.dataclass
class OpResult:
    op: Op
    ok: bool
    err: float = None
    rc: int = None
    setup_s: float = None
    op_s: float = None
    maxrss_mb: float = 0.0
    wall_s: float = None       # spawn to exit, set-up and checks included
    ref_s: float = None        # spawn to numpy and yaml imported
    defect: str = ""           # known defect the op's failure matched
    trace: dict = None


def child_env() -> dict:
    """This process's environment with a one-thread BLAS pool.

    One thread is within ``nproc`` on any machine.  On a shared 2-vCPU host
    a second BLAS thread made no op faster and made the convergence op's
    times spread more (coefficient of variation 9% against 6%).
    """
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_op(op: Op, work: Path, index: int, trace: bool,
           timeout: float = OP_TIMEOUT_S) -> OpResult:
    """Run ``op`` in a fresh interpreter and check its answer."""
    op_dir = work / f"op{index}"
    op_dir.mkdir()
    argv = []
    if op.command != "pairing":
        argv = [op.command]
        if op.config is not None:
            cfg_path = op_dir / "scenario.yaml"
            cfg_path.write_text(json.dumps(op.config))   # JSON is YAML
            argv.append(str(cfg_path))
        argv += op.args
        if op.command != "spinor-check":
            argv += ["--output", str(op_dir / "out")]
    job = dict(op.params, op="pairing" if op.command == "pairing" else "cli",
               argv=argv, trace=trace, stdout=str(op_dir / "stdout.txt"),
               result=str(op_dir / "result.json"))
    job_path = op_dir / "job.json"
    job_path.write_text(json.dumps(job))

    with open(op_dir / "stderr.txt", "w") as err_fh:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(job_path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err_fh, env=child_env(), cwd=str(op_dir))
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()          # interrupted: leave no child behind
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)

    result = OpResult(op=op, ok=False, rc=proc.returncode,
                      maxrss_mb=usage.ru_maxrss / 1024.0,
                      wall_s=time.perf_counter() - started)
    try:
        child = _read_json(op_dir / "result.json")
        result.ref_s = child["libraries_at"] - started
        result.setup_s = child["imported_at"] - started
        result.op_s = child["op_s"]
        result.trace = child.get("trace")
        stdout = (op_dir / "stdout.txt").read_text()
        ok, result.err, *defect = op.check(op_dir, stdout,
                                           child.get("answer"))
        result.ok = ok and proc.returncode == 0
        result.defect = defect[0] if defect and not result.ok else ""
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        result.ok = False      # missing or malformed output
    shutil.rmtree(op_dir, ignore_errors=True)
    return result


# ---------------------------------------------------------------------------
# aggregation


def median_and_tail(values):
    """Median, and the highest percentile with >= 10 samples beyond it.

    The percentile is p = 100 * (1 - 10/n), read as the value with 10
    samples above it.  It is a tail only above the median, so it is None
    for n < 21.
    """
    values = sorted(values)
    n = len(values)
    med = statistics.median(values) if values else None
    if n < 21:
        return med, None, None
    return med, 100.0 * (1.0 - 10.0 / n), values[n - 11]


def end_to_end(results) -> dict:
    """End-to-end metrics, and the per-kind timings and library start-ups
    behind ``answer_startups``."""
    counted = [r for r in results if not r.op.known_defect]
    timings = {}
    for r in counted:
        timings.setdefault(r.op.kind, [])
        if r.ok or r.defect:      # a known defect fails only the verdict
            timings[r.op.kind].append(r.op_s)
    kinds = {}
    for kind, values in timings.items():
        med, pct, tail = median_and_tail(values)
        kinds[kind] = {"median": med, "n": len(values), "pct": pct,
                       "tail": tail}
    meds = [k["median"] for k in kinds.values()]
    # time to answer one op of each kind.  A sum, not a geometric mean: on a
    # shared 2-vCPU host the small allocation-heavy asymptotic op ran up to
    # 2x slower in busy periods while the other kinds moved by ~20%
    answer = sum(meds) if meds and None not in meds else None
    refs = [r.ref_s for r in results if r.ref_s is not None]
    ref = statistics.median(refs) if refs else None
    setups = [r.setup_s for r in results if r.setup_s is not None]
    failed = sum(1 for r in counted if not r.ok and not r.defect)
    ops = op_table(results)
    return {
        "metrics": {
            "setup_s": statistics.median(setups) if setups else None,
            "answer_startups": (answer / ref if answer is not None and ref
                                else None),
            # over the workload's distinct ops, so partial passes weigh
            # no op more than another
            "digits_mean": statistics.fmean(o["digits"] for o in ops.values()),
            "peak_rss_mb": max(r.maxrss_mb for r in results),
        },
        "kinds": kinds,
        "answer_s": answer,
        "ref_s": ref,
        "n_ref": len(refs),
        "n_setup": len(setups),
        "attempted": len(counted),
        "failed": failed,
        "probes": sum(1 for r in results if r.op.known_defect),
        "probes_failed": sum(1 for r in results
                             if r.op.known_defect and not r.ok),
        "defects": sum(1 for r in counted if r.defect),
        "ops": ops,
    }


def op_table(results) -> dict:
    """Per op label: runs, passes, median digits and the known defect."""
    table = {}
    for r in results:
        rec = table.setdefault(r.op.label, {"runs": 0, "ok": 0, "digits": [],
                                            "defect": r.op.known_defect})
        rec["runs"] += 1
        rec["ok"] += r.ok
        rec["defect"] = rec["defect"] or r.defect
        rec["digits"].append(oracles.digits(r.err))
    for rec in table.values():
        rec["digits"] = statistics.median(rec["digits"])
    return table


def pass_layers(results) -> dict:
    """Per-layer metrics of one traced pass, summed over its ops."""
    spans, counters = {}, {}
    for r in results:
        trace = r.trace or {"spans": {}, "counters": {}}
        for name, rec in trace["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                          "self_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
        for name, n in trace["counters"].items():
            counters[name] = counters.get(name, 0) + n

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    out = {}
    for module in tracing.MODULES:
        out[f"{module}.self_s"] = sum(
            rec["self_s"] for name, rec in spans.items()
            if name.split(".")[0] == module)
    forms = ("geometry.surface_forms.ambient", "geometry.surface_forms.h3")
    out.update({
        "cli.load_config_s": get("cli.load_config", "busy_s"),
        "cli.write_s": get("cli.write", "busy_s"),
        "cli.write_bytes": counters.get("cli.write_bytes", 0),
        "geometry.surface_forms.calls": sum(get(f, "calls") for f in forms),
        "geometry.surface_forms.ambient_s": get(forms[0], "busy_s"),
        "geometry.surface_forms.h3_s": get(forms[1], "busy_s"),
        "geometry.metric_evals": counters.get("geometry.metric_evals", 0),
        "geometry.surface_evals": counters.get("geometry.surface_evals", 0),
        "mass.reduce.calls": get("mass.reduce", "calls"),
        "mass.reduce_s": get("mass.reduce", "busy_s"),
    })
    for name in PER_LAYER:
        if name in out or name == "trace.overhead_frac":
            continue
        base, _, suffix = name.rpartition(".")
        if suffix == "calls":
            out[name] = get(base, "calls")
        else:
            out[name] = get(name[:-len("_s")], "busy_s")
    return out


EXACT_KEYS = tuple(name for name, unit in PER_LAYER.items()
                   if unit in ("count", "bytes"))


# ---------------------------------------------------------------------------
# environment record


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    env = child_env()
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# runs


class Runner:
    """Runs a workload's ops one at a time within the run's time budget."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.index = 0

    def run(self, op: Op, trace: bool) -> OpResult:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError("run budget exhausted")
        self.index += 1
        return run_op(op, self.work, self.index, trace,
                      min(OP_TIMEOUT_S, remaining))

    def one_pass(self, ops, trace: bool):
        return [self.run(op, trace) for op in ops]


def measure(name: str, seed: int, seconds: float, trace: bool,
            work: Path, deadline: float) -> dict:
    import numpy as np

    ops = WORKLOADS[name](np.random.default_rng(seed))
    runner = Runner(work, deadline)
    # compiles the package's bytecode and fills the file cache, as any
    # earlier use would
    warm = runner.run(Op(kind="warmup", label="warmup", command="spinor-check",
                         args=["--count", "1"], check=_spinor_check), False)
    if warm.rc != 0:
        raise RuntimeError("warm-up op failed; is src/hypermass intact?")

    started = time.perf_counter()
    if not trace:
        # one whole pass, then the timed ops (probes are not timed) in the
        # same order for as long as the next one is expected to end within
        # the measured seconds
        results = runner.one_pass(ops, False)
        last = {r.op.label: r.wall_s for r in results}
        timed = [op for op in ops if not op.known_defect]
        while True:
            op = timed[(len(results) - len(ops)) % len(timed)]
            if time.perf_counter() - started + last[op.label] > seconds:
                break
            results.append(runner.run(op, False))
            last[op.label] = results[-1].wall_s
        summary = end_to_end(results)
        summary["passes"] = 1 + (len(results) - len(ops)) / len(timed)
        return summary

    # traced: untraced and traced passes alternate, so that a drift in the
    # machine's speed cancels in the overhead; the two traced passes must
    # repeat every exact count
    passes = [runner.one_pass(ops, t) for t in (False, True, False, True)]
    plain, traced = passes[0::2], passes[1::2]
    layers = [pass_layers(p) for p in traced]
    mismatched = [k for k in EXACT_KEYS if layers[0][k] != layers[1][k]]
    metrics = {}
    for key in PER_LAYER:
        if key in EXACT_KEYS:
            metrics[key] = layers[0][key]
        elif key != "trace.overhead_frac":
            metrics[key] = statistics.fmean(l[key] for l in layers)

    def op_time(group):
        return sum(r.op_s or 0.0 for p in group for r in p)

    metrics["trace.overhead_frac"] = op_time(traced) / op_time(plain) - 1.0
    summary = end_to_end([r for p in passes for r in p])
    summary.update(layers=metrics, mismatched=mismatched, passes=len(passes))
    return summary


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(name: str, summary: dict, trace: bool):
    print(f"== {name}: {summary['passes']:.3g} passes, "
          f"{summary['attempted']} ops attempted, {summary['failed']} failed"
          + (f", {summary['probes']} known-defect probes of which "
             f"{summary['probes_failed']} failed" if summary["probes"] else "")
          + (f", {summary['defects']} op runs hit a known defect"
             if summary["defects"] else ""))
    print(f"{'op':<24} {'passed':>9} {'digits':>7}  known defect")
    for label, rec in summary["ops"].items():
        print(f"{label:<24} {rec['ok']:>4} / {rec['runs']:<3} "
              f"{rec['digits']:>6.2f}  {rec['defect'] or '-'}")
    if trace:
        print("per-layer metrics, per pass of the workload:")
        for key, value in summary["layers"].items():
            print(f"  {key:<38} {fmt(value):>14} {PER_LAYER[key]}")
        if summary["mismatched"]:
            print("EXACT COUNTS DIFFER between the two traced passes: "
                  + ", ".join(summary["mismatched"]), file=sys.stderr)
        return
    metrics = summary["metrics"]
    total = summary["attempted"] + summary["probes"]
    rows = [("setup_s", metrics["setup_s"], "s", summary["n_setup"], None),
            ("ref_startup_s", summary["ref_s"], "s", summary["n_ref"], None)]
    rows += [(kind, rec["median"], "s", rec["n"], rec)
             for kind, rec in sorted(summary["kinds"].items())]
    rows += [
        ("answer_s", summary["answer_s"], "s", len(summary["kinds"]), None),
        ("answer_startups", metrics["answer_startups"], "startups",
         len(summary["kinds"]), None),
        ("fail_frac", summary["failed"] / max(summary["attempted"], 1), "1",
         summary["attempted"], None),
        ("fail_frac_distinct_ops",
         sum(o["ok"] < o["runs"] for o in summary["ops"].values())
         / len(summary["ops"]), "1", len(summary["ops"]), None),
        ("digits_mean", metrics["digits_mean"], "digits",
         len(summary["ops"]), None),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", total, None),
    ]
    print(f"{'metric':<24} {'value':>12} {'unit':<7} {'n':>4}  tail")
    for metric, value, unit, n, rec in rows:
        tail = "-"
        if rec is not None and rec["pct"] is not None:
            tail = f"p{rec['pct']:.0f} = {fmt(rec['tail'])}"
        print(f"{metric:<24} {fmt(value):>12} {unit:<7} {n:>4}  {tail}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still kills and reaps its op child and removes its
    # work directory (SystemExit unwinds through run_op and the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "hypermass" / "cli.py").is_file():
        print(f"no hypermass sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.perf_counter() + RUN_BUDGET_S * len(names)
    print("env: " + json.dumps(environment(args.seed), sort_keys=True))
    work = Path(tempfile.mkdtemp(prefix=".bench_run_", dir=ROOT))
    try:
        summaries = {name: measure(name, args.seed, args.seconds,
                                   bool(args.trace), work, deadline)
                     for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name, summary in summaries.items():
        print_report(name, summary, bool(args.trace))
        attempted += summary["attempted"]
        failed += summary["failed"]
        correct &= summary["failed"] == 0
        if args.trace:
            correct &= not summary["mismatched"]
            values = summary["layers"]
            units = PER_LAYER
        else:
            values = summary["metrics"]
            units = END_TO_END
            correct &= None not in values.values()
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": values[k], "unit": units[k]}
                        for k in units})
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
