"""Tests of the benchmark's own code.

Run with: python3 -m pytest bench/test_bench.py
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ---------------------------------------------------------------------------
# oracles


def test_ads_closed_form_known_value():
    # 8 pi (0.1) sqrt(5 / 4.9)
    assert oracles.ads_energy_t(2.0, 0.1) == pytest.approx(
        2.5387902503762, rel=0, abs=1e-12)
    # large r: sqrt((1 + r^2)/V) -> 1, so E_t -> 8 pi m
    assert oracles.ads_energy_t(1e6, 0.1) == pytest.approx(
        8 * math.pi * 0.1, rel=1e-12)


def test_ads_check_tolerances():
    exact = oracles.ads_energy_t(2.0, 0.1)
    ok, err = oracles.check_ads([0.0, 0.0, 0.0, exact * (1 + 5e-7)], 2.0, 0.1)
    assert ok and err == pytest.approx(5e-7)
    ok, _ = oracles.check_ads([2e-9, 0.0, 0.0, exact], 2.0, 0.1)
    assert not ok
    ok, _ = oracles.check_ads_report([0.0, 0.0, 0.0, exact], "Spacelike",
                                     2.0, 0.1)
    assert not ok


def test_upsilon_half_closed_form():
    assert oracles.upsilon_half(0.5, [0.0, 0.0, 0.0]) == pytest.approx(
        [0.0, 0.0, 0.0, 2.0 * math.pi])
    assert oracles.upsilon_half(0.0, [3.0, 0.0, -1.5]) == pytest.approx(
        [2.0 * math.pi, 0.0, -math.pi, 0.0])


def test_zeta_is_future_null_and_matches_the_program():
    from hypermass.spinor import zeta_of

    rng = np.random.default_rng(5)
    for re0, im0, re1, im1 in rng.standard_normal((20, 4)):
        a = (complex(re0, im0), complex(re1, im1))
        for sign in (1, -1):
            z = oracles.zeta(a, sign)
            assert oracles.minkowski(z, z) == pytest.approx(0.0, abs=1e-12)
            assert z[3] > 0
            ref = zeta_of(np.array(a), sign)
            assert z == pytest.approx([ref.x1, ref.x2, ref.x3, ref.t],
                                      abs=1e-12)


def test_digits():
    assert oracles.digits(1e-8) == pytest.approx(8.0)
    assert oracles.digits(0.0) == 16.0
    assert oracles.digits(1e-20) == 16.0
    assert oracles.digits(None) == 0.0
    assert oracles.digits(float("nan")) == 0.0
    assert oracles.digits(5.0) == 0.0


# ---------------------------------------------------------------------------
# tracing arithmetic


def test_self_time_on_hand_built_tree():
    #  a [0, 10]
    #  +- b [1, 4]
    #  |  +- c [2, 3]
    #  +- d [5, 9]
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["d", 5.0, 9.0, 0], ["b", 9.5, 10.0, 0]]
    assert tracing.self_times(spans) == pytest.approx(
        [10 - 3 - 4 - 0.5, 3 - 1, 1, 4, 0.5])
    summary = tracing.summarize(spans, {"n": 3})
    assert summary["spans"]["b"] == pytest.approx(
        {"calls": 2, "busy_s": 3.5, "self_s": 2.5})
    assert summary["counters"] == {"n": 3}


def test_wrapped_calls_nest_and_reentry_is_one_span():
    tracer = tracing.Tracer()

    def leaf():
        return 1

    def rec(n):
        return leaf() + (rec(n - 1) if n else 0)

    leaf = tracer.wrap("m.leaf", leaf)
    rec = tracer.wrap("m.rec", rec)
    assert rec(2) == 3
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    # one rec span; the recursive calls nest directly and are not re-recorded
    assert names == ["m.rec", "m.leaf", "m.leaf", "m.leaf"]
    assert parents == [-1, 0, 0, 0]


# ---------------------------------------------------------------------------
# metric names


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    for name in list(e2e) + list(layer) + [w["name"]
                                           for w in spec["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


# ---------------------------------------------------------------------------
# ops run end to end


def test_nonzero_exit_counts_as_failed_and_is_not_timed(tmp_path):
    bad = run.Op(kind="mass_s_16x32", label="bad", command="mass",
                 config={"metric": {"type": "no_such_metric"}},
                 check=run._mass_check(oracles.check_rigid))
    result = run.run_op(bad, tmp_path, 1, trace=False)
    assert result.rc == 2 and not result.ok
    good = run.OpResult(op=run.Op(kind="mass_s_16x32", label="good",
                                  command="mass", check=None),
                        ok=True, err=1e-12, rc=0, setup_s=0.3, op_s=1.0,
                        ref_s=0.25)
    summary = run.end_to_end([result, good])
    assert summary["attempted"] == 2 and summary["failed"] == 1
    assert summary["kinds"]["mass_s_16x32"]["n"] == 1
    assert summary["answer_s"] == 1.0
    # the failed op's child still reports its start-up times
    assert 0 < result.ref_s < result.setup_s
    assert summary["metrics"]["answer_startups"] == pytest.approx(
        1.0 / ((result.ref_s + 0.25) / 2))
    # the failed op produced no number: it contributes 0 digits
    assert summary["metrics"]["digits_mean"] == pytest.approx(
        (0.0 + 12.0) / 2)


def test_spinor_roundoff_fail_is_a_known_defect_and_stays_timed():
    def stdout(residual):
        return (f"max identity residual: {residual}\n"
                "max null round-trip residual: 2e-16\nFAIL\n")

    ok, err, defect = run._spinor_check(None, stdout(1.08e-12), None)
    assert not ok and err == 1.08e-12 and defect == run.SPINOR_ROUNDOFF
    assert run._spinor_check(None, stdout(5e-11), None)[2] == ""
    op = run.Op(kind="spinor_check_s", label="spinor-check", command="x",
                check=None)
    roundoff = run.OpResult(op=op, ok=False, err=1.08e-12, rc=1, op_s=0.4,
                            ref_s=0.2, defect=run.SPINOR_ROUNDOFF)
    broken = run.OpResult(op=op, ok=False, err=5e-11, rc=1, op_s=0.1)
    summary = run.end_to_end([roundoff, broken])
    assert summary["attempted"] == 2 and summary["failed"] == 1
    assert summary["defects"] == 1
    assert summary["kinds"]["spinor_check_s"]["n"] == 1
    assert summary["answer_s"] == 0.4
    assert summary["metrics"]["answer_startups"] == pytest.approx(2.0)


def test_traced_op_counts_repeat_exactly(tmp_path):
    op = run.Op(kind="mass_s_16x32", label="ads", command="mass",
                config={"metric": {"type": "ads_schwarzschild", "m": 0.1},
                        "surface": {"type": "coordinate_sphere", "r": 2.0},
                        "resolution": {"n_theta": 16, "n_phi": 32}},
                args=["--force"],
                check=run._mass_check(lambda E, cls: oracles.check_ads_report(
                    E, cls, 2.0, 0.1)))
    layers = []
    for i in range(2):
        result = run.run_op(op, tmp_path, i, trace=True)
        assert result.rc == 0 and result.trace is not None
        layers.append(run.pass_layers([result]))
    first = layers[0]
    assert first["geometry.surface_forms.calls"] == 3
    assert first["geometry.verify_isometric.calls"] == 2
    assert first["mass.surface_mass_data.calls"] == 1
    assert first["geometry.surface_forms.h3_s"] > 0
    assert first["geometry.metric_evals"] > 0
    assert first["cli.write_bytes"] > 0
    for key in run.EXACT_KEYS:
        assert layers[1][key] == first[key], key


def test_child_blas_pool_has_one_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    env = run.child_env()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert env[var] == "1"


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "convergence",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
