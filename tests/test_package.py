"""Package surface: exported names, raised error types, the names the
bench tracer wraps and the library calls of the bench pairing op."""

import importlib
import importlib.util
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypermass import errors

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("hypermass", "hypermass.lorentz", "hypermass.hypgeom",
           "hypermass.geometry", "hypermass.spinor", "hypermass.mass")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []


TRACER_SCRIPT = """
import tracing
from hypermass import geometry
tracer = tracing.Tracer()
tracing.install(tracer)
geometry.hyperbolic_ball_metric(1.0)
assert [s[0] for s in tracer.spans] == ["geometry.hyperbolic_ball_metric"]
"""


def test_bench_tracer_installs():
    # the tracer wraps functions by name, so deleting one of them breaks
    # every traced benchmark run; this catches it without running one
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run([sys.executable, "-c", TRACER_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_bench_pairing_op_runs():
    # the benchmark's library op calls the mass functionals by keyword, so a
    # signature change there breaks the benchmark without failing elsewhere
    spec = importlib.util.spec_from_file_location(
        "bench_child", ROOT / "bench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    answer = child.pairing({"n_theta": 8, "n_phi": 16, "m": 0.1, "r": 2.0,
                            "spinors": [[1.0, 0.0, 0.0, 0.0],
                                        [0.3, -0.2, 0.5, 0.7]]})
    assert len(answer["E"]) == 4 and all(map(math.isfinite, answer["E"]))
    assert np.shape(answer["kwm"]) == (2, 2)


def test_every_error_type_is_raised():
    # an error type that nothing raises is dead API a deletion left behind
    source = "\n".join(path.read_text() for path in
                       sorted((ROOT / "src" / "hypermass").glob("*.py")))
    raised = set(re.findall(r"\braise\s+(\w+)", source))
    types = {name for name, obj in vars(errors).items()
             if inspect.isclass(obj) and issubclass(obj, errors.HypermassError)
             and obj is not errors.HypermassError}
    assert types and types - raised == set()
