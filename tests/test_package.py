"""Package surface: exported names, raised error types and the names the
bench tracer wraps."""

import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_every_error_type_is_raised():
    # an error type that nothing raises is dead API a deletion left behind
    source = "\n".join(path.read_text() for path in
                       sorted((ROOT / "src" / "hypermass").glob("*.py")))
    raised = set(re.findall(r"\braise\s+(\w+)", source))
    types = {name for name, obj in vars(errors).items()
             if inspect.isclass(obj) and issubclass(obj, errors.HypermassError)
             and obj is not errors.HypermassError}
    assert types and types - raised == set()
