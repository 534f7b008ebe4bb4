"""Run one benchmark op in a fresh interpreter.

Usage: python3 bench/child.py JOB.json

The job file names the op (a ``hypermass`` CLI argv, or the library
``pairing`` op), whether to trace it, and where to write the result.  The
result holds the moments numpy and yaml, and then ``hypermass.cli``,
finished importing (for the start-up reference and set-up time), the op's
wall time, its exit code and, when traced, the per-span summary.
``run.py`` checks the answers, not this process.
"""

import os
import sys
import time

# the libraries hypermass.cli imports at start-up, imported first so that
# their import time, which no change to hypermass can move, is known apart
import numpy  # noqa: F401
import yaml  # noqa: F401

LIBRARIES_AT = time.perf_counter()

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
sys.path.insert(0, _SRC)

import hypermass.cli  # noqa: E402

IMPORTED_AT = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402


def pairing(job: dict) -> dict:
    """Library op: one AdS surface, then spinor-weighted masses (criterion 4)."""
    from hypermass import geometry as geo
    from hypermass import mass

    grid = geo.QuadratureGrid.build(job["n_theta"], job["n_phi"])
    metric = geo.ads_schwarzschild_metric(job["m"], 1.0)
    surface = geo.coordinate_sphere_surface(job["r"], grid, 1.0)
    data = mass.surface_mass_data(surface, metric)
    E = mass.energy_momentum(surface, metric, data=data)
    kwm = []
    for re0, im0, re1, im1 in job["spinors"]:
        a = [complex(re0, im0), complex(re1, im1)]
        kwm.append([mass.killing_weighted_mass(surface, metric, a, sign,
                                               data=data)
                    for sign in (1, -1)])
    return {"E": [E.x1, E.x2, E.x3, E.t], "kwm": kwm}


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out = {"libraries_at": LIBRARIES_AT, "imported_at": IMPORTED_AT}
    with open(job["stdout"], "w") as fh, contextlib.redirect_stdout(fh):
        start = time.perf_counter()
        if job["op"] == "pairing":
            out["answer"] = pairing(job)
            rc = 0
        else:
            rc = hypermass.cli.main(job["argv"])
        out["op_s"] = time.perf_counter() - start
    out["rc"] = rc
    if tracer is not None:
        out["trace"] = tracing.summarize(tracer.spans, tracer.counters)
    with open(job["result"], "w") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
