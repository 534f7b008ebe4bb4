"""Span tracing of hypermass from outside the package.

``install`` wraps every public function of the six hypermass modules, and
rebinds the names other modules imported, so each call records a span
(name, start, end, parent).  A few non-public call sites that the layer
metrics need are wrapped too: the CLI write path, ``SurfaceMassData.weighted``
and the ``math.fsum`` reductions in ``mass``.  Metric and surface factories
are wrapped so the callables they return count evaluation points.  Nothing
under ``src/`` is modified; the wrappers live only in the traced process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
import types

import numpy as np

MODULES = ("lorentz", "hypgeom", "geometry", "spinor", "mass", "cli")

METRIC_FACTORIES = ("euclidean_metric", "hyperbolic_ball_metric",
                    "ads_schwarzschild_metric", "wang_ah_metric")
SURFACE_FACTORIES = ("geodesic_sphere_surface", "coordinate_sphere_surface",
                     "radial_profile_surface")


class Tracer:
    """In-memory span list plus named counters for one process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.stack = []      # indices of open spans
        self.counters = {}

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def wrap(self, name, fn):
        """Wrap ``fn`` so each outermost call of ``name`` records a span.

        ``name`` may be a callable of the call arguments, for spans whose
        name depends on what they were called with.
        """
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if stack and spans[stack[-1]][0] == label:
                return fn(*args, **kwargs)   # re-entry: one span per call tree
            parent = stack[-1] if stack else -1
            span = [label, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of its interval.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans, counters) -> dict:
    """Per span name: calls, busy time and self time; plus the counters."""
    by_name = {}
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        rec = by_name.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0})
        rec["calls"] += 1
        rec["busy_s"] += end - start
        rec["self_s"] += self_s
    return {"spans": by_name, "counters": dict(counters)}


def _points(p) -> int:
    """Number of chart points in an array of shape (..., 3)."""
    return int(np.prod(np.shape(p)[:-1]))


def install(tracer: Tracer) -> None:
    """Wrap the hypermass modules in place for this process."""
    mods = {m: importlib.import_module(f"hypermass.{m}") for m in MODULES}
    geo, mass, cli = mods["geometry"], mods["mass"], mods["cli"]
    wrapped = {}

    for short, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            wrapped[obj] = tracer.wrap(f"{short}.{name}", obj)

    # surface_forms is split by which side of the pairing it computes
    orig_h3_view = geo.SurfaceData.h3_view

    def h3_view(self):
        view = orig_h3_view(self)
        view.bench_h3_side = True
        return view

    def forms_label(*args, **kwargs):
        surface = args[0] if args else kwargs["surface"]
        side = "h3" if getattr(surface, "bench_h3_side", False) else "ambient"
        return f"geometry.surface_forms.{side}"

    geo.SurfaceData.h3_view = h3_view
    wrapped[geo.surface_forms] = tracer.wrap(forms_label, geo.surface_forms)

    # exact work counts: points at which metrics and surfaces are evaluated
    def metric_factory(factory):
        def build(*args, **kwargs):
            metric = factory(*args, **kwargs)
            comps = metric.components

            def components(p):
                tracer.count("geometry.metric_evals", _points(p))
                return comps(p)

            metric.components = components
            return metric
        return build

    def surface_factory(factory):
        def counted(fn):
            def F(theta, phi):
                tracer.count("geometry.surface_evals",
                             np.broadcast(theta, phi).size)
                return fn(theta, phi)
            return F

        def build(*args, **kwargs):
            surface = factory(*args, **kwargs)
            same = surface.F0 is surface.F
            surface.F = counted(surface.F)
            if same:
                surface.F0 = surface.F
            elif surface.F0 is not None:
                surface.F0 = counted(surface.F0)
            return surface
        return build

    for name in METRIC_FACTORIES:
        orig = getattr(geo, name)
        wrapped[orig] = tracer.wrap(f"geometry.{name}", metric_factory(orig))
    for name in SURFACE_FACTORIES:
        orig = getattr(geo, name)
        wrapped[orig] = tracer.wrap(f"geometry.{name}", surface_factory(orig))

    # the only I/O of the CLI
    orig_write = cli._write_text

    def write_text(path, text):
        tracer.count("cli.write_bytes", len(text.encode()))
        return orig_write(path, text)

    wrapped[orig_write] = tracer.wrap("cli.write", write_text)

    # mass reductions: SurfaceMassData.weighted and every fsum in mass
    mass.SurfaceMassData.weighted = tracer.wrap(
        "mass.reduce", mass.SurfaceMassData.weighted)
    fsum_math = types.SimpleNamespace(**{k: getattr(math, k)
                                         for k in dir(math)
                                         if not k.startswith("_")})
    fsum_math.fsum = tracer.wrap("mass.reduce", math.fsum)
    mass.math = fsum_math

    for mod in mods.values():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
