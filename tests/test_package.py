"""Package surface: exported names, raised error types, the names the
bench tracer wraps and the library calls of the bench pairing op."""

import ast
import contextlib
import dataclasses
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypermass import errors, mass

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


TRACED_OPS_SCRIPT = """
import contextlib, io, json, sys
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from hypermass import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "spans": [s[0] for s in tracer.spans],
                  "counters": tracer.counters}))
"""


def test_bench_tracer_runs_cli_ops(tmp_path):
    # the tracer rebinds what the factories return, the CLI's write path
    # and SurfaceMassData.weighted, so a field or name it reads that the
    # package drops breaks a traced op, not the install: run three ops
    # through it at 8x16, the asymptotic one on the small-sphere data, and
    # a mass op on a tilted profile at 64x128, whose node pass walks blocks
    configs = {
        "ads": {"metric": {"type": "ads_schwarzschild", "k": 1.0, "m": 0.1},
                "surface": {"type": "coordinate_sphere", "r": 2.0}},
        "tilted": {"metric": {"type": "hyperbolic_ball", "k": 1.0},
                   "surface": {"type": "radial_profile", "base": 1.0,
                               "linear": [0.1, 0.0, 0.2]}},
        "aspect": {"asymptotic": {"h": {"g0_coeff": 0.5,
                                        "linear": [0.3, -0.2, 0.1]},
                                  "radii": [0.2, 0.1, 0.05]}}}
    paths = {}
    for name, cfg in configs.items():
        paths[name] = tmp_path / f"{name}.yaml"
        paths[name].write_text(json.dumps(
            dict(cfg, resolution={"n_theta": 8, "n_phi": 16})))
    paths["blocked"] = tmp_path / "blocked.yaml"
    paths["blocked"].write_text(json.dumps(
        dict(configs["tilted"], resolution={"n_theta": 64, "n_phi": 128})))
    ops = [["mass", str(paths["ads"]), "--force"],
           ["convergence", str(paths["tilted"]), "--resolutions", "8,16,32"],
           ["asymptotic", str(paths["aspect"])],
           ["mass", str(paths["blocked"]), "--force"]]
    ops = [[*op, "--output", str(tmp_path / op[0])] for op in ops]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_OPS_SCRIPT,
                           json.dumps(ops)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    assert traced["codes"] == [0, 0, 0, 0]
    spans = set(traced["spans"])
    for name in ("surface_forms.ambient", "paired_forms",
                 "ads_schwarzschild_metric", "coordinate_sphere_surface",
                 "hyperbolic_ball_metric", "radial_profile_surface"):
        assert f"geometry.{name}" in spans, name
    for name in ("reduce", "surface_mass_data", "asymptotic_limit",
                 "ah_sphere_data", "wang_mass"):
        assert f"mass.{name}" in spans, name
    # the one builder of X, which every SurfaceMassData and wang_mass call
    assert "hypgeom.areal_to_minkowski" in spans
    for name in ("geometry.surface_evals", "cli.write_bytes"):
        assert traced["counters"].get(name, 0) > 0, name
    # an ambient pass per block, 1 on each grid of at most
    # mass._BLOCK_NODES nodes, no H^3-side pass, since every CLI surface is
    # its own H^3 image, and a jet evaluated once per node for both sides
    rows = max(1, mass._BLOCK_NODES // 128)
    blocks = 1 + 3 + -(-64 // rows)
    assert blocks > 5
    assert traced["spans"].count("geometry.surface_forms.ambient") == blocks
    assert "geometry.surface_forms.h3" not in spans
    nodes = 8 * 16 + (8 * 16 + 16 * 32 + 32 * 64) + 64 * 128
    assert traced["counters"]["geometry.surface_evals"] == nodes


def _bench_module(name):
    """``bench/<name>.py`` as a module of its own."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PAIRING_JOB = {"n_theta": 8, "n_phi": 16, "m": 0.1, "r": 2.0,
               "spinors": [[1.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.5, 0.7]]}


def test_bench_pairing_op_runs():
    # the benchmark's library op calls the mass functionals by keyword, so a
    # signature change there breaks the benchmark without failing elsewhere;
    # each answer must meet the pairing contract, -2 <E, zeta_a> with the
    # benchmark's own zeta and Minkowski product
    answer = _bench_module("child").pairing(PAIRING_JOB)
    oracles = _bench_module("oracles")
    E = answer["E"]
    assert len(E) == 4 and all(map(math.isfinite, E))
    assert np.shape(answer["kwm"]) == (2, 2)
    for (re0, im0, re1, im1), values in zip(PAIRING_JOB["spinors"],
                                            answer["kwm"]):
        a = (complex(re0, im0), complex(re1, im1))
        for sign, value in zip((1, -1), values):
            p = oracles.minkowski(E, oracles.zeta(a, sign))
            assert abs(value + 2.0 * p) <= 1e-12 * (1.0 + abs(p))


def test_bench_pairing_op_makes_no_node_pass(monkeypatch):
    # the spinor-weighted masses are read off E: with the package's
    # Killing-spinor norms refused wherever they are bound, the pairing op
    # still answers
    for name in MODULES + ("hypermass.cli",):
        importlib.import_module(name)   # bound before the patch
    norms = sys.modules["hypermass.spinor"].killing_spinor_norms_sq

    def refused(*args, **kwargs):
        raise AssertionError("killing_spinor_norms_sq was called")

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "hypermass"
                and getattr(module, "killing_spinor_norms_sq", None) is norms):
            monkeypatch.setattr(module, "killing_spinor_norms_sq", refused)
    answer = _bench_module("child").pairing(PAIRING_JOB)
    assert np.shape(answer["kwm"]) == (2, 2)
    assert all(map(math.isfinite, np.ravel(answer["kwm"])))


@pytest.fixture
def bench_run(monkeypatch):
    """``bench/run.py`` as a module, with the bench directory on sys.path."""
    monkeypatch.setattr(sys, "path", [str(ROOT / "bench"), *sys.path])
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, "bench_run", bench)
    spec.loader.exec_module(bench)
    return bench


def _run_at_8x16(op, out: Path):
    """Run the bench op ``op`` through ``cli.main`` on an 8x16 grid, with
    its outputs in ``out``; returns the exit code and stdout."""
    from hypermass import cli

    path = out.parent / f"{out.name}.yaml"
    path.write_text(json.dumps(dict(
        op.config, resolution={"n_theta": 8, "n_phi": 16})))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([op.command, str(path), *op.args,
                         "--output", str(out)])
    return code, stdout.getvalue()


def test_bench_mass_sweep_configs_run(tmp_path, bench_run):
    # the benchmark writes its mass configs itself, so a config key the
    # resolver stops accepting breaks the benchmark without failing
    # elsewhere; each must run and report M_alpha (they are at k = 1)
    ops = bench_run.mass_sweep(np.random.default_rng(0))
    assert ops
    for op in ops:
        out = tmp_path / op.label
        assert _run_at_8x16(op, out)[0] == 0, op.label
        doc = json.loads((out / "mass_report.json").read_text())
        assert doc["M_alpha"] is not None, op.label


def test_bench_asymptotic_config_runs(tmp_path, bench_run):
    # likewise the spinor-series asymptotic op: it must run, write the
    # rows that its oracle and the tests read, and meet that oracle
    [op] = [op for op in bench_run.spinor_series(np.random.default_rng(0))
            if op.command == "asymptotic"]
    code, stdout = _run_at_8x16(op, tmp_path / "out")
    assert code == 0
    rows = {row.split(",")[0]: row.split(",")[1:] for row in
            (tmp_path / "out" / "asymptotic.csv").read_text().splitlines()}
    for label in ("extrapolated", "upsilon_half", "deviation"):
        assert rows[label][0] == "" and len(rows[label]) == 5, label
        assert all(map(math.isfinite, map(float, rows[label][1:]))), label
    order = rows["observed_order"]
    assert order[0] == "" and order[2:] == ["", "", ""]
    assert float(order[1]) >= 1.0
    assert stdout.splitlines()[-1] == f"observed order: {order[1]}"
    assert op.check(tmp_path, stdout, None)[0]


NO_NUMPY_RANDOM_SCRIPT = """
import sys
import hypermass.cli
assert not [m for m in sys.modules if m.startswith("numpy.random")]
"""


def test_cli_import_leaves_out_numpy_random():
    # importing numpy.random costs over 10 ms (hashlib, OpenSSL, mtrand):
    # a module-level import would put it into every op's start-up
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_RANDOM_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


NO_NUMPY_RANDOM_OPS_SCRIPT = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import child
from hypermass import cli

def drawn():
    return sorted(m for m in sys.modules if m.startswith("numpy.random"))

mass = {"metric": {"type": "ads_schwarzschild", "m": 0.1},
        "surface": {"type": "coordinate_sphere", "r": 2.0},
        "resolution": {"n_theta": 8, "n_phi": 16},
        "asymptotic": {"h": {"g0_coeff": 0.5, "linear": [0.1, 0.0, 0.2]},
                       "radii": [0.2, 0.1, 0.05]}}
with tempfile.TemporaryDirectory() as tmp, \
        contextlib.redirect_stdout(io.StringIO()):
    path = Path(tmp) / "op.yaml"
    path.write_text(json.dumps(mass))
    for argv in (["mass", "--force"], ["convergence", "--resolutions",
                                       "8,12,16"], ["asymptotic"]):
        assert cli.main([argv[0], str(path), *argv[1:], "--output",
                         tmp]) == 0, argv
    child.pairing(json.loads(sys.argv[2]))
    assert cli.main(["spinor-check", "--count", "1"]) == 0
assert drawn() == [], drawn()
"""


def test_ops_leave_out_numpy_random():
    # as above for running ops: mass, convergence, asymptotic, spinor-check
    # and the benchmark's pairing op import no numpy.random module, so a
    # default_rng on any of their paths would show here; spinor-check
    # draws its samples from the standard library's random, which numpy
    # imports already
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RANDOM_OPS_SCRIPT, str(ROOT / "bench"),
         json.dumps(PAIRING_JOB)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _numpy_random_uses(tree):
    """Line numbers at which a module imports numpy.random, or reads it as
    an attribute of a name that it binds to numpy."""
    numpy = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names
             if alias.name == "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [f"numpy.{node.attr}"] if getattr(
                node.value, "id", None) in numpy else []
        else:
            continue
        if any(name.split(".")[:2] == ["numpy", "random"] for name in names):
            yield node.lineno


def test_package_holds_no_numpy_random(programs):
    # the two tests above catch numpy.random on the paths that they run;
    # this catches it on every path, one that no test runs included
    used = [f"{file}:{line}" for file, tree in _package(programs)
            for line in _numpy_random_uses(tree)]
    assert used == []


NO_ARGPARSE_SCRIPT = """
import contextlib, io, sys
from hypermass import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["--help"]) == 0
loaded = {"argparse", "gettext", "locale"} & set(sys.modules)
assert not loaded, loaded
"""


def test_cli_leaves_out_argparse():
    # argparse costs an op about 3 ms to import and 2-4 ms to build its
    # parsers (gettext lookups, regex compiles, a lazy import of locale);
    # the table-driven parser of cli needs none of the three, and numpy and
    # yaml import none of them
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", NO_ARGPARSE_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
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


def _member_name(item):
    """The name a class body item defines as a method, property or
    annotated field, or None."""
    if isinstance(item, ast.FunctionDef):
        return item.name
    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
        return item.target.id
    return None


def _public_defs(tree):
    """(name, node) of each public module-level function and class of a
    module, and of each public method, property and annotated field (a
    dataclass's stored fields) of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    name = _member_name(item)
                    if name and not name.startswith("_"):
                        yield name, item


def _references(node, outside=None, found=None):
    """``(names, members)``: the identifiers that ``node`` uses, and the
    names that it reads as attributes, passes as keywords or spells as
    string constants (a bench table of names counts), leaving out the
    subtree ``outside`` and the strings of ``__all__``."""
    names, members = found = (set(), set()) if found is None else found
    if node is outside or (isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets)):
        return found
    if isinstance(node, ast.Name):
        names.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        members.add(node.attr)
    elif isinstance(node, ast.keyword) and node.arg:
        members.add(node.arg)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        members.add(node.value)
    for child in ast.iter_child_nodes(node):
        _references(child, outside, found)
    return found


@pytest.fixture(scope="module")
def programs():
    """The parsed programs by path: the package and the benchmark's files
    that are not its tests."""
    return {path: ast.parse(path.read_text()) for path in
            sorted((ROOT / "src" / "hypermass").glob("*.py"))
            + sorted((ROOT / "bench").glob("*.py"))
            if not path.name.startswith("test_")}


def _package(programs):
    """(file name, tree) of each module of the package."""
    return [(path.name, tree) for path, tree in programs.items()
            if path.parent.name == "hypermass"]


def test_src_holds_no_test_only_code(programs):
    # every public function and class of the package is used by name from
    # the package or the benchmark's programs (not its tests), outside its
    # own body; a public method, property or stored field is read as an
    # attribute, passed as a keyword or named in a string there: a local
    # variable of its name does not use it
    unused = []
    for file, tree in _package(programs):
        for name, node in _public_defs(tree):
            member = node not in tree.body
            uses = (_references(other, outside=node)
                    for other in programs.values())
            if not any(name in members or not member and name in names
                       for names, members in uses):
                unused.append(f"{file}:{name}")
    assert unused == []


def _parameters(fn, method):
    """(position, name, default or None) of each named parameter of
    ``fn``: its index among the positional arguments of a call (after self
    or cls for a method), None for a keyword-only one."""
    positional = (fn.args.posonlyargs + fn.args.args)[int(method):]
    defaults = [None] * (len(positional) - len(fn.args.defaults))
    yield from zip(range(len(positional)), (a.arg for a in positional),
                   defaults + fn.args.defaults)
    yield from ((None, a.arg, d) for a, d in zip(fn.args.kwonlyargs,
                                                 fn.args.kw_defaults))


def _passes(call, position, name):
    """Whether ``call`` passes the parameter ``name`` at ``position``: by
    keyword, by position, or possibly through *args or **kwargs."""
    return (any(kw.arg in (name, None) for kw in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or position is not None and len(call.args) > position)


def _program_calls(programs) -> dict:
    """The calls of the programs by the name of the callable they call."""
    calls = {}
    for tree in programs.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _public_functions(programs):
    """(file name, name, node, whether it is a method) of each public
    function and method of the package."""
    for file, tree in _package(programs):
        for name, node in _public_defs(tree):
            if isinstance(node, ast.FunctionDef):
                yield file, name, node, node not in tree.body and not any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in node.decorator_list)


def test_every_default_is_overridden_by_a_program(programs):
    # a defaulted parameter that no program call sets is a knob that only
    # tests turn: every one of a public function or method is passed by
    # some call, in the package or the benchmark, to a callable of its name
    calls = _program_calls(programs)
    unset = [f"{file}:{name}({arg})"
             for file, name, node, method in _public_functions(programs)
             for position, arg, default in _parameters(node, method)
             if default is not None
             and not any(_passes(call, position, arg)
                         for call in calls.get(name, []))]
    assert unset == []


# the parameters that every program call passes as one constant, kept
KEPT_ONE_VALUE_PARAMETERS = {
    # the per-branch map that null_to_spinor inverts: the benchmark's tests
    # read both branches through it
    "spinor.py:zeta_of(sign)",
    # a sample count
    "lorentz.py:sample_null_cone(m)",
}


def _passed_constant(call, position, name, default):
    """The repr of the constant that ``call`` binds to the parameter
    ``name`` at ``position``, its ``default`` when it passes none, or None
    for a value that is not a literal or that *args or **kwargs may
    carry."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return None
    value = next((kw.value for kw in call.keywords if kw.arg in (name, None)),
                 None)
    if value is None and position is not None and len(call.args) > position:
        value = call.args[position]
    try:
        return repr(ast.literal_eval(value if value is not None else default))
    except ValueError:      # not a literal, or no value at all
        return None


def test_no_parameter_takes_one_value(programs):
    # a parameter that every program call, in the package or the benchmark,
    # passes as the same constant is a knob that only tests turn: its value
    # belongs in the body; the parameters kept are named above with their
    # reasons
    calls = _program_calls(programs)
    one_value = []
    for file, name, node, method in _public_functions(programs):
        for position, arg, default in _parameters(node, method):
            values = {_passed_constant(call, position, arg, default)
                      for call in calls.get(name, [])}
            if len(values) == 1 and None not in values:
                one_value.append(f"{file}:{name}({arg})")
    assert sorted(one_value) == sorted(KEPT_ONE_VALUE_PARAMETERS)


def test_every_stored_attribute_is_read(programs):
    # an attribute that the package stores on self and no program reads
    # back is state kept for nothing
    read = {node.attr for tree in programs.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{file}:{node.attr}" for file, tree in _package(programs)
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and getattr(node.value, "id", None) == "self"
              and node.attr not in read]
    assert unread == []


def _calls(node, name):
    """The calls of the function ``name`` by its bare name within ``node``."""
    return [c for c in ast.walk(node) if isinstance(c, ast.Call)
            and getattr(c.func, "id", None) == name]


def test_one_row_loop_sums_every_node_integral(programs):
    # every node integral is summed by mass._row_sums, the one place that
    # reduces over phi first, so that no sphere path forks off it: _fsum
    # is called once, there; weighted, area and wang_mass call it; and no
    # other loop of mass.py multiplies a row out in place
    tree = programs[ROOT / "src" / "hypermass" / "mass.py"]
    defs = {node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)}
    row_sums = defs["_row_sums"]
    assert len(_calls(tree, "_fsum")) == len(_calls(row_sums, "_fsum")) == 1
    for name in ("weighted", "area", "wang_mass"):
        assert _calls(defs[name], "_row_sums"), name
    inside = set(map(id, ast.walk(row_sums)))
    row_loops = [loop for loop in ast.walk(tree)
                 if isinstance(loop, (ast.For, ast.While))
                 and any(isinstance(s, ast.AugAssign)
                         and isinstance(s.op, ast.Mult)
                         for s in ast.walk(loop))]
    assert row_loops and all(id(loop) in inside for loop in row_loops)


def test_one_node_record(programs):
    # the node pass returns the SurfaceMassData its integrals read, with
    # the check values beside it: no second record, no option that leaves
    # a check out, and X built from R0 in one place (wang_mass builds the
    # unit directions of the round sphere at R = 1 on its own)
    tree = programs[ROOT / "src" / "hypermass" / "mass.py"]
    classes = {node.name: node for node in tree.body
               if isinstance(node, ast.ClassDef)}
    assert "MassForms" not in classes
    builders = {fn.name for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef)
                and _calls(fn, "areal_to_minkowski")}
    assert builders == {"__post_init__", "wang_mass"}
    assert _calls(next(fn for fn in classes["SurfaceMassData"].body
                       if getattr(fn, "name", None) == "__post_init__"),
                  "areal_to_minkowski")
    assert list(inspect.signature(mass.mass_forms).parameters) == [
        "surface", "ambient"]


def test_node_pass_reads_graph_terms(programs):
    # the geometry side of the node pass takes graph terms, not a surface:
    # mass._node_pass decides the F0 pairing once (graph0 is graph exactly
    # when F0 is F), slices the grid's measure weights per block, and so
    # copies no surface or grid; H0 = H + dH is no field of the record
    from hypermass import geometry
    assert list(inspect.signature(geometry.surface_forms).parameters) == [
        "metric", "graph"]
    assert list(inspect.signature(geometry.paired_forms).parameters) == [
        "metric", "k", "graph", "graph0"]
    tree = programs[ROOT / "src" / "hypermass" / "mass.py"]
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Call) and "replace" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None))]
    assert "replace" not in {alias.name for node in ast.walk(tree)
                             if isinstance(node, ast.ImportFrom)
                             for alias in node.names}
    [record] = [node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "SurfaceMassData"]
    assert "H0" not in set(map(_member_name, record.body))



def _same_bits(got, want):
    """Whether ``got``, broadcast to the shape of ``want``, holds the same
    floats bit for bit."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype == np.float64 and
            np.broadcast_to(got, want.shape).tobytes() == want.tobytes())


def test_node_pass_metric_is_two_coefficients():
    # a node-pass metric is V = 1 + a r^2 - 2m/r as its (a, m): V, V' and
    # delta V = V - (1 + k2 r^2) with its derivative are written once, from
    # the coefficients, equal to their closed forms bit for bit, and delta
    # V is the float 0.0 in the H^3 of the metric's own curvature
    from hypermass import geometry
    assert [f.name for f in dataclasses.fields(geometry.MetricField)] == [
        "tag", "a", "m", "r_min", "components"]
    assert not hasattr(geometry, "_h3_difference")
    metrics = {(0.0, 0.0): geometry.euclidean_metric(),
               (0.25, 0.0): geometry.hyperbolic_ball_metric(0.5),
               (4.0, 0.3): geometry.ads_schwarzschild_metric(0.3, 2.0),
               (1.0, 0.0): geometry.ads_schwarzschild_metric(0.0, 1.0)}
    for (a, m), metric in metrics.items():
        assert (metric.a, metric.m) == (a, m), metric.tag
        for r in (1.5, np.array([[0.7], [3.0], [1e3]])):
            assert np.shape(metric.V(r)) == np.shape(metric.dV(r)) == (
                np.shape(r))
            assert _same_bits(metric.V(r), 1.0 + a * r * r - 2.0 * m / r)
            assert _same_bits(metric.dV(r),
                              2.0 * a * r + 2.0 * m / (r * r))
            for k2 in (a, 1.0):
                assert _same_bits(metric.delta_V(r, k2),
                                  (a - k2) * r * r - 2.0 * m / r)
                assert _same_bits(metric.delta_dV(r, k2),
                                  2.0 * (a - k2) * r + 2.0 * m / (r * r))
            if not m:
                for delta in (metric.delta_V(r, a), metric.delta_dV(r, a)):
                    assert type(delta) is float and delta == 0.0


def test_readme_module_rows_are_short():
    # a module row of the README's table says what the module is for in a
    # sentence or two; the rules a test pins live in that test
    rows = [line for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("| `hypermass.")]
    assert rows
    assert {row: len(row) for row in rows if len(row) > 400} == {}
