"""The package namespace and what importing the CLI loads."""

import ast
import importlib.util
import io
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import ssets

SRC = str(Path(ssets.__file__).resolve().parent.parent)
ROOT = Path(__file__).resolve().parent.parent

# the 96 public names of the package; a change here is a change of API
PUBLIC_NAMES = [
    "BasedPresentation", "CWReport", "ChainComplex", "ConsistencyError", "GenId",
    "GroupTable", "HomologyGroup", "HomotopyData", "HomotopyReport", "HornSpec",
    "KanReport", "MapReport", "NormalizationWarning", "NotKanError", "ParseError",
    "PiGroup", "PiSet", "Presentation", "PrismSimplex", "ProductPresentation",
    "SNFResult", "SemanticError", "Simplex", "SimplicialMap", "SsetError",
    "StructureError", "SubPresentation", "TruncationError", "ValidationReport",
    "adjoin_degeneracies", "all_group_tables", "apply_map", "apply_word", "boundary",
    "compact_simplex", "component_index", "compose", "cone", "constant_homotopy",
    "count_nondegenerate_top", "cw_report", "cyclic", "cylinder_endpoints",
    "degenerate", "delta_realization_report", "double_edge_circle",
    "dumps_presentation", "euler_characteristic", "fill_horn", "fill_horn_all",
    "format_simplex", "homology", "homology_of_complex", "homotopy_classes",
    "homotopy_from_cylinder", "homotopy_witness", "homotopy_witness_shifted", "horn",
    "horn_compatible", "horn_map", "identity_map", "incidence_export", "kan_check",
    "klein_four", "les_boundary", "load_group_table", "load_map", "load_presentation",
    "loads_group_table", "loads_map", "loads_presentation", "map_from_simplex", "nerve",
    "normalized_complex", "parse_simplex", "path_components", "pi_n", "pi_n_rel",
    "prism_decomposition", "product", "projections", "rel_homotopy_witness",
    "save_presentation", "simplex_key", "simplices_homotopic",
    "simplices_homotopic_rel", "smith_normal_form", "sphere_two_cell",
    "standard_simplex", "symmetric_3", "unnormalized_complex", "validate_map",
    "verify_homotopy_data", "vertex_inclusion", "vertex_sequence", "vertex_simplex",
]


def test_the_public_names_are_pinned():
    assert ssets.__all__ == PUBLIC_NAMES


def test_star_import_binds_no_submodule():
    ns = {}
    exec("import io\nfrom ssets import *", ns)
    assert ns["io"] is io
    assert not [n for n in ssets.__all__ if isinstance(getattr(ssets, n), ModuleType)]


def test_every_exported_name_resolves_both_ways():
    for name in ssets.__all__:
        ns = {}
        exec(f"from ssets import {name}", ns)
        assert ns[name] is getattr(ssets, name)
    # the package binds the function over the submodule of the same name
    assert "homology" in ssets.__all__
    assert ssets.homology is sys.modules["ssets.homology"].homology


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys, ssets.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_a_pi_job_without_site_loads_no_typing():
    # the engine's annotation names come from collections.abc, which re
    # loads anyway; under -S nothing else loads typing, so this job, which
    # runs the most modules, shows any import of it
    code = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('ssets.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(sorted(n for n in sys.modules if 'typing' in n), file=sys.stderr)"
    )
    argv = ["--format", "structured", "pi", "fixtures/nerve_z3.sset", "--n", "1"]
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(run.stdout)["order"] == 3
    assert run.stderr == "[]\n"


def test_the_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    # bench/trace_shim.py wraps package functions by name when it installs,
    # so removing one of them fails here and not only in a benchmark run
    out = tmp_path / "t.json"
    argv = ["--format", "structured", "validate", "fixtures/delta1.sset"]
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "bench/trace_shim.py", str(out), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    spans = json.loads(out.read_text())["spans"]
    assert "cli.main" in {s[0] for s in spans}


# A module binds each sibling it calls into at its top (``from . import
# kan``), which runs none of the sibling's code: the package runs it on its
# first attribute read.  The package's names ``homology`` and ``product``
# are functions, so those two modules are imported by name inside the
# functions that use them.  The one other import inside a function is
# ``json`` in the CLI's structured branch, so a text-format job loads none.
SIBLINGS_BY_NAME = {"homology", "product"}


def test_modules_bind_their_siblings_at_the_top():
    for path in sorted(Path(ssets.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), path.name)
        names = {
            n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
        }
        assert "TYPE_CHECKING" not in names, path.name
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    where = f"{path.name}:{node.lineno}"
                    if isinstance(node, ast.Import):
                        assert (path.name, fn.name) == ("cli.py", "_emit"), where
                        assert [a.name for a in node.names] == ["json"], where
                    else:
                        assert node.level == 1 and node.module in SIBLINGS_BY_NAME, where


def _calls_and_siblings(path):
    """The names a module calls, the siblings it binds, and those it imports names from."""
    calls, bound, named = set(), set(), set()
    for node in ast.walk(ast.parse(path.read_text(), path.name)):
        if isinstance(node, ast.Call):
            func = node.func
            calls.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                bound.update(alias.name for alias in node.names)
            else:
                named.add(node.module)
    return calls, bound, named


def test_only_morphism_and_the_map_reader_build_maps():
    # morphism holds every builder of a simplicial map, and io reads maps
    # from files; the modules on the CLI's paths compile no map code
    package = Path(ssets.__file__).parent
    found = {name: _calls_and_siblings(package / f"{name}.py") for name in ssets._EXPORTS}
    users = {name for name, (_, bound, named) in found.items() if "morphism" in bound | named}
    assert users == {"io"}
    builders = {name for name, (calls, _, _) in found.items() if "SimplicialMap" in calls}
    assert builders == {"io", "morphism"}
    _, bound, named = found["kan"]
    assert bound == set() and named == {"core"}


# Executed modules are plain ModuleType; a registered module whose code has
# not run is of a subclass.  type() reads the class without running anything.
EXECUTED = (
    "sorted(n for n, m in sys.modules.items()"
    " if n.startswith('ssets') and type(m) is types.ModuleType)"
)

# each subcommand on a fixture, and the engine modules its job executes
SUBCOMMAND_MODULES = [
    (["validate", "fixtures/delta2.sset"], "core io"),
    (["census", "fixtures/delta1.sset", "--dim", "5"], "core io"),
    (["homology", "fixtures/nerve_z2.sset", "--max-dim", "4"], "core homology io"),
    (["euler", "fixtures/sphere2.sset"], "core io"),
    (["kan", "fixtures/delta1.sset", "--max-dim", "2"], "core io kan"),
    (["pi0", "fixtures/circle2.sset"], "core homotopy io"),
    (["pi", "fixtures/nerve_z3.sset", "--n", "1"], "core groups homotopy io kan"),
    (["pirel", "fixtures/nerve_z4.sset", "--sub", "fixtures/nerve_z4_sub2.sset", "--n", "1"],
     "core homotopy io"),
    (["homotopic", "fixtures/nerve_z2.sset", "--n", "1", "g", "s0 *"], "core homotopy io"),
    (["product", "fixtures/delta1.sset", "fixtures/delta1.sset", "-o", "{out}"],
     "core io product"),
    (["nerve", "--table", "fixtures/z3.table", "--top-dim", "3", "-o", "{out}"],
     "constructions core groups io"),
    (["standard", "--boundary", "3", "-o", "{out}"], "constructions core io"),
    (["cw-report", "fixtures/sphere2.sset"], "core io report"),
    (["delta-report", "fixtures/cone.sset", "--max-dim", "2"], "core io report"),
    (["export-graph", "fixtures/delta2.sset"], "core io report"),
]


def test_each_deferred_module_has_the_spec_a_path_search_finds(monkeypatch):
    # the package builds each spec from its own directory; find_spec of a
    # name that sys.modules holds returns the module's own spec, so the
    # name is taken out for the search
    for name in ssets._EXPORTS:
        full = f"ssets.{name}"
        spec = ModuleType.__getattribute__(sys.modules[full], "__spec__")
        monkeypatch.delitem(sys.modules, full)
        found = importlib.util.find_spec(full)
        monkeypatch.undo()
        assert (spec.name, spec.origin, spec.cached, spec.parent) == (
            found.name, found.origin, found.cached, found.parent
        )
        assert (type(spec.loader), vars(spec.loader)) == (type(found.loader), vars(found.loader))
        assert spec.submodule_search_locations is found.submodule_search_locations is None
        assert spec.has_location and found.has_location
        assert spec == found


def test_importing_the_package_executes_no_submodule():
    code = f"import sys, types, ssets; print({EXECUTED})"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "['ssets']\n"


# argparse and what it imports: gettext, which imports locale
ARGPARSE_LOADS = (
    "sorted(n for n in sys.modules if n in ('argparse', 'gettext') or 'locale' in n)"
)
# json and its parts, which only a structured job imports
JSON_MODULES = ("json", "json.decoder", "json.encoder", "json.scanner", "_json")
JSON_LOADS = f"sorted(set({JSON_MODULES!r}) & set(sys.modules))"
FORMATS = ("structured", "text")

# runs the CLI as ``python -m ssets.cli`` does, then lists what it executed,
# what of argparse's imports it loaded and, before the harness imports
# json to report, what of json it loaded
RUN_CLI = f"""
import runpy, sys, types
try:
    runpy.run_module("ssets.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code in (0, 1), exc.code
report = [{EXECUTED}, {ARGPARSE_LOADS}, {JSON_LOADS}]
import json
print(json.dumps(report), file=sys.stderr)
"""


def _run_cli(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-c", RUN_CLI, *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(run.stderr)


@pytest.fixture(scope="module")
def bare_loads():
    """What of argparse's imports a bare interpreter has loaded."""
    code = f"import json, sys; print(json.dumps({ARGPARSE_LOADS}))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout)
    assert "argparse" not in loaded and "gettext" not in loaded
    return loaded


@pytest.mark.parametrize(
    "argv,modules", SUBCOMMAND_MODULES, ids=[argv[0] for argv, _ in SUBCOMMAND_MODULES]
)
def test_each_subcommand_executes_only_the_modules_it_uses(tmp_path, argv, modules, bare_loads):
    # every line here is canonical: the CLI reads it without argparse, and
    # writes its answer as text without json
    argv = [a.format(out=tmp_path / "out.sset") for a in argv]
    for fmt in FORMATS:
        ran, loaded, json_loaded = _run_cli(["--format", fmt, *argv])
        assert ran == ["ssets"] + [f"ssets.{m}" for m in modules.split()], fmt
        assert loaded == bare_loads, fmt
        if fmt == "text":
            assert json_loaded == []


def test_importing_the_cli_loads_no_argparse(bare_loads):
    code = f"import json, sys, ssets.cli; print(json.dumps({ARGPARSE_LOADS}))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == bare_loads


def test_a_line_left_to_argparse_also_runs_the_usage_module(bare_loads):
    ran, loaded, _ = _run_cli(["--format=structured", "validate", "fixtures/delta2.sset"])
    assert ran == ["ssets", "ssets.core", "ssets.io", "ssets.usage"]
    assert {"argparse", "gettext"} <= set(loaded)


# argparse's own exits: the CLI prints and exits as its parser alone does
PARSE_ONLY = "import sys\nfrom ssets import cli\ncli.build_parser().parse_args(sys.argv[1:])"


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["pi", "--help"], ["--format", "text", "census", "fixtures/delta1.sset"],
     ["census", "fixtures/delta1.sset", "--dim", "x"]],
    ids=" ".join,
)
def test_help_and_usage_errors_are_the_parser_s_own(argv):
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")  # argparse wraps to the terminal

    def run(*args):
        done = subprocess.run(
            [sys.executable, *args, *argv], cwd=ROOT, env=env, capture_output=True, text=True
        )
        return done.returncode, done.stdout, done.stderr

    got = run("-m", "ssets.cli")
    assert got == run("-c", PARSE_ONLY)
    assert got[0] in (0, 2) and "usage: ssets" in got[1] + got[2]


FIRST_TOUCH = """
import sys, threading, types
sys.setswitchinterval(1e-6)
import ssets as S

mod, attr, setup, unrun = sys.argv[1:]
args = None
exec(setup)  # builds a call's arguments before any thread starts
assert not [m for m in unrun.split() if type(sys.modules["ssets." + m]) is types.ModuleType]
barrier, errors, results = threading.Barrier(8), [], []

def touch(i):
    barrier.wait()
    try:
        m = getattr(S, mod) if i % 2 else sys.modules["ssets." + mod]
        value = getattr(m, attr)
        results.append(value if args is None else value(*args))
    except BaseException as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=touch, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
print(sum(t.is_alive() for t in threads), errors, all(r == results[0] for r in results))
"""

# setups that build a call's arguments from core, io and the module called
FIXTURES = ROOT / "fixtures"
DELTA1 = f"d1 = S.load_presentation({str(FIXTURES / 'delta1.sset')!r})\n"
DELTA2 = f"p = S.load_presentation({str(FIXTURES / 'delta2.sset')!r})\n"
# a 2-horn of delta2; building it runs kan
HORN = DELTA2 + (
    "z = p.simplices(2)[-1]\n"
    "h = S.HornSpec.from_faces(2, 1, {0: p.face(z, 0), 2: p.face(z, 2)})\n"
)
SQUARE = DELTA1 + "square = S.product(d1, d1)\n"
# maps are stand-ins with a map's attributes, so that building them runs no
# morphism
IDENTITY = DELTA2 + (
    "import types\n"
    "ident = {g: S.Simplex((), g) for g in p.all_generators()}\n"
    "f = types.SimpleNamespace(source=p, target=p, assignment=ident)\n"
)
CYLINDER = SQUARE + (  # the first projection of delta1 x delta1
    "import types\n"
    "first = {g: square.pair_of(g)[0] for g in square.all_generators()}\n"
    "hmap = types.SimpleNamespace(source=square, target=d1, assignment=first, name='pr1')\n"
)

FIRST_TOUCHES = [
    ("constructions", "nerve", "", "constructions"), ("homotopy", "pi_n", "", "homotopy"),
    ("kan", "kan_check", "", "kan"), ("report", "cw_report", "", "report"),
    ("io", "load_map", "", "io"),
    # constructions is first touched by horn_map's call into it
    ("morphism", "horn_map", HORN + "args = (p, h)", "constructions morphism"),
]


@pytest.mark.parametrize(
    "mod,attr,setup,unrun", FIRST_TOUCHES, ids=[f"{m}-{a}" for m, a, _, _ in FIRST_TOUCHES]
)
def test_threads_touching_a_deferred_module_first_all_see_it_whole(mod, attr, setup, unrun):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", FIRST_TOUCH, mod, attr, setup, unrun],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout == "0 [] True\n", out.stdout + out.stderr


FIRST_CALL = """
import pickle, sys, types
import ssets as S

setup, call, unrun = sys.argv[1:]
exec(setup)
ran = lambda: [m for m in unrun.split() if type(sys.modules["ssets." + m]) is types.ModuleType]
assert ran() == [], ran()
result = eval(call)
assert ran() == unrun.split(), ran()
sys.stdout.buffer.write(pickle.dumps(result))
"""


# a library function whose module has not run, or that calls into siblings
# its module binds but has not run: the setup that builds its arguments,
# the call, and the modules that the call itself must run first
FIRST_CALLS = [
    (HORN, "S.horn_map(p, h)", "constructions morphism"),
    (HORN, "S.map_from_simplex(p, z)", "constructions morphism"),
    (SQUARE, "S.projections(square)", "morphism"),
    (SQUARE, "S.vertex_inclusion(square, S.GenId(0, '1'))", "morphism"),
    ("S.PrismSimplex", "S.prism_decomposition(3)", "constructions"),
    ("S.PrismSimplex", "S.count_nondegenerate_top(2, 3)", "constructions"),
    (IDENTITY, "S.constant_homotopy(f, 2)", "morphism"),
    (CYLINDER, "S.cylinder_endpoints(hmap)", "morphism"),
    (CYLINDER, "S.homotopy_from_cylinder(hmap, 1)", "morphism"),
]


@pytest.mark.parametrize(
    "setup,call,unrun", FIRST_CALLS, ids=[call[2:call.index("(")] for _, call, _ in FIRST_CALLS]
)
def test_a_fresh_process_runs_what_a_library_function_imports_when_called(setup, call, unrun):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", FIRST_CALL, setup, call, unrun],
        env=env, capture_output=True, check=True, timeout=120,
    )
    ns = {"S": ssets}
    exec(setup, ns)
    assert pickle.loads(out.stdout) == eval(call, ns)


UNPICKLE = """
import pickle, sys, types
assert not [n for n in sys.modules if n.startswith("ssets")]
x, g, p = pickle.load(sys.stdin.buffer)
print(x, g, p.generator_counts(), p.validate().ok)
import ssets.homology, ssets.product
assert ssets.homology is sys.modules["ssets.homology"].homology
assert ssets.product is sys.modules["ssets.product"].product
assert isinstance(ssets.homology, types.FunctionType)
assert isinstance(ssets.product, types.FunctionType)
assert ssets.core is sys.modules["ssets.core"]
"""


def test_a_fresh_process_unpickles_through_the_deferred_modules():
    p = ssets.load_presentation(ROOT / "fixtures" / "nerve_z3.sset")
    x, g = p.simplices(2)[-1], p.generators_at(1)[-1]
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", UNPICKLE], input=pickle.dumps((x, g, p)),
        env=env, capture_output=True, check=True,
    )
    assert out.stdout.decode() == f"{x} {g} {p.generator_counts()} True\n"
