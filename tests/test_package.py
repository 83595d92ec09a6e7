"""The package namespace and what importing the CLI loads."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

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
