"""The package namespace and what importing the CLI loads."""

import io
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import ssets

SRC = str(Path(ssets.__file__).resolve().parent.parent)


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
