"""Byte-for-byte outputs of the homotopy commands, pinned from recorded runs.

``golden/homotopy_cli.json`` holds, for each run, the argument list and
the exit code, stdout and stderr that ``ssets`` produced for it.  The
runs cover ``pi`` on the Z/2, Z/3 and Z/4 nerves (n = 1, 2), the
``sphere2`` obstruction, ``pirel`` on the Z/4 pair (n = 1, 2) and
``homotopic`` on the Z/2 nerve, all with ``--format structured``.
``golden/pi0_cli.json`` holds ``pi0`` on every fixture file, in both
``--format text`` and ``--format structured``; the files that are not
presentations pin the parse error and exit code 2.
"""

import json
from pathlib import Path

import pytest

from ssets import cli

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
RUNS = json.loads((GOLDEN / "homotopy_cli.json").read_text())
PI0_RUNS = json.loads((GOLDEN / "pi0_cli.json").read_text())


@pytest.mark.parametrize("run", RUNS, ids=lambda r: " ".join(r["argv"][2:]))
def test_homotopy_command_output_is_unchanged(run, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main(run["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        run["exit"], run["stdout"], run["stderr"],
    )


@pytest.mark.parametrize("run", PI0_RUNS, ids=lambda r: " ".join(r["argv"][1:]))
def test_pi0_output_is_unchanged(run, capsys, monkeypatch):
    test_homotopy_command_output_is_unchanged(run, capsys, monkeypatch)
