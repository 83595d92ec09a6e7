"""Byte-for-byte outputs of the homotopy commands, pinned from recorded runs.

``golden/homotopy_cli.json`` holds, for each run, the argument list and
the exit code, stdout and stderr that ``ssets`` produced for it.  The
runs cover ``pi`` on the Z/2, Z/3 and Z/4 nerves (n = 1, 2), the
``sphere2`` obstruction, ``pirel`` on the Z/4 pair (n = 1, 2) and
``homotopic`` on the Z/2 nerve, all with ``--format structured``.
"""

import json
from pathlib import Path

import pytest

from ssets import cli

ROOT = Path(__file__).parent.parent
RUNS = json.loads((Path(__file__).parent / "golden" / "homotopy_cli.json").read_text())


@pytest.mark.parametrize("run", RUNS, ids=lambda r: " ".join(r["argv"][2:]))
def test_homotopy_command_output_is_unchanged(run, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main(run["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        run["exit"], run["stdout"], run["stderr"],
    )
