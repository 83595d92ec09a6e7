"""The byte-level contract of every ``ssets`` subcommand, pinned from recorded runs.

``golden/cli_contract.json`` holds, for each run, the argument list, the
exit code, stdout, stderr and the SHA-256 of every file the run wrote.
The runs cover every subcommand on the fixtures where it applies (the
README tour among them, and ``pi0`` on every fixture file), one "no"
(exit 1) for each command that can say it, and each kind of failure (exit 2): a missing file, a parse
error, truncation and refused input.  Each run works in a fresh
directory that holds a copy of ``fixtures/`` and the documents the
golden file stores, so paths are relative and nothing is written into
the checkout.

``golden/cli_parser.json`` pins the parser's structure (its help text is
formatted differently across Python versions): per subcommand, its help,
handler, arguments and mutually exclusive groups.

After a deliberate output change, re-record both files from their stored
argument lists with ``PYTHONPATH=src python tests/test_cli_contract.py``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from argparse import _SubParsersAction
from hashlib import sha256
from pathlib import Path

import pytest

from ssets import cli

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
CONTRACT = json.loads((GOLDEN / "cli_contract.json").read_text())
PARSER = json.loads((GOLDEN / "cli_parser.json").read_text())
FIXTURES = {f"fixtures/{f.name}": f.read_bytes() for f in (ROOT / "fixtures").iterdir()}


def _workdir(path, documents):
    (path / "fixtures").mkdir(parents=True)
    for name, data in {**FIXTURES, **{k: v.encode() for k, v in documents.items()}}.items():
        (path / name).write_bytes(data)
    return path


def _files(path):
    return {
        f.relative_to(path).as_posix(): sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.rglob("*"))
        if f.is_file()
    }


def in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_in(cwd, argv, run=in_process):
    """Run ``argv`` in ``cwd`` through ``run(argv) -> (exit, stdout, stderr)``."""
    before = _files(cwd)
    old = os.getcwd()
    os.chdir(cwd)
    try:
        code, out, err = run(argv)
    finally:
        os.chdir(old)
    written = {k: v for k, v in _files(cwd).items() if before.get(k) != v}
    return {"argv": argv, "exit": code, "stdout": out, "stderr": err, "written": written}


def _action(a):
    return {
        "option_strings": a.option_strings,
        "dest": a.dest,
        "nargs": a.nargs,
        "type": getattr(a.type, "__name__", None),
        "required": a.required,
        "default": a.default,
        "choices": list(a.choices) if a.choices is not None else None,
        "metavar": a.metavar,
        "help": a.help,
    }


def parser_structure(parser):
    """What a parser accepts, without its help formatting.

    Arguments keep their declaration order, which shows in the list of
    missing required arguments.
    """
    subs = next(a for a in parser._actions if isinstance(a, _SubParsersAction))
    helps = {c.dest: c.help for c in subs._choices_actions}

    def shape(p):
        return {
            "arguments": [_action(a) for a in p._actions if a is not subs],
            "groups": [
                {"required": g.required, "dests": [a.dest for a in g._group_actions]}
                for g in p._mutually_exclusive_groups
            ],
            "defaults": {k: getattr(v, "__name__", v) for k, v in p._defaults.items()},
        }

    top = shape(parser)
    top["command"] = {"required": subs.required, "dest": subs.dest}
    commands = {
        name: {"help": helps[name], **shape(p)} for name, p in subs.choices.items()
    }
    return json.loads(json.dumps({"top": top, "commands": commands}))


def _argv_id(run):
    return " ".join(run["argv"])


@pytest.mark.parametrize("run", CONTRACT["runs"], ids=_argv_id)
def test_command_output_is_unchanged(run, tmp_path):
    got = run_in(_workdir(tmp_path, CONTRACT["documents"]), run["argv"])
    assert got == run, f"ssets {_argv_id(run)}"


def test_parser_structure_is_unchanged():
    assert parser_structure(cli.build_parser()) == PARSER


def _first_run_of_each_command():
    first = {}
    for run in CONTRACT["runs"]:
        first.setdefault(run["argv"][2], run)
    return list(first.values())


def _subprocess(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", "ssets.cli", *argv], env=env, capture_output=True, text=True
    )
    return done.returncode, done.stdout, done.stderr


def test_the_contract_covers_every_subcommand():
    assert {r["argv"][2] for r in CONTRACT["runs"]} == set(PARSER["commands"])


@pytest.mark.parametrize("run", _first_run_of_each_command(), ids=_argv_id)
def test_python_m_ssets_cli_keeps_the_contract(run, tmp_path):
    # a fresh interpreter: covers what importing the CLI does
    got = run_in(_workdir(tmp_path, CONTRACT["documents"]), run["argv"], _subprocess)
    assert got == run, f"python -m ssets.cli {_argv_id(run)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        runs = [
            run_in(_workdir(Path(tmp, str(i)), CONTRACT["documents"]), run["argv"])
            for i, run in enumerate(CONTRACT["runs"])
        ]
    contract = {"documents": CONTRACT["documents"], "runs": runs}
    parser = parser_structure(cli.build_parser())
    for name, doc in (("cli_contract.json", contract), ("cli_parser.json", parser)):
        (GOLDEN / name).write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n")
