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

``golden/cli_unreached.json`` lists, as ``module.qualname``, every
function and method in ``src/ssets`` that none of the contract's runs
calls: the library surface the CLI never reaches.

After a deliberate output change, re-record the three files from the
stored argument lists with ``PYTHONPATH=src python tests/test_cli_contract.py``.
"""

import ast
import contextlib
import gc
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
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own exit, on --help or a usage error
            code = exc.code
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


def _command(run):
    """The subcommand a run names; ``--format=structured`` is one token."""
    return next(a for a in run["argv"] if a in PARSER["commands"])


@pytest.mark.parametrize("run", CONTRACT["runs"], ids=_argv_id)
def test_command_output_is_unchanged(run, tmp_path):
    got = run_in(_workdir(tmp_path, CONTRACT["documents"]), run["argv"])
    assert got == run, f"ssets {_argv_id(run)}"


def test_parser_structure_is_unchanged():
    assert parser_structure(cli.build_parser()) == PARSER


def _first_runs(key):
    first = {}
    for run in CONTRACT["runs"]:
        first.setdefault(key(run), run)
    return list(first.values())


FIRST_OF_EACH_EXIT = _first_runs(lambda run: run["exit"])
# the first run of each command, then of each exit code, once each
FIRST_RUNS = list(
    {_argv_id(run): run for run in _first_runs(_command) + FIRST_OF_EACH_EXIT}
    .values()
)


# a required option left out: argparse prints the usage and exits 2
USAGE_ERROR = ["--format", "text", "census", "fixtures/delta1.sset"]


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _subprocess(argv):
    done = _python("-m", "ssets.cli", *argv)
    return done.returncode, done.stdout, done.stderr


def test_the_contract_covers_every_subcommand():
    assert {_command(r) for r in CONTRACT["runs"]} == set(PARSER["commands"])


@pytest.mark.parametrize("run", FIRST_RUNS, ids=_argv_id)
def test_python_m_ssets_cli_keeps_the_contract(run, tmp_path):
    # a fresh interpreter: covers what importing the CLI does, and the
    # process entry's exit with each code
    got = run_in(_workdir(tmp_path, CONTRACT["documents"]), run["argv"], _subprocess)
    assert got == run, f"python -m ssets.cli {_argv_id(run)}"


def test_python_m_ssets_cli_exits_on_a_usage_error_as_main_does(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
    workdir = _workdir(tmp_path, CONTRACT["documents"])
    want = run_in(workdir, USAGE_ERROR)
    assert want["exit"] == 2 and want["stderr"].startswith("usage: ssets census")
    assert run_in(workdir, USAGE_ERROR, _subprocess) == want


# runs the CLI as ``python -m ssets.cli`` does; an atexit hook, which runs
# before the collections of interpreter finalization, reports the freeze count
FREEZE_AT_EXIT = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(f"frozen {gc.get_freeze_count()}", file=sys.stderr))
runpy.run_module("ssets.cli", run_name="__main__")
"""


def _frozen_at_exit(argv):
    done = _python("-c", FREEZE_AT_EXIT, *argv)
    stderr, _, count = done.stderr.rpartition("frozen ")
    return done.returncode, done.stdout, (stderr, int(count))


@pytest.mark.parametrize(
    "argv", [run["argv"] for run in FIRST_OF_EACH_EXIT] + [USAGE_ERROR], ids=" ".join
)
def test_only_the_process_entry_freezes_the_collector(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    workdir = _workdir(tmp_path, CONTRACT["documents"])
    state = gc.get_freeze_count(), gc.isenabled()
    want = run_in(workdir, argv)
    assert (gc.get_freeze_count(), gc.isenabled()) == state  # main leaves gc alone
    got = run_in(workdir, argv, _frozen_at_exit)
    stderr, frozen = got["stderr"]
    assert frozen > 0, f"nothing frozen at the exit of {' '.join(argv)}"
    assert {**got, "stderr": stderr} == want


def _defs(path):
    """Each function and method of a module, by the first line of its code object.

    A decorated def's code starts at its first decorator.  Lambdas and
    comprehensions are left out, as their code objects differ between
    Python versions.
    """
    defs = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[first] = f"{path.stem}.{prefix}{child.name}"
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), path.name), "")
    return defs


def unreached(run_all):
    """``run_all()``, and the sorted defs of ``src/ssets`` that it never calls."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        result = run_all()
    finally:
        sys.setprofile(None)
    reached = {(Path(f).resolve(), line) for f, line in called}
    names = [
        name
        for path in (ROOT / "src" / "ssets").resolve().glob("*.py")
        for line, name in _defs(path).items()
        if (path, line) not in reached
    ]
    return result, sorted(names)


if __name__ == "__main__":
    import tempfile

    def run_all():
        with tempfile.TemporaryDirectory() as tmp:
            return [
                run_in(_workdir(Path(tmp, str(i)), CONTRACT["documents"]), run["argv"])
                for i, run in enumerate(CONTRACT["runs"])
            ]

    runs, never = unreached(run_all)
    contract = {"documents": CONTRACT["documents"], "runs": runs}
    parser = parser_structure(cli.build_parser())
    for name, doc in (
        ("cli_contract.json", contract), ("cli_parser.json", parser), ("cli_unreached.json", never)
    ):
        (GOLDEN / name).write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n")
