"""The CLI's canonical reader against argparse.

``cli.main`` reads a canonical command line with ``cli.read_canonical``
and hands every other line to ``cli.build_parser()``.  Whatever the
line, the reader must not raise, and it either declines (``None``) or
gives the namespace argparse gives.  Canonical lines are drawn from the
pinned parser structure (``golden/cli_parser.json``), not from the
command table the reader reads, and every one of them must be read;
hostile lines are canonical ones with hard tokens put in, swapped in,
repeated or taken out.
"""

import contextlib
import io
import json
import shlex
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ssets import cli

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
CONTRACT = json.loads((GOLDEN / "cli_contract.json").read_text())
COMMANDS = json.loads((GOLDEN / "cli_parser.json").read_text())["commands"]
PARSER = cli.build_parser()

SPELLINGS = sorted(
    {s for c in COMMANDS.values() for a in c["arguments"] for s in a["option_strings"]}
)
# values the reader must leave to argparse, or read exactly as it does
VALUES = [
    "-1", "-0", "007", "", " 3", "3_0", "-3_0", "+3", "٣", "-٣", "9" * 5000,
    "-" + "9" * 5000, "s0 *", "a=b", "-", "--", "-ofile", "--dim=3", "-h",
]
HARD = VALUES + [
    "--max", "--help", "--format", "--format=structured", "structured", "text", "3",
    *COMMANDS, *SPELLINGS,
]
# positionals and string values that argparse reads as they are
WORDS = ["fixtures/delta1.sset", "g", "s0 *", "", "x=y", "census", "3", "_", "٣"]


def parse(argv):
    """``vars()`` of argparse's namespace, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


def option(draw, a, hard=False):
    """One of an option's spellings and as many values as it takes."""
    chunk = [draw(st.sampled_from(a["option_strings"]))]
    for _ in range(0 if a["nargs"] == 0 else a["nargs"] or 1):
        chunk.append(value(draw, a["type"], hard))
    return chunk


def value(draw, kind, hard):
    if hard and draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(VALUES))
    if kind == "int":
        return str(draw(st.integers(-10**30, 10**30)))
    return draw(st.sampled_from(WORDS))


@st.composite
def canonical_lines(draw, name=None, hard=False):
    """A canonical line: each argument of one subcommand, options in any order.

    With ``hard``, about a quarter of the values and positionals, and of
    the ``--format`` values, are hard ones.
    """
    name = name or draw(st.sampled_from(sorted(COMMANDS)))
    spec = COMMANDS[name]
    one_of = {d for g in spec["groups"] for d in g["dests"]}
    chosen = draw(st.sampled_from(sorted(one_of))) if one_of else None
    positionals, options = [], []
    for a in spec["arguments"]:
        if a["dest"] == "help":
            continue
        if not a["option_strings"]:
            positionals.append([value(draw, None, hard)])
        elif a["dest"] == chosen or (
            a["dest"] not in one_of and (a["required"] or draw(st.booleans()))
        ):
            options.append(option(draw, a, hard))
    # options between and around the positionals, which keep their order
    slots = draw(st.lists(st.integers(0, len(positionals)), min_size=len(options),
                          max_size=len(options)))
    argv = draw(st.sampled_from([[], ["--format", "text"], ["--format", "structured"]]))
    if argv and hard:
        argv = ["--format", value(draw, None, hard)]
    argv = argv + [name]
    for i in range(len(positionals) + 1):
        argv += [t for chunk, slot in zip(options, slots) if slot == i for t in chunk]
        argv += positionals[i] if i < len(positionals) else []
    return argv


@st.composite
def hostile_lines(draw):
    """A line with hard values, and a few tokens or options put in or cut."""
    # the subcommands with a one-of group, and its members, come up more
    # often: both members at once, or none, is an error
    name = draw(st.sampled_from(sorted(COMMANDS) + 2 * ["nerve", "standard"]))
    argv = draw(canonical_lines(name, hard=True))
    options = [a for a in COMMANDS[name]["arguments"] if a["option_strings"]]
    grouped = [a for a in options if any(a["dest"] in g["dests"] for g in COMMANDS[name]["groups"])]
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from("token option delete cut repeat".split()))
        i = draw(st.integers(0, len(argv)))
        if op == "token":
            argv.insert(i, draw(st.one_of(st.sampled_from(HARD), st.text(max_size=3))))
        elif op == "option":  # an option of the line's subcommand, maybe once more
            argv[i:i] = option(draw, draw(st.sampled_from(options + 2 * grouped)))
        elif op == "delete":
            del argv[i:i + 1]
        elif op == "cut":  # an option with its value, or a value and the next token
            del argv[i:i + 2]
        else:
            argv[i:i] = argv[i:i + 2]
    return argv


@settings(max_examples=300, deadline=None)
@given(canonical_lines())
def test_every_canonical_line_is_read_as_argparse_reads_it(argv):
    got = cli.read_canonical(argv)
    assert got is not None, argv
    assert vars(got) == parse(argv)


@settings(max_examples=1000, deadline=None)
@given(hostile_lines())
def test_any_other_line_is_read_as_argparse_reads_it_or_left_to_argparse(argv):
    got = cli.read_canonical(argv)
    if got is not None:
        assert vars(got) == parse(argv)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(HARD), st.text(max_size=4)), max_size=8))
def test_the_reader_never_raises(argv):
    got = cli.read_canonical(argv)
    if got is not None:
        assert vars(got) == parse(argv)


def test_the_reader_declines_what_it_must():
    # each line here is read by argparse (or refused by it), never here
    for line in [
        "", "-h", "--help", "validate -h", "validate -", "--format=structured validate f",
        "--format json validate f", "--format text --format text validate f",
        "validate f --format text", "census f --di 5", "census f --dim=5",
        "census --dim 5 -- f", "census f --dim 5 --dim 5", "census f --dim +3",
        "census f --dim ٣", "census f --dim 3_0", "census f --dim -3_0",
        "census f", "census f g --dim 5",
        "product a -ofile b", "pi f --n 1 --basepoint -v", "standard --horn 2 -o x",
        "nerve --cyclic 3 --table t --top-dim 2 -o x", "nerve --top-dim 2 -o x",
    ]:
        assert cli.read_canonical(line.split()) is None, line
    # an int past int()'s limit on digits (Python 3.11, and 3.10 from 3.10.7)
    # is an error in argparse, and so left to it
    argv = ["census", "f", "--dim", "9" * 5000]
    got = cli.read_canonical(argv)
    assert (got and vars(got)) == parse(argv)


def test_the_contract_and_the_readme_tour_take_the_reader():
    # every tour line and every recorded run but one is canonical; that one
    # is left to argparse, so that the contract reaches the usage module
    tour = [
        shlex.split(line.partition("#")[0])[1:]
        for line in (ROOT / "README.md").read_text().splitlines()
        if line.startswith("ssets ")
    ]
    assert len(tour) == len(COMMANDS) + 2  # nerve and standard appear twice
    runs = [run["argv"] for run in CONTRACT["runs"]]
    declined = ["--format=structured", "validate", "fixtures/delta2.sset"]
    assert declined in runs and cli.read_canonical(declined) is None
    for argv in [argv for argv in runs if argv != declined] + tour:
        got = cli.read_canonical(argv)
        assert got is not None, argv
        assert vars(got) == parse(argv)
