"""Seeded mutation fuzzing of the presentation parser.

Byte and token mutations of the shipped fixtures must either load or
raise an ``SsetError`` subclass.  No ``TypeError``, ``IndexError``,
``AttributeError`` or bare ``ValueError`` may escape from the parser or
from the value types it builds.  A mutant that loads must survive a
save/load round trip unchanged.  Read from a file one line at a time, a
mutant must give what its whole text gives, whatever its line breaks.
Each mutant's outcome is pinned, byte for byte, in ``golden/parser_mutants.json``.

The map and group-table readers are pinned the same way, in
``golden/reader_mutants.json``: mutants of ``collapse.smap`` read as a
string against the ``delta2`` and ``delta1`` fixtures and from a file
beside a copy of the fixtures (so its ``source`` and ``target`` lines
are followed), and mutants of ``z3.table``.  Re-record both files with
``PYTHONPATH=src python tests/test_parser_fuzz.py``.
"""

import json
import random
import re
import warnings
from collections import Counter
from itertools import chain
from hashlib import sha256
from pathlib import Path

import pytest

from helpers import rebuilt, two_pass_read_presentation
from ssets import Presentation, SsetError, format_simplex
from ssets.io import (
    dumps_presentation,
    load_map,
    load_presentation,
    loads_group_table,
    loads_map,
    loads_presentation,
    save_presentation,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "parser_mutants.json"
READER_GOLDEN = Path(__file__).parent / "golden" / "reader_mutants.json"
SOURCES = [p.read_text() for p in sorted(FIXTURES.glob("*.sset"))]
CASES = 2000
# Among this seed's mutants are two over-long degeneracy operators, which
# once escaped the parser as a bare ValueError from int().
SEED = 2

# Tokens that sit on the parser's decision points: directives, separators,
# operator spellings, dimensions and counts at and past their limits (the
# last one has more digits than int() converts).
TOKENS = (
    "name", "style", "delta", "top_dim", "generators", "faces", ":", ";",
    "#", "s0", "s1", "s2", "s3", "s9", "s00", "s-1", "s", "0", "1", "2",
    "3", "-1", "99", "*", "v", "0.1", "g,g", "", "s" + "9" * 5000,
)
BYTES = "s0123456789 :;#.,*-\n\t\x00é"
# line breaks str.splitlines splits at, one of each kind: \n, \r, \r\n, vertical
# tab, form feed, file separator, next line, line separator
LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")


def _mutate_bytes(rng, text):
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:i] + rng.choice(BYTES) + text[i:]
    if kind == 1:
        return text[:i] + text[i + 1 :]
    return text[:i] + rng.choice(BYTES) + text[i + 1 :]


def _mutate_tokens(rng, text, tokens=TOKENS):
    lines = text.splitlines()
    if not lines:
        return rng.choice(tokens)
    k = rng.randrange(len(lines))
    kind = rng.randrange(5)
    if kind == 0:
        del lines[k]
    elif kind == 1:
        lines.insert(rng.randrange(len(lines) + 1), lines[k])
    else:
        words = lines[k].split(" ")
        j = rng.randrange(len(words))
        if kind == 2:
            words.insert(j, rng.choice(tokens))
        else:
            words[j] = rng.choice(tokens if kind == 3 else text.split())
        lines[k] = " ".join(words)
    return "\n".join(lines) + "\n"


def mutants(seed, count, sources=SOURCES, tokens=TOKENS):
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(sources)
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.5:
                text = _mutate_bytes(rng, text)
            else:
                text = _mutate_tokens(rng, text, tokens)
        yield text


def test_parser_mutants_load_or_raise_sset_errors():
    loaded = refused = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for text in mutants(SEED, CASES):
            try:
                p = loads_presentation(text)
            except SsetError:
                refused += 1
                continue
            loaded += 1
            assert loads_presentation(dumps_presentation(p)) == p, text
            # the loader checks its own tables; the constructor must agree
            q = rebuilt(p)
            assert (q, q.name) == (p, p.name), text
    # both outcomes are exercised, so the mutations reach past the lexer
    assert loaded > CASES // 20 and refused > CASES // 20


def _outcome(load):
    """What a load gives: the presentation and its name, or the error; and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            p = load()
        except SsetError as exc:
            result = (type(exc), str(exc), getattr(exc, "line", None))
        else:
            result = (p, p.name)
    return result, [(w.category, str(w.message)) for w in caught]


def test_file_reader_matches_the_string_reader(tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "mutant.sset"
    saved = 0
    for i, text in enumerate(mutants(SEED, CASES)):
        if i % 2:  # each line break drawn at random; \r then \n reads as one
            first, *rest = text.split("\n")
            text = first + "".join(rng.choice(LINE_BREAKS) + r for r in rest)
        path.write_text(text, newline="")
        from_file = _outcome(lambda: load_presentation(path))
        assert from_file == _outcome(
            lambda: loads_presentation(path.read_text(), name=path.stem)
        ), text
        p = from_file[0][0]
        if isinstance(p, Presentation):
            save_presentation(p, path)
            assert path.read_bytes() == dumps_presentation(p).encode()
            saved += 1
    assert CASES // 20 < saved < CASES - CASES // 20


def _edit(rng, lines):
    """One edit of a document's lines, of a kind that decides what the loader defers."""
    names = {}  # dimension -> generator names, from the generators lines
    for line in lines:
        head, _, rest = line.partition(" ")
        if head == "generators":
            dim, _, listed = rest.partition(":")
            names.setdefault(int(dim), []).extend(listed.split())
    faces = [k for k, line in enumerate(lines) if line.startswith("faces ")]
    declared = [k for k, line in enumerate(lines) if line.startswith("generators")]
    kind = rng.randrange(9)
    if kind == 0 or not faces:  # a generators line moved after a faces line
        line = lines.pop(rng.choice(declared))
        lines.insert(rng.randint(faces[0] if faces else 0, len(lines)), line)
    elif kind == 1:  # a faces line repeated
        lines.insert(rng.randint(0, len(lines)), lines[rng.choice(faces)])
    elif kind == 2:  # a generators line repeated
        lines.insert(rng.randint(0, len(lines)), lines[rng.choice(declared)])
    elif kind == 3:  # a faces line dropped
        del lines[rng.choice(faces)]
    elif kind == 4:  # a name declared again in another dimension, late in the file
        dim = rng.choice(list(names))
        other = rng.choice([d for d in range(max(names) + 2) if d != dim])
        line = f"generators {other} : {rng.choice(names[dim])}"
        lines.insert(rng.randint(len(lines) // 2, len(lines)), line)
    else:  # a word that is not canonical, a name that is not known, or a count off
        k = rng.choice(faces)
        gen, _, entries = lines[k][len("faces "):].partition(" : ")
        entries = entries.split(" ; ")
        i = rng.randrange(len(entries))
        below = names.get(len(entries) - 4)  # two dimensions below the entries'
        if kind == 5 and below:
            entries[i] = f"{rng.choice(['s0 s0', 's0 s1', 's1 s0'])} {rng.choice(below)}"
        elif kind == 6:
            entries[i] = rng.choice(["zz", rng.choice(names[0])])
        elif kind == 7:
            gen = rng.choice(["zz", rng.choice(names[0])])
        elif rng.random() < 0.5:
            entries.insert(i, entries[i])
        else:
            del entries[i]
        lines[k] = f"faces {gen} : {' ; '.join(entries)}"


def reordered_documents(seed, count):
    """Fixture documents with their lines permuted and edited, seeded."""
    rng = random.Random(seed)
    for _ in range(count):
        lines = rng.choice(SOURCES).splitlines()
        for _ in range(rng.randint(1, 3)):
            _edit(rng, lines)
        if rng.random() < 0.25:
            rng.shuffle(lines)
        else:
            for _ in range(rng.randint(0, 3)):
                lines.insert(rng.randint(0, len(lines) - 1), lines.pop())
        yield "\n".join(lines) + "\n"


def test_one_pass_loader_matches_the_two_pass_reference():
    # the same presentation and name, or the same error class, message and
    # line, and the same warnings in the same order; the parser mutants add
    # comments, line breaks and bad names, which the reference reads with
    # its own code
    seen = Counter()
    for text in chain(reordered_documents(SEED, CASES), mutants(SEED, CASES)):
        got = _outcome(lambda: loads_presentation(text))
        assert got == _outcome(lambda: two_pass_read_presentation((text,), None)), text
        (result, message, *_), warned = got
        if isinstance(result, Presentation):
            seen["loaded"] += 1
        else:  # an error by its message up to the first quoted name
            seen[re.sub(r"line \d+: ", "", message).split(" '")[0]] += 1
        seen["warned"] += bool(warned)
    # every deferral rule decides some outcomes
    for outcome in (
        "loaded", "warned", "duplicate face entries for", "ambiguous generator name",
        "faces given for unknown or zero-dimensional generator",
        "expression", "duplicate generator", "generator",
    ):
        assert seen[outcome] >= 10, (outcome, seen)


def recorded_outcome(text):
    """The loader's outcome on a text, as ``golden/parser_mutants.json`` stores it.

    A refused text gives its error class, message and line; a loaded one
    the SHA-256 of its canonical document and its name.  Both give the
    warnings raised on the way, in order.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            p = loads_presentation(text)
        except SsetError as exc:
            out = {"error": type(exc).__name__, "message": str(exc),
                   "line": getattr(exc, "line", None)}
        else:
            out = {"sha256": sha256(dumps_presentation(p).encode()).hexdigest(), "name": p.name}
    out["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    return out


def test_parser_mutant_outcomes_are_unchanged():
    expected = json.loads(GOLDEN.read_text())
    assert len(expected) == CASES
    changed = [
        (i, want, got)
        for i, (text, want) in enumerate(zip(mutants(SEED, CASES), expected))
        if (got := recorded_outcome(text)) != want
    ]
    assert not changed, f"{len(changed)} mutants changed outcome, first (index, recorded, now): {changed[0]}"


# -- the map and group-table readers -------------------------------------------

READER_CASES = 500
MAP_TOKENS = (
    "name", "source", "target", "assign", ":", ";", "#", "s0", "s1", "s2",
    "s9", "s", "0", "1", "2", "0.1", "0.2", "1.2", "0.1.2", "delta1.sset",
    "delta2.sset", "z3.table", "-1", "*", "",
)
TABLE_TOKENS = (
    "elements", "table", ":", ";", "#", "e", "g", "g2", "x", "e,g", "0", "", "s0",
)


def _pin(load, digest, errors=SsetError, workdir=None):
    """A reader's outcome: the error class, message and line, or ``digest(result)``.

    ``workdir`` is spelled ``<dir>`` in messages, so the pins do not depend on it.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = digest(load())
        except errors as exc:
            message = str(exc).replace(str(workdir), "<dir>") if workdir else str(exc)
            out = {"error": type(exc).__name__, "message": message,
                   "line": getattr(exc, "line", None)}
    out["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    return out


def _map_digest(m):
    lines = [m.source.name, m.target.name] + [
        f"{g.dim} {g.name} : {format_simplex(x)}" for g, x in sorted(m.assignment.items())
    ]
    return {"sha256": sha256("\n".join(lines).encode()).hexdigest(), "name": m.name}


def _table_digest(t):
    return {"sha256": sha256(repr(t).encode()).hexdigest()}


def reader_outcomes(workdir):
    """Every reader pin, recomputed; ``workdir`` is an empty directory."""
    fixtures = workdir / "fixtures"
    fixtures.mkdir()
    for f in FIXTURES.iterdir():
        (fixtures / f.name).write_bytes(f.read_bytes())
    path = fixtures / "collapse.smap"
    source = load_presentation(FIXTURES / "delta2.sset")
    target = load_presentation(FIXTURES / "delta1.sset")
    maps = list(mutants(SEED, READER_CASES, [path.read_text()], MAP_TOKENS))
    tables = mutants(SEED, READER_CASES, [(FIXTURES / "z3.table").read_text()], TABLE_TOKENS)

    def from_file(text):
        path.write_text(text)
        return load_map(path)

    # a source or target line may name no file, or no file that can be opened
    file_errors = (SsetError, OSError, ValueError)
    return {
        "map": [_pin(lambda: loads_map(t, source, target), _map_digest) for t in maps],
        "map_file": [
            _pin(lambda: from_file(t), _map_digest, file_errors, workdir) for t in maps
        ],
        "table": [_pin(lambda: loads_group_table(t), _table_digest) for t in tables],
    }


@pytest.fixture(scope="module")
def reader_pins(tmp_path_factory):
    return reader_outcomes(tmp_path_factory.mktemp("readers"))


@pytest.mark.parametrize("reader", ["map", "map_file", "table"])
def test_map_and_table_reader_outcomes_are_unchanged(reader, reader_pins):
    expected = json.loads(READER_GOLDEN.read_text())
    assert list(expected) == list(reader_pins)
    assert len(expected[reader]) == READER_CASES
    changed = [
        (i, want, now)
        for i, (want, now) in enumerate(zip(expected[reader], reader_pins[reader]))
        if want != now
    ]
    assert not changed, f"{len(changed)} mutants changed outcome, first (index, recorded, now): {changed[0]}"


def test_map_file_reports_a_bad_line_no_later_than_the_string_reader(reader_pins):
    # load_map checks every line's syntax in order before it opens the source
    # and target files, so neither a file error nor a later line comes first
    for i, (text, file) in enumerate(zip(reader_pins["map"], reader_pins["map_file"])):
        if text.get("error") == "ParseError" and text["line"] is not None:
            assert file.get("error") == "ParseError", (i, text, file)
            assert file["line"] <= text["line"], (i, text, file)


if __name__ == "__main__":
    import tempfile

    # one outcome a line
    GOLDEN.write_text("[\n" + ",\n".join(
        json.dumps(recorded_outcome(text), sort_keys=True) for text in mutants(SEED, CASES)
    ) + "\n]\n")
    with tempfile.TemporaryDirectory() as tmp:
        outcomes = reader_outcomes(Path(tmp))
    READER_GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(reader)}: [\n" + ",\n".join(json.dumps(o, sort_keys=True) for o in pins) + "\n]"
        for reader, pins in outcomes.items()
    ) + "\n}\n")
