"""Seeded mutation fuzzing of the presentation parser.

Byte and token mutations of the shipped fixtures must either load or
raise an ``SsetError`` subclass.  No ``TypeError``, ``IndexError``,
``AttributeError`` or bare ``ValueError`` may escape from the parser or
from the value types it builds.  A mutant that loads must survive a
save/load round trip unchanged.  Read from a file one line at a time, a
mutant must give what its whole text gives, whatever its line breaks.
Each mutant's outcome is pinned, byte for byte, in ``golden/parser_mutants.json``.
"""

import json
import random
import warnings
from hashlib import sha256
from pathlib import Path

from helpers import rebuilt
from ssets import Presentation, SsetError
from ssets.io import (
    dumps_presentation,
    load_presentation,
    loads_presentation,
    save_presentation,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "parser_mutants.json"
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


def _mutate_tokens(rng, text):
    lines = text.splitlines()
    if not lines:
        return rng.choice(TOKENS)
    k = rng.randrange(len(lines))
    kind = rng.randrange(5)
    if kind == 0:
        del lines[k]
    elif kind == 1:
        lines.insert(rng.randrange(len(lines) + 1), lines[k])
    else:
        tokens = lines[k].split(" ")
        j = rng.randrange(len(tokens))
        if kind == 2:
            tokens.insert(j, rng.choice(TOKENS))
        else:
            tokens[j] = rng.choice(TOKENS if kind == 3 else text.split())
        lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def mutants(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(SOURCES)
        for _ in range(rng.randint(1, 2)):
            mutate = _mutate_bytes if rng.random() < 0.5 else _mutate_tokens
            text = mutate(rng, text)
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
