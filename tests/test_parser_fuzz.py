"""Seeded mutation fuzzing of the presentation parser.

Byte and token mutations of the shipped fixtures must either load or
raise an ``SsetError`` subclass.  No ``TypeError``, ``IndexError``,
``AttributeError`` or bare ``ValueError`` may escape from the parser or
from the value types it builds.  A mutant that loads must survive a
save/load round trip unchanged.
"""

import random
import warnings
from pathlib import Path

from ssets import SsetError
from ssets.io import dumps_presentation, loads_presentation

FIXTURES = Path(__file__).parent.parent / "fixtures"
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
    # both outcomes are exercised, so the mutations reach past the lexer
    assert loaded > CASES // 20 and refused > CASES // 20
