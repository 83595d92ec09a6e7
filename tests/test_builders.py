"""The builders that check their own tables: the loader, ``product`` and ``nerve``.

They skip the public constructor's checks, so each result must be what
that constructor accepts and builds from the same generators, faces,
``top_dim``, style and name.  ``nerve`` must also write the same
document as the face-by-face oracle in ``helpers``.

The engine builds ``Simplex`` and ``GenId`` values without their
constructors' checks too, so every value it returns must be one those
constructors accept and build; a plain tuple given in place of a simplex
is still checked, with the outcomes pinned here.
"""

from itertools import product as pairs
from pathlib import Path

import pytest

from helpers import facewise_nerve, rebuilt, seeded_group
from ssets import (
    GenId,
    Presentation,
    Simplex,
    all_group_tables,
    cyclic,
    nerve,
    product,
    standard_simplex,
)
from ssets.core import apply_word, degenerate
from ssets.io import dumps_presentation, load_presentation

FIXTURES = Path(__file__).parent.parent / "fixtures"
FIXTURE_FILES = sorted(FIXTURES.glob("*.sset"))
# the fixtures whose products with each other stay small
SMALL_FIXTURES = [f for f in FIXTURE_FILES if f.stem not in ("nerve_z3", "nerve_z4")]

NERVE_CASES = [
    (label, group, top) for label, group in all_group_tables(6) for top in range(1, 5)
] + [
    (f"Z/{n} seed {seed}", seeded_group(cyclic(n), seed), 3)
    for n in (12, 16)
    for seed in (1, 2)
]


def assert_rebuilds(p):
    q = rebuilt(p)
    assert q == p
    assert (q.name, q.max_generator_dim) == (p.name, p.max_generator_dim)
    # the public constructor finds no face over an unknown generator either
    assert q.validate().fatal == p.validate().fatal == ()


@pytest.mark.parametrize(
    "label, group, top", NERVE_CASES, ids=[f"{c[0]} top {c[2]}" for c in NERVE_CASES]
)
def test_nerve_matches_the_facewise_oracle(label, group, top):
    p = nerve(group, top)
    assert dumps_presentation(p) == dumps_presentation(facewise_nerve(group, top))
    assert_rebuilds(p)


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda f: f.name)
def test_loaded_fixtures_pass_the_public_constructor(path):
    assert_rebuilds(load_presentation(path))


def test_products_pass_the_public_constructor():
    factors = [load_presentation(f) for f in SMALL_FIXTURES]
    for x, y in pairs(factors, repeat=2):
        assert_rebuilds(product(x, y))
    assert_rebuilds(product(standard_simplex(1), nerve(cyclic(2), 2)))


# -- engine-built values -------------------------------------------------------


def assert_canonical_gen(g):
    assert type(g) is GenId and GenId(g.dim, g.name) == g, g


def assert_canonical(x):
    assert type(x) is Simplex and Simplex(x.word, x.gen) == x, x
    assert_canonical_gen(x.gen)


def assert_engine_values_canonical(p, max_n):
    """Generators, stored rows and what the engine returns up to dimension max_n."""
    for g in p.all_generators():
        assert_canonical_gen(g)
        for f in p.faces_of(g):
            assert_canonical(f)
    for n in range(max_n + 1):
        for x in p.simplices(n):
            assert_canonical(x)
            for i in range(n + 1):
                assert_canonical(degenerate(x, i))
            if n:
                row = p.face_row(x)
                for i, f in enumerate(row):
                    assert_canonical(f)
                    assert p.face(x, i) == f
                    assert_canonical(p.face(x, i))
                # the index built for one fixed slot
                for z in p.matching(n, (row[0],) + (None,) * n):
                    assert_canonical(z)


def test_engine_built_values_are_canonical():
    for f in FIXTURE_FILES:
        assert_engine_values_canonical(load_presentation(f), 3)
    for _, group in all_group_tables(4):
        assert_engine_values_canonical(nerve(group, 3), 3)
    factors = [load_presentation(f) for f in SMALL_FIXTURES[:4]]
    for x, y in pairs(factors, repeat=2):
        assert_engine_values_canonical(product(x, y), 2)
    assert_engine_values_canonical(product(standard_simplex(2), nerve(cyclic(3), 2)), 3)


V, E = GenId(0, "v"), GenId(1, "e")
EDGE = Presentation([V, E], {E: (Simplex((), V), Simplex((), V))})
# plain (word, gen) tuples: what each call returned or raised before the
# engine skipped its checks on simplices it built itself
PLAIN_TUPLE_CASES = [
    (lambda: degenerate(((0, 1), E), 0), "degeneracy word (1, 2, 0) is not strictly decreasing"),
    (lambda: degenerate(((0, 0), E), 1), "degeneracy word (1, 0, 0) is not strictly decreasing"),
    (lambda: degenerate(((3,), V), 0), "degeneracy word (4, 0) out of range over v:0"),
    (lambda: degenerate(((1,), E), 0), Simplex((2, 0), E)),
    (lambda: apply_word(((0, 0), E), [0]), "degeneracy word (1, 1, 0) is not strictly decreasing"),
    (lambda: EDGE.face(((0, 1, 1), E), 0), "degeneracy word (1, 1) is not strictly decreasing"),
    (lambda: EDGE.face(((0, 0), E), 0), Simplex((0,), E)),
    (lambda: EDGE.face(((5,), E), 0), "s_4 is undefined on a 0-simplex"),
    (lambda: EDGE.face_row(((0, 1, 1), E)), "degeneracy word (1, 1) is not strictly decreasing"),
    (lambda: EDGE.face_row(((0, 0), E)), (Simplex((0,), E),) * 3 + (Simplex((1, 0), V),)),
]


@pytest.mark.parametrize("call, outcome", PLAIN_TUPLE_CASES)
def test_plain_tuples_are_checked_as_before(call, outcome):
    if isinstance(outcome, str):
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == outcome
    else:
        got = call()
        assert got == outcome
        for x in got if type(got) is tuple else (got,):
            assert_canonical(x)
