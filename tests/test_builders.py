"""The builders that check their own tables: the loader, ``product`` and ``nerve``.

They skip the public constructor's checks, so each result must be what
that constructor accepts and builds from the same generators, faces,
``top_dim``, style and name.  ``nerve`` must also write the same
document as the face-by-face oracle in ``helpers``.
"""

from itertools import product as pairs
from pathlib import Path

import pytest

from helpers import facewise_nerve, rebuilt, seeded_group
from ssets import all_group_tables, cyclic, nerve, product, standard_simplex
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
