"""The honesty ledger: answers that theory ties together must agree.

Each check relates two answers the engine computes by separate means,
over a fixed corpus: the fixtures and the ordered products of five of
them.  A known disagreement is one ``xfail(strict=True)`` entry naming
the ROADMAP item whose fix removes it, so that a fix fails the ledger
until its entry is taken out.  The count of entries is the meter.
"""

import math
from functools import cache
from pathlib import Path

import pytest

import ssets as S

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FACTORS = ("delta1", "nerve_z2", "boundary3", "circle2", "sphere2")
CORPUS = sorted(f.stem for f in FIXTURES.glob("*.sset")) + [
    f"{a} x {b}" for a in FACTORS for b in FACTORS
]


@cache
def presentation(name):
    a, _, b = name.partition(" x ")
    if b:
        return S.product(presentation(a), presentation(b))
    return S.load_presentation(FIXTURES / f"{name}.sset")


def ledger(known):
    """The corpus, with each known disagreement as a strict xfail."""
    params = []
    for name in CORPUS:
        marks = ()
        if name in known:
            raises, reason = known[name]
            marks = pytest.mark.xfail(strict=True, raises=raises, reason=reason)
        params.append(pytest.param(name, marks=marks))
    return params


@pytest.mark.parametrize("name", CORPUS)
def test_path_components_are_the_rank_of_h0(name):
    p = presentation(name)
    assert len(S.path_components(p)) == S.homology(p, 1)[0].betti


# pi_n(., 1) assumes the Kan condition without checking it
HUREWICZ_KNOWN = {
    "cone": (S.NotKanError, "ROADMAP item 8: pi refuses the contractible cone"),
    **{
        name: (AssertionError, "ROADMAP item 10: a finite pi_1 where H_1 has a free part")
        for name in CORPUS
        if "circle2" in name
    },
}


@pytest.mark.parametrize("name", ledger(HUREWICZ_KNOWN))
def test_a_finite_pi_1_has_a_finite_h1_of_dividing_order(name):
    # H_1 is the abelianization of pi_1 on a connected input, so an order
    # k of pi_1 leaves H_1 no free part and an order dividing k
    p = presentation(name)
    assert len(S.path_components(p)) == 1
    pi = S.pi_n(S.BasedPresentation(p, p.generators_at(0)[0]), 1)
    h1 = S.homology(p, 2)[1]
    assert h1.betti == 0 and pi.order % math.prod(h1.torsion) == 0, (pi.order, h1)

