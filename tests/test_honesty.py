"""The honesty ledger: answers that theory ties together must agree.

Each check relates two answers the engine computes by separate means,
over a fixed corpus: the fixtures, three exact complexes that are not
Kan (the 7-vertex torus, the 6-vertex RP^2 and a two-triangle disk,
built in ``helpers``), and the ordered products of five fixtures.  A
known disagreement is one ``xfail(strict=True)`` entry naming the
ROADMAP item whose fix removes it, so that a fix fails the ledger until
its entry is taken out.  The count of entries is the meter.
"""

import math
from functools import cache
from pathlib import Path

import pytest

import ssets as S
from helpers import disk2, rp2_6, torus7

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BUILT = {"disk2": disk2, "rp2_6": rp2_6, "torus7": torus7}
FACTORS = ("delta1", "nerve_z2", "boundary3", "circle2", "sphere2")
SINGLES = sorted(f.stem for f in FIXTURES.glob("*.sset")) + sorted(BUILT)
CORPUS = SINGLES + [f"{a} x {b}" for a in FACTORS for b in FACTORS]
# the products of factors that are complete in every dimension
EXACT_PRODUCTS = [name for name in CORPUS if " x " in name and "nerve" not in name]


@cache
def presentation(name):
    a, _, b = name.partition(" x ")
    if b:
        return S.product(presentation(a), presentation(b))
    if name in BUILT:
        return BUILT[name]()
    return S.load_presentation(FIXTURES / f"{name}.sset")


def ledger(known, names=CORPUS):
    """The names, with each known disagreement as a strict xfail."""
    params = []
    for name in names:
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
        if "circle2" in name or name == "torus7"
    },
    "rp2_6": (AssertionError, "ROADMAP item 10: pi_1 of order 1 where H_1 = Z/2"),
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


# a nerve fixture is BG cut off at its top_dim, and BG has cells in every
# dimension, so no count of the cells below the cut is its χ
EULER_KNOWN = {
    name: (S.TruncationError, "ROADMAP item 3: euler counts the cells of a truncation")
    for name in SINGLES
    if name.startswith("nerve")
}


@pytest.mark.parametrize("name", ledger(EULER_KNOWN, SINGLES + EXACT_PRODUCTS))
def test_euler_characteristic_is_the_alternating_sum_of_betti_numbers(name):
    # Euler–Poincaré: on a finite complex, χ from the cell counts equals
    # Σ (-1)^n rank H_n; a count may instead refuse, where the cells stop
    # at a truncation
    p = presentation(name)
    try:
        chi = S.euler_characteristic(p)
    except S.TruncationError:
        return
    groups = S.homology(p, p.max_generator_dim + 1)
    assert chi == sum((-1) ** n * h.betti for n, h in enumerate(groups))


# inputs whose realization is simply connected: contractible, or a 2-sphere
SIMPLY_CONNECTED = ("boundary3", "cone", "delta1", "delta2", "disk2", "horn2_0", "sphere2")
# the witness search closes one-step witnesses, which proves "no" only on Kan inputs
HOMOTOPIC_KNOWN = {
    name: (AssertionError, "ROADMAP item 17: homotopic says no on an input that is not Kan")
    for name in ("cone", "disk2")
}


@pytest.mark.parametrize("name", ledger(HOMOTOPIC_KNOWN, SIMPLY_CONNECTED))
def test_edges_with_the_same_ends_are_homotopic_on_a_simply_connected_input(name):
    # two paths with the same ends are homotopic rel their ends exactly
    # when the loop one makes with the other's inverse is trivial in pi_1
    p = presentation(name)
    edges = p.simplices(1)
    parallel = [
        (x, y) for k, x in enumerate(edges) for y in edges[k + 1 :]
        if p.face_row(x) == p.face_row(y)
    ]
    assert [xy for xy in parallel if not S.simplices_homotopic(p, *xy)] == []
