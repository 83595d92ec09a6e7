"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact; nothing here is tolerance-based.
"""

import random
from itertools import combinations
from math import comb

import pytest

import ssets as S
from ssets import BasedPresentation, GenId, HornSpec, Simplex

from helpers import (
    boundary_squares_to_zero,
    pairwise_partition,
    random_complex,
    scan_witness,
    swap_faces,
    swappable_generators,
    with_generator,
)


def report(n, label):
    print(f"ACCEPTANCE {n} {label}: PASS")


def test_criterion_1_counting_identities():
    d0 = S.standard_simplex(0)
    d1 = S.standard_simplex(1)
    for n in range(11):
        assert d0.count_simplices(n) == 1
        assert len(d0.simplices(n)) == 1
        assert d1.count_simplices(n) == n + 2
        assert len(d1.simplices(n)) == n + 2
    report(1, "counting identities for the point and interval")


def test_criterion_2_product_census():
    d1 = S.standard_simplex(1)
    sq = S.product(d1, d1)
    assert [sq.count_simplices(n) for n in (0, 1, 2)] == [4, 9, 16]
    two_cells = {
        (S.vertex_sequence(a), S.vertex_sequence(b))
        for a, b in (sq.pair_of(g) for g in sq.generators_at(2))
    }
    assert two_cells == {((0, 0, 1), (0, 1, 1)), ((0, 1, 1), (0, 0, 1))}
    assert sq.count_simplices(2) - len(sq.generators_at(2)) == 14
    for n in range(3, 7):
        assert len(sq.generators_at(n)) == 0
    report(2, "square census 4/9/16 with the two shuffle triangles")


def test_criterion_3_prism_decomposition():
    for p in range(5):
        cells = S.prism_decomposition(p)
        assert len(cells) == p + 1
        prod = S.product(S.standard_simplex(p), S.standard_simplex(1))
        assert len(prod.generators_at(p + 1)) == p + 1
        simplices = {}
        for c in cells:
            expected_form = tuple(
                [str(v) for v in range(c.k + 1)]
                + [f"{v}'" for v in range(c.k, p + 1)]
            )
            assert c.vertex_form == expected_form
            simplices[c.k] = prod.from_pair(c.base_component, c.edge_component)
        for k in range(1, p + 1):
            assert prod.face(simplices[k], k) == prod.face(simplices[k - 1], k)
        for k in range(p):
            assert prod.face(simplices[k], k + 1) == prod.face(
                simplices[k + 1], k + 1
            )
    for p in range(4):
        for q in range(4):
            universe = range(p + q)
            brute = sum(
                1
                for first in combinations(universe, q)
                if len([v for v in universe if v not in first]) == p
            )
            assert S.count_nondegenerate_top(p, q) == brute == comb(p + q, p)
    report(3, "prism cells, vertex forms, gluing, and shuffle counts")


def test_criterion_4_kan_witnesses():
    d1 = S.standard_simplex(1, top_dim=2)
    rep = S.kan_check(d1, 2)
    zero = Simplex((), d1.generator(0, "0"))
    witness = HornSpec.from_faces(
        2, 0, {1: S.degenerate(zero, 0), 2: Simplex((), d1.generator(1, "0.1"))}
    )
    assert witness in rep.witnesses
    assert S.fill_horn(d1, witness) is None
    assert S.kan_check(S.standard_simplex(0, top_dim=4), 4).is_kan
    assert S.kan_check(S.nerve(S.cyclic(2), 4), 3).is_kan
    report(4, "interval horn witness; point and nerve are Kan")


def test_criterion_5_homology():
    Z = S.HomologyGroup(1, ())
    O = S.HomologyGroup(0, ())
    Z2 = S.HomologyGroup(0, (2,))
    for n in range(1, 5):
        groups = S.homology(S.standard_simplex(n), min(n + 1, 4))
        assert groups[0] == Z and all(g == O for g in groups[1:])
    for n in (2, 3):
        expected = [Z] + [O] * (n - 1) + [Z]
        assert list(S.homology(S.sphere_two_cell(n), n + 1)) == expected
        assert list(S.homology(S.boundary(n + 1), n + 1)) == expected
    cone_groups = S.homology(S.cone(), 3)
    assert cone_groups[0] == Z and all(g == O for g in cone_groups[1:])
    z2 = S.nerve(S.cyclic(2), 5)
    normalized = S.homology(z2, 5)[:4]
    assert list(normalized) == [Z, Z2, O, Z2]
    for degree in range(3):
        oracle = S.homology_of_complex(S.unnormalized_complex(z2, degree + 2))
        assert oracle[degree] == normalized[degree]
    report(5, "simplices, spheres, cone, and the mod-2 nerve with oracle")


def test_criterion_6_homotopy_groups():
    # every group of order <= 6, the nonabelian S3 included
    for label, table in S.all_group_tables(6):
        p = S.nerve(table, 4)
        based = BasedPresentation(p, p.generator(0, "*"))
        pi = S.pi_n(based, 1)  # verify on: filler independence, table laws,
        assert pi.order == table.order  # horn inverses all run inside

        def cls(g):
            if g == table.identity_name:
                return pi.class_of(based.basepoint_simplex(1))
            return pi.class_of(Simplex((), p.generator(1, g)))

        images = {cls(g) for g in table.elements}
        assert len(images) == table.order
        # the class product reverses the multiplication (the orientation
        # test in test_homotopy.py pins it), so g -> [g^-1] is the
        # isomorphism onto G (on an abelian group g -> [g] is one too)
        def phi(g):
            return cls(table.inverse(g))

        for a in table.elements:
            for b in table.elements:
                assert pi.product(phi(a), phi(b)) == phi(table.mul(a, b)), label
        # identity law through the explicit degeneracy witnesses
        for g in table.elements:
            x = (
                based.basepoint_simplex(1)
                if g == table.identity_name
                else Simplex((), p.generator(1, g))
            )
            top = S.degenerate(x, 1)
            assert p.face(top, 1) == x and p.face(top, 2) == x
            bottom = S.degenerate(x, 0)
            assert p.face(bottom, 0) == x and p.face(bottom, 1) == x

    # a fixture where product horns genuinely have several fillers
    z2p = S.nerve(S.cyclic(2), 4)
    doubled = with_generator(z2p, GenId(2, "cc"), z2p.faces_of(z2p.generator(2, "g,g")))
    based = BasedPresentation(doubled, doubled.generator(0, "*"))
    from ssets.homotopy import _product_horn
    g_edge = Simplex((), doubled.generator(1, "g"))
    assert len(S.fill_horn_all(doubled, _product_horn(based, 1, g_edge, g_edge))) == 2
    pi = S.pi_n(based, 1)
    assert pi.order == 2
    # and one where they disagree: a 2-cell with faces (g, g, g) beside (g,g)
    clash = with_generator(z2p, GenId(2, "cc"), (g_edge,) * 3)
    assert clash.validate().ok
    with pytest.raises(S.ConsistencyError, match=r"^product depends on the filler "):
        S.pi_n(BasedPresentation(clash, clash.generator(0, "*")), 1)
    report(6, "fundamental groups of nerves with laws and filler independence")


def test_criterion_7_homotopy_definition_equivalence():
    interval = S.standard_simplex(1)
    for x in (S.standard_simplex(0), S.standard_simplex(1), S.standard_simplex(2)):
        xi = S.product(x, interval)
        pr1, _ = S.projections(xi)
        hmap = S.compose(S.identity_map(x), pr1)
        bound = x.max_generator_dim
        data = S.homotopy_from_cylinder(hmap, bound)
        f, g = S.cylinder_endpoints(hmap)
        assert S.verify_homotopy_data(f, g, data, bound).ok
        for p in range(bound + 1):
            for simp in x.simplices(p):
                assert x.face(data.h(0, simp), 0) == S.apply_map(f, simp)
                assert x.face(data.h(p, simp), p + 1) == S.apply_map(g, simp)

    from test_homotopy import nonconstant_cylinder

    hmap, xi, y = nonconstant_cylinder()
    assert S.validate_map(hmap).ok
    data = S.homotopy_from_cylinder(hmap, 1)
    f, g = S.cylinder_endpoints(hmap)
    rep = S.verify_homotopy_data(f, g, data, 1)
    assert rep.ok
    for p in range(2):
        for simp in xi.left.simplices(p):
            assert y.face(data.h(0, simp), 0) == S.apply_map(f, simp)
            assert y.face(data.h(p, simp), p + 1) == S.apply_map(g, simp)
    report(7, "cylinder data passes the combinatorial homotopy conditions")


def test_criterion_8_relative_les_exactness():
    p = S.nerve(S.cyclic(4), 4)
    star = p.generator(0, "*")
    members = [star] + [
        g
        for g in p.all_generators()
        if g.dim >= 1 and set(g.name.split(",")) == {"g2"}
    ]
    sub = S.SubPresentation(p, frozenset(members))
    based = BasedPresentation(p, star)
    rel = S.pi_n_rel(based, sub, 1)
    pi_x = S.pi_n(based, 1)
    pi_a = S.pi_n(BasedPresentation(sub.restriction(), star), 1)
    assert (pi_a.order, pi_x.order, rel.order) == (2, 4, 2)
    image = {pi_x.class_of(pi_a.reps[block[0]]) for block in pi_a.classes}
    kernel = {
        c
        for c in range(pi_x.order)
        if rel.class_of(pi_x.reps[pi_x.classes[c][0]]) == rel.basepoint_class
    }
    assert image == kernel
    for c in range(rel.order):
        assert S.les_boundary(based, sub, 1, rel, c) == 0
    report(8, "image equals kernel for the order-4 pair")


def test_criterion_9_property_suites():
    rng = random.Random(99173)
    for trial in range(100):
        p = random_complex(rng)
        assert p.validate().ok
        for n in (2, 3):
            for x in p.simplices(n)[:30]:
                for j in range(1, n + 1):
                    for i in range(j):
                        assert p.face(p.face(x, j), i) == p.face(p.face(x, i), j - 1)
        g, pairs = swappable_generators(p)[0]
        i, j = pairs[rng.randrange(len(pairs))]
        assert not swap_faces(p, g, i, j).validate().ok

    fixtures = [
        S.standard_simplex(3),
        S.boundary(3),
        S.sphere_two_cell(2),
        S.cone(),
        S.double_edge_circle(),
        S.nerve(S.cyclic(2), 5),
        S.product(S.standard_simplex(1), S.standard_simplex(1)),
    ]
    for p in fixtures:
        n = min(p.top_dim, p.max_generator_dim + 1)
        assert boundary_squares_to_zero(S.normalized_complex(p, n))
    for p in fixtures:
        # only fixtures whose homology is computable in every degree
        n = p.max_generator_dim + 1
        if n > p.top_dim:
            continue
        groups = S.homology(p, n)
        chi = sum((-1) ** d * g.betti for d, g in enumerate(groups))
        assert chi == S.euler_characteristic(p)

    for table in (S.cyclic(2), S.cyclic(3)):
        p = S.nerve(table, 4)
        based = BasedPresentation(p, p.generator(0, "*"))
        for n in (1, 2):
            reps = [
                x
                for x in p.simplices(n)
                if all(based.at_basepoint(p.face(x, i)) for i in range(n + 1))
            ]
            base_classes, _ = S.homotopy_classes(p, reps)
            for r in range(n + 1):
                shifted, _ = pairwise_partition(
                    reps, lambda a, b: scan_witness(p, a, b, r)
                )
                assert shifted == base_classes
    report(9, "confluence, mutation detection, boundary-square, Euler, shifts")
