"""Components, homotopy of simplices, homotopy groups, relative groups, LES."""

from pathlib import Path

import pytest

import ssets as S
from ssets import BasedPresentation, GenId, Presentation, Simplex
from ssets import homotopy as H
from ssets import io as sio

from helpers import class_group, pairwise_partition, scan_witness, with_generator

FIXTURES = Path(__file__).parent.parent / "fixtures"


def based_nerve(table, top_dim=4):
    p = S.nerve(table, top_dim)
    return BasedPresentation(p, p.generator(0, "*"))


@pytest.fixture(scope="module")
def z2():
    return based_nerve(S.cyclic(2))


@pytest.fixture(scope="module")
def z3():
    return based_nerve(S.cyclic(3))


def two_isolated_points():
    return Presentation([GenId(0, "a"), GenId(0, "b")], {}, top_dim=2)


# -- path components ----------------------------------------------------------


def test_path_components():
    assert len(S.path_components(S.standard_simplex(0))) == 1
    assert len(S.path_components(two_isolated_points())) == 2
    assert len(S.path_components(S.double_edge_circle())) == 1
    assert len(S.path_components(S.boundary(3))) == 1


# -- homotopy of simplices ----------------------------------------------------


def test_reflexivity_via_last_degeneracy(z2):
    p = z2.presentation
    for n in range(3):
        for x in p.simplices(n):
            y = S.homotopy_witness(p, x, x)
            assert y is not None
            # the canonical witness s_n x appears among the candidates
            assert S.homotopy_witness(p, x, x) is not None
            sy = S.degenerate(x, n)
            assert p.face(sy, n) == x and p.face(sy, n + 1) == x


def test_interval_endpoints_are_not_homotopic():
    d1 = S.standard_simplex(1, top_dim=3)
    loop0 = S.vertex_simplex(d1.generator(0, "0"), 1)
    edge = Simplex((), d1.generator(1, "0.1"))
    assert not S.simplices_homotopic(d1, loop0, edge)  # different boundaries


def test_nerve_edges_fall_into_singleton_classes(z2):
    p = z2.presentation
    e_edge = z2.basepoint_simplex(1)
    g_edge = Simplex((), p.generator(1, "g"))
    assert not S.simplices_homotopic(p, e_edge, g_edge)
    assert S.simplices_homotopic(p, g_edge, g_edge)


def test_one_step_witness_has_a_direction():
    # edges e, f from a to b and one 2-cell y with faces (s0 b, e, f):
    # y witnesses e ~ f but nothing witnesses f ~ e, so closure is needed
    a, b, e, f, y = GenId(0, "a"), GenId(0, "b"), GenId(1, "e"), GenId(1, "f"), GenId(2, "y")
    va, vb, xe, xf = (Simplex((), g) for g in (a, b, e, f))
    p = Presentation(
        [a, b, e, f, y], {e: (vb, va), f: (vb, va), y: (S.degenerate(vb, 0), xe, xf)}, 2
    )
    assert p.validate().ok
    assert S.homotopy_witness(p, xe, xf) == Simplex((), y)
    assert S.homotopy_witness(p, xf, xe) is None
    assert S.homotopy_witness_shifted(p, xe, xf, 1) == Simplex((), y)
    assert S.homotopy_witness_shifted(p, xf, xe, 1) is None
    assert S.homotopy_classes(p, [xe, xf]) == (((0, 1),), True)


def test_homotopy_needs_headroom():
    z2_short = S.nerve(S.cyclic(2), 1)
    e = Simplex((), z2_short.generator(1, "g"))
    with pytest.raises(S.TruncationError):
        S.homotopy_witness(z2_short, e, e)
    # a lone representative needs no search; two need one
    assert S.homotopy_classes(z2_short, [e]) == (((0,),), False)
    with pytest.raises(S.TruncationError):
        S.homotopy_classes(z2_short, [e, e])


def test_witness_targets_keep_the_boundary_of_x():
    # edges x: a -> b and t: a -> c, and a 2-cell w with faces (s0 b, x, t)
    # that fails validation: w has the shape of a witness from x to t, but
    # t has another boundary, so it is no witness
    a, b, c = (GenId(0, v) for v in "abc")
    x, t, w = GenId(1, "x"), GenId(1, "t"), GenId(2, "w")
    va, vb, vc, sx, st = (Simplex((), g) for g in (a, b, c, x, t))
    faces = {x: (vb, va), t: (vc, va), w: (S.degenerate(vb, 0), sx, st)}
    p = Presentation([a, b, c, x, t, w], faces, 2)
    assert not p.validate().ok
    assert S.homotopy_witness(p, sx, st) is None
    assert S.homotopy_classes(p, [sx, st]) == (((0,), (1,)), False)


@pytest.mark.parametrize(
    "table", [pytest.param(t, id=label) for label, t in S.all_group_tables(4)]
)
def test_witness_searches_equal_the_scan_oracle_on_small_nerves(table):
    # the searches share their query with the partition; the scan shares none
    p = S.nerve(table, 3)
    for n in (1, 2):
        for x in p.simplices(n):
            for xp in p.simplices(n):
                assert S.homotopy_witness(p, x, xp) == scan_witness(p, x, xp, n)
                for r in range(n + 1):
                    got = S.homotopy_witness_shifted(p, x, xp, r)
                    assert got == scan_witness(p, x, xp, r)


def test_relative_witness_search_equals_the_scan_oracle_on_the_z4_pair():
    p = sio.load_presentation(FIXTURES / "nerve_z4.sset")
    sub_doc = sio.load_presentation(FIXTURES / "nerve_z4_sub2.sset")
    sub = S.SubPresentation(p, frozenset(sub_doc.all_generators()))
    for n in (1, 2, 3):
        for x in p.simplices(n):
            for xp in p.simplices(n):
                w = scan_witness(p, x, xp, n, sub)
                expected = None if w is None else (w, p.face(w, 0))
                assert S.rel_homotopy_witness(p, sub, x, xp) == expected


# -- absolute homotopy groups -------------------------------------------------


def test_pi1_of_point_is_trivial():
    d0 = S.standard_simplex(0, top_dim=4)
    pi = S.pi_n(BasedPresentation(d0, d0.generator(0, "0")), 1)
    assert pi.order == 1


def test_pi1_matches_group_for_small_tables():
    for label, table in S.all_group_tables(4):
        based = based_nerve(table)
        pi = S.pi_n(based, 1)
        assert pi.order == table.order, label
        assert not pi.closure_needed, label
        # the identity class is the degenerate edge
        assert pi.class_of(based.basepoint_simplex(1)) == pi.identity

        def cls(g):
            if g == table.identity_name:
                return pi.identity
            return pi.class_of(Simplex((), based.presentation.generator(1, g)))

        # class-level multiplication mirrors the group (all tables of
        # order <= 4 are abelian, so orientation conventions wash out)
        for a in table.elements:
            for b in table.elements:
                assert pi.product(cls(a), cls(b)) == cls(table.mul(a, b)), label
        # inverses in the table match group inverses
        classes = class_group(pi)
        for a in table.elements:
            assert classes.inverse(str(cls(a))) == str(cls(table.inverse(a))), label


def test_pi1_identity_law_witnesses(z3):
    # s_n x and s_{n-1} x realize the two identity products directly
    p = z3.presentation
    for gname in ("g", "g2"):
        x = Simplex((), p.generator(1, gname))
        top = S.degenerate(x, 1)
        assert p.face(top, 1) == x and p.face(top, 2) == x
        assert z3.at_basepoint(p.face(top, 0))
        bottom = S.degenerate(x, 0)
        assert p.face(bottom, 0) == x and p.face(bottom, 1) == x
        assert z3.at_basepoint(p.face(bottom, 2))


def test_pi1_specific_product_in_z3(z3):
    p = z3.presentation
    pi = S.pi_n(z3, 1)
    a = pi.class_of(Simplex((), p.generator(1, "g")))
    b = pi.class_of(Simplex((), p.generator(1, "g2")))
    assert pi.product(a, b) == pi.identity  # g * g2 = e in Z/3


def test_product_that_depends_on_the_filler_is_refused():
    # a second 2-cell cc with faces (g, g, g) beside (g,g), whose faces are
    # (g, e, g): the product horn of g with g has both as fillers, and their
    # faces 1 lie in different classes
    z2 = S.nerve(S.cyclic(2), 4)
    g_edge = Simplex((), z2.generator(1, "g"))
    p = with_generator(z2, GenId(2, "cc"), (g_edge,) * 3)
    assert p.validate().ok
    with pytest.raises(S.ConsistencyError, match=r"^product depends on the filler "):
        S.pi_n(BasedPresentation(p, p.generator(0, "*")), 1)


@pytest.mark.parametrize(
    "table, reason",
    [
        (((0, 1), (0, 1)), "0 is not an identity"),
        (((0, 1), (1, 1)), "1 has no inverse"),
        (((0, 1, 2), (1, 0, 0), (2, 0, 0)), "multiplication is not associative"),
    ],
)
def test_class_table_that_is_not_a_group_is_refused(table, reason):
    H._check_group(((0, 1), (1, 0)), 0)
    with pytest.raises(S.ConsistencyError) as info:
        H._check_group(table, 0)
    assert str(info.value) == f"class table is not a group: {reason}"


def test_class_tables_go_through_the_group_check():
    # a product that ignores its second factor breaks the identity law
    based = based_nerve(S.cyclic(3))
    p = based.presentation
    reps = p.matching(1, [based.basepoint_simplex(0)] * 2)
    with pytest.raises(S.ConsistencyError, match="^class table is not a group: "):
        H._classes(
            based, 1, reps, H._targets(p),
            lambda x, y: H._product_horn(based, 1, x, x), "product",
        )


def test_partition_asks_one_witness_query_per_representative(monkeypatch):
    # nerve(Z/16) has 16 loops at the basepoint; trying every ordered pair
    # took 16 * 15 = 240 witness searches
    based = based_nerve(S.cyclic(16), 3)
    queries, inside = [], [False]
    matching, partition = Presentation.matching, H._partition

    def counted(self, n, pattern):
        if inside[0]:
            queries.append((n, tuple(pattern)))
        return matching(self, n, pattern)

    def tracked(reps, targets):
        inside[0] = True
        try:
            return partition(reps, targets)
        finally:
            inside[0] = False

    def no_pairwise(*args):
        raise AssertionError("pairwise witness search")

    monkeypatch.setattr(Presentation, "matching", counted)
    monkeypatch.setattr(H, "_partition", tracked)
    monkeypatch.setattr(H, "_witness", no_pairwise)
    pi = S.pi_n(based, 1)
    assert pi.order == 16 and not pi.closure_needed
    assert len(queries) == 16
    assert len(set(queries)) == 16
    assert all(n == 2 and pattern[2] is None for n, pattern in queries)


def test_pi1_with_kan_precheck(z2):
    pi = S.pi_n(z2, 1, require_kan_checked=True)
    assert pi.order == 2


def test_class_of_rejects_non_representatives(z2):
    pi = S.pi_n(z2, 1)
    stray = Simplex((), z2.presentation.generator(2, "g,g"))
    with pytest.raises(ValueError):
        pi.class_of(stray)


def test_pi1_of_nonabelian_nerve_pins_the_orientation():
    # with x on face n-1 and y on face n+1, the filler for two edges
    # (a) and (b) is the cell (b, a), so the class product realizes the
    # reversed multiplication; the groups are still isomorphic (invert)
    table = S.symmetric_3()
    p = S.nerve(table, 3)
    based = BasedPresentation(p, p.generator(0, "*"))
    pi = S.pi_n(based, 1)
    assert pi.order == 6
    assert not class_group(pi).is_abelian()

    def cls(g):
        if g == table.identity_name:
            return pi.class_of(based.basepoint_simplex(1))
        return pi.class_of(Simplex((), p.generator(1, g)))

    for a in table.elements:
        for b in table.elements:
            assert pi.product(cls(a), cls(b)) == cls(table.mul(b, a))


def test_pi2_trivial_and_abelian(z2, z3):
    for based in (z2, z3):
        pi = S.pi_n(based, 2)
        assert pi.order == 1
        assert class_group(pi).is_abelian()


def test_pi_requires_headroom(z2):
    short = S.nerve(S.cyclic(2), 2)
    with pytest.raises(S.TruncationError):
        S.pi_n(BasedPresentation(short, short.generator(0, "*")), 1)


def test_pi_fails_loudly_without_fillers():
    s2 = S.sphere_two_cell(2, top_dim=4)
    based = BasedPresentation(s2, s2.generator(0, "v"))
    with pytest.raises(S.NotKanError):
        S.pi_n(based, 2)


def test_multiple_fillers_agree_on_doubled_nerve():
    # add a second copy of the (g,g) cell; product horns then have two
    # fillers and the product class must not depend on the choice
    z2p = S.nerve(S.cyclic(2), 4)
    doubled = with_generator(z2p, GenId(2, "cc"), z2p.faces_of(z2p.generator(2, "g,g")))
    assert doubled.validate().ok
    based = BasedPresentation(doubled, doubled.generator(0, "*"))
    pi = S.pi_n(based, 1)
    assert pi.order == 2
    g_edge = Simplex((), doubled.generator(1, "g"))
    c = pi.class_of(g_edge)
    from ssets.kan import fill_horn_all
    from ssets.homotopy import _product_horn

    fillers = fill_horn_all(doubled, _product_horn(based, 1, g_edge, g_edge))
    assert len(fillers) >= 2
    assert pi.product(c, c) == pi.identity


# -- homotopies of maps -------------------------------------------------------


def test_constant_homotopy_data_verifies():
    for x in (S.standard_simplex(0), S.standard_simplex(1), S.standard_simplex(2)):
        f = S.identity_map(x)
        data = S.constant_homotopy(f, 2)
        assert S.verify_homotopy_data(f, f, data, 2).ok


def test_perturbed_homotopy_data_is_reported():
    d1 = S.standard_simplex(1)
    f = S.identity_map(d1)
    data = S.constant_homotopy(f, 1)
    values = dict(data.values)
    edge = Simplex((), d1.generator(1, "0.1"))
    values[(1, edge)] = S.degenerate(edge, 0)  # wrong: should be s_1
    broken = S.HomotopyData(1, values)
    report = S.verify_homotopy_data(f, f, broken, 1)
    assert not report.ok
    assert any(v.rule == "d_{p+1} h_p = g" for v in report.violations)


def test_missing_values_are_fatal():
    d1 = S.standard_simplex(1)
    f = S.identity_map(d1)
    report = S.verify_homotopy_data(f, f, S.HomotopyData(1, {}), 1)
    assert report.fatal


def test_cylinder_roundtrip_constant():
    for x in (S.standard_simplex(0), S.standard_simplex(1), S.standard_simplex(2)):
        xi = S.product(x, S.standard_simplex(1))
        pr1, _ = S.projections(xi)
        hmap = S.compose(S.identity_map(x), pr1)
        bound = x.max_generator_dim
        data = S.homotopy_from_cylinder(hmap, bound)
        f, g = S.cylinder_endpoints(hmap)
        assert f.assignment == g.assignment == S.identity_map(x).assignment
        assert S.verify_homotopy_data(f, g, data, bound).ok
        # the constant cylinder gives exactly h_k = s_k
        for (k, simp), value in data.values.items():
            assert value == S.degenerate(simp, k)


def test_cylinder_maps_need_an_interval_product_source():
    x = S.standard_simplex(1)
    for source, message in (
        (x, "product source"),
        (S.product(x, S.standard_simplex(2)), "not an interval"),
    ):
        hmap = S.identity_map(source)
        for convert in (S.cylinder_endpoints, lambda m: S.homotopy_from_cylinder(m, 0)):
            with pytest.raises(ValueError, match=message):
                convert(hmap)


def nonconstant_cylinder():
    """A homotopy in the nerve of Z/2 from the constant loop to the loop.

    Square edges are labeled by group elements via a vertex potential
    that is trivial except at the far corner, so the two triangles map
    to the degenerate forms of the (g, g) cell's faces.
    """
    d1 = S.standard_simplex(1)
    xi = S.product(d1, d1)
    y = S.nerve(S.cyclic(2), 4)
    star = Simplex((), y.generator(0, "*"))
    g_edge = Simplex((), y.generator(1, "g"))
    e_edge = S.degenerate(star, 0)

    def corner(pair):
        a, b = pair
        return (S.vertex_sequence(a)[0], S.vertex_sequence(b)[0])

    def potential(v):
        return 1 if v == (1, 1) else 0

    assignment = {}
    for gen in xi.all_generators():
        a, b = xi.pair_of(gen)
        if gen.dim == 0:
            assignment[gen] = star
        elif gen.dim == 1:
            x0 = xi.face(Simplex((), gen), 1)
            x1 = xi.face(Simplex((), gen), 0)
            jump = (potential(corner(xi.to_pair(x1))) - potential(corner(xi.to_pair(x0)))) % 2
            assignment[gen] = g_edge if jump else e_edge
        else:
            seq_a = S.vertex_sequence(a)
            seq_b = S.vertex_sequence(b)
            pots = [potential((va, vb)) for va, vb in zip(seq_a, seq_b)]
            labels = [(pots[i + 1] - pots[i]) % 2 for i in range(2)]
            gg = Simplex((), y.generator(2, "g,g"))
            if labels == [0, 1]:
                assignment[gen] = S.degenerate(g_edge, 0)
            elif labels == [1, 0]:
                assignment[gen] = S.degenerate(g_edge, 1)
            elif labels == [0, 0]:
                assignment[gen] = S.vertex_simplex(y.generator(0, "*"), 2)
            else:
                assignment[gen] = gg
    return S.SimplicialMap(xi, y, assignment, name="wrap"), xi, y


def test_nonconstant_cylinder_into_nerve():
    hmap, xi, y = nonconstant_cylinder()
    assert S.validate_map(hmap).ok
    data = S.homotopy_from_cylinder(hmap, 1)
    f, g = S.cylinder_endpoints(hmap)
    assert S.validate_map(f).ok and S.validate_map(g).ok
    # one end is the loop, the other the constant map
    edge = Simplex((), xi.left.generator(1, "0.1"))
    images = {S.apply_map(f, edge), S.apply_map(g, edge)}
    assert images == {
        Simplex((), y.generator(1, "g")),
        S.degenerate(Simplex((), y.generator(0, "*")), 0),
    }
    report = S.verify_homotopy_data(f, g, data, 1)
    assert report.ok
    # the data is genuinely nonconstant
    assert any(
        value != S.degenerate(simp, k) for (k, simp), value in data.values.items()
    )


def test_endpoint_orientation():
    # the d_0 end of the data is the final-vertex restriction
    hmap, xi, y = nonconstant_cylinder()
    data = S.homotopy_from_cylinder(hmap, 1)
    f, g = S.cylinder_endpoints(hmap)
    for p in range(2):
        for x in xi.left.simplices(p):
            assert y.face(data.h(0, x), 0) == S.apply_map(f, x)
            assert y.face(data.h(p, x), p + 1) == S.apply_map(g, x)


# -- relative homotopy and the exact sequence ---------------------------------


def z4_pair():
    p = S.nerve(S.cyclic(4), 4)
    star = p.generator(0, "*")
    members = [star] + [
        g
        for g in p.all_generators()
        if g.dim >= 1 and set(g.name.split(",")) == {"g2"}
    ]
    sub = S.SubPresentation(p, frozenset(members))
    return BasedPresentation(p, star), sub


def test_subpresentation_requires_face_closure():
    p = S.nerve(S.cyclic(4), 4)
    with pytest.raises(S.StructureError):
        S.SubPresentation(p, frozenset({p.generator(1, "g")}))
    closed = S.SubPresentation.closure(p, {p.generator(1, "g2")})
    assert p.generator(0, "*") in closed.members


def test_relative_reflexivity():
    based, sub = z4_pair()
    p = based.presentation
    for x in p.simplices(1):
        if sub.contains(p.face(x, 0)):
            assert S.simplices_homotopic_rel(p, sub, x, x)


def test_relative_classes_of_z4_pair():
    based, sub = z4_pair()
    p = based.presentation
    rel = S.pi_n_rel(based, sub, 1)
    assert rel.order == 2
    blocks = [
        {S.format_simplex(rel.reps[i]) for i in block} for block in rel.classes
    ]
    assert {"s0 *", "g2"} in blocks
    assert {"g", "g3"} in blocks
    assert rel.basepoint_class == rel.class_of(based.basepoint_simplex(1))


def test_relative_homotopy_of_vertices_is_refused():
    d1 = S.standard_simplex(1, top_dim=3)
    sub = S.SubPresentation.closure(d1, {d1.generator(0, "0")})
    v0, v1 = (Simplex((), d1.generator(0, name)) for name in ("0", "1"))
    for x, xp in ((v0, v1), (v0, v0)):
        with pytest.raises(ValueError, match="relative homotopy needs dimension >= 1"):
            S.simplices_homotopic_rel(d1, sub, x, xp)
        with pytest.raises(ValueError, match="relative homotopy needs dimension >= 1"):
            S.rel_homotopy_witness(d1, sub, x, xp)


def test_relative_witness_needs_a_one_step_homotopy_in_the_subcomplex():
    # a 2-cell w with faces (bc, ab, ac), which fails validation: it has the
    # shape of a relative witness from ab to ac, but its 0-face bc runs from
    # b to c, not from c to b as a witness of b ~ c must
    a, b, c = (GenId(0, v) for v in "abc")
    ab, ac, bc, w = GenId(1, "ab"), GenId(1, "ac"), GenId(1, "bc"), GenId(2, "w")
    va, vb, vc, xab, xac, xbc = (Simplex((), g) for g in (a, b, c, ab, ac, bc))
    faces = {ab: (vb, va), ac: (vc, va), bc: (vc, vb), w: (xbc, xab, xac)}
    p = Presentation([a, b, c, ab, ac, bc, w], faces, 2)
    assert not p.validate().ok
    sub = S.SubPresentation.closure(p, {bc})
    assert S.rel_homotopy_witness(p, sub, xab, xac) is None
    assert not S.simplices_homotopic_rel(p, sub, xab, xac)


def test_relative_partition_agrees_with_the_pairwise_oracle_on_the_z4_pair():
    p = sio.load_presentation(FIXTURES / "nerve_z4.sset")
    sub_doc = sio.load_presentation(FIXTURES / "nerve_z4_sub2.sset")
    sub = S.SubPresentation(p, frozenset(sub_doc.all_generators()))
    based = BasedPresentation(p, p.generator(0, "*"))

    def oracle(reps):
        return pairwise_partition(
            reps, lambda u, v: scan_witness(p, u, v, u.dim, sub)
        )

    for n in (1, 2):
        rel = S.pi_n_rel(based, sub, n)
        assert (rel.classes, rel.closure_needed) == oracle(rel.reps)
        reps = p.simplices(n) + (p.simplices(n)[n],)
        assert H._partition(reps, H._targets(p, sub)) == oracle(reps)


def test_relative_differing_shared_faces_rejects():
    based, sub = z4_pair()
    p = based.presentation
    g_edge = Simplex((), p.generator(1, "g"))
    gg = Simplex((), p.generator(2, "g,g"))
    assert not S.simplices_homotopic_rel(p, sub, gg, S.degenerate(g_edge, 1))


def test_relative_reduces_to_absolute_at_basepoint_subcomplex():
    based = based_nerve(S.cyclic(3))
    p = based.presentation
    sub = S.SubPresentation(p, frozenset({based.basepoint}))
    rel = S.pi_n_rel(based, sub, 1)
    pi = S.pi_n(based, 1)
    assert rel.order == pi.order
    assert set(rel.reps) == set(pi.reps)
    # with the trivial subcomplex, every boundary is the lone component
    for c in range(rel.order):
        assert S.les_boundary(based, sub, 1, rel, c) == 0


def test_les_exactness_for_z4_pair():
    based, sub = z4_pair()
    p = based.presentation
    rel = S.pi_n_rel(based, sub, 1)
    pi_x = S.pi_n(based, 1)
    a_pres = sub.restriction()
    pi_a = S.pi_n(BasedPresentation(a_pres, based.basepoint), 1)
    assert pi_a.order == 2 and pi_x.order == 4

    image = {pi_x.class_of(pi_a.reps[block[0]]) for block in pi_a.classes}
    kernel = {
        c
        for c in range(pi_x.order)
        if rel.class_of(pi_x.reps[pi_x.classes[c][0]]) == rel.basepoint_class
    }
    assert image == kernel

    # the boundary lands in the single component of the subcomplex
    for c in range(rel.order):
        assert S.les_boundary(based, sub, 1, rel, c) == 0


def test_relative_group_at_n2():
    based = based_nerve(S.cyclic(2))
    sub = S.SubPresentation(
        based.presentation, frozenset({based.basepoint})
    )
    rel = S.pi_n_rel(based, sub, 2)
    assert rel.order == 1
    assert rel.table == ((0,),)


def test_index_shift_witnesses_define_same_classes():
    for table in (S.cyclic(2), S.cyclic(3)):
        based = based_nerve(table)
        p = based.presentation
        for n in (1, 2):
            reps = [
                x
                for x in p.simplices(n)
                if all(based.at_basepoint(p.face(x, i)) for i in range(n + 1))
            ]
            base, _ = S.homotopy_classes(p, reps)
            for r in range(n + 1):
                shifted, _ = pairwise_partition(
                    reps, lambda a, b: scan_witness(p, a, b, r)
                )
                assert shifted == base
