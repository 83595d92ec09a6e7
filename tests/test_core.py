"""Normal forms, the rewriting engine, enumeration, and validation."""

import pytest

import ssets as S
from ssets import GenId, Simplex

from helpers import oracle_degeneracy, oracle_face, seq_of, seq_to_simplex, swap_faces


@pytest.fixture(scope="module")
def delta1():
    return S.standard_simplex(1)


@pytest.fixture(scope="module")
def delta2():
    return S.standard_simplex(2)


def test_simplex_rejects_non_canonical_words():
    g = GenId(0, "v")
    with pytest.raises(ValueError):
        Simplex((0, 0), g)
    with pytest.raises(ValueError):
        Simplex((0, 1), g)
    with pytest.raises(ValueError):
        Simplex((2, 0), g)  # outer index too large over a vertex
    assert Simplex((1, 0), g).dim == 2


def test_degeneracy_reorders_into_canonical_form(delta1):
    v = Simplex((), delta1.generator(0, "0"))
    # s_0 s_0 = s_1 s_0
    assert S.degenerate(S.degenerate(v, 0), 0) == Simplex((1, 0), v.gen)
    e = Simplex((), delta1.generator(1, "0.1"))
    # an already-sorted word is left alone
    x = S.degenerate(e, 0)
    assert S.degenerate(x, 2) == Simplex((2, 0), e.gen)


def test_identity_axiom_annihilation(delta1):
    # d_j s_j = d_{j+1} s_j = id on the nondegenerate edge
    e = Simplex((), delta1.generator(1, "0.1"))
    assert delta1.face(S.degenerate(e, 0), 0) == e
    assert delta1.face(S.degenerate(e, 0), 1) == e
    # d_1(s_0 [0]) = [0]
    v = Simplex((), delta1.generator(0, "0"))
    assert delta1.face(S.degenerate(v, 0), 1) == v


def test_face_of_top_generator_picks_out_missing_vertex(delta2):
    x = Simplex((), delta2.generator(2, "0.1.2"))
    assert delta2.face(x, 0) == Simplex((), delta2.generator(1, "1.2"))
    assert delta2.face(x, 1) == Simplex((), delta2.generator(1, "0.2"))
    assert delta2.face(x, 2) == Simplex((), delta2.generator(1, "0.1"))


def test_mixed_axiom_d0_s1(delta2):
    # d_0 s_1 x = s_0 d_0 x for every 1- and 2-simplex
    for n in (1, 2):
        for x in delta2.simplices(n):
            lhs = delta2.face(S.degenerate(x, 1), 0)
            rhs = S.degenerate(delta2.face(x, 0), 0)
            assert lhs == rhs


def test_engine_agrees_with_vertex_sequence_oracle():
    p = S.standard_simplex(3)
    for n in range(5):
        for x in p.simplices(n):
            seq = seq_of(x)
            for i in range(n + 1):
                if n >= 1:
                    assert p.face(x, i) == seq_to_simplex(oracle_face(seq, i))
                assert S.degenerate(x, i) == seq_to_simplex(oracle_degeneracy(seq, i))


def test_counting_identities():
    d0 = S.standard_simplex(0)
    d1 = S.standard_simplex(1)
    for n in range(11):
        assert d0.count_simplices(n) == 1
        assert d1.count_simplices(n) == n + 2


def test_enumeration_matches_count_formula_and_has_no_duplicates():
    fixtures = [
        S.standard_simplex(2),
        S.boundary(3),
        S.sphere_two_cell(2),
        S.cone(),
        S.nerve(S.cyclic(3), 3),
    ]
    for p in fixtures:
        for n in range(9):
            listed = p.simplices(n)
            assert len(listed) == p.count_simplices(n)
            assert len(set(listed)) == len(listed)
            assert all(x.dim == n for x in listed)
            # enumeration order is the documented lexicographic one
            keys = [S.simplex_key(x) for x in listed]
            assert keys == sorted(keys)


def test_two_cell_sphere_has_two_simplices_in_its_cell_dimension():
    s2 = S.sphere_two_cell(2)
    assert len(s2.simplices(2)) == 2


def test_validate_standard_and_cone():
    assert S.standard_simplex(2).validate().ok
    cone = S.cone()
    assert cone.validate().ok
    # the cone's glued faces are the documented ones
    t = cone.generator(2, "t")
    a = Simplex((), cone.generator(1, "a"))
    b = Simplex((), cone.generator(1, "b"))
    assert cone.faces_of(t) == (a, a, b)


def test_validate_catches_swapped_faces(delta2):
    bad = swap_faces(delta2, delta2.generator(2, "0.1.2"), 0, 1)
    report = bad.validate()
    assert not report.ok
    assert any(v.gen.name == "0.1.2" for v in report.violations)


def test_validate_reports_dangling_reference_as_fatal():
    v = GenId(0, "v")
    e = GenId(1, "e")
    ghost = GenId(0, "ghost")
    p = S.Presentation([v, e], {e: (Simplex((), v), Simplex((), ghost))})
    report = p.validate()
    assert report.fatal and not report.violations


def test_horn_generators():
    h = S.horn(2, 0)
    names = sorted(g.name for g in h.all_generators())
    assert names == ["0", "0.1", "0.2", "1", "2"]
    with pytest.raises(ValueError):
        S.horn(2, 3)


def test_boundary_generator_counts():
    assert S.boundary(3).generator_counts() == (4, 6, 4)
    assert S.standard_simplex(2).generator_counts() == (3, 3, 1)


def test_nerve_counts_and_degenerate_face():
    z2 = S.nerve(S.cyclic(2), 3)
    assert z2.generator_counts() == (1, 1, 1, 1)
    gg = Simplex((), z2.generator(2, "g,g"))
    # the middle face multiplies to the identity and degenerates
    assert z2.face(gg, 1) == Simplex((0,), z2.generator(0, "*"))
    assert S.nerve(S.cyclic(3), 3).validate().ok


def test_nerve_validates_for_all_small_groups():
    for label, table in S.all_group_tables(6):
        assert S.nerve(table, 4).validate().ok, label


def test_adjoin_degeneracies():
    cone = S.cone()
    assert cone.delta_style
    simp = S.adjoin_degeneracies(cone)
    assert not simp.delta_style
    assert sum(simp.generator_counts()) == 5
    circle = S.adjoin_degeneracies(S.double_edge_circle())
    assert circle.validate().ok
    point = S.standard_simplex(0)
    again = S.adjoin_degeneracies(point)
    assert again.generator_counts() == (1,)


def test_adjoin_degeneracies_rejects_degenerate_entries():
    s2 = S.sphere_two_cell(2)
    with pytest.raises(ValueError):
        S.adjoin_degeneracies(s2)


def test_identity_axiom_everywhere():
    fixtures = [S.standard_simplex(2), S.cone(), S.nerve(S.cyclic(2), 5)]
    for p in fixtures:
        for n in range(5):
            for x in p.simplices(n):
                for j in range(n + 1):
                    y = S.degenerate(x, j)
                    assert p.face(y, j) == x
                    assert p.face(y, j + 1) == x


def test_matching_pattern_shape(delta1):
    zero, one = (Simplex((), delta1.generator(0, v)) for v in "01")
    assert delta1.matching(0, [None]) == delta1.simplices(0)
    assert delta1.matching(1, [None, None]) == delta1.simplices(1)
    assert delta1.matching(1, [zero, one]) == ()
    assert delta1.matching(1, [one, zero]) == (Simplex((), delta1.generator(1, "0.1")),)
    with pytest.raises(ValueError):
        delta1.matching(1, [one])
    with pytest.raises(ValueError):
        delta1.matching(0, [zero])


def test_face_errors():
    p = S.standard_simplex(1)
    v = Simplex((), p.generator(0, "0"))
    with pytest.raises(ValueError):
        p.face(v, 0)
    e = Simplex((), p.generator(1, "0.1"))
    with pytest.raises(ValueError):
        p.face(e, 2)
    with pytest.raises(S.StructureError):
        p.face(Simplex((), GenId(1, "elsewhere")), 0)


def test_presentation_structural_errors():
    v = GenId(0, "v")
    e = GenId(1, "e")
    with pytest.raises(S.StructureError):
        S.Presentation([v, e], {e: (Simplex((), v),)})  # wrong face count
    with pytest.raises(S.StructureError):
        S.Presentation([v, e], {})  # missing entries
    with pytest.raises(S.StructureError):
        S.Presentation([v], {}, top_dim=-1)
    with pytest.raises(S.StructureError):
        S.Presentation([v, v], {})
