"""Normal forms, the rewriting engine, enumeration, and validation."""

import copy
import pickle

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


def test_face_row_raises_as_face_does():
    p = S.standard_simplex(1)
    edge = GenId(1, "0.1")
    cases = [
        Simplex((), p.generator(0, "0")),  # a vertex has no faces
        Simplex((), (1, "0.1")),  # a plain tuple is not a generator
        Simplex((), GenId(1, "elsewhere")),  # unknown generator
        Simplex((0,), GenId(1, "elsewhere")),
    ]
    for x in cases:
        with pytest.raises((ValueError, S.StructureError)) as by_face:
            p.face(x, 0)
        with pytest.raises(by_face.type) as by_row:
            p.face_row(x)
        assert str(by_row.value) == str(by_face.value)
    assert p.face_row(Simplex((), edge)) is p.faces_of(edge)


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


# -- the value types ------------------------------------------------------------


VALUES = [
    GenId(0, "v"),
    GenId(2, "abc"),
    Simplex((), GenId(0, "v")),
    Simplex((1, 0), GenId(2, "abc")),
    Simplex((3, 1), GenId(2, "0.1.2")),
]


@pytest.mark.parametrize("x", VALUES, ids=repr)
def test_value_types_pickle_and_copy(x):
    for y in (
        pickle.loads(pickle.dumps(x)),
        pickle.loads(pickle.dumps(x, protocol=2)),
        copy.copy(x),
        copy.deepcopy(x),
    ):
        assert y == x and type(y) is type(x) and hash(y) == hash(x)
        assert repr(y) == repr(x)


def test_value_types_are_immutable():
    g = GenId(2, "abc")
    x = Simplex((1, 0), g)
    for obj, field, value in (
        (x, "word", ()),
        (x, "gen", GenId(0, "v")),
        (g, "dim", 3),
        (g, "name", "b"),
        (x, "extra", 1),
    ):
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
    assert x == Simplex((1, 0), GenId(2, "abc"))


def test_value_type_text_is_unchanged():
    g = GenId(2, "abc")
    x = Simplex((1, 0), g)
    assert repr(g) == "GenId(dim=2, name='abc')"
    assert repr(x) == "Simplex(word=(1, 0), gen=GenId(dim=2, name='abc'))"
    assert repr(Simplex((), g)) == "Simplex(word=(), gen=GenId(dim=2, name='abc'))"
    assert str(g) == "abc:2" and f"{g}" == "abc:2"
    assert str(x) == "s1 s0 abc" and f"{x}" == "s1 s0 abc"
    assert (x.dim, x.is_degenerate, x.word, x.gen) == (4, True, (1, 0), g)
    assert (g.dim, g.name) == (2, "abc")
    assert GenId(dim=1, name="e") == GenId(1, "e")
    assert Simplex(word=(0,), gen=g) == Simplex((0,), g)


@pytest.mark.parametrize("x", VALUES, ids=repr)
def test_value_type_hashes_are_the_field_tuple_hashes(x):
    fields = (x.word, x.gen) if isinstance(x, Simplex) else (x.dim, x.name)
    assert hash(x) == hash(fields)


def test_value_type_error_messages_are_unchanged():
    g = GenId(0, "v")
    for word, message in (
        ((0, 0), "degeneracy word (0, 0) is not strictly decreasing"),
        ((0, 1), "degeneracy word (0, 1) is not strictly decreasing"),
        ((0, -1), "negative degeneracy index in (0, -1)"),
        ((2, 0), "degeneracy word (2, 0) out of range over v:0"),
    ):
        with pytest.raises(ValueError) as info:
            Simplex(word, g)
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        GenId(-1, "v")
    assert str(info.value) == "generator dimension must be >= 0, got -1"
    for name in ("", 7, None):
        with pytest.raises(ValueError) as info:
            GenId(1, name)
        assert str(info.value) == "generator name must be a nonempty string"


def test_generator_ordering_is_by_dimension_then_name():
    gens = [GenId(1, "b"), GenId(0, "z"), GenId(1, "a"), GenId(0, "a")]
    assert sorted(gens) == [GenId(0, "a"), GenId(0, "z"), GenId(1, "a"), GenId(1, "b")]


def test_plain_tuples_are_not_generators(delta1):
    # a plain (dim, name) tuple compares equal to a GenId, but no lookup
    # may take it for one
    edge = (1, "0.1")
    assert edge == delta1.generator(1, "0.1")
    assert not delta1.has_generator(edge)
    assert delta1.has_generator(GenId(*edge))
    with pytest.raises(S.StructureError):
        delta1.faces_of(edge)
    with pytest.raises(S.StructureError):
        delta1.face(Simplex((), edge), 0)
    v, e = GenId(0, "v"), GenId(1, "e")
    faces = {e: (Simplex((), v), Simplex((), v))}
    with pytest.raises(S.StructureError, match="is not a GenId"):
        S.Presentation([v, (1, "e")], faces)
    with pytest.raises(S.StructureError, match="is not a GenId"):
        S.Presentation([v, e], {(1, "e"): faces[e]})
    sq = S.product(delta1, delta1)
    g = sq.generators_at(2)[0]
    assert sq.pair_of(g)
    with pytest.raises(S.StructureError):
        sq.pair_of(tuple(g))


def test_faces_of_refuses_an_unknown_vertex_as_it_does_an_unknown_edge(delta1):
    # a vertex's row is stored like any other, so looking one up that the
    # presentation lacks fails the same way
    assert delta1.faces_of(delta1.generator(0, "0")) == ()
    for g in (GenId(0, "nope"), GenId(1, "nope")):
        with pytest.raises(S.StructureError, match="unknown generator"):
            delta1.faces_of(g)
    assert not delta1.has_generator((0, "0"))
    assert delta1.has_generator(GenId(0, "0"))
    with pytest.raises(S.StructureError, match="unknown generator"):
        S.SubPresentation.closure(delta1, {GenId(0, "nope")})


def test_simplex_tuple_order_is_not_the_enumeration_order():
    p = S.standard_simplex(2)
    listed = p.simplices(2)
    assert sorted(listed, key=S.simplex_key) == list(listed)
    assert sorted(listed) != list(listed)


def test_a_presentation_equals_itself_without_reading_its_face_table():
    # an object is equal to itself at once: callers that compare one
    # presentation with itself do not pay for a walk of the whole table
    p = S.standard_simplex(3)
    q = S.standard_simplex(3)
    del p._faces
    assert p == p and not p != p
    with pytest.raises(AttributeError):
        p == q
    assert q == S.standard_simplex(3) and q != S.standard_simplex(2)
