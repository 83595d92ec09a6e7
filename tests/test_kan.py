"""Horn compatibility, filling, Kan reports, and the map formulation."""

import pytest

import ssets as S
from ssets import HornSpec, Simplex


@pytest.fixture(scope="module")
def delta1():
    return S.standard_simplex(1, top_dim=3)


def edge(p):
    return Simplex((), p.generator(1, "0.1"))


def non_kan_horn(p):
    """The classic unfillable horn: faces s_0[0] and [0,1] at index 0."""
    zero = Simplex((), p.generator(0, "0"))
    return HornSpec.from_faces(2, 0, {1: S.degenerate(zero, 0), 2: edge(p)})


def test_horn_compatibility(delta1):
    h = non_kan_horn(delta1)
    assert S.horn_compatible(delta1, h)
    one = Simplex((), delta1.generator(0, "1"))
    bad = HornSpec.from_faces(
        2, 0, {1: S.degenerate(one, 0), 2: edge(delta1)}
    )
    assert not S.horn_compatible(delta1, bad)


def test_horn_compatible_in_one_vertex_complex():
    z3 = S.nerve(S.cyclic(3), 3)
    a = Simplex((), z3.generator(1, "g"))
    b = Simplex((), z3.generator(1, "g2"))
    h = HornSpec.from_faces(2, 1, {0: b, 2: a})
    assert S.horn_compatible(z3, h)
    z = S.fill_horn(z3, h)
    assert z == Simplex((), z3.generator(2, "g,g2"))
    assert z3.face(z, 1) == S.degenerate(Simplex((), z3.generator(0, "*")), 0)


def test_unfillable_horn(delta1):
    assert S.fill_horn(delta1, non_kan_horn(delta1)) is None


def test_fill_returns_least_and_all_fillers(delta1):
    zero = Simplex((), delta1.generator(0, "0"))
    h = HornSpec.from_faces(1, 0, {1: zero})
    fillers = S.fill_horn_all(delta1, h)
    assert S.fill_horn(delta1, h) == fillers[0]
    assert len(fillers) == 2  # the edge and the degenerate loop at 0


def test_filler_faces_match_post_hoc():
    z3 = S.nerve(S.cyclic(3), 3)
    for x in z3.simplices(1):
        for y in z3.simplices(1):
            h = HornSpec.from_faces(2, 1, {0: y, 2: x})
            z = S.fill_horn(z3, h)
            assert z is not None
            assert z3.face(z, 0) == y and z3.face(z, 2) == x


def test_point_is_kan():
    d0 = S.standard_simplex(0, top_dim=4)
    report = S.kan_check(d0, 4)
    assert report.is_kan
    # every horn on the point fills with the unique simplex
    h = HornSpec.from_faces(2, 1, {0: d0.simplices(1)[0], 2: d0.simplices(1)[0]})
    assert S.fill_horn(d0, h) == d0.simplices(2)[0]


def test_interval_is_not_kan(delta1):
    report = S.kan_check(delta1, 2)
    assert not report.is_kan
    assert non_kan_horn(delta1) in report.witnesses
    assert report.horns_checked > 0


def test_nerve_is_kan_up_to_three():
    assert S.kan_check(S.nerve(S.cyclic(2), 4), 3).is_kan


def test_more_nerves_are_kan():
    # group nerves should never produce witnesses at any bound
    assert S.kan_check(S.nerve(S.cyclic(3), 4), 3).is_kan
    assert S.kan_check(S.nerve(S.cyclic(4), 4), 3).is_kan
    assert S.kan_check(S.nerve(S.klein_four(), 4), 2).is_kan


def test_nerve_of_z8_is_kan_up_to_four():
    # a compatible n-horn of a group nerve is fixed by n-1 free elements,
    # and there are n+1 horn indices; dimension 1 has 2 horns over *
    report = S.kan_check(S.nerve(S.cyclic(8), 4), 4)
    assert report.is_kan
    assert report.horns_checked == 2 + 3 * 8**2 + 4 * 8**3 + 5 * 8**4 == 22722


def test_monotonicity_of_kan_reports():
    fixtures = [
        S.standard_simplex(0, top_dim=4),
        S.nerve(S.cyclic(2), 4),
    ]
    for p in fixtures:
        assert S.kan_check(p, 3).is_kan
        assert S.kan_check(p, 2).is_kan
        assert S.kan_check(p, 1).is_kan


def test_truncation_errors():
    z2 = S.nerve(S.cyclic(2), 2)
    with pytest.raises(S.TruncationError):
        S.kan_check(z2, 3)
    star = Simplex((), z2.generator(0, "*"))
    h = HornSpec.from_faces(
        3, 1, {i: S.degenerate(S.degenerate(star, 0), 1) for i in (0, 2, 3)}
    )
    with pytest.raises(S.TruncationError):
        S.fill_horn(z2, h)


def test_truncation_is_refused_before_any_index_is_built(monkeypatch):
    # a hostile dimension must not allocate a face-pattern index
    def no_index(self, n, pattern):
        raise AssertionError(f"index queried in dimension {n}")

    monkeypatch.setattr(S.Presentation, "matching", no_index)
    z2 = S.nerve(S.cyclic(2), 2)
    star = z2.generator(0, "*")
    for n in (3, 200):
        face = S.vertex_simplex(star, n - 1)
        h = HornSpec.from_faces(n, 0, {i: face for i in range(1, n + 1)})
        with pytest.raises(S.TruncationError):
            S.fill_horn(z2, h)
        with pytest.raises(S.TruncationError):
            S.fill_horn_all(z2, h)
        with pytest.raises(S.TruncationError):
            S.homotopy_witness(z2, face, face)
        with pytest.raises(S.TruncationError):
            S.homotopy_witness_shifted(z2, face, face, 0)
        with pytest.raises(S.TruncationError):
            S.kan_check(z2, n)


def test_fill_rejects_incompatible_horn(delta1):
    one = Simplex((), delta1.generator(0, "1"))
    bad = HornSpec.from_faces(2, 0, {1: S.degenerate(one, 0), 2: edge(delta1)})
    with pytest.raises(ValueError):
        S.fill_horn(delta1, bad)


def test_horn_spec_shape_errors(delta1):
    with pytest.raises(ValueError):
        HornSpec.from_faces(2, 0, {1: edge(delta1)})  # missing slot 2
    with pytest.raises(ValueError):
        HornSpec.from_faces(2, 3, {0: edge(delta1), 1: edge(delta1)})
    with pytest.raises(ValueError):
        HornSpec.from_faces(2, 0, {1: edge(delta1), 2: Simplex((), delta1.generator(0, "0"))})


def test_horn_map_formulation_equivalence():
    # a fillable horn extends over the whole simplex; an unfillable one
    # has no candidate image for the top generator at all
    z3 = S.nerve(S.cyclic(3), 4)
    a = Simplex((), z3.generator(1, "g"))
    b = Simplex((), z3.generator(1, "g2"))
    h = HornSpec.from_faces(2, 1, {0: b, 2: a})
    m = S.horn_map(z3, h)
    assert S.validate_map(m).ok
    z = S.fill_horn(z3, h)
    extension = S.map_from_simplex(z3, z)
    assert S.validate_map(extension).ok
    for g, img in m.assignment.items():
        assert extension.assignment[S.GenId(g.dim, g.name)] == img

    d1 = S.standard_simplex(1, top_dim=3)
    bad = non_kan_horn(d1)
    bad_map = S.horn_map(d1, bad)
    assert S.validate_map(bad_map).ok
    # an extension would be exactly a filler, and there is none
    assert S.fill_horn(d1, bad) is None
    assert not any(
        all(d1.face(z, i) == bad.faces[i] for i in (1, 2))
        for z in d1.simplices(2)
    )


def test_horn_map_on_three_dimensional_horn():
    z2 = S.nerve(S.cyclic(2), 4)
    gg = Simplex((), z2.generator(2, "g,g"))
    star2 = S.vertex_simplex(z2.generator(0, "*"), 2)
    # faces of s_1(g,g) with slot 2 removed form a compatible horn
    y = S.degenerate(gg, 1)
    h = HornSpec.from_faces(
        3, 2, {i: z2.face(y, i) for i in (0, 1, 3)}
    )
    assert S.horn_compatible(z2, h)
    m = S.horn_map(z2, h)
    assert S.validate_map(m).ok
    z = S.fill_horn(z2, h)
    assert z is not None
    ext = S.map_from_simplex(z2, z)
    assert S.validate_map(ext).ok
    assert star2.dim == 2
