"""Chain complexes, Smith normal form, and homology groups."""

import importlib
import json
import random
from pathlib import Path

import pytest

import ssets as S
from ssets import HomologyGroup, Simplex, cli

from helpers import (
    boundary_squares_to_zero,
    dense_boundary,
    homology_from_snfs,
    minor_gcd_invariant_factors,
    random_complex,
    random_subcomplex,
    seeded_group,
    uncompressed_homology,
)

H = importlib.import_module("ssets.homology")  # ssets.homology is also a function
FIXTURES = Path(__file__).parent.parent / "fixtures"


def Z(betti=1, *torsion):
    return HomologyGroup(betti, tuple(torsion))


ZERO = HomologyGroup(0, ())


def test_snf_basics():
    assert S.smith_normal_form([[2]]) == S.SNFResult((2,), 1)
    assert S.smith_normal_form([[1, 0], [0, 0]]) == S.SNFResult((1,), 1)
    assert S.smith_normal_form([[2, 4], [6, 8]]) == S.SNFResult((2, 4), 2)
    assert S.smith_normal_form([]) == S.SNFResult((), 0)
    assert S.smith_normal_form([[0, 0], [0, 0]]) == S.SNFResult((), 0)


@pytest.mark.parametrize("matrix, factors", [
    ([[2, 0], [0, 3]], (1, 6)),
    ([[4, 0], [0, 6]], (2, 12)),
    ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], (1, 30, 30)),
    ([[0, 0, 15], [0, 10, 0], [6, 0, 0]], (1, 30, 30)),
])
def test_snf_of_a_diagonal_that_is_not_a_divisibility_chain(matrix, factors):
    # the invariant factors of diag(u, v) are gcd(u, v) and lcm(u, v)
    assert S.smith_normal_form(matrix) == S.SNFResult(factors, len(factors))


def test_snf_matches_minor_gcd_oracle():
    cases = [
        [[2, 4], [6, 8]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[6, 0], [0, 10]],
        [[-3, 1], [2, 4], [0, 5]],
        [[2, 6, 10], [4, 8, 0]],
    ]
    for m in cases:
        assert S.smith_normal_form(m).factors == minor_gcd_invariant_factors(m)


def test_snf_cross_check_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    cases = [
        [[2, 4], [6, 8]],
        [[0, 2], [3, 0]],
        [[12, 8, 4], [6, 10, 2], [0, 0, 9]],
        [[5]],
    ]
    for m in cases:
        d = sympy_snf(sympy.Matrix(m))
        diag = [abs(d[i, i]) for i in range(min(d.shape)) if d[i, i] != 0]
        assert list(S.smith_normal_form(m).factors) == diag


def test_boundary_matrix_of_edge():
    d1 = S.standard_simplex(1)
    c = S.normalized_complex(d1, 1)
    rows = {g.name: r for r, g in enumerate(c.bases[0])}
    col = [dense_boundary(c, 1)[rows["0"]][0], dense_boundary(c, 1)[rows["1"]][0]]
    assert col == [-1, 1]  # d_0 hits vertex 1 with +, d_1 hits vertex 0 with -


def test_two_cell_sphere_boundary_is_zero():
    # both faces of the cell are degenerate, so nothing survives
    s2 = S.sphere_two_cell(2)
    c = S.normalized_complex(s2, 2)
    assert c.bases[1] == ()
    assert all(all(v == 0 for v in row) for row in dense_boundary(c, 2))


def test_cone_boundary_column():
    cone = S.cone()
    c = S.normalized_complex(cone, 2)
    rows = {g.name: r for r, g in enumerate(c.bases[1])}
    column = [dense_boundary(c, 2)[rows["a"]][0], dense_boundary(c, 2)[rows["b"]][0]]
    assert column == [0, 1]  # the two glued side faces cancel


def test_boundary_squares_to_zero_everywhere():
    fixtures = [
        S.standard_simplex(3),
        S.boundary(3),
        S.sphere_two_cell(3),
        S.cone(),
        S.double_edge_circle(),
        S.nerve(S.cyclic(2), 5),
        S.nerve(S.symmetric_3(), 5),
        S.product(S.standard_simplex(1), S.standard_simplex(1)),
    ]
    for p in fixtures:
        n = min(p.top_dim, p.max_generator_dim + 1)
        assert boundary_squares_to_zero(S.normalized_complex(p, n))
        assert boundary_squares_to_zero(S.unnormalized_complex(p, min(n, 3)))


def test_boundary_square_check_sees_a_wrong_sign():
    c = S.normalized_complex(S.standard_simplex(2), 2)
    col = c.boundaries[2][0]
    flipped = {r: -v if r == min(col) else v for r, v in col.items()}
    broken = S.ChainComplex(c.bases, (c.boundaries[0], c.boundaries[1], (flipped,)))
    assert not boundary_squares_to_zero(broken)


def _dense_homology(c):
    return homology_from_snfs(c, lambda n: S.smith_normal_form(dense_boundary(c, n)))


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.sset")), ids=lambda p: p.stem)
def test_homology_matches_dense_snf_on_every_fixture(path):
    p = S.load_presentation(path)
    c = S.normalized_complex(p, p.top_dim)
    for n in range(1, c.max_dim + 1):
        dense = S.smith_normal_form(dense_boundary(c, n))
        assert H.sparse_smith_normal_form(c.boundaries[n]) == dense
    assert S.homology_of_complex(c) == _dense_homology(c)


# -- compressed sweeps against whole sweeps --------------------------------------


def assert_compression_is_exact(p, top):
    c = S.normalized_complex(p, top)
    assert S.homology_of_complex(c) == uncompressed_homology(c)


@pytest.mark.parametrize(
    "group",
    [pytest.param(g, id=label) for label, g in S.all_group_tables(6)]
    + [pytest.param(seeded_group(g, 7), id=f"seeded-{label}")
       for label, g in S.all_group_tables(6) if g.order == 6],
)
def test_compressed_homology_of_nerves_matches_whole_sweeps(group):
    for top in range(1, 6):
        assert_compression_is_exact(S.nerve(group, top), top)


SMALL_FILES = [f for f in sorted(FIXTURES.glob("*.sset")) if f.stem not in ("nerve_z3", "nerve_z4")]


@pytest.mark.parametrize("left", SMALL_FILES, ids=lambda f: f.stem)
def test_compressed_homology_of_products_matches_whole_sweeps(left):
    x = S.load_presentation(left)
    for right in SMALL_FILES:
        p = S.product(x, S.load_presentation(right))
        assert_compression_is_exact(p, min(p.top_dim, p.max_generator_dim + 1))


def test_compressed_homology_of_random_complexes_matches_whole_sweeps():
    rng = random.Random(515)
    for _ in range(40):
        p = random_complex(rng)
        top = p.max_generator_dim + 1
        assert_compression_is_exact(p, top)
        for _ in range(3):
            assert_compression_is_exact(random_subcomplex(rng, p), top)


def test_simplices_are_acyclic():
    for n in range(1, 5):
        groups = S.homology(S.standard_simplex(n), min(n + 1, 4))
        assert groups[0] == Z()
        assert all(g == ZERO for g in groups[1:])


def test_spheres():
    for n in (2, 3):
        expected = [Z()] + [ZERO] * (n - 1) + [Z()]
        assert list(S.homology(S.sphere_two_cell(n), n + 1)) == expected
        assert list(S.homology(S.boundary(n + 1), n + 1)) == expected


def test_cone_is_acyclic():
    groups = S.homology(S.cone(), 3)
    assert groups[0] == Z()
    assert all(g == ZERO for g in groups[1:])


def test_circle():
    assert list(S.homology(S.double_edge_circle(), 2)) == [Z(), Z()]


def test_nerve_z2_homology_and_oracle():
    z2 = S.nerve(S.cyclic(2), 5)
    groups = S.homology(z2, 5)[:4]
    assert list(groups) == [Z(), Z(0, 2), ZERO, Z(0, 2)]
    # independent oracle: the full truncated complex on all simplices
    for degree in range(3):
        oracle = S.homology_of_complex(S.unnormalized_complex(z2, degree + 2))
        assert oracle[degree] == groups[degree]


@pytest.mark.parametrize("k", range(2, 7))
def test_classifying_space_of_cyclic_group(k):
    groups = S.homology(S.nerve(S.cyclic(k), 5), 5)
    assert list(groups) == [Z(), Z(0, k), ZERO, Z(0, k), ZERO]


def test_classifying_space_of_s3():
    groups = S.homology(S.nerve(S.symmetric_3(), 6), 6)
    assert list(groups) == [Z(), Z(0, 2), ZERO, Z(0, 6), ZERO, Z(0, 2)]


def test_cli_structured_homology_of_bs3(tmp_path, capsys):
    f = tmp_path / "s3.sset"
    S.save_presentation(S.nerve(S.symmetric_3(), 5), f)
    code = cli.main(["--format", "structured", "homology", str(f), "--max-dim", "5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "homology",
        "max_dim": 5,
        "groups": [
            {"degree": 0, "betti": 1, "torsion": []},
            {"degree": 1, "betti": 0, "torsion": [2]},
            {"degree": 2, "betti": 0, "torsion": []},
            {"degree": 3, "betti": 0, "torsion": [6]},
            {"degree": 4, "betti": 0, "torsion": []},
        ],
    }


def test_unnormalized_oracle_on_other_fixtures():
    for p in (S.sphere_two_cell(2), S.cone(), S.double_edge_circle()):
        normalized = S.homology(p, 3)
        for degree in range(2):
            oracle = S.homology_of_complex(S.unnormalized_complex(p, degree + 2))
            assert oracle[degree] == normalized[degree]


def test_euler_characteristic():
    assert S.euler_characteristic(S.sphere_two_cell(2)) == 2
    assert S.euler_characteristic(S.standard_simplex(2)) == 1
    assert S.euler_characteristic(S.boundary(3)) == 2
    assert S.euler_characteristic(S.cone()) == 1


def test_euler_equals_alternating_betti_sum():
    fixtures = [
        S.standard_simplex(3),
        S.boundary(3),
        S.sphere_two_cell(2),
        S.cone(),
        S.double_edge_circle(),
    ]
    for p in fixtures:
        n = p.max_generator_dim + 1
        groups = S.homology(p, n)
        chi = sum((-1) ** d * g.betti for d, g in enumerate(groups))
        assert chi == S.euler_characteristic(p)


def test_h0_of_collapse_image_stays_connected():
    # homotopy-invariance smoke test: the collapse of the triangle onto
    # the edge carries the single component onto the single component
    d2, d1 = S.standard_simplex(2), S.standard_simplex(1)
    assert len(S.path_components(d2)) == len(S.path_components(d1)) == 1
    assert S.homology(d2, 2)[0] == S.homology(d1, 1)[0] == Z()


def test_homology_group_rendering():
    assert str(Z()) == "Z"
    assert str(Z(0, 2)) == "Z/2"
    assert str(Z(2, 2, 4)) == "Z^2 ⊕ Z/2 ⊕ Z/4"
    assert str(ZERO) == "0"
    with pytest.raises(ValueError):
        HomologyGroup(0, (4, 2))


def test_truncation_guard():
    z2 = S.nerve(S.cyclic(2), 3)
    with pytest.raises(S.TruncationError):
        S.normalized_complex(z2, 4)
