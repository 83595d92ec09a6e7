"""Property suites: identities under rewriting, randomized presentations,
mutation detection, and hypothesis-driven oracle comparisons."""

import importlib
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssets as S
from ssets import Simplex

from helpers import (
    minor_gcd_invariant_factors,
    oracle_degeneracy,
    oracle_face,
    random_complex,
    scan_matching,
    seq_of,
    seq_to_simplex,
    swap_faces,
    swappable_generators,
)

FIXTURES = [
    S.standard_simplex(2),
    S.boundary(3),
    S.horn(3, 1),
    S.sphere_two_cell(2),
    S.cone(),
    S.double_edge_circle(),
    S.nerve(S.cyclic(3), 4),
    S.nerve(S.klein_four(), 3),
    S.product(S.standard_simplex(1), S.standard_simplex(1)),
]


@pytest.mark.parametrize("p", FIXTURES, ids=lambda p: p.name or "fixture")
def test_rewriting_confluence_up_to_dim_five(p):
    # d_i d_j = d_{j-1} d_i on every simplex, not just on generators
    for n in range(2, 6):
        for x in p.simplices(n):
            for j in range(1, n + 1):
                for i in range(j):
                    assert p.face(p.face(x, j), i) == p.face(p.face(x, i), j - 1)


SHIPPED = sorted((Path(__file__).parent.parent / "fixtures").glob("*.sset"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
def test_matching_agrees_with_the_linear_scan(path):
    # every subset of fixed slots, with patterns taken from real face rows
    # spread through the enumeration, and one pattern no simplex can have
    p = S.load_presentation(path)
    for n in range(p.top_dim + 1):
        level = p.simplices(n)
        step = max(1, len(level) // 4)
        rows = [
            [p.face(z, i) for i in range(n + 1)] if n else [None]
            for z in level[::step]
        ]
        for fixed in range(2 ** (n + 1) if n else 1):
            for row in rows:
                pattern = [f if fixed >> i & 1 else None for i, f in enumerate(row)]
                assert p.matching(n, pattern) == scan_matching(p, n, pattern)
        if n >= 2:
            low = p.simplices(n - 1)
            pairs = ((a, b) for a in low for b in low if p.face(a, 0) != p.face(b, 0))
            a, b = next(pairs, (None, None))
            if a is not None:
                # d_0 d_1 z = d_0 d_0 z, so no z has d_0 z = a and d_1 z = b
                pattern = [a, b] + [None] * (n - 1)
                assert p.matching(n, pattern) == scan_matching(p, n, pattern) == ()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matching_agrees_with_the_scan_on_random_nerves(data):
    _, table = data.draw(st.sampled_from(S.all_group_tables(5)))
    p = S.nerve(table, 3)
    n = data.draw(st.integers(1, 3))
    z = data.draw(st.sampled_from(p.simplices(n)))
    fixed = data.draw(st.lists(st.booleans(), min_size=n + 1, max_size=n + 1))
    pattern = [p.face(z, i) if keep else None for i, keep in enumerate(fixed)]
    assert p.matching(n, pattern) == scan_matching(p, n, pattern)
    assert z in p.matching(n, pattern)


@pytest.mark.parametrize("p", FIXTURES, ids=lambda p: p.name or "fixture")
def test_annihilation_identities_up_to_dim_four(p):
    for n in range(5):
        for x in p.simplices(n):
            for j in range(n + 1):
                y = S.degenerate(x, j)
                assert p.face(y, j) == x
                assert p.face(y, j + 1) == x


def test_hundred_random_presentations_validate_and_mutations_are_caught():
    rng = random.Random(20240817)
    checked_mutations = 0
    for trial in range(100):
        p = random_complex(rng)
        assert p.validate().ok, f"trial {trial}"
        # spot-check the rewriting identities on low-dimensional simplices
        for n in (2, 3):
            for x in p.simplices(n)[:40]:
                for j in range(1, n + 1):
                    for i in range(j):
                        assert p.face(p.face(x, j), i) == p.face(
                            p.face(x, i), j - 1
                        )
        targets = swappable_generators(p)
        assert targets, f"trial {trial}: sample has no mutable cell"
        g, pairs = targets[rng.randrange(len(targets))]
        i, j = pairs[rng.randrange(len(pairs))]
        mutated = swap_faces(p, g, i, j)
        assert not mutated.validate().ok, f"trial {trial}: swap on {g} undetected"
        checked_mutations += 1
    assert checked_mutations == 100


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_random_operator_words_agree_with_vertex_oracle(data):
    p = S.standard_simplex(3)
    start_dim = data.draw(st.integers(0, 3))
    x = data.draw(st.sampled_from(p.simplices(start_dim)))
    seq = seq_of(x)
    for _ in range(data.draw(st.integers(0, 6))):
        if x.dim >= 1 and data.draw(st.booleans()):
            i = data.draw(st.integers(0, x.dim))
            x = p.face(x, i)
            seq = oracle_face(seq, i)
        else:
            i = data.draw(st.integers(0, x.dim))
            x = S.degenerate(x, i)
            seq = oracle_degeneracy(seq, i)
        assert x == seq_to_simplex(seq)
        assert seq_of(x) == seq


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_agrees_with_minor_gcd_oracle(rows):
    got = S.smith_normal_form(rows)
    assert got.factors == minor_gcd_invariant_factors(rows)
    assert got.rank == len(got.factors)


H = importlib.import_module("ssets.homology")  # ssets.homology is also a function
DENSE_SNF = H.smith_normal_form


@st.composite
def unit_pivot_cases(draw):
    """(kind, matrix): no ±1 entries at all, arbitrary small entries, or
    upper triangular with a ±1 diagonal, which the unit sweep clears fully."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("no_units", "mixed", "unit_triangular")))
    if kind == "no_units":
        entry = st.sampled_from((0, 0, 2, -2, 3, -4, 6, 9))
    else:
        entry = st.integers(-3, 3)
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if kind == "unit_triangular":
        for r in range(rows):
            m[r][: min(r, cols)] = [0] * min(r, cols)
            if r < cols:
                m[r][r] = draw(st.sampled_from((1, -1)))
    return kind, m


@settings(max_examples=300, deadline=None)
@given(unit_pivot_cases())
def test_sparse_snf_agrees_with_dense_snf(case):
    kind, m = case
    columns = [{r: row[c] for r, row in enumerate(m) if row[c]} for c in range(len(m[0]))]
    before = [dict(col) for col in columns]
    residuals = []

    def recording_dense_snf(matrix):
        residuals.append(matrix)
        return DENSE_SNF(matrix)

    with mock.patch.object(H, "smith_normal_form", recording_dense_snf):
        got = H.sparse_smith_normal_form(columns)
    assert got == DENSE_SNF(m)
    assert columns == before
    (residual,) = residuals
    if kind == "no_units":
        nonzero_rows = sum(1 for row in m if any(row))
        nonzero_cols = sum(1 for col in columns if col)
        assert (len(residual), len(residual[0]) if residual else 0) == (nonzero_rows, nonzero_cols)
    elif kind == "unit_triangular":
        assert residual == []


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_degeneracy_exchange_identity(data):
    p = S.standard_simplex(2)
    n = data.draw(st.integers(0, 3))
    x = data.draw(st.sampled_from(p.simplices(n)))
    j = data.draw(st.integers(0, x.dim))
    i = data.draw(st.integers(0, j))
    # s_i s_j = s_{j+1} s_i for i <= j
    lhs = S.degenerate(S.degenerate(x, j), i)
    rhs = S.degenerate(S.degenerate(x, i), j + 1)
    assert lhs == rhs


def test_map_degeneracy_commutation_tripwire():
    # forced by the extension rule, asserted anyway as a regression guard
    d2, d1 = S.standard_simplex(2), S.standard_simplex(1)
    e = Simplex((), d1.generator(1, "0.1"))
    one = Simplex((), d1.generator(0, "1"))
    f = S.SimplicialMap(
        d2,
        d1,
        {
            d2.generator(2, "0.1.2"): S.degenerate(e, 1),
            d2.generator(1, "0.1"): e,
            d2.generator(1, "0.2"): e,
            d2.generator(1, "1.2"): S.degenerate(one, 0),
            d2.generator(0, "0"): Simplex((), d1.generator(0, "0")),
            d2.generator(0, "1"): one,
            d2.generator(0, "2"): one,
        },
    )
    for n in range(4):
        for x in d2.simplices(n):
            for i in range(n + 1):
                assert S.apply_map(f, S.degenerate(x, i)) == S.degenerate(
                    S.apply_map(f, x), i
                )


def test_closure_flag_is_clean_on_kan_fixtures():
    for table in (S.cyclic(2), S.cyclic(3), S.cyclic(4)):
        p = S.nerve(table, 4)
        based = S.BasedPresentation(p, p.generator(0, "*"))
        assert not S.pi_n(based, 1).closure_needed


def test_homology_pipeline_on_random_complexes():
    # boundary squares to zero, Euler matches Betti numbers, and the
    # unnormalized truncated complex agrees in low degrees
    rng = random.Random(424242)
    for _ in range(10):
        p = random_complex(rng, max_vertices=6)
        top = p.max_generator_dim + 1
        chain = S.normalized_complex(p, top)
        assert chain.verify_boundary_squares_to_zero()
        groups = S.homology(p, top)
        chi = sum((-1) ** d * g.betti for d, g in enumerate(groups))
        assert chi == S.euler_characteristic(p)
        for degree in (0, 1):
            oracle = S.homology_of_complex(S.unnormalized_complex(p, degree + 2))
            assert oracle[degree] == groups[degree]
