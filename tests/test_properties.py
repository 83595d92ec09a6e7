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
from ssets import homotopy

from helpers import (
    minor_gcd_invariant_factors,
    boundary_squares_to_zero,
    check_pairing,
    pairwise_partition,
    oracle_degeneracy,
    oracle_face,
    random_complex,
    scan_matching,
    scan_product,
    scan_witness,
    scan_violations,
    seq_of,
    seq_to_simplex,
    swap_faces,
    swappable_generators,
    with_faces,
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


def face_by_face(p, x):
    return tuple(p.face(x, i) for i in range(x.dim + 1))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: path.stem)
def test_face_row_agrees_with_face_on_every_shipped_simplex(path):
    p = S.load_presentation(path)
    for n in range(1, p.top_dim + 1):
        for x in p.simplices(n):
            assert p.face_row(x) == face_by_face(p, x)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_face_row_agrees_with_face_on_nerves_and_products(data):
    # simplices above the top generator dimension carry long degeneracy words
    _, table = data.draw(st.sampled_from(S.all_group_tables(4)))
    top = data.draw(st.integers(1, 3))
    build = data.draw(
        st.sampled_from(
            [
                lambda: S.nerve(table, top),
                lambda: S.product(S.standard_simplex(top - 1), S.nerve(table, 2)),
                lambda: S.product(S.standard_simplex(1), S.standard_simplex(top)),
            ]
        )
    )
    p = build()
    n = data.draw(st.integers(1, p.top_dim + 2))
    x = data.draw(st.sampled_from(p.simplices(n)))
    assert p.face_row(x) == face_by_face(p, x)


# the pair-by-pair oracle tests every pair of n-simplices, so the two
# nerves of order 3 and 4 (whose self-products it would take minutes on)
# stay out
SMALL_SHIPPED = [path for path in SHIPPED if path.stem not in ("nerve_z3", "nerve_z4")]


def assert_product_matches_scan(x, y):
    prod = S.product(x, y)
    faces, pair_of = scan_product(x, y)
    assert sorted(prod.all_generators()) == sorted(pair_of)
    assert {g: prod.faces_of(g) for g in pair_of if g.dim} == faces
    check_pairing(prod, pair_of)


@pytest.mark.parametrize("left", SMALL_SHIPPED, ids=lambda path: path.stem)
def test_product_agrees_with_the_pair_by_pair_scan(left):
    x = S.load_presentation(left)
    for right in SMALL_SHIPPED:
        assert_product_matches_scan(x, S.load_presentation(right))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(0, 3), st.booleans())
def test_product_of_nerve_and_simplex_agrees_with_the_scan(k, q, nerve_left):
    x, y = S.nerve(S.cyclic(k), 2), S.standard_simplex(q)
    if nerve_left:
        assert_product_matches_scan(x, y)
    else:
        assert_product_matches_scan(y, x)


def test_validate_reports_the_violations_of_the_four_face_scan():
    cases = []
    for path in SHIPPED:
        p = S.load_presentation(path)
        for g, pairs in swappable_generators(p)[:3]:
            cases.append(swap_faces(p, g, *pairs[0]))
            cases.append(swap_faces(p, g, *pairs[-1]))
    # a triangle of the 4-simplex is a face of two tetrahedra, so its
    # swapped faces break the identity on both, through one shared row
    d4 = S.standard_simplex(4)
    tri = d4.generator(2, "0.1.2")
    shared = swap_faces(d4, tri, 0, 2)
    cases.append(shared)
    # one degenerate entry written into two generators' face tables
    d3 = S.standard_simplex(3)
    bad = Simplex((0,), d3.generator(0, "0"))
    degenerate = with_faces(
        d3, {(d3.generator(2, "0.1.3"), 1): bad, (d3.generator(2, "1.2.3"), 0): bad}
    )
    cases.append(degenerate)
    rng = random.Random(7)
    for _ in range(20):
        p = random_complex(rng)
        targets = swappable_generators(p)
        g, pairs = targets[rng.randrange(len(targets))]
        cases.append(swap_faces(p, g, *pairs[rng.randrange(len(pairs))]))
    for p in cases:
        report = p.validate()
        assert not report.fatal
        assert report.violations == scan_violations(p)
    broken = {v.gen.name for v in shared.validate().violations}
    assert {"0.1.2", "0.1.2.3", "0.1.2.4"} <= broken
    broken = {v.gen.name for v in degenerate.validate().violations}
    assert {"0.1.3", "1.2.3"} <= broken
    assert all(not p.validate().ok for p in cases)


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
        assert boundary_squares_to_zero(chain)
        groups = S.homology(p, top)
        chi = sum((-1) ** d * g.betti for d, g in enumerate(groups))
        assert chi == S.euler_characteristic(p)
        for degree in (0, 1):
            oracle = S.homology_of_complex(S.unnormalized_complex(p, degree + 2))
            assert oracle[degree] == groups[degree]


# -- the homotopy partition against the pair-by-pair oracle --------------------


def with_a_repeat(rng, reps):
    """reps with one of its members inserted again at a random position."""
    reps = list(reps)
    reps.insert(rng.randint(0, len(reps)), rng.choice(reps))
    return reps


def complex_and_mutant(rng):
    """A random complex and a copy with two faces of one cell swapped.

    The copy fails validation, so faces the simplicial identities would
    force must be checked by the searches themselves.
    """
    p = random_complex(rng, max_vertices=5)
    g, pairs = rng.choice(swappable_generators(p))
    return p, swap_faces(p, g, *rng.choice(pairs))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_partition_agrees_with_the_pairwise_oracle_on_random_complexes(seed):
    # n = 0 is where closure is needed: an edge witnesses one direction only
    rng = random.Random(seed)
    for p in complex_and_mutant(rng):
        for n in range(p.top_dim - 1):
            reps = with_a_repeat(rng, p.simplices(n))
            expected = pairwise_partition(
                reps, lambda a, b: scan_witness(p, a, b, a.dim)
            )
            assert S.homotopy_classes(p, reps) == expected


@pytest.mark.parametrize("k", [2, 5, 8])
def test_partition_agrees_with_the_pairwise_oracle_on_nerves(k):
    p = S.nerve(S.cyclic(k), 3)
    rng = random.Random(k)
    for n in range(2):
        reps = with_a_repeat(rng, p.simplices(n))
        expected = pairwise_partition(reps, lambda a, b: scan_witness(p, a, b, a.dim))
        assert S.homotopy_classes(p, reps) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_path_components_agree_with_the_pairwise_oracle(seed):
    # the raw relation: an edge runs from d_1 to d_0, one direction only
    p = random_complex(random.Random(seed))
    verts = p.generators_at(0)
    edges = {
        (p.face(e, 1).gen, p.face(e, 0).gen)
        for e in (Simplex((), g) for g in p.generators_at(1))
    }
    blocks, _ = pairwise_partition(verts, lambda a, b: (a, b) if (a, b) in edges else None)
    assert S.path_components(p) == tuple(tuple(verts[i] for i in b) for b in blocks)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_relative_partition_agrees_with_the_pairwise_oracle(seed):
    # n = 1 is where closure is needed here
    rng = random.Random(seed)
    for p in complex_and_mutant(rng):
        gens = list(p.all_generators())
        sub = S.SubPresentation.closure(p, rng.sample(gens, rng.randint(1, len(gens))))
        for n in range(1, p.top_dim - 1):
            reps = with_a_repeat(rng, p.simplices(n))
            expected = pairwise_partition(
                reps, lambda u, v: scan_witness(p, u, v, u.dim, sub)
            )
            assert homotopy._partition(reps, homotopy._targets(p, sub)) == expected
