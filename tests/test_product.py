"""Products, the disjoint-word criterion, prisms, and shuffle counts."""

import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import pytest

import ssets as S
from ssets import Simplex

from helpers import check_pairing, scan_product


@pytest.fixture(scope="module")
def square():
    d1 = S.standard_simplex(1)
    return S.product(d1, d1)


def test_square_census(square):
    assert [square.count_simplices(n) for n in (0, 1, 2)] == [4, 9, 16]
    assert square.generator_counts() == (4, 5, 2)
    # 16 two-simplices, 2 nondegenerate, hence 14 degenerate
    assert square.count_simplices(2) - len(square.generators_at(2)) == 14


def test_square_nondegenerate_two_cells_are_the_two_triangles(square):
    pairs = {square.pair_of(g) for g in square.generators_at(2)}
    seqs = {(S.vertex_sequence(a), S.vertex_sequence(b)) for a, b in pairs}
    assert seqs == {
        ((0, 0, 1), (0, 1, 1)),
        ((0, 1, 1), (0, 0, 1)),
    }


def test_square_has_no_cells_above_dimension_two(square):
    assert square.max_generator_dim == 2
    for n in (3, 4):
        assert len(square.generators_at(n)) == 0


def test_product_validates_and_pairing_bijection(square):
    assert square.validate().ok
    d2 = S.standard_simplex(2)
    d1 = S.standard_simplex(1)
    prism = S.product(d2, d1)
    assert prism.validate().ok
    for p, x, y in ((square, d1, d1), (prism, d2, d1)):
        for n in range(7):
            assert p.count_simplices(n) == x.count_simplices(n) * y.count_simplices(n)


def test_diagonal_edge_and_projections(square):
    d1 = square.left
    e = Simplex((), d1.generator(1, "0.1"))
    diag = square.from_pair(e, e)
    assert not diag.is_degenerate
    pr1, pr2 = S.projections(square)
    assert S.validate_map(pr1).ok and S.validate_map(pr2).ok
    assert S.apply_map(pr1, diag) == e
    # endpoints of the diagonal are opposite corners
    assert square.to_pair(square.face(diag, 1)) == (
        d1.face(e, 1),
        d1.face(e, 1),
    )
    s0e = S.degenerate(e, 0)
    s1e = S.degenerate(e, 1)
    assert S.apply_map(pr2, square.from_pair(s0e, s1e)) == s1e


def test_projections_on_bigger_product_commute_with_faces():
    prism = S.product(S.standard_simplex(2), S.standard_simplex(1))
    pr1, pr2 = S.projections(prism)
    assert S.validate_map(pr1).ok and S.validate_map(pr2).ok
    for n in range(1, 5):
        for x in prism.simplices(n):
            for i in range(n + 1):
                assert S.apply_map(pr1, prism.face(x, i)) == prism.left.face(
                    S.apply_map(pr1, x), i
                )


def test_product_with_point_is_isomorphic():
    d2 = S.standard_simplex(2)
    pt = S.standard_simplex(0)
    prod = S.product(d2, pt)
    assert prod.generator_counts() == d2.generator_counts()
    # the generator-preserving bijection is the first projection
    pr1, _ = S.projections(prod)
    images = {S.apply_map(pr1, Simplex((), g)) for g in prod.all_generators()}
    assert images == {Simplex((), g) for g in d2.all_generators()}
    for g in prod.all_generators():
        if g.dim == 0:
            continue
        img = pr1.assignment[g]
        for i in range(g.dim + 1):
            assert prod.left.face(img, i) == S.apply_map(pr1, prod.face(Simplex((), g), i))


def test_round_trip_pair_encoding(square):
    for n in range(4):
        for x in square.simplices(n):
            a, b = square.to_pair(x)
            assert square.from_pair(a, b) == x


def test_faces_act_componentwise_on_all_simplices():
    # the defining property of the product, checked through the pair
    # encoding on every simplex (degenerate included), mixed factors too
    products = [
        S.product(S.standard_simplex(2), S.standard_simplex(1)),
        S.product(S.standard_simplex(1), S.nerve(S.cyclic(2), 2)),
    ]
    for xy in products:
        for n in range(1, 6):
            for x in xy.simplices(n):
                a, b = xy.to_pair(x)
                for i in range(n + 1):
                    fa, fb = xy.to_pair(xy.face(x, i))
                    assert fa == xy.left.face(a, i)
                    assert fb == xy.right.face(b, i)
                for i in range(n + 1):
                    sa, sb = xy.to_pair(S.degenerate(x, i))
                    assert sa == S.degenerate(a, i)
                    assert sb == S.degenerate(b, i)


def test_prism_decomposition_vertex_forms():
    forms = [ps.vertex_form for ps in S.prism_decomposition(2)]
    assert forms == [
        ("0", "0'", "1'", "2'"),
        ("0", "1", "1'", "2'"),
        ("0", "1", "2", "2'"),
    ]
    only = S.prism_decomposition(0)
    assert len(only) == 1 and only[0].edge_component == Simplex(
        (), S.GenId(1, "0.1")
    )


def test_prism_cells_are_the_product_generators():
    for p in range(4):
        prod = S.product(S.standard_simplex(p), S.standard_simplex(1))
        cells = S.prism_decomposition(p)
        assert len(cells) == p + 1
        top = {prod.pair_of(g) for g in prod.generators_at(p + 1)}
        assert top == {(c.base_component, c.edge_component) for c in cells}


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_prism_gluing_relations(p):
    prod = S.product(S.standard_simplex(p), S.standard_simplex(1))
    cells = [
        prod.from_pair(c.base_component, c.edge_component)
        for c in S.prism_decomposition(p)
    ]
    for k in range(1, p + 1):
        assert prod.face(cells[k], k) == prod.face(cells[k - 1], k)
    for k in range(p):
        assert prod.face(cells[k], k + 1) == prod.face(cells[k + 1], k + 1)


def brute_force_shuffles(p, q):
    """Disjoint increasing index pairs covering 0..p+q-1 exactly."""
    universe = range(p + q)
    count = 0
    for first in combinations(universe, q):
        rest = tuple(v for v in universe if v not in first)
        if len(rest) == p:
            count += 1
    return count


@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_count_nondegenerate_top_matches_brute_force(p, q):
    from math import comb

    expected = brute_force_shuffles(p, q)
    got = S.count_nondegenerate_top(p, q)
    assert got == expected == comb(p + q, p)


def test_count_nondegenerate_top_interval_case():
    assert [S.count_nondegenerate_top(p, 1) for p in range(5)] == [1, 2, 3, 4, 5]


def test_only_product_builds_a_product_presentation(square):
    with pytest.raises(TypeError, match=r"product\(x, y\)"):
        S.ProductPresentation(square.all_generators(), {}, 2)
    # factors and pair encoding are set on the result
    assert (square.left, square.right) == (S.standard_simplex(1),) * 2


def test_product_holds_each_cell_once_and_no_pair_table():
    # Traced allocations of product(Δ3, Δ3), its factors' enumerations
    # included: on Python 3.10-3.13 the result is 431,610-450,704 bytes
    # and the peak, set by one dimension's memos, 1.05-1.06 times it.  A
    # table of each cell's pair would add about 100,000 bytes.
    x, y = S.standard_simplex(3), S.standard_simplex(3)
    product = S.product  # its module runs before the trace
    tracemalloc.start()
    try:
        p = product(x, y)
        result, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(p.generator_counts()) == 1007
    assert result < 480_000 and peak < 1.1 * result
    assert p._pairs == {}  # pair_of pairs a dimension on its first call there
    held: dict = {}
    rows = [p.faces_of(g) for g in p.all_generators()]
    assert all(held.setdefault(face, face) is face for row in rows for face in row)
    assert sum(len(row) for row in rows) > len(held) > 0
    _, pair_of = scan_product(x, y)
    check_pairing(p, pair_of)
    for n in range(5):  # every pair, degenerate ones included
        for a in x.simplices(n):
            for b in y.simplices(n):
                assert p.to_pair(p.from_pair(a, b)) == (a, b)


def vertices(*names):
    return S.Presentation([S.GenId(0, n) for n in names], {})


def test_product_refuses_cells_whose_names_collide():
    # ([p]|[q]|[r]) names both (p, q]|[r) and (p]|[q, r)
    x, y = vertices("p", "p]|[q"), vertices("q]|[r", "r")
    with pytest.raises(S.StructureError) as info:
        S.product(x, y)
    assert str(info.value) == (
        "pairs (p, q]|[r) and (p]|[q, r) are both named '([p]|[q]|[r])'"
    )
    # without the colliding pair every cell has its own name
    p = S.product(x, vertices("q]|[r"))
    pairs = {g.name: tuple(map(str, p.pair_of(g))) for g in p.generators_at(0)}
    assert pairs == {
        "([p]|[q]|[r])": ("p", "q]|[r"),
        "([p]|[q]|[q]|[r])": ("p]|[q", "q]|[r"),
    }


def test_pairing_refuses_what_is_not_of_the_factors(square):
    d1 = square.left
    e, v0 = Simplex((), d1.generator(1, "0.1")), Simplex((), d1.generator(0, "0"))
    foreign_edge = Simplex((), S.GenId(1, "0.2"))
    foreign_vertex = Simplex((), S.GenId(0, "9"))
    for a, b in ((foreign_edge, e), (e, foreign_edge), (foreign_vertex, v0)):
        with pytest.raises(S.StructureError, match="is not a cell of this product"):
            square.from_pair(a, b)
    # a shared index is pulled out by a face of each factor, which refuses first
    with pytest.raises(S.StructureError, match="unknown generator"):
        square.from_pair(S.degenerate(foreign_edge, 0), S.degenerate(e, 0))
    with pytest.raises(ValueError, match="component dimensions differ"):
        square.from_pair(e, v0)
    for g in (S.GenId(2, "([0.1]|[0.2])"), S.GenId(3, "x")):
        with pytest.raises(S.StructureError, match="is not a generator of this product"):
            square.pair_of(g)
        with pytest.raises(S.StructureError):
            square.to_pair(Simplex((), g))
    # a pair whose name is a cell's, of simplices that are not the factors'
    p = S.product(vertices("p"), vertices("q]|[r"))
    with pytest.raises(S.StructureError, match="is not a cell of this product"):
        p.from_pair(Simplex((), S.GenId(0, "p]|[q")), Simplex((), S.GenId(0, "r")))


def test_first_pair_of_calls_from_threads_agree():
    x, y = S.standard_simplex(3), S.standard_simplex(2)
    _, pair_of = scan_product(x, y)
    p = S.product(x, y)
    cells = [g for g in pair_of if g.dim == 3]
    start = threading.Barrier(8)

    def first_call():
        start.wait()
        return [p.pair_of(g) for g in cells]

    with ThreadPoolExecutor(8) as pool:
        answers = [f.result() for f in [pool.submit(first_call) for _ in range(8)]]
    assert answers == [[pair_of[g] for g in cells]] * 8
    assert list(p._pairs) == [3]
