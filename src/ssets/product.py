"""Categorical products of presentations and prism combinatorics.

An n-simplex of X x Y is a pair (a, b) of n-simplices.  The pair is
nondegenerate exactly when the degeneracy words of a and b share no
index: a shared index s_j can be pulled out of both components at once,
and conversely an outer s_j lands in both canonical words.  Faces act
componentwise and are re-expressed in canonical pair form by extracting
common indices, largest first.
"""

from __future__ import annotations

from functools import cache

from .core import (
    GenId,
    Presentation,
    Record,
    Simplex,
    StructureError,
    _new,
    apply_word,
    compact_simplex,
)
from . import constructions  # only the prism functions run it


class ProductPresentation(Presentation):
    """A product presentation remembering its factors.

    The name ``(compact(a)|compact(b))`` of each cell is the one record of
    its pair: ``from_pair`` finds a cell by that name, and ``pair_of``
    pairs the cells of a dimension again on its first use there.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a ProductPresentation is built by product(x, y)")

    def pair_of(self, g: GenId) -> tuple[Simplex, Simplex]:
        if not self.has_generator(g):
            raise StructureError(f"{g} is not a generator of this product")
        pairs = self._pairs.get(g.dim)
        if pairs is None:  # two threads may both pair a dimension; the first kept wins
            n = g.dim
            xs, ys = self.left.simplices(n), self.right.simplices(n)
            built = {_cell(a, b): (a, b) for a, b in _compatible_pairs(xs, ys)}
            pairs = self._pairs.setdefault(n, built)
        return pairs[g]

    def to_pair(self, x: Simplex) -> tuple[Simplex, Simplex]:
        """Components of an arbitrary simplex of the product."""
        a, b = self.pair_of(x.gen)
        return apply_word(a, x.word), apply_word(b, x.word)

    def from_pair(self, a: Simplex, b: Simplex) -> Simplex:
        """Canonical simplex of the product for a componentwise pair.

        Components with disjoint words over generators of the factors are
        a cell, and ``product`` refuses two cells of one name, so the name
        finds it.
        """
        if a.dim != b.dim:
            raise ValueError(f"component dimensions differ: {a.dim} vs {b.dim}")
        word, a0, b0 = _extract_common(self.left, self.right, a, b)
        if not (self.left.has_generator(a0.gen) and self.right.has_generator(b0.gen)):
            raise StructureError(f"pair ({a0}, {b0}) is not a cell of this product")
        return Simplex(word, _cell(a0, b0))


def _cell(a: Simplex, b: Simplex, a_name=compact_simplex, b_name=compact_simplex) -> GenId:
    """The product cell of a pair of simplices with disjoint words, by its name."""
    return _new(GenId, (a.dim, f"({a_name(a)}|{b_name(b)})"))


def _extract_common(left, right, a, b):
    """Pull shared degeneracy indices out of both components, largest first.

    Largest-first keeps the extracted outer word strictly decreasing: after
    removing index j from both words, every remaining shared index is < j.
    """
    word = []
    while True:
        common = set(a.word) & set(b.word)
        if not common:
            return tuple(word), a, b
        j = max(common)
        word.append(j)
        a = left.face(a, j)
        b = right.face(b, j)


def _word_mask(x: Simplex) -> int:
    mask = 0
    for j in x.word:
        mask |= 1 << j
    return mask


def _compatible_pairs(xs, ys):
    """The pairs (a, b) of xs x ys whose degeneracy words share no index.

    Pairs come a-major in the order of ``xs`` and ``ys``.  The partners of
    a are the same for every a with the same word, so they are listed
    once per word, by a bitmask test against each b.
    """
    y_masks = [(b, _word_mask(b)) for b in ys]
    partners: dict[int, list[Simplex]] = {}
    for a in xs:
        mask = _word_mask(a)
        bs = partners.get(mask)
        if bs is None:
            bs = partners[mask] = [b for b, m in y_masks if not m & mask]
        for b in bs:
            yield a, b


def product(x: Presentation, y: Presentation) -> ProductPresentation:
    """The product presentation, truncated at the sum of the factor bounds.

    A cell is named by its pair and holds no other record of it; two
    cells of one name are refused.  A face pair with disjoint words is a
    cell one dimension down and maps to that cell's one ``Simplex``; a
    pair sharing an index is put in canonical form once.  Factor face
    rows are built over the objects of ``simplices(n - 1)``; rows and
    memos live for one dimension.  The table is valid by construction,
    so the result is not checked again, and its generators and simplices
    are built from checked parts without the constructors' checks.
    """
    faces: dict[GenId, tuple[Simplex, ...]] = {}
    by_dim: dict[int, list[GenId]] = {}
    below: dict[tuple[Simplex, Simplex], Simplex] = {}

    def pair_simplex(a, b):
        if (a, b) not in below:
            word, a0, b0 = _extract_common(x, y, a, b)
            below[(a, b)] = _new(Simplex, (word, _cell(a0, b0)))
        return below[(a, b)]

    for n in range(x.max_generator_dim + y.max_generator_dim + 1):
        xs, ys = x.simplices(n), y.simplices(n)
        x_name, y_name = cache(compact_simplex), cache(compact_simplex)
        x_row, y_row = _row_reader(x, n), _row_reader(y, n)
        cells = {}
        gens = by_dim[n] = []
        for ab in _compatible_pairs(xs, ys):
            a, b = ab
            g = _cell(a, b, x_name, y_name)
            if g in faces:
                a1, b1 = next(pair for pair, c in cells.items() if c.gen == g)
                raise StructureError(
                    f"pairs ({a1}, {b1}) and ({a}, {b}) are both named {g.name!r}"
                )
            cells[ab] = _new(Simplex, ((), g))
            gens.append(g)
            row = ()
            if n:
                fa, fb = x_row(a), y_row(b)
                row = tuple(map(below.get, zip(fa, fb)))
                if None in row:
                    row = tuple(map(pair_simplex, fa, fb))
            faces[g] = row
        below = cells
    p = ProductPresentation._from_checked(
        by_dim, faces, x.top_dim + y.top_dim, name=f"({x.name or '?'}x{y.name or '?'})"
    )
    p.left, p.right, p._pairs = x, y, {}
    return p


def _row_reader(p: Presentation, n: int):
    """p.face_row on n-simplices over the objects of simplices(n - 1), built once each."""
    held = {s: s for s in p.simplices(n - 1)} if n else {}
    return cache(lambda a: tuple([held[f] for f in p.face_row(a)]))


class PrismSimplex(Record):
    """One top cell of a prism (simplex x interval).

    The pair is (s_k of the top base simplex, the complementary
    degeneracy word on the interval edge); the vertex form lists base
    vertices 0..k then primed top vertices k'..p'.
    """

    k: int
    base_component: Simplex
    edge_component: Simplex
    vertex_form: tuple[str, ...]


def prism_decomposition(p: int) -> list[PrismSimplex]:
    """The p+1 nondegenerate (p+1)-cells of the prism over the p-simplex."""
    if p < 0:
        raise ValueError("dimension must be >= 0")
    top = GenId(p, ".".join(str(v) for v in range(p + 1)))
    edge = GenId(1, "0.1")
    out = []
    for k in range(p + 1):
        base = Simplex((k,), top)
        word = tuple(j for j in range(p, -1, -1) if j != k)
        edge_part = Simplex(word, edge)
        base_vs, edge_vs = map(constructions.vertex_sequence, (base, edge_part))
        labels = [f"{v}'" if side else f"{v}" for v, side in zip(base_vs, edge_vs)]
        out.append(PrismSimplex(k, base, edge_part, tuple(labels)))
    return out


def count_nondegenerate_top(p: int, q: int) -> int:
    """Number of nondegenerate (p+q)-cells of the product of two simplices.

    Counted directly as pairs of (p+q)-simplices of the factors with
    disjoint degeneracy words.
    """
    if p < 0 or q < 0:
        raise ValueError("dimensions must be >= 0")
    n = p + q
    pairs = _compatible_pairs(
        constructions.standard_simplex(p).simplices(n),
        constructions.standard_simplex(q).simplices(n),
    )
    return sum(1 for _ in pairs)
