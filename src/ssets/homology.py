"""Integer homology of presentations via Smith normal form.

The primary chain complex is the normalized one: bases are the
nondegenerate generators and any face that lands on a degenerate
simplex contributes zero.  The full complex on all simplices (faces
taken literally) is also available; truncated low-degree homology of
that complex serves as an independent cross-check of the normalization.

Boundary maps are sparse columns, one ``{row: coeff}`` dict per basis
element with zero entries dropped.  Homology builds ∂1, ∂2, ... in turn
from the face rows, sweeps out unit (±1) pivots without the rows the
sweep below pivoted on, runs the dense Smith normal form only on the
block that is left, and drops each boundary before the next.  All
arithmetic is exact over Python ints, so intermediate entry growth in
either phase cannot overflow.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm

from .core import Presentation, Record

Column = dict[int, int]


class ChainComplex(Record):
    """Bases and sparse boundary maps for dimensions 0..N.

    ``boundaries[n]`` maps dimension n to n-1: one sparse column per
    element of ``bases[n]``, keyed by row index into ``bases[n-1]``,
    with no zero entries.  Index 0 is empty.  The columns are never
    mutated.
    """

    bases: tuple[tuple, ...]
    boundaries: tuple[tuple[Column, ...], ...]

    @property
    def max_dim(self) -> int:
        return len(self.bases) - 1

    def rank_of_chains(self, n: int) -> int:
        return len(self.bases[n]) if 0 <= n <= self.max_dim else 0


def _dense(columns, row_at) -> list[list[int]]:
    """Dense matrix of sparse columns; ``row_at[r]`` places row r, in order."""
    m = [[0] * len(columns) for _ in row_at]
    for c, col in enumerate(columns):
        for r, v in col.items():
            m[row_at[r]][c] = v
    return m


def _column(rows) -> Column:
    """Sparse column of the alternating face sum."""
    col: Column = {}
    for i, r in enumerate(rows):
        col[r] = col.get(r, 0) + (-1) ** i
    return {r: v for r, v in col.items() if v}


def _check_max_dim(p: Presentation, max_dim: int) -> None:
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    p.require_trusted(max_dim, "the chain complex reaches dimension")


def _boundary(p: Presentation, n: int) -> list[Column]:
    """Sparse columns of ∂n from the stored face rows; a degenerate face is zero."""
    row_of = {g: r for r, g in enumerate(p.generators_at(n - 1))}
    columns = []
    for g in p.generators_at(n):
        col: Column = {}
        sign = 1
        for word, gen in p.faces_of(g):
            if not word:
                r = row_of[gen]
                col[r] = col.get(r, 0) + sign
            sign = -sign
        columns.append({r: v for r, v in col.items() if v} if 0 in col.values() else col)
    return columns


def normalized_complex(p: Presentation, max_dim: int) -> ChainComplex:
    """Chain complex on nondegenerate generators, degenerate faces dropped."""
    _check_max_dim(p, max_dim)
    bases = tuple(p.generators_at(n) for n in range(max_dim + 1))
    boundaries = (tuple(_boundary(p, n)) for n in range(1, max_dim + 1))
    return ChainComplex(bases, ((), *boundaries))


def unnormalized_complex(p: Presentation, max_dim: int) -> ChainComplex:
    """Chain complex on all simplices with faces taken literally.

    Finite only because it is truncated; used as the low-degree oracle
    for the normalized computation.
    """
    _check_max_dim(p, max_dim)
    bases = tuple(p.simplices(n) for n in range(max_dim + 1))
    boundaries = [()]
    for n in range(1, max_dim + 1):
        row_of = {s: r for r, s in enumerate(bases[n - 1])}
        boundaries.append(
            tuple(_column(row_of[f] for f in p.face_row(x)) for x in bases[n])
        )
    return ChainComplex(bases, tuple(boundaries))


class SNFResult(Record):
    """Invariant factors (positive, each dividing the next) and the rank."""

    factors: tuple[int, ...]
    rank: int


def smith_normal_form(matrix) -> SNFResult:
    """Invariant factors of an integer matrix and its rank.

    Unimodular row and column operations diagonalize the matrix; the
    diagonal is then turned into invariant factors.  Pivot choice is the
    smallest nonzero absolute value with row-major tie-breaking, which
    keeps entry growth tame and the run fully deterministic.
    """
    a = [[int(v) for v in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(r) != cols for r in a):
        raise ValueError("ragged matrix")
    for t in range(min(rows, cols)):
        pr = pc = -1
        best = None
        for r in range(t, rows):
            for c in range(t, cols):
                v = abs(a[r][c])
                if v and (best is None or v < best):
                    best, pr, pc = v, r, c
        if best is None:
            break
        a[t], a[pr] = a[pr], a[t]
        for row in a:
            row[t], row[pc] = row[pc], row[t]
        while True:
            piv = a[t][t]
            dirty = False
            for r in range(t + 1, rows):
                if a[r][t]:
                    q = a[r][t] // piv
                    for c in range(t, cols):
                        a[r][c] -= q * a[t][c]
                    if a[r][t]:
                        # remainder is strictly smaller: promote it to pivot
                        a[t], a[r] = a[r], a[t]
                        dirty = True
                        break
            if dirty:
                continue
            for c in range(t + 1, cols):
                if a[t][c]:
                    q = a[t][c] // piv
                    for r in range(t, rows):
                        a[r][c] -= q * a[r][t]
                    if a[t][c]:
                        for r in range(rows):
                            a[r][t], a[r][c] = a[r][c], a[r][t]
                        dirty = True
                        break
            if not dirty:
                break
    # a diagonal presents the same group with any pair (u, v) replaced by
    # (gcd, lcm); after the pairs (i, j > i), diag[i] divides every later entry
    diag = [abs(a[i][i]) for i in range(min(rows, cols)) if a[i][i]]
    for i, j in combinations(range(len(diag)), 2):
        diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return SNFResult(tuple(diag), len(diag))


def _sweep(cols: list[Column], drop: set[int]) -> tuple[SNFResult, set[int]]:
    """Sweep ``cols`` in place less the rows in ``drop``: their SNF and the pivoted columns."""
    cols_in_row: dict[int, set[int]] = {}
    for c, col in enumerate(cols):
        for r in drop.intersection(col):
            del col[r]
        for r in col:
            cols_in_row.setdefault(r, set()).add(c)
    pivoted = set()
    for c, col in enumerate(cols):
        units = [r for r, v in col.items() if v == 1 or v == -1]
        if not units:
            continue
        p = min(units, key=lambda r: (len(cols_in_row[r]), r))
        for r in col:
            cols_in_row[r].discard(c)
        piv = col.pop(p)
        for j in cols_in_row.pop(p):
            other = cols[j]
            f = other.pop(p) * piv  # a[p][j] / piv, as piv is a unit
            for r, v in col.items():
                w = other.get(r, 0) - f * v
                if w:
                    if r not in other:
                        cols_in_row[r].add(j)
                    other[r] = w
                elif r in other:
                    del other[r]
                    cols_in_row[r].discard(j)
        cols[c] = {}
        pivoted.add(c)
    left = [col for col in cols if col]
    row_at = {r: i for i, r in enumerate(sorted({r for col in left for r in col}))}
    residual = smith_normal_form(_dense(left, row_at))
    factors = (1,) * len(pivoted) + residual.factors
    return SNFResult(factors, len(factors)), pivoted


def sparse_smith_normal_form(columns) -> SNFResult:
    """Smith normal form of a sparse matrix given as ``{row: coeff}`` columns.

    One sweep visits the columns in order.  A column holding a ±1 entry
    pivots on it, in the row with the fewest nonzeros (then the smallest
    row index).  Column operations clear the pivot row, after which row
    operations clear the pivot column alone, so both are dropped: a
    unimodular step and one invariant factor 1.  The columns that never
    pivot go to the dense ``smith_normal_form``; the sweep runs on a copy.
    """
    return _sweep(list(map(dict, columns)), set())[0]


class HomologyGroup(Record):
    """A finitely generated abelian group: free rank plus invariant factors."""

    betti: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.betti < 0:
            raise ValueError("betti number must be >= 0")
        for u, v in zip(self.torsion, self.torsion[1:]):
            if v % u:
                raise ValueError("torsion coefficients must form a divisibility chain")
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion coefficients must exceed 1")

    def __str__(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"


def _homology(ranks, boundary) -> tuple[HomologyGroup, ...]:
    """Homology from the chain ranks; each ∂n = ``boundary(n)`` is swept, then dropped."""
    snfs, drop = [SNFResult((), 0)], set()
    for n in range(1, len(ranks)):
        snf, drop = _sweep(boundary(n), drop)
        snfs.append(snf)
    out = []
    for n in range(len(ranks) - 1):
        betti = ranks[n] - snfs[n].rank - snfs[n + 1].rank
        torsion = tuple(f for f in snfs[n + 1].factors if f > 1)
        out.append(HomologyGroup(betti, torsion))
    return tuple(out)


def homology_of_complex(c: ChainComplex) -> tuple[HomologyGroup, ...]:
    """Homology in degrees 0..max_dim-1 from Smith normal forms.

    The top degree is not reported: the boundary arriving from one
    dimension higher is outside the complex.

    ∂1, ∂2, ... are swept upwards, and ∂(n+1) loses the rows of the n-simplices
    whose columns took a unit pivot in ∂n (the compression of Bauer, Kerber and
    Reininghaus).  This is exact over Z.  The sweep uses column operations only,
    and the pivot columns form a unimodular triangular system, so ker ∂n meets
    the span of the pivot simplices only in 0.  Dropping those coordinates is
    therefore injective on ker ∂n ⊇ im ∂(n+1), and its image is the saturated
    kernel of the residual block: rank and torsion of every boundary are kept.
    """
    return _homology(list(map(len, c.bases)), lambda n: list(map(dict, c.boundaries[n])))


def homology(p: Presentation, max_dim: int) -> tuple[HomologyGroup, ...]:
    """Homology groups of the normalized complex in degrees 0..max_dim-1."""
    _check_max_dim(p, max_dim)
    ranks = [len(p.generators_at(n)) for n in range(max_dim + 1)]
    return _homology(ranks, lambda n: _boundary(p, n))
