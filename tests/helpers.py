"""Shared test utilities: independent oracles and random presentations.

The vertex-sequence oracle models simplices of a standard simplex as
monotone integer sequences, with faces deleting a position and
degeneracies duplicating one.  It shares no code with the rewriting
engine, so agreement between the two is a real check.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd

from ssets import GenId, Presentation, Simplex


# -- monotone-sequence oracle for standard simplices -------------------------


def seq_of(x: Simplex) -> tuple[int, ...]:
    seq = [int(v) for v in x.gen.name.split(".")]
    for i in reversed(x.word):
        seq = seq[: i + 1] + [seq[i]] + seq[i + 1 :]
    return tuple(seq)


def oracle_face(seq, i) -> tuple[int, ...]:
    return seq[:i] + seq[i + 1 :]


def oracle_degeneracy(seq, i) -> tuple[int, ...]:
    return seq[: i + 1] + (seq[i],) + seq[i + 1 :]


def seq_to_simplex(seq) -> Simplex:
    """Canonical (word, generator) form of a monotone vertex sequence."""
    word = []
    seq = list(seq)
    while True:
        dup = [j for j in range(len(seq) - 1) if seq[j] == seq[j + 1]]
        if not dup:
            break
        j = max(dup)
        word.append(j)
        del seq[j + 1]
    name = ".".join(str(v) for v in seq)
    return Simplex(tuple(word), GenId(len(seq) - 1, name))


# -- linear-scan oracle for the face-pattern index -----------------------------


def scan_matching(p: Presentation, n: int, pattern) -> tuple[Simplex, ...]:
    """The n-simplices whose faces equal pattern off its None slots, by a scan.

    The reference for ``Presentation.matching``: it tests every simplex
    face by face instead of consulting an index.
    """
    return tuple(
        z
        for z in p.simplices(n)
        if all(f is None or p.face(z, i) == f for i, f in enumerate(pattern))
    )


# -- random ordered complexes -------------------------------------------------


def random_complex(rng: random.Random, max_vertices: int = 7) -> Presentation:
    """A random ordered simplicial complex as a presentation.

    Vertices are integers; an m-simplex is included only when its
    boundary already is, so the face table is an honest complex and the
    simplicial identities hold by construction.
    """
    nv = rng.randint(3, max_vertices)
    verts = list(range(nv))
    edges = {pair for pair in combinations(verts, 2) if rng.random() < 0.55}
    # keep at least one full triangle so every sample has a 2-cell
    edges |= {(0, 1), (0, 2), (1, 2)}
    triangles = {(0, 1, 2)} | {
        t
        for t in combinations(verts, 3)
        if rng.random() < 0.6
        and all(e in edges for e in combinations(t, 2))
    }
    tetrahedra = {
        q
        for q in combinations(verts, 4)
        if rng.random() < 0.5
        and all(t in triangles for t in combinations(q, 3))
    }
    subsets = (
        [(v,) for v in verts]
        + [tuple(e) for e in sorted(edges)]
        + [tuple(t) for t in sorted(triangles)]
        + [tuple(q) for q in sorted(tetrahedra)]
    )
    name = lambda s: ".".join(str(v) for v in s)
    gens = [GenId(len(s) - 1, name(s)) for s in subsets]
    faces = {}
    for s in subsets:
        m = len(s) - 1
        if m == 0:
            continue
        faces[GenId(m, name(s))] = tuple(
            Simplex((), GenId(m - 1, name(s[:i] + s[i + 1 :]))) for i in range(m + 1)
        )
    top = max(len(s) - 1 for s in subsets) + 2
    return Presentation(gens, faces, top, name="random")


def swap_faces(p: Presentation, g: GenId, i: int, j: int) -> Presentation:
    """Copy of a presentation with two face entries of one generator swapped."""
    faces = {}
    for h in p.all_generators():
        if h.dim == 0:
            continue
        fs = list(p.faces_of(h))
        if h == g:
            fs[i], fs[j] = fs[j], fs[i]
        faces[h] = tuple(fs)
    return Presentation(
        p.all_generators(), faces, p.top_dim, delta_style=p.delta_style, name=p.name
    )


def swappable_generators(p: Presentation):
    """Generators of dimension >= 2 with at least one unequal face pair.

    Swapping equal faces changes nothing, and reversing an isolated
    edge always yields another valid presentation, so mutations target
    dimensions where the d-d identity can actually see the change.
    """
    out = []
    for g in p.all_generators():
        if g.dim < 2:
            continue
        fs = p.faces_of(g)
        pairs = [
            (i, j)
            for i in range(len(fs))
            for j in range(i + 1, len(fs))
            if fs[i] != fs[j]
        ]
        if pairs:
            out.append((g, pairs))
    return out


# -- invariant-factor oracle via minor gcds -----------------------------------


def minor_gcd_invariant_factors(matrix) -> tuple[int, ...]:
    """Invariant factors from determinantal divisors: f_k = d_k / d_{k-1}.

    Exponential in the matrix size, so only usable on tiny inputs, which
    is exactly what makes it an independent oracle.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0

    def det(rs, cs):
        if not rs:
            return 1
        r, rest = rs[0], rs[1:]
        total = 0
        for pos, c in enumerate(cs):
            sub = det(rest, cs[:pos] + cs[pos + 1 :])
            term = matrix[r][c] * sub
            total += term if pos % 2 == 0 else -term
        return total

    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                d = gcd(d, det(list(rs), list(cs)))
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return tuple(factors)
