"""Standard presentations: simplices, boundaries, horns, spheres, nerves.

Simplex-like constructions describe objects that are exact in every
dimension, so their default ``top_dim`` leaves two dimensions of
headroom above the top generator; callers that need deeper searches
(Kan checks, homotopy groups) can pass a larger bound.  Nerve
truncations are genuinely lossy, so ``nerve`` requires an explicit
bound.
"""

from __future__ import annotations

from itertools import combinations, product as iproduct

from .core import (
    GenId,
    Presentation,
    Simplex,
    StructureError,
    vertex_simplex,
)
from .groups import GroupTable


def _subset_name(subset) -> str:
    return ".".join(str(v) for v in subset)


def _default_top(max_gen_dim: int, top_dim) -> int:
    return max_gen_dim + 2 if top_dim is None else top_dim


def _simplex_family(n: int, keep, top_dim, name: str) -> Presentation:
    """Presentation whose generators are the vertex subsets accepted by ``keep``."""
    gens = []
    faces = {}
    max_dim = 0
    for m in range(n + 1):
        for subset in combinations(range(n + 1), m + 1):
            if not keep(subset):
                continue
            g = GenId(m, _subset_name(subset))
            gens.append(g)
            max_dim = max(max_dim, m)
            if m >= 1:
                faces[g] = tuple(
                    Simplex((), GenId(m - 1, _subset_name(subset[:i] + subset[i + 1 :])))
                    for i in range(m + 1)
                )
    return Presentation(gens, faces, _default_top(max_dim, top_dim), name=name)


def standard_simplex(n: int, top_dim: int | None = None) -> Presentation:
    """The standard n-simplex; generators are the increasing subsets of 0..n."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    return _simplex_family(n, lambda s: True, top_dim, f"delta{n}")


def boundary(n: int, top_dim: int | None = None) -> Presentation:
    """The boundary of the standard n-simplex (all subsets except the full one)."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    return _simplex_family(
        n, lambda s: len(s) < n + 1, top_dim, f"boundary{n}"
    )


def horn(n: int, k: int, top_dim: int | None = None) -> Presentation:
    """The horn missing the interior and the k-th facet of the n-simplex."""
    if n < 1:
        raise ValueError("horns need dimension >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"horn index {k} out of range for dimension {n}")
    facet = tuple(v for v in range(n + 1) if v != k)
    return _simplex_family(
        n,
        lambda s: len(s) < n + 1 and s != facet,
        top_dim,
        f"horn{n}_{k}",
    )


def sphere_two_cell(n: int, top_dim: int | None = None) -> Presentation:
    """A sphere with one vertex and one n-cell whose faces all collapse.

    Every face of the cell is the fully degenerate simplex on the
    vertex, so the realization is the usual one-cell-plus-basepoint CW
    sphere.  Needs n >= 2; below that the faces could not collapse.
    """
    if n < 2:
        raise ValueError("the two-cell sphere needs dimension >= 2")
    v = GenId(0, "v")
    c = GenId(n, "c")
    faces = {c: tuple(vertex_simplex(v, n - 1) for _ in range(n + 1))}
    return Presentation([v, c], faces, _default_top(n, top_dim), name=f"sphere{n}")


BASEPOINT_NAME = "*"


def nerve(group: GroupTable, top_dim: int) -> Presentation:
    """Truncated nerve of a group: n-simplices are n-tuples of elements.

    Tuples with no identity coordinate are exactly the nondegenerate
    simplices, since the degeneracies insert the identity.  Faces
    multiply adjacent coordinates; the outer two faces drop the first or
    last coordinate.  Face tuples that acquire an identity coordinate
    are re-expressed as degeneracies of the shorter identity-free tuple.

    Tuples hold element indices, multiplied through the group's table.
    Each distinct face tuple is resolved to its simplex once per call;
    top-dimension tuples are never faces, so they are not remembered.
    The tables are valid by construction, so the result is not checked
    again.
    """
    if top_dim < 1:
        raise ValueError("nerve truncation must be >= 1")
    e = group.identity
    names = group.elements
    mul = group.table
    others = [x for x in range(group.order) if x != e]
    base = GenId(0, BASEPOINT_NAME)
    # every identity-free tuple below top_dim is entered as its generator
    # before it can occur as a face, so a miss holds an identity coordinate
    simplex_of: dict[tuple[int, ...], Simplex] = {(): Simplex((), base)}

    def face(t) -> Simplex:
        s = simplex_of.get(t)
        if s is None:
            # strip identity coordinates from the right; each strip is one s_p
            word = tuple(p for p in range(len(t) - 1, -1, -1) if t[p] == e)
            u = tuple(x for x in t if x != e)
            s = simplex_of[t] = Simplex(word, simplex_of[u].gen)
        return s

    gens = [base]
    faces = {}
    for m in range(1, top_dim + 1):
        for t in iproduct(others, repeat=m):
            g = GenId(m, ",".join([names[x] for x in t]))
            gens.append(g)
            if m < top_dim:
                simplex_of[t] = Simplex((), g)
            faces[g] = (
                face(t[1:]),
                *[
                    face(t[: i - 1] + (mul[t[i - 1]][t[i]],) + t[i + 1 :])
                    for i in range(1, m)
                ],
                face(t[:-1]),
            )
    label = f"nerve_{group.order}"
    return Presentation._from_checked(gens, faces, top_dim, name=label)


def adjoin_degeneracies(p: Presentation) -> Presentation:
    """Promote Delta-style data to a simplicial presentation.

    The presentation machinery already generates all degeneracies
    freely, so this only re-tags the data and re-validates it.  Face
    entries must reference generators directly (no degeneracy words).
    """
    for g in p.all_generators():
        for i, f in enumerate(p.faces_of(g)):
            if f.word:
                raise ValueError(
                    f"face d_{i} of {g} is degenerate; not a Delta-style table"
                )
    out = Presentation(
        p.all_generators(),
        {g: p.faces_of(g) for g in p.all_generators() if g.dim >= 1},
        p.top_dim,
        delta_style=False,
        name=p.name,
    )
    report = out.validate()
    if not report.ok:
        raise StructureError(
            "face table violates the simplicial identities: "
            + "; ".join(str(v) for v in report.fatal + report.violations)
        )
    return out


def cone(top_dim: int = 4) -> Presentation:
    """A triangle with two edges glued: one side edge doubled onto itself.

    Delta-style data: vertices v0 (rim) and v2 (apex), a side edge ``a``
    from rim to apex carried twice by the 2-cell, and the rim loop ``b``.
    """
    v0 = GenId(0, "v0")
    v2 = GenId(0, "v2")
    a = GenId(1, "a")
    b = GenId(1, "b")
    t = GenId(2, "t")
    faces = {
        a: (Simplex((), v2), Simplex((), v0)),
        b: (Simplex((), v0), Simplex((), v0)),
        t: (Simplex((), a), Simplex((), a), Simplex((), b)),
    }
    return Presentation([v0, v2, a, b, t], faces, top_dim, delta_style=True, name="cone")


def double_edge_circle(top_dim: int = 4) -> Presentation:
    """Two vertices joined by two parallel edges; a circle as Delta data."""
    v0 = GenId(0, "v0")
    v1 = GenId(0, "v1")
    e0 = GenId(1, "e0")
    e1 = GenId(1, "e1")
    faces = {
        e0: (Simplex((), v0), Simplex((), v1)),
        e1: (Simplex((), v0), Simplex((), v1)),
    }
    return Presentation(
        [v0, v1, e0, e1], faces, top_dim, delta_style=True, name="circle2"
    )


def vertex_sequence(x: Simplex) -> tuple[int, ...]:
    """Monotone vertex sequence of a simplex over subset-named generators.

    Only meaningful for presentations built by the ``standard_simplex``
    family, where a generator's name lists its vertices.  Degeneracy
    operators duplicate the corresponding position.
    """
    try:
        seq = [int(v) for v in x.gen.name.split(".")]
    except ValueError:
        raise ValueError(f"{x.gen} is not named by a vertex subset") from None
    for i in reversed(x.word):
        seq = seq[: i + 1] + [seq[i]] + seq[i + 1 :]
    return tuple(seq)
