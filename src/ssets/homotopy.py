"""Path components, homotopy of simplices, homotopy groups, relative groups.

Homotopy of two n-simplices with equal boundaries is witnessed by an
(n+1)-simplex whose last two faces are the given simplices and whose
remaining faces degenerate the common boundary.  That raw relation is
an equivalence only on Kan complexes; the engine always takes the
symmetric-transitive closure and records whether closure changed
anything, so every input gets a total answer with an honesty flag.

The group structure on homotopy classes comes from horn filling: the
product of two classes fills a horn carrying one representative on face
n-1, the other on face n+1, and basepoint degeneracies elsewhere; the
product is the class of face n of the filler.  Identity and inverses
are re-derived from explicit degeneracy and horn constructions and
cross-checked against the resulting multiplication table.
"""

from __future__ import annotations

from collections.abc import Iterable

from .core import (
    ConsistencyError,
    GenId,
    NotKanError,
    Presentation,
    Record,
    Simplex,
    StructureError,
    degenerate,
    format_simplex,
    vertex_simplex,
)
from . import groups, kan  # only the homotopy groups run them


class BasedPresentation(Record):
    """A presentation with a chosen vertex; its degeneracies form the basepoint."""

    presentation: Presentation
    basepoint: GenId

    def __post_init__(self):
        if self.basepoint.dim != 0:
            raise ValueError("basepoint must be a vertex")
        if not self.presentation.has_generator(self.basepoint):
            raise ValueError(f"no vertex {self.basepoint.name!r} in the presentation")

    def basepoint_simplex(self, n: int) -> Simplex:
        return vertex_simplex(self.basepoint, n)

    def at_basepoint(self, x: Simplex) -> bool:
        return x.gen == self.basepoint


class SubPresentation(Record):
    """A face-closed set of generators of a parent presentation."""

    parent: Presentation
    members: frozenset[GenId]

    def __post_init__(self):
        for g in self.members:
            if not self.parent.has_generator(g):
                raise StructureError(f"{g} is not a generator of the parent")
            for f in self.parent.faces_of(g):
                if f.gen not in self.members:
                    raise StructureError(
                        f"not face-closed: d-face of {g} lands outside (base {f.gen})"
                    )

    def contains(self, x: Simplex) -> bool:
        return x.gen in self.members

    def restriction(self) -> Presentation:
        p = self.parent
        return Presentation(
            sorted(self.members),
            {g: p.faces_of(g) for g in self.members if g.dim >= 1},
            p.top_dim,
            name=f"{p.name or 'sub'}|A",
        )

    @classmethod
    def closure(cls, parent: Presentation, seed: Iterable[GenId]) -> "SubPresentation":
        members = set(seed)
        frontier = list(members)
        while frontier:
            g = frontier.pop()
            for f in parent.faces_of(g):
                if f.gen not in members:
                    members.add(f.gen)
                    frontier.append(f.gen)
        return cls(parent, frozenset(members))


def path_components(p: Presentation) -> tuple[tuple[GenId, ...], ...]:
    """Partition of the vertices by the closure of the edge relation.

    ``_partition`` joins the ends of every 1-generator; the reflexive-
    symmetric-transitive closure is taken unconditionally (it is a no-op
    exactly when one-step paths already form an equivalence).
    """
    p.require_trusted(1, "path components need dimension")
    verts = p.generators_at(0)
    ends: dict[GenId, list[GenId]] = {}
    for e in p.generators_at(1):
        d0, d1 = p.faces_of(e)
        ends.setdefault(d1.gen, []).append(d0.gen)
    blocks, _ = _partition(verts, lambda v: ends.get(v, ()))
    return tuple(tuple(verts[i] for i in block) for block in blocks)


def component_index(components, v: GenId) -> int:
    for i, block in enumerate(components):
        if v in block:
            return i
    raise ValueError(f"vertex {v} not in any component")


# -- homotopy of simplices -------------------------------------------------


def homotopy_witness(p: Presentation, x: Simplex, xp: Simplex) -> Simplex | None:
    """A one-step homotopy from x to xp, or None.

    Searches for y with d_n y = x, d_{n+1} y = xp and d_i y the
    (n-1)-degeneracy of the common face d_i x for i < n.  Boundaries of
    x and xp must agree; otherwise there is nothing to search for.
    """
    return _witness(p, x, xp, x.dim)


def homotopy_witness_shifted(
    p: Presentation, x: Simplex, xp: Simplex, r: int
) -> Simplex | None:
    """Witness variant placing x and xp on faces r and r+1.

    The remaining faces must equal the faces of s_r x.  For r = n this
    is the standard relation; all shifts define the same classes on Kan
    complexes, which is what the index-shift property tests exercise.
    """
    return _witness(p, x, xp, r)


def _check_pair(x: Simplex, xp: Simplex, a_sub) -> None:
    if xp.dim != x.dim:
        raise ValueError("simplices must have equal dimension")
    if a_sub is not None and x.dim < 1:
        raise ValueError("relative homotopy needs dimension >= 1")


def _witness(p: Presentation, x: Simplex, xp: Simplex, r: int, a_sub=None):
    """The least witness from x to xp: the first of ``_steps`` reaching xp.

    The public searches call this rather than each other, so a wrapper
    around any one of them (such as a tracer) sees each search once.
    """
    _check_pair(x, xp, a_sub)
    return next((w for w, t in _steps(p, x, r, a_sub) if t == xp), None)


def _witness_pattern(p: Presentation, x: Simplex, xp: Simplex | None, r: int) -> list:
    """The faces of a witness from x to xp: those of s_r x, with xp on face r+1."""
    faces = list(p.face_row(degenerate(x, r)))
    faces[r + 1] = xp
    return faces


def _steps(p: Presentation, x: Simplex, r: int, a_sub: SubPresentation | None = None):
    """Each one-step witness w from x at shift r, with its target t = d_{r+1} w.

    The one relation behind every witness and class query.  One
    ``matching`` query: the faces of s_r x with slot r+1 free, so each
    match names a target, whose boundary must be that of x.  For the
    relative relation (``a_sub`` given, r = n) slot 0 is free too, and
    d_0 w must witness d_0 x ~ d_0 t inside ``a_sub``; as ``a_sub`` is
    face-closed, d_0 x and d_0 t then lie in it as well.
    """
    n = x.dim
    if not 0 <= r <= n:
        raise ValueError(f"shift index {r} out of range")
    p.require_trusted(n + 1, "witnesses have dimension")
    pattern = _witness_pattern(p, x, None, r)
    row = p.face_row(x) if n else ()
    lo = 0  # x and each target share faces lo..n
    if a_sub is not None:
        pattern[0], lo = None, 1
    for w in p.matching(n + 1, pattern):
        w_row = p.face_row(w)
        y, t = w_row[0], w_row[r + 1]
        t_row = p.face_row(t) if n else ()
        if t_row[lo:] != row[lo:]:
            continue
        if a_sub is None or (
            a_sub.contains(y)
            and list(p.face_row(y)) == _witness_pattern(p, row[0], t_row[0], n - 1)
        ):
            yield w, t


def _targets(p: Presentation, a_sub: SubPresentation | None = None):
    """The one-step relation at shift n, as a function from x to what it reaches."""
    return lambda x: (t for _, t in _steps(p, x, x.dim, a_sub))


def _partition(reps, targets) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Closure of a one-step relation on a list of representatives.

    ``targets`` (see ``_targets``) is asked once per distinct
    representative, and not at all for a lone one; a repeated one stands
    at each of its positions.  Returns the partition (blocks of rep
    indices, ordered by least member) and whether closure added any pair
    the raw relation missed.
    """
    m = len(reps)
    positions: dict = {}
    for i, x in enumerate(reps):
        positions.setdefault(x, []).append(i)
    raw = {(i, i) for i in range(m)}
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x, sources in positions.items() if m > 1 else ():
        for t in targets(x):
            for j in positions.get(t, ()):
                for i in sources:
                    raw.add((i, j))
                    parent[find(j)] = find(i)
    blocks: dict[int, list[int]] = {}
    for i in range(m):
        blocks.setdefault(find(i), []).append(i)
    partition = tuple(tuple(b) for b in sorted(blocks.values(), key=min))
    closure_needed = any(
        (i, j) not in raw for block in partition for i in block for j in block
    )
    return partition, closure_needed


def homotopy_classes(p: Presentation, reps) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Partition a family of n-simplices by the closed homotopy relation.

    Returns the partition as blocks of indices into ``reps`` plus a flag
    telling whether closure added pairs the one-step relation missed.
    Each distinct simplex costs one witness query.
    """
    reps = tuple(reps)
    if len({x.dim for x in reps}) > 1:
        raise ValueError("simplices must have equal dimension")
    return _partition(reps, _targets(p))


def simplices_homotopic(p: Presentation, x: Simplex, xp: Simplex) -> bool:
    """Whether x and xp are homotopic, after symmetric-transitive closure.

    The closure runs inside the set of simplices sharing the common
    boundary; on a Kan complex it adds nothing.
    """
    return _homotopic(p, None, x, xp)


def _homotopic(p: Presentation, a_sub, x: Simplex, xp: Simplex) -> bool:
    """Whether x and xp share a block of the closed relation on their fiber.

    The fiber is the n-simplices with the boundary of x; for the relative
    relation only faces 1..n are fixed and d_0 must lie in ``a_sub``.
    """
    _check_pair(x, xp, a_sub)
    if x == xp:
        return True
    n, lo = x.dim, 0 if a_sub is None else 1  # x and xp must share faces lo..n
    bd = p.face_row(x)[lo:] if n else ()
    if n and p.face_row(xp)[lo:] != bd:
        return False
    pattern = (None,) * (n + 1 - len(bd)) + bd
    fiber = p.matching(n, pattern)
    if a_sub is not None:
        fiber = [z for z in fiber if a_sub.contains(p.face(z, 0))]
    if x not in fiber or xp not in fiber:
        return False
    partition, _ = _partition(fiber, _targets(p, a_sub))
    i, j = fiber.index(x), fiber.index(xp)
    return any(i in block and j in block for block in partition)


# -- homotopy groups ---------------------------------------------------------


class PiSet(Record):
    """Homotopy classes of spheres at the basepoint, without a product."""

    n: int
    reps: tuple[Simplex, ...]
    classes: tuple[tuple[int, ...], ...]
    basepoint_class: int
    closure_needed: bool

    def class_of(self, x: Simplex) -> int:
        try:
            i = self.reps.index(x)
        except ValueError:
            raise ValueError(f"{format_simplex(x)} is not a representative") from None
        for c, block in enumerate(self.classes):
            if i in block:
                return c
        raise AssertionError("partition does not cover the representatives")

    @property
    def order(self) -> int:
        return len(self.classes)


class PiGroup(PiSet):
    """Homotopy classes with the horn-filling product as a Cayley table."""

    table: tuple[tuple[int, ...], ...]

    @property
    def identity(self) -> int:
        return self.basepoint_class

    def product(self, a: int, b: int) -> int:
        return self.table[a][b]


def _based_horn(based: BasedPresentation, n: int, k: int, placed) -> kan.HornSpec:
    """The (n+1)-horn missing face k: face i is ``placed[i]``, or the basepoint if none."""
    star = based.basepoint_simplex(n)
    return kan.HornSpec.from_faces(n + 1, k, {i: placed.get(i) or star for i in range(n + 2)})


def _product_horn(
    based: BasedPresentation, n: int, x: Simplex, y: Simplex, d0: Simplex | None = None
) -> kan.HornSpec:
    """The horn missing face n: x on face n-1, y on face n+1, d0 (if given) on face 0."""
    return _based_horn(based, n, n, {0: d0, n - 1: x, n + 1: y})


def pi_n(
    based: BasedPresentation, n: int, *, require_kan_checked: bool = False
) -> PiGroup:
    """The n-th homotopy group computed by exhaustive horn filling.

    Representatives are the n-simplices with every face at the
    basepoint.  Every check always runs: the product is recomputed over
    every filler of each product horn, the table must satisfy the group
    laws, and inverses found by the two inverse-horn constructions must
    match the table.  ``require_kan_checked`` first demands that every
    horn up to dimension n+2 fills.
    """
    p = based.presentation
    if n < 1:
        raise ValueError("homotopy groups start at n = 1; use path_components below")
    p.require_trusted(n + 2, f"pi_{n} needs dimension")
    if require_kan_checked:
        report = kan.kan_check(p, n + 2)
        if not report.is_kan:
            raise NotKanError(
                f"{len(report.witnesses)} unfillable horns up to dimension {n + 2}, "
                f"first: {report.witnesses[0].describe()}"
            )
    reps = p.matching(n, [based.basepoint_simplex(n - 1)] * (n + 1))
    horn_for = lambda x, y: _product_horn(based, n, x, y)
    pi = _classes(based, n, reps, _targets(p), horn_for, "product")
    _verify_horn_inverses(based, pi)
    return pi


def _classes(based: BasedPresentation, n: int, reps, targets, horn_for=None, what=""):
    """The classes of ``reps``: a PiSet, or with ``horn_for`` a PiGroup.

    The product of classes a and b is the class of face n of every filler
    of ``horn_for(x, y)``, x and y the least representatives of a and b;
    fillers must agree, and the table must be a group.  ``what`` names the
    product in error texts.
    """
    p = based.presentation
    classes, closure_needed = _partition(reps, targets)
    index_of = {reps[i]: c for c, block in enumerate(classes) for i in block}
    identity = index_of[based.basepoint_simplex(n)]
    if horn_for is None:
        return PiSet(n, reps, classes, identity, closure_needed)
    table = []
    for a in classes:
        row = []
        for b in classes:
            h = horn_for(reps[a[0]], reps[b[0]])
            fillers = kan.fill_horn_all(p, h)
            if not fillers:
                raise NotKanError(
                    f"{what} horn has no filler; complex is not Kan enough: "
                    f"{h.describe()}"
                )
            results = {index_of[p.face(z, n)] for z in fillers}
            if len(results) > 1:
                raise ConsistencyError(
                    f"{what} depends on the filler for {h.describe()}"
                )
            row.append(results.pop())
        table.append(tuple(row))
    table = tuple(table)
    _check_group(table, identity)
    return PiGroup(n, reps, classes, identity, closure_needed, table)


def _check_group(table, identity: int):
    """Raise ConsistencyError unless a class table obeys the group laws."""
    try:
        groups.GroupTable(tuple(map(str, range(len(table)))), table, identity)
    except ValueError as exc:
        raise ConsistencyError(f"class table is not a group: {exc}") from None


def _verify_horn_inverses(based: BasedPresentation, pi: PiGroup):
    """Find inverses by horn filling and require agreement with the table."""
    p, n = based.presentation, pi.n
    for a, block in enumerate(pi.classes):
        # right inverse: fill the horn missing face n+1, x on face n-1;
        # left inverse: the horn missing face n-1, x on face n+1
        for side, k, at in (("right", n + 1, n - 1), ("left", n - 1, n + 1)):
            z = kan.fill_horn(p, _based_horn(based, n, k, {at: pi.reps[block[0]]}))
            if z is None:
                raise NotKanError(f"{side}-inverse horn has no filler")
            b = pi.class_of(p.face(z, k))
            product = pi.product(a, b) if side == "right" else pi.product(b, a)
            if product != pi.identity:
                raise ConsistencyError(f"horn {side} inverse disagrees with the table")


# -- relative homotopy -------------------------------------------------------


def rel_homotopy_witness(
    p: Presentation, a_sub: SubPresentation, x: Simplex, xp: Simplex
) -> tuple[Simplex, Simplex] | None:
    """A relative homotopy witness (w, y), or None.

    w has x and xp on its last two faces, degenerates the shared faces
    1..n-1, and its 0-face y lies in the subcomplex, where it is a
    one-step homotopy between d_0 x and d_0 xp.
    """
    w = _witness(p, x, xp, x.dim, a_sub)
    return None if w is None else (w, p.face(w, 0))


def simplices_homotopic_rel(
    p: Presentation, a_sub: SubPresentation, x: Simplex, xp: Simplex
) -> bool:
    """Relative homotopy after closure over the shared-boundary fiber."""
    return _homotopic(p, a_sub, x, xp)


def pi_n_rel(
    based: BasedPresentation, a_sub: SubPresentation, n: int
) -> PiSet | PiGroup:
    """Relative homotopy classes; a pointed set at n = 1, a group for n >= 2.

    Representatives have their 0-face in the subcomplex and every other
    face at the basepoint.  For n >= 2 the product first multiplies the
    0-faces inside the subcomplex, then fills a horn carrying that
    witness on face 0.  The product is recomputed over every filler of
    each such horn and the table must satisfy the group laws; unlike
    ``pi_n``, inverses are not re-derived from horns.
    """
    p = based.presentation
    if n < 1:
        raise ValueError("relative homotopy starts at n = 1")
    if a_sub.parent != p:
        raise ValueError("subcomplex belongs to a different presentation")
    if based.basepoint not in a_sub.members:
        raise ValueError("basepoint must lie in the subcomplex")
    p.require_trusted(n + 1 if n == 1 else n + 2, f"relative pi_{n} needs dimension")
    pattern = [None] + [based.basepoint_simplex(n - 1)] * n
    reps = tuple(x for x in p.matching(n, pattern) if a_sub.contains(p.face(x, 0)))
    targets = _targets(p, a_sub)
    if n == 1:
        return _classes(based, n, reps, targets)
    a_pres = a_sub.restriction()

    def horn_for(x: Simplex, y: Simplex) -> kan.HornSpec:
        # face 0 carries the product of the 0-faces, taken inside the subcomplex
        z = kan.fill_horn(a_pres, _product_horn(based, n - 1, p.face(x, 0), p.face(y, 0)))
        if z is None:
            raise NotKanError("no product witness in the subcomplex")
        return _product_horn(based, n, x, y, z)

    return _classes(based, n, reps, targets, horn_for, "relative product")


def les_boundary(
    based: BasedPresentation,
    a_sub: SubPresentation,
    n: int,
    rel: PiSet,
    class_index: int,
) -> int:
    """Boundary of a relative class: the class of d_0 of a representative.

    The answer is computed from every representative in the class and
    must not depend on the choice; disagreement raises.
    """
    p = based.presentation
    a_pres = a_sub.restriction()
    if n == 1:
        comps = path_components(a_pres)
        targets = {
            component_index(comps, p.face(rel.reps[i], 0).gen)
            for i in rel.classes[class_index]
        }
    else:
        pi_a = pi_n(BasedPresentation(a_pres, based.basepoint), n - 1)
        targets = {
            pi_a.class_of(p.face(rel.reps[i], 0))
            for i in rel.classes[class_index]
        }
    if len(targets) != 1:
        raise ConsistencyError("boundary class depends on the representative")
    return targets.pop()
