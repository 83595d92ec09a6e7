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

from dataclasses import dataclass
from typing import Iterable, Mapping

from .core import (
    ConsistencyError,
    GenId,
    NotKanError,
    Presentation,
    Simplex,
    StructureError,
    TruncationError,
    degenerate,
    format_simplex,
    vertex_simplex,
)
from .kan import HornSpec, fill_horn, fill_horn_all, kan_check
from .morphism import SimplicialMap, apply_map, compose
from .product import ProductPresentation, vertex_inclusion


@dataclass(frozen=True)
class BasedPresentation:
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


@dataclass(frozen=True)
class SubPresentation:
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

    def restriction(self, top_dim: int | None = None) -> Presentation:
        p = self.parent
        return Presentation(
            sorted(self.members),
            {g: p.faces_of(g) for g in self.members if g.dim >= 1},
            p.top_dim if top_dim is None else top_dim,
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

    Ends of every 1-generator are joined; the reflexive-symmetric-
    transitive closure is taken unconditionally (it is a no-op exactly
    when one-step paths already form an equivalence).
    """
    verts = list(p.generators_at(0))
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in p.generators_at(1):
        x = Simplex((), e)
        a = find(p.face(x, 1).gen)
        b = find(p.face(x, 0).gen)
        if a != b:
            parent[b] = a
    blocks: dict[GenId, list[GenId]] = {}
    for v in verts:
        blocks.setdefault(find(v), []).append(v)
    return tuple(
        tuple(sorted(b)) for b in sorted(blocks.values(), key=lambda b: min(b))
    )


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


def _witness(p: Presentation, x: Simplex, xp: Simplex, r: int) -> Simplex | None:
    """The least y with the faces of ``_witness_pattern``.

    Both public searches call this rather than each other, so a wrapper
    around either one (such as a tracer) sees each search once.
    """
    n = x.dim
    if xp.dim != n:
        raise ValueError("simplices must have equal dimension")
    if not 0 <= r <= n:
        raise ValueError(f"shift index {r} out of range")
    if n + 1 > p.top_dim:
        raise TruncationError(
            f"witness search in dimension {n + 1} exceeds top_dim {p.top_dim}"
        )
    if n and any(p.face(x, i) != p.face(xp, i) for i in range(n + 1)):
        return None
    found = p.matching(n + 1, _witness_pattern(p, x, xp, r))
    return found[0] if found else None


def _witness_pattern(p: Presentation, x: Simplex, xp: Simplex, r: int) -> list:
    """The faces of a witness from x to xp: those of s_r x, with xp on face r+1."""
    sx = degenerate(x, r)
    faces = [p.face(sx, i) for i in range(x.dim + 2)]
    faces[r + 1] = xp
    return faces


def _partition(p: Presentation, reps, witness) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Closure of the raw witness relation on a list of representatives.

    Returns the partition (blocks of rep indices, ordered by least
    member) and whether closure added any pair the raw relation missed.
    """
    m = len(reps)
    raw = [[False] * m for _ in range(m)]
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        raw[i][i] = True
        for j in range(m):
            if i != j and witness(reps[i], reps[j]) is not None:
                raw[i][j] = True
                a, b = find(i), find(j)
                if a != b:
                    parent[b] = a
    blocks: dict[int, list[int]] = {}
    for i in range(m):
        blocks.setdefault(find(i), []).append(i)
    partition = tuple(tuple(sorted(b)) for b in sorted(blocks.values(), key=min))
    closure_needed = any(
        not raw[i][j] for block in partition for i in block for j in block
    )
    return partition, closure_needed


def homotopy_classes(
    p: Presentation, reps, witness=None
) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Partition a family of simplices by the closed homotopy relation.

    Returns the partition as blocks of indices into ``reps`` plus a flag
    telling whether closure added pairs the one-step relation missed.
    A different witness function (for example an index-shifted variant)
    can be supplied.
    """
    reps = tuple(reps)
    if witness is None:
        return _partition(p, reps, lambda a, b: homotopy_witness(p, a, b))
    return _partition(p, reps, witness)


def simplices_homotopic(p: Presentation, x: Simplex, xp: Simplex) -> bool:
    """Whether x and xp are homotopic, after symmetric-transitive closure.

    The closure runs inside the set of simplices sharing the common
    boundary; on a Kan complex it adds nothing.
    """
    n = x.dim
    if xp.dim != n:
        raise ValueError("simplices must have equal dimension")
    if x == xp:
        return True
    if n and any(p.face(x, i) != p.face(xp, i) for i in range(n + 1)):
        return False
    bd = [p.face(x, i) for i in range(n + 1)] if n else [None]
    fiber = p.matching(n, bd)
    partition, _ = _partition(p, fiber, lambda a, b: homotopy_witness(p, a, b))
    ix = fiber.index(x)
    jx = fiber.index(xp)
    return any(ix in block and jx in block for block in partition)


# -- homotopy groups ---------------------------------------------------------


@dataclass(frozen=True)
class PiSet:
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


@dataclass(frozen=True)
class PiGroup(PiSet):
    """Homotopy classes with the horn-filling product as a Cayley table."""

    table: tuple[tuple[int, ...], ...]

    @property
    def identity(self) -> int:
        return self.basepoint_class

    def product(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        for b in range(self.order):
            if self.table[a][b] == self.identity:
                return b
        raise ValueError("no inverse in table")

    def is_abelian(self) -> bool:
        k = self.order
        return all(
            self.table[a][b] == self.table[b][a] for a in range(k) for b in range(k)
        )


def _check_table_is_group(table, identity):
    k = len(table)
    for a in range(k):
        if table[identity][a] != a or table[a][identity] != a:
            raise ConsistencyError("class table has no identity law")
    for a in range(k):
        if all(table[a][b] != identity for b in range(k)):
            raise ConsistencyError("class table is missing an inverse")
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise ConsistencyError("class table is not associative")


def _sphere_representatives(based: BasedPresentation, n: int) -> tuple[Simplex, ...]:
    star = based.basepoint_simplex(n - 1)
    return based.presentation.matching(n, [star] * (n + 1))


def _product_horn(based: BasedPresentation, n: int, x: Simplex, y: Simplex) -> HornSpec:
    star = based.basepoint_simplex(n)
    faces = {i: star for i in range(n + 2) if i != n}
    faces[n - 1] = x
    faces[n + 1] = y
    return HornSpec.from_faces(n + 1, n, faces)


def pi_n(
    based: BasedPresentation,
    n: int,
    *,
    require_kan_checked: bool = False,
    use_greatest_fillers: bool = False,
    verify: bool = True,
) -> PiGroup:
    """The n-th homotopy group computed by exhaustive horn filling.

    Representatives are the n-simplices with every face at the
    basepoint.  With ``verify`` on (the default), the product is
    recomputed over every filler of each product horn, the table is
    checked against all group laws, and inverses found by the two
    inverse-horn constructions must match the table.
    """
    p = based.presentation
    if n < 1:
        raise ValueError("homotopy groups start at n = 1; use path_components below")
    if p.top_dim < n + 2:
        raise TruncationError(
            f"pi_{n} needs top_dim >= {n + 2}, presentation has {p.top_dim}"
        )
    if require_kan_checked:
        report = kan_check(p, n + 2)
        if not report.is_kan:
            raise NotKanError(
                f"{len(report.witnesses)} unfillable horns up to dimension {n + 2}, "
                f"first: {report.witnesses[0].describe()}"
            )
    reps = _sphere_representatives(based, n)
    classes, closure_needed = _partition(
        p, reps, lambda a, b: homotopy_witness(p, a, b)
    )

    index_of = {}
    for c, block in enumerate(classes):
        for i in block:
            index_of[reps[i]] = c

    def class_of(x: Simplex) -> int:
        return index_of[x]

    basepoint_class = class_of(based.basepoint_simplex(n))
    k = len(classes)
    table = [[0] * k for _ in range(k)]
    for a in range(k):
        x = reps[classes[a][0]]
        for b in range(k):
            y = reps[classes[b][0]]
            h = _product_horn(based, n, x, y)
            fillers = fill_horn_all(p, h)
            if not fillers:
                raise NotKanError(
                    f"product horn has no filler; complex is not Kan enough: "
                    f"{h.describe()}"
                )
            results = {class_of(p.face(z, n)) for z in fillers}
            if verify and len(results) > 1:
                raise ConsistencyError(
                    f"product depends on the filler for {h.describe()}"
                )
            chosen = fillers[-1] if use_greatest_fillers else fillers[0]
            table[a][b] = class_of(p.face(chosen, n))
    table = tuple(tuple(row) for row in table)
    _check_table_is_group(table, basepoint_class)
    if verify:
        _verify_horn_inverses(based, n, reps, classes, class_of, table, basepoint_class)
    return PiGroup(n, reps, classes, basepoint_class, closure_needed, table)


def _verify_horn_inverses(based, n, reps, classes, class_of, table, identity):
    """Find inverses by horn filling and require agreement with the table."""
    p = based.presentation
    star = based.basepoint_simplex(n)
    for a, block in enumerate(classes):
        x = reps[block[0]]
        # right inverse: fill the horn missing face n+1, x on face n-1
        faces = {i: star for i in range(n + 2) if i != n + 1}
        faces[n - 1] = x
        z = fill_horn(p, HornSpec.from_faces(n + 1, n + 1, faces))
        if z is None:
            raise NotKanError("right-inverse horn has no filler")
        right = class_of(p.face(z, n + 1))
        # left inverse: fill the horn missing face n-1, x on face n+1
        faces = {i: star for i in range(n + 2) if i != n - 1}
        faces[n + 1] = x
        z = fill_horn(p, HornSpec.from_faces(n + 1, n - 1, faces))
        if z is None:
            raise NotKanError("left-inverse horn has no filler")
        left = class_of(p.face(z, n - 1))
        if table[a][right] != identity:
            raise ConsistencyError("horn right inverse disagrees with the table")
        if table[left][a] != identity:
            raise ConsistencyError("horn left inverse disagrees with the table")


# -- homotopies of maps ------------------------------------------------------


@dataclass(frozen=True)
class HomotopyData:
    """Chain-level homotopy data: one (p+1)-simplex per level index and p-simplex."""

    bound: int
    values: Mapping[tuple[int, Simplex], Simplex]

    def h(self, i: int, x: Simplex) -> Simplex:
        try:
            return self.values[(i, x)]
        except KeyError:
            raise KeyError(f"missing h_{i} value on {format_simplex(x)}") from None


@dataclass(frozen=True)
class HomotopyViolation:
    rule: str
    p: int
    i: int
    j: int
    simplex: Simplex

    def __str__(self):
        return (
            f"{self.rule} fails at p={self.p}, i={self.i}, j={self.j} "
            f"on {format_simplex(self.simplex)}"
        )


@dataclass(frozen=True)
class HomotopyReport:
    fatal: tuple[str, ...]
    violations: tuple[HomotopyViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.fatal and not self.violations


def constant_homotopy(f: SimplicialMap, bound: int) -> HomotopyData:
    """The homotopy from f to itself: h_i = s_i after f."""
    values = {}
    for p in range(bound + 1):
        for x in f.source.simplices(p):
            fx = apply_map(f, x)
            for i in range(p + 1):
                values[(i, x)] = degenerate(fx, i)
    return HomotopyData(bound, values)


def verify_homotopy_data(
    f: SimplicialMap, g: SimplicialMap, data: HomotopyData, bound: int
) -> HomotopyReport:
    """Check the five condition families of a combinatorial homotopy.

    Orientation: the d_0 end of the data is f and the top-face end is g.
    Face conditions are checked on every source simplex up to the bound;
    the degeneracy conditions compare against level p+1 and so run only
    while that level is still within the bound.
    """
    if f.source != g.source or f.target != g.target:
        return HomotopyReport(("f and g do not share source and target",), ())
    if bound > data.bound:
        return HomotopyReport(
            (f"homotopy data only defined up to level {data.bound}",), ()
        )
    fatal = []
    violations = []
    for p in range(bound + 1):
        for x in f.source.simplices(p):
            try:
                _check_simplex_conditions(f, g, data, bound, p, x, violations)
            except (KeyError, _BadLevel) as exc:
                fatal.append(str(exc))
    return HomotopyReport(tuple(fatal), tuple(violations))


class _BadLevel(Exception):
    pass


def _check_simplex_conditions(f, g, data, bound, p, x, violations):
    x_pres, y_pres = f.source, f.target
    hs = [data.h(i, x) for i in range(p + 1)]
    if any(y.dim != p + 1 for y in hs):
        raise _BadLevel(f"h value of wrong dimension on {format_simplex(x)}")
    if y_pres.face(hs[0], 0) != apply_map(f, x):
        violations.append(HomotopyViolation("d_0 h_0 = f", p, 0, 0, x))
    if y_pres.face(hs[p], p + 1) != apply_map(g, x):
        violations.append(HomotopyViolation("d_{p+1} h_p = g", p, p + 1, p, x))
    for j in range(p):
        if y_pres.face(hs[j + 1], j + 1) != y_pres.face(hs[j], j + 1):
            violations.append(
                HomotopyViolation("d_{j+1} h_{j+1} = d_{j+1} h_j", p, j + 1, j, x)
            )
    for j in range(p + 1):
        for i in range(p + 2):
            if i < j:
                if y_pres.face(hs[j], i) != data.h(j - 1, x_pres.face(x, i)):
                    violations.append(
                        HomotopyViolation("d_i h_j = h_{j-1} d_i", p, i, j, x)
                    )
            elif i > j + 1:
                if y_pres.face(hs[j], i) != data.h(j, x_pres.face(x, i - 1)):
                    violations.append(
                        HomotopyViolation("d_i h_j = h_j d_{i-1}", p, i, j, x)
                    )
    if p + 1 <= bound:
        for j in range(p + 1):
            for i in range(p + 2):
                lhs = degenerate(hs[j], i)
                if i <= j:
                    rhs = data.h(j + 1, degenerate(x, i))
                    rule = "s_i h_j = h_{j+1} s_i"
                else:
                    rhs = data.h(j, degenerate(x, i - 1))
                    rule = "s_i h_j = h_j s_{i-1}"
                if lhs != rhs:
                    violations.append(HomotopyViolation(rule, p, i, j, x))


def cylinder_interval_data(xy: ProductPresentation):
    """The edge generator and (initial, final) vertices of the interval factor."""
    ones = xy.right.generators_at(1)
    if len(ones) != 1 or xy.right.max_generator_dim != 1:
        raise ValueError("right factor of the cylinder is not an interval")
    e = ones[0]
    x = Simplex((), e)
    initial = xy.right.face(x, 1).gen
    final = xy.right.face(x, 0).gen
    return e, initial, final


def cylinder_endpoints(hmap: SimplicialMap) -> tuple[SimplicialMap, SimplicialMap]:
    """(f, g) with f the final-end restriction and g the initial-end one."""
    xy = hmap.source
    if not isinstance(xy, ProductPresentation):
        raise ValueError("cylinder maps must have a product source")
    _, initial, final = cylinder_interval_data(xy)
    f = compose(hmap, vertex_inclusion(xy, final))
    g = compose(hmap, vertex_inclusion(xy, initial))
    return f, g


def homotopy_from_cylinder(hmap: SimplicialMap, bound: int) -> HomotopyData:
    """Convert a cylinder map into chain-level homotopy data.

    h_k on a p-simplex x is the image of the k-th prism cell over x: the
    pair of s_k x with the complementary degeneracy word on the interval
    edge.
    """
    xy = hmap.source
    if not isinstance(xy, ProductPresentation):
        raise ValueError("cylinder maps must have a product source")
    edge, _, _ = cylinder_interval_data(xy)
    x_pres = xy.left
    if bound > x_pres.top_dim:
        raise TruncationError(f"bound {bound} exceeds top_dim {x_pres.top_dim}")
    values = {}
    for p in range(bound + 1):
        for x in x_pres.simplices(p):
            for k in range(p + 1):
                word = tuple(j for j in range(p, -1, -1) if j != k)
                prism_cell = xy.from_pair(degenerate(x, k), Simplex(word, edge))
                values[(k, x)] = apply_map(hmap, prism_cell)
    return HomotopyData(bound, values)


# -- relative homotopy -------------------------------------------------------


def rel_homotopy_witness(
    p: Presentation, a_sub: SubPresentation, x: Simplex, xp: Simplex
) -> tuple[Simplex, Simplex] | None:
    """A relative homotopy witness (w, y), or None.

    w has x and xp on its last two faces, degenerates the shared faces
    1..n-1, and its 0-face y lies in the subcomplex, where it is a
    one-step homotopy between d_0 x and d_0 xp.
    """
    n = x.dim
    if xp.dim != n:
        raise ValueError("simplices must have equal dimension")
    if n < 1:
        raise ValueError("relative homotopy needs dimension >= 1")
    if n + 1 > p.top_dim:
        raise TruncationError(
            f"witness search in dimension {n + 1} exceeds top_dim {p.top_dim}"
        )
    if any(p.face(x, i) != p.face(xp, i) for i in range(1, n + 1)):
        return None
    d0x, d0xp = p.face(x, 0), p.face(xp, 0)
    if not (a_sub.contains(d0x) and a_sub.contains(d0xp)):
        return None
    pattern = _witness_pattern(p, x, xp, n)
    pattern[0] = None
    # y must witness d_0 x ~ d_0 xp inside the subcomplex
    y_faces = _witness_pattern(p, d0x, d0xp, n - 1)
    for w in p.matching(n + 1, pattern):
        y = p.face(w, 0)
        if a_sub.contains(y) and all(
            p.face(y, i) == f for i, f in enumerate(y_faces)
        ):
            return w, y
    return None


def simplices_homotopic_rel(
    p: Presentation, a_sub: SubPresentation, x: Simplex, xp: Simplex
) -> bool:
    """Relative homotopy after closure over the shared-boundary fiber."""
    n = x.dim
    if xp.dim != n:
        raise ValueError("simplices must have equal dimension")
    if x == xp:
        return True
    if any(p.face(x, i) != p.face(xp, i) for i in range(1, n + 1)):
        return False
    bd = [None] + [p.face(x, i) for i in range(1, n + 1)]
    fiber = [z for z in p.matching(n, bd) if a_sub.contains(p.face(z, 0))]
    if x not in fiber or xp not in fiber:
        return False
    partition, _ = _partition(
        p, fiber, lambda u, v: rel_homotopy_witness(p, a_sub, u, v)
    )
    ix, jx = fiber.index(x), fiber.index(xp)
    return any(ix in block and jx in block for block in partition)


def _rel_representatives(based, a_sub, n):
    p = based.presentation
    star = based.basepoint_simplex(n - 1)
    return tuple(
        x for x in p.matching(n, [None] + [star] * n) if a_sub.contains(p.face(x, 0))
    )


def pi_n_rel(
    based: BasedPresentation,
    a_sub: SubPresentation,
    n: int,
    *,
    verify: bool = True,
) -> PiSet | PiGroup:
    """Relative homotopy classes; a pointed set at n = 1, a group for n >= 2.

    Representatives have their 0-face in the subcomplex and every other
    face at the basepoint.  For n >= 2 the product first multiplies the
    0-faces inside the subcomplex, then fills a horn carrying that
    witness on face 0.
    """
    p = based.presentation
    if n < 1:
        raise ValueError("relative homotopy starts at n = 1")
    if a_sub.parent != p:
        raise ValueError("subcomplex belongs to a different presentation")
    if based.basepoint not in a_sub.members:
        raise ValueError("basepoint must lie in the subcomplex")
    needed = n + 1 if n == 1 else n + 2
    if p.top_dim < needed:
        raise TruncationError(f"pi_{n} relative needs top_dim >= {needed}")
    reps = _rel_representatives(based, a_sub, n)
    classes, closure_needed = _partition(
        p, reps, lambda u, v: rel_homotopy_witness(p, a_sub, u, v)
    )
    index_of = {}
    for c, block in enumerate(classes):
        for i in block:
            index_of[reps[i]] = c
    basepoint_class = index_of[based.basepoint_simplex(n)]
    if n == 1:
        return PiSet(n, reps, classes, basepoint_class, closure_needed)

    a_pres = a_sub.restriction()
    a_based = BasedPresentation(a_pres, based.basepoint)
    star_low = based.basepoint_simplex(n - 1)
    star = based.basepoint_simplex(n)
    k = len(classes)
    table = [[0] * k for _ in range(k)]
    for a in range(k):
        x = reps[classes[a][0]]
        for b in range(k):
            y = reps[classes[b][0]]
            # witness for the product of the 0-faces inside the subcomplex
            faces = {i: star_low for i in range(n + 1) if i != n - 1}
            faces[n - 2] = p.face(x, 0)
            faces[n] = p.face(y, 0)
            z = fill_horn(a_pres, HornSpec.from_faces(n, n - 1, faces))
            if z is None:
                raise NotKanError("no product witness in the subcomplex")
            faces = {i: star for i in range(n + 2) if i != n}
            faces[0] = z
            faces[n - 1] = x
            faces[n + 1] = y
            horn = HornSpec.from_faces(n + 1, n, faces)
            fillers = fill_horn_all(p, horn)
            if not fillers:
                raise NotKanError(
                    f"relative product horn has no filler: {horn.describe()}"
                )
            results = {index_of[p.face(w, n)] for w in fillers}
            if verify and len(results) > 1:
                raise ConsistencyError(
                    f"relative product depends on the filler for {horn.describe()}"
                )
            table[a][b] = index_of[p.face(fillers[0], n)]
    table = tuple(tuple(row) for row in table)
    _check_table_is_group(table, basepoint_class)
    return PiGroup(n, reps, classes, basepoint_class, closure_needed, table)


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
