"""Simplicial maps between presentations.

A map is stored only on generators; the image of a degenerate simplex
s_W g is recomputed as the canonical form of s_W f(g) every time.  That
extension rule forces commutation with degeneracies, so validation only
has to check commutation with faces.

Here too: the maps a simplex and a horn classify, a product's projections
and slice inclusions, and homotopies of maps, as chain-level data or as
cylinder maps X x Delta[1] -> Y.  Only ``io``'s reader builds maps elsewhere.
"""

from __future__ import annotations

from collections.abc import Mapping

from .core import (
    GenId,
    Presentation,
    Record,
    Report,
    Simplex,
    StructureError,
    apply_word,
    degenerate,
    format_simplex,
    vertex_simplex,
)
from . import constructions  # only the simplex and horn maps run it
from . import kan  # bound for an annotation; nothing here runs it


class SimplicialMap:
    def __init__(
        self,
        source: Presentation,
        target: Presentation,
        assignment: Mapping[GenId, Simplex],
        name: str | None = None,
    ):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        self.name = name

    def __eq__(self, other):
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )

    __hash__ = None

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<SimplicialMap{label} on {len(self.assignment)} generators>"


class FaceMismatch(Record):
    """A generator and face index where f(d_i g) != d_i f(g)."""

    gen: GenId
    i: int
    lhs: Simplex
    rhs: Simplex

    def __str__(self):
        return (
            f"f(d_{self.i} {self.gen.name}) = {self.lhs} "
            f"but d_{self.i} f({self.gen.name}) = {self.rhs}"
        )


class MapReport(Report):
    """Outcome of :func:`validate_map`; violations are :class:`FaceMismatch`."""


def apply_map(f: SimplicialMap, x: Simplex) -> Simplex:
    """Image of any simplex: canonical form of s_word applied to f(gen)."""
    img = f.assignment.get(x.gen)
    if img is None:
        raise StructureError(f"map has no assignment for generator {x.gen}")
    return apply_word(img, x.word)


def validate_map(f: SimplicialMap) -> MapReport:
    """Check totality, dimensions, and commutation with faces.

    Missing assignments and dimension mismatches are fatal; the face
    conditions are evaluated only on a structurally sound assignment.
    """
    fatal = []
    for g in f.source.all_generators():
        img = f.assignment.get(g)
        if img is None:
            fatal.append(f"no assignment for generator {g}")
            continue
        if img.dim != g.dim:
            fatal.append(f"f({g}) has dimension {img.dim}, expected {g.dim}")
        elif not f.target.has_generator(img.gen):
            fatal.append(f"f({g}) references unknown target generator {img.gen}")
    if fatal:
        return MapReport(tuple(fatal), ())
    violations = []
    for g in f.source.all_generators():
        if g.dim == 0:
            continue
        source_row = f.source.face_row(Simplex((), g))
        target_row = f.target.face_row(f.assignment[g])
        for i, (face, rhs) in enumerate(zip(source_row, target_row)):
            lhs = apply_map(f, face)
            if lhs != rhs:
                violations.append(FaceMismatch(g, i, lhs, rhs))
    return MapReport((), tuple(violations))


def identity_map(p: Presentation) -> SimplicialMap:
    return SimplicialMap(
        p, p, {g: Simplex((), g) for g in p.all_generators()}, name="id"
    )


def compose(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    """The composite g after f; requires f.target to equal g.source."""
    if f.target != g.source:
        raise ValueError("presentation mismatch: f.target differs from g.source")
    assignment = {
        x: apply_map(g, apply_map(f, Simplex((), x)))
        for x in f.source.all_generators()
    }
    name = None
    if f.name and g.name:
        name = f"{g.name}∘{f.name}"
    return SimplicialMap(f.source, g.target, assignment, name=name)


# -- the maps of simplices, horns and products ------------------------------


def _subset_face(p: Presentation, x: Simplex, vertices, keep: set[int]) -> Simplex:
    """The face of x spanned by ``keep``; ``vertices`` labels x's vertices in order.

    The others are dropped from the last down, so each index stays in place.
    """
    for i in reversed(range(len(vertices))):
        if vertices[i] not in keep:
            x = p.face(x, i)
    return x


def map_from_simplex(p: Presentation, z: Simplex) -> SimplicialMap:
    """The map from the standard simplex classifying z (top generator to z)."""
    src = constructions.standard_simplex(z.dim)
    assignment = {}
    for g in src.all_generators():
        keep = {int(v) for v in g.name.split(".")}
        assignment[g] = _subset_face(p, z, range(z.dim + 1), keep)
    return SimplicialMap(src, p, assignment)


def horn_map(p: Presentation, h: kan.HornSpec) -> SimplicialMap:
    """The simplicial map from the horn presentation determined by a horn.

    Each generator of the horn is a vertex subset missing at least one
    index other than k; its image is the corresponding iterated face of
    any assigned facet containing it.  Compatibility of the horn makes
    the choice of facet irrelevant.
    """
    src = constructions.horn(h.n, h.k)
    assignment: dict[GenId, Simplex] = {}
    for g in src.all_generators():
        keep = {int(v) for v in g.name.split(".")}
        anchor = min(i for i in range(h.n + 1) if i not in keep and i != h.k)
        facet = [v for v in range(h.n + 1) if v != anchor]
        assignment[g] = _subset_face(p, h.faces[anchor], facet, keep)
    return SimplicialMap(src, p, assignment)


def projections(p: Presentation) -> tuple[SimplicialMap, SimplicialMap]:
    """The two componentwise projection maps of a product presentation."""
    first = {g: p.pair_of(g)[0] for g in p.all_generators()}
    second = {g: p.pair_of(g)[1] for g in p.all_generators()}
    return (
        SimplicialMap(p, p.left, first, name="pr1"),
        SimplicialMap(p, p.right, second, name="pr2"),
    )


def vertex_inclusion(p: Presentation, v: GenId) -> SimplicialMap:
    """The slice inclusion X -> X x Y of the product p over a vertex v of Y."""
    if not (v.dim == 0 and p.right.has_generator(v)):
        raise ValueError(f"{v} is not a vertex of the right factor")
    assignment = {
        g: p.from_pair(Simplex((), g), vertex_simplex(v, g.dim))
        for g in p.left.all_generators()
    }
    return SimplicialMap(p.left, p, assignment, name=f"incl@{v.name}")


# -- homotopies of maps ------------------------------------------------------


class HomotopyData(Record):
    """Chain-level homotopy data: one (p+1)-simplex per level index and p-simplex."""

    bound: int
    values: Mapping[tuple[int, Simplex], Simplex]

    def h(self, i: int, x: Simplex) -> Simplex:
        try:
            return self.values[(i, x)]
        except KeyError:
            raise KeyError(f"missing h_{i} value on {format_simplex(x)}") from None


class HomotopyViolation(Record):
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


class HomotopyReport(Report):
    """Outcome of :func:`verify_homotopy_data`, with :class:`HomotopyViolation`s."""


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


def _cylinder(hmap: SimplicialMap):
    """A cylinder map's product source, interval edge and (initial, final) ends."""
    from .product import ProductPresentation
    xy = hmap.source
    if not isinstance(xy, ProductPresentation):
        raise ValueError("cylinder maps must have a product source")
    ones = xy.right.generators_at(1)
    if len(ones) != 1 or xy.right.max_generator_dim != 1:
        raise ValueError("right factor of the cylinder is not an interval")
    final, initial = xy.right.faces_of(ones[0])
    return xy, ones[0], initial.gen, final.gen


def cylinder_endpoints(hmap: SimplicialMap) -> tuple[SimplicialMap, SimplicialMap]:
    """(f, g) with f the final-end restriction and g the initial-end one."""
    xy, _, initial, final = _cylinder(hmap)
    f = compose(hmap, vertex_inclusion(xy, final))
    g = compose(hmap, vertex_inclusion(xy, initial))
    return f, g


def homotopy_from_cylinder(hmap: SimplicialMap, bound: int) -> HomotopyData:
    """Convert a cylinder map into chain-level homotopy data.

    h_k on a p-simplex x is the image of the k-th prism cell over x: the
    pair of s_k x with the complementary degeneracy word on the interval
    edge.
    """
    xy, edge, _, _ = _cylinder(hmap)
    x_pres = xy.left
    x_pres.require_trusted(bound, "homotopy data reaches dimension")
    values = {}
    for p in range(bound + 1):
        for x in x_pres.simplices(p):
            for k in range(p + 1):
                word = tuple(j for j in range(p, -1, -1) if j != k)
                prism_cell = xy.from_pair(degenerate(x, k), Simplex(word, edge))
                values[(k, x)] = apply_map(hmap, prism_cell)
    return HomotopyData(bound, values)
