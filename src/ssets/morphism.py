"""Simplicial maps between presentations.

A map is stored only on generators; the image of a degenerate simplex
s_W g is recomputed as the canonical form of s_W f(g) every time.  That
extension rule forces commutation with degeneracies, so validation only
has to check commutation with faces.
"""

from __future__ import annotations

from typing import Mapping

from .core import (
    GenId,
    Presentation,
    Record,
    Report,
    Simplex,
    StructureError,
    apply_word,
)


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
