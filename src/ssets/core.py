"""Core types and the rewriting engine for finitely presented simplicial sets.

A presentation lists the nondegenerate simplices (generators) of each
dimension together with a face table.  Every simplex of the generated
simplicial set has a unique normal form: a strictly decreasing word of
degeneracy operators applied to a generator.  Faces and degeneracies of
arbitrary simplices are computed by rewriting with the simplicial
identities

    d_i d_j = d_{j-1} d_i         (i < j)
    d_i s_j = s_{j-1} d_i         (i < j)
    d_j s_j = d_{j+1} s_j = id
    d_i s_j = s_j d_{i-1}         (i > j + 1)
    s_i s_j = s_{j+1} s_i         (i <= j)

so the only stored data are the faces of generators.  The mixed and
degeneracy identities hold by construction of the rewriting; the d-d
identity is a property of the face table and is what
``Presentation.validate`` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence


class SsetError(Exception):
    """Base class for errors raised by this package."""


class StructureError(SsetError):
    """A presentation, or data referencing one, is structurally broken."""


class TruncationError(SsetError):
    """An operation needs simplices above the declared top dimension."""


class NotKanError(SsetError):
    """A horn required by a homotopy construction has no filler."""


class ConsistencyError(SsetError):
    """An internal cross-check failed; indicates corrupt input or a bug."""


@dataclass(frozen=True, order=True)
class GenId:
    """A nondegenerate generator, identified by dimension and name.

    Names must be unique within a dimension; the same name may appear in
    different dimensions.
    """

    dim: int
    name: str

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError(f"generator dimension must be >= 0, got {self.dim}")
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("generator name must be a nonempty string")

    def __str__(self):
        return f"{self.name}:{self.dim}"


@dataclass(frozen=True)
class Simplex:
    """Normal form of a simplex: a degeneracy word over a generator.

    ``word`` lists degeneracy indices outermost first and is strictly
    decreasing, so ``Simplex((2, 0), g)`` denotes s_2 s_0 g, and the
    empty word denotes the generator itself.  Uniqueness of this normal
    form makes simplex equality plain tuple comparison.
    """

    word: tuple[int, ...]
    gen: GenId

    def __post_init__(self):
        w = self.word
        for a, b in zip(w, w[1:]):
            if a <= b:
                raise ValueError(f"degeneracy word {w} is not strictly decreasing")
        if w:
            if w[-1] < 0:
                raise ValueError(f"negative degeneracy index in {w}")
            if w[0] > self.gen.dim + len(w) - 1:
                raise ValueError(f"degeneracy word {w} out of range over {self.gen}")

    @property
    def dim(self) -> int:
        return self.gen.dim + len(self.word)

    @property
    def is_degenerate(self) -> bool:
        return bool(self.word)

    def __str__(self):
        return format_simplex(self)


def simplex_key(x: Simplex) -> tuple:
    """Sort key fixing the deterministic enumeration order."""
    return (x.gen.dim, x.gen.name, x.word)


def format_simplex(x: Simplex) -> str:
    """Render a simplex in face-expression notation, e.g. ``s1 s0 v``."""
    ops = " ".join(f"s{i}" for i in x.word)
    return f"{ops} {x.gen.name}" if ops else x.gen.name


def compact_simplex(x: Simplex) -> str:
    """Whitespace-free notation, e.g. ``s1s0[v]``; used to name product cells."""
    ops = "".join(f"s{i}" for i in x.word)
    return f"{ops}[{x.gen.name}]"


def degenerate(x: Simplex, i: int) -> Simplex:
    """Return s_i x in canonical form.

    The word is re-sorted by a single insertion pass using
    s_i s_j = s_{j+1} s_i for i <= j.
    """
    if not 0 <= i <= x.dim:
        raise ValueError(f"s_{i} is undefined on a {x.dim}-simplex")
    head = []
    rest = list(x.word)
    while rest and i <= rest[0]:
        head.append(rest.pop(0) + 1)
    return Simplex((*head, i, *rest), x.gen)


def apply_word(base: Simplex, ops: Sequence[int]) -> Simplex:
    """Apply degeneracy operators listed outermost first, canonicalizing."""
    x = base
    for i in reversed(tuple(ops)):
        x = degenerate(x, i)
    return x


def vertex_simplex(v: GenId, n: int) -> Simplex:
    """The unique n-simplex degenerated from a vertex (all its faces are itself)."""
    if v.dim != 0:
        raise ValueError(f"{v} is not a vertex")
    if n < 0:
        raise ValueError("dimension must be >= 0")
    return Simplex(tuple(range(n - 1, -1, -1)), v)


@dataclass(frozen=True)
class DDViolation:
    """One failure of d_i d_j = d_{j-1} d_i on a generator."""

    gen: GenId
    i: int
    j: int
    lhs: Simplex
    rhs: Simplex

    def __str__(self):
        return (
            f"d_{self.i} d_{self.j} {self.gen.name} = {self.lhs} "
            f"but d_{self.j - 1} d_{self.i} {self.gen.name} = {self.rhs}"
        )


@dataclass(frozen=True)
class ValidationReport:
    fatal: tuple[str, ...]
    violations: tuple[DDViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.fatal and not self.violations


class Presentation:
    """A finitely presented simplicial set.

    ``top_dim`` declares the dimension up to which the presentation is a
    trustworthy description of the intended object.  Enumeration of
    simplices works in every dimension (degeneracies are freely
    generated), but operations whose answer could be changed by unknown
    generators above the bound, such as horn filling, refuse to run
    there and raise :class:`TruncationError` instead.
    """

    def __init__(
        self,
        generators: Iterable[GenId],
        faces: Mapping[GenId, Sequence[Simplex]],
        top_dim: int | None = None,
        *,
        delta_style: bool = False,
        name: str | None = None,
    ):
        by_dim: dict[int, list[GenId]] = {}
        seen: set[GenId] = set()
        for g in generators:
            if g in seen:
                raise StructureError(f"duplicate generator {g}")
            seen.add(g)
            by_dim.setdefault(g.dim, []).append(g)
        self._by_dim: dict[int, tuple[GenId, ...]] = {
            d: tuple(sorted(by_dim[d])) for d in sorted(by_dim)
        }
        self._gens = frozenset(seen)
        self.max_generator_dim = max(by_dim, default=0)
        if top_dim is None:
            top_dim = self.max_generator_dim
        if top_dim < self.max_generator_dim:
            raise StructureError(
                f"top_dim {top_dim} is below the top generator dimension "
                f"{self.max_generator_dim}"
            )
        self.top_dim = int(top_dim)
        self.delta_style = bool(delta_style)
        self.name = name

        table: dict[GenId, tuple[Simplex, ...]] = {}
        for g, fs in faces.items():
            if g not in self._gens:
                raise StructureError(f"face table entry for unknown generator {g}")
            if g.dim == 0:
                raise StructureError(f"vertex {g} cannot carry face entries")
            fs = tuple(fs)
            if len(fs) != g.dim + 1:
                raise StructureError(
                    f"{g} needs {g.dim + 1} face entries, got {len(fs)}"
                )
            for i, f in enumerate(fs):
                if not isinstance(f, Simplex):
                    raise StructureError(f"face d_{i} of {g} is not a simplex")
                if f.dim != g.dim - 1:
                    raise StructureError(
                        f"face d_{i} of {g} has dimension {f.dim}, expected {g.dim - 1}"
                    )
            table[g] = fs
        for g in self._gens:
            if g.dim >= 1 and g not in table:
                raise StructureError(f"missing face entries for {g}")
        self._faces = table
        self._simplices_cache: dict[int, tuple[Simplex, ...]] = {}
        self._face_rows_cache: dict[int, tuple[tuple[Simplex, ...], ...]] = {}
        self._match_index: dict[tuple[int, tuple[int, ...]], dict] = {}

    # -- generator access ------------------------------------------------

    def generators_at(self, dim: int) -> tuple[GenId, ...]:
        return self._by_dim.get(dim, ())

    def all_generators(self) -> Iterator[GenId]:
        for d in sorted(self._by_dim):
            yield from self._by_dim[d]

    def generator_counts(self) -> tuple[int, ...]:
        """Counts of generators per dimension, from 0 to the top generator."""
        return tuple(
            len(self._by_dim.get(d, ())) for d in range(self.max_generator_dim + 1)
        )

    def has_generator(self, g: GenId) -> bool:
        return g in self._gens

    def generator(self, dim: int, name: str) -> GenId:
        g = GenId(dim, name)
        if g not in self._gens:
            raise StructureError(f"no generator named {name!r} in dimension {dim}")
        return g

    def faces_of(self, g: GenId) -> tuple[Simplex, ...]:
        if g.dim == 0:
            return ()
        try:
            return self._faces[g]
        except KeyError:
            raise StructureError(f"unknown generator {g}") from None

    # -- the rewriting engine --------------------------------------------

    def degeneracy(self, x: Simplex, i: int) -> Simplex:
        """Return s_i x in canonical form."""
        if x.gen not in self._gens:
            raise StructureError(f"simplex over unknown generator {x.gen}")
        return degenerate(x, i)

    def face(self, x: Simplex, i: int) -> Simplex:
        """Return d_i x in canonical form.

        d_i is pushed through the degeneracy word with the three mixed
        identities; if it survives to the generator, the stored face is
        substituted and the collected outer word is re-applied.
        """
        if x.gen not in self._gens:
            raise StructureError(f"simplex over unknown generator {x.gen}")
        if x.dim < 1:
            raise ValueError("a 0-simplex has no faces")
        if not 0 <= i <= x.dim:
            raise ValueError(f"d_{i} is undefined on a {x.dim}-simplex")
        outer: list[int] = []
        rest = list(x.word)
        while rest:
            w = rest.pop(0)
            if i < w:
                outer.append(w - 1)
            elif i == w or i == w + 1:
                return Simplex((*outer, *rest), x.gen)
            else:
                outer.append(w)
                i -= 1
        if x.gen.dim == 0:
            raise ConsistencyError(f"face operator survived to the vertex {x.gen}")
        result = self._faces.get(x.gen)
        if result is None:
            raise StructureError(f"unknown generator {x.gen}")
        out = result[i]
        for w in reversed(outer):
            out = degenerate(out, w)
        return out

    # -- enumeration -----------------------------------------------------

    def simplices(self, n: int) -> tuple[Simplex, ...]:
        """All n-simplices, degenerate included, in deterministic order.

        Order is lexicographic on (generator dimension, generator name,
        degeneracy word).
        """
        if n < 0:
            raise ValueError("dimension must be >= 0")
        cached = self._simplices_cache.get(n)
        if cached is not None:
            return cached
        out = []
        for m, gens in self._by_dim.items():
            if m > n:
                continue
            words = [
                tuple(sorted(c, reverse=True)) for c in combinations(range(n), n - m)
            ]
            for g in gens:
                for w in words:
                    out.append(Simplex(w, g))
        out.sort(key=simplex_key)
        result = tuple(out)
        self._simplices_cache[n] = result
        return result

    def matching(
        self, n: int, pattern: Sequence[Simplex | None]
    ) -> tuple[Simplex, ...]:
        """The n-simplices z with d_i z = pattern[i] wherever that is not None.

        The answer is in enumeration order.  It is looked up in an index
        keyed on the fixed slots, built on the first query for those
        slots in dimension n from the face rows of ``simplices(n)``; the
        rows take one pass of n+1 ``face`` calls per simplex, once per
        dimension.  A pattern with no fixed slot returns ``simplices(n)``.
        """
        if len(pattern) != n + 1:
            raise ValueError(f"a pattern on {n}-simplices has {n + 1} slots")
        fixed = tuple(i for i, f in enumerate(pattern) if f is not None)
        if not fixed:
            return self.simplices(n)
        key = itemgetter(*fixed)
        index = self._match_index.get((n, fixed))
        if index is None:
            rows = self._face_rows_cache.get(n)
            if rows is None:
                rows = tuple(
                    tuple(self.face(z, i) for i in range(n + 1))
                    for z in self.simplices(n)
                )
                self._face_rows_cache[n] = rows
            groups: dict = {}
            for z, row in zip(self.simplices(n), rows):
                groups.setdefault(key(row), []).append(z)
            index = {k: tuple(zs) for k, zs in groups.items()}
            self._match_index[(n, fixed)] = index
        return index.get(key(pattern), ())

    def count_simplices(self, n: int) -> int:
        """Closed-form count of n-simplices: sum over m of g_m * C(n, m)."""
        if n < 0:
            raise ValueError("dimension must be >= 0")
        return sum(
            len(gens) * math.comb(n, m) for m, gens in self._by_dim.items() if m <= n
        )

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check face targets and the d_i d_j = d_{j-1} d_i identity.

        Dangling generator references are fatal and reported before any
        identity is evaluated.
        """
        fatal = []
        for g in self.all_generators():
            for i, f in enumerate(self.faces_of(g)):
                if f.gen not in self._gens:
                    fatal.append(
                        f"face d_{i} of {g} references unknown generator {f.gen}"
                    )
        if fatal:
            return ValidationReport(tuple(fatal), ())
        violations = []
        for g in self.all_generators():
            if g.dim < 2:
                continue
            x = Simplex((), g)
            for j in range(1, g.dim + 1):
                for i in range(j):
                    lhs = self.face(self.face(x, j), i)
                    rhs = self.face(self.face(x, i), j - 1)
                    if lhs != rhs:
                        violations.append(DDViolation(g, i, j, lhs, rhs))
        return ValidationReport((), tuple(violations))

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return (
            self.top_dim == other.top_dim
            and self.delta_style == other.delta_style
            and self._by_dim == other._by_dim
            and self._faces == other._faces
        )

    __hash__ = None

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Presentation{label} generators={self.generator_counts()} "
            f"top_dim={self.top_dim}>"
        )
