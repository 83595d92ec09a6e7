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

so the only stored data are the faces of generators: a generator's face
row is read from the table, never rewritten (``Presentation.face_row``).
The mixed and degeneracy identities hold by construction of the
rewriting; the d-d identity is a property of the face table and is what
``Presentation.validate`` checks.

``GenId`` and ``Simplex`` are immutable ``tuple`` subclasses whose
constructors check the normal form; every face row, index and memo is a
dict keyed on them, so hashing and equality are the built-in tuple ones.
A value is checked once, where it enters: the engine builds its results
from already-checked parts with ``_new`` (``tuple.__new__``), skipping
the constructors, and a plain ``(word, gen)`` tuple given to a public
function has its result built by the checking constructor.

Results and reports (``HornSpec``, ``PiGroup``, ...) are :class:`Record`
subclasses with annotated fields: built by position or keyword, checked
by ``__post_init__``, equal only within their class, hashed as their
field tuple, printed as ``Name(field=value, ...)``, immutable, and
picklable and copyable.
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import itemgetter
from collections.abc import Iterable, Iterator, Mapping, Sequence


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


# builds a GenId or Simplex from parts already checked, skipping __new__
_new = tuple.__new__


class GenId(tuple):
    """A nondegenerate generator, identified by dimension and name.

    Names must be unique within a dimension; the same name may appear in
    different dimensions.  The value is the tuple ``(dim, name)``, so
    hashing, equality and ordering run on that tuple.  A plain tuple
    compares equal to it but is not a generator: :class:`Presentation`
    refuses one wherever a generator is required.
    """

    __slots__ = ()

    def __new__(cls, dim: int, name: str):
        if dim < 0:
            raise ValueError(f"generator dimension must be >= 0, got {dim}")
        if not isinstance(name, str) or not name:
            raise ValueError("generator name must be a nonempty string")
        return tuple.__new__(cls, (dim, name))

    dim = property(itemgetter(0))
    name = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"GenId(dim={self.dim!r}, name={self.name!r})"

    def __str__(self):
        return f"{self.name}:{self.dim}"


class Simplex(tuple):
    """Normal form of a simplex: a degeneracy word over a generator.

    ``word`` lists degeneracy indices outermost first and is strictly
    decreasing, so ``Simplex((2, 0), g)`` denotes s_2 s_0 g, and the
    empty word denotes the generator itself.  The value is the tuple
    ``(word, gen)``; uniqueness of the normal form makes simplex equality
    literally that tuple's comparison.  The tuple's natural order is not
    the enumeration order: sort with :func:`simplex_key`.
    """

    __slots__ = ()

    def __new__(cls, word: tuple[int, ...], gen: GenId):
        if word:
            for a, b in zip(word, word[1:]):
                if a <= b:
                    raise ValueError(f"degeneracy word {word} is not strictly decreasing")
            if word[-1] < 0:
                raise ValueError(f"negative degeneracy index in {word}")
            if word[0] > gen.dim + len(word) - 1:
                raise ValueError(f"degeneracy word {word} out of range over {gen}")
        return tuple.__new__(cls, (word, gen))

    word = property(itemgetter(0))
    gen = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    @property
    def dim(self) -> int:
        word, gen = self
        return gen.dim + len(word)

    @property
    def is_degenerate(self) -> bool:
        return bool(self.word)

    def __repr__(self):
        return f"Simplex(word={self.word!r}, gen={self.gen!r})"

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
    s_i s_j = s_{j+1} s_i for i <= j.  The result of a plain
    ``(word, gen)`` tuple is built by the checking constructor.
    """
    word, gen = x
    n = gen.dim + len(word)
    if not 0 <= i <= n:
        raise ValueError(f"s_{i} is undefined on a {n}-simplex")
    head = []
    rest = list(word)
    while rest and i <= rest[0]:
        head.append(rest.pop(0) + 1)
    word = (*head, i, *rest)
    # s_i with i in range keeps a normal form normal
    return _new(Simplex, (word, gen)) if type(x) is Simplex else Simplex(word, gen)


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


class Record:
    """Base of the immutable result types (see the module docstring).

    The fields are the annotated names in class order, after the bases'
    fields.  Pickling and copying restore them without running
    ``__post_init__`` again.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = (*cls._fields, *cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields, args))
            extra = [k for k in kwargs if k in values or k not in fields]
            values.update(kwargs)
            missing = [f for f in fields if f not in values]
            if len(args) > len(fields) or extra or missing:
                raise TypeError(
                    f"{type(self).__name__}({', '.join(fields)}): "
                    f"{len(args)} positional, extra {extra}, missing {missing}"
                )
            args = [values[f] for f in fields]
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a subclass raises here to refuse a value."""

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DDViolation(Record):
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


class Report(Record):
    """Fatal problems, which stop a check before it tests any law, and violations.

    Subclasses only name the check: reports of different checks are never equal.
    """

    fatal: tuple[str, ...]
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.fatal and not self.violations


class ValidationReport(Report):
    """Outcome of :meth:`Presentation.validate`; violations are :class:`DDViolation`."""


class Presentation:
    """A finitely presented simplicial set.

    ``top_dim`` declares the dimension up to which the presentation is a
    trustworthy description of the intended object.  Enumeration of
    simplices works in every dimension (degeneracies are freely
    generated), but operations whose answer could be changed by unknown
    generators above the bound, such as horn filling, refuse to run
    there: each asks :meth:`require_trusted`, which raises
    :class:`TruncationError`.
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
        seen: set[GenId] = set()
        by_dim: dict[int, list[GenId]] = {}
        for g in generators:
            if not isinstance(g, GenId):
                raise StructureError(f"generator {g!r} is not a GenId")
            if g in seen:
                raise StructureError(f"duplicate generator {g}")
            seen.add(g)
            by_dim.setdefault(g.dim, []).append(g)
        self._assemble(by_dim, top_dim, delta_style, name)
        table: dict[GenId, tuple[Simplex, ...]] = dict.fromkeys(self.generators_at(0), ())
        for g, fs in faces.items():
            if not isinstance(g, GenId):
                raise StructureError(f"face table key {g!r} is not a GenId")
            if g not in seen:
                raise StructureError(f"face table entry for unknown generator {g}")
            n = g.dim
            if n == 0:
                raise StructureError(f"vertex {g} cannot carry face entries")
            fs = tuple(fs)
            if len(fs) != n + 1:
                raise StructureError(f"{g} needs {n + 1} face entries, got {len(fs)}")
            for i, f in enumerate(fs):
                if not isinstance(f, Simplex):
                    raise StructureError(f"face d_{i} of {g} is not a simplex")
                word, gen = f
                if gen.dim + len(word) != n - 1:
                    raise StructureError(
                        f"face d_{i} of {g} has dimension {f.dim}, expected {n - 1}"
                    )
            table[g] = fs
        for g in seen:
            if g.dim >= 1 and g not in table:
                raise StructureError(f"missing face entries for {g}")
        self._faces = table
        # faces over unknown generators, fatal to validate; found once, here,
        # as the builders that skip this constructor name only their own
        self._dangling = tuple(
            f"face d_{i} of {g} references unknown generator {f.gen}"
            for g in self.all_generators()
            for i, f in enumerate(table[g])
            if f.gen not in table
        )

    @classmethod
    def _from_checked(cls, by_dim, faces, top_dim, *, delta_style=False, name=None):
        """A presentation over tables its builder has already checked.

        ``by_dim`` maps each dimension to a collection of distinct
        ``GenId``s of that dimension, in any order; a dimension may map to
        none.  ``faces`` maps each generator of dimension n >= 1 to n + 1
        simplices of dimension n - 1, as the public constructor checks, and
        nothing else but vertices to ``()``; it is taken over, with a ``()``
        row set per vertex.  Only ``top_dim`` is checked: each face must be
        over one of the generators, so none dangles.
        """
        self = cls.__new__(cls)
        self._assemble(by_dim, top_dim, delta_style, name)
        faces.update(dict.fromkeys(self.generators_at(0), ()))
        self._faces = faces
        self._dangling = ()
        return self

    def _assemble(self, by_dim, top_dim, delta_style, name) -> None:
        """Sort the generators of each dimension, check top_dim, set the caches."""
        self._by_dim: dict[int, tuple[GenId, ...]] = {
            d: tuple(sorted(by_dim[d])) for d in sorted(by_dim) if by_dim[d]
        }
        self.max_generator_dim = max(self._by_dim, default=0)
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
        """Whether g is a generator; a plain (dim, name) tuple never is."""
        return isinstance(g, GenId) and g in self._faces

    def generator(self, dim: int, name: str) -> GenId:
        g = GenId(dim, name)
        if g not in self._faces:
            raise StructureError(f"no generator named {name!r} in dimension {dim}")
        return g

    def faces_of(self, g: GenId) -> tuple[Simplex, ...]:
        """The stored face row of g; a vertex's is ``()``."""
        row = self._faces.get(g) if isinstance(g, GenId) else None
        if row is None:
            raise StructureError(f"unknown generator {g}")
        return row

    # -- the rewriting engine --------------------------------------------

    def face(self, x: Simplex, i: int) -> Simplex:
        """Return d_i x in canonical form.

        d_i is pushed through the degeneracy word with the three mixed
        identities; if it survives to the generator, the stored face is
        substituted and the collected outer word is re-applied.  As in
        :func:`degenerate`, a plain tuple's result is checked.
        """
        word, gen = x
        if not self.has_generator(gen):
            raise StructureError(f"simplex over unknown generator {gen}")
        n = gen.dim + len(word)
        if n < 1:
            raise ValueError("a 0-simplex has no faces")
        if not 0 <= i <= n:
            raise ValueError(f"d_{i} is undefined on a {n}-simplex")
        outer: list[int] = []
        rest = list(word)
        while rest:
            w = rest.pop(0)
            if i < w:
                outer.append(w - 1)
            elif i == w or i == w + 1:
                word = (*outer, *rest)
                return _new(Simplex, (word, gen)) if type(x) is Simplex else Simplex(word, gen)
            else:
                outer.append(w)
                i -= 1
        if gen.dim == 0:
            raise ConsistencyError(f"face operator survived to the vertex {gen}")
        out = self._faces[gen][i]
        for w in reversed(outer):
            out = degenerate(out, w)
        return out

    def face_row(self, x: Simplex) -> tuple[Simplex, ...]:
        """Return (d_0 x, ..., d_n x), raising as :meth:`face` does.

        A generator's row is its stored face tuple, read without rewriting;
        a degenerate simplex's row is n+1 :meth:`face` calls.
        """
        word, gen = x
        if not self.has_generator(gen):
            raise StructureError(f"simplex over unknown generator {gen}")
        if word:
            return tuple(self.face(x, i) for i in range(gen.dim + len(word) + 1))
        if gen.dim < 1:
            raise ValueError("a 0-simplex has no faces")
        return self._faces[gen]

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
            out += [_new(Simplex, (w, g)) for g in gens for w in words]
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
        slots in dimension n from the ``face_row`` of each simplex in
        ``simplices(n)``; the rows are built once per dimension.  A
        pattern with no fixed slot returns ``simplices(n)``.
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
                rows = tuple(map(self.face_row, self.simplices(n)))
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

    def require_trusted(self, n: int, what: str) -> None:
        """Raise TruncationError if a search needs dimension n above ``top_dim``.

        ``what`` names the need and reads before n in the message.
        """
        if n > self.top_dim:
            raise TruncationError(
                f"undecidable at this truncation: {what} {n} "
                f"but the presentation is only trusted up to {self.top_dim}"
            )

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check face targets and the d_i d_j = d_{j-1} d_i identity.

        Dangling generator references, found when the presentation was
        built, are fatal and reported before any identity is evaluated.
        Both sides are read off the face rows of the stored faces of each
        generator: a generator face's row is its stored one, and a
        degenerate face's row is computed once per distinct simplex,
        however many generators share it, and kept only for this call.
        """
        if self._dangling:
            return ValidationReport(self._dangling, ())
        violations = []
        degenerate_rows: dict[Simplex, tuple[Simplex, ...]] = {}

        def row(f):
            if not f.word:
                return self._faces[f.gen]
            r = degenerate_rows.get(f)
            if r is None:
                r = degenerate_rows[f] = self.face_row(f)
            return r

        for g in self.all_generators():
            if g.dim < 2:
                continue
            rows = [row(f) for f in self._faces[g]]
            for j in range(1, g.dim + 1):
                for i in range(j):
                    lhs = rows[j][i]
                    rhs = rows[i][j - 1]
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


def euler_characteristic(p: Presentation) -> int:
    """Alternating sum of nondegenerate cell counts."""
    return sum((-1) ** d * c for d, c in enumerate(p.generator_counts()))
