"""Text formats for presentations, maps, and group tables.

Presentation documents are line based:

    name delta1
    style simplicial
    top_dim 3
    generators 0 : 0 1
    generators 1 : 0.1
    faces 0.1 : 1 ; 0

``generators <dim> : <names>`` lists the generators of one dimension;
``faces <gen> : <expr> ; <expr> ; ...`` gives d_0, d_1, ... in order.
A face expression is a possibly empty run of degeneracy operators
followed by a generator name, e.g. ``s1 s0 v``.  Degeneracy words are
accepted in any order and normalized on load; a non-canonical word
triggers a NormalizationWarning.  Blank lines and ``#`` comments are
ignored.  Saving is canonical, so load/save round-trips are
byte-identical after one normalization pass.

Map documents assign a target face expression to every source
generator:

    name collapse
    source delta2.sset
    target delta1.sset
    assign 0.1.2 : s1 0.1

Group tables list the elements and one product row per element:

    elements e g g2
    table e : e g g2
    table g : g g2 e
    table g2 : g2 e g
"""

from __future__ import annotations

import re
import warnings
from operator import ne
from pathlib import Path

from .core import (
    GenId,
    Presentation,
    Simplex,
    SsetError,
    _new,
    apply_word,
    format_simplex,
)
from . import groups, morphism  # only the map and group-table readers run them


class ParseError(SsetError):
    """Syntax error with the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class SemanticError(SsetError):
    """Well-formed document with inconsistent content (names, counts)."""


class NormalizationWarning(UserWarning):
    """A degeneracy word was rewritten into canonical order on load."""


_MAP_HEADS = ("name", "source", "target", "assign")
_DEGEN_RE = re.compile(r"s(\d+)$")
# A generator name the grammar holds: no whitespace, ';', ':' or '#', and
# not a degeneracy operator.
_NAME_RE = re.compile(r"(?!s\d+\Z)[^\s;:#]+\Z")


def _check_name(name: str, line: int) -> str:
    if _NAME_RE.match(name):
        return name
    if not _DEGEN_RE.fullmatch(name):
        raise ParseError(f"invalid name {name!r}", line)
    raise ParseError(f"name {name!r} collides with degeneracy-operator syntax", line)


def _directives(chunks, heads):
    """``(line number, head, rest)`` of each line not blank once its comment is cut.

    Lines are split by str.splitlines; a head outside ``heads`` is refused.
    """
    lineno = 0
    for chunk in chunks:
        for line in chunk.splitlines():
            lineno += 1
            if "#" in line:
                line = line.partition("#")[0]
            line = line.strip()
            if line:
                head, _, rest = line.partition(" ")
                if head not in heads:
                    raise ParseError(f"unknown directive {head!r}", lineno)
                yield lineno, head, rest.strip()


def _key_value(head: str, rest: str, line: int) -> tuple[str, str]:
    """Split ``key : value``; the key is stripped, the value is not."""
    key, sep, value = rest.partition(":")
    if not sep:
        raise ParseError(f"{head} line needs a ':'", line)
    return key.strip(), value


def _generator_lookup(p: Presentation):
    """The ``lookup`` of :func:`parse_face_expression` for the generators of p."""

    def lookup(dim, name):
        g = GenId(dim, name)
        return g if p.has_generator(g) else None

    return lookup


def _split_expression(text: str, line: int | None) -> tuple[list[int], str]:
    """The operators and the generator name of ``s.. s.. genname``, syntax only."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty face expression", line)
    ops = []
    for tok in tokens[:-1]:
        m = _DEGEN_RE.match(tok)
        if m:
            try:
                ops.append(int(m.group(1)))
                continue
            except ValueError:  # more digits than int() converts
                pass
        raise ParseError(f"bad degeneracy operator {tok!r}", line)
    return ops, tokens[-1]


def _parse(text: str, dim: int, lookup, line: int | None) -> tuple[Simplex, bool]:
    """The simplex of ``s.. s.. genname`` and whether its word was canonical.

    ``dim`` is the dimension of the simplex the expression denotes; the
    base generator dimension follows from the operator count.  ``lookup``
    maps (dim, name) to a GenId or None.  Raises on a bad expression and
    warns of nothing.
    """
    ops, name = _split_expression(text, line)
    base_dim = dim - len(ops)
    if base_dim < 0:
        raise SemanticError(
            f"expression {text!r} has too many operators for dimension {dim}"
        )
    gen = lookup(base_dim, name)
    if gen is None:
        raise SemanticError(
            f"expression {text!r} references unknown generator "
            f"{name!r} in dimension {base_dim}"
        )
    try:
        simplex = apply_word(Simplex((), gen), ops)
    except ValueError as exc:
        raise SemanticError(f"expression {text!r} is invalid: {exc}") from exc
    return simplex, tuple(ops) == simplex.word


def parse_face_expression(
    text: str, dim: int, lookup, line: int | None = None
) -> Simplex:
    """Resolve ``s.. s.. genname`` against generators, normalizing the word.

    ``dim`` is the dimension of the simplex the expression denotes; the
    base generator dimension follows from the operator count.  ``lookup``
    maps (dim, name) to a GenId or None.  A non-canonical word warns.
    """
    simplex, canonical = _parse(text, dim, lookup, line)
    if not canonical:
        warnings.warn(
            f"degeneracy word in {text!r} normalized to "
            f"{format_simplex(simplex)!r}",
            NormalizationWarning,
            stacklevel=2,
        )
    return simplex


def loads_presentation(text: str, name: str | None = None) -> Presentation:
    return _read_presentation((text,), name)


def _read_presentation(chunks, doc_name: str | None) -> Presentation:
    """Parse a document from chunks, resolving each faces line as it is read.

    Each name and each entry is checked once, where it is read: a faces
    line names a declared generator or has its name checked, and the
    generators and simplices built from checked parts skip the
    constructors' checks.  ``top_dim`` and ``style`` may each be given
    once; of several ``name`` lines the last wins.

    One resolver reads a faces line in both passes.  Pass one resolves a
    line if its generator is already known and unambiguous, no earlier
    faces line named it, its entry count is right and every entry resolves
    silently, with a canonical word and no error.  From the first line
    that does not, pass one holds every faces line, and pass two hands the
    held lines to the resolver in order, which now raises or warns as a
    two-pass reader would.  So every resolved row comes before every held
    line.  Of what a resolved row was checked against, only its name's
    carrier can change later, when a generators line follows; pass two
    then raises on the first resolved row whose name became ambiguous
    before it reads any held line.
    """
    style = None
    top_dim = None
    # gens maps each dimension, in the order of first appearance, to its
    # generators by name; carrier maps a name to its generator of dimension
    # >= 1, None if there are several
    gens: dict[int, dict[str, GenId]] = {}
    carrier: dict[str, GenId | None] = {}
    duplicates: dict[int, str] = {}  # per dimension, its first name read twice
    faces: dict[GenId, tuple[Simplex, ...]] = {}
    # (line number, name, entries) of each faces line from the first that
    # does not resolve silently
    held: list[tuple[int, str, list[str]]] = []
    generators_after_faces = False

    def lookup(dim, n):
        return gens.get(dim, {}).get(n)

    # One text -> Simplex memo per dimension, seeded on first use with the
    # bare names of its generators (names hold no whitespace), then given
    # every text that resolves silently, so a normalized word warns again on
    # every line it appears on, and an error is raised by its first use.
    memos: dict[int, dict[str, Simplex]] = {}

    def memo_of(dim):
        memo = memos.get(dim)
        if memo is None:
            memo = memos[dim] = {n: _new(Simplex, ((), g)) for n, g in gens.get(dim, {}).items()}
        return memo

    def entry(text, dim, memo, lineno):
        """The simplex of a text ``memo`` lacks, memoized if it resolves silently.

        Otherwise pass one gets None, and pass two the error or warning.
        """
        try:
            simplex, canonical = _parse(text, dim, lookup, None)
        except SsetError:
            canonical = False
        if canonical:
            memo[text] = simplex
            return simplex
        if lineno is None:
            return None
        return parse_face_expression(text, dim, lookup, lineno)

    def resolve(gen_name, entries, lineno=None):
        """Write the row of a faces line into ``faces`` and return True.

        A line that does not resolve silently returns False in pass one (no
        ``lineno``), which holds it, and raises or warns in pass two.
        """
        g = carrier.get(gen_name)
        if g is None:
            error = (
                f"ambiguous generator name {gen_name!r}; duplicate across dimensions"
                if gen_name in carrier
                else f"faces given for unknown or zero-dimensional generator {gen_name!r}"
            )
        elif g in faces:
            error = f"duplicate face entries for {gen_name!r}"
        elif len(entries) != g.dim + 1:
            error = f"generator {gen_name!r} needs {g.dim + 1} faces, got {len(entries)}"
        else:
            d = g.dim - 1
            memo = memos.get(d) or memo_of(d)
            row = tuple(map(memo.get, entries))
            if None in row:
                row = tuple([memo.get(e) or entry(e, d, memo, lineno) for e in entries])
                if None in row:
                    return False
            faces[g] = row
            return True
        if lineno is None:
            return False
        raise SemanticError(error)

    heads = ("faces", "name", "style", "top_dim", "generators")
    for lineno, head, rest in _directives(chunks, heads):
        if head == "faces":  # the most common line first
            gen_name, sep, exprs = rest.partition(":")
            if not sep:
                raise ParseError("faces line needs a ':'", lineno)
            gen_name = gen_name.strip()
            if gen_name not in carrier:  # declared names were checked
                _check_name(gen_name, lineno)
            entries = list(map(str.strip, exprs.split(";")))
            if "" in entries:
                raise ParseError("empty face expression", lineno)
            if held or not resolve(gen_name, entries):
                held.append((lineno, gen_name, entries))
        elif head == "name":
            doc_name = rest or doc_name
        elif head == "style":
            if style is not None:
                raise ParseError("duplicate style line", lineno)
            if rest not in ("simplicial", "delta"):
                raise ParseError(f"unknown style {rest!r}", lineno)
            style = rest
        elif head == "top_dim":
            if top_dim is not None:
                raise ParseError("duplicate top_dim line", lineno)
            try:
                top_dim = int(rest)
            except ValueError:
                raise ParseError(f"bad top_dim {rest!r}", lineno) from None
        else:  # generators
            dim_text, names = _key_value(head, rest, lineno)
            try:
                dim = int(dim_text)
            except ValueError:
                raise ParseError(f"bad dimension {dim_text!r}", lineno) from None
            if dim < 0:
                raise ParseError("dimension must be >= 0", lineno)
            generators_after_faces |= bool(faces)
            names = names.split()
            if not all(map(_NAME_RE.match, names)):
                for n in names:  # raises on the first bad name
                    _check_name(n, lineno)
            named = gens.setdefault(dim, {})
            for n in names:
                if n in named:
                    duplicates.setdefault(dim, n)
                    continue
                named[n] = g = _new(GenId, (dim, n))
                if dim >= 1:
                    carrier[n] = None if n in carrier else g
    if top_dim is None:
        raise ParseError("document is missing a top_dim line")
    for dim in gens:  # the first repeat of the first dimension that has one
        if dim in duplicates:
            raise SemanticError(
                f"duplicate generator {duplicates[dim]!r} in dimension {dim}"
            )
    if generators_after_faces:  # a resolved row whose name became ambiguous
        for g in faces:
            if carrier[g.name] is None:
                raise SemanticError(
                    f"ambiguous generator name {g.name!r}; duplicate across dimensions"
                )
    held.reverse()  # popped in line order, so each is freed once read
    while held:
        lineno, gen_name, entries = held.pop()
        resolve(gen_name, entries, lineno)
    # each row is keyed on a distinct generator of dimension >= 1, so a
    # generator lacks one only if there are fewer rows than such generators
    if len(faces) < sum(len(named) for dim, named in gens.items() if dim):
        for named in gens.values():
            for g in named.values():
                if g.dim and g not in faces:
                    raise SemanticError(f"generator {g.name!r} has no face entries")
    return Presentation._from_checked(
        {dim: named.values() for dim, named in gens.items()},
        faces,
        top_dim,
        delta_style=(style == "delta"),
        name=doc_name,
    )


def _check_writable(names: list[str]) -> None:
    """Refuse the first of ``names`` that the file grammar cannot hold."""
    if not all(map(_NAME_RE.match, names)):
        bad = next(n for n in names if not _NAME_RE.match(n))
        raise SemanticError(f"generator name {bad!r} cannot be written in the file grammar")


def _document_lines(p: Presentation):
    """Check that p can be written, then return a generator of its lines."""
    # a faces line gives its generator by name alone, so the loader refuses a name
    # shared by two dimensions >= 1; a sorted list finds one in less memory than a set
    carried: list[str] = []
    for d in range(p.max_generator_dim + 1):
        names = [g.name for g in p.generators_at(d)]
        _check_writable(names)
        carried += names if d else ()
    carried.sort()
    if not all(map(ne, carried, carried[1:])):
        bad = next(a for a, b in zip(carried, carried[1:]) if a == b)
        raise SemanticError(f"ambiguous generator name {bad!r}; duplicate across dimensions")
    name = p.name  # it must read back: no '#', no line break, no outer whitespace
    if name and ("#" in name or name != name.strip() or len(name.splitlines()) > 1):
        raise SemanticError(
            f"document name {name!r} cannot be written in the file grammar"
        )
    texts: dict[Simplex, str] = {}  # degenerate faces only: a generator's text is its name

    def text(f):
        if not f.word:
            return f.gen.name
        t = texts.get(f)
        if t is None:
            t = texts[f] = format_simplex(f)
        return t

    def lines():
        if name:
            yield f"name {name}\n"
        yield f"style {'delta' if p.delta_style else 'simplicial'}\n"
        yield f"top_dim {p.top_dim}\n"
        for d in range(p.max_generator_dim + 1):
            gens = p.generators_at(d)
            if gens:
                yield f"generators {d} : {' '.join(g.name for g in gens)}\n"
        for g in p.all_generators():
            if g.dim >= 1:
                yield f"faces {g.name} : {' ; '.join(map(text, p.faces_of(g)))}\n"

    return lines()


def dumps_presentation(p: Presentation) -> str:
    """The canonical document for p; each distinct face is formatted once."""
    return "".join(_document_lines(p))


def load_presentation(path) -> Presentation:
    path = Path(path)
    with path.open() as f:
        return _read_presentation(f, path.stem)


def save_presentation(p: Presentation, path) -> None:
    lines = _document_lines(p)
    with Path(path).open("w") as f:
        f.writelines(lines)


def parse_simplex(p: Presentation, text: str, dim: int) -> Simplex:
    """Parse a face expression against a presentation at a known dimension."""
    return parse_face_expression(text, dim, _generator_lookup(p))


def loads_map(
    text: str,
    source: Presentation,
    target: Presentation,
    name: str | None = None,
) -> morphism.SimplicialMap:
    doc_name = name
    assignment: dict[GenId, Simplex] = {}
    by_name: dict[str, list[GenId]] = {}
    for g in source.all_generators():
        by_name.setdefault(g.name, []).append(g)
    lookup = _generator_lookup(target)
    for lineno, head, rest in _directives((text,), _MAP_HEADS):
        if head == "name":
            doc_name = rest or doc_name
        elif head == "assign":  # source and target lines are read by load_map
            gen_name, expr = _key_value(head, rest, lineno)
            candidates = by_name.get(gen_name, [])
            if not candidates:
                raise SemanticError(f"assignment for unknown generator {gen_name!r}")
            if len(candidates) > 1:
                raise SemanticError(f"ambiguous source generator name {gen_name!r}")
            g = candidates[0]
            if g in assignment:
                raise SemanticError(f"duplicate assignment for {gen_name!r}")
            assignment[g] = parse_face_expression(expr.strip(), g.dim, lookup, lineno)
    return morphism.SimplicialMap(source, target, assignment, name=doc_name)


def _referenced_files(text: str) -> dict[str, str]:
    refs = {}
    for lineno, head, rest in _directives((text,), _MAP_HEADS):
        if head == "assign":  # syntax only: generators are checked once files load
            _split_expression(_key_value(head, rest, lineno)[1], lineno)
        elif head in ("source", "target"):
            if not rest:
                raise ParseError(f"{head} line needs a file path", lineno)
            if "\0" in rest:
                raise ParseError(f"{head} path holds a NUL byte", lineno)
            refs[head] = rest
    return refs


def load_map(
    path,
    source: Presentation | None = None,
    target: Presentation | None = None,
) -> morphism.SimplicialMap:
    """Load a map document, resolving source/target files relative to it."""
    path = Path(path)
    text = path.read_text()
    refs = _referenced_files(text)
    if source is None:
        if "source" not in refs:
            raise SemanticError("map document has no source line")
        source = load_presentation(path.parent / refs["source"])
    if target is None:
        if "target" not in refs:
            raise SemanticError("map document has no target line")
        target = load_presentation(path.parent / refs["target"])
    return loads_map(text, source, target, name=path.stem)


def loads_group_table(text: str) -> groups.GroupTable:
    elements: tuple[str, ...] | None = None
    rows: dict[str, list[str]] = {}
    for lineno, head, rest in _directives((text,), ("elements", "table")):
        if head == "elements":
            if elements is not None:
                raise ParseError("duplicate elements line", lineno)
            elements = tuple(rest.split())
            if not elements:
                raise ParseError("elements line is empty", lineno)
        else:
            name, values = _key_value(head, rest, lineno)
            if name in rows:
                raise ParseError(f"duplicate table row for {name!r}", lineno)
            rows[name] = values.split()
    if elements is None:
        raise ParseError("document is missing an elements line")
    try:
        ordered = [rows[e] for e in elements]
    except KeyError as exc:
        raise SemanticError(f"missing table row for element {exc.args[0]!r}") from None
    if len(rows) != len(elements):
        raise SemanticError("table rows do not match the element list")
    for e, row in zip(elements, ordered):
        if len(row) != len(elements):
            raise SemanticError(f"table row for {e!r} has the wrong length")
        for v in row:
            if v not in elements:
                raise SemanticError(f"unknown element {v!r} in table row for {e!r}")
    try:
        return groups.GroupTable.from_rows(elements, ordered)
    except ValueError as exc:
        raise SemanticError(f"invalid group table: {exc}") from exc


def load_group_table(path) -> groups.GroupTable:
    return loads_group_table(Path(path).read_text())
