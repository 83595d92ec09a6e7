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
from pathlib import Path

from .core import (
    GenId,
    Presentation,
    Simplex,
    SsetError,
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
_NAME_RE = re.compile(r"[^\s;:#]+$")
_DEGEN_RE = re.compile(r"s(\d+)$")
# _NAME_RE and not _DEGEN_RE, in one match
_VALID_NAME_RE = re.compile(r"(?!s\d+$)[^\s;:#]+$")
# an empty entry of a faces line, searched for in f";{exprs};"
_EMPTY_ENTRY_RE = re.compile(r";\s*;")


def _check_name(name: str, line: int) -> str:
    if _VALID_NAME_RE.match(name):
        return name
    if not _NAME_RE.match(name):
        raise ParseError(f"invalid name {name!r}", line)
    raise ParseError(f"name {name!r} collides with degeneracy-operator syntax", line)


def _directives(chunks, heads):
    """``(line number, head, rest)`` of each line not blank once its comment is cut.

    Lines are split by str.splitlines; a head outside ``heads`` is refused.
    """
    lineno = 0
    for chunk in chunks:
        for raw in chunk.splitlines():
            lineno += 1
            line = raw.split("#", 1)[0].strip()
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


def parse_face_expression(
    text: str, dim: int, lookup, line: int | None = None
) -> Simplex:
    """Resolve ``s.. s.. genname`` against generators, normalizing the word.

    ``dim`` is the dimension of the simplex the expression denotes; the
    base generator dimension follows from the operator count.  ``lookup``
    maps (dim, name) to a GenId or None.
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
    if tuple(ops) != simplex.word:
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
    """Parse a document from chunks; faces lines stay raw text until pass two."""
    style = "simplicial"
    top_dim = None
    gens_by_dim: dict[int, list[str]] = {}
    face_lines: list[tuple[int, str, str]] = []
    heads = ("faces", "name", "style", "top_dim", "generators")
    for lineno, head, rest in _directives(chunks, heads):
        if head == "faces":  # the most common line first
            gen_name, exprs = _key_value(head, rest, lineno)
            _check_name(gen_name, lineno)
            if _EMPTY_ENTRY_RE.search(f";{exprs};"):
                raise ParseError("empty face expression", lineno)
            face_lines.append((lineno, gen_name, exprs))
        elif head == "name":
            doc_name = rest or doc_name
        elif head == "style":
            if rest not in ("simplicial", "delta"):
                raise ParseError(f"unknown style {rest!r}", lineno)
            style = rest
        elif head == "top_dim":
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
            bucket = gens_by_dim.setdefault(dim, [])
            for n in names.split():
                _check_name(n, lineno)
                bucket.append(n)
    if top_dim is None:
        raise ParseError("document is missing a top_dim line")
    # by_key maps each GenId to itself, so a (dim, name) tuple finds it; carrier
    # maps a name to its generator of dimension >= 1, None if there are several
    by_key: dict[GenId, GenId] = {}
    carrier: dict[str, GenId | None] = {}
    for dim, names in gens_by_dim.items():
        for n in names:
            g = GenId(dim, n)
            if g in by_key:
                raise SemanticError(f"duplicate generator {n!r} in dimension {dim}")
            by_key[g] = g
            if dim >= 1:
                carrier[n] = None if n in carrier else g

    def lookup(dim, n):
        return by_key.get((dim, n))

    # One text -> Simplex memo per dimension, seeded with the bare names of
    # its generators (names hold no whitespace).  Anything else is parsed,
    # and remembered only if canonical, so a normalized word warns again on
    # every line it appears on, and an error is raised by its first use.
    memos: dict[int, dict[str, Simplex]] = {}

    def resolve(text, dim, memo, lineno):
        simplex = memo.get(text)
        if simplex is None:
            simplex = parse_face_expression(text, dim, lookup, lineno)
            if format_simplex(simplex) == text:
                memo[text] = simplex
        return simplex

    faces: dict[GenId, tuple[Simplex, ...]] = {}
    face_lines.reverse()  # popped in line order, so each is freed once read
    while face_lines:
        lineno, gen_name, exprs = face_lines.pop()
        if gen_name not in carrier:
            raise SemanticError(
                f"faces given for unknown or zero-dimensional generator {gen_name!r}"
            )
        g = carrier[gen_name]
        if g is None:
            raise SemanticError(
                f"ambiguous generator name {gen_name!r}; duplicate across dimensions"
            )
        if g in faces:
            raise SemanticError(f"duplicate face entries for {gen_name!r}")
        entries = exprs.split(";")
        if len(entries) != g.dim + 1:
            raise SemanticError(
                f"generator {gen_name!r} needs {g.dim + 1} faces, got {len(entries)}"
            )
        d = g.dim - 1
        memo = memos.get(d)
        if memo is None:
            memo = memos[d] = {
                n: Simplex((), by_key[(d, n)]) for n in gens_by_dim.get(d, ())
            }
        faces[g] = row = tuple(map(memo.get, map(str.strip, entries)))
        if None in row:
            faces[g] = tuple(resolve(e.strip(), d, memo, lineno) for e in entries)
    for g in by_key:
        if g.dim >= 1 and g not in faces:
            raise SemanticError(f"generator {g.name!r} has no face entries")
    return Presentation._from_checked(
        by_key, faces, top_dim, delta_style=(style == "delta"), name=doc_name
    )


def _check_writable(names) -> None:
    """Refuse the first of the generator names that the file grammar cannot hold."""
    for n in names:
        if not _VALID_NAME_RE.match(n):
            raise SemanticError(
                f"generator name {n!r} cannot be written in the file grammar"
            )


def _document_lines(p: Presentation):
    """Check that p can be written, then return a generator of its lines."""
    _check_writable(g.name for g in p.all_generators())
    name = p.name  # it must read back: no '#', no line break, no outer whitespace
    if name and ("#" in name or name != name.strip() or len(name.splitlines()) > 1):
        raise SemanticError(
            f"document name {name!r} cannot be written in the file grammar"
        )
    texts: dict[Simplex, str] = {}

    def text(f):
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
