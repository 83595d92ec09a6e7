"""Shared test utilities: independent oracles and random presentations.

The vertex-sequence oracle models simplices of a standard simplex as
monotone integer sequences, with faces deleting a position and
degeneracies duplicating one.  It shares no code with the rewriting
engine, so agreement between the two is a real check.
"""

from __future__ import annotations

import random
import re
from itertools import combinations, product as iproduct
from math import gcd

from ssets import (
    ChainComplex,
    GenId,
    GroupTable,
    HomologyGroup,
    Presentation,
    SNFResult,
    Simplex,
    compact_simplex,
    degenerate,
)
from ssets.constructions import BASEPOINT_NAME
from ssets.core import DDViolation, format_simplex
from ssets.io import ParseError, SemanticError, parse_face_expression
from ssets.homology import sparse_smith_normal_form


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


# -- scan and pair-by-pair oracles for the homotopy relation ------------------


def scan_witness(p: Presentation, x: Simplex, xp: Simplex, r: int, a_sub=None):
    """The least one-step witness from x to xp at shift r, by a linear scan.

    The reference for the witness searches: x and xp must share faces
    0..n (1..n when ``a_sub`` is given), and a witness has the faces of
    s_r x with xp on face r+1.  With ``a_sub``, face 0 is free instead,
    and must lie in ``a_sub`` and have the faces of a witness from d_0 x
    to d_0 xp at shift n-1.  Candidates come from ``scan_matching``.
    """
    n = x.dim
    lo = 0 if a_sub is None else 1

    def faces(z):
        return [p.face(z, i) for i in range(z.dim + 1)] if z.dim else []

    def pattern(u, up, s):
        out = faces(degenerate(u, s))
        out[s + 1] = up
        return out

    if faces(x)[lo:] != faces(xp)[lo:]:
        return None
    want = pattern(x, xp, r)
    if a_sub is not None:
        want[0] = None
    for w in scan_matching(p, n + 1, want):
        y = p.face(w, 0)
        if a_sub is None or (
            a_sub.contains(y) and faces(y) == pattern(p.face(x, 0), p.face(xp, 0), n - 1)
        ):
            return w
    return None




def pairwise_partition(reps, witness) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Closure of a one-step witness relation, tried on every ordered pair.

    The reference for the homotopy partition, which asks one query per
    representative instead: ``witness(a, b)`` is called for every pair of
    positions i != j, repeated representatives included.  Returns the
    partition (blocks of indices, ordered by least member) and whether
    closure added any pair the raw relation missed.
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


def with_generator(p: Presentation, g: GenId, faces) -> Presentation:
    """Copy of a presentation with one more generator g and its face tuple."""
    table = {h: p.faces_of(h) for h in p.all_generators() if h.dim}
    table[g] = tuple(faces)
    return Presentation(list(p.all_generators()) + [g], table, p.top_dim, name=p.name)


# -- pair-by-pair oracles for the product path ---------------------------------


def scan_product(x: Presentation, y: Presentation):
    """Face table and pair encoding of x times y, pair by pair.

    The reference for ``product``: every (a, b) pair of n-simplices is
    tested for a shared degeneracy index, and every face pair is rewritten
    into canonical pair form afresh, with no masks and no memos.  Returns
    ``(faces, pair_of)``; ``pair_of`` lists the generators in emission order.
    """
    pair_of: dict[GenId, tuple[Simplex, Simplex]] = {}
    gen_of_pair = {}
    for n in range(x.max_generator_dim + y.max_generator_dim + 1):
        ys = y.simplices(n)
        for a in x.simplices(n):
            for b in ys:
                if set(a.word) & set(b.word):
                    continue
                g = GenId(n, f"({compact_simplex(a)}|{compact_simplex(b)})")
                pair_of[g] = (a, b)
                gen_of_pair[(a, b)] = g

    def canonical(a, b):
        word = []
        while set(a.word) & set(b.word):
            j = max(set(a.word) & set(b.word))
            word.append(j)
            a, b = x.face(a, j), y.face(b, j)
        return Simplex(tuple(word), gen_of_pair[(a, b)])

    faces = {
        g: tuple(canonical(x.face(a, i), y.face(b, i)) for i in range(g.dim + 1))
        for g, (a, b) in pair_of.items()
        if g.dim
    }
    return faces, pair_of


def check_pairing(prod, pair_of) -> None:
    """``pair_of``, ``to_pair`` and ``from_pair`` of prod on every cell and its pair.

    ``pair_of`` is the scan's: each cell's pair, in emission order.
    """
    for g, ab in pair_of.items():
        assert prod.pair_of(g) == ab
        assert prod.to_pair(Simplex((), g)) == ab
        assert prod.from_pair(*ab) == Simplex((), g)


def scan_violations(p: Presentation) -> tuple[DDViolation, ...]:
    """The d-d identity failures of p, with four ``face`` calls per identity.

    The reference for the violations of ``Presentation.validate`` on a
    presentation without dangling references.
    """
    out = []
    for g in p.all_generators():
        if g.dim < 2:
            continue
        x = Simplex((), g)
        for j in range(1, g.dim + 1):
            for i in range(j):
                lhs = p.face(p.face(x, j), i)
                rhs = p.face(p.face(x, i), j - 1)
                if lhs != rhs:
                    out.append(DDViolation(g, i, j, lhs, rhs))
    return tuple(out)


# -- two-pass reference for the presentation loader -----------------------------

# an empty entry of a faces line, searched for in f";{exprs};"
EMPTY_ENTRY_RE = re.compile(r";\s*;")


def check_name(name: str, line: int) -> str:
    """A generator name: one run of non-space characters without ';', ':' or '#'.

    The reference for ``ssets.io._check_name``, written without its
    regular expression; ``s`` followed by decimal digits is an operator.
    """
    if name.split() != [name] or not set(name).isdisjoint(";:#"):
        raise ParseError(f"invalid name {name!r}", line)
    if name[0] == "s" and name[1:].isdecimal():
        raise ParseError(f"name {name!r} collides with degeneracy-operator syntax", line)
    return name


def directives(chunks, heads):
    """``(line number, head, rest)`` of each line that holds more than a comment.

    The reference for ``ssets.io._directives``: lines as str.splitlines
    cuts each chunk, everything from the first '#' on dropped, and the
    head the text before the first space.
    """
    lineno = 0
    for chunk in chunks:
        for raw in chunk.splitlines():
            lineno += 1
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, rest = (line.split(" ", 1) + [""])[:2]
            if head not in heads:
                raise ParseError(f"unknown directive {head!r}", lineno)
            yield lineno, head, rest.strip()


def key_value(head: str, rest: str, line: int) -> tuple[str, str]:
    """``key : value`` split at the first ':', the key stripped, the value not.

    The reference for ``ssets.io._key_value``.
    """
    if ":" not in rest:
        raise ParseError(f"{head} line needs a ':'", line)
    key, value = rest.split(":", 1)
    return key.strip(), value


def two_pass_read_presentation(chunks, doc_name: str | None) -> Presentation:
    """The reference loader: every faces line stays raw text until pass two.

    ``ssets.io._read_presentation`` resolves most faces lines as it reads
    them; its outcomes, warnings and errors included, must be this one's.
    Lines, names and ``key : value`` splits are read by the functions
    above, so none of the loader's own pieces is checked against itself.
    """
    style = None
    top_dim = None
    gens_by_dim: dict[int, list[str]] = {}
    face_lines: list[tuple[int, str, str]] = []
    heads = ("faces", "name", "style", "top_dim", "generators")
    for lineno, head, rest in directives(chunks, heads):
        if head == "faces":  # the most common line first
            gen_name, exprs = key_value(head, rest, lineno)
            check_name(gen_name, lineno)
            if EMPTY_ENTRY_RE.search(f";{exprs};"):
                raise ParseError("empty face expression", lineno)
            face_lines.append((lineno, gen_name, exprs))
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
            dim_text, names = key_value(head, rest, lineno)
            try:
                dim = int(dim_text)
            except ValueError:
                raise ParseError(f"bad dimension {dim_text!r}", lineno) from None
            if dim < 0:
                raise ParseError("dimension must be >= 0", lineno)
            bucket = gens_by_dim.setdefault(dim, [])
            for n in names.split():
                check_name(n, lineno)
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
    by_dim = {dim: [by_key[(dim, n)] for n in names] for dim, names in gens_by_dim.items()}
    return Presentation._from_checked(
        by_dim, faces, top_dim, delta_style=(style == "delta"), name=doc_name
    )


# -- face-by-face oracle for the nerve -----------------------------------------


def facewise_nerve(group: GroupTable, top_dim: int) -> Presentation:
    """Truncated nerve of a group, every face entry built afresh.

    The reference for ``nerve``: each face tuple is multiplied with
    ``GroupTable.mul`` on element names, turned into a new generator and a
    new simplex, and the whole table goes through the public constructor.
    """
    if top_dim < 1:
        raise ValueError("nerve truncation must be >= 1")
    e = group.identity_name
    others = [x for x in group.elements if x != e]
    base = GenId(0, BASEPOINT_NAME)

    def tuple_gen(t) -> GenId:
        return base if not t else GenId(len(t), ",".join(t))

    def tuple_simplex(t) -> Simplex:
        # strip identity coordinates from the right; each strip is one s_p
        word = []
        u = list(t)
        while e in u:
            p = max(i for i, x in enumerate(u) if x == e)
            word.append(p)
            del u[p]
        return Simplex(tuple(word), tuple_gen(tuple(u)))

    gens = [base]
    faces = {}
    for m in range(1, top_dim + 1):
        for t in iproduct(others, repeat=m):
            g = tuple_gen(t)
            gens.append(g)
            entries = []
            for i in range(m + 1):
                if i == 0:
                    ft = t[1:]
                elif i == m:
                    ft = t[:-1]
                else:
                    ft = t[: i - 1] + (group.mul(t[i - 1], t[i]),) + t[i + 1 :]
                entries.append(tuple_simplex(ft))
            faces[g] = tuple(entries)
    return Presentation(gens, faces, top_dim, name=f"nerve_{group.order}")


def seeded_group(group: GroupTable, seed) -> GroupTable:
    """The same group under seeded element names and a seeded row order."""
    rng = random.Random(seed)
    n = group.order
    old_of = rng.sample(range(n), n)  # old_of[k] is the old index of element k
    pool = [a + b for a in "abcdefghijklmnopqrstuvwxyz" for b in "aeiouxyz"]
    names = rng.sample(pool, n)
    name_of_old = {old: names[k] for k, old in enumerate(old_of)}
    rows = [
        [name_of_old[group.table[old_of[k]][old_of[j]]] for j in range(n)]
        for k in range(n)
    ]
    return GroupTable.from_rows(names, rows)


def rebuilt(p: Presentation) -> Presentation:
    """p's stored generators and face table through the public constructor.

    The builders that skip the constructor's checks (the loader,
    ``product`` and ``nerve``) must store exactly what that constructor
    accepts and would build.
    """
    gens = list(p.all_generators())
    return Presentation(
        gens,
        {g: p.faces_of(g) for g in gens if g.dim},
        p.top_dim,
        delta_style=p.delta_style,
        name=p.name,
    )


# -- ordered complexes, random and fixed ----------------------------------------


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
    facets = [(v,) for v in verts] + sorted(edges) + sorted(triangles) + sorted(tetrahedra)
    return ordered_complex(facets, max(len(s) for s in facets) + 1, "random")


def ordered_complex(facets, top_dim: int, name: str) -> Presentation:
    """The simplicial complex the facets span, its vertices ordered as integers.

    Each simplex is a generator named by its sorted vertices joined with
    '.', and d_i deletes the i-th vertex: the paper's simplicial set of
    an ordered simplicial complex.
    """
    simplices = {
        tuple(sorted(c)) for f in facets for m in range(1, len(f) + 1) for c in combinations(f, m)
    }
    label = lambda s: ".".join(str(v) for v in s)
    gens = [GenId(len(s) - 1, label(s)) for s in simplices]
    faces = {
        GenId(len(s) - 1, label(s)): tuple(
            Simplex((), GenId(len(s) - 2, label(s[:i] + s[i + 1 :]))) for i in range(len(s))
        )
        for s in simplices
        if len(s) > 1
    }
    return Presentation(gens, faces, top_dim, name=name)


def torus7() -> Presentation:
    """The 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7.

    Exact and not Kan; H = Z, Z^2, Z and pi_1 = Z^2.
    """
    shifts = ((0, 1, 3), (0, 2, 3))
    return ordered_complex(
        [[(i + k) % 7 for k in s] for i in range(7) for s in shifts], 4, "torus7"
    )


def rp2_6() -> Presentation:
    """The 6-vertex RP^2: the icosahedron's 20 triangles modulo the antipodal map.

    Exact and not Kan; H = Z, Z/2, 0, pi_1 = Z/2 and pi_2 = Z.
    """
    triangles = (
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
    )
    return ordered_complex(triangles, 4, "rp2_6")


def disk2() -> Presentation:
    """Two triangles T1 = (q, a, p) and T2 = (q, b, p) on the vertices u, m, v.

    The edges p: u -> m and q: m -> v are shared, and a and b both run from
    u to v, so the union is a disk with boundary a b^-1: contractible, and
    a and b are homotopic rel their ends.  Not Kan, and not a simplicial
    complex, as two triangles share all three vertices.
    """
    u, m, v = (GenId(0, n) for n in "umv")
    p, q, a, b = (GenId(1, n) for n in "pqab")
    t1, t2 = GenId(2, "T1"), GenId(2, "T2")
    row = lambda *gens: tuple(Simplex((), g) for g in gens)
    faces = {
        p: row(m, u), q: row(v, m), a: row(v, u), b: row(v, u),
        t1: row(q, a, p), t2: row(q, b, p),
    }
    return Presentation([u, m, v, *faces], faces, 4, name="disk2")


def random_subcomplex(rng: random.Random, p: Presentation) -> Presentation:
    """p less a random set of generators and every generator with a face on one.

    The vertex "0" always stays, so the result is never empty.
    """
    gone: set[GenId] = set()
    for g in sorted(p.all_generators(), key=lambda g: g.dim):
        faces = p.faces_of(g) if g.dim else ()
        if g != GenId(0, "0") and (rng.random() < 0.2 or any(f.gen in gone for f in faces)):
            gone.add(g)
    kept = [g for g in p.all_generators() if g not in gone]
    faces = {g: p.faces_of(g) for g in kept if g.dim}
    return Presentation(kept, faces, p.top_dim, delta_style=p.delta_style, name="sub")


def with_faces(p: Presentation, changes) -> Presentation:
    """Copy of a presentation with the face entries ``{(g, i): simplex}`` replaced."""
    faces = {}
    for h in p.all_generators():
        if h.dim:
            faces[h] = tuple(
                changes.get((h, i), f) for i, f in enumerate(p.faces_of(h))
            )
    return Presentation(
        p.all_generators(), faces, p.top_dim, delta_style=p.delta_style, name=p.name
    )


def swap_faces(p: Presentation, g: GenId, i: int, j: int) -> Presentation:
    """Copy of a presentation with two face entries of one generator swapped."""
    fs = p.faces_of(g)
    return with_faces(p, {(g, i): fs[j], (g, j): fs[i]})


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


# -- dense views of a chain complex -------------------------------------------


def dense_boundary(c: ChainComplex, n: int) -> tuple[tuple[int, ...], ...]:
    """The boundary out of dimension n as a dense matrix.

    It has shape (len(bases[n-1]), len(bases[n])); for n = 0 it is empty.
    """
    if n == 0:
        return ()
    m = [[0] * len(c.bases[n]) for _ in c.bases[n - 1]]
    for j, col in enumerate(c.boundaries[n]):
        for r, v in col.items():
            m[r][j] = v
    return tuple(map(tuple, m))


def boundary_squares_to_zero(c: ChainComplex) -> bool:
    """Whether every composite of two consecutive sparse boundaries is zero."""
    for n in range(2, c.max_dim + 1):
        lower = c.boundaries[n - 1]
        for col in c.boundaries[n]:
            image: dict[int, int] = {}
            for k, v in col.items():
                for r, w in lower[k].items():
                    image[r] = image.get(r, 0) + v * w
            if any(image.values()):
                return False
    return True


def homology_from_snfs(c: ChainComplex, snf_of) -> tuple[HomologyGroup, ...]:
    """Homology in degrees 0..max_dim-1, ``snf_of(n)`` giving the SNF of ∂n."""
    snfs = [SNFResult((), 0)] + [snf_of(n) for n in range(1, c.max_dim + 1)]
    return tuple(
        HomologyGroup(
            c.rank_of_chains(n) - snfs[n].rank - snfs[n + 1].rank,
            tuple(f for f in snfs[n + 1].factors if f > 1),
        )
        for n in range(c.max_dim)
    )


def uncompressed_homology(c: ChainComplex) -> tuple[HomologyGroup, ...]:
    """Homology with each boundary swept whole by ``sparse_smith_normal_form``.

    The oracle for ``homology_of_complex``, which leaves out of each sweep
    the rows the sweep one degree below pivoted on.
    """
    return homology_from_snfs(c, lambda n: sparse_smith_normal_form(c.boundaries[n]))


def class_group(pi) -> GroupTable:
    """The class table of a ``PiGroup`` as a ``GroupTable`` on names "0", "1", ..."""
    return GroupTable(tuple(map(str, range(pi.order))), pi.table, pi.identity)


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
