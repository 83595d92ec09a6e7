"""Finite group multiplication tables, used to build classifying-space nerves."""

from __future__ import annotations

from itertools import permutations

from .core import Record


class GroupTable(Record):
    """A finite group given by its multiplication table.

    ``table[i][j]`` is the index of ``elements[i] * elements[j]``.  The
    group laws (closure, identity, inverses, associativity) are checked
    at construction time.
    """

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int

    def __post_init__(self):
        n = len(self.elements)
        if n < 1:
            raise ValueError("a group has at least one element")
        for e in self.elements:
            if not isinstance(e, str):
                raise ValueError(f"element name {e!r} is not a string")
        if len(set(self.elements)) != n:
            raise ValueError("duplicate element names")
        for e in self.elements:
            if not e or any(c.isspace() for c in e) or set(e) & set(",;:#"):
                raise ValueError(f"element name {e!r} contains reserved characters")
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("multiplication table has the wrong shape")
        rows = [list(r) for r in self.table]
        ids = list(range(n))
        entries = [v for r in rows for v in r]
        # 1.0 equals the index 1, so the set test alone would let it through
        if not all(isinstance(v, int) for v in entries) or not set(entries) <= set(ids):
            raise ValueError("table entry out of range")
        e = self.identity
        if not isinstance(e, int) or not 0 <= e < n:
            raise ValueError("identity index out of range")
        if rows[e] != ids or [r[e] for r in rows] != ids:
            raise ValueError(f"{self.elements[e]} is not an identity")
        for r, name in zip(rows, self.elements):
            if e not in r:
                raise ValueError(f"{name} has no inverse")
        # (i j) k = i (j k): the row of i j is row i read at the entries of row j
        for row in rows:
            for j in ids:
                if rows[row[j]] != [row[k] for k in rows[j]]:
                    raise ValueError("multiplication is not associative")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity_name(self) -> str:
        return self.elements[self.identity]

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise ValueError(f"unknown group element {name!r}") from None

    def mul(self, a: str, b: str) -> str:
        return self.elements[self.table[self.index(a)][self.index(b)]]

    def inverse(self, a: str) -> str:
        return self.elements[self.table[self.index(a)].index(self.identity)]

    def is_abelian(self) -> bool:
        rows = tuple(map(tuple, self.table))
        return tuple(zip(*rows)) == rows

    @classmethod
    def from_rows(cls, elements, rows):
        """Build from rows of element names; identity found automatically."""
        elements = tuple(elements)
        idx = {e: i for i, e in enumerate(elements)}
        try:
            table = tuple(tuple(idx[v] for v in row) for row in rows)
        except KeyError as exc:
            raise ValueError(f"unknown group element {exc.args[0]!r}") from None
        n = len(elements)
        if len(table) != n or any(len(r) != n for r in table):
            raise ValueError("multiplication table has the wrong shape")
        ids = tuple(range(n))
        columns = tuple(zip(*table))
        candidates = [e for e in ids if table[e] == ids and columns[e] == ids]
        if len(candidates) != 1:
            raise ValueError("table has no unique identity element")
        return cls(elements, table, candidates[0])


def cyclic(n: int) -> GroupTable:
    """The cyclic group of order n, elements e, g, g2, ..."""
    if n < 1:
        raise ValueError("order must be >= 1")
    names = ["e"] + ["g" if k == 1 else f"g{k}" for k in range(1, n)]
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return GroupTable(tuple(names), table, 0)


def klein_four() -> GroupTable:
    """The Klein four-group; multiplication is bitwise xor on indices."""
    names = ("e", "a", "b", "c")
    table = tuple(tuple(i ^ j for j in range(4)) for i in range(4))
    return GroupTable(names, table, 0)


def symmetric_3() -> GroupTable:
    """The symmetric group on three letters, the smallest nonabelian group.

    Transpositions are ``t..``: the file grammar reads ``s..`` as a degeneracy.
    """
    perms = sorted(permutations(range(3)))
    name_of = {
        (0, 1, 2): "e",
        (1, 2, 0): "r",
        (2, 0, 1): "r2",
        (1, 0, 2): "t01",
        (0, 2, 1): "t12",
        (2, 1, 0): "t02",
    }
    names = tuple(name_of[p] for p in perms)
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    table = tuple(tuple(index[compose(p, q)] for q in perms) for p in perms)
    return GroupTable(names, table, index[(0, 1, 2)])


def all_group_tables(max_order: int) -> list[tuple[str, GroupTable]]:
    """Every group of order <= max_order (up to isomorphism, max_order <= 6)."""
    if max_order > 6:
        raise ValueError("group library only covers orders up to 6")
    out: list[tuple[str, GroupTable]] = []
    for n in range(1, max_order + 1):
        out.append((f"Z/{n}", cyclic(n)))
        if n == 4:
            out.append(("V4", klein_four()))
        if n == 6:
            out.append(("S3", symmetric_3()))
    return out
