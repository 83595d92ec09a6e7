"""Finite group multiplication tables, used to build classifying-space nerves."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations


@dataclass(frozen=True)
class GroupTable:
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
        if len(set(self.elements)) != n:
            raise ValueError("duplicate element names")
        for e in self.elements:
            if not e or any(c.isspace() for c in e) or set(e) & set(",;:#"):
                raise ValueError(f"element name {e!r} contains reserved characters")
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("multiplication table has the wrong shape")
        for r in self.table:
            for v in r:
                if not 0 <= v < n:
                    raise ValueError("table entry out of range")
        e = self.identity
        if not 0 <= e < n:
            raise ValueError("identity index out of range")
        for i in range(n):
            if self.table[e][i] != i or self.table[i][e] != i:
                raise ValueError(f"{self.elements[e]} is not an identity")
        for i in range(n):
            if all(self.table[i][j] != e for j in range(n)):
                raise ValueError(f"{self.elements[i]} has no inverse")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
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
        i = self.index(a)
        for j in range(self.order):
            if self.table[i][j] == self.identity:
                return self.elements[j]
        raise AssertionError("unreachable: inverses checked at construction")

    def is_abelian(self) -> bool:
        n = self.order
        return all(
            self.table[i][j] == self.table[j][i] for i in range(n) for j in range(n)
        )

    @classmethod
    def from_rows(cls, elements, rows, identity=None):
        """Build from rows of element names; identity found automatically."""
        elements = tuple(elements)
        idx = {e: i for i, e in enumerate(elements)}
        table = tuple(tuple(idx[v] for v in row) for row in rows)
        if identity is None:
            n = len(elements)
            candidates = [
                e
                for e in range(n)
                if all(table[e][i] == i and table[i][e] == i for i in range(n))
            ]
            if len(candidates) != 1:
                raise ValueError("table has no unique identity element")
            identity = candidates[0]
        return cls(elements, table, idx[identity] if isinstance(identity, str) else identity)


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
