"""Horn compatibility, exhaustive horn filling, and Kan checks.

A horn is a compatible family of would-be faces with one slot missing.
Filling looks the horn up in the presentation's face-pattern index
(``Presentation.matching``), which covers the full simplex enumeration
of the filler dimension, so it is exact below the presentation's
trusted bound and refuses to answer above it: a missing filler there
could be a truncation artifact rather than a mathematical fact.
"""

from __future__ import annotations

from collections.abc import Mapping

from .core import Presentation, Record, Simplex, format_simplex


class HornSpec(Record):
    """Faces of an n-simplex, indexed 0..n, with exactly slot k missing."""

    n: int
    k: int
    faces: tuple[Simplex | None, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("horns need dimension >= 1")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"horn index {self.k} out of range")
        if len(self.faces) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} face slots")
        for i, f in enumerate(self.faces):
            if i == self.k:
                if f is not None:
                    raise ValueError(f"slot {i} must be empty in a {self.k}-horn")
            else:
                if f is None:
                    raise ValueError(f"missing face in slot {i}")
                if f.dim != self.n - 1:
                    raise ValueError(
                        f"face in slot {i} has dimension {f.dim}, expected {self.n - 1}"
                    )

    @classmethod
    def from_faces(cls, n: int, k: int, faces: Mapping[int, Simplex]) -> "HornSpec":
        slots = [faces.get(i) if i != k else None for i in range(n + 1)]
        return cls(n, k, tuple(slots))

    def describe(self) -> str:
        entries = ", ".join(
            f"d_{i}={format_simplex(f)}" for i, f in enumerate(self.faces) if f is not None
        )
        return f"horn({self.n},{self.k})[{entries}]"


class KanReport(Record):
    """Outcome of an exhaustive horn search up to a dimension bound."""

    max_dim: int
    witnesses: tuple[HornSpec, ...]
    horns_checked: int

    @property
    def is_kan(self) -> bool:
        return not self.witnesses


def horn_compatible(p: Presentation, h: HornSpec) -> bool:
    """Whether d_i x_j = d_{j-1} x_i holds for all present pairs i < j."""
    for j in range(h.n + 1):
        if j == h.k:
            continue
        for i in range(j):
            if i == h.k:
                continue
            if p.face(h.faces[j], i) != p.face(h.faces[i], j - 1):
                return False
    return True


def _matches(p: Presentation, z: Simplex, h: HornSpec) -> bool:
    """Whether z fills h, checked face by face.

    The searches below ask ``Presentation.matching`` instead; this stays
    because ``bench/trace_shim.py`` wraps it by name when it installs.
    """
    return all(
        p.face(z, i) == h.faces[i] for i in range(h.n + 1) if i != h.k
    )


def fill_horn(p: Presentation, h: HornSpec) -> Simplex | None:
    """The lexicographically least filler, or None if no simplex fits."""
    fillers = _fillers(p, h)
    return fillers[0] if fillers else None


def fill_horn_all(p: Presentation, h: HornSpec) -> tuple[Simplex, ...]:
    """Every filler, in enumeration order."""
    return _fillers(p, h)


def _fillers(p: Presentation, h: HornSpec) -> tuple[Simplex, ...]:
    """Every filler of a compatible horn; the two public fills share it."""
    p.require_trusted(h.n, "fillers have dimension")
    if not horn_compatible(p, h):
        raise ValueError(f"faces of {h.describe()} are not compatible")
    return p.matching(h.n, h.faces)


def kan_check(p: Presentation, max_n: int) -> KanReport:
    """Search every compatible horn of dimension <= max_n for a filler.

    Horn faces are drawn from the full simplex enumeration one dimension
    down, so the search is finite but exhaustive at this truncation.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    p.require_trusted(max_n, "fillers have dimension")
    witnesses = []
    checked = 0
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            slots = [i for i in range(n + 1) if i != k]

            def backtrack(pos: int, chosen: dict[int, Simplex]):
                nonlocal checked
                if pos == len(slots):
                    faces = tuple([chosen.get(i) for i in range(n + 1)])  # slot k is None
                    checked += 1
                    if not p.matching(n, faces):
                        witnesses.append(HornSpec(n, k, faces))
                    return
                # slots are filled in increasing order, so previous ones are < j
                # and the face d_i x must equal d_{j-1} of the face in slot i
                j = slots[pos]
                pattern = [None] * n
                for i in slots[:pos]:
                    pattern[i] = p.face(chosen[i], j - 1)
                for x in p.matching(n - 1, pattern):
                    chosen[j] = x
                    backtrack(pos + 1, chosen)
                    del chosen[j]

            backtrack(0, {})
    return KanReport(max_n, tuple(witnesses), checked)
