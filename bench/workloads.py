"""Seeded inputs, job lists and known answers for the ssets benchmark.

Nothing here imports ``ssets``.  Every expected answer comes from group
theory or combinatorics computed in this file, or from the answers the
README states, so an engine that is wrong cannot agree with itself.

A job is one ``ssets --format structured ...`` invocation.  Its check
receives the exit code and the parsed JSON document (``None`` when
stdout was not JSON) and returns ``None`` when the answer is right, or a
one-line reason when it is not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import permutations
from math import comb
from pathlib import Path
from typing import Callable

FIXTURES = "fixtures"

# Letters for seeded element names.  No "s": a name like "s3" would read
# as a degeneracy operator in the presentation grammar.
_NAME_LETTERS = "abcdfghjkmnpqrtuvwxyz"


# -- groups, independent of ssets --------------------------------------------


@dataclass(frozen=True)
class Group:
    """A finite group as a multiplication table on indices; 0 is the identity."""

    label: str
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.table)

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != 0:
            x, k = self.table[x][a], k + 1
        return k

    def element_orders(self) -> list[int]:
        return sorted(self.element_order(a) for a in range(self.order))

    def is_abelian(self) -> bool:
        n = self.order
        return all(self.table[a][b] == self.table[b][a] for a in range(n) for b in range(n))


def cyclic_group(k: int) -> Group:
    return Group(f"z{k}", tuple(tuple((i + j) % k for j in range(k)) for i in range(k)))


def symmetric_3() -> Group:
    perms = sorted(permutations(range(3)))  # the identity sorts first
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms) for p in perms
    )
    return Group("s3", table)


@dataclass(frozen=True)
class SeededTable:
    """A group written as a ``.table`` file under seeded names and row order."""

    group: Group
    names: tuple[str, ...]  # names[i] is the seeded name of element i
    text: str

    def simplex(self, a: int) -> str:
        """The 1-simplex of the nerve standing for element a."""
        return "s0 *" if a == 0 else self.names[a]


def seeded_table(group: Group, seed: int) -> SeededTable:
    """Rename the elements and shuffle the element list and the rows.

    The names fix the nerve's enumeration order, so they move least
    fillers and SNF pivots but never an answer.
    """
    rng = random.Random(f"{seed}:{group.label}")
    names: list[str] = []
    while len(names) < group.order:
        name = rng.choice(_NAME_LETTERS) + rng.choice(_NAME_LETTERS) + str(rng.randrange(10))
        if name not in names:
            names.append(name)
    listed = list(range(group.order))
    rng.shuffle(listed)
    rows = list(listed)
    rng.shuffle(rows)
    lines = ["elements " + " ".join(names[i] for i in listed)]
    for a in rows:
        cells = " ".join(names[group.table[a][b]] for b in listed)
        lines.append(f"table {names[a]} : {cells}")
    return SeededTable(group, tuple(names), "\n".join(lines) + "\n")


# -- combinatorial answers ----------------------------------------------------


def nerve_generators(order: int, top: int) -> list[int]:
    """Nondegenerate m-simplices of the nerve are m-tuples of non-identity elements."""
    return [(order - 1) ** m for m in range(top + 1)]


def nerve_horns(order: int, max_dim: int) -> int:
    """Compatible horns of a group nerve up to dimension 3.

    Dimension 1: one horn per slot over the single vertex.  Dimension 2:
    any two edges meet at the vertex, so |G|^2 per slot.  Dimension 3: a
    horn holds the whole 1-skeleton of the 3-simplex, fixed by the three
    spine edges, so |G|^3 per slot.
    """
    if not 1 <= max_dim <= 3:
        raise ValueError("closed form covers max_dim 1..3")
    return sum((n + 1) * order**n if n > 1 else 2 for n in range(1, max_dim + 1))


def simplex_product_generators(p: int, q: int) -> list[int]:
    """Nondegenerate n-cells of Δp×Δq: chains of n+1 distinct points of [p]×[q].

    Counted by dynamic programming over the product order.
    """
    points = [(i, j) for i in range(p + 1) for j in range(q + 1)]
    ends = {pt: 1 for pt in points}  # chains of the current length ending at pt
    counts = [len(points)]
    while True:
        ends = {
            b: sum(c for a, c in ends.items() if a != b and a[0] <= b[0] and a[1] <= b[1])
            for b in points
        }
        total = sum(ends.values())
        if not total:
            return counts
        counts.append(total)


def group_homology(group: Group, max_dim: int) -> list[tuple[int, list[int]]]:
    """H_0..H_{max_dim-1} of BG as (betti, torsion) for the groups used here."""
    if group.label.startswith("z"):
        k = group.order
        known = [(1, [])] + [(0, [k]) if n % 2 else (0, []) for n in range(1, 8)]
    elif group.label == "s3":
        known = [(1, []), (0, [2]), (0, []), (0, [6])]
    else:
        raise ValueError(f"no known homology for {group.label}")
    if max_dim > len(known):
        raise ValueError(f"known homology of {group.label} stops at degree {len(known) - 1}")
    return known[:max_dim]


def fixture_cells(path: Path) -> tuple[list[int], int]:
    """Generator counts per dimension and the number of face entries of a fixture."""
    counts: dict[int, int] = {}
    faces = 0
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        head, _, rest = line.partition(" ")
        if head == "generators":
            dim, _, names = rest.partition(":")
            counts[int(dim)] = counts.get(int(dim), 0) + len(names.split())
        elif head == "faces":
            faces += len(rest.partition(":")[2].split(";"))
    return [counts.get(d, 0) for d in range(max(counts) + 1)], faces


# -- checks --------------------------------------------------------------------

Check = Callable[[int, "dict | None"], "str | None"]


def _expect(exit_code: int, **fields) -> Check:
    def check(code, doc):
        if code != exit_code:
            return f"exit {code}, expected {exit_code}"
        if doc is None:
            return "no structured output"
        for key, want in fields.items():
            if doc.get(key) != want:
                return f"{key} = {doc.get(key)!r}, expected {want!r}"
        return None

    return check


def _all(*checks: Check) -> Check:
    def check(code, doc):
        for c in checks:
            reason = c(code, doc)
            if reason:
                return reason
        return None

    return check


def homology_check(expected: list[tuple[int, list[int]]]) -> Check:
    groups = [{"degree": n, "betti": b, "torsion": t} for n, (b, t) in enumerate(expected)]
    return _expect(0, groups=groups)


def pi_check(group: Group) -> Check:
    """pi_1(BG) is G: same order, abelianness and element orders, no closure."""

    def check(code, doc):
        table, e = doc["table"], doc["basepoint_class"]
        k = len(table)
        if any(table[e][a] != a or table[a][e] != a for a in range(k)):
            return "basepoint class is not the identity of the table"
        # reindex so that the identity class comes first, as Group expects
        order = [e] + [a for a in range(k) if a != e]
        pos = {a: i for i, a in enumerate(order)}
        found = Group("pi", tuple(tuple(pos[table[a][b]] for b in order) for a in order))
        if found.is_abelian() != group.is_abelian():
            return "abelianness differs from the group"
        if found.element_orders() != group.element_orders():
            return "element orders differ from the group"
        return None

    return _all(_expect(0, order=group.order, closure_needed=False), check)


def kan_nerve_check(order: int, max_dim: int) -> Check:
    return _expect(0, is_kan=True, witnesses=[], horns_checked=nerve_horns(order, max_dim))


def nerve_check(order: int, top: int) -> Check:
    return _expect(0, order=order, generators=nerve_generators(order, top), top_dim=top)


def homotopic_check(same: bool) -> Check:
    return _expect(0 if same else 1, homotopic=same)


def product_check(p: int, q: int) -> Check:
    counts = simplex_product_generators(p, q)

    def check(code, doc):
        if counts[p + q] != comb(p + q, p):
            return "top cell count is not C(p+q, p)"
        if sum((-1) ** d * c for d, c in enumerate(counts)) != 1:
            return "Euler characteristic of a product of simplices is not 1"
        return None

    return _all(_expect(0, generators=counts), check)


def kan_fails_check(code, doc):
    if code != 1 or doc is None:
        return f"exit {code}, expected 1 with witnesses"
    if doc.get("is_kan") is not False or not doc.get("witnesses"):
        return "expected unfillable horns"
    return None


# -- jobs and workloads ----------------------------------------------------------


@dataclass
class Job:
    """One CLI invocation: arguments after ``--format structured`` and its check."""

    name: str
    args: list[str]
    check: Check


@dataclass
class Workload:
    """Seeded tables and set-up jobs that build the inputs, then the timed jobs."""

    setup_tables: list[SeededTable] = field(default_factory=list)
    setup: list[Job] = field(default_factory=list)
    jobs: list[Job] = field(default_factory=list)


def _nerve_file(t: SeededTable, top: int, where: str) -> str:
    return f"{where}/{t.group.label}_{top}.sset"


def _nerve_job(t: SeededTable, top: int, inputs: str, out: str) -> Job:
    """``ssets nerve`` on the seeded table written to ``inputs``."""
    return Job(
        f"nerve {t.group.label} top {top}",
        ["nerve", "--table", f"{inputs}/{t.group.label}.table", "--top-dim", str(top),
         "-o", _nerve_file(t, top, out)],
        nerve_check(t.group.order, top),
    )


def homology_workload(seed: int, inputs: str, out: str) -> Workload:
    """Dense SNF: boundaries of nerve(Z/5) to degree 5, nerve(Z/6) and nerve(S3) to 4."""
    specs = [(cyclic_group(5), 5), (cyclic_group(6), 4), (symmetric_3(), 4)]
    w = Workload()
    for group, top in specs:
        t = seeded_table(group, seed)
        w.setup_tables.append(t)
        w.setup.append(_nerve_job(t, top, inputs, inputs))
        w.jobs.append(
            Job(
                f"homology {group.label} top {top}",
                ["homology", _nerve_file(t, top, inputs), "--max-dim", str(top)],
                homology_check(group_homology(group, top)),
            )
        )
    return w


def horn_workload(seed: int, inputs: str, out: str) -> Workload:
    """Horn filling and homotopy witnesses: Kan checks, pi_1 tables, one relative pi_2."""
    w = Workload()
    tables = {g.label: seeded_table(g, seed) for g in
              (cyclic_group(5), symmetric_3(), cyclic_group(12), cyclic_group(16))}
    for t in tables.values():
        w.setup_tables.append(t)
        w.setup.append(_nerve_job(t, 3, inputs, inputs))
    for label in ("z5", "s3"):
        t = tables[label]
        w.jobs.append(
            Job(
                f"kan {label}",
                ["kan", _nerve_file(t, 3, inputs), "--max-dim", "3"],
                kan_nerve_check(t.group.order, 3),
            )
        )
    for label in ("s3", "z12", "z16"):
        t = tables[label]
        w.jobs.append(
            Job(f"pi1 {label}", ["pi", _nerve_file(t, 3, inputs), "--n", "1"], pi_check(t.group))
        )
    # pi_2(BZ/4, BZ/2) is 0: Z/2 -> Z/4 is injective and pi_2(BZ/4) = 0.
    w.jobs.append(
        Job(
            "pirel z4 n2",
            ["pirel", f"{FIXTURES}/nerve_z4.sset", "--sub", f"{FIXTURES}/nerve_z4_sub2.sset", "--n", "2"],
            _expect(0, order=1, closure_needed=False),
        )
    )
    return w


def readme_tour(root: Path, out: str) -> list[Job]:
    """Every line of the README command-line tour, with the answer it states or implies."""
    f = FIXTURES
    cone_cells, _ = fixture_cells(root / f / "cone.sset")
    delta2_cells, delta2_faces = fixture_cells(root / f / "delta2.sset")

    def graph_check(code, doc):
        reason = _expect(0)(code, doc)
        if reason:
            return reason
        dot = doc.get("dot", "")
        nodes = sum(1 for line in dot.splitlines() if line.strip().endswith('";'))
        arcs = dot.count("->")
        if not dot.startswith("digraph") or nodes != sum(delta2_cells) or arcs != delta2_faces:
            return "incidence graph does not list every cell and face"
        return None

    z3 = cyclic_group(3)
    return [
        Job("tour validate", ["validate", f"{f}/delta2.sset"], _expect(0, valid=True)),
        Job("tour census", ["census", f"{f}/delta1.sset", "--dim", "5"], _expect(0, count=7)),
        Job(
            "tour homology",
            ["homology", f"{f}/nerve_z2.sset", "--max-dim", "4"],
            homology_check(group_homology(cyclic_group(2), 4)),
        ),
        Job("tour euler", ["euler", f"{f}/sphere2.sset"], _expect(0, euler=2)),
        Job("tour kan", ["kan", f"{f}/delta1.sset", "--max-dim", "2"], kan_fails_check),
        Job("tour pi", ["pi", f"{f}/nerve_z3.sset", "--n", "1"], pi_check(z3)),
        Job("tour pi0", ["pi0", f"{f}/circle2.sset"], _expect(0, components=[["v0", "v1"]])),
        # pi_1(BZ/4, BZ/2) is the coset set Z/4 / Z/2.
        Job(
            "tour pirel",
            ["pirel", f"{f}/nerve_z4.sset", "--sub", f"{f}/nerve_z4_sub2.sset", "--n", "1"],
            _expect(0, order=2, closure_needed=False),
        ),
        Job(
            "tour homotopic",
            ["homotopic", f"{f}/nerve_z2.sset", "--n", "1", "g", "s0 *"],
            homotopic_check(False),
        ),
        Job(
            "tour product",
            ["product", f"{f}/delta1.sset", f"{f}/delta1.sset", "-o", f"{out}/square.sset"],
            product_check(1, 1),
        ),
        Job(
            "tour nerve cyclic",
            ["nerve", "--cyclic", "5", "--top-dim", "3", "-o", f"{out}/z5.sset"],
            nerve_check(5, 3),
        ),
        Job(
            "tour nerve table",
            ["nerve", "--table", f"{f}/z3.table", "--top-dim", "4", "-o", f"{out}/z3.sset"],
            nerve_check(3, 4),
        ),
        Job(
            "tour boundary",
            ["standard", "--boundary", "3", "-o", f"{out}/b3.sset"],
            _expect(0, generators=[comb(4, k + 1) for k in range(3)]),
        ),
        Job(
            "tour horn",
            ["standard", "--horn", "2", "0", "-o", f"{out}/horn.sset"],
            _expect(0, generators=[3, 2]),
        ),
        Job("tour cw-report", ["cw-report", f"{f}/sphere2.sset"], _expect(0, cells_per_dim=[1, 0, 1], euler=2)),
        Job(
            "tour delta-report",
            ["delta-report", f"{f}/cone.sset", "--max-dim", "2"],
            _expect(0, cells_per_dim=cone_cells),
        ),
        Job("tour export-graph", ["export-graph", f"{f}/delta2.sset"], graph_check),
    ]


def oneshot_workload(seed: int, inputs: str, out: str, root: Path) -> Workload:
    """Each presentation built or parsed once and asked one question."""
    w = Workload()
    z16 = seeded_table(cyclic_group(16), seed)
    w.setup_tables.append(z16)
    w.setup.append(
        Job(
            "standard delta 4",
            ["standard", "--delta", "4", "-o", f"{inputs}/delta4.sset"],
            _expect(0, generators=[comb(5, k + 1) for k in range(5)]),
        )
    )
    w.jobs = readme_tour(root, out)
    prod = f"{out}/delta4x4.sset"
    w.jobs += [
        Job("product delta4 x delta4",
            ["product", f"{inputs}/delta4.sset", f"{inputs}/delta4.sset", "-o", prod],
            product_check(4, 4)),
        Job("validate product", ["validate", prod], _expect(0, valid=True)),
        Job("census product", ["census", prod, "--dim", "8", "--nondegenerate"],
            _expect(0, count=comb(8, 4))),
        _nerve_job(z16, 3, inputs, out),
    ]
    rng = random.Random(f"{seed}:homotopic")
    for k in range(4):
        a = rng.randrange(16)
        b = a if k % 2 == 0 else rng.choice([x for x in range(16) if x != a])
        w.jobs.append(
            Job(
                f"homotopic z16 #{k}",
                ["homotopic", _nerve_file(z16, 3, out), "--n", "1", z16.simplex(a), z16.simplex(b)],
                homotopic_check(a == b),
            )
        )
    return w


WORKLOADS = ("homology", "horn", "oneshot")


def build(name: str, seed: int, root: Path, inputs: str, out: str) -> Workload:
    if name == "homology":
        return homology_workload(seed, inputs, out)
    if name == "horn":
        return horn_workload(seed, inputs, out)
    if name == "oneshot":
        return oneshot_workload(seed, inputs, out, root)
    raise ValueError(f"unknown workload {name!r}")
