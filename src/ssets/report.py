"""Cell-structure census of a presentation and incidence-graph export.

Nothing geometric is produced.  The CW report counts one cell per
nondegenerate generator and marks which attachment faces collapse
(degenerate faces glue through lower cells).  The Delta report shows
the contrast with face-only realizations: Delta-style data contributes
its listed cells verbatim, while a simplicial presentation viewed as a
Delta object keeps every degenerate simplex as an honest cell.
"""

from __future__ import annotations

from .core import GenId, Presentation, Record, Simplex, euler_characteristic


class Attachment(Record):
    """One face of one cell, flagged when the realization collapses it."""

    index: int
    face: Simplex
    collapsed: bool


class CWReport(Record):
    cells_per_dim: tuple[int, ...]
    euler: int
    attachments: tuple[tuple[GenId, tuple[Attachment, ...]], ...]


def cw_report(p: Presentation) -> CWReport:
    """Cell counts, Euler characteristic, and per-cell attachment rows."""
    rows = []
    for g in p.all_generators():
        if g.dim == 0:
            continue
        rows.append(
            (
                g,
                tuple(
                    Attachment(i, f, f.is_degenerate)
                    for i, f in enumerate(p.faces_of(g))
                ),
            )
        )
    return CWReport(p.generator_counts(), euler_characteristic(p), tuple(rows))


def delta_realization_report(p: Presentation, max_dim: int) -> tuple[int, ...]:
    """Cell counts of the face-only realization, up to max_dim.

    Delta-style data has no degenerate simplices, so its cells are the
    generators.  A simplicial presentation degrades to a Delta object
    with all simplices as cells, which is why even a point grows one
    cell in every dimension.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be >= 0")
    if p.delta_style:
        counts = p.generator_counts()
        return tuple(
            counts[d] if d < len(counts) else 0 for d in range(max_dim + 1)
        )
    return tuple(p.count_simplices(d) for d in range(max_dim + 1))


def incidence_export(p: Presentation) -> str:
    """Directed incidence graph of the nondegenerate cells, in DOT format.

    Nodes are generators labeled name:dim, quoted, with each '"' written
    as '\\"', the only escape DOT reads in a quoted ID.  One arc per face
    index, from each cell to the nondegenerate base of that face.  Order
    is deterministic, so the output is diff-stable.
    """

    def node(g):
        return '"' + str(g).replace('"', '\\"') + '"'

    lines = ["digraph incidence {"]
    for g in p.all_generators():
        lines.append(f"  {node(g)};")
    for g in p.all_generators():
        for i, f in enumerate(p.faces_of(g)):
            lines.append(f'  {node(g)} -> {node(f.gen)} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
