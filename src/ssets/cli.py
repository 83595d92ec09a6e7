"""Command-line surface.

Every engine capability is exposed as a subcommand over the text file
formats.  Exit codes separate outcomes.  A handler returns 0 when the
mathematical answer is positive (or the command just produces output)
and 1 when the mathematics said no (validation failure, unfillable horn,
non-homotopic simplices).  ``main`` turns a required horn without a
filler into 1 with an ``obstruction:`` line, and anything that kept the
tool from running (usage, IO, parse, truncation, refused input) into 2
with an ``error:`` line.

``--format structured`` switches the payload to a stable JSON document;
repeated runs over the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from . import io as sio
from .constructions import boundary as boundary_complex
from .constructions import horn as horn_complex
from .constructions import nerve, sphere_two_cell, standard_simplex
from .core import NotKanError, SsetError, format_simplex
from .groups import cyclic
from .homology import euler_characteristic, homology
from .homotopy import (
    BasedPresentation,
    SubPresentation,
    path_components,
    pi_n,
    pi_n_rel,
    simplices_homotopic,
)
from .kan import kan_check
from .product import product
from .report import cw_report, delta_realization_report, incidence_export


def _load(path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", sio.NormalizationWarning)
        p = sio.load_presentation(path)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return p


def _pick_basepoint(p, name):
    if name is not None:
        return p.generator(0, name)
    verts = p.generators_at(0)
    if not verts:
        raise SsetError("presentation has no vertices")
    return verts[0]


# -- subcommand handlers; each returns (exit_code, payload, text_lines) ----


def _cmd_validate(args):
    p = _load(args.file)
    report = p.validate()
    payload = {
        "command": "validate",
        "fatal": list(report.fatal),
        "violations": [
            {"generator": v.gen.name, "dim": v.gen.dim, "i": v.i, "j": v.j}
            for v in report.violations
        ],
        "valid": report.ok,
    }
    if report.ok:
        return 0, payload, [f"{args.file}: valid ({sum(p.generator_counts())} generators)"]
    lines = [f"{args.file}: INVALID"]
    lines += [f"  fatal: {m}" for m in report.fatal]
    lines += [f"  identity violation: {v}" for v in report.violations]
    return 1, payload, lines


def _cmd_census(args):
    p = _load(args.file)
    if args.dim < 0:
        raise ValueError("dimension must be >= 0")
    if args.nondegenerate:
        count = len(p.generators_at(args.dim))
        kind = "nondegenerate"
    else:
        count = p.count_simplices(args.dim)
        kind = "total"
    payload = {
        "command": "census",
        "dim": args.dim,
        "kind": kind,
        "count": count,
    }
    return 0, payload, [f"{kind} simplices in dimension {args.dim}: {count}"]


def _cmd_homology(args):
    p = _load(args.file)
    groups = homology(p, args.max_dim)
    payload = {
        "command": "homology",
        "max_dim": args.max_dim,
        "groups": [
            {"degree": n, "betti": h.betti, "torsion": list(h.torsion)}
            for n, h in enumerate(groups)
        ],
    }
    return 0, payload, [f"H_{n} = {h}" for n, h in enumerate(groups)]


def _cmd_euler(args):
    p = _load(args.file)
    chi = euler_characteristic(p)
    return 0, {"command": "euler", "euler": chi}, [f"euler characteristic: {chi}"]


def _cmd_kan(args):
    p = _load(args.file)
    report = kan_check(p, args.max_dim)
    payload = {
        "command": "kan",
        "max_dim": report.max_dim,
        "horns_checked": report.horns_checked,
        "witnesses": [
            {
                "n": w.n,
                "k": w.k,
                "faces": {
                    str(i): format_simplex(f)
                    for i, f in enumerate(w.faces)
                    if f is not None
                },
            }
            for w in report.witnesses
        ],
        "is_kan": report.is_kan,
    }
    head = (
        f"checked {report.horns_checked} compatible horns up to dimension "
        f"{report.max_dim}"
    )
    if report.is_kan:
        return 0, payload, [head, "Kan at this bound and truncation"]
    lines = [head, f"{len(report.witnesses)} unfillable horns:"]
    lines += [f"  {w.describe()}" for w in report.witnesses]
    return 1, payload, lines


def _cmd_pi0(args):
    p = _load(args.file)
    comps = path_components(p)
    payload = {
        "command": "pi0",
        "components": [[v.name for v in block] for block in comps],
    }
    lines = [f"{len(comps)} path components"]
    lines += ["  {" + ", ".join(v.name for v in block) + "}" for block in comps]
    return 0, payload, lines


def _pi_payload(pi, command):
    payload = {
        "command": command,
        "n": pi.n,
        "order": pi.order,
        "closure_needed": pi.closure_needed,
        "classes": [
            [format_simplex(pi.reps[i]) for i in block] for block in pi.classes
        ],
        "basepoint_class": pi.basepoint_class,
    }
    labels = [format_simplex(pi.reps[block[0]]) for block in pi.classes]
    lines = [f"order {pi.order}"]
    for c, members in enumerate(payload["classes"]):
        tag = " (identity)" if c == pi.basepoint_class else ""
        lines.append(f"  [{labels[c]}]{tag}: " + ", ".join(members))
    if getattr(pi, "table", None) is not None:
        payload["table"] = [list(r) for r in pi.table]
        lines.append("multiplication table (classes by representative):")
        width = max(len(l) for l in labels)
        header = " " * (width + 2) + "  ".join(l.ljust(width) for l in labels)
        lines.append(header)
        for a, row in enumerate(pi.table):
            cells = "  ".join(labels[v].ljust(width) for v in row)
            lines.append(f"{labels[a].ljust(width)}  {cells}")
    return 0, payload, lines


def _cmd_pi(args):
    p = _load(args.file)
    based = BasedPresentation(p, _pick_basepoint(p, args.basepoint))
    pi = pi_n(based, args.n, require_kan_checked=args.check_kan)
    return _pi_payload(pi, "pi")


def _cmd_pirel(args):
    p = _load(args.file)
    sub_doc = _load(args.sub)
    members = []
    for g in sub_doc.all_generators():
        if not p.has_generator(g):
            raise SsetError(f"subcomplex generator {g} is absent from the parent")
        if sub_doc.faces_of(g) != p.faces_of(g):
            raise SsetError(f"subcomplex faces of {g} disagree with the parent")
        members.append(g)
    sub = SubPresentation(p, frozenset(members))
    based = BasedPresentation(p, _pick_basepoint(p, args.basepoint))
    pi = pi_n_rel(based, sub, args.n)
    return _pi_payload(pi, "pirel")


def _cmd_homotopic(args):
    p = _load(args.file)
    x = sio.parse_simplex(p, args.x, args.n)
    y = sio.parse_simplex(p, args.xp, args.n)
    result = simplices_homotopic(p, x, y)
    payload = {
        "command": "homotopic",
        "n": args.n,
        "x": format_simplex(x),
        "xp": format_simplex(y),
        "homotopic": result,
    }
    line = f"{format_simplex(x)} ~ {format_simplex(y)}: {'yes' if result else 'no'}"
    return 0 if result else 1, payload, [line]


def _wrote(args, command, p, line, **extra):
    """Save ``p`` to ``--output`` and report it: the tail of every writing command."""
    sio.save_presentation(p, args.output)
    payload = {
        "command": command,
        "output": args.output,
        "generators": list(p.generator_counts()),
        "top_dim": p.top_dim,
        **extra,
    }
    return 0, payload, [f"wrote {args.output}: {line}"]


def _cmd_product(args):
    a = _load(args.left)
    b = _load(args.right)
    prod = product(a, b)
    line = f"generators per dimension {prod.generator_counts()}"
    return _wrote(args, "product", prod, line)


def _cmd_nerve(args):
    if args.cyclic is not None:
        table = cyclic(args.cyclic)
    else:
        table = sio.load_group_table(args.table)
        if args.top_dim >= 1:  # below 1, nerve's own refusal comes first
            # a nerve's generators are its basepoint, the other elements and
            # comma-joined tuples of them; only an element's name can be
            # unwritable, and saving checks those names in sorted order
            sio._check_writable(sorted(set(table.elements) - {table.identity_name}))
    p = nerve(table, args.top_dim)
    line = f"nerve of a group of order {table.order}, truncated at {p.top_dim}"
    return _wrote(args, "nerve", p, line, order=table.order)


def _cmd_standard(args):
    if args.delta is not None:
        p = standard_simplex(args.delta, top_dim=args.top_dim)
    elif args.boundary is not None:
        p = boundary_complex(args.boundary, top_dim=args.top_dim)
    elif args.horn is not None:
        p = horn_complex(args.horn[0], args.horn[1], top_dim=args.top_dim)
    else:
        p = sphere_two_cell(args.sphere, top_dim=args.top_dim)
    line = f"generators per dimension {p.generator_counts()}"
    return _wrote(args, "standard", p, line)


def _cmd_cw_report(args):
    p = _load(args.file)
    rep = cw_report(p)
    payload = {
        "command": "cw-report",
        "cells_per_dim": list(rep.cells_per_dim),
        "euler": rep.euler,
        "attachments": [
            {
                "cell": g.name,
                "dim": g.dim,
                "faces": [
                    {
                        "i": a.index,
                        "face": format_simplex(a.face),
                        "collapsed": a.collapsed,
                    }
                    for a in atts
                ],
            }
            for g, atts in rep.attachments
        ],
    }
    lines = [
        f"cells per dimension: {rep.cells_per_dim}",
        f"euler characteristic: {rep.euler}",
    ]
    for g, atts in rep.attachments:
        row = ", ".join(
            f"d_{a.index}={format_simplex(a.face)}"
            + (" [collapsed]" if a.collapsed else "")
            for a in atts
        )
        lines.append(f"  {g.name}:{g.dim} -> {row}")
    return 0, payload, lines


def _cmd_delta_report(args):
    p = _load(args.file)
    cells = delta_realization_report(p, args.max_dim)
    payload = {
        "command": "delta-report",
        "max_dim": args.max_dim,
        "cells_per_dim": list(cells),
    }
    return 0, payload, [f"face-only cells per dimension: {cells}"]


def _cmd_export_graph(args):
    p = _load(args.file)
    text = incidence_export(p)
    return 0, {"command": "export-graph", "dot": text}, [text.rstrip("\n")]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ssets",
        description="Engine for finitely presented simplicial sets.",
    )
    ap.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="output style; structured is a stable JSON document",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, handler, *positionals):
        s = sub.add_parser(name, help=help)
        for dest in positionals:
            s.add_argument(dest)
        s.set_defaults(handler=handler)
        return s

    command("validate", "check the simplicial identities", _cmd_validate, "file")

    s = command("census", "count simplices in one dimension", _cmd_census, "file")
    s.add_argument("--dim", type=int, required=True)
    s.add_argument("--nondegenerate", action="store_true")

    s = command("homology", "integer homology groups", _cmd_homology, "file")
    s.add_argument("--max-dim", type=int, required=True)

    command("euler", "Euler characteristic", _cmd_euler, "file")

    s = command("kan", "search for unfillable horns", _cmd_kan, "file")
    s.add_argument("--max-dim", type=int, required=True)

    command("pi0", "path components", _cmd_pi0, "file")

    s = command("pi", "homotopy group by horn filling", _cmd_pi, "file")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--basepoint")
    s.add_argument("--check-kan", action="store_true")

    s = command("pirel", "relative homotopy classes", _cmd_pirel, "file")
    s.add_argument("--sub", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--basepoint")

    s = command("homotopic", "decide homotopy of two simplices", _cmd_homotopic, "file")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("x")
    s.add_argument("xp")

    s = command("product", "categorical product of two files", _cmd_product, "left", "right")
    s.add_argument("-o", "--output", required=True)

    s = command("nerve", "classifying-space nerve of a group", _cmd_nerve)
    grp = s.add_mutually_exclusive_group(required=True)
    grp.add_argument("--cyclic", type=int)
    grp.add_argument("--table")
    s.add_argument("--top-dim", type=int, required=True)
    s.add_argument("-o", "--output", required=True)

    s = command("standard", "standard complexes", _cmd_standard)
    grp = s.add_mutually_exclusive_group(required=True)
    grp.add_argument("--delta", type=int)
    grp.add_argument("--boundary", type=int)
    grp.add_argument("--horn", type=int, nargs=2, metavar=("N", "K"))
    grp.add_argument("--sphere", type=int)
    s.add_argument("--top-dim", type=int)
    s.add_argument("-o", "--output", required=True)

    command("cw-report", "cell census with collapse flags", _cmd_cw_report, "file")

    s = command("delta-report", "face-only cell counts", _cmd_delta_report, "file")
    s.add_argument("--max-dim", type=int, required=True)

    command("export-graph", "incidence graph in DOT format", _cmd_export_graph, "file")

    return ap


def _emit(args, payload, lines):
    if args.format == "structured":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code, payload, lines = args.handler(args)
    except NotKanError as exc:
        # the mathematics said no: a required horn has no filler
        print(f"obstruction: {exc}", file=sys.stderr)
        return 1
    except (SsetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args, payload, lines)
    return code


if __name__ == "__main__":
    sys.exit(main())
