"""Command-line surface.

Every engine capability is exposed as a subcommand over the text file
formats.  Exit codes separate outcomes.  A handler returns 0 when the
mathematical answer is positive (or the command just produces output)
and 1 when the mathematics said no (validation failure, unfillable horn,
non-homotopic simplices).  ``main`` turns a required horn without a
filler into 1 with an ``obstruction:`` line, and anything that kept the
tool from running (usage, IO, parse, truncation, refused input) into 2
with an ``error:`` line.  ``run`` is the process entry, for ``python -m
ssets.cli`` and the ``ssets`` script: it exits with ``main``'s code.

``--format structured`` switches the payload to a stable JSON document,
``json.dumps(payload, sort_keys=True, indent=2)``; repeated runs over
the same inputs are byte-identical.  Only a structured job imports
``json``.  The engine modules are bound at the top, and the package runs
each on its first use, so a job runs only the modules its handler calls
into.

``COMMANDS`` is the one record of the grammar.  ``main`` reads a
canonical line from it (``read_canonical``) and any other line with the
argparse parser that ``ssets.usage`` builds from it, so a canonical job
never imports argparse.
"""

from __future__ import annotations

import gc
import sys
import warnings
from types import SimpleNamespace

from . import constructions, groups, homotopy, io as sio, kan, report, usage
from .core import NotKanError, SsetError, euler_characteristic, format_simplex


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
# _emit adds the subcommand's name to every payload, as its "command"


def _cmd_validate(args):
    p = _load(args.file)
    result = p.validate()
    payload = {
        "fatal": list(result.fatal),
        "violations": [
            {"generator": v.gen.name, "dim": v.gen.dim, "i": v.i, "j": v.j}
            for v in result.violations
        ],
        "valid": result.ok,
    }
    if result.ok:
        return 0, payload, [f"{args.file}: valid ({sum(p.generator_counts())} generators)"]
    lines = [f"{args.file}: INVALID"]
    lines += [f"  fatal: {m}" for m in result.fatal]
    lines += [f"  identity violation: {v}" for v in result.violations]
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
        "dim": args.dim,
        "kind": kind,
        "count": count,
    }
    return 0, payload, [f"{kind} simplices in dimension {args.dim}: {count}"]


def _cmd_homology(args):
    from .homology import homology
    p = _load(args.file)
    hgroups = homology(p, args.max_dim)
    payload = {
        "max_dim": args.max_dim,
        "groups": [
            {"degree": n, "betti": h.betti, "torsion": list(h.torsion)}
            for n, h in enumerate(hgroups)
        ],
    }
    return 0, payload, [f"H_{n} = {h}" for n, h in enumerate(hgroups)]


def _cmd_euler(args):
    p = _load(args.file)
    chi = euler_characteristic(p)
    return 0, {"euler": chi}, [f"euler characteristic: {chi}"]


def _cmd_kan(args):
    p = _load(args.file)
    result = kan.kan_check(p, args.max_dim)
    payload = {
        "max_dim": result.max_dim,
        "horns_checked": result.horns_checked,
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
            for w in result.witnesses
        ],
        "is_kan": result.is_kan,
    }
    head = f"checked {result.horns_checked} compatible horns up to dimension {result.max_dim}"
    if result.is_kan:
        return 0, payload, [head, "Kan at this bound and truncation"]
    lines = [head, f"{len(result.witnesses)} unfillable horns:"]
    lines += [f"  {w.describe()}" for w in result.witnesses]
    return 1, payload, lines


def _cmd_pi0(args):
    p = _load(args.file)
    comps = homotopy.path_components(p)
    payload = {
        "components": [[v.name for v in block] for block in comps],
    }
    lines = [f"{len(comps)} path components"]
    lines += ["  {" + ", ".join(v.name for v in block) + "}" for block in comps]
    return 0, payload, lines


def _pi_payload(pi):
    payload = {
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
    based = homotopy.BasedPresentation(p, _pick_basepoint(p, args.basepoint))
    pi = homotopy.pi_n(based, args.n, require_kan_checked=args.check_kan)
    return _pi_payload(pi)


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
    sub = homotopy.SubPresentation(p, frozenset(members))
    based = homotopy.BasedPresentation(p, _pick_basepoint(p, args.basepoint))
    pi = homotopy.pi_n_rel(based, sub, args.n)
    return _pi_payload(pi)


def _cmd_homotopic(args):
    p = _load(args.file)
    x = sio.parse_simplex(p, args.x, args.n)
    y = sio.parse_simplex(p, args.xp, args.n)
    result = homotopy.simplices_homotopic(p, x, y)
    payload = {
        "n": args.n,
        "x": format_simplex(x),
        "xp": format_simplex(y),
        "homotopic": result,
    }
    line = f"{format_simplex(x)} ~ {format_simplex(y)}: {'yes' if result else 'no'}"
    return 0 if result else 1, payload, [line]


def _wrote(args, p, line, **extra):
    """Save ``p`` to ``--output`` and report it: the tail of every writing command."""
    sio.save_presentation(p, args.output)
    payload = {
        "output": args.output,
        "generators": list(p.generator_counts()),
        "top_dim": p.top_dim,
        **extra,
    }
    return 0, payload, [f"wrote {args.output}: {line}"]


def _cmd_product(args):
    from .product import product
    a = _load(args.left)
    b = _load(args.right)
    prod = product(a, b)
    line = f"generators per dimension {prod.generator_counts()}"
    return _wrote(args, prod, line)


def _cmd_nerve(args):
    if args.cyclic is not None:
        table = groups.cyclic(args.cyclic)
    else:
        table = sio.load_group_table(args.table)
        if args.top_dim >= 1:  # below 1, nerve's own refusal comes first
            # a nerve's generators are its basepoint, the other elements and
            # comma-joined tuples of them; only an element's name can be
            # unwritable, and saving checks those names in sorted order
            sio._check_writable(sorted(set(table.elements) - {table.identity_name}))
    p = constructions.nerve(table, args.top_dim)
    line = f"nerve of a group of order {table.order}, truncated at {p.top_dim}"
    return _wrote(args, p, line, order=table.order)


def _cmd_standard(args):
    if args.delta is not None:
        p = constructions.standard_simplex(args.delta, top_dim=args.top_dim)
    elif args.boundary is not None:
        p = constructions.boundary(args.boundary, top_dim=args.top_dim)
    elif args.horn is not None:
        p = constructions.horn(args.horn[0], args.horn[1], top_dim=args.top_dim)
    else:
        p = constructions.sphere_two_cell(args.sphere, top_dim=args.top_dim)
    line = f"generators per dimension {p.generator_counts()}"
    return _wrote(args, p, line)


def _cmd_cw_report(args):
    p = _load(args.file)
    rep = report.cw_report(p)
    payload = {
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
    cells = report.delta_realization_report(p, args.max_dim)
    payload = {
        "max_dim": args.max_dim,
        "cells_per_dim": list(cells),
    }
    return 0, payload, [f"face-only cells per dimension: {cells}"]


def _cmd_export_graph(args):
    p = _load(args.file)
    text = report.incidence_export(p)
    return 0, {"dot": text}, [text.rstrip("\n")]


# The command-line grammar, its one record: per subcommand its help, its
# handler and its arguments in declaration order.  An argument is a
# positional's name or an option, "flags kind mark", long flag last (it
# names the dest): kind is int, str, flag (store_true) or int2 (two ints,
# N K), and mark is required, optional or one-of (the members of the
# subcommand's required mutually exclusive group).
FORMATS = ("text", "structured")
COMMANDS = {
    "validate": ("check the simplicial identities", _cmd_validate, "file"),
    "census": ("count simplices in one dimension", _cmd_census, "file",
               "--dim int required", "--nondegenerate flag optional"),
    "homology": ("integer homology groups", _cmd_homology, "file", "--max-dim int required"),
    "euler": ("Euler characteristic", _cmd_euler, "file"),
    "kan": ("search for unfillable horns", _cmd_kan, "file", "--max-dim int required"),
    "pi0": ("path components", _cmd_pi0, "file"),
    "pi": ("homotopy group by horn filling", _cmd_pi, "file", "--n int required",
           "--basepoint str optional", "--check-kan flag optional"),
    "pirel": ("relative homotopy classes", _cmd_pirel, "file", "--sub str required",
              "--n int required", "--basepoint str optional"),
    "homotopic": ("decide homotopy of two simplices", _cmd_homotopic, "file",
                  "--n int required", "x", "xp"),
    "product": ("categorical product of two files", _cmd_product, "left", "right",
                "-o --output str required"),
    "nerve": ("classifying-space nerve of a group", _cmd_nerve, "--cyclic int one-of",
              "--table str one-of", "--top-dim int required", "-o --output str required"),
    "standard": ("standard complexes", _cmd_standard, "--delta int one-of",
                 "--boundary int one-of", "--horn int2 one-of", "--sphere int one-of",
                 "--top-dim int optional", "-o --output str required"),
    "cw-report": ("cell census with collapse flags", _cmd_cw_report, "file"),
    "delta-report": ("face-only cell counts", _cmd_delta_report, "file", "--max-dim int required"),
    "export-graph": ("incidence graph in DOT format", _cmd_export_graph, "file"),
}


def build_parser():
    """The argparse parser of ``COMMANDS``, for lines ``read_canonical`` declines."""
    return usage.build_parser(COMMANDS, FORMATS)


def _value(kind, token):
    if kind == "str":
        return None if token[:1] == "-" else token
    digits = token.removeprefix("-")
    try:  # int() refuses digits past the interpreter's limit
        return int(token) if digits.isascii() and digits.isdigit() else None
    except ValueError:
        return None


def read_canonical(argv):
    """Read a canonical command line from ``COMMANDS``, without argparse.

    The result is what ``build_parser().parse_args(argv)`` gives; a line
    that is not canonical (README, "Command-line tour") gives None.
    """
    ns = {"format": "text"}
    if argv[:1] == ["--format"] and argv[1:2] and argv[1] in FORMATS:
        ns["format"], argv = argv[1], argv[2:]
    if not argv or argv[0] not in COMMANDS:
        return None
    ns["command"] = argv[0]
    _, ns["handler"], *arguments = COMMANDS[argv[0]]
    positionals, options, required, one_of = [], {}, set(), set()
    for spec in arguments:
        if spec[0] != "-":
            positionals.append(spec)
            continue
        *flags, kind, mark = spec.split()
        dest = flags[-1][2:].replace("-", "_")
        ns[dest] = False if kind == "flag" else None
        options.update(dict.fromkeys(flags, (dest, kind)))
        if mark != "optional":
            (required if mark == "required" else one_of).add(dest)
    given, values, tokens = set(), [], iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            values.append(token)
            continue
        dest, kind = options.get(token, (None, None))
        if dest is None or dest in given:
            return None
        given.add(dest)
        if kind == "flag":
            ns[dest] = True
            continue
        got = [_value(kind, next(tokens, "-")) for _ in range(1 + (kind == "int2"))]
        if None in got:
            return None
        ns[dest] = got if kind == "int2" else got[0]
    if len(values) != len(positionals) or not required <= given:
        return None
    if one_of and len(one_of & given) != 1:
        return None
    ns.update(zip(positionals, values))
    return SimpleNamespace(**ns)


def _emit(args, payload, lines):
    if args.format == "structured":
        import json
        print(json.dumps({"command": args.command, **payload}, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_canonical(argv) or build_parser().parse_args(argv)
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


def run() -> None:
    """Run :func:`main` on ``sys.argv`` and exit the process with its code.

    Every way out, argparse's own exits for ``--help`` and usage errors
    included, first moves what the process holds into the collector's
    permanent generation (``gc.freeze``).  The collections that
    interpreter finalization runs regardless of thresholds or
    ``gc.disable`` then skip those objects, which die with the process.
    ``main`` itself never touches ``gc``.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
