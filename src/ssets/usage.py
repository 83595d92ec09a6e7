"""The argparse parser of the ``ssets`` command line, built from ``cli.COMMANDS``.

It reads the lines that ``cli.read_canonical`` declines, and is the one
source of help and usage errors.  It never imports ``cli``, which runs as
``__main__`` under ``python -m ssets.cli``: the table is an argument.
"""

import argparse

KINDS = {"int": {"type": int}, "str": {}, "flag": {"action": "store_true"},
         "int2": {"type": int, "nargs": 2, "metavar": ("N", "K")}}


def build_parser(commands, formats) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ssets", description="Engine for finitely presented simplicial sets."
    )
    ap.add_argument("--format", choices=formats, default=formats[0],
                    help="output style; structured is a stable JSON document")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help, handler, *arguments) in commands.items():
        s = sub.add_parser(name, help=help)
        group = None
        for spec in arguments:
            if spec[0] != "-":
                s.add_argument(spec)
                continue
            *flags, kind, mark = spec.split()
            if mark == "one-of" and group is None:
                group = s.add_mutually_exclusive_group(required=True)
            to = group if mark == "one-of" else s
            to.add_argument(*flags, required=mark == "required", **KINDS[kind])
        s.set_defaults(handler=handler)
    return ap
