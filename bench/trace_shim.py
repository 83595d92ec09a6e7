"""Run one ``ssets`` CLI invocation with spans and counters around its layers.

Usage: python trace_shim.py TRACE_OUT [ssets CLI arguments...]

The shim wraps public functions of the ``ssets`` modules from the
outside.  A function is replaced under its name in every ``ssets``
module that holds it, so calls through ``from ... import`` bindings are
seen too.  ``Presentation.face`` and ``degenerate`` are only counted,
because they run millions of times.  Spans and counters stay in memory
and are written to TRACE_OUT as JSON when the command ends; stdout and
the exit code are the command's own.

A span is ``[name, parent, start, end]``; ``parent`` is the index of the
enclosing span, or -1 for the root span ``cli.main``.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = [-1]
        self.counts: dict[str, float | list[int]] = {}  # a list is a hot-path cell

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def spanned(self, name, fn, after=None):
        spans, stack = self.spans, self.open

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1], perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, key, fn):
        cell = [0]
        self.counts[key] = cell

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        counts = {k: (v[0] if isinstance(v, list) else v) for k, v in self.counts.items()}
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)


def _rebind(orig, replacement) -> None:
    """Replace ``orig`` in every loaded ssets module that binds it."""
    for name, mod in list(sys.modules.items()):
        if name == "ssets" or name.startswith("ssets."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, replacement)


def install(t: Tracer) -> None:
    # The package re-exports functions named like its modules (ssets.homology
    # is a function), so the modules are fetched by their full names.
    import ssets.cli  # noqa: F401  (loads every module the CLI uses)

    mod = sys.modules
    constructions, core, groups = mod["ssets.constructions"], mod["ssets.core"], mod["ssets.groups"]
    homology, homotopy, io = mod["ssets.homology"], mod["ssets.homotopy"], mod["ssets.io"]
    kan, product, report = mod["ssets.kan"], mod["ssets.product"], mod["ssets.report"]

    def snf_after(args, result):
        m = args[0]
        rows = len(m)
        cols = len(m[0]) if rows else 0
        t.add("homology.matrix_cells", rows * cols)
        t.add("homology.matrix_nnz", sum(1 for row in m for v in row if v))
        t.add("homology.snf_rank", result.rank)

    def kan_after(args, result):
        t.add("kan.horns_checked", result.horns_checked)

    def witness_after(args, result):
        if result is not None:
            t.add("homotopy.witness_found")

    def cells_after(key):
        def after(args, result):
            t.add(key, sum(result.generator_counts()))

        return after

    def bytes_after(key, arg):
        def after(args, result):
            t.add(key, os.path.getsize(args[arg]))

        return after

    spanned = {
        homology.smith_normal_form: ("homology.snf", snf_after),
        homology.normalized_complex: ("homology.complex", None),
        homology.unnormalized_complex: ("homology.complex", None),
        kan.kan_check: ("kan.kan_check", kan_after),
        kan.fill_horn: ("kan.fill", None),
        kan.fill_horn_all: ("kan.fill", None),
        homotopy.homotopy_witness: ("homotopy.witness", witness_after),
        homotopy.homotopy_witness_shifted: ("homotopy.witness", witness_after),
        homotopy.rel_homotopy_witness: ("homotopy.witness", witness_after),
        homotopy.pi_n: ("homotopy.pi", None),
        homotopy.pi_n_rel: ("homotopy.pi", None),
        homotopy.simplices_homotopic: ("homotopy.homotopic", None),
        homotopy.simplices_homotopic_rel: ("homotopy.homotopic", None),
        product.product: ("product.product", cells_after("product.cells")),
        io.load_presentation: ("io.parse", bytes_after("io.parse_bytes", 0)),
        io.load_group_table: ("io.parse", bytes_after("io.parse_bytes", 0)),
        io.load_map: ("io.parse", bytes_after("io.parse_bytes", 0)),
        io.save_presentation: ("io.write", bytes_after("io.write_bytes", 1)),
        constructions.nerve: ("constructions.nerve", cells_after("constructions.nerve_generators")),
        groups.cyclic: ("groups.table", None),
        report.cw_report: ("report", None),
        report.delta_realization_report: ("report", None),
        report.incidence_export: ("report", None),
    }
    for fn, (name, after) in spanned.items():
        _rebind(fn, t.spanned(name, fn, after))

    from_rows = groups.GroupTable.from_rows.__func__
    groups.GroupTable.from_rows = classmethod(t.spanned("groups.table", from_rows))

    # every candidate a horn search tests goes through kan._matches
    matches = kan._matches
    scanned, fillers = [0], [0]
    t.counts["kan.candidates"], t.counts["kan.fillers"] = scanned, fillers

    def matches_counted(p, z, h):
        scanned[0] += 1
        ok = matches(p, z, h)
        fillers[0] += ok
        return ok

    _rebind(matches, matches_counted)
    _rebind(core.degenerate, t.counted("core.degenerate_calls", core.degenerate))
    core.Presentation.face = t.counted("core.face_calls", core.Presentation.face)

    # A cache hit returns the very tuple an earlier call for the same
    # presentation and dimension returned.
    simplices = core.Presentation.simplices
    seen: dict[tuple[int, int], tuple] = {}

    def simplices_after(args, result):
        key = (id(args[0]), args[1])
        t.add("core.simplices_calls")
        if seen.get(key) is result:
            t.add("core.simplices_hits")
        else:
            seen[key] = result
            t.add("core.simplices_built", len(result))

    core.Presentation.simplices = t.spanned("core.simplices", simplices, simplices_after)


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    t = Tracer()
    install(t)
    from ssets import cli

    main_span = t.spanned("cli.main", cli.main)
    try:
        code = main_span(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    t.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
