"""File formats, round-trips, warnings, and the command-line surface."""

import hashlib
import json
import random
import time
import tracemalloc
from pathlib import Path

import pytest

import ssets as S
from ssets import Simplex, cli
from ssets import io as sio

FIXTURES = Path(__file__).parent.parent / "fixtures"


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- presentation documents --------------------------------------------------


def test_every_shipped_fixture_validates():
    for path in sorted(FIXTURES.glob("*.sset")):
        p = sio.load_presentation(path)
        assert p.validate().ok, path.name


def test_round_trip_is_byte_identical():
    for path in sorted(FIXTURES.glob("*.sset")):
        text = path.read_text()
        p = sio.loads_presentation(text, name=path.stem)
        assert sio.dumps_presentation(p) == text, path.name


def test_non_canonical_word_normalizes_with_warning():
    doc = """
name wonky
top_dim 4
generators 0 : v
generators 3 : c
faces c : s0 s0 v ; s0 s0 v ; s0 s0 v ; s1 s0 v
"""
    with pytest.warns(sio.NormalizationWarning):
        p = sio.loads_presentation(doc)
    c = p.generator(3, "c")
    v = p.generator(0, "v")
    assert p.faces_of(c)[0] == S.Simplex((1, 0), v)
    assert p.faces_of(c) == tuple([S.Simplex((1, 0), v)] * 4)
    assert p.validate().ok


def test_missing_face_entry_is_semantic_error():
    doc = """
top_dim 2
generators 0 : a b
generators 1 : e
"""
    with pytest.raises(sio.SemanticError, match="e"):
        sio.loads_presentation(doc)


def test_wrong_face_count_is_semantic_error():
    doc = """
top_dim 2
generators 0 : a b
generators 1 : e
faces e : a
"""
    with pytest.raises(sio.SemanticError, match="needs 2 faces"):
        sio.loads_presentation(doc)


def test_dangling_name_is_semantic_error():
    doc = """
top_dim 2
generators 0 : a
generators 1 : e
faces e : a ; ghost
"""
    with pytest.raises(sio.SemanticError, match="ghost"):
        sio.loads_presentation(doc)


def test_parse_error_carries_line_number():
    with pytest.raises(sio.ParseError) as err:
        sio.loads_presentation("top_dim 2\nnonsense line here\n")
    assert err.value.line == 2


# Face expressions are parsed once per distinct text and dimension; these
# pin what a repeated expression must still do on every line it is on.

REPEATED_NON_CANONICAL = """
top_dim 4
generators 0 : v
generators 3 : c d
faces c : s0 s0 v ; s1 s0 v ; s1 s0 v ; s1 s0 v
faces d : s1 s0 v ; s0 s0 v ; s1 s0 v ; s1 s0 v
"""


def test_repeated_non_canonical_word_warns_on_every_line():
    with pytest.warns(sio.NormalizationWarning) as record:
        p = sio.loads_presentation(REPEATED_NON_CANONICAL)
    assert [str(w.message) for w in record] == [
        "degeneracy word in 's0 s0 v' normalized to 's1 s0 v'"
    ] * 2
    assert p.validate().ok


def test_repeated_bad_operator_names_its_first_line():
    doc = "top_dim 2\ngenerators 0 : a b\ngenerators 1 : e f g\n" + (
        "faces e : b ; a\nfaces f : x1 a ; a\nfaces g : x1 a ; b\n"
    )
    with pytest.raises(sio.ParseError, match="^line 5: bad degeneracy operator 'x1'$") as err:
        sio.loads_presentation(doc)
    assert err.value.line == 5


def test_repeated_unknown_generator_keeps_its_message():
    doc = "top_dim 2\ngenerators 0 : a\ngenerators 1 : e f\n" + (
        "faces e : ghost ; a\nfaces f : ghost ; a\n"
    )
    with pytest.raises(sio.SemanticError) as err:
        sio.loads_presentation(doc)
    assert str(err.value) == (
        "expression 'ghost' references unknown generator 'ghost' in dimension 0"
    )


def test_same_expression_text_in_two_dimensions():
    # "a" names a vertex in d_i of the edge and the edge in d_i of t
    doc = "top_dim 2\ngenerators 0 : a\ngenerators 1 : a\ngenerators 2 : t\n" + (
        "faces a : a ; a\nfaces t : a ; a ; a\n"
    )
    p = sio.loads_presentation(doc)
    assert p.faces_of(p.generator(1, "a")) == (Simplex((), S.GenId(0, "a")),) * 2
    assert p.faces_of(p.generator(2, "t")) == (Simplex((), S.GenId(1, "a")),) * 3


# A face expression that is a generator name of the right dimension is one
# table lookup; every near miss must still reach the parser and fail there
# with the same text.

LOOKUP_MISSES = [
    (  # names a generator, but one of another dimension
        "top_dim 2\ngenerators 0 : a b\ngenerators 1 : e f\nfaces e : b ; a\nfaces f : e ; a\n",
        sio.SemanticError,
        "expression 'e' references unknown generator 'e' in dimension 0",
    ),
    (  # a bare operator, which no generator name can be
        "top_dim 2\ngenerators 0 : a b\ngenerators 1 : e\nfaces e : s0 ; a\n",
        sio.SemanticError,
        "expression 's0' references unknown generator 's0' in dimension 0",
    ),
    (  # a name defined only as a vertex, used for an edge
        "top_dim 2\ngenerators 0 : v\ngenerators 1 : e\ngenerators 2 : t\n"
        "faces e : v ; v\nfaces t : e ; v ; e\n",
        sio.SemanticError,
        "expression 'v' references unknown generator 'v' in dimension 1",
    ),
    (  # a generator name in operator position
        "top_dim 2\ngenerators 0 : a b\ngenerators 1 : e f\nfaces e : b ; a\nfaces f : e a ; a\n",
        sio.ParseError,
        "line 5: bad degeneracy operator 'e'",
    ),
]


@pytest.mark.parametrize("doc, error, message", LOOKUP_MISSES)
def test_lookup_misses_keep_the_parser_errors(doc, error, message):
    with pytest.raises(error) as err:
        sio.loads_presentation(doc)
    assert str(err.value) == message
    if error is sio.ParseError:
        assert err.value.line == 5


def test_non_canonical_word_twice_on_one_line_warns_twice():
    doc = "top_dim 3\ngenerators 0 : v\ngenerators 3 : d\n" + (
        "faces d : s0 s0 v ; s0 s0 v ; s1 s0 v ; s1 s0 v\n"
    )
    with pytest.warns(sio.NormalizationWarning) as record:
        p = sio.loads_presentation(doc)
    assert [str(w.message) for w in record] == [
        "degeneracy word in 's0 s0 v' normalized to 's1 s0 v'"
    ] * 2
    v = p.generator(0, "v")
    assert p.faces_of(p.generator(3, "d")) == (Simplex((1, 0), v),) * 4


def test_missing_top_dim_rejected():
    with pytest.raises(sio.ParseError, match="top_dim"):
        sio.loads_presentation("generators 0 : a\n")


def test_reserved_names_rejected():
    with pytest.raises(sio.ParseError):
        sio.loads_presentation("top_dim 1\ngenerators 0 : s0\n")


def test_unserializable_names_rejected_on_save():
    p = S.Presentation([S.GenId(0, "a:b")], {})
    with pytest.raises(sio.SemanticError):
        sio.dumps_presentation(p)
    # a name ending in a line feed once passed, and read back as another name
    with pytest.raises(sio.SemanticError, match=r"'a\\n' cannot be written"):
        sio.dumps_presentation(S.Presentation([S.GenId(0, "a\n")], {}))


# name characters, separators and every kind of whitespace, including line
# breaks and Unicode spaces; "٣" is a decimal digit outside ASCII
NAME_ALPHABET = "ss0919٣a.;:#" + " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"


def name_error(n):
    """What is wrong with a generator name, by the grammar's words, or None."""
    if not n or any(c.isspace() or c in ";:#" for c in n):
        return "invalid name"
    if n[0] == "s" and n[1:].isdecimal():
        return "collides"
    return None


def test_name_pattern_matches_the_per_name_rules():
    rng = random.Random(20)
    for _ in range(20_000):
        name = "".join(rng.choices(NAME_ALPHABET, k=rng.randint(0, 6)))
        error = name_error(name)
        assert bool(sio._NAME_RE.match(name)) == (error is None), repr(name)
        if error is None:
            assert sio._check_name(name, 1) == name
            continue
        with pytest.raises(sio.ParseError) as caught:
            sio._check_name(name, 1)
        assert ("collides" in str(caught.value)) == (error == "collides")
    for _ in range(300):  # long generators lines, with one bad name anywhere or none
        drawn = ["".join(rng.choices("s09a.;", k=rng.randint(1, 4))) for _ in range(800)]
        names = list(dict.fromkeys(n for n in drawn if not name_error(n)))
        bad = rng.choice([n for n in drawn if name_error(n)]) if rng.random() < 0.5 else None
        if bad is not None:
            names.insert(rng.randint(0, len(names)), bad)
        doc = "top_dim 0\ngenerators 0 : " + rng.choice(" \t").join(names) + "\n"
        if bad is None:
            assert [g.name for g in sio.loads_presentation(doc).generators_at(0)] == sorted(names)
            continue
        with pytest.raises(sio.ParseError) as caught:
            sio.loads_presentation(doc)
        assert repr(bad) in str(caught.value)
        assert ("collides" in str(caught.value)) == (name_error(bad) == "collides")


def test_writer_name_check_matches_the_per_name_rules():
    rng = random.Random(21)
    for _ in range(3_000):
        names = [
            "".join(rng.choices(NAME_ALPHABET, k=rng.randint(0, 4)))
            for _ in range(rng.randint(0, 150))
        ]
        bad = next((n for n in names if name_error(n)), None)
        if bad is None:
            sio._check_writable(names)
            continue
        with pytest.raises(sio.SemanticError) as caught:
            sio._check_writable(names)
        assert str(caught.value) == f"generator name {bad!r} cannot be written in the file grammar"


def test_a_presentation_saves_exactly_when_its_names_pass_and_loads_back_equal():
    rng = random.Random(22)

    def names(count):  # most from the name characters alone: about half the cases save
        return dict.fromkeys(
            "".join(rng.choices(
                NAME_ALPHABET if rng.random() < 0.1 else NAME_ALPHABET[:9], k=rng.randint(1, 4)
            ))
            for _ in range(count)
        )

    for _ in range(2_000):
        vertices = [Simplex((), S.GenId(0, n)) for n in names(rng.randint(1, 5))]
        edges = {
            S.GenId(1, n): (rng.choice(vertices), rng.choice(vertices))
            for n in names(rng.randint(0, 4))
        }
        p = S.Presentation([v.gen for v in vertices] + list(edges), edges)
        bad = [g.name for g in p.all_generators() if name_error(g.name)]
        if bad:
            with pytest.raises(sio.SemanticError) as caught:
                sio.dumps_presentation(p)
            assert str(caught.value) == (
                f"generator name {bad[0]!r} cannot be written in the file grammar"
            )
            continue
        assert sio.loads_presentation(sio.dumps_presentation(p)) == p


def test_a_long_generators_line_reports_its_bad_last_name_at_once(tmp_path):
    names = " ".join(f"v{k}" for k in range(19_999))
    path = tmp_path / "long.sset"
    for bad, message in (
        ("s7", "line 2: name 's7' collides with degeneracy-operator syntax"),
        ("v;", "line 2: invalid name 'v;'"),
    ):
        path.write_text(f"top_dim 0\ngenerators 0 : {names} {bad}\n")
        for load in (
            lambda: sio.loads_presentation(path.read_text()),
            lambda: sio.load_presentation(path),
        ):
            start = time.perf_counter()
            with pytest.raises(sio.ParseError) as caught:
                load()
            assert time.perf_counter() - start < 1
            assert (str(caught.value), caught.value.line) == (message, 2)
    path.write_text(f"top_dim 0\ngenerators 0 : {names}\n")
    assert sio.load_presentation(path).generator_counts() == (19_999,)


@pytest.mark.parametrize("head, value", [("top_dim", "2"), ("style", "delta")])
def test_a_second_top_dim_or_style_line_is_a_parse_error(head, value):
    doc = f"{head} {value}\ntop_dim 1\nstyle simplicial\ngenerators 0 : v\n"
    with pytest.raises(sio.ParseError) as caught:
        sio.loads_presentation(doc)
    line = 2 if head == "top_dim" else 3
    assert (str(caught.value), caught.value.line) == (f"line {line}: duplicate {head} line", line)


def test_the_last_name_line_wins():
    p = sio.loads_presentation("name a\ntop_dim 0\nname b\ngenerators 0 : v\n")
    assert p.name == "b"


@pytest.mark.parametrize(
    "name",
    ["a#b", " a", "a ", "a\tb\t", "a\nb", "a\rb", "a\x0bb", "a\x0cb", "a\x1cb",
     "a\x1db", "a\x1eb", "a\x85b", "a\u2028b", "a\u2029b"],
)
def test_document_name_that_does_not_read_back_is_refused_on_save(tmp_path, name):
    p = S.Presentation([S.GenId(0, "v")], {}, name=name)
    with pytest.raises(sio.SemanticError, match="document name .* cannot be written"):
        sio.dumps_presentation(p)
    f = tmp_path / "kept.sset"
    f.write_text("untouched\n")
    with pytest.raises(sio.SemanticError):
        sio.save_presentation(p, f)
    assert f.read_text() == "untouched\n"


def test_document_name_with_inner_spaces_reads_back():
    p = S.Presentation([S.GenId(0, "v")], {}, name="(a b\tx c)")
    assert sio.loads_presentation(sio.dumps_presentation(p)).name == "(a b\tx c)"


def test_cli_product_refuses_a_name_that_does_not_read_back(tmp_path, capsys):
    # with no name line the stem names the factor, and '#' starts a comment
    left = tmp_path / "a#b.sset"
    left.write_text((FIXTURES / "delta1.sset").read_text().replace("name delta1\n", ""))
    out_file = tmp_path / "out.sset"
    out_file.write_text("untouched\n")
    code, out, err = run(capsys, "product", left, FIXTURES / "delta1.sset", "-o", out_file)
    assert (code, out) == (2, "")
    assert err == (
        "error: document name '(a#bxdelta1)' cannot be written in the file grammar\n"
    )
    assert out_file.read_text() == "untouched\n"


def test_cli_product_refuses_cells_whose_names_collide(tmp_path, capsys):
    # factor names may hold '[', ']' and '|': four pairs, three names
    left, right = tmp_path / "left.sset", tmp_path / "right.sset"
    left.write_text("top_dim 0\ngenerators 0 : p p]|[q\n")
    right.write_text("top_dim 0\ngenerators 0 : q]|[r r\n")
    out_file = tmp_path / "out.sset"
    code, out, err = run(capsys, "product", left, right, "-o", out_file)
    assert (code, out) == (2, "")
    assert err == (
        "error: pairs (p, q]|[r) and (p]|[q, r) are both named '([p]|[q]|[r])'\n"
    )
    assert not out_file.exists()


def test_s3_nerve_round_trips_through_the_file_grammar(tmp_path):
    p = S.nerve(S.symmetric_3(), 3)
    assert [g.name for g in p.generators_at(1)] == ["r", "r2", "t01", "t02", "t12"]
    f = tmp_path / "s3.sset"
    S.save_presentation(p, f)
    q = S.load_presentation(f)
    assert q == p
    assert all(q.simplices(n) == p.simplices(n) for n in range(4))


def test_map_document_round_trip():
    m = sio.load_map(FIXTURES / "collapse.smap")
    assert S.validate_map(m).ok
    assert m.source.name == "delta2" and m.target.name == "delta1"


@pytest.mark.parametrize("bad, message", [
    ("assign 0 0", "line 4: assign line needs a ':'"),
    ("assign 0 :  ", "line 4: empty face expression"),
    ("assign 0 : t0 0", "line 4: bad degeneracy operator 't0'"),
])
@pytest.mark.parametrize("later", ["bogus line", "source missing.sset"])
def test_map_file_reports_its_first_bad_line_before_later_lines_and_files(
    tmp_path, bad, message, later
):
    lines = (FIXTURES / "collapse.smap").read_text().splitlines()
    lines[3], lines[4] = bad, later
    for f in ("delta1.sset", "delta2.sset"):
        (tmp_path / f).write_bytes((FIXTURES / f).read_bytes())
    doc = tmp_path / "bad.smap"
    doc.write_text("\n".join(lines) + "\n")
    with pytest.raises(sio.ParseError, match=f"^{message}$"):
        sio.load_map(doc)


def test_group_table_document():
    t = sio.load_group_table(FIXTURES / "z3.table")
    assert t.order == 3 and t.mul("g", "g2") == "e"
    with pytest.raises(sio.SemanticError):
        sio.loads_group_table(
            "elements e g\ntable e : e g\ntable g : g g\n"
        )


DUPLICATE_ROW_TABLE = "elements e a\ntable e : e a\ntable a : e e\ntable a : a e\n"


def test_group_table_with_two_rows_for_one_element_is_a_parse_error():
    with pytest.raises(sio.ParseError, match="^line 4: duplicate table row for 'a'$"):
        sio.loads_group_table(DUPLICATE_ROW_TABLE)


def test_cli_nerve_refuses_a_table_with_two_rows_for_one_element(tmp_path, capsys):
    table = tmp_path / "dup.table"
    table.write_text(DUPLICATE_ROW_TABLE)
    out_file = tmp_path / "dup.sset"
    code, out, err = run(
        capsys, "nerve", "--table", table, "--top-dim", 2, "-o", out_file
    )
    assert (code, out) == (2, "")
    assert err == "error: line 4: duplicate table row for 'a'\n"
    assert not out_file.exists()


def test_cli_nerve_refuses_an_unwritable_element_name_before_building(
    tmp_path, capsys, monkeypatch
):
    table = tmp_path / "klein.table"
    table.write_text(
        "elements e s1 s0 a\ntable e : e s1 s0 a\ntable s1 : s1 e a s0\n"
        "table s0 : s0 a e s1\ntable a : a s0 s1 e\n"
    )
    out_file = tmp_path / "klein.sset"
    built = []
    monkeypatch.setattr("ssets.constructions.nerve", lambda *args: built.append(args))
    code, out, err = run(
        capsys, "nerve", "--table", table, "--top-dim", 3, "-o", out_file
    )
    assert (code, out, built) == (2, "", [])
    assert err == "error: generator name 's0' cannot be written in the file grammar\n"
    assert not out_file.exists()
    # a bound below 1 is still refused by nerve itself, as before
    monkeypatch.undo()
    code, out, err = run(
        capsys, "nerve", "--table", table, "--top-dim", 0, "-o", out_file
    )
    assert (code, out, err) == (2, "", "error: nerve truncation must be >= 1\n")


# -- command-line surface -----------------------------------------------------


def test_cli_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", FIXTURES / "delta2.sset")
    assert code == 0 and "valid" in out


def test_cli_validate_failure_exits_one(tmp_path, capsys):
    doc = """
top_dim 2
generators 0 : p q r
generators 1 : pq pr qr
generators 2 : t
faces pq : q ; p
faces pr : r ; p
faces qr : r ; q
faces t : qr ; pq ; pr
"""
    bad = tmp_path / "bad.sset"
    bad.write_text(doc)
    code, out, _ = run(capsys, "validate", bad)
    assert code == 1 and "violation" in out


def test_cli_parse_error_exits_two(tmp_path, capsys):
    f = tmp_path / "broken.sset"
    f.write_text("what is this\n")
    code, _, err = run(capsys, "validate", f)
    assert code == 2 and "error" in err


def test_cli_kan_witness_exit_code(capsys):
    code, out, _ = run(capsys, "kan", FIXTURES / "delta1.sset", "--max-dim", 2)
    assert code == 1
    assert "horn(2,0)[d_1=s0 0, d_2=0.1]" in out


def test_cli_kan_positive(capsys):
    code, out, _ = run(capsys, "kan", FIXTURES / "nerve_z2.sset", "--max-dim", 3)
    assert code == 0 and "Kan at this bound" in out


@pytest.mark.parametrize("fmt", [[], ["--format", "structured"]], ids=["text", "structured"])
@pytest.mark.parametrize("flags", [[], ["--nondegenerate"]], ids=["total", "nondegenerate"])
def test_cli_census_refuses_a_negative_dimension(capsys, fmt, flags):
    code, out, err = run(capsys, *fmt, "census", FIXTURES / "delta2.sset", "--dim", -1, *flags)
    assert (code, out, err) == (2, "", "error: dimension must be >= 0\n")


def test_cli_census_product_pipeline(tmp_path, capsys):
    sq = tmp_path / "sq.sset"
    code, out, _ = run(
        capsys, "product", FIXTURES / "delta1.sset", FIXTURES / "delta1.sset",
        "-o", sq,
    )
    assert code == 0
    code, out, _ = run(capsys, "census", sq, "--dim", 2)
    assert code == 0 and ": 16" in out
    code, out, _ = run(capsys, "census", sq, "--dim", 2, "--nondegenerate")
    assert code == 0 and ": 2" in out


def test_delta4_squared_product_file_and_its_payloads_are_pinned(tmp_path, capsys):
    # the 10,271-cell product file, byte for byte as the pair-by-pair
    # product with uncached face rewriting wrote it
    data = sio.dumps_presentation(
        S.product(S.standard_simplex(4), S.standard_simplex(4))
    ).encode()
    assert len(data) == 2_075_662
    assert hashlib.sha256(data).hexdigest() == (
        "d314e5596e6a42e0538fd91577939887c5ad5cdc5f8f517f71e8e8e9442e413b"
    )
    f = tmp_path / "d4xd4.sset"
    f.write_bytes(data)
    code, out, err = run(capsys, "--format", "structured", "validate", f)
    assert (code, err) == (0, "")
    assert out == (
        '{\n  "command": "validate",\n  "fatal": [],\n  "valid": true,\n'
        '  "violations": []\n}\n'
    )
    code, out, err = run(
        capsys, "--format", "structured", "census", f, "--dim", 8, "--nondegenerate"
    )
    assert (code, err) == (0, "")
    assert out == (
        '{\n  "command": "census",\n  "count": 70,\n  "dim": 8,\n'
        '  "kind": "nondegenerate"\n}\n'
    )


def test_load_and_save_peaks_stay_near_their_results(tmp_path):
    # Traced allocations around a load and a save of the 1,007-cell Δ3×Δ3
    # file.  On Python 3.10-3.13 the load peaks at 1.33-1.42 times its
    # result, and the save, which formats only degenerate faces, peaks
    # above the loaded result by 0.20-0.22 times the file's size.
    p = S.product(S.standard_simplex(3), S.standard_simplex(3))
    f = tmp_path / "d3xd3.sset"
    sio.save_presentation(p, f)
    size = f.stat().st_size
    tracemalloc.start()
    try:
        q = sio.load_presentation(f)
        result, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sio.save_presentation(q, f)
        _, save_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert q == p and size == 141_352
    assert load_peak < 1.5 * result
    assert save_peak - result < 0.3 * size


def test_cli_pi_prints_cayley_table(capsys):
    code, out, _ = run(capsys, "pi", FIXTURES / "nerve_z3.sset", "--n", 1)
    assert code == 0
    assert "order 3" in out and "multiplication table" in out


def test_cli_pi_with_kan_precheck(capsys):
    code, out, _ = run(
        capsys, "pi", FIXTURES / "nerve_z2.sset", "--n", 1, "--check-kan"
    )
    assert code == 0 and "order 2" in out


def test_cli_pirel_and_pi0(capsys):
    code, out, _ = run(
        capsys, "pirel", FIXTURES / "nerve_z4.sset",
        "--sub", FIXTURES / "nerve_z4_sub2.sset", "--n", 1,
    )
    assert code == 0 and "order 2" in out
    code, out, _ = run(capsys, "pi0", FIXTURES / "circle2.sset")
    assert code == 0 and "1 path components" in out


def test_cli_homotopic(capsys):
    code, out, _ = run(
        capsys, "homotopic", FIXTURES / "nerve_z2.sset", "--n", 1, "g", "g"
    )
    assert code == 0 and "yes" in out
    code, out, _ = run(
        capsys, "homotopic", FIXTURES / "nerve_z2.sset", "--n", 1, "g", "s0 *"
    )
    assert code == 1 and "no" in out


def test_cli_homology_and_euler(capsys):
    code, out, _ = run(capsys, "homology", FIXTURES / "nerve_z2.sset", "--max-dim", 4)
    assert code == 0
    assert "H_0 = Z" in out and "H_1 = Z/2" in out and "H_2 = 0" in out
    code, out, _ = run(capsys, "euler", FIXTURES / "sphere2.sset")
    assert code == 0 and "2" in out


def test_cli_standard_and_nerve_generation(tmp_path, capsys):
    out_file = tmp_path / "b3.sset"
    code, _, _ = run(capsys, "standard", "--boundary", 3, "-o", out_file)
    assert code == 0
    assert sio.load_presentation(out_file).generator_counts() == (4, 6, 4)

    horn_file = tmp_path / "h.sset"
    code, _, _ = run(capsys, "standard", "--horn", 2, 0, "-o", horn_file)
    assert code == 0
    names = sorted(g.name for g in sio.load_presentation(horn_file).all_generators())
    assert names == ["0", "0.1", "0.2", "1", "2"]

    nerve_file = tmp_path / "n.sset"
    code, _, _ = run(
        capsys, "nerve", "--table", FIXTURES / "z3.table", "--top-dim", 3,
        "-o", nerve_file,
    )
    assert code == 0
    assert sio.load_presentation(nerve_file).generator_counts() == (1, 2, 4, 8)

    code, _, _ = run(capsys, "nerve", "--cyclic", 2, "--top-dim", 2, "-o", nerve_file)
    assert code == 0
    assert sio.load_presentation(nerve_file).generator_counts() == (1, 1, 1)


def test_cli_reports(capsys):
    code, out, _ = run(capsys, "cw-report", FIXTURES / "sphere2.sset")
    assert code == 0 and "(1, 0, 1)" in out and "[collapsed]" in out
    code, out, _ = run(capsys, "delta-report", FIXTURES / "cone.sset", "--max-dim", 2)
    assert code == 0 and "(2, 2, 1)" in out
    code, out, _ = run(capsys, "export-graph", FIXTURES / "delta1.sset")
    assert code == 0 and out.count("->") == 2


def test_cli_structured_output_is_stable(capsys):
    args = ("--format", "structured", "homology", FIXTURES / "nerve_z2.sset",
            "--max-dim", 4)
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["groups"][1] == {"betti": 0, "degree": 1, "torsion": [2]}


def test_cli_structured_kan_witnesses(capsys):
    code, out, _ = run(
        capsys, "--format", "structured", "kan", FIXTURES / "delta1.sset",
        "--max-dim", 2,
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["is_kan"] is False
    assert {"n": 2, "k": 0, "faces": {"1": "s0 0", "2": "0.1"}} in doc["witnesses"]


def test_product_file_round_trips_and_revalidates(tmp_path, capsys):
    out_file = tmp_path / "sq.sset"
    run(capsys, "product", FIXTURES / "delta1.sset", FIXTURES / "delta1.sset",
        "-o", out_file)
    loaded = sio.load_presentation(out_file)
    assert loaded.validate().ok
    d1 = sio.load_presentation(FIXTURES / "delta1.sset")
    assert loaded == S.product(d1, d1)
    # generator names with product punctuation survive a save/load cycle
    assert sio.dumps_presentation(loaded) == out_file.read_text()


def test_cli_pi_obstruction_exits_one(tmp_path, capsys):
    code, _, err = run(capsys, "pi", FIXTURES / "sphere2.sset", "--n", 2,
                       "--basepoint", "v")
    assert code == 1 and "obstruction" in err


def test_cli_pirel_rejects_mismatched_subcomplex(tmp_path, capsys):
    code, _, err = run(
        capsys, "pirel", FIXTURES / "nerve_z4.sset",
        "--sub", FIXTURES / "nerve_z2.sset", "--n", 1,
    )
    assert code == 2 and "error" in err


def test_cli_structured_pi_includes_table(capsys):
    code, out, _ = run(
        capsys, "--format", "structured", "pi", FIXTURES / "nerve_z2.sset", "--n", 1
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 2
    assert doc["table"] in ([[0, 1], [1, 0]], [[1, 0], [0, 1]])


def test_cli_truncation_is_a_tool_error(tmp_path, capsys):
    code, _, err = run(capsys, "kan", FIXTURES / "nerve_z2.sset", "--max-dim", 9)
    assert code == 2 and "undecidable" in err


def test_cli_normalization_warning_goes_to_stderr(tmp_path, capsys):
    doc = """
top_dim 4
generators 0 : v
generators 3 : c
faces c : s0 s0 v ; s0 s0 v ; s0 s0 v ; s0 s0 v
"""
    f = tmp_path / "w.sset"
    f.write_text(doc)
    code, _, err = run(capsys, "validate", f)
    assert code == 0 and "normalized" in err


def test_cli_warns_on_each_line_of_a_repeated_non_canonical_word(tmp_path, capsys):
    f = tmp_path / "twice.sset"
    f.write_text(REPEATED_NON_CANONICAL)
    code, out, err = run(capsys, "validate", f)
    assert code == 0 and "valid (3 generators)" in out
    assert err == (
        "warning: degeneracy word in 's0 s0 v' normalized to 's1 s0 v'\n" * 2
    )


def test_operator_with_more_digits_than_int_converts_is_a_parse_error():
    text = (
        "top_dim 1\ngenerators 0 : v\ngenerators 1 : e\n"
        f"faces e : s{'9' * 5000} v ; v\n"
    )
    with pytest.raises(sio.ParseError, match="line 4: bad degeneracy operator"):
        sio.loads_presentation(text)
