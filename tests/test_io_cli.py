"""File formats, round-trips, warnings, and the command-line surface."""

import json
from pathlib import Path

import pytest

import ssets as S
from ssets import cli
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


def test_group_table_document():
    t = sio.load_group_table(FIXTURES / "z3.table")
    assert t.order == 3 and t.mul("g", "g2") == "e"
    with pytest.raises(sio.SemanticError):
        sio.loads_group_table(
            "elements e g\ntable e : e g\ntable g : g g\n"
        )


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
