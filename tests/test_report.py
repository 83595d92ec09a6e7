"""Cell censuses, face-only realizations, and the incidence graph."""

import ssets as S


def test_cw_report_two_cell_sphere():
    rep = S.cw_report(S.sphere_two_cell(2))
    assert rep.cells_per_dim == (1, 0, 1)
    assert rep.euler == 2
    (cell, atts), = rep.attachments
    assert cell.name == "c"
    assert all(a.collapsed for a in atts)


def test_cw_report_boundary3():
    rep = S.cw_report(S.boundary(3))
    assert rep.cells_per_dim == (4, 6, 4)
    assert rep.euler == 2
    assert all(not a.collapsed for _, atts in rep.attachments for a in atts)


def test_cw_report_cone():
    rep = S.cw_report(S.cone())
    assert rep.cells_per_dim == (2, 2, 1)
    assert rep.euler == 1


def test_euler_consistency():
    for p in (S.standard_simplex(3), S.cone(), S.sphere_two_cell(3)):
        rep = S.cw_report(p)
        assert rep.euler == sum(
            (-1) ** d * c for d, c in enumerate(rep.cells_per_dim)
        )


def test_delta_report_point_grows_one_cell_per_dim():
    pt = S.standard_simplex(0, top_dim=6)
    assert S.delta_realization_report(pt, 5) == (1, 1, 1, 1, 1, 1)


def test_delta_report_interval():
    d1 = S.standard_simplex(1)
    assert S.delta_realization_report(d1, 3) == (2, 3, 4, 5)


def test_delta_report_on_delta_style_data_counts_generators():
    cone = S.cone()
    assert S.delta_realization_report(cone, 2) == (2, 2, 1)
    assert S.delta_realization_report(cone, 4) == (2, 2, 1, 0, 0)
    # after adjoining degeneracies the same data reads as simplicial
    simp = S.adjoin_degeneracies(cone)
    assert S.delta_realization_report(simp, 2) == tuple(
        simp.count_simplices(n) for n in range(3)
    )


def test_delta_report_matches_cw_for_face_only_delta_data():
    for p in (S.cone(), S.double_edge_circle()):
        cells = S.cw_report(p).cells_per_dim
        assert S.delta_realization_report(p, len(cells) - 1) == cells


def test_incidence_export_interval():
    dot = S.incidence_export(S.standard_simplex(1))
    nodes = [l for l in dot.splitlines() if l.endswith('";')]
    arcs = [l for l in dot.splitlines() if "->" in l]
    assert len(nodes) == 3 and len(arcs) == 2
    assert dot.startswith("digraph")


def test_incidence_export_boundary3():
    dot = S.incidence_export(S.boundary(3))
    nodes = [l for l in dot.splitlines() if l.endswith('";')]
    arcs = [l for l in dot.splitlines() if "->" in l]
    assert len(nodes) == 14 and len(arcs) == 24


def test_incidence_export_sphere_points_collapsed_faces_at_base():
    dot = S.incidence_export(S.sphere_two_cell(2))
    arcs = [l for l in dot.splitlines() if "->" in l]
    # one arc per face index of the cell, all landing on the vertex
    assert len(arcs) == 3
    assert all('-> "v:0"' in a for a in arcs)


def test_incidence_export_is_deterministic():
    p = S.product(S.standard_simplex(1), S.standard_simplex(1))
    assert S.incidence_export(p) == S.incidence_export(p)


def _dot_ids(line):
    """The quoted IDs of a DOT line, by DOT's rule: inside quotes the pair
    backslash, double quote stands for a double quote, and every other
    character for itself."""
    ids, start = [], line.find('"')
    while start >= 0:
        chars, k = [], start + 1
        while line[k] != '"':
            escaped = line.startswith('\\"', k)
            chars.append('"' if escaped else line[k])
            k += 2 if escaped else 1
        ids.append("".join(chars))
        start = line.find('"', k + 1)
    return ids


def test_incidence_export_quotes_names_dot_reads_back():
    a, b, e = S.GenId(0, 'a"x'), S.GenId(0, "b\\"), S.GenId(1, 'e"')
    p = S.Presentation([a, b, e], {e: (S.Simplex((), b), S.Simplex((), a))})
    lines = S.incidence_export(p).splitlines()[1:-1]
    assert [_dot_ids(l) for l in lines] == [
        ['a"x:0'], ["b\\:0"], ['e":1'], ['e":1', 'b\\:0', "0"], ['e":1', 'a"x:0', "1"]
    ]


def test_top_cells_of_simplex_products_match_shuffle_count():
    for p, q in ((1, 1), (2, 1), (2, 2)):
        prod = S.product(S.standard_simplex(p), S.standard_simplex(q))
        cells = S.cw_report(prod).cells_per_dim
        assert cells[p + q] == S.count_nondegenerate_top(p, q)
