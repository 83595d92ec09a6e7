"""The group-law check of ``GroupTable`` and the methods that read rows.

``GroupTable.__post_init__`` reads the laws off whole rows; each case here
must raise, or be accepted, exactly as the entry-by-entry reference in
``tests/helpers.py`` does.
"""

import random

import pytest

import ssets as S
from ssets.kan import HornSpec

from helpers import entrywise_group_check, random_unital_table, seeded_group


def outcome(check, *args):
    """The message check raises with, or None when it accepts."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def same_outcome(elements, table, identity):
    got = outcome(S.GroupTable, elements, table, identity)
    assert got == outcome(entrywise_group_check, elements, table, identity)
    return got


LIBRARY = S.all_group_tables(6) + [("seeded Z/6", seeded_group(S.cyclic(6), 3))]


@pytest.mark.parametrize("label, group", LIBRARY, ids=[label for label, _ in LIBRARY])
def test_every_small_group_is_accepted_as_by_the_reference(label, group):
    assert same_outcome(group.elements, group.table, group.identity) is None


def test_random_unital_tables_get_the_reference_outcome():
    rng = random.Random(30)
    outcomes = [same_outcome(*random_unital_table(rng)) for _ in range(200)]
    # most break associativity; the draw also reaches the inverse law and groups
    assert outcomes.count("multiplication is not associative") > 100
    assert sum(o is not None and o.endswith("has no inverse") for o in outcomes) > 20
    assert outcomes.count(None) > 20


def broken_tables(group):
    """Tables one step from a group: another identity, one entry changed or out of range."""
    n, e, table = group.order, group.identity, group.table
    for other in range(n):
        if other != e:
            yield group.elements, table, other
    for bad in (n, n + 3, -1):
        yield group.elements, (table[0][:-1] + (bad,),) + table[1:], e
    for i in range(n):
        for j in range(n):
            # changing one entry drops an inverse or breaks associativity
            for v in range(n):
                if v != table[i][j]:
                    row = table[i][:j] + (v,) + table[i][j + 1 :]
                    yield group.elements, table[:i] + (row,) + table[i + 1 :], e
    yield group.elements, table, n
    yield group.elements, table, -1


@pytest.mark.parametrize("label, group", LIBRARY, ids=[label for label, _ in LIBRARY])
def test_tables_one_step_from_a_group_get_the_reference_outcome(label, group):
    outcomes = {same_outcome(*args) for args in broken_tables(group)}
    assert None not in outcomes
    assert "table entry out of range" in outcomes
    assert "identity index out of range" in outcomes


def test_the_row_readers_match_their_entrywise_definitions():
    for _, group in LIBRARY:
        n, table = group.order, group.table
        for a in group.elements:
            (inv,) = [b for b in group.elements if group.mul(a, b) == group.identity_name]
            assert group.inverse(a) == inv
        assert group.is_abelian() == all(
            table[i][j] == table[j][i] for i in range(n) for j in range(n)
        )
        rows = [[group.mul(a, b) for b in group.elements] for a in group.elements]
        assert S.GroupTable.from_rows(group.elements, rows) == group
    # rows given as lists read as the same table
    z3 = S.cyclic(3)
    assert S.GroupTable(z3.elements, [list(r) for r in z3.table], 0).is_abelian()


def test_from_rows_wants_exactly_one_identity():
    with pytest.raises(ValueError, match="^table has no unique identity element$"):
        S.GroupTable.from_rows("ab", ["ba", "bb"])
    with pytest.raises(ValueError, match="^table has no unique identity element$"):
        S.GroupTable.from_rows("ab", ["aa", "aa"])
    # a row past the last element, or a short row, is no table at all
    for rows in (["eg", "ge", "eg"], ["eg", "g"], ["e", "eg"]):
        with pytest.raises(ValueError, match="^multiplication table has the wrong shape$"):
            S.GroupTable.from_rows("eg", rows)


def test_an_element_name_that_is_not_a_string_is_refused():
    with pytest.raises(ValueError, match="^element name 1 is not a string$"):
        S.GroupTable((1, 2), ((0, 1), (1, 0)), 0)
    with pytest.raises(ValueError, match=r"^element name None is not a string$"):
        S.GroupTable(("e", None), ((0, 1), (1, 0)), 0)


@pytest.mark.parametrize(
    "table",
    [
        ((0, 1), (1, 0.5)),  # read past the range check, it has no inverse
        ((0, 1), (1, 0.0)),  # equal to an index, but no index
        ((0, 1), (1, "0")),
        ((0, 1), (1, None)),
        ((0, 1), (1, [0])),
    ],
)
def test_a_table_entry_that_is_not_an_integer_is_out_of_range(table):
    with pytest.raises(ValueError, match="^table entry out of range$"):
        S.GroupTable(("e", "g"), table, 0)


@pytest.mark.parametrize("identity", [0.5, 1.0, "0", None])
def test_an_identity_that_is_not_an_index_is_out_of_range(identity):
    with pytest.raises(ValueError, match="^identity index out of range$"):
        S.GroupTable(("e", "g"), ((0, 1), (1, 0)), identity)


def test_a_horn_face_that_is_not_a_simplex_is_refused():
    with pytest.raises(ValueError, match="^face in slot 1 is not a simplex: 'x'$"):
        HornSpec(1, 0, (None, "x"))

