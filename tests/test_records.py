"""The immutable result records: construction, equality, hashing, repr, pickling.

One table row per record class.  The repr texts were pinned from the
output of the ``dataclasses``-based classes these records replaced, so a
change to field order, naming or formatting shows up here.
"""

import copy
import pickle

import pytest

import ssets as S
from ssets import GenId, Simplex
from ssets.core import DDViolation
from ssets.homotopy import BasedPresentation, PiGroup, PiSet, SubPresentation
from ssets.kan import HornSpec, KanReport
from ssets.morphism import (
    FaceMismatch,
    HomotopyData,
    HomotopyReport,
    HomotopyViolation,
    MapReport,
)
from ssets.report import Attachment, CWReport

V = GenId(0, "0")
E = GenId(1, "0.1")
v, e = Simplex((), V), Simplex((), E)
sv = Simplex((0,), V)
D1 = S.standard_simplex(1)
HORN = HornSpec(1, 0, (None, v))

# (class, positional field values, pinned repr)
ROWS = [
    (DDViolation, (E, 0, 1, v, v),
     "DDViolation(gen=GenId(dim=1, name='0.1'), i=0, j=1, "
     "lhs=Simplex(word=(), gen=GenId(dim=0, name='0')), "
     "rhs=Simplex(word=(), gen=GenId(dim=0, name='0')))"),
    (S.ValidationReport, (("bad",), ()),
     "ValidationReport(fatal=('bad',), violations=())"),
    (S.GroupTable, (("e", "g"), ((0, 1), (1, 0)), 0),
     "GroupTable(elements=('e', 'g'), table=((0, 1), (1, 0)), identity=0)"),
    (S.ChainComplex, (((v,),), ((),)),
     "ChainComplex(bases=((Simplex(word=(), gen=GenId(dim=0, name='0')),),), "
     "boundaries=((),))"),
    (S.SNFResult, ((1, 2), 2), "SNFResult(factors=(1, 2), rank=2)"),
    (S.HomologyGroup, (1, (2, 4)), "HomologyGroup(betti=1, torsion=(2, 4))"),
    (BasedPresentation, (D1, V),
     "BasedPresentation(presentation=<Presentation 'delta1' generators=(2, 1) "
     "top_dim=3>, basepoint=GenId(dim=0, name='0'))"),
    (SubPresentation, (D1, frozenset({V})),
     "SubPresentation(parent=<Presentation 'delta1' generators=(2, 1) top_dim=3>, "
     "members=frozenset({GenId(dim=0, name='0')}))"),
    (PiSet, (1, (sv,), ((0,),), 0, False),
     "PiSet(n=1, reps=(Simplex(word=(0,), gen=GenId(dim=0, name='0')),), "
     "classes=((0,),), basepoint_class=0, closure_needed=False)"),
    (PiGroup, (1, (sv,), ((0,),), 0, False, ((0,),)),
     "PiGroup(n=1, reps=(Simplex(word=(0,), gen=GenId(dim=0, name='0')),), "
     "classes=((0,),), basepoint_class=0, closure_needed=False, table=((0,),))"),
    (HomotopyData, (0, {(0, v): sv}),
     "HomotopyData(bound=0, values={(0, Simplex(word=(), gen=GenId(dim=0, name='0'))): "
     "Simplex(word=(0,), gen=GenId(dim=0, name='0'))})"),
    (HomotopyViolation, ("d_0 h_0 = f", 0, 0, 0, v),
     "HomotopyViolation(rule='d_0 h_0 = f', p=0, i=0, j=0, "
     "simplex=Simplex(word=(), gen=GenId(dim=0, name='0')))"),
    (HomotopyReport, ((), ()), "HomotopyReport(fatal=(), violations=())"),
    (HornSpec, (1, 0, (None, v)),
     "HornSpec(n=1, k=0, faces=(None, Simplex(word=(), gen=GenId(dim=0, name='0'))))"),
    (KanReport, (1, (HORN,), 3),
     "KanReport(max_dim=1, witnesses=(HornSpec(n=1, k=0, faces=(None, "
     "Simplex(word=(), gen=GenId(dim=0, name='0')))),), horns_checked=3)"),
    (FaceMismatch, (E, 1, v, sv),
     "FaceMismatch(gen=GenId(dim=1, name='0.1'), i=1, "
     "lhs=Simplex(word=(), gen=GenId(dim=0, name='0')), "
     "rhs=Simplex(word=(0,), gen=GenId(dim=0, name='0')))"),
    (S.MapReport, (("missing",), ()), "MapReport(fatal=('missing',), violations=())"),
    (S.PrismSimplex, (0, v, e, ("0", "0'")),
     "PrismSimplex(k=0, base_component=Simplex(word=(), gen=GenId(dim=0, name='0')), "
     "edge_component=Simplex(word=(), gen=GenId(dim=1, name='0.1')), "
     "vertex_form=('0', \"0'\"))"),
    (Attachment, (0, sv, True),
     "Attachment(index=0, face=Simplex(word=(0,), gen=GenId(dim=0, name='0')), "
     "collapsed=True)"),
    (S.CWReport, ((2, 1), 1, ((E, ()),)),
     "CWReport(cells_per_dim=(2, 1), euler=1, "
     "attachments=((GenId(dim=1, name='0.1'), ()),))"),
]
IDS = [row[0].__name__ for row in ROWS]


def test_table_covers_every_record_class():
    assert len({row[0] for row in ROWS}) == 20


@pytest.mark.parametrize("cls, values, text", ROWS, ids=IDS)
def test_construction_by_position_and_keyword(cls, values, text):
    r = cls(*values)
    assert tuple(getattr(r, f) for f in r._fields) == values
    assert cls(**dict(zip(r._fields, values))) == r
    assert cls(*values[:1], **dict(zip(r._fields[1:], values[1:]))) == r
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, **{r._fields[0]: values[0]})


@pytest.mark.parametrize("cls, values, text", ROWS, ids=IDS)
def test_repr_text_is_pinned(cls, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, values, text", ROWS, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls, values, text):
    r = cls(*values)
    try:
        expected = hash(values)
    except TypeError:  # a mapping field: unhashable either way
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == expected
    assert r == cls(*values) and not r != cls(*values)
    assert r != values


@pytest.mark.parametrize("cls, values, text", ROWS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, values, text):
    r = cls(*values)
    for name in (r._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(r, name, values[0])
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert getattr(r, r._fields[0]) is values[0]


@pytest.mark.parametrize("cls, values, text", ROWS, ids=IDS)
def test_pickle_and_copy_round_trips(cls, values, text):
    r = cls(*values)
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(r, proto)) == r
    assert copy.copy(r) == r
    assert copy.deepcopy(r) == r


def test_records_of_different_classes_are_unequal():
    base = (1, (sv,), ((0,),), 0, False)
    assert PiGroup._fields == (*PiSet._fields, "table")
    assert PiSet(*base) != PiGroup(*base, ((0,),))
    assert PiGroup(*base, ((0,),)) != PiSet(*base)
    # same field names and values, different classes
    reports = [S.ValidationReport((), ()), HomotopyReport((), ()), MapReport((), ())]
    assert [a == b for a in reports for b in reports].count(True) == 3


@pytest.mark.parametrize("cls", [S.ValidationReport, HomotopyReport, MapReport])
def test_reports_share_one_record_shape(cls):
    assert cls._fields == ("fatal", "violations")
    assert cls(("bad",), ()).ok is False and cls((), ("v",)).ok is False
    assert cls((), ()).ok is True


def test_a_class_str_still_wins_over_the_repr():
    assert str(S.HomologyGroup(1, (2,))) == "Z ⊕ Z/2"
    assert str(DDViolation(E, 0, 1, v, sv)).startswith("d_0 d_1 0.1 = ")


def test_post_init_refusals_still_raise():
    with pytest.raises(ValueError):
        S.HomologyGroup(-1, ())
    with pytest.raises(ValueError, match="out of range"):
        HornSpec(1, 2, (v, v))
    with pytest.raises(ValueError, match="not associative"):
        # a Latin square with identity 0 that is not associative
        S.GroupTable(
            tuple("01234"),
            ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
             (3, 2, 4, 0, 1), (4, 3, 1, 2, 0)),
            0,
        )
    with pytest.raises(ValueError, match="vertex"):
        BasedPresentation(D1, E)
    with pytest.raises(S.StructureError, match="face-closed"):
        SubPresentation(D1, frozenset({E}))
