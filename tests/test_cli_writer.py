"""The CLI's structured writer against ``json.dumps``, its oracle.

``--format structured`` prints ``cli._json(payload)``, which must be
byte for byte ``json.dumps(payload, sort_keys=True, indent=2)`` for every
tree of the types a payload holds, and refuse any other value.  The
tests import ``json``; the package does not.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssets import cli

# the characters with an escape of their own, and one of each kind of \uXXXX
SPECIAL = '"\\\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u20ac\ud800\udfff\ufffe\U0001d53e\U0010ffff'
CHARACTERS = st.one_of(
    st.sampled_from(SPECIAL),
    st.characters(exclude_categories=()),  # the whole code-point range
    st.characters(categories=["Cs"]),  # lone surrogates
    st.characters(min_codepoint=0x10000),  # astral: a surrogate pair each
    st.characters(max_codepoint=0x7F),
)
STRINGS = st.text(CHARACTERS, max_size=12)
INTEGERS = st.one_of(
    st.integers(), st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
)
LEAVES = st.one_of(STRINGS, INTEGERS, st.booleans(), st.none())
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
    ),
    max_leaves=24,
)


def dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_the_writer_writes_what_json_dumps_writes(tree):
    assert cli._json(tree) == dumps(tree)


@settings(max_examples=200, deadline=None)
@given(STRINGS)
def test_a_string_is_escaped_as_json_dumps_escapes_it(text):
    assert cli._json(text) == dumps(text)
    assert cli._json(text).isascii()


def test_each_special_character_and_the_empty_containers():
    for value in [*SPECIAL, SPECIAL, [], (), {}, [[], {}, ()], {"": {}}, 2**64, -(2**64)]:
        assert cli._json(value) == dumps(value), repr(value)


@pytest.mark.parametrize(
    # json.dumps writes an int key as a string; no payload has one
    "value", [1.5, {1}, b"x", [0, 1.5], {"a": {1}}, {"a": b"x"}, {1: "a"}], ids=repr
)
def test_a_value_that_no_payload_holds_is_refused(value):
    with pytest.raises(TypeError):
        cli._json(value)
