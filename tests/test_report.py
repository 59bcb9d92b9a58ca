"""JSON writer tests.

``report.to_json`` writes each container in one pass; the writer it
replaced, ``oracles.reference_to_json``, recursed once per value and spelled
every string through ``json.dumps``.  The two must agree byte for byte on
any nested value, and refuse the same values with the same messages.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoinfluence import InputError
from topoinfluence.report import to_json

from oracles import reference_to_json

# Characters json.dumps escapes or passes through specially: quotes,
# backslashes, control characters, the line and paragraph separators
# JavaScript treats as line breaks, non-BMP symbols and lone surrogates.
AWKWARD = ['"', "\\", "/", "\x00", "\b", "\t", "\n", "\x1f", "\x7f", "\u2028",
           "\u2029", "\ud800", "\udfff", "\U0001f600", "\U00010000", "\u00e9"]

texts = st.text(st.characters() | st.sampled_from(AWKWARD))
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, -(2**63) - 1, 2**64 + 1, 10**40])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1e16])
    | texts
)
values = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(texts, inner, max_size=4)
    ),
    max_leaves=30,
)


@given(values)
@settings(max_examples=300, deadline=None)
def test_matches_reference_writer(value):
    assert to_json(value) == reference_to_json(value)


@given(texts)
@settings(max_examples=200, deadline=None)
def test_strings_load_back_unchanged(text):
    assert json.loads(to_json({text: [text]})) == {text: [text]}


def test_empty_containers():
    value = {"a": {}, "b": [], "c": (), "d": [{}, []]}
    assert to_json(value) == reference_to_json(value)
    assert to_json({}) == "{}\n"
    assert to_json([]) == "[]\n"


@pytest.mark.parametrize(
    "value",
    [
        {1: "x"},
        {"a": 1, True: 2},
        {"a": [1, {None: 2}]},
        {"a": float("nan")},
        [1.0, float("inf")],
        {"a": -float("inf"), 1: 2},
        {"a": {1, 2}},
        [b"bytes"],
        object(),
        {"a": [1, 2], 3: float("nan")},
    ],
)
def test_refuses_what_the_reference_refuses(value):
    with pytest.raises(InputError) as want:
        reference_to_json(value)
    with pytest.raises(InputError) as got:
        to_json(value)
    assert str(got.value) == str(want.value)
