"""The report writer: ``cli._dumps`` is ``json.dumps(v, indent=2)``, byte for byte."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from wpdcert.cli import _dumps

# strings that look like the separators and record boundaries _dumps cuts on
TRICKY = ["}", '"},\n      {"', "},\n  {", '"', "\\", "\n", "\r\n\t", "é", "日本語", " ", "\ud800", ""]

strings = st.text() | st.sampled_from(TRICKY)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | strings
)
keys = strings | st.integers() | st.floats(allow_nan=True, allow_infinity=True) | st.booleans() | st.none()
records = st.dictionaries(keys, scalars, max_size=4)


def _containers(children):
    items = children | records
    return (
        st.lists(items, max_size=5)
        | st.lists(records, max_size=5)
        | st.dictionaries(keys, items, max_size=5)
    )


trees = st.recursive(scalars | records, _containers, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_dumps_matches_json_indent_2(tree):
    assert _dumps(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize(
    "tree",
    [
        [],
        {},
        [{}],
        [{"a": 1}, {}],
        [{"a": "},\n  {"}, {"b": '"},\n      {"'}],
        {"exc": [{"label": "q0@n2", "coeff": "-1/2"}, {"label": "q1@n2", "coeff": "-1/2"}]},
        [[{1: None, True: "x", None: 2.5, 2.5: math.nan}], {"k": [{"a": math.inf}, 3]}],
        ({"a": 1}, ({"b": 2},)),
    ],
)
def test_dumps_edge_cases(tree):
    assert _dumps(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("tree", [{(1, 2): 3}, {"a": {(1,): [1]}}, [{"a": object()}], {"a": [object()]}])
def test_dumps_refuses_what_json_refuses(tree):
    with pytest.raises(TypeError):
        json.dumps(tree, indent=2)
    with pytest.raises(TypeError):
        _dumps(tree)
