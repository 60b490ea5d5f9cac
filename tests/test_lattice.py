"""Exact intersection-form arithmetic on sparse classes."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import reference_intersect
from wpdcert.lattice import (
    PMClass,
    PointLabel,
    exceptional,
    intersect,
    line_class,
    p_label,
    parse_label,
    q_label,
    to_json_dict,
)


L = line_class()
EP = exceptional(p_label(0, 2))
EQ = exceptional(q_label(0, 2))


def test_basis_intersections():
    assert intersect(EP, EP) == -1
    assert intersect(EP, EQ) == 0
    assert intersect(L, L) == 1


def test_quadratic_image_pairing():
    labels = [p_label(i, 2) for i in range(3)]
    img = L * 2 - sum((exceptional(lab) for lab in labels), PMClass())
    assert intersect(img, L) == 2


def test_add_and_scale_canonical():
    assert (L + L * -1).is_zero()
    zero = EP * 0
    assert zero.is_zero() and not zero.exc
    e_block = EQ + exceptional(q_label(1, 2))
    assert (L * 2 - e_block) + e_block == L * 2
    # no explicit zeros survive
    assert q_label(0, 2) not in (EQ - EQ).exc


classes = st.builds(
    PMClass,
    st.fractions(min_value=-5, max_value=5),
    st.dictionaries(
        st.builds(PointLabel, st.sampled_from(["p", "q"]), st.integers(min_value=0, max_value=6), st.just(3)),
        st.fractions(min_value=-5, max_value=5),
        max_size=4,
    ),
)


@given(classes, classes, classes, st.fractions(min_value=-4, max_value=4))
def test_bilinear_symmetric(a, b, c, t):
    assert intersect(a, b) == intersect(b, a)
    assert intersect(a + b, c) == intersect(a, c) + intersect(b, c)
    assert intersect(a * t, c) == t * intersect(a, c)


def test_gram_signature_diagonal():
    basis = [L] + [exceptional(q_label(i, 3)) for i in range(6)]
    gram = [[intersect(x, y) for y in basis] for x in basis]
    for i, row in enumerate(gram):
        for j, value in enumerate(row):
            if i != j:
                assert value == 0
            else:
                assert value == (1 if i == 0 else -1)


def test_exact_rational_results():
    c = L * Fraction(2, 3) - exceptional(p_label(0, 3)) * Fraction(1, 7)
    v = intersect(c, c)
    assert isinstance(v, Fraction)
    assert v == Fraction(4, 9) - Fraction(1, 49)


def test_label_identity_rules():
    assert p_label(3, 2) == p_label(3, 2)
    assert p_label(3, 2) != p_label(3, 3)
    assert p_label(3, 2) != q_label(3, 2)
    with pytest.raises(ValueError, match="p/q labels need a context n >= 2"):
        PointLabel("p", 1)  # missing context
    with pytest.raises(ValueError, match="p/q labels need a context n >= 2"):
        PointLabel("q", 1, 1)
    with pytest.raises(ValueError, match="unknown label family 'anon'"):
        PointLabel("anon", 1, 4)
    with pytest.raises(ValueError, match="label index must be a natural number"):
        PointLabel("p", -1, 2)


def test_label_hash_and_equality_are_tuple_builtins():
    assert PointLabel.__hash__ is tuple.__hash__
    assert PointLabel.__eq__ is tuple.__eq__
    assert p_label(3, 2) == ("p", 3, 2) and hash(p_label(3, 2)) == hash(("p", 3, 2))


def test_label_order_is_field_order():
    labels = [p_label(i, n) for i in range(4) for n in (2, 3)]
    labels += [q_label(i, n) for i in range(4) for n in (2, 5)]
    random.Random(11).shuffle(labels)
    expected = sorted(labels, key=lambda lab: (lab.family, lab.index, lab.context_n))
    assert sorted(labels) == expected


def test_label_str_repr_and_immutability():
    label = q_label(12, 3)
    assert str(label) == "q12@n3"
    assert repr(p_label(3, 2)) == "PointLabel(family='p', index=3, context_n=2)"
    with pytest.raises(AttributeError):
        label.index = 4
    with pytest.raises(AttributeError):
        label.extra = 1


def test_label_pickle_and_deepcopy_roundtrip():
    for label in (p_label(0, 2), q_label(12, 3), p_label(7, 11)):
        for twin in (pickle.loads(pickle.dumps(label)), copy.deepcopy(label)):
            assert twin == label and type(twin) is PointLabel


def test_class_keys_must_be_labels():
    with pytest.raises(TypeError, match="PointLabel"):
        PMClass(0, {("p", 1, 2): 1})
    with pytest.raises(TypeError, match="PointLabel"):
        PMClass(0, [(p_label(1, 2), 1), (("p", 1, 2), 1)])


def test_label_parse_roundtrip():
    for label in (p_label(0, 2), q_label(12, 3), p_label(7, 11)):
        assert parse_label(str(label)) == label
    for text in ("z3@n2", "anon7", "p3", "q3@n1", "p-1@n2"):
        with pytest.raises(ValueError):
            parse_label(text)


def test_json_form():
    c = L * Fraction(5, 2) - exceptional(q_label(4, 3)) * Fraction(1, 3) + exceptional(p_label(1, 2))
    assert to_json_dict(c) == {
        "ell": "5/2",
        "exc": [{"label": "p1@n2", "coeff": "1"}, {"label": "q4@n3", "coeff": "-1/3"}],
    }


# denominators from small to far past one machine word, so that one pairing
# mixes many denominators and the per-denominator integer sums must agree
_wide_fractions = st.builds(
    Fraction,
    st.integers(min_value=-(10**30), max_value=10**30),
    st.one_of(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=2**200),
        st.builds(pow, st.sampled_from([2, 3, 5]), st.integers(min_value=0, max_value=400)),
    ),
)
_wide_classes = st.builds(
    PMClass,
    _wide_fractions,
    st.dictionaries(
        st.builds(PointLabel, st.sampled_from(["p", "q"]), st.integers(min_value=0, max_value=5), st.just(3)),
        _wide_fractions,
        max_size=10,
    ),
)


@given(_wide_classes, _wide_classes)
def test_intersect_equals_plain_fraction_sum(c, d):
    assert intersect(c, d) == reference_intersect(c, d)
