"""Exact intersection-form arithmetic on sparse classes."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wpdcert.lattice import (
    PMClass,
    PointLabel,
    anon_label,
    exceptional,
    intersect,
    is_unit_timelike,
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
    labels = [anon_label(i) for i in range(3)]
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


def test_unit_timelike():
    assert is_unit_timelike(L)
    assert not is_unit_timelike(EP)
    assert not is_unit_timelike(L * 2)  # norm 4
    assert not is_unit_timelike(L * -1)  # wrong time orientation


classes = st.builds(
    PMClass,
    st.fractions(min_value=-5, max_value=5),
    st.dictionaries(
        st.builds(anon_label, st.integers(min_value=0, max_value=6)),
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
    basis = [L] + [exceptional(anon_label(i)) for i in range(6)]
    gram = [[intersect(x, y) for y in basis] for x in basis]
    for i, row in enumerate(gram):
        for j, value in enumerate(row):
            if i != j:
                assert value == 0
            else:
                assert value == (1 if i == 0 else -1)


def test_exact_rational_results():
    c = L * Fraction(2, 3) - exceptional(anon_label(0)) * Fraction(1, 7)
    v = intersect(c, c)
    assert isinstance(v, Fraction)
    assert v == Fraction(4, 9) - Fraction(1, 49)


def test_label_identity_rules():
    assert p_label(3, 2) == p_label(3, 2)
    assert p_label(3, 2) != p_label(3, 3)
    assert p_label(3, 2) != q_label(3, 2)
    assert anon_label(3) != p_label(3, 2)
    with pytest.raises(ValueError):
        PointLabel("p", 1)  # missing context
    with pytest.raises(ValueError):
        PointLabel("anon", 1, 4)
    with pytest.raises(ValueError):
        PointLabel("p", -1, 2)


def test_label_parse_roundtrip():
    for label in (p_label(0, 2), q_label(12, 3), anon_label(7)):
        assert parse_label(str(label)) == label
    with pytest.raises(ValueError):
        parse_label("z3@n2")


def test_json_form():
    c = L * Fraction(5, 2) - exceptional(q_label(4, 3)) * Fraction(1, 3) + exceptional(anon_label(1))
    assert to_json_dict(c) == {
        "ell": "5/2",
        "exc": [{"label": "anon1", "coeff": "1"}, {"label": "q4@n3", "coeff": "-1/3"}],
    }
