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


_shared_labels = st.builds(PointLabel, st.sampled_from(["p", "q"]), st.integers(min_value=0, max_value=11), st.just(3))


@st.composite
def _shared_pairs(draw):
    """Two classes built by from_canonical on a small pool of Fraction objects.

    Each object sits on many labels, in runs or interleaved; the second class
    takes either the same objects or equal values held in distinct objects.
    """
    pool = draw(st.lists(_wide_fractions.filter(bool), min_size=1, max_size=4))
    copies = [Fraction(x.numerator, x.denominator) for x in pool]
    assert all(x == y and x is not y for x, y in zip(pool, copies))

    def build(objects):
        picks = list(draw(st.dictionaries(_shared_labels, st.integers(0, len(objects) - 1), max_size=24)).items())
        if draw(st.booleans()):
            picks.sort(key=lambda item: item[1])  # each object on one contiguous run of labels
        return PMClass.from_canonical(draw(_wide_fractions), {label: objects[i] for label, i in picks})

    c = build(pool)
    d = build(draw(st.sampled_from([pool, copies])))
    return c, d


@given(_shared_pairs())
def test_intersect_on_shared_coefficient_objects(pair):
    c, d = pair
    # a cross pairing multiplies the coefficients of every shared label afresh
    assert intersect(c, d) == reference_intersect(c, d)
    assert intersect(d, c) == reference_intersect(d, c)
    # a self-pairing squares once per run of one coefficient object
    assert intersect(c, c) == reference_intersect(c, c)
    assert intersect(d, d) == reference_intersect(d, d)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@st.composite
def _non_chain_coefficients(draw):
    """Fractions whose denominators, in order, are not a divisor chain.

    Decreasing powers of one base, pairwise coprime prime powers, or a chain
    of powers with other denominators mixed in: the fold in intersect meets
    denominators that are not multiples of the running one.
    """
    kind = draw(st.sampled_from(["decreasing", "coprime", "mixed"]))
    if kind == "decreasing":
        base = draw(st.integers(min_value=2, max_value=12))
        exps = draw(st.lists(st.integers(min_value=0, max_value=300), min_size=2, max_size=12, unique=True))
        dens = [base**e for e in sorted(exps, reverse=True)]
    elif kind == "coprime":
        primes = draw(st.lists(st.sampled_from(_PRIMES), min_size=2, max_size=12, unique=True))
        dens = [q ** draw(st.integers(min_value=1, max_value=60)) for q in primes]
    else:
        base = draw(st.sampled_from([2, 3, 5]))
        dens = [base ** (3 * j) for j in range(1, draw(st.integers(min_value=2, max_value=8)))]
        others = draw(st.lists(st.integers(min_value=1, max_value=2**100), min_size=1, max_size=6))
        for other in others:  # the chain keeps its order, the others land anywhere in it
            dens.insert(draw(st.integers(min_value=0, max_value=len(dens))), other)
    nums = st.integers(min_value=-(10**20), max_value=10**20).filter(bool)
    return [Fraction(draw(nums), den) for den in dens]


@given(_non_chain_coefficients(), _wide_fractions, _wide_fractions)
def test_intersect_on_denominators_that_are_no_divisor_chain(coeffs, ell_c, ell_d):
    # c carries the drawn fractions and d carries 1 on the same labels, so
    # their denominators reach intersect in the drawn order, after the l-product's
    labels = [PointLabel("p", k, 3) for k in range(len(coeffs))]
    c = PMClass(ell_c, zip(labels, coeffs))
    d = PMClass(ell_d, {label: 1 for label in labels})
    assert intersect(c, d) == reference_intersect(c, d)
    assert intersect(d, c) == reference_intersect(d, c)


@st.composite
def _self_pairing_classes(draw):
    """A class to pair with itself, its coefficient objects shared in runs, interleaved or not at all.

    The coefficients are wide fractions or fractions whose denominators are
    no divisor chain; ell may be 0.  A cancelling draw adds labels whose
    squares sum to ell^2 (four of ell/2, or 3ell/5 and 4ell/5), so that the
    l-product cancels them exactly.
    """
    pool = draw(st.one_of(st.lists(_wide_fractions.filter(bool), min_size=1, max_size=6), _non_chain_coefficients()))
    ell = draw(st.one_of(st.just(Fraction(0)), _wide_fractions))
    sharing = draw(st.sampled_from(["runs", "interleaved", "unshared"]))
    picks = draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1), max_size=24))
    if sharing == "runs":
        picks.sort()
    coeffs = [pool[i] for i in picks]
    if draw(st.booleans()):
        ell = draw(_wide_fractions.filter(bool))
        parts = [ell / 2] * 4 if draw(st.booleans()) else [ell * Fraction(3, 5), ell * Fraction(4, 5)]
        at = draw(st.integers(min_value=0, max_value=len(coeffs)))
        coeffs[at:at] = parts
    if sharing == "unshared":
        coeffs = [Fraction(x.numerator, x.denominator) for x in coeffs]
    labels = [PointLabel("q", k, 3) for k in range(len(coeffs))]
    return PMClass.from_canonical(ell, dict(zip(labels, coeffs)))


@given(_self_pairing_classes())
def test_self_pairing_equals_the_general_path_and_the_plain_sum(c):
    # the twin holds the same coefficient objects, but is another class, so
    # intersect pairs it by label lookups
    twin = PMClass.from_canonical(c.ell, dict(c.exc))
    value = intersect(c, c)
    assert type(value) is Fraction
    assert value == intersect(c, twin) == intersect(twin, c) == reference_intersect(c, c)
