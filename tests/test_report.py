"""Report serialization: each kind of raw report value and its JSON form."""

from fractions import Fraction

from wpdcert.certifier import RootExponentMap, fix_set_bruteforce
from wpdcert.fields import PrimeField
from wpdcert.lattice import exceptional, line_class, p_label, q_label
from wpdcert.polymaps import affine_map
from wpdcert.report import to_json


def test_rationals_are_exact_strings():
    assert to_json(Fraction(-3, 7)) == "-3/7"
    assert to_json(Fraction(4)) == "4"


def test_reals_carry_12_significant_digits():
    values = [1 / 3, 1e-20, 2.0, -0.0, float("inf")]
    assert to_json(values) == ["0.333333333333", "1e-20", "2", "-0", "inf"]


def test_ints_bools_strings_and_none_are_kept():
    values = [None, True, False, 7, "x"]
    out = to_json(values)
    assert out == values
    assert [type(v) for v in out] == [type(v) for v in values]


def test_class_lists_its_labels_in_order():
    c = line_class() * 2 + exceptional(q_label(1, 2)) * Fraction(-1, 3) + exceptional(p_label(0, 2)) * 5
    assert to_json(c) == {
        "ell": "2",
        "exc": [{"label": "p0@n2", "coeff": "5"}, {"label": "q1@n2", "coeff": "-1/3"}],
    }


def test_fix_set_maps_carry_their_coefficients():
    assert to_json(affine_map(PrimeField(7), 2, 3, 4, 0)) == {
        "field": "Fp:7", "map": "2*x + 3; 4*y", "a": "2", "b": "3", "c": "4", "d": "0",
    }
    assert to_json(fix_set_bruteforce(2, 7))[1] == {
        "field": "Fp:7", "map": "2*x; 4*y", "a": "2", "b": "0", "c": "4", "d": "0",
    }
    assert to_json(RootExponentMap(8, 3, 6)) == {
        "field": "Q(zeta)", "map": "zeta8^3*x; zeta8^6*y", "modulus": 8, "a_exponent": 3, "c_exponent": 6,
    }


def test_nested_dicts_and_lists_keep_their_shape():
    value = {"a": [Fraction(1, 2), {"b": 0.5, "c": [None, 3]}], "d": {}, "e": []}
    assert to_json(value) == {"a": ["1/2", {"b": "0.5", "c": [None, 3]}], "d": {}, "e": []}

