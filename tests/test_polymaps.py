"""Polynomial map composition, degrees, and the conjugation expansion."""

import random
from fractions import Fraction

import pytest

import oracles
from wpdcert._bruteforce import _CoeffRing
from wpdcert.fields import PrimeField, QQ
from wpdcert.polymaps import (
    Poly2,
    PolyMap,
    affine_map,
    compose,
    conjugate_by_henon,
    degree,
    henon_inverse,
    henon_map,
    serialize_map,
    translation,
)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_henon_inverse_composes_to_identity(n, field):
    if field.char and n % field.char == 0:
        pytest.skip("characteristic divides n")
    h = henon_map(n, field)
    hinv = henon_inverse(n, field)
    identity = affine_map(field, 1, 0, 1, 0)
    assert compose(h, hinv) == identity
    assert compose(hinv, h) == identity


def test_shift_map_factors_through_involutions():
    x, y = Poly2.variable(QQ, "x"), Poly2.variable(QQ, "y")
    swap = PolyMap(QQ, y, x)
    for n in (2, 3, 4):
        jonquieres = PolyMap(QQ, Poly2(QQ, {(0, n): Fraction(1), (1, 0): Fraction(-1)}), y)  # (y^n - x, y)
        assert compose(swap, jonquieres) == henon_map(n)


def test_char_p_translation_identity_examples():
    # (x^p - y, x) o (x + a, y + b) o (y, y^p - x) = (x + a^p - b, y + a)
    for p in (2, 3, 5):
        field = PrimeField(p)
        h = henon_map(p, field)
        hinv = henon_inverse(p, field)
        for a, b in ((1, 0), (p - 1, 2 % p), (1, 1)):
            got = compose(hinv, compose(translation(field, a, b), h))
            expected = translation(field, (pow(a, p, p) - b) % p, a)
            assert got == expected


def test_degree():
    assert degree(henon_map(2)) == 2
    assert degree(henon_map(5)) == 5
    assert degree(affine_map(QQ, 3, 1, 2, 0)) == 1
    for n in (2, 3):
        h = henon_map(n)
        assert degree(compose(h, h)) == n * n
    with pytest.raises(ValueError):
        degree(PolyMap(QQ, Poly2(QQ, {(0, 0): Fraction(4)}), Poly2(QQ, {(0, 0): Fraction(1)})))


def test_conjugate_identity_and_diagonal():
    for n in (2, 3, 4):
        ident = affine_map(QQ, 1, 0, 1, 0)
        assert conjugate_by_henon(ident, n, 1) == ident
        assert conjugate_by_henon(ident, n, -1) == ident
    # f = (a x, c y), forward: (c x, (c^n - a) x^n + a y)
    a, c = Fraction(3), Fraction(2)
    for n in (2, 3, 5):
        g = conjugate_by_henon(affine_map(QQ, a, 0, c, 0), n, 1)
        assert g.comp_x == Poly2(QQ, {(1, 0): c})
        assert g.comp_y == Poly2(QQ, {(n, 0): c**n - a, (0, 1): a})
        assert degree(g) == (1 if c**n == a else n)
    # degree drops to 1 exactly when c^n = a
    g = conjugate_by_henon(affine_map(QQ, 8, 0, 2, 0), 3, 1)
    assert degree(g) == 1


def test_conjugation_matches_binomial_expansion_over_q():
    rng = random.Random(20240811)
    for n in range(2, 7):
        for _ in range(12):
            a = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            c = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            d = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            f = affine_map(QQ, a, b, c, d)
            fwd = conjugate_by_henon(f, n, 1)
            ex, ey = oracles.binomial_forward(QQ, n, a, b, c, d)
            assert (fwd.comp_x, fwd.comp_y) == (ex, ey)
            bwd = conjugate_by_henon(f, n, -1)
            ex, ey = oracles.binomial_backward(QQ, n, a, b, c, d)
            assert (bwd.comp_x, bwd.comp_y) == (ex, ey)


class _OracleRing(_CoeffRing):
    """F_p[A, B, C, D] with the sub and pow that the binomial oracles call."""

    def sub(self, u, v):
        return self.add(u, self.neg(v))

    def pow(self, u, k):
        out = self.one
        for _ in range(k):
            out = self.mul(out, u)
        return out


def test_search_conjugation_is_the_binomial_expansion_as_a_polynomial_identity():
    # the Fix-set search conjugates the generic map (A x + B, C y + D) over
    # F_p[A, B, C, D]; equality there implies it at every point (a, b, c, d)
    expansions = {1: oracles.binomial_forward, -1: oracles.binomial_backward}
    for n in range(2, 7):
        for p in (5, 7, 11):
            if n % p == 0:
                continue
            ring = _OracleRing(p)
            f = affine_map(ring, *ring.gens)
            for direction, expansion in expansions.items():
                g = conjugate_by_henon(f, n, direction)
                assert (g.comp_x, g.comp_y) == expansion(ring, n, *ring.gens), (n, p, direction)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(11)])
def test_conjugation_degree_criterion(field):
    # degree drops to 1 exactly when c^n = a (forward) / a^n = c (backward)
    rng = random.Random(13)
    for n in range(2, 7):
        if field.char and n % field.char == 0:
            continue
        for _ in range(20):
            if field.char:
                a, c = rng.randint(1, field.char - 1), rng.randint(1, field.char - 1)
            else:
                a, c = Fraction(rng.randint(1, 9), rng.randint(1, 4)), Fraction(rng.randint(1, 9), rng.randint(1, 4))
            if rng.random() < 0.5:
                a = field.pow(c, n)  # force the forward criterion
            f = affine_map(field, a, 0, c, 0)
            fwd = conjugate_by_henon(f, n, 1)
            assert (degree(fwd) == 1) == (field.pow(c, n) == field.coerce(a))
            bwd = conjugate_by_henon(f, n, -1)
            assert (degree(bwd) == 1) == (field.pow(a, n) == field.coerce(c))


def test_conjugation_x3_coefficient_n4():
    rng = random.Random(7)
    for _ in range(10):
        a, b, c, d = (Fraction(rng.randint(1, 9)) for _ in range(4))
        g = conjugate_by_henon(affine_map(QQ, a, b, c, d), 4, 1)
        assert g.comp_y.coeff(3, 0) == 4 * c**3 * d


def test_conjugation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        conjugate_by_henon(henon_map(2), 2, 1)  # not affine
    x_plus_y = Poly2(QQ, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    with pytest.raises(ValueError):
        conjugate_by_henon(PolyMap(QQ, x_plus_y, Poly2.variable(QQ, "y")), 2, 1)  # off-diagonal term
    with pytest.raises(ValueError):
        conjugate_by_henon(affine_map(QQ, 0, 1, 1, 0), 2, 1)  # a = 0
    field = PrimeField(2)
    with pytest.raises(ValueError):
        conjugate_by_henon(affine_map(field, 1, 0, 1, 0), 2, 1)  # char | n
    with pytest.raises(ValueError):
        conjugate_by_henon(affine_map(QQ, 1, 0, 1, 0), 2, 3)  # bad direction


def test_poly_and_map_format():
    F = Fraction
    samples = [
        (Poly2(QQ, {(0, 2): F(1), (1, 0): F(-1)}), "y^2 - x"),
        (Poly2.variable(QQ, "x"), "x"),
        (Poly2(QQ, {(2, 1): F(3), (0, 1): F(-1), (0, 0): F(4)}), "3*x^2*y - y + 4"),
        (Poly2(QQ, {(1, 1): F(-1, 2), (0, 0): F(7)}), "-1/2*x*y + 7"),
        (Poly2(QQ, {(0, 0): F(0), (1, 0): F(1)}), "x"),  # zero terms are dropped
        (Poly2(QQ), "0"),
    ]
    for poly, text in samples:
        assert str(poly) == text
    f7 = PrimeField(7)
    assert serialize_map(henon_map(3, f7)) == {"field": "Fp:7", "map": "y; y^3 + 6*x"}
    assert str(affine_map(f7, 3, 0, 5, 6)) == "3*x; 5*y + 6"


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.inv(3) == 5
    assert f.coerce(Fraction(1, 2)) == 4
    assert f.roots_of_unity(3) == [1, 2, 4]
    assert PrimeField(5).roots_of_unity(3) == [1]
    with pytest.raises(ValueError):
        PrimeField(6)
