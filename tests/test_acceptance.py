"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Every tolerance is pinned here; exact criteria compare Fractions.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

import oracles
from wpdcert.action import axis_classes, axis_pairings, orbit_label
from wpdcert.certifier import (
    degree_bound,
    epsilon_window,
    fix_set_bruteforce,
    fix_set_symbolic,
    worst_case_intersection,
)
from wpdcert.fields import PrimeField
from wpdcert.hyperbolic import Tube, as_vector, distance, mdot, quad_fourth_side, traversal_offset, tube_radius, tube_traverses, wpd_exponents
from wpdcert.lattice import exceptional, intersect, line_class, p_label, q_label
from wpdcert.polymaps import (
    affine_map,
    compose,
    conjugate_by_henon,
    diagonal_affine_parts,
    henon_inverse,
    henon_map,
    translation,
)

SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} {name}: PASS")


def test_01_axis_normalization_exact():
    with criterion(1, "axis normalization (exact)"):
        for n in (2, 3, 5):
            ax = axis_classes(n, 20)
            assert axis_pairings(ax)["w_norm_sq"] == 1 + Fraction(1, n**42)
            assert intersect(ax.b_plus, ax.b_minus) == 1


def test_02_projection_distance():
    with criterion(2, "projection distance argcosh(sqrt 2)"):
        for n in (2, 3, 5):
            ax = axis_classes(n, 20)
            vec = as_vector(ax.w_scaled)
            w_hat = vec * (1.0 / math.sqrt(mdot(vec, vec)))
            assert abs(distance(line_class(), w_hat) - 0.881373587) < 1e-9


def test_03_translation_length():
    with criterion(3, "translation length cosh = (n + 1/n)/2"):
        for n in (2, 3, 5):
            ax = axis_classes(n, 20)
            hw = oracles.reference_w_orbit(ax, 1)[1]
            cosh_value = Fraction(intersect(ax.w_scaled, hw), intersect(ax.w_scaled, ax.w_scaled))
            expected = Fraction(n * n + 1, 2 * n)
            assert abs(float(cosh_value - expected)) <= SQRT2 * n**-21
            if n == 2:
                assert abs(float(cosh_value) - 1.25) <= SQRT2 * 2**-21


def test_04_orbit_orthogonality():
    with criterion(4, "orbit orthogonality (exact)"):
        for n in (2, 3, 4, 5):
            labels = []
            for k in range(2 * n - 1):
                labels.extend(orbit_label(n, q_label(k, n), i) for i in range(11))
                labels.extend(orbit_label(n, p_label(k, n), -j) for j in range(11))
            assert len(set(labels)) == len(labels)
            classes = [exceptional(lab) for lab in labels]
            for i, x in enumerate(classes):
                for y in classes[i + 1 :]:
                    assert intersect(x, y) == 0


def test_05_conjugation_expansion():
    with criterion(5, "conjugation expansion coefficient-by-coefficient"):
        rng = random.Random(515)
        from wpdcert.fields import QQ

        for n in range(2, 7):
            for _ in range(8):
                a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
                c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
                b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                d = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                f = affine_map(QQ, a, b, c, d)
                got = conjugate_by_henon(f, n, 1)
                assert (got.comp_x, got.comp_y) == oracles.binomial_forward(QQ, n, a, b, c, d)
                got = conjugate_by_henon(f, n, -1)
                assert (got.comp_x, got.comp_y) == oracles.binomial_backward(QQ, n, a, b, c, d)
            for p in (5, 7, 11):
                if n % p == 0:
                    continue
                field = PrimeField(p)
                for a in field.units():
                    for c in field.units():
                        for b in range(p):
                            for d in range(p):
                                f = affine_map(field, a, b, c, d)
                                got = conjugate_by_henon(f, n, 1)
                                assert (got.comp_x, got.comp_y) == oracles.binomial_forward(field, n, a, b, c, d)
                                got = conjugate_by_henon(f, n, -1)
                                assert (got.comp_x, got.comp_y) == oracles.binomial_backward(field, n, a, b, c, d)


def test_06_char_p_translation_identity():
    with criterion(6, "characteristic-p translation identity (exhaustive)"):
        for p in (2, 3, 5):
            field = PrimeField(p)
            h = henon_map(p, field)
            hinv = henon_inverse(p, field)
            for a in range(p):
                for b in range(p):
                    got = compose(hinv, compose(translation(field, a, b), h))
                    assert got == translation(field, (pow(a, p, p) - b) % p, a)


def test_07_worst_case_bounds_exact():
    with criterion(7, "worst-case pairings -3 and -2 + 1/n (exact)"):
        for n in range(2, 11):
            ax = axis_classes(n, 3)
            assert worst_case_intersection(n, 3, ax) == -3
            assert worst_case_intersection(n, 2, ax) == Fraction(-2) + Fraction(1, n)


def test_08_window_and_degree_bound():
    with criterion(8, "tolerance window and degree bound"):
        for n in range(2, 101):
            win = epsilon_window(n)
            assert win["eps_max"] > 0
            assert win["ok"]
            assert degree_bound(win["eps_max"]) < 4.0
        lhs = round(math.acosh(SQRT2), 3) + round(math.acosh(5.0 / (2.0 * SQRT2)), 3)
        assert lhs == 2.052
        assert round(math.acosh(4.0), 3) == 2.063
        assert lhs < 2.063


def test_09_fix_set_oracle_equivalence():
    with criterion(9, "Fix-set brute force equals closed form"):
        got7 = [diagonal_affine_parts(f) for f in fix_set_bruteforce(2, 7)]
        assert got7 == [(1, 0, 1, 0), (2, 0, 4, 0), (4, 0, 2, 0)]
        assert all(pow(a, 3, 7) == 1 and c == a * a % 7 for (a, _, c, _) in got7)
        assert got7 == [diagonal_affine_parts(f) for f in fix_set_symbolic(2, 7)]
        got17 = [diagonal_affine_parts(f) for f in fix_set_bruteforce(3, 17)]
        assert len(got17) == 8
        assert got17 == [diagonal_affine_parts(f) for f in fix_set_symbolic(3, 17)]


def test_10_quadrilateral_identity():
    with criterion(10, "quadrilateral identity on 1000 synthetic samples"):
        rng = random.Random(1010)
        checked = 0
        while checked < 1000:
            d_dc = rng.uniform(0.02, 1.5)
            d_cb = rng.uniform(0.02, 1.5)
            if not oracles.lambert_feasible(d_dc, d_cb):
                continue
            a_pt, b_pt, _, tangent_b = oracles.lambert_fourth_vertex(d_dc, d_cb)
            assert abs(mdot(a_pt, tangent_b)) < 1e-10
            measured = math.acosh(mdot(a_pt, b_pt))
            assert abs(math.tanh(measured) - math.tanh(d_dc) * math.cosh(d_cb)) <= 1e-9
            assert abs(measured - quad_fourth_side(d_dc, d_cb)) <= 1e-9
            checked += 1


def test_11_tube_round_trip():
    with criterion(11, "tube offset round-trip and displacement exponents"):
        rng = random.Random(1111)
        checked = 0
        while checked < 100:
            eps = rng.uniform(0.05, 2.0)
            eta = rng.uniform(0.01, 1.9)
            d = rng.uniform(0.0, 3.0)
            if eta >= eps or math.tanh(eps) * math.cosh(d) / math.tanh(eta) < 1.0 + 1e-9:
                continue
            off = traversal_offset(eps, eta, d)
            tube = Tube(-off, off, eps)
            assert abs(tube_radius(tube, d) - eta) <= 1e-9
            checked += 1
        for _ in range(60):
            eps = rng.uniform(0.0, 0.5)
            eta = rng.uniform(0.05, 1.0)
            length = rng.uniform(0.3, 1.5)
            z = rng.uniform(-2.0, 0.0)
            zp = z + rng.uniform(0.4, 2.0)
            w = rng.uniform(z - 1.5, zp + 1.5)
            n_exp, m_exp = wpd_exponents(eps, eta, length, z, zp, w)
            outer = Tube(w - n_exp * length + eps, w + m_exp * length - eps, eps)
            assert tube_traverses(outer, Tube(z - eps, zp + eps, eta / 3.0))
