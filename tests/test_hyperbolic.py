"""Hyperboloid geometry: distances, the axis projection, quadrilaterals, tubes."""

import math
import random

import pytest

import oracles
from wpdcert.action import axis_classes
from wpdcert.hyperbolic import (
    MAX_EXPONENT,
    HVec,
    Tube,
    as_vector,
    distance,
    geodesic_point,
    mdot,
    quad_fourth_side,
    traversal_offset,
    tube_radius,
    tube_traverses,
    wpd_exponents,
)
from wpdcert.lattice import intersect, line_class


SQRT2 = math.sqrt(2.0)


def _normalized_axis_point(n, depth):
    ax = axis_classes(n, depth)
    vec = as_vector(ax.w_scaled)
    return vec * (1.0 / math.sqrt(mdot(vec, vec))), ax


def test_as_vector_takes_a_class_or_an_hvec_only():
    vec = as_vector(line_class() * 2)
    assert (vec.ell, vec.exc) == (2.0, {})
    h = HVec(1.0, {})
    assert as_vector(h) is h
    with pytest.raises(TypeError, match="tuple"):
        as_vector((1.0, 2.0))


def _random_timelike(rng, size=4):
    exc = {i: rng.uniform(-0.8, 0.8) for i in range(size)}
    ell = math.sqrt(1.0 + sum(v * v for v in exc.values()))
    return HVec(ell, exc)


def test_distance_basics():
    x = _random_timelike(random.Random(1))
    assert distance(x, x) == 0.0
    with pytest.raises(ValueError):
        distance(HVec(0.5, {}), HVec(0.5, {}))


def test_distance_line_to_projected_axis_point():
    w_hat, _ = _normalized_axis_point(2, 20)
    d = distance(line_class(), w_hat)
    assert abs(d - 0.881373587) < 1e-9  # argcosh(sqrt(2))


def test_distance_truncation_sensitivity():
    # depth 10 leaves an offset ~ (sqrt(2)/2) * 2^-22 for n=2: well above 1e-9,
    # below 1e-6; from depth 14 on the 1e-9 target is met
    w_hat, _ = _normalized_axis_point(2, 10)
    err = abs(distance(line_class(), w_hat) - math.acosh(SQRT2))
    assert 1e-9 < err < 1e-6
    w_hat, _ = _normalized_axis_point(2, 14)
    assert abs(distance(line_class(), w_hat) - math.acosh(SQRT2)) < 1e-9


def _vec_close(a, b, tol):
    keys = set(a.exc) | set(b.exc)
    gap = max([abs(a.ell - b.ell)] + [abs(a.exc.get(k, 0.0) - b.exc.get(k, 0.0)) for k in keys])
    return gap <= tol


def test_geodesic_point_endpoints_and_midpoint():
    rng = random.Random(2)
    for _ in range(20):
        x, y = _random_timelike(rng), _random_timelike(rng)
        d = distance(x, y)
        if d < 1e-3:
            continue
        assert _vec_close(geodesic_point(x, y, 0.0), x, 1e-10)
        assert _vec_close(geodesic_point(x, y, d), y, 1e-10)
        m = geodesic_point(x, y, d / 2)
        assert abs(distance(x, m) - d / 2) < 1e-10
        assert abs(distance(m, y) - d / 2) < 1e-10
    with pytest.raises(ValueError):
        geodesic_point(line_class(), line_class(), 0.5)


def test_geodesic_point_unit_speed():
    rng = random.Random(3)
    x, y = _random_timelike(rng), _random_timelike(rng)
    for t in (0.1, 0.7, 1.9, -1.3):
        p = geodesic_point(x, y, t)
        assert abs(mdot(p, p) - 1.0) < 1e-10
        assert abs(distance(x, p) - abs(t)) < 1e-10


def test_projection_of_line_class_is_axis_point():
    # l.b+ = l.b- = b+.b- = 1 turns the projection formula
    # ((x.b-) b+ + (x.b+) b-) / sqrt(2 (x.b+)(x.b-)) at x = l into
    # (b+ + b-) / sqrt(2), which is w_scaled / sqrt(2) exactly
    for n in (2, 3, 5, 7):
        for depth in (2, 8, 20, 100):
            ax = axis_classes(n, depth)
            l_plus, l_minus = intersect(line_class(), ax.b_plus), intersect(line_class(), ax.b_minus)
            assert l_plus == l_minus == intersect(ax.b_plus, ax.b_minus) == 1
            assert ax.w_scaled == ax.b_plus + ax.b_minus


def test_triangle_inequality():
    rng = random.Random(5)
    for _ in range(50):
        x, y, z = (_random_timelike(rng) for _ in range(3))
        assert distance(x, z) <= distance(x, y) + distance(y, z) + 1e-10


# --- quadrilaterals ---------------------------------------------------------


def test_quad_fourth_side_degenerate_cases():
    assert quad_fourth_side(0.0, 1.3) == 0.0
    assert abs(quad_fourth_side(0.7, 0.0) - 0.7) < 1e-15
    with pytest.raises(ValueError):
        quad_fourth_side(5.0, 5.0)
    with pytest.raises(ValueError):
        quad_fourth_side(-0.1, 0.2)


def test_quad_fourth_side_against_synthetic_construction():
    rng = random.Random(6)
    checked = 0
    while checked < 60:
        d_dc = rng.uniform(0.05, 1.4)
        d_cb = rng.uniform(0.05, 1.4)
        if not oracles.lambert_feasible(d_dc, d_cb):
            continue
        a_pt, b_pt, d_pt, tangent_b = oracles.lambert_fourth_vertex(d_dc, d_cb)
        assert abs(mdot(a_pt, a_pt) - 1.0) < 1e-10
        assert abs(mdot(a_pt, tangent_b)) < 1e-10  # right angle at B
        measured = math.acosh(mdot(a_pt, b_pt))
        assert abs(measured - quad_fourth_side(d_dc, d_cb)) < 1e-9
        checked += 1


# --- tubes ------------------------------------------------------------------


def test_tube_radius_ends_and_midpoint():
    t = Tube(-1.0, 3.0, 0.4)
    assert abs(tube_radius(t, -1.0) - 0.4) < 1e-12
    assert abs(tube_radius(t, 3.0) - 0.4) < 1e-12
    mid_expected = math.atanh(math.tanh(0.4) / math.cosh(2.0))
    assert abs(tube_radius(t, 1.0) - mid_expected) < 1e-12
    with pytest.raises(ValueError):
        tube_radius(t, 3.5)
    assert tube_radius(Tube(0.0, 1.0, 0.0), 0.5) == 0.0


def test_tube_radius_symmetry_and_interior_minimum():
    rng = random.Random(8)
    for _ in range(30):
        lo, span, eps = rng.uniform(-3, 3), rng.uniform(0.2, 4.0), rng.uniform(0.01, 2.0)
        t = Tube(lo, lo + span, eps)
        z = rng.uniform(lo, lo + span)
        assert abs(tube_radius(t, z) - tube_radius(t, lo + (lo + span) - z)) < 1e-12
        assert tube_radius(t, z) <= eps + 1e-12
        apex = tube_radius(t, lo + span / 2)
        assert apex <= tube_radius(t, z) + 1e-12


def test_tube_traverses_basics():
    t = Tube(0.0, 2.0, 0.3)
    assert tube_traverses(t, t)
    wider = Tube(-1.0, 3.0, 0.3)
    assert tube_traverses(wider, Tube(0.0, 2.0, 0.3))
    thin = Tube(-4.0, 6.0, 0.2)
    assert tube_traverses(thin, Tube(0.0, 2.0, 0.3))
    assert not tube_traverses(Tube(-0.1, 2.1, 1.5), Tube(0.0, 2.0, 0.05))
    with pytest.raises(ValueError):
        tube_traverses(Tube(0.5, 2.0, 0.3), Tube(0.0, 2.0, 0.3))


def test_tube_restriction_is_traversed():
    rng = random.Random(9)
    for _ in range(30):
        lo, span, eps = rng.uniform(-2, 2), rng.uniform(0.5, 5.0), rng.uniform(0.05, 1.5)
        outer = Tube(lo, lo + span, eps)
        z1, z2 = sorted(rng.uniform(lo, lo + span) for _ in range(2))
        if z2 - z1 < 1e-3:
            continue
        inner = Tube(z1, z2, max(tube_radius(outer, z1), tube_radius(outer, z2)))
        assert tube_traverses(outer, inner)


def test_traversal_offset_values():
    # eta = eps makes the argument cosh(d): offset equals d itself
    assert abs(traversal_offset(0.4, 0.4, 1.7) - 1.7) < 1e-12
    # frozen high-precision oracle: argcosh(tanh(1)*cosh(2)/tanh(0.5))
    assert abs(traversal_offset(1.0, 0.5, 2.0) - 2.511177918560960) < 1e-12
    with pytest.raises(ValueError):
        traversal_offset(0.3, 0.0, 1.0)


def test_traversal_offset_flags_trivial_case():
    with pytest.warns(RuntimeWarning):
        assert traversal_offset(0.1, 0.5, 0.0) == 0.0
    with pytest.warns(RuntimeWarning):
        assert traversal_offset(0.0, 0.5, 1000.0) == 0.0  # eps = 0: no tube at all


def test_tube_formulas_match_cosh_and_stay_finite_past_its_overflow():
    # the overflow-free forms agree with the direct cosh formulas where cosh is finite
    rng = random.Random(12)
    for _ in range(2000):
        lo = rng.uniform(-5.0, 5.0)
        t = Tube(lo, lo + rng.uniform(0.01, 30.0), rng.uniform(0.0, 2.0))
        z = rng.uniform(t.lo, t.hi)
        mid, half = 0.5 * (t.lo + t.hi), 0.5 * (t.hi - t.lo)
        tanh_eps = math.tanh(t.end_radius)
        direct = math.atanh(min(tanh_eps * math.cosh(z - mid) / math.cosh(half), tanh_eps))
        assert abs(tube_radius(t, z) - direct) <= 1e-12 * max(1.0, direct)
        eps, eta, d = rng.uniform(0.05, 2.0), rng.uniform(0.01, 2.0), rng.uniform(0.0, 30.0)
        arg = math.tanh(eps) * math.cosh(d) / math.tanh(eta)
        if arg >= 1.0 + 1e-6:
            assert abs(traversal_offset(eps, eta, d) - math.acosh(arg)) <= 1e-12 * max(1.0, d)
    # past d ~ 710, cosh(d) overflows; the results stay finite and exact in the limit
    assert tube_radius(Tube(0.0, 2000.0, 0.4), 1000.0) == 0.0
    assert tube_radius(Tube(0.0, 2000.0, 0.4), 2000.0) == pytest.approx(0.4, abs=1e-12)
    off = traversal_offset(0.5, 0.05, 1000.0)
    expected = 1000.0 + math.log(math.tanh(0.5) / math.tanh(0.05))  # argcosh(x) ~ log(2x)
    assert math.isfinite(off) and abs(off - expected) < 1e-12 * 1000.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tube_rejects_non_finite_input(bad):
    for lo, hi, radius in ((bad, 2.0, 0.4), (0.0, bad, 0.4), (0.0, 2.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            Tube(lo, hi, radius)
    with pytest.raises(ValueError, match="finite"):
        tube_radius(Tube(0.0, 2.0, 0.4), bad)
    with pytest.raises(ValueError, match="finite"):
        wpd_exponents(0.1, 0.15, 0.693, -1.0, 1.0, bad)


def test_traversal_offset_round_trip():
    rng = random.Random(10)
    for _ in range(40):
        eps = rng.uniform(0.05, 2.0)
        eta = rng.uniform(0.01, eps)
        d = rng.uniform(0.0, 3.0)
        if math.tanh(eps) * math.cosh(d) / math.tanh(eta) < 1.0 + 1e-9:
            continue
        off = traversal_offset(eps, eta, d)
        tube = Tube(-off, off, eps)
        assert abs(tube_radius(tube, d) - eta) < 1e-9
        assert abs(tube_radius(tube, -d) - eta) < 1e-9


def test_outer_tube_built_from_offset_traverses_with_equality():
    eps, eta = 0.8, 0.3
    inner = Tube(-1.0, 1.0, eta)
    off = traversal_offset(eps, eta, 1.0)
    outer = Tube(-off, off, eps)
    assert abs(tube_radius(outer, -1.0) - eta) < 1e-12
    assert abs(tube_radius(outer, 1.0) - eta) < 1e-12
    assert tube_traverses(outer, inner)


def test_wpd_exponents_nesting_regime():
    # eta/3 >= eps: smallest powers achieving plain nesting
    eps, eta, L, z, zp, w = 0.1, 0.9, math.log(2.0), -1.0, 1.5, 0.3
    n_exp, m_exp = wpd_exponents(eps, eta, L, z, zp, w)
    assert n_exp == max(0, math.ceil((w - z + 2 * eps) / L - 1e-12))
    assert m_exp == max(0, math.ceil((zp - w + 2 * eps) / L - 1e-12))


def test_wpd_exponents_verified_and_minimal_side():
    eps, eta, L = 0.1, 0.15, math.log(2.0)
    n_exp, m_exp = wpd_exponents(eps, eta, L, -1.0, 1.0, 0.0)
    outer = Tube(-n_exp * L + eps, m_exp * L - eps, eps)
    inner = Tube(-1.0 - eps, 1.0 + eps, eta / 3.0)
    assert tube_traverses(outer, inner)
    assert n_exp >= 1 and m_exp >= 1


def test_wpd_exponents_refused_past_float_resolution():
    # in the nesting regime N = ceil(1.2 / L): near 2^52 a float still tells
    # N from N - 1; near 2^54 it does not, and the exponents are refused
    n_exp, m_exp = wpd_exponents(0.1, 0.9, 1.2 / 2**52, -1.0, 1.0, 0.0)
    assert 2**52 <= n_exp == m_exp <= MAX_EXPONENT == 2**53
    for L in (1.2 / 2**54, 1e-300):
        with pytest.raises(ValueError, match=r"exceed 2\*\*53"):
            wpd_exponents(0.1, 0.9, L, -1.0, 1.0, 0.0)


def test_wpd_exponents_monotone_in_eta():
    rng = random.Random(11)
    for _ in range(25):
        eps = rng.uniform(0.02, 0.6)
        L = rng.uniform(0.3, 1.2)
        z = rng.uniform(-2.0, 0.0)
        zp = z + rng.uniform(0.5, 2.5)
        w = rng.uniform(z - 1.0, zp + 1.0)
        last = None
        for eta in (2.0, 1.0, 0.5, 0.2, 0.1, 0.05):
            n_exp, m_exp = wpd_exponents(eps, eta, L, z, zp, w)
            if last is not None:
                assert n_exp >= last[0] and m_exp >= last[1]
            last = (n_exp, m_exp)


def test_wpd_exponents_zero_eps():
    n_exp, m_exp = wpd_exponents(0.0, 0.3, 0.5, -1.0, 1.0, 0.0)
    assert (n_exp, m_exp) == (2, 2)
