"""Certification pipeline: window, bounds, exclusions, Fix sets, reports."""

import itertools
import json
import math
from fractions import Fraction

import pytest

from oracles import reference_fix_candidates, reference_monotonicity_float, reference_w_orbit
from wpdcert import _bruteforce, action, certifier, lattice
from wpdcert.action import axis_classes
from wpdcert.certifier import (
    ParameterError,
    RootExponentMap,
    certify,
    degree_bound,
    epsilon_window,
    exclusion_data,
    fix_monotonicity_check,
    fix_set_bruteforce,
    fix_set_symbolic,
    worst_case_intersection,
)
from wpdcert.lattice import PMClass, intersect
from wpdcert.polymaps import diagonal_affine_parts

SQRT2 = math.sqrt(2.0)


def test_epsilon_window_basics():
    win = epsilon_window(2)
    assert win.chosen_eps == win.eps_max
    assert abs(win.eps_max - 0.2897159173846393) < 1e-12
    assert win.all_ok()
    with pytest.raises(ParameterError):
        epsilon_window(1)
    with pytest.raises(ParameterError):
        epsilon_window(2, eps=0.5)
    with pytest.raises(ParameterError):
        epsilon_window(2, eps=0.0)
    narrower = epsilon_window(2, eps=0.05)
    assert narrower.all_ok()


def test_window_shrinks_and_holds_up_to_100():
    last = None
    for n in range(2, 101):
        win = epsilon_window(n)
        assert win.eps_max > 0
        assert win.all_ok()
        if last is not None:
            assert win.eps_max < last
        last = win.eps_max


def test_three_decimal_sanity_constants():
    # 0.881 + 1.171 = 2.052 < 2.063 at three decimals
    lhs = round(math.acosh(SQRT2), 3) + round(math.acosh(5.0 / (2.0 * SQRT2)), 3)
    assert lhs == 2.052
    assert round(math.acosh(4.0), 3) == 2.063
    assert math.acosh(SQRT2) + math.acosh(5.0 / (2.0 * SQRT2)) < math.acosh(4.0)


def test_degree_bound():
    # eps -> 0 limit is cosh(2 argcosh sqrt(2)) = 2*2 - 1 = 3
    assert abs(degree_bound(2, 1e-12) - 3.0) < 1e-9
    value = degree_bound(2, epsilon_window(2).eps_max)
    assert 3.0 < value < 4.0
    for n in range(2, 101):
        assert degree_bound(n, epsilon_window(n).eps_max) < 4.0
    with pytest.raises(ParameterError):
        degree_bound(2, 0.5)  # outside the window


@pytest.mark.parametrize("n", range(2, 11))
def test_worst_case_closed_forms(n):
    axis = axis_classes(n, 3)
    assert worst_case_intersection(n, 3, axis) == -3
    assert worst_case_intersection(n, 2, axis) == Fraction(-2) + Fraction(1, n)


def test_worst_case_n2_value_and_validation():
    axis = axis_classes(2, 3)
    assert worst_case_intersection(2, 2, axis) == Fraction(-3, 2)
    with pytest.raises(ValueError):
        worst_case_intersection(2, 4, axis)
    with pytest.raises(ValueError):
        worst_case_intersection(3, 2, axis)  # mismatched n
    with pytest.raises(ValueError):
        worst_case_intersection(2, 2, axis_classes(2, 1))  # too shallow


def test_worst_case_matches_exhaustive_assignment():
    # independent oracle: try every injective assignment of the multiplicities
    # to coefficients of r and take the true minimum of the pairing
    # (the coefficients are scaled to integers over their common denominator,
    # so each of the ~1M sums is an integer sum; the minimum is divided once)
    axis = axis_classes(2, 2)
    coeffs = list(axis.r.exc.values())
    common = math.lcm(*(c.denominator for c in coeffs))
    scaled = [c.numerator * (common // c.denominator) for c in coeffs]
    for deg, mults in ((2, (1, 1, 1)), (3, (2, 1, 1, 1, 1))):
        best = min(
            -sum(m * c for m, c in zip(mults, pick))
            for pick in itertools.permutations(scaled, len(mults))
        )
        assert worst_case_intersection(2, deg, axis) == Fraction(best, common)


def test_exclusion_checks():
    for n in (2, 3, 7):
        axis = axis_classes(n, 3)
        eps = epsilon_window(n).eps_max
        data3 = exclusion_data(n, 3, eps, axis)
        assert abs(data3["bound"] - 3.0 / SQRT2) < 1e-12
        assert data3["ok"]
        data2 = exclusion_data(n, 2, eps, axis)
        assert abs(data2["bound"] - (SQRT2 + 1.0 / (n * SQRT2))) < 1e-12
        # equality boundary of the window: bound == threshold
        assert abs(data2["bound"] - data2["threshold"]) < 1e-9
        assert data2["ok"]
        assert exclusion_data(n, 2, eps * 0.9, axis)["ok"]
        # just past the window the degree-2 exclusion fails
        assert not exclusion_data(n, 2, eps + 1e-3, axis)["ok"]


def test_fix_set_symbolic_prime_fields():
    maps7 = fix_set_symbolic(2, 7)
    assert [(f.comp_x.coeff(1, 0), f.comp_y.coeff(0, 1)) for f in maps7] == [(1, 1), (2, 4), (4, 2)]
    assert all(f.comp_x.coeff(0, 0) == 0 and f.comp_y.coeff(0, 0) == 0 for f in maps7)
    maps17 = fix_set_symbolic(3, 17)
    assert len(maps17) == 8
    assert all(pow(f.comp_x.coeff(1, 0), 8, 17) == 1 for f in maps17)
    assert all(f.comp_y.coeff(0, 1) == pow(f.comp_x.coeff(1, 0), 3, 17) for f in maps17)
    # identity always present
    assert (1, 1) in [(f.comp_x.coeff(1, 0), f.comp_y.coeff(0, 1)) for f in maps17]
    # fields without the full root group keep only what exists
    assert len(fix_set_symbolic(2, 5)) == 1


def test_fix_set_symbolic_root_exponents():
    sym = fix_set_symbolic(3, None)
    assert len(sym) == 8
    assert sym[0] == RootExponentMap(8, 0, 0)
    assert all(f.c_exp == 3 * f.a_exp % 8 for f in sym)
    assert str(sym[1]) == "zeta8^1*x; zeta8^3*y"


def _parts(maps):
    return [diagonal_affine_parts(f) for f in maps]


def test_fix_set_bruteforce_small_cases():
    got = fix_set_bruteforce(2, 7)
    assert len(got) == 3
    assert _parts(got) == [(1, 0, 1, 0), (2, 0, 4, 0), (4, 0, 2, 0)]
    assert _parts(got) == _parts(fix_set_symbolic(2, 7))
    # no nontrivial cube roots of unity mod 5: only the identity survives
    got5 = fix_set_bruteforce(2, 5)
    assert _parts(got5) == [(1, 0, 1, 0)]


def test_fix_set_oracle_equivalence_triplet():
    for n, p in ((2, 7), (2, 13), (3, 17)):
        assert _parts(fix_set_bruteforce(n, p)) == _parts(fix_set_symbolic(n, p))


def test_fix_set_bruteforce_validation():
    with pytest.raises(ParameterError):
        fix_set_bruteforce(2, 2)
    with pytest.raises(ValueError):
        fix_set_bruteforce(2, 9)
    with pytest.raises(ParameterError):
        fix_set_bruteforce(2, 200003)  # infeasible search space
    with pytest.raises(ParameterError, match="infeasible"):
        fix_set_symbolic(2, 2**61 - 1)  # refused before the primality test


@pytest.mark.parametrize("n,p", [(2, 5), (2, 7), (2, 13), (3, 7), (5, 7), (17, 5)])
def test_kernel_matches_per_candidate_reference(n, p):
    assert _bruteforce.enumerate_fix_candidates(n, p) == reference_fix_candidates(n, p)


def _monotonicity(axis):
    return fix_monotonicity_check(axis.gram(), axis.tail_norm_sq)


def test_monotonicity_check():
    for n in range(2, 11):
        result = _monotonicity(axis_classes(n, 20))
        assert result["mode"] == "exact"
        assert result["ok"] and result["ordered"]
        assert 0 < result["deviation_ratio"] <= 1
    shallow = _monotonicity(axis_classes(2, 4))
    assert shallow["ok"]


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_monotonicity_on_the_untruncated_axis(n):
    # g_k = n^k + n^-k is the Gram sequence of the true axis point: five
    # points exactly on one geodesic, so every sinh^2 delta_j is 0
    g = tuple(Fraction(n) ** k + Fraction(n) ** -k for k in range(5))
    result = fix_monotonicity_check(g, Fraction(2, n**42))
    assert result == {"mode": "exact", "deviation_ratio": 0.0, "ordered": True, "ok": True}


@pytest.mark.parametrize("n,depth", [(2, 2), (2, 20), (3, 12), (5, 8), (7, 4), (2, 300)])
def test_gram_pairs_w_with_its_images(n, depth):
    # g_k = B(w, h^k w): the shift map is an isometry, so gram() may pair any
    # two orbit points k steps apart
    axis = axis_classes(n, depth)
    w = axis.w_scaled
    assert axis.gram() == tuple(intersect(w, action.henon_act(n, w, k)) for k in range(5))


@pytest.mark.parametrize("n", range(2, 11))
def test_exact_monotonicity_agrees_with_float_reference(n):
    # the float check it replaced: the same verdicts, and the exact distance
    # asinh(sqrt(sinh^2 delta)) of the worst inner point from the geodesic
    # matches the float deviation wherever that is above rounding noise
    for depth in (2, 4, 8, 20, 100):
        axis = axis_classes(n, depth)
        exact = _monotonicity(axis)
        ref = reference_monotonicity_float(axis, reference_w_orbit(axis, 2))
        assert exact["ok"] is ref["ok"] is True
        assert exact["ordered"] is ref["ordered"] is True
        # sinh^2 delta stays below half the tail: a factor of 2 to spare
        assert 0.4 < exact["deviation_ratio"] < 0.5
        if ref["max_deviation"] > 1e-10:
            delta = math.asinh(math.sqrt(exact["deviation_ratio"] * float(axis.tail_norm_sq)))
            assert delta == pytest.approx(ref["max_deviation"], rel=0.01)


def test_monotonicity_fails_on_a_disordered_orbit():
    axis = axis_classes(3, 12)
    g0, g1, g2, g3, g4 = axis.gram()
    result = fix_monotonicity_check((g0, g2, g1, g3, g4), axis.tail_norm_sq)
    assert not result["ordered"] and not result["ok"]
    # a repeated point (g_1 = g_0) is not in order either
    assert not fix_monotonicity_check((g0, g0, g2, g3, g4), axis.tail_norm_sq)["ordered"]


def test_monotonicity_fails_off_the_geodesic():
    # pushing the neighbours apart keeps the order but bends the orbit off
    # the geodesic through its ends
    axis = axis_classes(3, 12)
    g0, g1, g2, g3, g4 = axis.gram()
    result = fix_monotonicity_check((g0, g1 + Fraction(1, 100), g2, g3, g4), axis.tail_norm_sq)
    assert result["ordered"] and not result["ok"]
    assert result["deviation_ratio"] > 1


@pytest.mark.parametrize("raise_g0_by", ["tail", Fraction(1, 100)], ids=["tail", "hundredth"])
def test_monotonicity_refuses_a_negative_sinh_squared(raise_g0_by):
    # a larger g_0 keeps the order but is the Gram sequence of no points on
    # the hyperboloid: sinh^2 delta_j comes out negative, which is impossible
    axis = axis_classes(3, 12)
    g0, g1, g2, g3, g4 = axis.gram()
    bump = axis.tail_norm_sq if raise_g0_by == "tail" else raise_g0_by
    result = fix_monotonicity_check((g0 + bump, g1, g2, g3, g4), axis.tail_norm_sq)
    assert result["ordered"] and not result["ok"]
    assert result["deviation_ratio"] < 0


def test_monotonicity_refuses_coinciding_ends():
    # g_4 = -g_0 makes det G2 = 0: no geodesic through the ends to measure against
    result = fix_monotonicity_check(tuple(map(Fraction, (-2, -1, 0, 1, 2))), Fraction(1))
    assert result == {"mode": "exact", "deviation_ratio": None, "ordered": True, "ok": False}


@pytest.mark.parametrize("depth", [20, 250])
def test_monotonicity_verdict_independent_of_summation_order(depth):
    # the same exact w_scaled with its exc dict reversed: its explicit orbit
    # is built and paired in another order and still gives the run-form Gram
    # sequence, and the verdict stays
    axis = axis_classes(3, depth)
    w = axis.w_scaled
    reversed_w = PMClass(w.ell, list(w.exc.items())[::-1])
    assert reversed_w == w and list(reversed_w.exc) != list(w.exc)
    orbit = {k: action.henon_act(3, reversed_w, k) for k in range(-2, 3)}
    explicit = tuple(intersect(orbit[i], orbit[j]) for i, j in ((0, 0), (0, 1), (-1, 1), (-1, 2), (-2, 2)))
    assert axis.gram() == explicit
    forward = _monotonicity(axis)
    assert forward["ok"]
    assert fix_monotonicity_check(explicit, axis.tail_norm_sq) == forward


@pytest.mark.parametrize("n,depth", [(2, 2), (3, 20), (7, 30), (2, 800)])
def test_translation_verdict_is_exact(n, depth):
    # cosh d(w, h w) - (n + 1/n)/2 = (n^2 - 1) t / (2 n (1 + t)) with t = n^(-2 depth - 2),
    # far inside the bound sqrt(2) n^-(depth+1) that the verdict squares
    translation = certify(n, depth).sections["translation"]
    t = Fraction(1, n ** (2 * depth + 2))
    gap = translation["cosh_value"] - translation["expected"]
    assert gap == (n * n - 1) * t / (2 * n * (1 + t))
    assert translation["ok"] is True and gap**2 <= 2 * t


def _count_steps(monkeypatch):
    """(sign, support) of every class handed to a shift-map step."""
    steps = []
    real = action._act_once

    def counted(n, c, sign):
        steps.append((sign, len(c.exc)))
        return real(n, c, sign)

    monkeypatch.setattr(action, "_act_once", counted)
    return steps


@pytest.mark.parametrize("n,depth", [(2, 30), (3, 12), (2, 800)])
def test_certify_walks_each_shift_map_step_once(monkeypatch, n, depth):
    # the axis truncation takes no step; 4 walk h^k(w) for k = -2..2 in run
    # form, each on the l-part and one level-0 block, whatever the depth
    steps = _count_steps(monkeypatch)
    assert certify(n, depth).passed
    assert sorted(sign for sign, _ in steps) == [-1, -1, 1, 1]
    assert all(support <= 2 * (2 * n - 1) for _, support in steps)


@pytest.mark.parametrize("n,depth", [(2, 30), (3, 12), (2, 800)])
def test_axis_classes_takes_no_shift_map_step(monkeypatch, n, depth):
    # each level is written from the tower's base-point labels
    steps = _count_steps(monkeypatch)
    axis = axis_classes(n, depth)
    assert steps == []
    assert len(axis.r.exc) == 2 * (2 * n - 1) * (depth + 1)


@pytest.mark.parametrize("n,depth", [(2, 30), (3, 12)])
def test_certify_pairs_w_with_itself_once(monkeypatch, n, depth):
    # b+.b-, b+.b+, b-.b- and w.w are the only exact pairings of explicit
    # classes: the Gram sequence pairs the orbit of w in run form
    pairs = []
    real = lattice.intersect

    def counted(c, d):
        pairs.append((c, d))
        return real(c, d)

    monkeypatch.setattr(action, "intersect", counted)
    monkeypatch.setattr(certifier, "intersect", counted)
    assert certify(n, depth).passed
    assert len(pairs) == 4
    assert sum(c is d for c, d in pairs) == 3


def test_wrong_worst_case_fails_the_verdict(monkeypatch):
    # certify reaches worst_case_intersection through this module binding, as
    # the benchmark's wrong-result injection replaces it
    real = certifier.worst_case_intersection
    monkeypatch.setattr(certifier, "worst_case_intersection", lambda n, deg, axis: real(n, deg, axis) - 1)
    rep = certify(2, 20)
    assert rep.passed is False
    assert rep.verdicts["worst_case_exact_ok"] is False


def test_certify_smallest_prime_case():
    rep = certify(2, 20, 7)
    assert rep.passed
    assert len(rep.fix_symbolic) == 3 == len(rep.fix_bruteforce)
    data = rep.to_json_dict()
    assert data["fix_set"]["oracle_count"] == 7 * 7 * 6 * 6
    assert data["passed"] is True
    assert data["fix_set"]["cardinality"] == 3
    assert data["worst_case_intersection"]["deg2"]["worst_case"] == "-3/2"
    json.dumps(data)  # serializable


def test_certify_n3_and_symbolic_mode():
    rep = certify(3, 12, 17)
    assert rep.passed
    assert len(rep.fix_bruteforce) == 8
    repq = certify(5, 12)
    assert repq.passed
    assert repq.fix_bruteforce is None
    assert len(repq.fix_symbolic) == 24


def test_certify_parameter_errors():
    with pytest.raises(ParameterError, match="characteristic divides n"):
        certify(2, 20, 2)
    with pytest.raises(ParameterError):
        certify(2, 20, 11)  # 11 != 1 mod 3
    with pytest.raises(ValueError):
        certify(2, 20, 15)  # not prime
    with pytest.raises(ParameterError):
        certify(1, 20)
    with pytest.raises(ParameterError):
        certify(2, 1)


def test_report_is_deterministic():
    a = json.dumps(certify(2, 8, 7).to_json_dict(), indent=2)
    b = json.dumps(certify(2, 8, 7).to_json_dict(), indent=2)
    assert a == b


def test_section_oks_are_the_verdicts():
    for rep in (certify(2, 8, 7), certify(3, 12)):
        data = rep.to_json_dict()
        assert rep.passed is data["passed"] is all(data["verdicts"].values()) is True
        assert data["verdicts"] == rep.verdicts
        section_oks = {
            "star_window_ok": data["star_window"]["ok"],
            "degree_bound_ok": data["degree_bound"]["ok"],
            "axis_normalization_ok": data["axis"]["ok"],
            "exclusion_deg2_ok": data["worst_case_intersection"]["deg2"]["ok"],
            "exclusion_deg3_ok": data["worst_case_intersection"]["deg3"]["ok"],
            "projection_ok": data["projection"]["ok"],
            "translation_ok": data["translation"]["ok"],
            "monotonicity_ok": data["monotonicity"]["ok"],
            "fix_cardinality_ok": data["fix_set"]["cardinality_ok"],
            "oracle_match_ok": data["fix_set"]["oracle_match_ok"],
        }
        assert section_oks == {k: v for k, v in rep.verdicts.items() if k != "worst_case_exact_ok"}
        assert data["star_window"]["ok"] is all(c["ok"] for c in data["star_window"]["checks"].values())
