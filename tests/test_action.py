"""The lattice action of the shift maps: orbits, base points, axis classes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import (
    reference_act_once,
    reference_axis_classes,
    reference_axis_series,
    reference_fix_monotonicity_check,
    reference_henon_act,
    reference_intersect,
    reference_r_top,
    reference_run_class,
    reference_w_orbit,
)
from wpdcert import action
from wpdcert.action import (
    ActionDomainError,
    AxisData,
    axis_classes,
    axis_pairings,
    base_points,
    henon_act,
    orbit_label,
)
from wpdcert.certifier import certify, fix_monotonicity_check
from wpdcert.lattice import PMClass, PointLabel, exceptional, intersect, line_class, p_label, q_label
from wpdcert.polymaps import degree, henon_map


L = line_class()


def _block(n, family):
    """The weighted sum of exceptional classes over one base-point tower."""
    return PMClass(0, base_points(n, family))


def test_base_points_examples():
    assert base_points(2) == [(p_label(0, 2), 1), (p_label(1, 2), 1), (p_label(2, 2), 1)]
    assert base_points(3) == [(p_label(0, 3), 2)] + [(p_label(k, 3), 1) for k in range(1, 5)]
    assert base_points(3, "q")[0] == (q_label(0, 3), 2)


@pytest.mark.parametrize("n", range(2, 9))
def test_base_points_noether_relation(n):
    assert sum(m * m for _, m in base_points(n)) == n * n - 1


def test_orbit_label_examples():
    assert orbit_label(2, q_label(0, 2), 1) == q_label(3, 2)
    assert orbit_label(3, q_label(0, 3), 1) == q_label(5, 3)
    assert orbit_label(4, p_label(1, 4), 0) == p_label(1, 4)
    assert orbit_label(3, p_label(2, 3), -2) == p_label(12, 3)
    # shifts toward the base of the tower are allowed while indices stay >= 0
    assert orbit_label(2, q_label(3, 2), -1) == q_label(0, 2)


@given(
    st.sampled_from(["p", "q"]),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=-500, max_value=500),
)
def test_orbit_label_is_the_validated_label(family, index, n, i):
    # orbit_label skips PointLabel's checks: its image must still be the
    # label the validating constructor builds, of type PointLabel
    label = PointLabel(family, index, n)
    with pytest.raises(ActionDomainError, match="does not belong"):
        orbit_label(n + 1, label, i)
    shift = i * (2 * n - 1) if family == "q" else -i * (2 * n - 1)
    if index + shift < 0:
        with pytest.raises(ActionDomainError, match="index would leave the tower"):
            orbit_label(n, label, i)
        return
    image = orbit_label(n, label, i)
    assert image == PointLabel(family, index + shift, n)
    assert type(image) is PointLabel


def test_orbit_label_domain_errors():
    with pytest.raises(ActionDomainError):
        orbit_label(2, q_label(0, 2), -1)
    with pytest.raises(ActionDomainError):
        orbit_label(2, p_label(2, 2), 1)
    with pytest.raises(ActionDomainError):
        orbit_label(3, q_label(0, 2), 1)  # wrong tower
    with pytest.raises(ActionDomainError):
        orbit_label(2, p_label(4, 3), -1)  # another tower, though its shift stays in range


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_action_on_line_class(n):
    img = henon_act(n, L, 1)
    assert img.ell == n
    assert img.coeff(q_label(0, n)) == -(n - 1)
    assert all(img.coeff(q_label(k, n)) == -1 for k in range(1, 2 * n - 1))
    assert intersect(img, L) == n == degree(henon_map(n))
    back = henon_act(n, L, -1)
    assert back == L * n - _block(n, "p")


def test_action_on_exceptional_classes():
    for n in (2, 3):
        img = henon_act(n, exceptional(q_label(0, n)), 1)
        assert img == exceptional(q_label(2 * n - 1, n))


def test_action_partiality():
    with pytest.raises(ActionDomainError):
        henon_act(2, exceptional(p_label(0, 2)), 1)  # lone low p-label, forward
    with pytest.raises(ActionDomainError):
        henon_act(2, exceptional(q_label(1, 2)), -1)
    with pytest.raises(ActionDomainError):
        henon_act(2, exceptional(q_label(0, 3)), 1)  # another n's tower
    # an aggregate low block is fine in either direction
    assert henon_act(2, _block(2, "p"), 1) == L * 3 - _block(2, "q") * 2


def test_aggregate_rule_is_isometric():
    for n in (2, 3, 5):
        e_plus = _block(n, "p")
        img = henon_act(n, e_plus, 1)
        assert img == L * (n * n - 1) - _block(n, "q") * n
        assert intersect(img, img) == intersect(e_plus, e_plus) == -(n * n - 1)
        h_l = henon_act(n, L, 1)
        assert intersect(img, h_l) == intersect(e_plus, L) == 0


def _random_domain_class(rng, n):
    c = L * Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    for _ in range(rng.randint(0, 4)):
        c = c + exceptional(q_label(rng.randint(0, 12), n)) * Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    mu = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    c = c + _block(n, "p") * mu
    for _ in range(rng.randint(0, 3)):
        c = c + exceptional(p_label(rng.randint(2 * n - 1, 9 * n), n)) * rng.randint(-4, 4)
    return c


@pytest.mark.parametrize("n", [2, 3])
def test_action_is_isometric_and_invertible(n):
    rng = random.Random(99 + n)
    for _ in range(25):
        c = _random_domain_class(rng, n)
        d = _random_domain_class(rng, n)
        hc, hd = henon_act(n, c, 1), henon_act(n, d, 1)
        assert intersect(hc, hd) == intersect(c, d)
        assert henon_act(n, hc, -1) == c


@pytest.mark.parametrize("n,depth", [(2, 3), (2, 20), (3, 20), (5, 8), (2, 1665)])
def test_axis_class_exact_pairings(n, depth):
    ax = axis_classes(n, depth)
    tail_exp = Fraction(1, n ** (2 * depth + 2))
    assert intersect(ax.b_plus, ax.b_minus) == 1
    assert intersect(ax.b_plus, ax.b_plus) == tail_exp
    assert intersect(ax.b_minus, ax.b_minus) == tail_exp
    assert ax.tail_norm_sq == 2 * tail_exp
    assert intersect(ax.r, L) == 0
    assert intersect(ax.r, ax.r) == -2 + 2 * tail_exp
    assert ax.w_scaled == ax.b_plus + ax.b_minus
    assert axis_pairings(ax) == {
        "b_cross": 1,
        "b_plus_self": tail_exp,
        "b_minus_self": tail_exp,
        "w_norm_sq": 1 + tail_exp,
    }


def test_axis_series_coefficients():
    # r at level i carries coefficients (n-1)/n^(i+1) on the marked label
    # and 1/n^(i+1) on the remaining 2n-2 labels of each family
    n, depth = 3, 2
    ax = axis_classes(n, depth)
    step = 2 * n - 1
    for i in range(depth + 1):
        w = Fraction(1, n ** (i + 1))
        assert ax.r.coeff(q_label(i * step, n)) == (n - 1) * w
        assert ax.r.coeff(p_label(i * step, n)) == (n - 1) * w
        for k in range(1, step):
            assert ax.r.coeff(q_label(i * step + k, n)) == w
    values = sorted(ax.r.exc.values(), reverse=True)
    assert values[0] == Fraction(n - 1, n) and values[1] == Fraction(n - 1, n)
    assert values[2] == Fraction(1, n)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_truncated_endpoints_are_eigenclasses(n):
    ax = axis_classes(n, 6)
    ax_next = axis_classes(n, 7)
    assert henon_act(n, ax.b_plus, 1) == ax_next.b_plus * n
    assert henon_act(n, ax.b_minus, -1) == ax_next.b_minus * n


@pytest.mark.parametrize("n,depth", [(2, 3), (2, 20), (3, 20), (5, 20)])
def test_translation_displacement_closed_form(n, depth):
    # W.h(W) = n + 1/n + 2*n^(-2*depth-1), exactly
    ax = axis_classes(n, depth)
    orbit = reference_w_orbit(ax, 1)
    hw = orbit[1]
    expected = Fraction(n) + Fraction(1, n) + Fraction(2, n ** (2 * depth + 1))
    assert intersect(ax.w_scaled, hw) == expected
    assert intersect(hw, hw) == intersect(ax.w_scaled, ax.w_scaled)
    assert orbit[0] == ax.w_scaled
    assert henon_act(n, hw, -1) == ax.w_scaled


def test_axis_validation():
    assert AxisData._fields == ("n", "depth")
    for build in (AxisData, axis_classes):
        with pytest.raises(ValueError, match="needs n >= 2"):
            build(1, 5)
        with pytest.raises(ValueError, match="needs depth >= 1"):
            build(2, 0)
        with pytest.raises(ValueError, match="= 10002 exceeds 10000"):
            build(2, 1666)


def test_axis_support_bound():
    # 2(2n-1)(depth+1) = 10000 exactly at (3, 999); one more level is refused
    assert action.MAX_AXIS_SUPPORT == 10_000
    assert len(axis_classes(3, 999).r.exc) == action.MAX_AXIS_SUPPORT
    with pytest.raises(ValueError, match="exceeds 10000"):
        axis_classes(3, 1000)


def _same_class_and_order(c, d):
    return c == d and list(c.exc.items()) == list(d.exc.items())


def _mirror_domain_class(rng, n):
    """A class in the domain of the inverse step: aggregate low q-block, any p-labels."""
    c = L * Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    for _ in range(rng.randint(0, 4)):
        c = c + exceptional(p_label(rng.randint(0, 12), n)) * Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    c = c + _block(n, "q") * Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    for _ in range(rng.randint(0, 3)):
        c = c + exceptional(q_label(rng.randint(2 * n - 1, 9 * n), n)) * rng.randint(-4, 4)
    return c


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_act_once_matches_repeated_addition_reference(n):
    rng = random.Random(7 * n)
    # l + e^+/(-n) maps to l/n with the whole q-block cancelled: entries must be popped
    cancelling = L - _block(n, "p") * Fraction(1, n)
    assert reference_act_once(n, cancelling, 1) == L * Fraction(1, n)
    cases = [(cancelling, 1), (L, 1), (L, -1), (_block(n, "p"), 1), (_block(n, "q"), -1)]
    cases += [(_random_domain_class(rng, n), 1) for _ in range(20)]
    cases += [(_mirror_domain_class(rng, n), -1) for _ in range(20)]
    for c, sign in cases:
        assert _same_class_and_order(action._act_once(n, c, sign), reference_act_once(n, c, sign))


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_axis_classes_and_powers_match_reference(n):
    for depth in (1, 2, 7, 30):
        ax = axis_classes(n, depth)
        for ours, ref in zip((ax.b_plus, ax.b_minus, ax.r, ax.w_scaled), reference_axis_series(n, depth)):
            assert _same_class_and_order(ours, ref)
        orbit = reference_w_orbit(ax, 3)
        for power in (1, 2, 3, -1, -2, -3):
            expected = reference_henon_act(n, ax.w_scaled, power)
            assert _same_class_and_order(henon_act(n, ax.w_scaled, power), expected)
            assert _same_class_and_order(orbit[power], expected)
        assert sorted(orbit) == list(range(-3, 4)) and orbit[0] is ax.w_scaled


def test_act_once_domain_errors_kept():
    wrong_n = L + exceptional(q_label(4, 3))
    wrong_n_low = exceptional(p_label(0, 3))
    lone_low = exceptional(p_label(1, 2)) * 2
    for c in (wrong_n, wrong_n_low, lone_low):
        with pytest.raises(ActionDomainError):
            action._act_once(2, c, 1)
        with pytest.raises(ActionDomainError):
            reference_act_once(2, c, 1)
    with pytest.raises(ActionDomainError, match="outside the n=2 action"):
        henon_act(2, wrong_n_low, 1)
    with pytest.raises(ActionDomainError, match="outside the n=2 action"):
        henon_act(2, wrong_n, -1)
    with pytest.raises(ActionDomainError, match="non-aggregate"):
        henon_act(2, lone_low, 1)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_shifted_labels_are_point_labels(n):
    # a plain tuple key compares equal to its label, so only the type tells them apart
    for depth in (1, 4, 20):
        ax = axis_classes(n, depth)
        classes = [ax.b_plus, ax.b_minus, ax.r, ax.w_scaled, *reference_w_orbit(ax, 2).values()]
        for c in classes:
            assert all(type(label) is PointLabel for label in c.exc)


# n in {2, 3, 5}, depth in {2, 20, 800}; (5, 800) is past MAX_AXIS_SUPPORT,
# so n = 5 stops at its largest admitted depth
_AXIS_GRID = [(2, 2), (2, 20), (2, 800), (3, 2), (3, 20), (3, 800), (5, 2), (5, 20), (5, 554)]


@pytest.mark.parametrize("n,depth", _AXIS_GRID)
def test_w_scaled_shares_the_endpoint_coefficients(n, depth):
    ax = axis_classes(n, depth)
    assert ax.w_scaled == L * 2 - ax.r == ax.b_plus + ax.b_minus
    assert list(ax.w_scaled.exc) == list(ax.r.exc)
    for label, coeff in ax.w_scaled.exc.items():
        b = ax.b_plus.exc if label.family == "q" else ax.b_minus.exc
        assert coeff is b[label]


# n = 2..10 x depth {1, 2, 4, 8, 20, 100, 800} wherever the support bound
# admits the pair, plus (2, 1665), the largest depth it admits at n = 2
_BUILD_GRID = [
    (n, depth)
    for n in range(2, 11)
    for depth in (1, 2, 4, 8, 20, 100, 800)
    if 2 * (2 * n - 1) * (depth + 1) <= action.MAX_AXIS_SUPPORT
] + [(2, 1665)]


def _sharing(*classes):
    """For each coefficient of the classes in turn, the position of the first one that is the same object."""
    first = {}
    values = (x for c in classes for x in c.exc.values())
    return [first.setdefault(id(x), i) for i, x in enumerate(values)]


@pytest.mark.parametrize("n,depth", _BUILD_GRID)
def test_bulk_axis_truncation_equals_the_per_label_reference(n, depth):
    ours, ref = axis_classes(n, depth), reference_axis_classes(n, depth)
    names = ("b_plus", "b_minus", "r", "w_scaled")
    for name in names:
        c, d = getattr(ours, name), getattr(ref, name)
        assert c.ell == d.ell
        assert list(c.exc.items()) == list(d.exc.items())
    # two coefficients are one object in one build iff they are in the other,
    # within a class and across the four: intersect's product reuse fires on
    # the same runs, and b_plus, b_minus and w_scaled hold the same negations
    # (test_w_scaled_shares_the_endpoint_coefficients pins those directly)
    assert _sharing(*(getattr(ours, name) for name in names)) == _sharing(*(getattr(ref, name) for name in names))


@pytest.mark.parametrize("n,depth", [(2, 30), (3, 12), (5, 8), (2, 800)])
def test_certify_leaves_r_unbuilt(monkeypatch, n, depth):
    # certify pairs b_plus, b_minus and w_scaled only; r is built on its first read
    built = []
    real = action.axis_classes

    def kept(n, depth):
        built.append(real(n, depth))
        return built[-1]

    monkeypatch.setattr(action, "axis_classes", kept)
    assert certify(n, depth).passed
    [axis] = built
    assert "r" not in vars(axis)
    ref = reference_axis_classes(n, depth)
    assert axis.r.ell == ref.r.ell
    assert list(axis.r.exc.items()) == list(ref.r.exc.items())
    assert vars(axis)["r"] is axis.r
    # one object per distinct coefficient of a level in r, none of them w_scaled's
    assert _sharing(axis.w_scaled, axis.r) == _sharing(ref.w_scaled, ref.r)


@pytest.mark.parametrize("n,depth", [(2, 800), (3, 250), (5, 120)])
def test_certify_pairings_equal_plain_fraction_sums(n, depth):
    # the four exact pairings certify makes (three endpoint ones and w.w) and
    # the four explicit orbit pairings that gram() stands for
    ax = axis_classes(n, depth)
    orbit = reference_w_orbit(ax, 2)
    pairs = [(ax.b_plus, ax.b_minus), (ax.b_plus, ax.b_plus), (ax.b_minus, ax.b_minus), (ax.w_scaled, ax.w_scaled)]
    pairs += [(orbit[i], orbit[j]) for i, j in ((0, 1), (-1, 1), (-1, 2), (-2, 2))]
    for c, d in pairs:
        assert intersect(c, d) == reference_intersect(c, d)


_GRAM_GRID = [(n, depth) for n in range(2, 11) for depth in (2, 4, 8, 20, 100)]
_GRAM_GRID += [(2, 800), (3, 250), (5, 120), (2, 1665)]


@pytest.mark.parametrize("n,depth", _GRAM_GRID)
def test_gram_equals_the_explicit_orbit_pairings(n, depth):
    ax = axis_classes(n, depth)
    orbit = reference_w_orbit(ax, 2)
    explicit = [intersect(orbit[i], orbit[j]) for i, j in ((0, 0), (0, 1), (-1, 1), (-1, 2), (-2, 2))]
    assert ax.gram() == tuple(explicit)


@pytest.mark.parametrize("n,depth", _GRAM_GRID)
def test_integer_monotonicity_check_equals_the_fraction_reference(n, depth):
    # all four keys, deviation_ratio to the last bit of its float
    ax = AxisData(n, depth)
    g = ax.gram()
    assert fix_monotonicity_check(g, ax.tail_norm_sq) == reference_fix_monotonicity_check(g, ax.tail_norm_sq)


@pytest.mark.parametrize("n,depth", _GRAM_GRID)
def test_top_coefficients_from_level_0_equal_the_scan_of_r(n, depth):
    assert AxisData(n, depth).r_top == reference_r_top(axis_classes(n, depth).r)


@pytest.mark.parametrize("n,depth", [(2, 30), (3, 12), (5, 8)])
def test_run_form_orbit_points_are_the_shift_map_images(n, depth):
    ax = axis_classes(n, depth)
    runs = ax.w_runs(2)
    assert sorted(runs) == list(range(-2, 3))
    assert reference_run_class(n, runs[0]) == ax.w_scaled
    for k, point in runs.items():
        assert reference_run_class(n, point) == henon_act(n, ax.w_scaled, k)


def test_run_step_refuses_a_run_that_does_not_continue():
    # the upper run's first weight off by one part in 10^6: the level-0 image
    # no longer extends it geometrically
    n = 3
    w = axis_classes(n, 12).w_runs(0)[0]
    off = Fraction(1_000_001, 1_000_000)
    with pytest.raises(ActionDomainError, match="does not continue the q-run"):
        action._run_step(n, w._replace(q=w.q._replace(first=w.q.first * off)), 1)
    with pytest.raises(ActionDomainError, match="does not continue the p-run"):
        action._run_step(n, w._replace(p=w.p._replace(first=w.p.first * off)), -1)
