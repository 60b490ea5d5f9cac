"""Independent test oracles: synthetic constructions and closed forms.

Nothing here calls the code path it checks; these are the other side of
each dual-route check.  (``reference_w_orbit`` steps whole explicit classes
by ``henon_act``, where the run-form Gram sequence steps level 0 only.)
"""

import heapq
import math
from fractions import Fraction

from scipy.optimize import brentq

from wpdcert.action import ActionDomainError, AxisClasses, base_points, henon_act, orbit_label
from wpdcert.fields import PrimeField
from wpdcert.hyperbolic import HVec, as_vector, mdot
from wpdcert.lattice import FAMILY_P, FAMILY_Q, PMClass, PointLabel, exceptional, line_class
from wpdcert.polymaps import Poly2, affine_map, compose, henon_inverse, henon_map


def lambert_fourth_vertex(d_dc, d_cb):
    """Fourth vertex of a three-right-angle quadrilateral, built synthetically.

    Minkowski plane: C at (1,0,0); B along the spacelike direction u at
    distance d_cb; D along v at distance d_dc.  A lies on the geodesic through
    D orthogonal to DC, at the root of the pairing with the CB tangent at B
    (that pairing vanishes exactly on the geodesic through B orthogonal to CB).
    """
    c_pt = HVec(1.0, {})
    u = HVec(0.0, {"u": 1.0})
    v = HVec(0.0, {"v": 1.0})
    b_pt = c_pt * math.cosh(d_cb) + u * math.sinh(d_cb)
    d_pt = c_pt * math.cosh(d_dc) + v * math.sinh(d_dc)
    tangent_b = c_pt * math.sinh(d_cb) + u * math.cosh(d_cb)

    def pairing(s):
        return mdot(d_pt * math.cosh(s) + u * math.sinh(s), tangent_b)

    s_root = brentq(pairing, 0.0, 20.0, xtol=1e-14, rtol=8.9e-16)
    a_pt = d_pt * math.cosh(s_root) + u * math.sinh(s_root)
    return a_pt, b_pt, d_pt, tangent_b


def lambert_feasible(d_dc, d_cb, margin=0.95):
    return (
        math.tanh(d_dc) * math.cosh(d_cb) <= margin
        and math.tanh(d_cb) * math.cosh(d_dc) <= margin
    )


def binomial_forward(field, n, a, b, c, d):
    """Displayed expansion of h f h^-1 = (c x + d, (c x + d)^n - a x^n + a y - b)."""
    comp_x = {(1, 0): c, (0, 0): d}
    comp_y = {}
    for k in range(n + 1):
        term = field.mul(field.coerce(math.comb(n, k)), field.mul(field.pow(c, k), field.pow(d, n - k)))
        comp_y[(k, 0)] = term
    comp_y[(n, 0)] = field.sub(comp_y[(n, 0)], a)
    comp_y[(0, 1)] = a
    comp_y[(0, 0)] = field.sub(comp_y.get((0, 0), field.zero), b)
    return Poly2(field, comp_x), Poly2(field, comp_y)


def binomial_backward(field, n, a, b, c, d):
    """Displayed expansion of h^-1 f h = ((a y + b)^n - c y^n + c x - d, a y + b)."""
    comp_x = {(1, 0): c}
    for k in range(n + 1):
        term = field.mul(field.coerce(math.comb(n, k)), field.mul(field.pow(a, k), field.pow(b, n - k)))
        comp_x[(0, k)] = field.add(comp_x.get((0, k), field.zero), term)
    comp_x[(0, n)] = field.sub(comp_x[(0, n)], c)
    comp_x[(0, 0)] = field.sub(comp_x.get((0, 0), field.zero), d)
    comp_y = {(0, 1): a, (0, 0): b}
    return Poly2(field, comp_x), Poly2(field, comp_y)


def _degree_at_most_one(f):
    return f.comp_x.degree() <= 1 and f.comp_y.degree() <= 1


def reference_fix_candidates(n, p):
    """Per-candidate conjugation over F_p: the slow reference for the search kernel.

    Returns the sorted (a, b, c, d) of the affine maps the kernel must keep.
    """
    field = PrimeField(p)
    if n % p == 0:
        raise ValueError("characteristic divides n")
    h = henon_map(n, field)
    hinv = henon_inverse(n, field)
    survivors = []
    for a in field.units():
        for c in field.units():
            for b in range(p):
                for d in range(p):
                    f = affine_map(field, a, b, c, d)
                    fwd = compose(h, compose(f, hinv))
                    if not _degree_at_most_one(fwd):
                        continue
                    bwd = compose(hinv, compose(f, h))
                    if not _degree_at_most_one(bwd):
                        continue
                    if fwd.comp_y.coeff(1, 0) != 0:  # moves p_0
                        continue
                    if bwd.comp_x.coeff(0, 1) != 0:  # moves q_0
                        continue
                    if n == 2:
                        fwd2 = compose(h, compose(fwd, hinv))
                        if not _degree_at_most_one(fwd2):
                            continue
                        bwd2 = compose(hinv, compose(bwd, h))
                        if not _degree_at_most_one(bwd2):
                            continue
                    survivors.append((a, b, c, d))
    survivors.sort()
    return survivors


def reference_intersect(c, d):
    """The intersection form c.ell*d.ell - sum_label c[label]*d[label], term by term in Fraction."""
    shared = (x * d.exc[label] for label, x in c.exc.items() if label in d.exc)
    return c.ell * d.ell - sum(shared, Fraction(0))


def _reference_block(n, family):
    """Base-point tower (n-1, 1, ..., 1) of one family, summed by repeated addition."""
    out = PMClass()
    for k in range(2 * n - 1):
        out = out + exceptional(PointLabel(family, k, n)) * (n - 1 if k == 0 else 1)
    return out


def reference_act_once(n, c, sign):
    """One shift-map step built by repeated PMClass addition, one term at a time.

    The straightforward construction: O(support^2), but its label insertion
    order is the contract the one-pass version must keep.
    """
    step = 2 * n - 1
    low_family, other_family = ("p", "q") if sign == 1 else ("q", "p")
    out = PMClass()
    if c.ell:
        out = out + (line_class() * n - _reference_block(n, other_family)) * c.ell
    low_block = {}
    for label, coeff in c.exc.items():
        if label.context_n != n:
            raise ActionDomainError(f"class touches label {label} outside the n={n} action")
        if label.family == other_family:
            out = out + exceptional(PointLabel(label.family, label.index + step, n)) * coeff
        elif label.index >= step:
            out = out + exceptional(PointLabel(label.family, label.index - step, n)) * coeff
        else:
            low_block[label.index] = coeff
    if low_block:
        mu = low_block.get(0, Fraction(0)) / (n - 1)
        if low_block.get(0, Fraction(0)) != mu * (n - 1) or any(
            low_block.get(k, Fraction(0)) != mu for k in range(1, step)
        ):
            raise ActionDomainError(f"class touches the low {low_family}-tower in a non-aggregate way")
        out = out + (line_class() * (n * n - 1) - _reference_block(n, other_family) * n) * mu
    return out


def reference_henon_act(n, c, power):
    sign = 1 if power > 0 else -1
    for _ in range(abs(power)):
        c = reference_act_once(n, c, sign)
    return c


def reference_axis_series(n, depth):
    """(b_plus, b_minus, r, w_scaled) of the depth-d truncation, by repeated addition."""
    b_plus = b_minus = line_class()
    r = PMClass()
    fwd, bwd = _reference_block(n, "q"), _reference_block(n, "p")
    for i in range(depth + 1):
        weight = Fraction(1, n ** (i + 1))
        b_plus = b_plus - fwd * weight
        b_minus = b_minus - bwd * weight
        r = r + (fwd + bwd) * weight
        fwd = reference_act_once(n, fwd, 1)
        bwd = reference_act_once(n, bwd, -1)
    return b_plus, b_minus, r, line_class() * 2 - r


def reference_axis_classes(n, depth):
    """The axis truncation label by label: one orbit_label call per base point and level.

    The per-label construction that action.axis_classes builds in bulk; its
    insertion order and its sharing of coefficient objects are the contract.
    """
    axis = AxisClasses(n, depth)
    b_plus = {}
    b_minus = {}
    r = {}
    w_scaled = {}  # 2*l - r = b_plus + b_minus: the b-coefficient of each label
    towers = ((base_points(n, FAMILY_Q), 1, b_plus), (base_points(n, FAMILY_P), -1, b_minus))
    for i in range(depth + 1):
        # one Fraction per distinct coefficient m/n^(i+1) of the level and one
        # for its negation, shared by every label that carries it
        den = n ** (i + 1)
        pos = {m: Fraction(m, den) for m in {n - 1, 1}}
        neg = {m: -c for m, c in pos.items()}
        # every level covers labels no other level touches, so plain stores
        # keep the insertion order of repeated addition
        for tower, sign, b in towers:
            for label, m in tower:
                image = orbit_label(n, label, sign * i)
                r[image] = pos[m]
                b[image] = w_scaled[image] = neg[m]
    axis.b_plus = PMClass.from_canonical(Fraction(1), b_plus)
    axis.b_minus = PMClass.from_canonical(Fraction(1), b_minus)
    axis.r = PMClass.from_canonical(Fraction(0), r)
    axis.w_scaled = PMClass.from_canonical(Fraction(2), w_scaled)
    return axis


def reference_r_top(r):
    """The five largest coefficients of the explicit class r, largest first, by a scan of its whole support."""
    return tuple(heapq.nlargest(5, r.exc.values()))


def reference_w_orbit(axis, reach):
    """h^k(w_scaled) for k = -reach..reach as explicit classes, walked outward by henon_act.

    The explicit side of the run-form Gram sequence: every class carries the
    whole truncation support.
    """
    orbit = {0: axis.w_scaled}
    for sign in (1, -1):
        c = axis.w_scaled
        for k in range(1, reach + 1):
            c = henon_act(axis.n, c, sign)
            orbit[sign * k] = c
    return orbit


def reference_run_class(n, point):
    """A run-form point ell*l + sum_F sum_{j<count} first n^-j block_F(j), written out label by label."""
    step = 2 * n - 1
    exc = {}
    for family in ("q", "p"):
        run = getattr(point, family)
        for j in range(run.count):
            for k in range(step):
                exc[PointLabel(family, j * step + k, n)] = run.first / n**j * (n - 1 if k == 0 else 1)
    return PMClass(point.ell, exc)


def reference_monotonicity_float(axis, orbit):
    """The float convexity check: h^k(w), k = -2..2, as unit HVecs, in order near one geodesic.

    Each inner point is compared with the point of the geodesic from h^-2(w)
    toward h^2(w) at the same distance from h^-2(w), by the chord distance
    2 asinh(sqrt(-B(x-y, x-y)) / 2), which stays accurate near 0; the verdict
    allows 1e-7 + 10 sqrt(tail_norm_sq).
    """
    unit = 1.0 / math.sqrt(float(reference_intersect(axis.w_scaled, axis.w_scaled)))
    points = [as_vector(orbit[k]) * unit for k in (-2, -1, 0, 1, 2)]

    def dist(x, y):
        return math.acosh(max(mdot(x, y), 1.0))

    def chord(x, y):
        c = x - y
        return 2.0 * math.asinh(math.sqrt(max(0.0, -mdot(c, c))) / 2.0)

    start, end = points[0], points[-1]
    from_start = [dist(start, p) for p in points]
    total = from_start[-1]
    additivity_gap = abs(total - sum(dist(points[i], points[i + 1]) for i in range(4)))
    direction = (end - start * math.cosh(total)) * (1.0 / math.sinh(total))
    deviations = [
        chord(p, start * math.cosh(t) + direction * math.sinh(t))
        for p, t in zip(points[1:4], from_start[1:4])
    ]
    tolerance = 1e-7 + 10.0 * math.sqrt(float(axis.tail_norm_sq))
    max_dev = max(deviations + [additivity_gap])
    ordered = all(from_start[i] < from_start[i + 1] for i in range(4))
    return {
        "max_deviation": max_dev,
        "additivity_gap": additivity_gap,
        "tolerance": tolerance,
        "ordered": ordered,
        "ok": ordered and max_dev <= tolerance,
    }


def _reference_gram_det(g: tuple, powers: tuple) -> Fraction:
    """Determinant of the Gram matrix of h^k(w_scaled), k in powers: entry (i, j) is g[|i - j|]."""
    m = [[g[abs(i - j)] for j in powers] for i in powers]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def reference_fix_monotonicity_check(g: tuple, tail_norm_sq: Fraction) -> dict:
    """The Fix-set monotonicity check on Fraction determinants: the reference for certifier's integer one.

    Verify the convexity hypothesis behind the Fix-set inclusion chain, exactly.

    The five truncated axis points h^k(w), k = -2..2, must lie in order on a
    common geodesic up to the tail; then for every isometry at once, moving
    the outer pair by at most eps moves the inner points by at most eps plus
    twice their distance from that geodesic.  Direct evaluation on the Fix
    members themselves would need the action on infinitely-near points, which
    is out of scope.

    The shift map is an isometry, so the Gram matrix of the orbit is Toeplitz
    in g = (g_0, .., g_4), g_k = B(w_scaled, h^k w_scaled), as returned by
    AxisData.gram; tail_norm_sq is the axis's exact tail bound.  The points
    are ordered when g_0 < g_1 < g_2 < g_3 < g_4, and h^j(w) lies at
    distance delta_j from the geodesic through h^-2(w) and h^2(w) with
    sinh^2 delta_j = -det G3_j / (g_0 det G2), G2 the Gram matrix of the ends
    and G3_j that of the ends and h^j(w).  The verdict needs
    sinh^2 delta_j <= tail_norm_sq for j = -1, 0, 1, decided in Fraction,
    and sinh^2 delta_j >= 0, which no g of points on the hyperboloid
    violates; a g with g_0 <= 0 or coinciding ends is refused with no ratio.
    ``deviation_ratio`` is the largest sinh^2 delta_j / tail_norm_sq, as a
    float for display only.
    """
    ordered = all(g[k] < g[k + 1] for k in range(4))
    det2 = _reference_gram_det(g, (-2, 2))
    ratios = []  # stays empty when g_0 <= 0 or the ends coincide: no point or no geodesic to measure
    if det2 and g[0] > 0:
        scale = g[0] * det2 * tail_norm_sq
        ratios = [-_reference_gram_det(g, (-2, 2, j)) / scale for j in (-1, 0, 1)]
    return {
        "mode": "exact",
        "deviation_ratio": float(max(ratios)) if ratios else None,
        "ordered": ordered,
        "ok": ordered and bool(ratios) and 0 <= min(ratios) and max(ratios) <= 1,
    }
