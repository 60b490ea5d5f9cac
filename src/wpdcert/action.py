"""Action of the shift maps (x,y) -> (y, y^n - x) on sparse lattice classes.

The map has 2n-1 base points forming a tower: p_0 with multiplicity n-1 and
p_1..p_{2n-2} with multiplicity 1; its inverse has the mirror family q_k.
Iterating the map shifts the exceptional towers by 2n-1 per power, so the
action on classes is a signed index shift plus the rule on the line class,
l -> n*l - e_n^-(aggregate).  The action is partial: the forward image of an
individual low-index p-class (and the backward image of a low-index q-class)
would need the full resolution lattice, which is not modeled; only the
aggregate block e_n^+/- has a forced image via the group law.

Cost: one step writes its image into a single dict in one pass over the
class, so it is linear in the support; a truncation at depth d takes 2d steps
on (2n-1)-label blocks and is linear in its support 2(2n-1)(d+1).  Label
insertion order matches repeated ``PMClass.__add__``, which matters because
float conversions downstream sum in dict order.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Dict, List, Tuple

from .lattice import (
    FAMILY_P,
    FAMILY_Q,
    PMClass,
    PointLabel,
    _accumulate,
    intersect,
    line_class,
    p_label,
    q_label,
)


#: largest support 2(2n-1)(depth+1) of an axis truncation; it admits (2, 1665),
#: about twice the support of (2, 800), the largest depth the benchmark runs
MAX_AXIS_SUPPORT = 10_000


class ActionDomainError(ValueError):
    """Raised when a class leaves the domain of the partial lattice action."""


def base_points(n: int, family: str = FAMILY_P) -> List[Tuple[PointLabel, int]]:
    """Base points of the shift map (family "p") or of its inverse ("q").

    Multiplicities are (n-1, 1, ..., 1) over the tower of 2n-1 points; the
    squared multiplicities sum to n^2 - 1.
    """
    if n < 2:
        raise ValueError("base_points needs n >= 2")
    if family not in (FAMILY_P, FAMILY_Q):
        raise ValueError("family must be 'p' or 'q'")
    mk = p_label if family == FAMILY_P else q_label
    return [(mk(0, n), n - 1)] + [(mk(k, n), 1) for k in range(1, 2 * n - 1)]


def exceptional_block(n: int, family: str) -> PMClass:
    """The weighted sum of exceptional classes over one base-point tower."""
    return PMClass(0, base_points(n, family))


def orbit_label(n: int, label: PointLabel, i: int) -> PointLabel:
    """Image label of e_label under the i-th power of the shift map.

    Powers move the q-family up by i*(2n-1) and the p-family down; a shift
    that would produce a negative index is outside the action's domain.
    """
    if label.context_n != n:
        raise ActionDomainError(f"label {label} does not belong to the n={n} tower")
    step = 2 * n - 1
    shift = i * step if label.family == FAMILY_Q else -i * step
    new_index = label.index + shift
    if new_index < 0:
        raise ActionDomainError(
            f"power {i} of the shift map does not act on e[{label}] "
            "(index would leave the tower)"
        )
    return PointLabel(label.family, new_index, n)


def _act_once(n: int, c: PMClass, sign: int) -> PMClass:
    """One application of the shift map (sign=+1) or its inverse (sign=-1).

    The image is written into one dict: the other family's base-point block
    first (when c has an l-part), then the shifted labels in input order, then
    the aggregate-block image added onto that block.
    """
    step = 2 * n - 1
    low_family = FAMILY_P if sign == 1 else FAMILY_Q
    other_family = FAMILY_Q if sign == 1 else FAMILY_P
    block = base_points(n, other_family)
    ell = c.ell * n
    # l -> n*l - (aggregate block of the inverse map's base points)
    out = {label: -mult * c.ell for label, mult in block} if c.ell else {}
    low_block = {}
    for label, coeff in c.exc.items():
        family = label.family
        if label.context_n != n:
            raise ActionDomainError(f"class touches label {label} outside the n={n} action")
        # every label is p or q, n was just checked and the index stays >= 0,
        # so the shifted label skips PointLabel's validation
        if family == other_family:
            out[tuple.__new__(PointLabel, (family, label.index + step, n))] = coeff
        elif label.index >= step:
            out[tuple.__new__(PointLabel, (family, label.index - step, n))] = coeff
        else:
            low_block[label.index] = coeff
    if low_block:
        # Only the aggregate block (n-1, 1, ..., 1) has a forced image:
        # applying the map to (inverse map)(l) = n*l - block gives
        # block -> (n^2-1)*l - n*(mirror block).
        mu = low_block.get(0, Fraction(0)) / (n - 1)
        pattern_ok = all(low_block.get(k, Fraction(0)) == mu for k in range(1, step))
        if not pattern_ok or low_block.get(0, Fraction(0)) != mu * (n - 1):
            raise ActionDomainError(
                f"class touches the low {low_family}-tower in a non-aggregate way; "
                "individual images there are not modeled"
            )
        ell += mu * (n * n - 1)
        _accumulate(out, ((label, -n * mult * mu) for label, mult in block))
    return PMClass.from_canonical(ell, out)


def henon_act(n: int, c: PMClass, power: int) -> PMClass:
    """Linear extension of the shift-map action to a signed power."""
    if n < 2:
        raise ValueError("henon_act needs n >= 2")
    sign = 1 if power > 0 else -1
    for _ in range(abs(power)):
        c = _act_once(n, c, sign)
    return c


class AxisData(namedtuple("AxisData", "n depth b_plus b_minus r w_scaled w_norm_sq tail_norm_sq")):
    """Truncated axis data of the shift map, all coefficients exact.

    b_plus/b_minus are the truncations of the ideal endpoint classes, r the
    truncation of the combined orbit series, and w_scaled the projection of l
    onto the axis times sqrt(2): w_scaled = 2*l - r, so that every stored
    coefficient stays rational (all four are PMClass).  Intersections of true
    axis classes follow by scaling:  w.w = (w_scaled.w_scaled)/2,
    w.l = (w_scaled.l)/sqrt(2); the exact w.w is paired once and kept as the
    Fraction w_norm_sq.  The Fraction tail_norm_sq = 2*n^(-2*depth-2) bounds
    the discarded tail of r exactly.
    """

    __slots__ = ()

    def w_orbit(self, reach: int) -> Dict[int, PMClass]:
        """h^k(w_scaled) for k = -reach..reach, walked outward one step at a time.

        2*reach shift-map steps in all, where henon_act(n, w_scaled, k) for
        each k separately would take reach*(reach+1).
        """
        orbit = {0: self.w_scaled}
        for sign in (1, -1):
            c = self.w_scaled
            for k in range(1, reach + 1):
                c = henon_act(self.n, c, sign)
                orbit[sign * k] = c
        return orbit

    def gram(self) -> Tuple[Fraction, ...]:
        """(g_0, .., g_4) with g_k = B(w_scaled, h^k w_scaled) and g_0 = 2 w_norm_sq.

        The shift map is an isometry, so B(h^i w_scaled, h^j w_scaled) = g_(j-i):
        g_1 .. g_4 are one exact pairing each of the points of w_orbit(2).
        """
        orbit = self.w_orbit(2)
        return (
            2 * self.w_norm_sq,
            intersect(orbit[0], orbit[1]),
            intersect(orbit[-1], orbit[1]),
            intersect(orbit[-1], orbit[2]),
            intersect(orbit[-2], orbit[2]),
        )


def axis_classes(n: int, depth: int) -> AxisData:
    """Truncate the axis series of the shift map at the given depth (>= 1).

    The truncated endpoint classes satisfy, exactly:
      b_plus . b_minus = 1,   b_plus . b_plus = b_minus . b_minus = n^(-2*depth-2),
      w_scaled . w_scaled = 2 + 2*n^(-2*depth-2).
    Level i contributes h^i(e_minus) and h^-i(e_plus) with weight n^-(i+1);
    the three series are accumulated in dicts and wrapped once.  A support
    2(2n-1)(depth+1) past MAX_AXIS_SUPPORT is refused with a ValueError.
    """
    if n < 2:
        raise ValueError("axis_classes needs n >= 2")
    if depth < 1:
        raise ValueError("axis_classes needs depth >= 1")
    support = 2 * (2 * n - 1) * (depth + 1)
    if support > MAX_AXIS_SUPPORT:
        raise ValueError(
            f"axis truncation support 2(2n-1)(depth+1) = {support} exceeds {MAX_AXIS_SUPPORT}; "
            "lower the depth or n"
        )
    b_plus = {}
    b_minus = {}
    r = {}
    fwd = exceptional_block(n, FAMILY_Q)
    bwd = exceptional_block(n, FAMILY_P)
    for i in range(depth + 1):
        weight = Fraction(1, n ** (i + 1))
        fwd_terms = [(label, coeff * weight) for label, coeff in fwd.exc.items()]
        bwd_terms = [(label, coeff * weight) for label, coeff in bwd.exc.items()]
        _accumulate(b_plus, ((label, -v) for label, v in fwd_terms))
        _accumulate(b_minus, ((label, -v) for label, v in bwd_terms))
        _accumulate(r, fwd_terms + bwd_terms)
        if i < depth:
            fwd = henon_act(n, fwd, 1)
            bwd = henon_act(n, bwd, -1)
    r = PMClass.from_canonical(Fraction(0), r)
    w_scaled = line_class() * 2 - r
    return AxisData(
        n,
        depth,
        PMClass.from_canonical(Fraction(1), b_plus),
        PMClass.from_canonical(Fraction(1), b_minus),
        r,
        w_scaled,
        intersect(w_scaled, w_scaled) / 2,
        Fraction(2, n ** (2 * depth + 2)),
    )
