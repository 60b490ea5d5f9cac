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
class, so it is linear in the support; a truncation at depth d takes no
step: the images of the base points under powers up to d are the tower
labels of index below (2n-1)(d+1), so each label of its support
2(2n-1)(d+1) is built once from its index and stored by dict(zip(...)).
Label insertion order matches repeated ``PMClass.__add__``, which matters
because float conversions downstream sum in dict order.  AxisData(n, depth)
derives the rest of an axis truncation: the largest coefficients from the
level-0 blocks, and the Gram sequence of the axis point in run form (l plus
one geometric run of blocks per tower), from the images of l and of one
level-0 block per direction at any depth.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import Dict, List, Tuple

from .lattice import (
    FAMILY_P,
    FAMILY_Q,
    PMClass,
    PointLabel,
    _accumulate,
    intersect,
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
    # the family and n are the valid label's own and the index was just
    # checked, so the image skips PointLabel's validation
    return tuple.__new__(PointLabel, (label.family, new_index, n))


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
        if label.context_n != n:
            raise ActionDomainError(f"class touches label {label} outside the n={n} action")
        if label.family == low_family and label.index < step:
            low_block[label.index] = coeff
        else:
            out[orbit_label(n, label, sign)] = coeff
    if low_block:
        # Only the aggregate block (n-1, 1, ..., 1) has a forced image:
        # applying the map to (inverse map)(l) = n*l - block gives
        # block -> (n^2-1)*l - n*(mirror block).
        mu = low_block.get(0, Fraction(0)) / (n - 1)
        if not all(low_block.get(k, Fraction(0)) == mu for k in range(1, step)):
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


#: one family's geometric run sum_{j < count} first * n^-j * block(j), where
#: block(j) is the family's base-point tower (n-1, 1, ..., 1) moved j levels
#: by orbit_label; first is the weight of level 0
Run = namedtuple("Run", "count first")

#: ell*l plus one run of each family, q then p: the form of h^k(w_scaled)
RunPoint = namedtuple("RunPoint", "ell q p")


def _run_step(n: int, point: RunPoint, sign: int, count: int = 1) -> List[RunPoint]:
    """The first count images of a run-form point under the shift map (sign=+1) or its inverse (sign=-1).

    A step moves the upper family's run (q for sign=+1) one level up and
    the lower family's run one level down.  What crosses level 0, the l-part
    and the lower run's level-0 block, maps linearly: henon_act is asked
    once for the images of l and of the lower level-0 block, each a multiple
    of l plus a multiple of the upper level-0 block, and every step combines
    the two in scalar arithmetic.  The combined block weight must be
    first*n, the weight that continues the upper run, or the image has no
    run form and ActionDomainError is raised.
    """
    up_family, low_family = (FAMILY_Q, FAMILY_P) if sign == 1 else (FAMILY_P, FAMILY_Q)
    l_image = henon_act(n, PMClass(1), sign)
    block_image = henon_act(n, PMClass(0, base_points(n, low_family)), sign)
    # the images are n*l - B and (n^2-1)*l - n*B, B the upper level-0 block:
    # each is its l-part plus its weight on B, read at B's first label
    up_label, up_m = base_points(n, up_family)[0]
    l_weight = l_image.coeff(up_label) / up_m
    block_weight = block_image.coeff(up_label) / up_m
    points = []
    for _ in range(count):
        up, low = getattr(point, up_family), getattr(point, low_family)
        head = low.first if low.count else 0
        first = up.first * n
        if point.ell * l_weight + head * block_weight != first:
            raise ActionDomainError(
                f"the step's level-0 image does not continue the {up_family}-run with weight {first}"
            )
        runs = {
            up_family: Run(up.count + 1, first),
            low_family: Run(low.count - 1, low.first / n) if low.count else low,
        }
        point = RunPoint(point.ell * l_image.ell + head * block_image.ell, **runs)
        points.append(point)
    return points


def _run_pair(n: int, x: RunPoint, y: RunPoint) -> Fraction:
    """Intersection pairing of two run-form points, exactly.

    Blocks of distinct levels are orthogonal and level j of a run carries
    first * n^-j, so each family adds first*first' * B(block, block) times
    sum_{j<m} n^-2j over the m levels both runs cover.
    """
    block_sq = -sum(m * m for _, m in base_points(n))  # e.e = -1 for every base point
    total = x.ell * y.ell
    for a, b in ((x.q, y.q), (x.p, y.p)):
        m = min(a.count, b.count)
        if m:
            # sum_{j<m} n^-2j = (n^2m - 1) / ((n^2 - 1) n^(2m-2))
            levels = Fraction(n ** (2 * m) - 1, (n * n - 1) * n ** (2 * m - 2))
            total += a.first * b.first * block_sq * levels
    return total


class AxisData(namedtuple("AxisData", "n depth")):
    """The shift map's axis truncated at a depth; every other value is derived, exactly.

    n < 2, depth < 1 and a support 2(2n-1)(depth+1) past MAX_AXIS_SUPPORT
    are refused with a ValueError.
    """

    __slots__ = ()

    def __new__(cls, n: int, depth: int):
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
        return super().__new__(cls, n, depth)

    @property
    def tail_norm_sq(self) -> Fraction:
        """2*n^(-2*depth-2), which bounds the discarded tail of r exactly."""
        return Fraction(2, self.n ** (2 * self.depth + 2))

    @property
    def r_top(self) -> Tuple[Fraction, ...]:
        """The five largest coefficients of r, largest first, from its level-0 blocks.

        Level 0 is each tower (n-1, 1, ..., 1) weighted 1/n; level j >= 1 carries
        at most (n-1)/n^2 < 1/n, the smallest level-0 coefficient.
        """
        return tuple(sorted((Fraction(m, self.n) for _, m in base_points(self.n) * 2), reverse=True)[:5])

    def w_runs(self, reach: int) -> Dict[int, RunPoint]:
        """h^k(w_scaled) in run form for k = -reach..reach, walked outward one step at a time.

        w_scaled = b_plus + b_minus is 2*l plus a run of depth+1 levels with
        first weight -1/n in each family; each direction hands henon_act l
        and one level-0 block once, and its reach steps are scalar arithmetic.
        """
        run = Run(self.depth + 1, Fraction(-1, self.n))
        orbit = {0: RunPoint(Fraction(2), run, run)}
        for sign in (1, -1):
            for k, point in enumerate(_run_step(self.n, orbit[0], sign, reach), 1):
                orbit[sign * k] = point
        return orbit

    def gram(self) -> Tuple[Fraction, ...]:
        """(g_0, .., g_4) with g_k = B(w_scaled, h^k w_scaled), so g_0 = 2 w.w.

        The shift map is an isometry, so B(h^i w_scaled, h^j w_scaled) = g_(j-i):
        each g_k is one run-form pairing of the points of w_runs(2), whose
        cost does not grow with the depth.
        """
        orbit = self.w_runs(2)
        pairs = ((0, 0), (0, 1), (-1, 1), (-1, 2), (-2, 2))
        return tuple(_run_pair(self.n, orbit[i], orbit[j]) for i, j in pairs)


class AxisClasses(AxisData):
    """AxisData plus its explicit truncation: the PMClass attributes b_plus, b_minus, w_scaled and r.

    r = 2*l - w_scaled is built on its first read, from the level labels and
    the negated level coefficients that axis_classes keeps: certify never
    reads it.
    """

    @cached_property
    def r(self) -> PMClass:
        levels = []
        for level in self._neg:
            # one negation per distinct object of the level
            one = -level[1]
            top = -level[0] if level[0] is not level[1] else one
            levels.append((top,) + (one,) * (len(level) - 1))
        flat = chain.from_iterable
        return PMClass.from_canonical(Fraction(0), dict(zip(self._labels, flat(flat(zip(levels, levels))))))


def axis_classes(n: int, depth: int) -> AxisClasses:
    """Truncate the axis series of the shift map at the given depth (>= 1).

    b_plus/b_minus truncate the ideal endpoint classes, r the combined orbit
    series, and w_scaled = 2*l - r = b_plus + b_minus is the projection of l
    onto the axis times sqrt(2), so that every coefficient stays rational.
    Level i contributes h^i(e_minus) and h^-i(e_plus) with weight n^-(i+1):
    the images of a tower's base points under the i-th power are the labels
    i(2n-1) .. i(2n-1)+2n-2 of the q-tower (forward) and of the p-tower
    (backward), each with its base point's multiplicity.  So every label is
    built once, in index order, and the three dicts b_plus, b_minus and
    w_scaled are filled from them in bulk: w_scaled level by level, q-tower
    then p-tower, the order of repeated addition.  Each level has one
    Fraction per distinct coefficient -m/n^(i+1), shared by b_plus, b_minus
    and w_scaled; r, built on first read, holds one negation of each.
    """
    axis = AxisClasses(n, depth)
    step = 2 * n - 1
    size = step * (depth + 1)
    # the index-ordered labels of each tower, built without PointLabel's validation
    q, p = (
        list(map(tuple.__new__, repeat(PointLabel, size), zip(repeat(family, size), range(size), repeat(n, size))))
        for family in (FAMILY_Q, FAMILY_P)
    )
    neg = []  # per level: one tower's coefficients, -(n-1, 1, ..., 1)/n^(i+1)
    den = 1
    for _ in range(depth + 1):
        den *= n
        minus_one = Fraction(-1, den)
        # at n = 2 the marked point's multiplicity n-1 is 1 too: one object
        minus_top = Fraction(1 - n, den) if n > 2 else minus_one
        neg.append((minus_top,) + (minus_one,) * (step - 1))
    flat = chain.from_iterable
    # zip(*[iter(x)] * step) cuts x into its levels; level by level, q-tower then p-tower
    labels = list(flat(flat(zip(zip(*[iter(q)] * step), zip(*[iter(p)] * step)))))
    tower_neg = list(flat(neg))
    axis.b_plus = PMClass.from_canonical(Fraction(1), dict(zip(q, tower_neg)))
    axis.b_minus = PMClass.from_canonical(Fraction(1), dict(zip(p, tower_neg)))
    axis.w_scaled = PMClass.from_canonical(Fraction(2), dict(zip(labels, flat(flat(zip(neg, neg))))))
    axis._labels, axis._neg = labels, neg
    return axis


def axis_pairings(axis: AxisClasses) -> Dict[str, Fraction]:
    """b+.b-, b+.b+, b-.b- and w.w = (w_scaled.w_scaled)/2, paired exactly on each call.

    They equal 1, n^(-2*depth-2) twice, and 1 + n^(-2*depth-2).
    """
    return {
        "b_cross": intersect(axis.b_plus, axis.b_minus),
        "b_plus_self": intersect(axis.b_plus, axis.b_plus),
        "b_minus_self": intersect(axis.b_minus, axis.b_minus),
        "w_norm_sq": intersect(axis.w_scaled, axis.w_scaled) / 2,
    }
