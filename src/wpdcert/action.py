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
class, so it is linear in the support; a truncation at depth d writes the
images of the base points under powers up to d straight from the tower, with
no step, and is linear in its support 2(2n-1)(d+1).  Label insertion order
matches repeated ``PMClass.__add__``, which matters because float conversions
downstream sum in dict order.  AxisData(n, depth) derives the rest of an
axis truncation: the largest coefficients from the level-0 blocks, and the
Gram sequence of the axis point in run form (l plus one geometric run of
blocks per tower), four steps on one level-0 block each at any depth.
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


def _run_step(n: int, point: RunPoint, sign: int) -> RunPoint:
    """One application of the shift map (sign=+1) or its inverse (sign=-1) to a run-form point.

    The step moves the upper family's run (q for sign=+1) one level up and
    the lower family's run one level down.  What crosses level 0, the l-part
    and the lower run's level-0 block (at most 2n-1 labels), goes through
    henon_act; its image is the new l-part plus a multiple of the upper
    level-0 block, which must carry first*n, the weight that continues the
    upper run, or the image has no run form and ActionDomainError is raised.
    """
    up_family, low_family = (FAMILY_Q, FAMILY_P) if sign == 1 else (FAMILY_P, FAMILY_Q)
    up, low = getattr(point, up_family), getattr(point, low_family)
    head = [(label, low.first * m) for label, m in base_points(n, low_family)] if low.count else ()
    image = henon_act(n, PMClass(point.ell, head), sign)
    first = up.first * n
    if image.exc != {label: first * m for label, m in base_points(n, up_family) if first}:
        raise ActionDomainError(
            f"the step's level-0 image does not continue the {up_family}-run with weight {first}"
        )
    runs = {
        up_family: Run(up.count + 1, first),
        low_family: Run(low.count - 1, low.first / n) if low.count else low,
    }
    return RunPoint(image.ell, **runs)


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
        first weight -1/n in each family; 2*reach steps in all, each of which
        hands henon_act the l-part and one level-0 block only.
        """
        run = Run(self.depth + 1, Fraction(-1, self.n))
        orbit = {0: RunPoint(Fraction(2), run, run)}
        for sign in (1, -1):
            point = orbit[0]
            for k in range(1, reach + 1):
                point = _run_step(self.n, point, sign)
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
    """AxisData plus its explicit truncation: the PMClass attributes b_plus, b_minus, r, w_scaled."""


def axis_classes(n: int, depth: int) -> AxisClasses:
    """Truncate the axis series of the shift map at the given depth (>= 1).

    b_plus/b_minus truncate the ideal endpoint classes, r the combined orbit
    series, and w_scaled = 2*l - r = b_plus + b_minus is the projection of l
    onto the axis times sqrt(2), so that every coefficient stays rational.
    Level i contributes h^i(e_minus) and h^-i(e_plus) with weight n^-(i+1):
    each base point's image orbit_label(n, label, +-i) with that point's own
    multiplicity, q-tower then p-tower, written into dicts in one pass, with
    w_scaled holding the b-coefficient objects themselves.
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
