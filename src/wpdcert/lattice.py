"""Sparse lattice classes over Q with the signature-(1,oo) intersection form.

A class is a rational multiple of the line class ``l`` plus finitely many
rational multiples of exceptional classes ``e_label``.  The intersection form
is ``l.l = 1``, ``e.e = -1``, all distinct basis classes orthogonal:

    intersect(c, d) = c.ell * d.ell - sum_label c[label] * d[label]

All arithmetic is exact (``fractions.Fraction``); the numeric hyperbolic layer
lives in :mod:`wpdcert.hyperbolic`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Tuple, Union

Rational = Union[int, Fraction]

FAMILY_P = "p"
FAMILY_Q = "q"

_LABEL_RE = re.compile(r"^([pq])(\d+)@n(\d+)$")


class _LabelFields(NamedTuple):
    family: str
    index: int
    context_n: int


class PointLabel(_LabelFields):
    """Identifier of an exceptional class.

    A label names a point of a base-point tower: the family "p" (the shift
    map's) or "q" (its inverse's), the tower index and the parameter n of the
    map it belongs to.

    A label is the tuple (family, index, context_n): hashing, equality and
    ordering are tuple's own, so a label equals the plain tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, family: str, index: int, context_n: Optional[int] = None):
        if family not in (FAMILY_P, FAMILY_Q):
            raise ValueError(f"unknown label family {family!r}")
        if context_n is None or context_n < 2:
            raise ValueError("p/q labels need a context n >= 2")
        if index < 0:
            raise ValueError("label index must be a natural number")
        return tuple.__new__(cls, (family, index, context_n))

    def __str__(self):
        return f"{self.family}{self.index}@n{self.context_n}"


def p_label(index: int, n: int) -> PointLabel:
    return PointLabel(FAMILY_P, index, n)


def q_label(index: int, n: int) -> PointLabel:
    return PointLabel(FAMILY_Q, index, n)


def parse_label(text: str) -> PointLabel:
    m = _LABEL_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse point label {text!r}")
    return PointLabel(m.group(1), int(m.group(2)), int(m.group(3)))


class PMClass:
    """Finite-support class: ell_coeff * l + sum of exc[label] * e_label.

    Canonical sparse form: ``exc`` holds no zero entries, so structural
    equality is mathematical equality.  Instances are immutable.
    """

    __slots__ = ("ell", "exc")

    def __init__(self, ell: Rational = 0, exc: Union[Mapping[PointLabel, Rational], Iterable[Tuple[PointLabel, Rational]], None] = None):
        object.__setattr__(self, "ell", Fraction(ell))
        items = exc.items() if isinstance(exc, Mapping) else (exc or ())
        terms = []
        for label, coeff in items:
            if not isinstance(label, PointLabel):
                raise TypeError(f"class keys must be PointLabel, not {type(label).__name__}")
            coeff = Fraction(coeff)
            if coeff:
                terms.append((label, coeff))
        clean = {}
        _accumulate(clean, terms)
        object.__setattr__(self, "exc", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PMClass is immutable")

    def coeff(self, label: PointLabel) -> Fraction:
        return self.exc.get(label, Fraction(0))

    def is_zero(self) -> bool:
        return not self.ell and not self.exc

    @classmethod
    def from_canonical(cls, ell: Fraction, exc: dict) -> "PMClass":
        """Adopt an already canonical pair (Fraction ell, no zero entries) without copying.

        The caller hands over ``exc`` and must not mutate it afterwards.
        """
        out = cls.__new__(cls)
        object.__setattr__(out, "ell", ell)
        object.__setattr__(out, "exc", exc)
        return out

    def __add__(self, other: "PMClass") -> "PMClass":
        exc = dict(self.exc)
        _accumulate(exc, other.exc.items())
        return PMClass.from_canonical(self.ell + other.ell, exc)

    def __neg__(self) -> "PMClass":
        return PMClass.from_canonical(-self.ell, {label: -coeff for label, coeff in self.exc.items()})

    def __sub__(self, other: "PMClass") -> "PMClass":
        return self + (-other)

    def __mul__(self, t: Rational) -> "PMClass":
        t = Fraction(t)
        if not t:
            return PMClass.from_canonical(Fraction(0), {})
        return PMClass.from_canonical(self.ell * t, {label: coeff * t for label, coeff in self.exc.items()})

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        """Report form of the class; see the module-level `to_json_dict`."""
        return to_json_dict(self)

    def __eq__(self, other):
        return isinstance(other, PMClass) and self.ell == other.ell and self.exc == other.exc

    def __hash__(self):
        return hash((self.ell, frozenset(self.exc.items())))

    def __repr__(self):
        if self.is_zero():
            return "PMClass(0)"
        parts = []
        if self.ell:
            parts.append(f"{self.ell}*l")
        for label in sorted(self.exc):
            parts.append(f"{self.exc[label]}*e[{label}]")
        return "PMClass(" + " + ".join(parts) + ")"


def line_class() -> PMClass:
    """The class l of a line (self-intersection 1)."""
    return PMClass(1)


def exceptional(label: PointLabel) -> PMClass:
    """The exceptional class e_label (self-intersection -1)."""
    return PMClass(0, {label: 1})


def _accumulate(exc: dict, terms: Iterable[Tuple[PointLabel, Fraction]]) -> None:
    """Add the non-zero (label, coeff) terms into exc in place, keeping exc canonical.

    New labels are appended in the order of ``terms``; entries that cancel are
    dropped, so the insertion order is that of repeated ``PMClass.__add__``.
    """
    for label, coeff in terms:
        s = exc.get(label)
        if s is None:
            exc[label] = coeff
            continue
        s += coeff
        if s:
            exc[label] = s
        else:
            del exc[label]


def intersect(c: PMClass, d: PMClass) -> Fraction:
    """Intersection pairing; bilinear, symmetric, signature (1, oo).

    The l-product and the exceptional products are summed as integers per
    denominator, and those sums are folded in insertion order into one
    integer over a running denominator: exactly the same value, with one
    Fraction normalisation per call.  A denominator that is a multiple of
    the running one, as each level's of an axis truncation is of the levels
    before it, scales the running sum by their small quotient; any other
    joins through their gcd.  So no step divides one common denominator by
    every denominator.  A label whose two coefficients are the same objects
    as the previous shared label's reuses that product: the axis truncation
    shares one Fraction per level coefficient, so its pairings multiply once
    per run of such labels.  A self-pairing (c is d) walks the coefficients
    alone, with no label lookup, and squares once per run of one object.
    """
    xn, xd = c.ell.as_integer_ratio()
    yn, yd = d.ell.as_integer_ratio()
    by_den = {xd * yd: [xn * yn]}  # denominator -> [sum of its numerators], one lookup per product
    if c is d:
        px = None
        for x in c.exc.values():
            if x is px:
                cell[0] -= num
                continue
            xn, xd = x.as_integer_ratio()
            num = xn * xn
            den = xd * xd
            cell = by_den.get(den)
            if cell is None:
                cell = by_den[den] = [-num]
            else:
                cell[0] -= num
            px = x
    else:
        a, b = c.exc, d.exc
        if len(b) < len(a):
            a, b = b, a
        px = py = None
        for label, x in a.items():
            y = b.get(label)
            if y is None:
                continue
            if x is px and y is py:
                cell[0] -= num
                continue
            xn, xd = x.as_integer_ratio()
            yn, yd = y.as_integer_ratio()
            num = xn * yn
            den = xd * yd
            cell = by_den.get(den)
            if cell is None:
                cell = by_den[den] = [-num]
            else:
                cell[0] -= num
            px, py = x, y
    total, common = 0, 1  # the sums folded so far: total / common, common their lcm
    for den, (num,) in by_den.items():
        if den > common:
            scale, rest = divmod(den, common)
            if not rest:
                total = total * scale + num
                common = den
                continue
        g = math.gcd(common, den)
        scale = den // g
        total = total * scale + num * (common // g)
        common *= scale
    return Fraction(total, common)


def to_json_dict(c: PMClass) -> dict:
    """JSON form {"ell": "p/q", "exc": [{"label": ..., "coeff": "p/q"}, ...]}; output only."""
    return {
        "ell": str(c.ell),
        "exc": [
            {"label": str(label), "coeff": str(c.exc[label])}
            for label in sorted(c.exc)
        ],
    }
