"""Bivariate polynomial maps of the affine plane over Q or F_p.

Polynomials are sparse maps (i, j) -> coefficient for the monomial x^i y^j,
kept in canonical form (no zero coefficients).  Degrees in this artifact are
tiny, so clarity wins over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

from .fields import QQ

Monomial = Tuple[int, int]


class Poly2:
    """Polynomial in x, y with coefficients in a fixed field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: Dict[Monomial, object] = None):
        self.field = field
        zero = field.zero
        clean = {}
        for mono, c in (coeffs or {}).items():
            if c != zero:
                clean[mono] = c
        self.coeffs = clean

    @classmethod
    def variable(cls, field, name: str):
        if name == "x":
            return cls(field, {(1, 0): field.one})
        if name == "y":
            return cls(field, {(0, 1): field.one})
        raise ValueError(f"unknown variable {name!r}")

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(i + j for i, j in self.coeffs)

    def coeff(self, i: int, j: int):
        return self.coeffs.get((i, j), self.field.zero)

    def __mul__(self, other: "Poly2") -> "Poly2":
        f = self.field
        zero = f.zero
        out: Dict[Monomial, object] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                mono = (i1 + i2, j1 + j2)
                s = f.add(out.get(mono, zero), f.mul(c1, c2))
                if s != zero:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        res = Poly2.__new__(Poly2)
        res.field = f
        res.coeffs = out
        return res

    def subst(self, px: "Poly2", py: "Poly2") -> "Poly2":
        """Evaluate self at x = px, y = py (generic composition step).

        Powers of px and py are built once, a term with no x (or no y) skips
        the product with the constant power 1, and every term is added into
        one dict.
        """
        f = self.field
        max_i = max((i for i, _ in self.coeffs), default=0)
        max_j = max((j for _, j in self.coeffs), default=0)
        one = Poly2(f, {(0, 0): f.one})
        xpow, ypow = [one, px], [one, py]
        for _ in range(max_i - 1):
            xpow.append(xpow[-1] * px)
        for _ in range(max_j - 1):
            ypow.append(ypow[-1] * py)
        zero = f.zero
        out: Dict[Monomial, object] = {}
        for (i, j), c in self.coeffs.items():
            power = xpow[i] * ypow[j] if i and j else (xpow[i] if i else ypow[j])
            for mono, v in power.coeffs.items():
                s = f.add(out.get(mono, zero), f.mul(v, c))
                if s != zero:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        res = Poly2.__new__(Poly2)
        res.field = f
        res.coeffs = out
        return res

    def __eq__(self, other):
        return (
            isinstance(other, Poly2)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.coeffs.items())))

    def sorted_terms(self):
        """Terms ordered by (total degree, x-exponent), highest first."""
        return sorted(self.coeffs.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0]))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j), c in self.sorted_terms():
            mono = []
            if i:
                mono.append("x" if i == 1 else f"x^{i}")
            if j:
                mono.append("y" if j == 1 else f"y^{j}")
            body = "*".join(mono)
            neg = (isinstance(c, Fraction) and c < 0)
            mag = -c if neg else c
            if not body:
                term = str(mag)
            elif mag == self.field.one:
                term = body
            else:
                term = f"{mag}*{body}"
            if not parts:
                parts.append(("-" if neg else "") + term)
            else:
                parts.append(("- " if neg else "+ ") + term)
        return " ".join(parts)

    __repr__ = __str__


class PolyMap:
    """Polynomial self-map of the affine plane: (x, y) -> (comp_x, comp_y)."""

    __slots__ = ("field", "comp_x", "comp_y")

    def __init__(self, field, comp_x: Poly2, comp_y: Poly2):
        if comp_x.field != field or comp_y.field != field:
            raise ValueError("component fields disagree")
        self.field = field
        self.comp_x = comp_x
        self.comp_y = comp_y

    def __eq__(self, other):
        return (
            isinstance(other, PolyMap)
            and self.field == other.field
            and self.comp_x == other.comp_x
            and self.comp_y == other.comp_y
        )

    def __hash__(self):
        return hash((self.comp_x, self.comp_y))

    def __str__(self):
        return f"{self.comp_x}; {self.comp_y}"

    def __repr__(self):
        return f"PolyMap[{self.field.tag}]({self})"

    def to_json_dict(self) -> dict:
        """Report form of a Fix-set map: field, formula and the (a, b, c, d) of diagonal_affine_parts."""
        a, b, c, d = diagonal_affine_parts(self)
        return {**serialize_map(self), "a": str(a), "b": str(b), "c": str(c), "d": str(d)}


def serialize_map(f: PolyMap) -> dict:
    return {"field": f.field.tag, "map": str(f)}


def henon_map(n: int, field=QQ) -> PolyMap:
    """(x, y) -> (y, y^n - x), the degree-n shift map studied throughout."""
    if n < 2:
        raise ValueError("henon_map needs n >= 2")
    f = field
    return PolyMap(f, Poly2.variable(f, "y"), Poly2(f, {(0, n): f.one, (1, 0): f.neg(f.one)}))


def henon_inverse(n: int, field=QQ) -> PolyMap:
    """(x, y) -> (x^n - y, x), inverse of henon_map(n)."""
    if n < 2:
        raise ValueError("henon_inverse needs n >= 2")
    f = field
    return PolyMap(f, Poly2(f, {(n, 0): f.one, (0, 1): f.neg(f.one)}), Poly2.variable(f, "x"))


def affine_map(field, a, b, c, d) -> PolyMap:
    """(x, y) -> (a x + b, c y + d)."""
    f = field
    a, b, c, d = (f.coerce(v) for v in (a, b, c, d))
    return PolyMap(f, Poly2(f, {(1, 0): a, (0, 0): b}), Poly2(f, {(0, 1): c, (0, 0): d}))


def translation(field, a, b) -> PolyMap:
    return affine_map(field, 1, a, 1, b)


def compose(f: PolyMap, g: PolyMap) -> PolyMap:
    """(f o g)(x, y) = f(g(x, y)), exact."""
    if f.field != g.field:
        raise ValueError("cannot compose maps over different fields")
    return PolyMap(f.field, f.comp_x.subst(g.comp_x, g.comp_y), f.comp_y.subst(g.comp_x, g.comp_y))


def degree(f: PolyMap) -> int:
    """Max total degree of the two components; errors on constant maps."""
    d = max(f.comp_x.degree(), f.comp_y.degree())
    if d < 1:
        raise ValueError("degree of a constant map is undefined here")
    return d


def diagonal_affine_parts(f: PolyMap):
    """Return (a, b, c, d) for a map (a x + b, c y + d); error otherwise."""
    fx, fy = f.comp_x, f.comp_y
    bad = (
        fx.degree() > 1
        or fy.degree() > 1
        or fx.coeff(0, 1) != f.field.zero
        or fy.coeff(1, 0) != f.field.zero
    )
    if bad:
        raise ValueError("map is not of the diagonal affine form (a*x+b, c*y+d)")
    return fx.coeff(1, 0), fx.coeff(0, 0), fy.coeff(0, 1), fy.coeff(0, 0)


@lru_cache(maxsize=None)
def _henon_pair(n: int, field):
    return henon_map(n, field), henon_inverse(n, field)


def conjugate_by_henon(f: PolyMap, n: int, direction: int) -> PolyMap:
    """h_n o f o h_n^{-1} (direction +1) or h_n^{-1} o f o h_n (direction -1).

    f must be of the diagonal affine form (a x + b, c y + d) with a, c != 0,
    over a field whose characteristic does not divide n.
    """
    a, b, c, d = diagonal_affine_parts(f)
    if a == f.field.zero or c == f.field.zero:
        raise ValueError("conjugation needs an invertible diagonal part (a, c != 0)")
    if f.field.char and n % f.field.char == 0:
        raise ValueError("characteristic divides n")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    h, hinv = _henon_pair(n, f.field)
    if direction == 1:
        return compose(h, compose(f, hinv))
    return compose(hinv, compose(f, h))
