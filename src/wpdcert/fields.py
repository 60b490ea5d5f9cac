"""Scalar fields for polynomial maps: exact rationals and prime fields F_p.

Elements are plain Python values (``fractions.Fraction`` over Q, ``int`` in
``0..p-1`` over F_p); a field object only bundles the arithmetic so that the
polynomial code can stay generic.
"""

from __future__ import annotations

from fractions import Fraction


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class RationalField:
    """The field Q, elements represented as ``Fraction``."""

    char = 0
    tag = "Q"

    def coerce(self, x):
        return Fraction(x)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def pow(self, a, k: int):
        return Fraction(a) ** k

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(("field", "Q"))

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """The field F_p for a prime p, elements represented as ints in 0..p-1."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.tag = f"Fp:{p}"

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, -1, self.p)

    def pow(self, a, k: int):
        return pow(a, k, self.p)

    def units(self):
        return range(1, self.p)

    def roots_of_unity(self, m: int) -> list:
        """All a in F_p* with a^m = 1, ascending.  Has gcd(m, p-1) elements."""
        return [a for a in range(1, self.p) if pow(a, m, self.p) == 1]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = RationalField()

