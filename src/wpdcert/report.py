"""Diffable JSON serialization of certification reports.

Reals are decimal strings with 12 significant digits, rationals exact "p/q"
strings, so reports from repeated runs compare byte-for-byte.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import PMClass, to_json_dict
from .polymaps import PolyMap, serialize_map


def fmt_real(x: float) -> str:
    return f"{x:.12g}"


def fmt_rational(x) -> str:
    return str(Fraction(x))


def to_json(v):
    """JSON form of a raw report value: dicts and lists recursively, reals and
    rationals as strings, classes as `lattice.to_json_dict`; anything else as is."""
    if isinstance(v, dict):
        return {k: to_json(x) for k, x in v.items()}
    if isinstance(v, list):
        return [to_json(x) for x in v]
    if isinstance(v, Fraction):
        return fmt_rational(v)
    if isinstance(v, float):
        return fmt_real(v)
    if isinstance(v, PMClass):
        return to_json_dict(v)
    return v


def fix_map_json(f) -> dict:
    if isinstance(f, PolyMap):
        out = serialize_map(f)
        out.update(
            a=str(f.comp_x.coeff(1, 0)),
            b=str(f.comp_x.coeff(0, 0)),
            c=str(f.comp_y.coeff(0, 1)),
            d=str(f.comp_y.coeff(0, 0)),
        )
        return out
    # symbolic root-of-unity exponents
    return {
        "field": "Q(zeta)",
        "map": str(f),
        "modulus": f.modulus,
        "a_exponent": f.a_exp,
        "c_exponent": f.c_exp,
    }
