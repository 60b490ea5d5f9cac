"""Diffable JSON serialization of certification reports.

Reals are decimal strings with 12 significant digits, rationals exact "p/q"
strings, so reports from repeated runs compare byte-for-byte.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import PMClass, to_json_dict
from .polymaps import PolyMap, RootExponentMap, diagonal_affine_parts, serialize_map


def fmt_real(x: float) -> str:
    return f"{x:.12g}"


def to_json(v):
    """JSON form of a raw report value: dicts and lists recursively, reals and
    rationals as strings, classes as `lattice.to_json_dict`, Fix-set maps as
    `fix_map_json`; anything else as is."""
    if isinstance(v, dict):
        return {k: to_json(x) for k, x in v.items()}
    if isinstance(v, list):
        return [to_json(x) for x in v]
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return fmt_real(v)
    if isinstance(v, PMClass):
        return to_json_dict(v)
    if isinstance(v, (PolyMap, RootExponentMap)):
        return fix_map_json(v)
    return v


def fix_map_json(f) -> dict:
    """A Fix-set map with its coefficients (a, b, c, d), or with its root exponents."""
    if isinstance(f, RootExponentMap):
        return {
            "field": "Q(zeta)",
            "map": str(f),
            "modulus": f.modulus,
            "a_exponent": f.a_exp,
            "c_exponent": f.c_exp,
        }
    a, b, c, d = diagonal_affine_parts(f)
    return {**serialize_map(f), "a": str(a), "b": str(b), "c": str(c), "d": str(d)}
