"""Diffable JSON serialization of certification reports.

Reals are decimal strings with 12 significant digits, rationals exact "p/q"
strings, so reports from repeated runs compare byte-for-byte.  Classes and
Fix-set maps know their own JSON form (``to_json_dict``), so this module
imports no other layer: a command that prints no class or map loads none.
"""

from __future__ import annotations


def fmt_real(x: float) -> str:
    return f"{x:.12g}"


def to_json(v):
    """JSON form of a raw report value: dicts and lists recursively, floats
    through `fmt_real`, values with a ``to_json_dict`` method (classes and
    Fix-set maps) through it, and other rationals as "p/q"; ints, bools,
    strings and None as they are.

    A rational is told by its ``denominator`` (an int has one too), so that a
    report of floats loads no ``fractions``.
    """
    if isinstance(v, dict):
        return {k: to_json(x) for k, x in v.items()}
    if isinstance(v, list):
        return [to_json(x) for x in v]
    if isinstance(v, float):
        return fmt_real(v)
    if isinstance(v, (int, str)) or v is None:
        return v
    if hasattr(v, "to_json_dict"):
        return v.to_json_dict()
    if hasattr(v, "denominator"):
        return str(v)
    return v
