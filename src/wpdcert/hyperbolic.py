"""Hyperboloid-model geometry: distances, geodesics, tubes.

Points are unit-norm vectors for the Minkowski-like form
B(x, y) = x.ell * y.ell - sum_k x[k] * y[k]  with  cosh dist(x, y) = B(x, y).
This module works in double precision (stated tolerances); exact lattice
classes convert in via :func:`as_vector`.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from typing import TYPE_CHECKING, Hashable, Mapping, Tuple, Union

if TYPE_CHECKING:
    from .lattice import PMClass

_UNIT_TOL = 1e-9

#: slack of the traversal comparison, which compares two float radii
_TRAVERSE_TOL = 1e-12

#: largest displacement exponent whose neighbours are floats: past 2**53 a
#: float no longer tells N from N - 1, so no minimality can be verified there
MAX_EXPONENT = 2**53


class HVec:
    """Sparse float vector in the ambient Minkowski space."""

    __slots__ = ("ell", "exc")

    def __init__(self, ell: float, exc: Mapping[Hashable, float]):
        self.ell = float(ell)
        self.exc = {k: fv for k, v in exc.items() if (fv := float(v))}

    def __add__(self, other: "HVec") -> "HVec":
        exc = dict(self.exc)
        for k, v in other.exc.items():
            exc[k] = exc.get(k, 0.0) + v
        return HVec(self.ell + other.ell, exc)

    def __sub__(self, other: "HVec") -> "HVec":
        exc = dict(self.exc)
        for k, v in other.exc.items():
            exc[k] = exc.get(k, 0.0) - v
        return HVec(self.ell - other.ell, exc)

    def __mul__(self, t: float) -> "HVec":
        return HVec(self.ell * t, {k: v * t for k, v in self.exc.items()})

    __rmul__ = __mul__

    def __repr__(self):
        return f"HVec(ell={self.ell!r}, support={len(self.exc)})"


VectorLike = Union[HVec, "PMClass"]


def as_vector(x: VectorLike) -> HVec:
    """Coerce a lattice class or an HVec."""
    if isinstance(x, HVec):
        return x
    from .lattice import PMClass  # here, so that the tube queries never load the lattice

    if isinstance(x, PMClass):
        return HVec(x.ell, x.exc)
    raise TypeError(f"cannot interpret {type(x).__name__} as a Minkowski vector")


def mdot(x: VectorLike, y: VectorLike) -> float:
    """The bilinear form B (signature (1, oo))."""
    xv, yv = as_vector(x), as_vector(y)
    total = xv.ell * yv.ell
    a, b = xv.exc, yv.exc
    if len(b) < len(a):
        a, b = b, a
    for k, v in a.items():
        w = b.get(k)
        if w is not None:
            total -= v * w
    return total


def distance(x: VectorLike, y: VectorLike) -> float:
    """Hyperbolic distance: argcosh of the pairing of two unit timelike points."""
    b = mdot(x, y)
    if b < 1.0 - _UNIT_TOL:
        raise ValueError(f"pairing {b} < 1: inputs are not both unit timelike")
    return math.acosh(max(b, 1.0))


def geodesic_point(x: VectorLike, y: VectorLike, t: float) -> HVec:
    """Point at arclength t along the unit-speed geodesic from x toward y.

    A t that is not finite, or whose point has a squared Euclidean norm past
    the float range (so that its pairings could overflow), is refused with a
    ValueError.
    """
    if not math.isfinite(t):
        raise ValueError(f"arclength t = {t} is not finite")
    xv, yv = as_vector(x), as_vector(y)
    d = distance(xv, yv)
    if d == 0.0:
        raise ValueError("geodesic direction undefined for coincident points")
    u = (yv - xv * math.cosh(d)) * (1.0 / math.sinh(d))
    try:
        point = xv * math.cosh(t) + u * math.sinh(t)
        norm_sq = point.ell * point.ell + sum(v * v for v in point.exc.values())
    except OverflowError:  # cosh and sinh overflow past |t| ~ 710
        norm_sq = math.inf
    if not math.isfinite(norm_sq):
        raise ValueError(f"the geodesic point at arclength t = {t} overflows floats")
    return point


def quad_fourth_side(d_dc: float, d_cb: float) -> float:
    """Side AB of a quadrilateral with right angles at B, C, D.

    tanh(AB) = tanh(DC) * cosh(CB); infeasible when that product reaches 1.
    """
    if d_dc < 0 or d_cb < 0:
        raise ValueError("side lengths must be nonnegative")
    arg = math.tanh(d_dc) * math.cosh(d_cb)
    if arg >= 1.0:
        raise ValueError("no such quadrilateral: tanh(DC)*cosh(CB) >= 1")
    return math.atanh(arg)


class Tube(namedtuple("Tube", "lo hi end_radius")):
    """Geodesic tube along a reference geodesic, in arclength coordinates.

    Ends at lo and hi (hi > lo) with the same end radius; the radius profile
    between the ends follows tanh r(z) = tanh(end_radius) * cosh(z - mid) / cosh(half).
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, end_radius: float):
        if not all(map(math.isfinite, (lo, hi, end_radius))):
            raise ValueError("tube ends and radius must be finite")
        if not hi > lo:
            raise ValueError("tube needs hi > lo")
        if end_radius < 0:
            raise ValueError("tube radius must be nonnegative")
        return tuple.__new__(cls, (lo, hi, end_radius))


def tube_radius(t: Tube, z: float) -> float:
    """Radius of the tube at arclength z in [lo, hi]; minimal at the midpoint."""
    if not math.isfinite(z):
        raise ValueError(f"coordinate {z} is not finite")
    if z < t.lo or z > t.hi:
        raise ValueError(f"coordinate {z} outside tube [{t.lo}, {t.hi}]")
    if t.end_radius == 0.0:
        return 0.0
    mid = 0.5 * (t.lo + t.hi)
    half = 0.5 * (t.hi - t.lo)
    tanh_eps = math.tanh(t.end_radius)
    # cosh(a)/cosh(half) = e^(a-half) (1 + e^-2a)/(1 + e^-2half) with a = |z - mid| <= half,
    # which stays finite where cosh itself overflows (past ~710)
    a = abs(z - mid)
    ratio = math.exp(a - half) * (1.0 + math.exp(-2.0 * a)) / (1.0 + math.exp(-2.0 * half))
    arg = min(tanh_eps * ratio, tanh_eps)
    if arg >= 1.0:
        return t.end_radius
    return math.atanh(arg)


def tube_traverses(outer: Tube, inner: Tube) -> bool:
    """True iff the outer tube's radius at both inner ends is <= the inner radius."""
    if not (outer.lo <= inner.lo < inner.hi <= outer.hi):
        raise ValueError("inner tube ends must be nested inside the outer tube")
    return (
        tube_radius(outer, inner.lo) <= inner.end_radius + _TRAVERSE_TOL
        and tube_radius(outer, inner.hi) <= inner.end_radius + _TRAVERSE_TOL
    )


def traversal_offset(eps: float, eta: float, d_wz: float) -> float:
    """Half-length making a symmetric eps-tube have radius exactly eta at d_wz.

    Returns argcosh(tanh(eps) * cosh(d_wz) / tanh(eta)).  When the argument is
    below 1 the eps-tube is already thinner than eta there; by convention the
    offset is 0, flagged with a RuntimeWarning.  The argument is handled by
    its log, since cosh(d_wz) overflows past d_wz ~ 710.
    """
    if eps < 0 or eta <= 0 or d_wz < 0:
        raise ValueError("need eps >= 0, eta > 0, d_wz >= 0")
    ratio = math.tanh(eps) / math.tanh(eta)
    log_arg = -math.inf
    if ratio > 0.0:  # log(ratio * cosh(d_wz)), with cosh(d) = e^d (1 + e^-2d) / 2
        log_arg = math.log(ratio) + d_wz + math.log1p(math.exp(-2.0 * d_wz)) - math.log(2.0)
    if log_arg < 0.0:
        warnings.warn(
            "tube radius is already below eta at the requested coordinate; offset 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    # argcosh(x) = log x + log(1 + sqrt(1 - x^-2))
    return log_arg + math.log1p(math.sqrt(-math.expm1(-2.0 * log_arg)))


def wpd_exponents(eps: float, eta: float, L: float, z: float, z_prime: float, w: float) -> Tuple[int, int]:
    """Smallest powers (N, M) whose eps-tube traverses the eta/3-tube on [z, z'].

    The outer tube has ends w - N*L + eps and w + M*L - eps; minimality is
    relative to the symmetric-offset construction (conservative for an
    asymmetric grid), and the result is re-verified with tube_traverses.
    Exponents past MAX_EXPONENT are refused with a ValueError.
    """
    if eps < 0 or eta <= 0 or L <= 0:
        raise ValueError("need eps >= 0, eta > 0, L > 0")
    if not z < z_prime:
        raise ValueError("need z < z_prime")
    inner = Tube(z - eps, z_prime + eps, eta / 3.0)
    mid = 0.5 * (inner.lo + inner.hi)
    half_in = 0.5 * (inner.hi - inner.lo)
    if eta / 3.0 >= eps:
        reach = half_in
    else:
        reach = traversal_offset(eps, eta / 3.0, half_in)
    # smallest naturals with  w - N*L + eps <= mid - reach <= mid + reach <= w + M*L - eps
    n_real = (w - mid + reach + eps) / L
    m_real = (mid + reach - w + eps) / L
    if not (math.isfinite(n_real) and math.isfinite(m_real)):
        raise ValueError("displacement exponents are not finite (infinite input or tiny L)")
    n_exp = max(0, math.ceil(n_real - 1e-12))
    m_exp = max(0, math.ceil(m_real - 1e-12))
    for _ in range(4):
        if max(n_exp, m_exp) > MAX_EXPONENT:
            raise ValueError("displacement exponents exceed 2**53, past which floats do not resolve them")
        lo = w - n_exp * L + eps
        hi = w + m_exp * L - eps
        if lo <= inner.lo and inner.hi <= hi and tube_traverses(Tube(lo, hi, eps), inner):
            return n_exp, m_exp
        n_exp += 1
        m_exp += 1
    raise AssertionError("traversal verification failed unexpectedly")
