"""Mechanical re-verification of the discrete-action certificate.

For each n >= 2 this pipeline re-derives, with exact arithmetic where the
quantities are rational and stated tolerances elsewhere:

  * the admissible tolerance window for the axis of the shift map,
  * the degree bound cosh(2 argcosh sqrt(2) + eps) < 4,
  * the exact worst-case pairings of hypothetical degree-2/3 base-point
    classes against the truncated axis series (-3 and -2 + 1/n),
  * the resulting exclusion of degrees 2 and 3,
  * the Fix set of diagonal maps (a x, a^n y), a^(n^2-1) = 1, both in closed
    form and by exhaustive search over a prime field,
  * the geometric inclusion hypothesis behind Fix-set monotonicity.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional

from .lattice import intersect  # noqa: F401 -- bound so that a counter patched in shows certify pairs nothing
from .report import to_json

if TYPE_CHECKING:  # the other layers load where they are used, so oracle skips action
    from .action import AxisData
    from .fields import PrimeField
    from .polymaps import PolyMap

SQRT2 = math.sqrt(2.0)
ACOSH_SQRT2 = math.acosh(SQRT2)

#: slack for verdicts that sit exactly on the window boundary (chosen_eps = eps_max
#: makes the first window inequality an equality in exact arithmetic)
BOUNDARY_TOL = 1e-12

_MAX_BRUTEFORCE_CANDIDATES = 500_000_000

#: largest n of the Fix-set search, whose generic conjugation grows about
#: quadratically in n: `oracle --n 500 --prime 149` takes about 0.9 s
_MAX_BRUTEFORCE_N = 500

#: largest symbolic Fix set n^2 - 1 that is listed; it admits n = 100 (9999 maps)
MAX_FIX_MAPS = 10_000


class ParameterError(ValueError):
    """Invalid certification parameters (CLI exit code 2)."""


def kernel_name() -> str:
    """Name of the Fix-set search kernel, as recorded in reports."""
    return "pure"


# ---------------------------------------------------------------------------
# tolerance window and degree bound


class StarWindow(namedtuple("StarWindow", "n eps_max chosen_eps")):
    """Admissible tolerance window for a given n.

    eps_max = argcosh(sqrt(2) + 1/(n sqrt(2))) - argcosh(sqrt(2)); any
    chosen_eps in (0, eps_max] keeps the three window inequalities valid
    (the first one with equality at the right endpoint).  Fields: n (int),
    eps_max and chosen_eps (float).
    """

    __slots__ = ()

    def checks(self) -> dict:
        deg2_threshold = math.acosh(SQRT2 + 1.0 / (self.n * SQRT2))
        lhs1 = ACOSH_SQRT2 + self.chosen_eps
        rhs2 = math.acosh(3.0 / SQRT2)
        lhs3 = 2.0 * ACOSH_SQRT2 + self.chosen_eps
        rhs3 = math.acosh(4.0)
        return {
            "proj_plus_eps_le_deg2_threshold": {
                "lhs": lhs1,
                "rhs": deg2_threshold,
                "ok": lhs1 <= deg2_threshold + BOUNDARY_TOL,
            },
            "deg2_threshold_lt_deg3_bound": {
                "lhs": deg2_threshold,
                "rhs": rhs2,
                "ok": deg2_threshold < rhs2,
            },
            "double_proj_plus_eps_lt_acosh4": {
                "lhs": lhs3,
                "rhs": rhs3,
                "ok": lhs3 < rhs3,
            },
        }

    def all_ok(self) -> bool:
        return all(c["ok"] for c in self.checks().values())


def epsilon_window(n: int, eps: Optional[float] = None) -> StarWindow:
    """Window for n, with chosen_eps = eps_max (maximal choice) by default."""
    if n < 2:
        raise ParameterError("need n >= 2")
    eps_max = math.acosh(SQRT2 + 1.0 / (n * SQRT2)) - ACOSH_SQRT2
    chosen = eps_max if eps is None else float(eps)
    if not 0.0 < chosen <= eps_max + BOUNDARY_TOL:
        raise ParameterError(f"eps must lie in (0, {eps_max:.12g}] for n={n}")
    return StarWindow(n, eps_max, chosen)


def degree_bound(n: int, eps: float) -> float:
    """cosh(2 argcosh sqrt(2) + eps); must stay below 4 inside the window."""
    epsilon_window(n, eps)  # validates eps against the window
    return math.cosh(2.0 * ACOSH_SQRT2 + eps)


# ---------------------------------------------------------------------------
# worst-case pairings and degree exclusion

_MULTIPLICITIES = {2: (1, 1, 1), 3: (2, 1, 1, 1, 1)}


def worst_case_intersection(n: int, deg: int, axis: AxisData) -> Fraction:
    """Exact minimum of (sum m_i e_i) . r over injective label assignments.

    Hypothetical base-point classes of a degree-2 (multiplicities 1,1,1) or
    degree-3 (2,1,1,1,1) map each meet at most one term of the axis series r,
    whose terms are pairwise orthogonal, so the minimum is minus the greedy
    pairing of multiplicities with the largest coefficients of r, which
    AxisData.r_top reads from the level-0 blocks.
    """
    if deg not in _MULTIPLICITIES:
        raise ValueError("only degrees 2 and 3 occur below the degree bound")
    if axis.n != n:
        raise ValueError("axis data belongs to a different n")
    if axis.depth < 2:
        raise ValueError("need axis truncation depth >= 2")
    return -sum((m * c for m, c in zip(_MULTIPLICITIES[deg], axis.r_top)), Fraction(0))


def exclusion_data(n: int, deg: int, eps: float, axis: AxisData) -> dict:
    """Lower bound for the pairing of a degree-deg image of l with the axis point.

    bound = deg*sqrt(2) + worst_case/sqrt(2) must reach cosh(argcosh sqrt(2) + eps)
    for the degree to be excluded; equality holds for deg=2 at eps = eps_max.
    """
    wci = worst_case_intersection(n, deg, axis)
    bound = deg * SQRT2 + float(wci) / SQRT2
    threshold = math.cosh(ACOSH_SQRT2 + eps)
    return {
        "worst_case": wci,
        "bound": bound,
        "threshold": threshold,
        "ok": bound >= threshold - BOUNDARY_TOL,
    }


# ---------------------------------------------------------------------------
# Fix sets


class RootExponentMap(namedtuple("RootExponentMap", "modulus a_exp c_exp")):
    """Diagonal map (zeta^a_exp x, zeta^c_exp y), zeta a primitive root of unity.

    Symbolic form of a Fix-set element over Q, where the roots of unity are
    not rational; modulus is n^2 - 1 and c_exp = n * a_exp (mod modulus).
    Maps order as the tuple (modulus, a_exp, c_exp).
    """

    __slots__ = ()

    def __str__(self):
        m = self.modulus
        return f"zeta{m}^{self.a_exp}*x; zeta{m}^{self.c_exp}*y"

    def to_json_dict(self) -> dict:
        exponents = {"modulus": self.modulus, "a_exponent": self.a_exp, "c_exponent": self.c_exp}
        return {"field": "Q(zeta)", "map": str(self), **exponents}


def _fix_field(n: int, p: int) -> PrimeField:
    """F_p for a Fix set over n: p must be prime and must not divide n.

    p^2 (p-1)^2 past _MAX_BRUTEFORCE_CANDIDATES (p > 150) is refused first,
    before the primality test, whose cost grows with p.
    """
    from .fields import PrimeField  # here, so that certify without a prime loads no field

    if oracle_count(p) > _MAX_BRUTEFORCE_CANDIDATES:
        raise ParameterError(f"brute-force search over F_{p} is infeasible")
    field = PrimeField(p)  # raises on non-primes
    if n % p == 0:
        raise ParameterError("characteristic divides n")
    return field


def oracle_count(p: int) -> int:
    """Number of affine candidates (a x + b, c y + d), a, c != 0, over F_p: p^2 (p-1)^2."""
    return (p * (p - 1)) ** 2


def fix_set_symbolic(n: int, p: Optional[int] = None):
    """The diagonal maps (a x, a^n y) with a^(n^2-1) = 1.

    Over F_p the list holds the p-rational roots (all n^2 - 1 of them iff
    p = 1 mod n^2 - 1); without a prime, root-of-unity exponent pairs are
    returned since Q itself lacks the roots; more than MAX_FIX_MAPS of them
    are refused with a ParameterError.  Over F_p at most p - 1 maps are listed,
    and _fix_field refuses p past the search bound (p > 150).
    """
    if n < 2:
        raise ParameterError("need n >= 2")
    m = n * n - 1
    if p is None:
        if m > MAX_FIX_MAPS:
            raise ParameterError(f"symbolic Fix set size n^2 - 1 = {m} exceeds {MAX_FIX_MAPS}; lower n")
        return [RootExponentMap(m, k, n * k % m) for k in range(m)]
    from .polymaps import affine_map

    field = _fix_field(n, p)
    return [affine_map(field, a, 0, pow(a, n, p), 0) for a in field.roots_of_unity(m)]


def fix_set_bruteforce(n: int, p: int) -> List[PolyMap]:
    """Exhaustive search over all affine (a x + b, c y + d), a, c != 0, in F_p.

    Independent oracle for the Fix set: keeps candidates whose generic
    conjugates by the shift map pass the degree-1 and base-point checks (see
    _bruteforce), derived once by generic conjugation over F_p[a, b, c, d].
    n past _MAX_BRUTEFORCE_N and p^2 (p-1)^2 past _MAX_BRUTEFORCE_CANDIDATES
    are refused with a ParameterError (the latter by _fix_field).
    """
    from . import _bruteforce  # here, so that certify without a prime never loads the kernel
    from .polymaps import affine_map

    if n < 2:
        raise ParameterError("need n >= 2")
    if n > _MAX_BRUTEFORCE_N:
        raise ParameterError(f"brute-force search needs n <= {_MAX_BRUTEFORCE_N}, got n = {n}")
    field = _fix_field(n, p)
    return [affine_map(field, *abcd) for abcd in _bruteforce.enumerate_fix_candidates(n, p)]


# ---------------------------------------------------------------------------
# Fix-set monotonicity (geometric inclusion hypothesis)


def _gram_det(g: tuple, powers: tuple) -> Fraction:
    """Determinant of the Gram matrix of h^k(w_scaled), k in powers: entry (i, j) is g[|i - j|]."""
    m = [[g[abs(i - j)] for j in powers] for i in powers]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def fix_monotonicity_check(g: tuple, tail_norm_sq: Fraction) -> dict:
    """Verify the convexity hypothesis behind the Fix-set inclusion chain, exactly.

    The five truncated axis points h^k(w), k = -2..2, must lie in order on a
    common geodesic up to the tail; then for every isometry at once, moving
    the outer pair by at most eps moves the inner points by at most eps plus
    twice their distance from that geodesic.  Direct evaluation on the Fix
    members themselves would need the action on infinitely-near points, which
    is out of scope.

    The shift map is an isometry, so the Gram matrix of the orbit is Toeplitz
    in g = (g_0, .., g_4), g_k = B(w_scaled, h^k w_scaled), as returned by
    AxisData.gram; tail_norm_sq is the axis's exact tail bound.  The points
    are ordered when g_0 < g_1 < g_2 < g_3 < g_4, and h^j(w) lies at
    distance delta_j from the geodesic through h^-2(w) and h^2(w) with
    sinh^2 delta_j = -det G3_j / (g_0 det G2), G2 the Gram matrix of the ends
    and G3_j that of the ends and h^j(w).  The verdict needs
    sinh^2 delta_j <= tail_norm_sq for j = -1, 0, 1, decided in Fraction,
    and sinh^2 delta_j >= 0, which no g of points on the hyperboloid
    violates; ``deviation_ratio`` is the largest sinh^2 delta_j / tail_norm_sq,
    as a float for display only.
    """
    ordered = all(g[k] < g[k + 1] for k in range(4))
    det2 = _gram_det(g, (-2, 2))
    ratios = []  # stays empty when the ends coincide: no geodesic to measure against
    if det2:
        scale = g[0] * det2 * tail_norm_sq
        ratios = [-_gram_det(g, (-2, 2, j)) / scale for j in (-1, 0, 1)]
    return {
        "mode": "exact",
        "deviation_ratio": float(max(ratios)) if ratios else None,
        "ordered": ordered,
        "ok": ordered and bool(ratios) and 0 <= min(ratios) and max(ratios) <= 1,
    }


# ---------------------------------------------------------------------------
# full pipeline


class CertReport(namedtuple("CertReport", "n depth prime sections verdicts fix_symbolic fix_bruteforce")):
    """Result of the certification pipeline.

    ``sections`` holds the report body in report order with raw values; each
    check carries its own ``ok``, and ``verdicts`` is read from those same
    booleans.  ``fix_symbolic`` and ``fix_bruteforce`` keep the map objects
    (``fix_bruteforce`` and ``prime`` are None without a prime).
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    @property
    def axis_facts(self) -> dict:
        return self.sections["axis"]

    @property
    def worst_case(self) -> dict:
        """Degree (2 or 3) -> its exclusion data."""
        wci = self.sections["worst_case_intersection"]
        return {2: wci["deg2"], 3: wci["deg3"]}

    def to_json_dict(self) -> dict:
        return to_json(
            {
                "n": self.n,
                "depth": self.depth,
                "field": "Q" if self.prime is None else f"Fp:{self.prime}",
                **self.sections,
                "verdicts": self.verdicts,
                "passed": self.passed,
            }
        )


def certify(
    n: int,
    depth: int = 20,
    p: Optional[int] = None,
    eps: Optional[float] = None,
) -> CertReport:
    """Run the whole pipeline; the report passes iff every verdict holds."""
    from .action import axis_classes, axis_pairings

    if not isinstance(n, int) or n < 2:
        raise ParameterError("need an integer n >= 2")
    if not isinstance(depth, int) or depth < 2:
        raise ParameterError("need an integer truncation depth >= 2")
    m = n * n - 1
    if p is not None:
        _fix_field(n, p)
        if (p - 1) % m != 0:
            raise ParameterError(
                f"prime {p} has no full set of (n^2-1)-th roots of unity; "
                f"pick p = 1 (mod {m})"
            )

    # the axis refuses an n past its support bound before the float window
    # would overflow on it
    axis = axis_classes(n, depth)
    star = epsilon_window(n, eps)
    checks = star.checks()
    star_window = {
        "eps_max": star.eps_max,
        "chosen_eps": star.chosen_eps,
        "checks": checks,
        "ok": all(c["ok"] for c in checks.values()),
    }
    dbound = degree_bound(n, star.chosen_eps)
    degree = {"value": dbound, "limit": "4", "ok": dbound < 4.0}

    tail_exp = axis.tail_norm_sq / 2  # n^(-2 depth - 2): b+.b+, and w.w - 1
    pairs = axis_pairings(axis)
    axis_facts = {
        "tail_norm_sq": axis.tail_norm_sq,
        **pairs,
        "expected_b_cross": Fraction(1),
        "expected_b_self": tail_exp,
        "expected_w_norm_sq": 1 + tail_exp,
        "ok": pairs == {
            "b_cross": 1,
            "b_plus_self": tail_exp,
            "b_minus_self": tail_exp,
            "w_norm_sq": 1 + tail_exp,
        },
    }

    deg2 = exclusion_data(n, 2, star.chosen_eps, axis)
    deg3 = exclusion_data(n, 3, star.chosen_eps, axis)
    wci_ok = deg3["worst_case"] == -3 and deg2["worst_case"] == Fraction(-2) + Fraction(1, n)

    # distance from l to the normalized truncated projection point
    proj_cosh = SQRT2 / math.sqrt(float(pairs["w_norm_sq"]))
    proj_dist = math.acosh(proj_cosh) if proj_cosh >= 1.0 else float("nan")
    proj_tol = 1e-9 + SQRT2 * float(tail_exp)
    projection = {
        "distance": proj_dist,
        "expected": ACOSH_SQRT2,
        "tolerance": proj_tol,
        "ok": abs(proj_dist - ACOSH_SQRT2) <= proj_tol,
    }

    # translation length: cosh of the displacement of the normalized axis point,
    # g_1 / g_0; the monotonicity check reads the same Gram sequence
    g = axis.gram()
    cosh_ratio = g[1] / g[0]
    expected_cosh = Fraction(n * n + 1, 2 * n)
    translation = {
        "cosh_value": cosh_ratio,
        "expected": expected_cosh,
        "tolerance": SQRT2 * float(Fraction(1, n ** (depth + 1))),
        # |cosh_value - expected| <= sqrt(2) n^-(depth+1), squared so that it is decided over Q
        "ok": (cosh_ratio - expected_cosh) ** 2 <= axis.tail_norm_sq,
    }

    monotonicity = fix_monotonicity_check(g, axis.tail_norm_sq)

    fix_sym = fix_set_symbolic(n, p)
    fix_bf = None if p is None else fix_set_bruteforce(n, p)
    fix_set = {
        "expected_cardinality": m,
        "cardinality": len(fix_sym),
        "cardinality_ok": len(fix_sym) == m,
        "symbolic": fix_sym,
        "bruteforce": fix_bf,
        "oracle_count": None if p is None else oracle_count(p),
        "kernel": None if p is None else kernel_name(),
        "oracle_match_ok": fix_bf is None or fix_bf == fix_sym,
    }

    sections = {
        "star_window": star_window,
        "degree_bound": degree,
        "axis": axis_facts,
        "worst_case_intersection": {"deg2": deg2, "deg3": deg3},
        "projection": projection,
        "translation": translation,
        "monotonicity": monotonicity,
        "fix_set": fix_set,
    }
    verdicts = {
        "star_window_ok": star_window["ok"],
        "degree_bound_ok": degree["ok"],
        "axis_normalization_ok": axis_facts["ok"],
        "worst_case_exact_ok": wci_ok,
        "exclusion_deg2_ok": deg2["ok"],
        "exclusion_deg3_ok": deg3["ok"],
        "projection_ok": projection["ok"],
        "translation_ok": translation["ok"],
        "monotonicity_ok": monotonicity["ok"],
        "fix_cardinality_ok": fix_set["cardinality_ok"],
        "oracle_match_ok": fix_set["oracle_match_ok"],
    }
    return CertReport(n, depth, p, sections, verdicts, fix_sym, fix_bf)
