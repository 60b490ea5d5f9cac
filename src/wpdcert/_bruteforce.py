"""Exhaustive Fix-set search over F_p.

A candidate affine map (a x + b, c y + d), a, c != 0, is kept iff

  * both single conjugates h f h^-1 and h^-1 f h have degree 1,
  * the forward conjugate fixes the base point p_0 = [1:0:0] (no x-term in
    its second component) and the backward one fixes q_0 = [0:1:0],
  * for n = 2 only, both double conjugates h^2 f h^-2, h^-2 f h^2 also have
    degree 1.

Every conjugate is taken by `polymaps.conjugate_by_henon`, the one statement
of the conjugation in the package.  `enumerate_fix_candidates` conjugates
once, generically, the map (A x + B, C y + D) over the coefficient ring
F_p[A, B, C, D].  The checks on the single conjugates ask that some of their
coefficients vanish, so the search only evaluates those coefficients at each
candidate.  Evaluation at (a, b, c, d) is a ring homomorphism, so the
survivors are exactly those of conjugating each candidate over F_p, as the
tests' reference search does.

For n = 2 the double conjugates are not expanded over the ring: each
candidate that passes the single checks (1 or 3 maps for every p <= 61, of
p^2 (p-1)^2 candidates) has its single conjugates conjugated once more over
F_p.  A candidate has to pass every check, so testing the last one on the
survivors of the others keeps the same set.  No closed form of the
conjugates is typed in anywhere.

The search returns the sorted list of surviving (a, b, c, d) tuples.
"""

from __future__ import annotations

from typing import List, Tuple

from .fields import PrimeField
from .polymaps import affine_map, conjugate_by_henon


class _CoeffRing:
    """F_p[A, B, C, D], with only the operations `Poly2` needs from a field.

    An element is a dict {(i, j, k, l): coefficient} for the monomials
    A^i B^j C^k D^l, holding no zero coefficient; the zero element is {}.
    """

    def __init__(self, p: int):
        self.p = p
        self.char = p
        self.tag = f"Fp:{p}[A,B,C,D]"
        self.zero = {}
        self.one = {(0, 0, 0, 0): 1}
        self.gens = [{(1, 0, 0, 0): 1}, {(0, 1, 0, 0): 1}, {(0, 0, 1, 0): 1}, {(0, 0, 0, 1): 1}]

    def coerce(self, x):
        if isinstance(x, dict):
            return x
        x = int(x) % self.p
        return {(0, 0, 0, 0): x} if x else {}

    def add(self, u, v):
        out = dict(u)
        for mono, c in v.items():
            s = (out.get(mono, 0) + c) % self.p
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return out

    def neg(self, u):
        return {mono: -c % self.p for mono, c in u.items()}

    def mul(self, u, v):
        out = {}
        for (i1, j1, k1, l1), c1 in u.items():
            for (i2, j2, k2, l2), c2 in v.items():
                mono = (i1 + i2, j1 + j2, k1 + k2, l1 + l2)
                out[mono] = out.get(mono, 0) + c1 * c2
        return {mono: c % self.p for mono, c in out.items() if c % self.p}

    def __eq__(self, other):
        return isinstance(other, _CoeffRing) and other.p == self.p

    def __hash__(self):
        return hash(("ring", self.p))


def _conditions(n: int, ring: _CoeffRing) -> list:
    """The non-zero coefficients in F_p[A, B, C, D] that must vanish at a survivor.

    Only the single conjugates are expanded.  The n = 2 double conjugates are
    checked on the survivors of these conditions, by
    `_double_conjugates_affine`; a map is kept only if it passes both, so
    the order of the checks does not change the result.
    """
    f = affine_map(ring, *ring.gens)
    fwd, bwd = conjugate_by_henon(f, n, 1), conjugate_by_henon(f, n, -1)
    conds = [fwd.comp_y.coeff(1, 0), bwd.comp_x.coeff(0, 1)]  # moves p_0, moves q_0
    for g in (fwd, bwd):
        for comp in (g.comp_x, g.comp_y):
            conds += [c for (i, j), c in comp.coeffs.items() if i + j >= 2]
    return [c for c in conds if c]


def _double_conjugates_affine(n: int, field: PrimeField, abcd: Tuple[int, int, int, int]) -> bool:
    """Whether h^2 f h^-2 and h^-2 f h^2 have degree <= 1, conjugated twice over F_p.

    abcd must pass the single checks: its single conjugates are then of the
    form (a x + b, c y + d) with a, c != 0, which conjugate_by_henon takes.
    """
    f = affine_map(field, *abcd)
    doubles = [conjugate_by_henon(conjugate_by_henon(f, n, s), n, s) for s in (1, -1)]
    return all(comp.degree() <= 1 for g in doubles for comp in (g.comp_x, g.comp_y))


def enumerate_fix_candidates(n: int, p: int) -> List[Tuple[int, int, int, int]]:
    """The search itself: p must be a prime that does not divide n, which the caller checks."""
    conds = _conditions(n, _CoeffRing(p))

    # Bind a, c, b, d in this order; test each condition once its variables are bound.
    order = (0, 2, 1, 3)
    stages = [[] for _ in order]
    for cond in conds:
        last = max((k for k, var in enumerate(order) if any(mono[var] for mono in cond)), default=0)
        stages[last].append(list(cond.items()))
    top = max(max(mono) for cond in conds for mono in cond) if conds else 0
    powers = [[pow(v, e, p) for e in range(top + 1)] for v in range(p)]

    def holds(stage, a, b, c, d):
        pa, pb, pc, pd = powers[a], powers[b], powers[c], powers[d]
        return all(
            sum(k * pa[i] * pb[j] * pc[l] * pd[m] for (i, j, l, m), k in terms) % p == 0
            for terms in stage
        )

    survivors = []
    for a in range(1, p):
        if not holds(stages[0], a, 0, 0, 0):
            continue
        for c in range(1, p):
            if not holds(stages[1], a, 0, c, 0):
                continue
            for b in range(p):
                if not holds(stages[2], a, b, c, 0):
                    continue
                survivors += [(a, b, c, d) for d in range(p) if holds(stages[3], a, b, c, d)]
    if n == 2:
        field = PrimeField(p)
        survivors = [abcd for abcd in survivors if _double_conjugates_affine(n, field, abcd)]
    survivors.sort()
    return survivors
