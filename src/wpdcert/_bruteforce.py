"""Exhaustive Fix-set search over F_p.

A candidate affine map (a x + b, c y + d), a, c != 0, is kept iff

  * both single conjugates h f h^-1 and h^-1 f h have degree 1,
  * the forward conjugate fixes the base point p_0 = [1:0:0] (no x-term in
    its second component) and the backward one fixes q_0 = [0:1:0],
  * for n = 2 only, both double conjugates h^2 f h^-2, h^-2 f h^2 also have
    degree 1.

`enumerate_fix_candidates` conjugates once, generically, the map
(A x + B, C y + D) over the coefficient ring F_p[A, B, C, D].  Every check
above asks that some coefficients of the conjugates vanish, so the search
only evaluates those coefficients at each candidate.  Evaluation at
(a, b, c, d) is a ring homomorphism, so the survivors are exactly those of
`reference_fix_candidates`, which conjugates each candidate over F_p.  No
closed form of the conjugates is typed in anywhere.

Both return the sorted list of surviving (a, b, c, d) tuples.
"""

from __future__ import annotations

from typing import List, Tuple

from .fields import PrimeField
from .polymaps import PolyMap, affine_map, compose, henon_inverse, henon_map


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
    """The non-zero coefficients in F_p[A, B, C, D] that must vanish at a survivor."""
    h = henon_map(n, ring)
    hinv = henon_inverse(n, ring)
    f = affine_map(ring, *ring.gens)
    fwd = compose(h, compose(f, hinv))
    bwd = compose(hinv, compose(f, h))
    conjugates = [fwd, bwd]
    if n == 2:
        conjugates += [compose(h, compose(fwd, hinv)), compose(hinv, compose(bwd, h))]
    conds = [fwd.comp_y.coeff(1, 0), bwd.comp_x.coeff(0, 1)]  # moves p_0, moves q_0
    for g in conjugates:
        for comp in (g.comp_x, g.comp_y):
            conds += [c for (i, j), c in comp.coeffs.items() if i + j >= 2]
    return [c for c in conds if c]


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
    survivors.sort()
    return survivors


def _degree_at_most_one(f: PolyMap) -> bool:
    return f.comp_x.degree() <= 1 and f.comp_y.degree() <= 1


def reference_fix_candidates(n: int, p: int) -> List[Tuple[int, int, int, int]]:
    """Per-candidate conjugation over F_p: the slow reference for the tests."""
    field = PrimeField(p)
    if n % p == 0:
        raise ValueError("characteristic divides n")
    h = henon_map(n, field)
    hinv = henon_inverse(n, field)
    survivors = []
    for a in field.units():
        for c in field.units():
            for b in range(p):
                for d in range(p):
                    f = affine_map(field, a, b, c, d)
                    fwd = compose(h, compose(f, hinv))
                    if not _degree_at_most_one(fwd):
                        continue
                    bwd = compose(hinv, compose(f, h))
                    if not _degree_at_most_one(bwd):
                        continue
                    if fwd.comp_y.coeff(1, 0) != 0:  # moves p_0
                        continue
                    if bwd.comp_x.coeff(0, 1) != 0:  # moves q_0
                        continue
                    if n == 2:
                        fwd2 = compose(h, compose(fwd, hinv))
                        if not _degree_at_most_one(fwd2):
                            continue
                        bwd2 = compose(hinv, compose(bwd, h))
                        if not _degree_at_most_one(bwd2):
                            continue
                    survivors.append((a, b, c, d))
    survivors.sort()
    return survivors
