"""Truncated Grassmann envelope and the classical Jordan identity check.

The envelope G(A) = G0 (x) A0 + G1 (x) A1 is built over a truncated
Grassmann algebra on k generators (dimension 2**k).  A homogeneous
violation of the graded identity lifts to a violation of the ordinary
Jordan identity (x^2 y)x = x^2 (yx) inside G(A) once x is allowed to be a
sum of up to three monomials with disjoint Grassmann supports; k = 4
generators are enough because the identity has degree four.  This check
never looks at the graded-identity evaluator, so it independently
validates the sign transcription there.

The products are read from the four blocks once and multiplied in ints,
or over Z[s] for a table over RatFun (``linalg.clear_denominators``).
Both sides of (x^2 y)x = x^2 (yx) are cubic in the constants, so each pair
holds after the scaling iff it held before, and the first failing pair and
``pairs_checked`` stay the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Dict, List, Optional, Tuple

from .algebra import SuperAlgebra
from .linalg import clear_denominators

# a G(A) element maps (grassmann_mask, parity, index) -> int coefficient
# (a Poly for a table over RatFun, cleared to Z[s])
GElement = Dict[Tuple[int, int, int], object]

# Largest number of Grassmann generators: the random trials list all 2**k
# masks, so memory grows as 2**k.
MAX_K = 16

# Random (x, y) pairs checked after the monomial ones, drawn at seed 0
RANDOM_PAIRS = 20


def grassmann_sign(s: int, t: int) -> int:
    """Sign of xi_S * xi_T for disjoint bitmasks (0 when not disjoint)."""
    if s & t:
        return 0
    sign = 1
    rest = s
    while rest:
        low = rest & -rest
        # each generator of T below this generator of S contributes one swap
        below = t & (low - 1)
        if bin(below).count("1") % 2:
            sign = -sign
        rest ^= low
    return sign


@dataclass(frozen=True)
class EnvelopeReport:
    ok: bool
    pairs_checked: int
    detail: str = ""

    def __bool__(self):
        return self.ok


class _Envelope:
    def __init__(self, J: SuperAlgebra, k: int):
        if not 0 <= k <= MAX_K:
            raise ValueError(f"k must be in [0, {MAX_K}], got {k}")
        blocks = ((0, 0, 0, J.alpha), (0, 1, 1, J.beta), (1, 0, 1, J.gamma), (1, 1, 0, J.delta))
        entries = [
            ((pa, i, pb, j), pr, kk, val)
            for pa, pb, pr, block in blocks
            for i, plane in enumerate(block)
            for j, row in enumerate(plane)
            for kk, val in enumerate(row)
            if val
        ]
        scaled = clear_denominators([val for *_, val in entries])[1]
        # (parity, index) x (parity, index) -> nonzero (parity, index, lambda c)
        self.products: Dict[Tuple[int, int, int, int], list] = {}
        for (key, pr, kk, _val), val in zip(entries, scaled):
            self.products.setdefault(key, []).append((pr, kk, val))
        # grassmann_sign per mask pair met, as a full 2**k x 2**k table is
        # too big at MAX_K
        self.signs: Dict[Tuple[int, int], int] = {}

    def mul(self, x: GElement, y: GElement) -> GElement:
        out: GElement = {}
        products, signs = self.products, self.signs
        for (s, pa, ia), ca in x.items():
            for (t, pb, ib), cb in y.items():
                terms = products.get((pa, ia, pb, ib))
                if terms is None:
                    continue
                sg = signs.get((s, t))
                if sg is None:
                    sg = signs[(s, t)] = grassmann_sign(s, t)
                if sg == 0:
                    continue
                c = ca * cb * sg
                st = s | t
                for parity, idx, val in terms:
                    key = (st, parity, idx)
                    acc = out.get(key, 0) + c * val
                    if acc:
                        out[key] = acc
                    else:
                        out.pop(key, None)
        return out

    def jordan_holds(self, x: GElement, y: GElement) -> bool:
        xx = self.mul(x, x)
        lhs = self.mul(self.mul(xx, y), x)
        rhs = self.mul(xx, self.mul(y, x))
        return lhs == rhs


def _support_plan(parities: List[int], k: int) -> Optional[List[int]]:
    """Disjoint Grassmann masks for a list of slot parities, or None if k is
    too small.  Odd slots take one fresh generator; the first even slot takes
    the empty mask, later even slots take fresh pairs when available."""
    masks: List[int] = []
    next_gen = 0
    used_empty = False
    for p in parities:
        if p == 1:
            if next_gen >= k:
                return None
            masks.append(1 << next_gen)
            next_gen += 1
        else:
            if not used_empty:
                masks.append(0)
                used_empty = True
            elif next_gen + 1 < k:
                masks.append((1 << next_gen) | (1 << (next_gen + 1)))
                next_gen += 2
            else:
                masks.append(0)
    return masks


def envelope_jordan_check(J: SuperAlgebra, k: int = 4) -> EnvelopeReport:
    """Check (x^2 y)x = x^2 (yx) in the truncated envelope.

    x runs over sums of up to three Grassmann-monomial tensors with disjoint
    supports, y over monomials; ``RANDOM_PAIRS`` random pairs, drawn at seed
    0, are added on top.
    """
    env = _Envelope(J, k)
    labels = J.labels()
    parities = {lab: J.label_index(lab)[0] for lab in labels}
    indices = {lab: J.label_index(lab) for lab in labels}
    pairs = 0

    def monomial(mask: int, lab: str, coeff: int = 1) -> GElement:
        p, i = indices[lab]
        return {(mask, p, i): coeff}

    def merge(parts: List[GElement]) -> GElement:
        out: GElement = {}
        for part in parts:
            for kk, v in part.items():
                out[kk] = out.get(kk, 0) + v
        return {kk: v for kk, v in out.items() if v}

    for r in (1, 2, 3):
        for combo in iproduct(labels, repeat=r):
            plan = _support_plan([parities[lab] for lab in combo], k)
            if plan is None:
                continue
            used = 0
            for msk in plan:
                used |= msk
            x = merge([monomial(msk, lab) for msk, lab in zip(plan, combo)])
            free = [g for g in range(k) if not (used >> g) & 1]
            for ylab in labels:
                if parities[ylab] == 1:
                    if not free:
                        continue
                    ymask = 1 << free[0]
                else:
                    ymask = 0
                y = monomial(ymask, ylab)
                pairs += 1
                if not env.jordan_holds(x, y):
                    return EnvelopeReport(
                        False, pairs, detail=f"fails at x={combo} supports={plan}, y={ylab}"
                    )

    rng = random.Random(0)
    even_masks = [msk for msk in range(1 << k) if bin(msk).count("1") % 2 == 0]
    odd_masks = [msk for msk in range(1 << k) if bin(msk).count("1") % 2 == 1]

    def random_element() -> GElement:
        parts = []
        for lab in labels:
            pool = even_masks if parities[lab] == 0 else odd_masks
            if not pool:
                continue
            mask = rng.choice(pool)
            coeff = rng.randint(-2, 2)
            if coeff:
                parts.append(monomial(mask, lab, coeff))
        return merge(parts)

    for _ in range(RANDOM_PAIRS):
        x, y = random_element(), random_element()
        pairs += 1
        if not env.jordan_holds(x, y):
            return EnvelopeReport(False, pairs, detail="fails at a random envelope pair")
    return EnvelopeReport(True, pairs)
