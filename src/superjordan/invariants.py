"""Degeneration-invariant quantities: superderivations and orbit dimension,
the associated algebra, the Burde invariant, associativity, even-part
identification, and the necessary-condition screen for non-degenerations.

One equation builder, ``_map_equations``, sets up the superderivations
(and so the orbit dimension); ``algebra_fingerprint`` identifies an algebra
by its table up to a basis permutation that keeps parity.

The screen is one stream of violations, ``screen_violations``, in a fixed
cheapest-first order: power dimensions, even part, orbit dimension,
associativity, the associated algebras, Burde invariants.  A full screen
reads the whole stream; a lemma row reads it up to its published reason
and reports its first violation.

``orbit_dimension``, ``algebra_fingerprint`` and ``algebra.power_filtration``
are cached by the value of the table (``functools.lru_cache``): an algebra
is frozen, and its equality and hash ignore its name, so repeated blocks,
shared even parts and fresh family instances share one entry, across
catalogs too.  The other kernels here (the superderivations,
associativity, the Burde traces) are not cached: each call reads the table
its algebra keeps (``algebra.SuperAlgebra.table``), cleared and grouped once
per algebra object, so only their own loops run again.  A new object with
equal constants builds its own table.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations, product
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .algebra import (
    SuperAlgebra,
    as_table,
    graded_table,
    power_filtration,
    power_spans,
    product_row,
    unflatten,
)


class TypeMismatch(ValueError):
    """Screen rejects pairs of different (m, n); cross-type degenerations
    cannot exist (the ambient varieties have different dimensions)."""


@dataclass(frozen=True)
class DerivationSpace:
    even_dim: int
    odd_dim: int

    @property
    def total(self) -> int:
        return self.even_dim + self.odd_dim


def _map_equations(table, par: Sequence[int], d_par: int):
    """The rows of D(x_a x_b) = D(x_a) x_b + (-1)^{d_par par[a]} x_a D(x_b),
    built from the nonzero constants, and the number of unknowns: D is a
    parity-``d_par`` map D x_a = sum_c D[a][c] x_c of a flat table whose
    basis vector x_a has parity par[a], so D[a][c] = 0 unless
    par[c] = par[a] + d_par mod 2."""
    d = len(table)
    # unknowns of row a of D: (c, column) pairs
    unknowns: List[List[Tuple[int, int]]] = [[] for _ in range(d)]
    width = 0
    for a in range(d):
        for c in range(d):
            if par[c] == (par[a] + d_par) % 2:
                unknowns[a].append((c, width))
                width += 1
    sparse = [[[(k, t) for k, t in enumerate(row) if t] for row in plane] for plane in table]
    rows = []
    for a in range(d):
        sign = -1 if d_par * par[a] % 2 else 1
        for b in range(d):
            # the equation at output coordinate l, as coefficients of the unknowns
            eqs = defaultdict(lambda: [0] * width)
            for k, t in sparse[a][b]:  # D(x_a x_b)
                for l, col in unknowns[k]:
                    eqs[l][col] += t
            for c, col in unknowns[a]:  # - D(x_a) x_b
                for l, t in sparse[c][b]:
                    eqs[l][col] -= t
            for c, col in unknowns[b]:  # - (-1)^{d_par par[a]} x_a D(x_b)
                for l, t in sparse[a][c]:
                    eqs[l][col] -= sign * t
            rows += [row for row in eqs.values() if any(row)]
    return rows, width


def _derivation_dim(table, par: Sequence[int], d_par: int) -> int:
    """Dimension of the parity-``d_par`` superderivations of a flat table
    (``cleared_table``, so that the rows are over Z or Z[s]); with every
    parity 0, of the derivations of the ungraded table."""
    rows, width = _map_equations(table, par, d_par)
    return width - linalg.rank(rows)


def derivation_dims(J: SuperAlgebra) -> DerivationSpace:
    """Dimensions of the even and odd superderivation spaces."""
    table, par = graded_table(J)
    table = table.cleared[1]
    return DerivationSpace(_derivation_dim(table, par, 0), _derivation_dim(table, par, 1))


@lru_cache(maxsize=None)
def orbit_dimension(J: SuperAlgebra) -> int:
    """(m+n)^2 minus the total superderivation dimension.

    This reading of the orbit-dimension formula reproduces the published
    orbit columns (16 - 12 = 4, 16 - 9 = 7, ...), unlike the graded
    m^2 + n^2 alternative.
    """
    d = derivation_dims(J)
    return (J.m + J.n) ** 2 - d.total


def ungraded_derivation_dim(table) -> int:
    """Derivation dimension of a flattened (ungraded) multiplication table."""
    return _derivation_dim(as_table(table).cleared[1], [0] * len(table), 0)


def ungraded_power_dims(table) -> List[int]:
    """Dimensions of the powers of a flattened (ungraded) table, r = 1..dim."""
    return [len(basis) for basis in power_spans(table)]


def associated_algebra(J: SuperAlgebra) -> SuperAlgebra:
    """Keep only the odd-times-odd products; zero the rest."""
    table, par = graded_table(J)
    kept = [
        [row if par[a] and par[b] else [Fraction(0)] * len(row) for b, row in enumerate(plane)]
        for a, plane in enumerate(table)
    ]
    return unflatten(kept, J.m, J.n, name=f"a({J.name})" if J.name else "")


def is_associative(J: SuperAlgebra) -> bool:
    return table_is_associative(graded_table(J)[0])


def table_is_associative(table) -> bool:
    """(x_a x_b) x_c = x_a (x_b x_c) on every basis triple, compared as
    rows (``product_row``) in ints or over Z[s] on the cleared table
    (``cleared_table``): both sides are quadratic in the constants."""
    scale, T = as_table(table).cleared
    groups = T.groups
    zero = 0 * scale  # 0, or the zero Poly, which is not equal to 0
    d = len(T)
    unit = [[int(i == j) for j in range(d)] for i in range(d)]
    return all(
        product_row(groups, T[a][b], unit[c], zero) == product_row(groups, unit[a], T[b][c], zero)
        for a in range(d)
        for b in range(d)
        for c in range(d)
    )


# ---------------------------------------------------------------------------
# Burde invariant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BurdeValue:
    i: int
    j: int
    status: str  # "defined" | "not_defined" | "not_constant"
    value: Optional[Fraction] = None
    samples_used: int = 0

    @property
    def defined(self) -> bool:
        return self.status == "defined"


def _trace(A) -> int:
    return sum(A[i][i] for i in range(len(A)))


def _trace_of_product(A, B) -> int:
    """tr(AB), without forming AB."""
    d = len(A)
    return sum(A[i][k] * B[k][i] for i in range(d) for k in range(d) if A[i][k])


def _burde_values(J: SuperAlgebra, pairs, trials: int = 16, seed: int = 0) -> List[BurdeValue]:
    """Sampled values of tr(L(x)^i) tr(L(y)^j) / tr(L(x)^i L(y)^j), one for
    each (i, j) in ``pairs``, of a rational table.

    Exact agreement across all surviving samples is required; the invariant
    is a ratio of polynomials in the structure constants, so agreement on
    random points is decisive evidence and disagreement is a proof of
    non-constancy.  All pairs read the same seeded samples x, y, so each
    sample is drawn once and L(x), L(y) and their powers are built once for
    all pairs.  A pair stops at its first disagreement, as it would alone;
    sampling stops when every pair has stopped.  x and y are ints, and so
    are the traces, on the table times lambda (``cleared_table``): L(x) is
    linear in the constants, so the numerator and the denominator both
    scale by lambda^(i+j), which cancels, and lambda != 0 keeps every zero
    test.  L(x) is built transposed, as M with rows x x_b; no trace
    changes, since tr((A^T)^i) = tr(A^i) and tr(A^T B^T) = tr(AB).  Its
    powers are products too: row b of M^i is x times row b of M^(i-1), so
    each row of each power is one ``product_row``, starting from M^0 = I.
    """
    if any(i < 1 or j < 1 for i, j in pairs):
        raise ValueError("exponents must be >= 1")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    groups = J.table().cleared[1].groups
    d = J.dim
    unit = [[int(i == j) for j in range(d)] for i in range(d)]

    def left_powers(x, top: int) -> list:
        """[M, M^2, ..., M^top] for M = L(x) transposed."""
        out = [unit]
        while len(out) <= top:
            out.append([product_row(groups, x, row, 0) for row in out[-1]])
        return out[1:]

    rng = random.Random(seed)
    values: List[Optional[Fraction]] = [None] * len(pairs)
    used = [0] * len(pairs)
    done: Dict[int, BurdeValue] = {}
    for _ in range(trials):
        if len(done) == len(pairs):
            break
        x = [rng.randint(-3, 3) for _ in range(d)]
        y = [rng.randint(-3, 3) for _ in range(d)]
        live = [p for p in range(len(pairs)) if p not in done]
        lx = left_powers(x, max(pairs[p][0] for p in live))
        ly = left_powers(y, max(pairs[p][1] for p in live))
        for p in live:
            i, j = pairs[p]
            num = _trace(lx[i - 1]) * _trace(ly[j - 1])
            den = _trace_of_product(lx[i - 1], ly[j - 1])
            if num == 0 or den == 0:
                continue
            used[p] += 1
            v = Fraction(num, den)
            if values[p] is None:
                values[p] = v
            elif values[p] != v:
                done[p] = BurdeValue(i, j, "not_constant", samples_used=used[p])
    out = []
    for p, (i, j) in enumerate(pairs):
        if p in done:
            out.append(done[p])
        elif values[p] is None:
            out.append(BurdeValue(i, j, "not_defined", samples_used=0))
        else:
            out.append(BurdeValue(i, j, "defined", value=values[p], samples_used=used[p]))
    return out


# ---------------------------------------------------------------------------
# Even part and fingerprint identification
# ---------------------------------------------------------------------------


def subalgebra(J: SuperAlgebra, block: Sequence[int], name: str = "") -> SuperAlgebra:
    """The products among the basis vectors ``block`` (ascending indices into
    ``J.labels()``, closed under the product), as an algebra whose even
    vectors are the even vectors of ``block``."""
    table, par = graded_table(J)
    sub = [[[table[a][b][k] for k in block] for b in block] for a in block]
    m = sum(1 for a in block if par[a] == 0)
    return unflatten(sub, m, len(block) - m, name=name)


def even_part(J: SuperAlgebra) -> SuperAlgebra:
    """The even subalgebra (the products of even vectors), as a type (m, 0)
    algebra."""
    return subalgebra(J, range(J.m), name=f"({J.name})_0" if J.name else "")


@lru_cache(maxsize=None)
def algebra_fingerprint(J: SuperAlgebra) -> tuple:
    """J's type and the set of its flat label-order tables in every basis
    order that permutes the even vectors among themselves and the odd ones
    among themselves: T'[a][b][k] = T[p[a]][p[b]][p[k]].  Two algebras have
    equal fingerprints iff one is the other's table in such an order, so a
    match is an isomorphism; no match proves nothing."""
    table, _par = graded_table(J)
    m, d = J.m, J.dim
    orders = [ev + od for ev in permutations(range(m)) for od in permutations(range(m, d))]
    cells = list(product(range(d), repeat=3))
    return (m, J.n), frozenset(tuple(table[p[a]][p[b]][p[k]] for a, b, k in cells) for p in orders)


def identify_algebra(J: SuperAlgebra, candidates: Iterable[Tuple[str, SuperAlgebra]]) -> Optional[str]:
    """The label of the one candidate with J's fingerprint, else None.

    Only candidates of J's type (m, n) can match, since a fingerprint begins
    with the type: the others are skipped, and with none left J is not
    fingerprinted at all."""
    same_type = [(label, cand) for label, cand in candidates if (cand.m, cand.n) == (J.m, J.n)]
    if not same_type:
        return None
    fp = algebra_fingerprint(J)
    hits = [label for label, cand in same_type if algebra_fingerprint(cand) == fp]
    if len(hits) == 1:
        return hits[0]
    return None


# ---------------------------------------------------------------------------
# Non-degeneration screen
# ---------------------------------------------------------------------------


# The items of the screen, in the order ``screen_violations`` yields them; a
# lemma pair's published reason names one.
SCREEN_ITEMS = ("power-dims", "even-part", "orbit-dimension", "associativity", "associated-algebra", "burde")


@dataclass(frozen=True)
class ScreenViolation:
    item: str  # one of SCREEN_ITEMS
    detail: str


@dataclass(frozen=True)
class ScreenReport:
    source: str
    target: str
    violations: Tuple[ScreenViolation, ...]

    def __bool__(self):
        return bool(self.violations)

    def lines(self) -> List[str]:
        if not self.violations:
            return [f"{self.source} -> {self.target}: no obstruction found"]
        return [
            f"{self.source} -/-> {self.target}: {v.item} violation: {v.detail}"
            for v in self.violations
        ]


BURDE_PAIRS = ((1, 1), (1, 2), (2, 2))


def _power_dim_violations(A: SuperAlgebra, B: SuperAlgebra) -> Iterator[ScreenViolation]:
    """Lemma item (1): dim (J^r) may not grow along a degeneration."""
    for r, (pa, pb) in enumerate(zip(power_filtration(A), power_filtration(B)), start=1):
        for idx, part in ((0, "even"), (1, "odd")):
            if pa[idx] < pb[idx]:
                yield ScreenViolation("power-dims", f"dim (J^{r})_{part} {pa[idx]} < {pb[idx]}")


def _burde_violations(A: SuperAlgebra, B: SuperAlgebra) -> Iterator[ScreenViolation]:
    """Lemma item (4): defined Burde invariants must agree."""
    for ba, bb in zip(_burde_values(A, BURDE_PAIRS), _burde_values(B, BURDE_PAIRS)):
        if ba.defined and bb.defined and ba.value != bb.value:
            yield ScreenViolation("burde", f"c_{{{ba.i},{ba.j}}}: {ba.value} vs {bb.value}")


def _associativity_violations(A: SuperAlgebra, B: SuperAlgebra) -> Iterator[ScreenViolation]:
    """Lemma item (5): associativity is preserved by degenerations."""
    if is_associative(A) and not is_associative(B):
        yield ScreenViolation("associativity", "source associative, target not")


def screen_violations(
    A: SuperAlgebra,
    B: SuperAlgebra,
    even_label_a: Optional[str],
    even_label_b: Optional[str],
    even_reachable: Optional[Callable[[str, str], bool]],
) -> Iterator[ScreenViolation]:
    """Every violated necessary condition for A -> B, cheapest first: power
    dimensions, even part, orbit dimension, associativity, the associated
    algebras, Burde invariants.  Each condition is computed only when the
    stream reaches it.  Cross-type pairs are rejected outright."""
    if (A.m, A.n) != (B.m, B.n):
        raise TypeMismatch(f"cannot screen type ({A.m},{A.n}) against type ({B.m},{B.n})")
    yield from _power_dim_violations(A, B)
    if even_label_a and even_label_b and even_reachable is not None:
        if not even_reachable(even_label_a, even_label_b):
            yield ScreenViolation("even-part", f"{even_label_a} does not reach {even_label_b}")
    oa, ob = orbit_dimension(A), orbit_dimension(B)
    if oa <= ob and A != B:
        yield ScreenViolation("orbit-dimension", f"{oa} <= {ob} with distinct tables")
    yield from _associativity_violations(A, B)
    # associated algebras must themselves satisfy items (1), (4), (5)
    aA, aB = associated_algebra(A), associated_algebra(B)
    for v in chain(
        _power_dim_violations(aA, aB),
        _burde_violations(aA, aB),
        _associativity_violations(aA, aB),
    ):
        yield ScreenViolation("associated-algebra", f"a(J): {v.item}: {v.detail}")
    yield from _burde_violations(A, B)


def nondegeneration_screen(
    A: SuperAlgebra,
    B: SuperAlgebra,
    *,
    even_label_a: Optional[str] = None,
    even_label_b: Optional[str] = None,
    even_reachable: Optional[Callable[[str, str], bool]] = None,
) -> ScreenReport:
    """Collect every violated necessary condition for A -> B, in the order
    of ``screen_violations``.

    An empty report means "no obstruction found", never "degeneration
    exists".
    """
    stream = screen_violations(A, B, even_label_a, even_label_b, even_reachable)
    return ScreenReport(A.name or "A", B.name or "B", tuple(stream))
