"""Exact dense linear algebra over Q (int and Fraction entries) and Q(s)
(RatFun).

One elimination routine per scalar field:

* ``_reduce_q``: fraction-free Gauss–Jordan over Q.  A row of ints is
  taken as it is, and only a row that holds a Fraction is cleared of its
  denominators.  Each row is divided by the gcd of its entries, signed so
  that its leading entry is positive, and a primitive row seen before is
  dropped, in first-seen order; the rank, the reduced row-echelon form and
  the inverse depend only on the row space.  Then a pivot p at step k
  replaces every other row by (p * row - entry * pivot row) // (pivot of
  step k - 1), above the pivot as well as below, so every entry stays an
  integer minor of the input and each division is exact (Bareiss).
* ``_reduce_rf``: Gauss–Jordan over Q(s).  In each column it takes the
  first entry of least degree (numerator plus denominator) as pivot, which
  keeps the intermediate rational functions small.

``rank`` reads the scalar field off the pass that prepares the rows:
``_reduce_q`` stops at the first RatFun entry, and ``_reduce_rf`` takes
over.  Rank is the number of pivots.  ``row_reduce_basis`` scales each
pivot row to a primitive integer vector with a positive pivot: the
reduced row-echelon basis, each row times the lcm of its denominators.
The inverse of M is the right half of the reduced [M | I].

``int_matrix_det_adjugate`` is cofactor expansion over any commutative
ring whose zero is falsy and whose elements add, subtract, negate and
multiply among themselves: the integers of the certificate trials, and the
polynomials (``Poly``) a witness basis is cleared to.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple, Union

from .ratfun import RatFun, as_ratfun

Rational = Union[int, Fraction]
Entry = Union[int, Fraction, RatFun]


class SingularMatrix(ValueError):
    pass


def _reduce_q(m: Sequence[Sequence[Entry]]) -> Optional[Tuple[List[List[int]], List[int]]]:
    """Fraction-free Gauss–Jordan over Q, on the distinct primitive rows of
    ``m`` (see above): the reduced pivot rows, as integer multiples of the
    reduced row-echelon rows, and their pivot columns; None when an entry is
    a RatFun."""
    rows: List[List[int]] = []
    seen = set()
    for row in m:
        kinds = set(map(type, row))
        if RatFun in kinds:
            return None
        if kinds - {int}:
            fr = [Fraction(x) for x in row]
            den = lcm(*(x.denominator for x in fr))
            row = [x.numerator * (den // x.denominator) for x in fr]
        g = gcd(*row)
        if not g:
            continue
        if next(filter(None, row)) < 0:
            g = -g
        key = tuple(row) if g == 1 else tuple(x // g for x in row)
        if key not in seen:
            seen.add(key)
            rows.append(list(key))
    pivots: List[int] = []
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            x = row[c]
            if x:
                rows[i] = [(a * pv - x * b) // prev for a, b in zip(row, prow)]
            elif pv != prev:  # the same formula, with entry 0
                rows[i] = [a * pv // prev for a in row]
        prev = pv
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _reduce_rf(m: Sequence[Sequence[Entry]]) -> Tuple[List[List[RatFun]], List[int]]:
    """Gauss–Jordan over Q(s): the rows, pivot rows first and scaled to
    pivot 1, and the pivot columns."""
    rows = [[as_ratfun(x) for x in row] for row in m]
    n = len(rows)
    pivots: List[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == n:
            break
        piv_row = None
        best = None
        for i in range(r, n):
            x = rows[i][c]
            if not x.is_zero():
                wgt = x.num.degree() + x.den.degree()
                if best is None or wgt < best:
                    best, piv_row = wgt, i
        if piv_row is None:
            continue
        rows[r], rows[piv_row] = rows[piv_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def rank(rows: Sequence[Sequence[Entry]]) -> int:
    """The rank over Q, or over Q(s) when an entry is a RatFun."""
    reduced = _reduce_q(rows)
    if reduced is None:
        reduced = _reduce_rf(rows)
    return len(reduced[1])


def nullspace_dim(rows: Sequence[Sequence[Entry]]) -> int:
    m = [list(r) for r in rows]
    if not m:
        return 0
    return len(m[0]) - rank(m)


def row_reduce_basis(vectors: Sequence[Sequence[Rational]]) -> List[List[int]]:
    """The canonical integer basis of the span over Q: each row of its
    reduced row-echelon basis, scaled to a primitive integer vector with a
    positive pivot."""
    out = []
    for row, p in zip(*_reduce_q(vectors)):
        g = gcd(*row) if row[p] > 0 else -gcd(*row)
        out.append([a // g for a in row])
    return out


def _identity_augmented(m: Sequence[Sequence[Entry]]) -> List[List[Entry]]:
    n = len(m)
    return [list(m[i]) + [int(k == i) for k in range(n)] for i in range(n)]


def invert_fraction_matrix(m: List[List[Fraction]]) -> List[List[Fraction]]:
    n = len(m)
    rows, pivots = _reduce_q(_identity_augmented(m))
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return [[Fraction(a, row[i]) for a in row[n:]] for i, row in enumerate(rows)]


def invert_field_matrix(m: List[List[RatFun]]) -> List[List[RatFun]]:
    """Inverse over the rational-function field; raises on singular input."""
    n = len(m)
    rows, pivots = _reduce_rf(_identity_augmented(m))
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular over the function field")
    return [row[n:] for row in rows]


def int_matrix_det_adjugate(m: List[List[int]]) -> tuple[int, List[List[int]]]:
    """Determinant and adjugate of a square matrix over a ring (det * inv =
    adjugate); zeros are skipped by their truth value."""
    n = len(m)
    det = _int_det(m)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:i] + row[i + 1 :] for k, row in enumerate(m) if k != j]
            c = _int_det(minor)
            adj[i][j] = c if (i + j) % 2 == 0 else -c
    return det, adj


def _int_det(m: List[List[int]]) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = m[0][0] - m[0][0]  # the zero of the entries' ring
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _int_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total
