"""Exact dense linear algebra over Q (Fraction entries) and Q(s) (RatFun).

One elimination routine per scalar field:

* ``_reduce_q``: fraction-free Gauss–Jordan over Q.  Each row is scaled to
  integers; a pivot p at step k replaces every other row by
  (p * row - entry * pivot row) // (pivot of step k - 1), above the pivot
  as well as below, so every entry stays an integer minor of the input and
  each division is exact (Bareiss).
* ``_reduce_rf``: Gauss–Jordan over Q(s).  In each column it takes the
  first entry of least degree (numerator plus denominator) as pivot, which
  keeps the intermediate rational functions small.

Rank is the number of pivots, the reduced row-echelon basis is each pivot
row divided by its pivot, and the inverse of M is the right half of the
reduced [M | I].

``int_matrix_det_adjugate`` is cofactor expansion over any commutative
ring whose zero is falsy and whose elements add, subtract, negate and
multiply among themselves: the integers of the certificate trials, and the
polynomials (``Poly``) a witness basis is cleared to.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple, Union

from .ratfun import RatFun, as_ratfun

Entry = Union[Fraction, RatFun]


class SingularMatrix(ValueError):
    pass


def _reduce_q(m: Sequence[Sequence[Entry]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free Gauss–Jordan over Q: the reduced pivot rows, as integer
    multiples of the reduced row-echelon rows, and their pivot columns."""
    rows = []
    for row in m:
        fr = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in fr))
        scaled = [x.numerator * (den // x.denominator) for x in fr]
        if any(scaled):
            rows.append(scaled)
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
            if i != r:
                x = row[c]
                rows[i] = [(a * pv - x * b) // prev for a, b in zip(row, prow)]
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
    if any(isinstance(x, RatFun) for row in rows for x in row):
        return len(_reduce_rf(rows)[1])
    return len(_reduce_q(rows)[1])


def nullspace_dim(rows: Sequence[Sequence[Entry]]) -> int:
    m = [list(r) for r in rows]
    if not m:
        return 0
    return len(m[0]) - rank(m)


def row_reduce_basis(vectors: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Reduced row-echelon basis of the span (over Fraction)."""
    rows, pivots = _reduce_q(vectors)
    return [[Fraction(a, row[p]) for a in row] for row, p in zip(rows, pivots)]


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
