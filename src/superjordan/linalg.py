"""Exact dense linear algebra over Q (int and Fraction entries) and Q(s)
(RatFun, or Poly for entries already cleared to Q[s]).

``clear_denominators`` clears rationals to ints by the lcm lambda of their
denominators, and rational functions to polynomials in Q[s] by the lcm D of
theirs.  A row scaled by a nonzero lambda or D spans the same line.

One elimination loop, ``_bareiss``, serves both rings: a fraction-free
(Bareiss) Gauss–Jordan written with ``*``, ``-``, exact ``//`` and truth
values only.  A pivot p at step k replaces every other row by (p * row -
entry * pivot row) // (pivot of step k - 1), above the pivot as well as
below, so every entry stays a minor of the input and each division is exact
(over Q[s], ``Poly.__floordiv__`` raises on a remainder).

* ``rank`` over Q: ``_reduce_q`` clears each row to ints, divides it by the
  gcd of its entries, signed so that its leading entry is positive, and
  drops a primitive row seen before (the rank, the reduced row-echelon form
  and the inverse depend only on the row space); then the loop.
  ``row_reduce_basis`` scales each pivot row to a primitive integer vector
  with a positive pivot: the reduced row-echelon basis, each row times the
  lcm of its denominators.
* ``rank`` over Q(s): the rows cleared to Q[s], each scaled to a monic
  leading entry and a repeated one dropped, then the loop.
* ``int_matrix_det_adjugate``: the loop on [M | I] over Z or Q[s].  Every
  pivot of the left block ends as the last pivot, det(M) times the sign of
  the row swaps, and the right block is adj(M) times that sign.
* ``invert_field_matrix``, over Q or Q(s): adj(R) diag(D) / det(R), for the
  rows R of M each cleared by its D.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple, Union

from .ratfun import Poly, RatFun, poly_lcm

Rational = Union[int, Fraction]
Entry = Union[int, Fraction, RatFun, Poly]


class SingularMatrix(ValueError):
    pass


def clear_denominators(values: Sequence[Entry]) -> Tuple[Union[int, Poly], List[Union[int, Poly]]]:
    """(scale, ``values`` times scale): the scale is lambda, the lcm of the
    denominators, and the values ints, when every value is rational (int or
    Fraction); otherwise the scale is D, the monic lcm of the RatFun
    denominators, and the values are Poly.  Scaling every constant of a
    table by one nonzero scale gives an isomorphic algebra (x -> x/scale), so
    an identity homogeneous in the constants holds on one iff on the other,
    and a rank system linear in them keeps its rank."""
    if all(isinstance(x, (int, Fraction)) for x in values):
        scale = lcm(*(x.denominator for x in values))
        return scale, [x.numerator * (scale // x.denominator) for x in values]
    D = reduce(poly_lcm, (x.den for x in values if isinstance(x, RatFun)), Poly.const(1))
    return D, [x.num * (D // x.den) if isinstance(x, RatFun) else D * x for x in values]


def _bareiss(rows: List[List]) -> Tuple[List[int], int]:
    """Fraction-free Gauss–Jordan of ``rows`` over Z or Q[s], in place (see
    above): the pivot rows come first, in the order of their pivot columns.
    Returns the pivot columns and the sign of the row swaps."""
    pivots: List[int] = []
    sign = 1
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
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
    return pivots, sign


def _reduce_q(m: Sequence[Sequence[Entry]]) -> Optional[Tuple[List[List[int]], List[int]]]:
    """Fraction-free Gauss–Jordan over Q, on the distinct primitive rows of
    ``m`` (see above): the reduced pivot rows, as integer multiples of the
    reduced row-echelon rows, and their pivot columns; None when an entry is
    not rational."""
    distinct = {}
    for row in m:
        kinds = set(map(type, row))
        if not kinds <= {int, Fraction}:
            return None
        if kinds - {int}:
            row = clear_denominators(row)[1]
        g = gcd(*row)
        if not g:
            continue
        if next(filter(None, row)) < 0:
            g = -g
        distinct.setdefault(tuple(row) if g == 1 else tuple(x // g for x in row), None)
    rows = [list(row) for row in distinct]
    pivots, _sign = _bareiss(rows)
    return rows[: len(pivots)], pivots


def rank(rows: Sequence[Sequence[Entry]]) -> int:
    """The rank over Q, or over Q(s) when an entry is a RatFun or a Poly."""
    reduced = _reduce_q(rows)
    if reduced is not None:
        return len(reduced[1])
    # cleared as one list, so that every row is over Q[s]; each row is then
    # scaled to a monic leading entry, and a row seen before is dropped
    # (Jc16's centroid system keeps 46 of its 100 rows)
    width = len(rows[0])
    flat = clear_denominators([x for row in rows for x in row])[1]
    distinct = {}
    for i in range(0, len(flat), width):
        row = flat[i : i + width]
        lead = next(filter(None, row), None)
        if lead is not None:
            distinct.setdefault(tuple(x // lead.leading() for x in row), None)
    return len(_bareiss([list(row) for row in distinct])[0])


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


def invert_field_matrix(m: List[List[Union[Rational, RatFun]]]) -> List[List[Union[Fraction, RatFun]]]:
    """Inverse over Q (Fraction entries) or over Q(s) (RatFun entries):
    adj(R) diag(D) / det(R), for the rows R of m each cleared by its D;
    raises on singular input."""
    cleared = [clear_denominators(row) for row in m]
    det, adj = int_matrix_det_adjugate([row for _D, row in cleared])
    if not det:
        raise SingularMatrix("matrix is singular")
    quotient = Fraction if type(det) is int else RatFun
    return [[quotient(x * D, det) for x, (D, _row) in zip(row, cleared)] for row in adj]


def int_matrix_det_adjugate(m: List[List[Entry]]) -> Tuple[Entry, Optional[List[List[Entry]]]]:
    """Determinant and adjugate (det * inverse) of a square matrix over Z or
    Q[s], from the Bareiss loop on [m | I]; a singular m gives det 0 and no
    adjugate (None)."""
    n = len(m)
    zero = m[0][0] * 0 if n else 0  # the identity is written in the ring of m
    rows = [list(m[i]) + [zero + int(k == i) for k in range(n)] for i in range(n)]
    pivots, sign = _bareiss(rows)
    if pivots[:n] != list(range(n)):
        return zero, None
    det = rows[-1][n - 1] if n else 1
    if sign < 0:
        return -det, [[-x for x in row[n:]] for row in rows]
    return det, [row[n:] for row in rows]
