"""Exact dense linear algebra over Q (int and Fraction entries) and Q(s)
(RatFun, or Poly for entries already cleared to Z[s]).

``clear_denominators`` clears rationals to ints by the lcm lambda of their
denominators, and rational functions to polynomials in Z[s] by the lcm D of
theirs.  A row scaled by a nonzero lambda or D spans the same line.

One elimination loop, ``_bareiss``, serves both rings: a fraction-free
(Bareiss) Gauss–Jordan written with ``*``, ``-``, exact ``//`` and truth
values only.  A pivot p at step k replaces every other row by (p * row -
entry * pivot row) // (pivot of step k - 1), above the pivot as well as
below, so every entry stays a minor of the input and each division is exact
(over Z[s], ``Poly.__floordiv__`` raises on a remainder).

* ``_primitive_rows`` is the one row canonicaliser of both rings: it clears
  each row to Z or Z[s], divides it by the gcd of its integer coefficients,
  signed so that the leading coefficient of its first nonzero entry is
  positive, and drops a row seen before (the rank, the row space and the
  inverse depend only on the distinct lines).
* ``rank``: the canonical rows, then the loop.
* ``row_reduce_basis``: the canonical rows, the loop, and its pivot rows
  made canonical again.  Over Q that is the reduced row-echelon basis, each
  row times the lcm of its denominators: a primitive integer vector with a
  positive pivot.
* ``int_matrix_det_adjugate``: the loop on [M | I] over Z or Z[s].  Every
  pivot of the left block ends as the last pivot, det(M) times the sign of
  the row swaps, and the right block is adj(M) times that sign.
* ``invert_field_matrix``, over Q: adj(R) diag(lambda) / det(R), for the
  rows R of M each cleared by its lambda.
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
    Fraction); otherwise the scale is D, the lcm in Z[s] of the denominators
    (a Poly counts with denominator 1), and the values are Poly.  Scaling
    every constant of a table by one nonzero scale gives an isomorphic
    algebra (x -> x/scale), so an identity homogeneous in the constants
    holds on one iff on the other, and a rank system linear in them keeps
    its rank."""
    if all(isinstance(x, (int, Fraction)) for x in values):
        scale = lcm(*(x.denominator for x in values))
        return scale, [x.numerator * (scale // x.denominator) for x in values]
    scale = lcm(*(x.denominator for x in values if isinstance(x, Fraction)))
    D = reduce(poly_lcm, (x.den for x in values if isinstance(x, RatFun)), Poly([scale]))
    zero = Poly()

    def cleared(x: Entry) -> Poly:
        if isinstance(x, RatFun):
            return x.num * (D // x.den)
        if isinstance(x, Poly):
            return x * D
        return D * x.numerator // x.denominator if x else zero

    return D, [cleared(x) for x in values]


def _bareiss(rows: List[List]) -> Tuple[List[int], int]:
    """Fraction-free Gauss–Jordan of ``rows`` over Z or Z[s], in place (see
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


def _primitive_rows(m: Sequence[Sequence[Entry]]) -> List[List[Union[int, Poly]]]:
    """The distinct canonical rows of ``m`` (see above), over Z or Z[s];
    zero rows are dropped."""
    distinct = {}
    for row in m:
        if set(map(type, row)) != {int}:
            row = clear_denominators(row)[1]
        lead = next(filter(None, row), None)
        if lead is None:
            continue
        if type(lead) is int:
            g = gcd(*row)
        else:
            g = gcd(*(c for x in row for c in x.coeffs))
            lead = lead.coeffs[-1]
        if lead < 0:
            g = -g
        distinct.setdefault(tuple(row) if g == 1 else tuple(x // g for x in row), None)
    return [list(row) for row in distinct]


def rank(rows: Sequence[Sequence[Entry]]) -> int:
    """The rank over Q, or over Q(s) when an entry is a RatFun or a Poly."""
    return len(_bareiss(_primitive_rows(rows))[0])


def nullspace_dim(rows: Sequence[Sequence[Entry]]) -> int:
    m = [list(r) for r in rows]
    if not m:
        return 0
    return len(m[0]) - rank(m)


def row_reduce_basis(vectors: Sequence[Sequence[Entry]]) -> List[List[Union[int, Poly]]]:
    """A basis of the span, each row canonical (see above).  Over Q it is
    the canonical integer basis: each row of the reduced row-echelon basis,
    scaled to a primitive integer vector with a positive pivot."""
    rows = _primitive_rows(vectors)
    pivots, _sign = _bareiss(rows)
    return _primitive_rows(rows[: len(pivots)])


def invert_field_matrix(m: List[List[Rational]]) -> List[List[Fraction]]:
    """Inverse over Q: adj(R) diag(lambda) / det(R), for the rows R of m each
    cleared by its lambda; raises on singular input."""
    cleared = [clear_denominators(row) for row in m]
    det, adj = int_matrix_det_adjugate([row for _scale, row in cleared])
    if not det:
        raise SingularMatrix("matrix is singular")
    return [[Fraction(x * scale, det) for x, (scale, _row) in zip(row, cleared)] for row in adj]


def int_matrix_det_adjugate(m: List[List[Entry]]) -> Tuple[Entry, Optional[List[List[Entry]]]]:
    """Determinant and adjugate (det * inverse) of a square matrix over Z or
    Z[s], from the Bareiss loop on [m | I]; a singular m gives det 0 and no
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
