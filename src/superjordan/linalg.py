"""Exact dense linear algebra over Fraction or RatFun entries.

Rank and nullspace over the rationals use fraction-free (Bareiss)
elimination; over the rational-function field elimination pivots on any
nonzero polynomial entry, preferring low-degree pivots so that divisions
never involve polynomials that vanish identically.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence, Union

from .ratfun import RatFun

Entry = Union[Fraction, RatFun]


def _is_ratfun_matrix(rows: List[List[Entry]]) -> bool:
    for row in rows:
        for x in row:
            if isinstance(x, RatFun):
                return True
    return False


def rank(rows: Sequence[Sequence[Entry]]) -> int:
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    if _is_ratfun_matrix(m):
        return _rank_field(m)
    return _rank_bareiss(m)


def nullspace_dim(rows: Sequence[Sequence[Entry]]) -> int:
    m = [list(r) for r in rows]
    if not m:
        return 0
    return len(m[0]) - rank(m)


def _rank_bareiss(m: List[List[Entry]]) -> int:
    """Fraction-free rank: scale rows to integers, then Bareiss elimination."""
    rows = []
    for row in m:
        den = 1
        fr = [Fraction(x) for x in row]
        for x in fr:
            den = den * x.denominator // gcd(den, x.denominator)
        rows.append([int(x * den) for x in fr])
    n, w = len(rows), len(rows[0])
    r = 0
    prev = 1
    for c in range(w):
        piv = None
        for i in range(r, n):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, n):
            xi = rows[i][c]
            for j in range(c, w):
                rows[i][j] = (rows[i][j] * pv - xi * rows[r][j]) // prev
        prev = pv
        r += 1
        if r == n:
            break
    return r


def _pivot_weight(x: Entry):
    if isinstance(x, RatFun):
        return x.num.degree() + x.den.degree()
    return 0


def _rank_field(m: List[List[Entry]]) -> int:
    """Generic field elimination with full pivoting on the lightest nonzero entry."""
    n, w = len(m), len(m[0])
    m = [[_as_rf(x) for x in row] for row in m]
    r = 0
    row_used = [False] * n
    col_used = [False] * w
    while True:
        best = None
        for i in range(n):
            if row_used[i]:
                continue
            for j in range(w):
                if col_used[j] or m[i][j].is_zero():
                    continue
                wgt = _pivot_weight(m[i][j])
                if best is None or wgt < best[0]:
                    best = (wgt, i, j)
        if best is None:
            return r
        _, pi, pj = best
        row_used[pi] = True
        col_used[pj] = True
        piv = m[pi][pj]
        for i in range(n):
            if row_used[i] or m[i][pj].is_zero():
                continue
            factor = m[i][pj] / piv
            for j in range(w):
                if not m[pi][j].is_zero():
                    m[i][j] = m[i][j] - factor * m[pi][j]
        r += 1


def _as_rf(x: Entry) -> RatFun:
    if isinstance(x, RatFun):
        return x
    return RatFun.const(x)


def row_reduce_basis(vectors: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Reduced row-echelon basis of the span (over Fraction)."""
    m = [[Fraction(x) for x in v] for v in vectors]
    if not m:
        return []
    w = len(m[0])
    basis: List[List[Fraction]] = []
    pivots: List[int] = []
    for vec in m:
        v = list(vec)
        for b, p in zip(basis, pivots):
            if v[p] != 0:
                c = v[p]
                for j in range(w):
                    v[j] -= c * b[j]
        lead = next((j for j in range(w) if v[j] != 0), None)
        if lead is None:
            continue
        c = v[lead]
        v = [x / c for x in v]
        for b, p in zip(basis, pivots):
            if b[lead] != 0:
                cb = b[lead]
                for j in range(w):
                    b[j] -= cb * v[j]
        basis.append(v)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order]


def invert_field_matrix(m: List[List[RatFun]]) -> List[List[RatFun]]:
    """Inverse over the rational-function field; raises on singular input."""
    n = len(m)
    aug = [[_as_rf(m[i][j]) for j in range(n)] + [RatFun.const(1 if k == i else 0) for k in range(n)] for i in range(n)]
    for col in range(n):
        piv_row = None
        best = None
        for i in range(col, n):
            if not aug[i][col].is_zero():
                wgt = _pivot_weight(aug[i][col])
                if best is None or wgt < best:
                    best, piv_row = wgt, i
        if piv_row is None:
            raise SingularMatrix("matrix is singular over the function field")
        aug[col], aug[piv_row] = aug[piv_row], aug[col]
        piv = aug[col][col]
        inv = piv.inverse()
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and not aug[i][col].is_zero():
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def invert_fraction_matrix(m: List[List[Fraction]]) -> List[List[Fraction]]:
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(1 if k == i else 0) for k in range(n)] for i in range(n)]
    for col in range(n):
        piv_row = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv_row is None:
            raise SingularMatrix("matrix is singular")
        aug[col], aug[piv_row] = aug[piv_row], aug[col]
        piv = aug[col][col]
        aug[col] = [x / piv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


class SingularMatrix(ValueError):
    pass


def int_matrix_det_adjugate(m: List[List[int]]) -> tuple[int, List[List[int]]]:
    """Determinant and adjugate of an integer matrix (det * inv = adjugate)."""
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
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _int_det(minor)
        total += term if j % 2 == 0 else -term
    return total
