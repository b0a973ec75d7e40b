from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superjordan.linalg import (
    SingularMatrix,
    int_matrix_det_adjugate,
    invert_field_matrix,
    nullspace_dim,
    rank,
    row_reduce_basis,
)
from superjordan.ratfun import Poly, RatFun

from conftest import (
    cofactor_det,
    cofactor_det_adjugate,
    divided_by_pivots,
    reduce_over_ratfun,
    row_reduce_by_fractions,
)


def rank_by_minors(rows):
    """Brute-force rank via minor expansion; oracle for small matrices."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    n, w = len(m), len(m[0])
    for k in range(min(n, w), 0, -1):
        for ri in combinations(range(n), k):
            for ci in combinations(range(w), k):
                if cofactor_det([[m[i][j] for j in ci] for i in ri]):
                    return k
    return 0


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def deficient_matrices(draw):
    """Rows spanned by at most ``k`` drawn vectors, with zero rows mixed in,
    so that the rank is usually below both dimensions."""
    nrows = draw(st.integers(min_value=0, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=0, max_value=3))
    gens = draw(st.lists(st.lists(_fractions, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
    rows = []
    for _ in range(nrows):
        coeffs = draw(st.lists(_fractions, min_size=k, max_size=k))
        rows.append([sum((c * g[j] for c, g in zip(coeffs, gens)), Fraction(0)) for j in range(ncols)])
    return rows


@given(deficient_matrices())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_row_reduce_basis_matches_fraction_oracle(rows):
    basis = row_reduce_basis(rows)
    assert all(type(x) is int for row in basis for x in row)
    assert divided_by_pivots(basis) == row_reduce_by_fractions(rows)
    assert len(basis) == rank(rows) == rank_by_minors(rows)


@st.composite
def repeated_rows(draw):
    """Drawn rows, each repeated with nonzero int and Fraction multiples in
    a shuffled order, with zero rows mixed in."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    entries = st.one_of(st.integers(min_value=-3, max_value=3), _fractions)
    base = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=0, max_size=4))
    multiples = st.one_of(
        st.integers(min_value=-4, max_value=4).filter(bool), _fractions.filter(bool)
    )
    rows = []
    for row in base:
        rows.append(row)
        for c in draw(st.lists(multiples, max_size=3)):
            rows.append([c * x for x in row])
    rows += [[0] * ncols, [Fraction(0)] * ncols][: draw(st.integers(min_value=0, max_value=2))]
    return draw(st.permutations(rows))


@given(repeated_rows())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_duplicate_and_proportional_rows(rows):
    assert rank(rows) == rank_by_minors(rows)
    assert divided_by_pivots(row_reduce_basis(rows)) == row_reduce_by_fractions(rows)
    n = len(rows[0]) if rows else 0
    if len(rows) >= n:
        # a square matrix: the first n rows, invertible or not
        m = [[Fraction(x) for x in row] for row in rows[:n]]
        if rank_by_minors(m) < n:
            with pytest.raises(SingularMatrix):
                invert_field_matrix(m)
        else:
            inv = invert_field_matrix(m)
            assert all(
                sum(inv[i][k] * m[k][j] for k in range(n)) == (i == j)
                for i in range(n)
                for j in range(n)
            )


def test_row_reduce_basis_of_zero_rows():
    assert row_reduce_basis([]) == []
    assert row_reduce_basis([[0, 0, 0], [Fraction(0)] * 3]) == []
    assert row_reduce_basis([[0, 0], [0, 2], [0, 0], [1, 1]]) == [[1, 0], [0, 1]]


def test_rank_examples():
    ident = [[1, 0], [0, 1]]
    assert rank(ident) == 2
    assert nullspace_dim(ident) == 0
    zero = [[0, 0], [0, 0]]
    assert rank(zero) == 0
    assert nullspace_dim(zero) == 2
    assert rank([[1, 2], [2, 4]]) == 1
    assert nullspace_dim([[1, 2], [2, 4]]) == 1
    assert rank([[1, 1], [1, 1], [0, 0]]) == 1


def test_rank_of_fraction_rows():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rank(m) == 1
    assert nullspace_dim(m) == 1


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_rank_matches_minor_expansion(nrows, ncols, data):
    entries = data.draw(
        st.lists(
            st.lists(st.integers(min_value=-2, max_value=2), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    m = [[Fraction(x) for x in row] for row in entries]
    assert rank(m) == rank_by_minors(m)


def test_rank_over_ratfun():
    s = RatFun.var()
    one = RatFun.const(1)
    # rows proportional over the function field
    m = [[s, s * s], [one, s]]
    assert rank(m) == 1
    m2 = [[s, one], [one, s]]
    assert rank(m2) == 2


def test_invert_fraction_matrix():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = invert_field_matrix(m)
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]


def test_invert_fraction_matrix_rejects_singular():
    for m in ([[0]], [[1, 2], [2, 4]], [[1, 0, 1], [0, 1, 1], [1, 1, 2]], [[0, 0], [0, 1]]):
        with pytest.raises(SingularMatrix):
            invert_field_matrix([[Fraction(x) for x in row] for row in m])


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=80, deadline=None)
def test_invert_fraction_matrix_is_inverse(n, data):
    m = data.draw(st.lists(st.lists(_fractions, min_size=n, max_size=n), min_size=n, max_size=n))
    if rank_by_minors(m) < n:
        with pytest.raises(SingularMatrix):
            invert_field_matrix(m)
        return
    inv = invert_field_matrix(m)
    for i in range(n):
        for j in range(n):
            assert sum(m[i][k] * inv[k][j] for k in range(n)) == (i == j)


@st.composite
def polynomial_matrices(draw):
    """2-3 x 3 matrices of polynomials in s of degree <= 2; the last row is
    often a polynomial combination of the others, so the rank often drops."""
    nrows = draw(st.integers(min_value=2, max_value=3))

    def poly():
        coeffs = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3))
        return sum((RatFun.monomial(e, c) for e, c in enumerate(coeffs)), RatFun.const(0))

    rows = [[poly() for _ in range(3)] for _ in range(nrows)]
    if draw(st.booleans()):
        coeffs = [poly() for _ in rows[:-1]]
        rows[-1] = [sum((c * row[j] for c, row in zip(coeffs, rows)), RatFun.const(0)) for j in range(3)]
    return rows


@given(polynomial_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_over_ratfun_matches_minor_expansion(m):
    assert rank(m) == rank_by_minors(m)


def test_row_reduce_and_membership():
    basis = row_reduce_basis([[Fraction(1), Fraction(1), Fraction(0)], [Fraction(2), Fraction(2), Fraction(0)]])
    assert len(basis) == 1
    # membership: adding a vector of the span keeps the rank, any other raises it
    assert rank(basis + [[Fraction(3), Fraction(3), Fraction(0)]]) == 1
    assert rank(basis + [[Fraction(1), Fraction(0), Fraction(0)]]) == 2


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_det_adjugate_identity(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    g = data.draw(
        st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    det, adj = int_matrix_det_adjugate(g)
    if not det:
        assert adj is None
        return
    # g . adj = det * I
    for i in range(n):
        for j in range(n):
            acc = sum(g[i][k] * adj[k][j] for k in range(n))
            assert acc == (det if i == j else 0)


_small_polys = st.lists(st.integers(min_value=-2, max_value=2), max_size=3).map(Poly)


@st.composite
def square_matrices(draw, entries):
    """n x n matrices for n <= 5, often singular: a drawn row is sometimes
    a multiple of another."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(entries)
        m[i] = [c * x for x in m[j]]
    return m


def _assert_det_adjugate_match_cofactors(m):
    det, adj = int_matrix_det_adjugate(m)
    want_det, want_adj = cofactor_det_adjugate(m)
    zero = m[0][0] * 0  # written in the ring of m: the oracle gives the int 1 for n = 1
    assert det == zero + want_det
    if not want_det:
        assert adj is None
        return
    assert adj == [[zero + x for x in row] for row in want_adj]


@given(square_matrices(st.integers(min_value=-3, max_value=3)))
@settings(max_examples=150, deadline=None)
def test_det_adjugate_match_cofactors_over_the_integers(m):
    _assert_det_adjugate_match_cofactors(m)


@given(square_matrices(_small_polys))
@settings(max_examples=60, deadline=None)
def test_det_adjugate_match_cofactors_over_polynomials(m):
    _assert_det_adjugate_match_cofactors(m)


@given(
    st.one_of(
        polynomial_matrices(),
        square_matrices(_small_polys),
        square_matrices(_small_polys.map(lambda p: RatFun(p, Poly([1, 1])))),
    )
)
@settings(max_examples=80, deadline=None)
def test_rank_over_ratfun_matches_gauss_jordan_over_the_field(m):
    as_ratfun = [[RatFun(x) if isinstance(x, Poly) else x for x in row] for row in m]
    assert rank(m) == len(reduce_over_ratfun(as_ratfun)[1])


@given(st.one_of(polynomial_matrices(), square_matrices(_small_polys)))
@settings(max_examples=60, deadline=None)
def test_row_reduce_basis_over_polynomials(m):
    # each row is primitive in Z[s] with a positive leading coefficient, and
    # divided by its pivot it is the reduced row-echelon row over Q(s)
    basis = row_reduce_basis(m)
    for row in basis:
        coeffs = [c for x in row for c in x.coeffs]
        assert gcd(*coeffs) == 1 and next(filter(None, row)).coeffs[-1] > 0
    rows, pivots = reduce_over_ratfun([[RatFun(x) if isinstance(x, Poly) else x for x in row] for row in m])
    assert [[RatFun(x) / RatFun(row[p]) for x in row] for row, p in zip(basis, pivots)] == rows[: len(pivots)]
