import random
from fractions import Fraction
from math import gcd, inf

import pytest

from superjordan.algebra import (
    _supercommutativity_violations,
    graded_table,
    load,
    nonzero_constants,
    power_filtration,
)
from superjordan.catalog import Catalog
from superjordan.invariants import BurdeValue, algebra_fingerprint, orbit_dimension

# the invariants cached by table
CACHED_INVARIANTS = (algebra_fingerprint, orbit_dimension, power_filtration)


def clear_invariant_caches():
    for cached in CACHED_INVARIANTS:
        cached.cache_clear()


@pytest.fixture(autouse=True)
def cold_invariant_caches():
    """Every test starts with empty invariant caches, so that what it counts
    or spies on is computed in it, whatever ran before."""
    clear_invariant_caches()


@pytest.fixture(scope="session")
def catalog():
    return Catalog()


@pytest.fixture(scope="session")
def verified_witnesses(catalog):
    from superjordan.verify import verify_witnesses

    return verify_witnesses(catalog)


def perturb_entry(catalog, name, seed):
    """Add one random structure constant to a catalog entry (respecting the
    grading and supercommutativity), giving a usually-broken neighbor."""
    rng = random.Random(seed)
    entry = catalog.entry(name)
    J = catalog.lookup(name, 2) if entry.is_family else entry.algebra
    labels = J.labels()
    table, par = graded_table(J)
    parity = dict(zip(labels, par))
    ev, od = labels[: J.m], labels[J.m :]
    # each product once, x_a x_b with a <= b in label order; load mirrors it
    base = [
        (labels[a], labels[b], [(c, labels[k])])
        for a, b, k, c in nonzero_constants(table)
        if a <= b
    ]
    while True:
        a, b = rng.choice(labels), rng.choice(labels)
        pa, pb = parity[a], parity[b]
        if pa == 1 and pb == 1 and a == b:
            continue
        target = rng.choice(ev if (pa + pb) % 2 == 0 else od)
        coeff = Fraction(rng.choice((1, 2, -1)))
        merged = {}
        for left, right, terms in base + [(a, b, [(coeff, target)])]:
            merged.setdefault((left, right), [])
            merged[(left, right)] += list(terms)
        try:
            return load(
                [(l, r, ts) for (l, r), ts in merged.items()],
                (J.m, J.n),
                name=f"{name}~{seed}",
            )
        except Exception:
            continue


def reference_burde(J, i, j, trials=16, seed=0):
    """The per-pair Burde loop, the oracle of ``invariants._burde_values``:
    its own draw of x, y and dense Fraction sums on the unscaled table, in
    coordinates of the label-order table, as ``_burde_values`` draws them."""
    table, _par = graded_table(J)
    d = len(table)

    def dot(pairs):
        """The sum of u v over the pairs (u, v); a zero factor is skipped,
        which keeps the catalog-wide comparison quick."""
        return sum((u * v for u, v in pairs if u and v), Fraction(0))

    def left_mult(x):
        return [[dot((x[a], table[a][b][k]) for a in range(d)) for b in range(d)] for k in range(d)]

    def mat_mul(A, B):
        return [[dot((A[r][k], B[k][c]) for k in range(d)) for c in range(d)] for r in range(d)]

    def mat_pow(A, e):
        out = A
        for _ in range(e - 1):
            out = mat_mul(out, A)
        return out

    def trace(A):
        return sum((A[r][r] for r in range(d)), Fraction(0))

    rng = random.Random(seed)
    value, used = None, 0
    for _ in range(trials):
        x = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        y = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        lx, ly = mat_pow(left_mult(x), i), mat_pow(left_mult(y), j)
        num = trace(lx) * trace(ly)
        den = trace(mat_mul(lx, ly))
        if num == 0 or den == 0:
            continue
        used += 1
        v = num / den
        if value is None:
            value = v
        elif value != v:
            return BurdeValue(i, j, "not_constant", samples_used=used)
    if value is None:
        return BurdeValue(i, j, "not_defined", samples_used=0)
    return BurdeValue(i, j, "defined", value=value, samples_used=used)


def supercommutativity_violations(J):
    """The constants of J that break supercommutativity, as
    ``check_super_jordan`` names them."""
    table, par = graded_table(J)
    return _supercommutativity_violations(table, par, J.labels())


# The t -> 0 limit of a RatFun: the oracle of the replay over Z[s], which
# reads its limits from Poly orders instead.


class LimitUndefined(ArithmeticError):
    """A rational function diverges at s = 0."""


def valuation(f):
    """The order of a RatFun at s = 0; +inf for the zero function."""
    if not f:
        return inf
    return f.num.ord() - f.den.ord()


def limit_at_zero(f) -> Fraction:
    """The value of the power-series expansion at s = 0; raises if it diverges."""
    v = valuation(f)
    if v is inf or v > 0:
        return Fraction(0)
    if v < 0:
        raise LimitUndefined(f"valuation {v} < 0: {f!r}")
    return Fraction(f.num[f.num.ord()], f.den[f.den.ord()])


def try_limit_at_zero(f):
    """``limit_at_zero``, or None where it diverges."""
    if f and valuation(f) < 0:
        return None
    return limit_at_zero(f)


def row_reduce_by_fractions(vectors):
    """Reduced row-echelon basis by Fraction elimination, one vector at a
    time: the oracle of the fraction-free ``linalg`` routines."""
    m = [[Fraction(x) for x in v] for v in vectors]
    if not m:
        return []
    w = len(m[0])
    basis, pivots = [], []
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


def fraction_power_spans(table, r_max):
    """Reduced row-echelon bases of the powers T^1, ..., T^r_max, products
    taken in Fraction: the oracle of ``algebra.power_spans``, which stops at
    r = d, and the powers beyond."""
    d = len(table)

    def product_span(U, W):
        vecs = []
        for u in U:
            for w in W:
                out = [Fraction(0)] * d
                for a in range(d):
                    if not u[a]:  # a zero factor is skipped
                        continue
                    for b in range(d):
                        if not w[b]:
                            continue
                        c = u[a] * w[b]
                        for k, t in enumerate(table[a][b]):
                            if t:
                                out[k] += c * t
                if any(out):
                    vecs.append(out)
        return row_reduce_by_fractions(vecs)

    powers = [[[Fraction(int(i == j)) for j in range(d)] for i in range(d)]]
    for r in range(2, r_max + 1):
        vecs = []
        for i in range(1, r):
            vecs.extend(product_span(powers[i - 1], powers[r - i - 1]))
        powers.append(row_reduce_by_fractions(vecs))
    return powers


def divided_by_pivots(basis):
    """A canonical integer basis (``linalg.row_reduce_basis``) with each row
    divided by its pivot, after checking that the row is primitive with a
    positive pivot: the reduced row-echelon basis."""
    out = []
    for row in basis:
        pivot = next(x for x in row if x)
        assert pivot > 0 and gcd(*row) == 1, row
        out.append([Fraction(x, pivot) for x in row])
    return out


# Reference elimination over the rings of ``linalg``, without Bareiss: the
# oracles of its one fraction-free loop.


def cofactor_det(m):
    """det(m) by cofactor expansion along the first row, over any ring whose
    zero is falsy (int, Poly)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = m[0][0] - m[0][0]  # the zero of the entries' ring
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def cofactor_det_adjugate(m):
    """det(m) and adj(m), every entry of adj(m) a signed minor."""
    n = len(m)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = cofactor_det([row[:i] + row[i + 1 :] for k, row in enumerate(m) if k != j])
            adj[i][j] = c if (i + j) % 2 == 0 else -c
    return cofactor_det(m), adj


def reduce_over_ratfun(m):
    """Gauss–Jordan over Q(s) with a reduced RatFun at every step, the first
    entry of least degree (numerator plus denominator) as pivot: the rows,
    pivot rows first and scaled to pivot 1, and the pivot columns."""
    from superjordan.ratfun import RatFun

    rows = [[RatFun.const(0) + x for x in row] for row in m]
    n = len(rows)
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == n:
            break
        live = [i for i in range(r, n) if rows[i][c]]
        if not live:
            continue
        piv = min(live, key=lambda i: rows[i][c].num.degree() + rows[i][c].den.degree())
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _with_identity(m):
    n = len(m)
    return [list(row) + [int(k == i) for k in range(n)] for i, row in enumerate(m)]


def fraction_inverse(m):
    """m^-1 over Q, the right block of ``row_reduce_by_fractions`` on
    [m | I]: an inverse that shares no code with ``linalg``."""
    n = len(m)
    rows = row_reduce_by_fractions(_with_identity(m))
    assert len(rows) == n and all(rows[i][i] == 1 for i in range(n)), "singular matrix"
    return [row[n:] for row in rows]


def ratfun_inverse(m):
    """m^-1 over Q(s), the right block of ``reduce_over_ratfun`` on [m | I];
    raises ``linalg.SingularMatrix`` when m is singular."""
    from superjordan.linalg import SingularMatrix

    n = len(m)
    rows, pivots = reduce_over_ratfun(_with_identity(m))
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return [row[n:] for row in rows[:n]]
