"""Jordan-superalgebra data model: structure tensors, the graded identity,
power filtration, basis changes, and the line-oriented table format.

A superalgebra of type (m, n) is stored as four structure tensors over an
exact scalar ring (Fraction, or RatFun for one-parameter families):

    alpha[i][j][k] : e_i e_j -> sum alpha e_k     (m x m x m)
    beta[i][p][q]  : e_i f_p -> sum beta f_q      (m x n x n)
    gamma[p][i][q] : f_p e_i -> sum gamma f_q     (n x m x n)
    delta[p][q][k] : f_p f_q -> sum delta e_k     (n x n x m)

The four blocks are storage only.  Every other module builds and reads one
flat (m+n)^3 table in label order together with the parity vector
[0]*m + [1]*n (``graded_table``): ``flatten`` is the one reader of the
blocks and ``unflatten`` the one writer.  ``load``, ``direct_sum``, the
supercommutativity check and the kernels (the identity check, basis
changes, superderivations, the power filtration, block decomposition) all
work on the flat table.

An algebra keeps its flat table of each basis order it is read in
(``SuperAlgebra.table``) as a ``Table``: nested tuples, built on first use
and stored in the algebra's ``__dict__``, as its hash is.  The blocks are
read once, in label order; any other order (a certificate's basis, the
replay's ``default_basis_order``) permutes that table.  A Table keeps its
cleared form and its constants grouped by product too, each built once
when a kernel first reads it, so every sweep that reads one table of one
algebra shares them.  A kernel given a raw table (``power_spans``,
``invariants.table_is_associative``, the ``ungraded_*`` invariants, the
certificate tests) reads it through ``as_table``, which builds those forms
once per call.  A Table lives and dies with its algebra; an algebra built
from it (a basis change, a perturbation, a renamed copy) reads its own.

A vector is its tuple of coordinates in label order, as ``product_row``
takes it.  Two block readers stay on purpose, as references independent
of the flat table: ``SuperAlgebra.multiply``, behind ``jordan_defect``,
which the identity check keeps on ``IdentityReport.defect`` for a failing
quadruple (its row prints only ``J(a,b,c,d) != 0``) and the tests use as
its oracle; and ``envelope._Envelope``, the Grassmann-envelope
cross-check, which reads the blocks once when it is built and clears them
itself.

Every other numeric kernel reads the table as ``cleared_table``, the one
clearing site, returns it (kept as ``Table.cleared``), with its scale
(chosen by ``linalg.clear_denominators``): lambda, the lcm of the
denominators, and Python ints when every constant is rational; D, the lcm
of the denominator polynomials, and Z[s] (Poly), whose sums and products
need no gcd, when one is a RatFun.  This is exact: x -> x/lambda
is an isomorphism from (A, mu) to (A, lambda mu).  The identities are
homogeneous (the Jordan defect of ``check_super_jordan`` is cubic, and
``invariants.table_is_associative`` quadratic), so every zero and every
first failing quadruple stays.  The superderivation system
(``invariants._map_equations``) is linear, so lambda != 0 keeps its rank;
lambda (U W) spans U W, so the powers J^r (``power_spans``) stay.  A Burde
ratio has degree 0, so lambda cancels.  The certificate conditions are
homogeneous, and the witness replay divides by the scale.

One product step, ``product_row`` (u v over the constants grouped by
product, ``product_groups``, kept as ``Table.groups``), serves every
kernel that multiplies coordinate vectors: ``change_basis`` and the
certificate trial plan, ``power_spans``, ``invariants.table_is_associative``,
and the Burde traces and the powers of L(x) under them
(``invariants._burde_values``).
``check_super_jordan`` keeps its own sparse products: it computes each
pair and triple product once and reads it many times in its loop, which
evaluates the defect once per symmetry orbit of basis quadruples (80 of
the 256 at d = 4; its docstring gives the proof).  The 149 entries take
about 0.04 s, against 0.08 s for the full d^4 loop on the same sparse
products and about 2.5 times that through ``product_row`` (best of 5, on
a 2-core host).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .linalg import clear_denominators, invert_field_matrix, row_reduce_basis
from .ratfun import Poly, RatFun

Scalar = Union[Fraction, RatFun]
Vector = Tuple[Scalar, ...]  # coordinates in label order, even vectors first


class GradingViolation(ValueError):
    """A listed product lands in the wrong graded component."""


class DuplicateProduct(ValueError):
    """The same product is listed twice with conflicting values."""


class SquareOfOdd(ValueError):
    """An explicit nonzero square of an odd basis vector."""


class NonHomogeneousArgument(ValueError):
    """jordan_defect needs purely even or purely odd arguments."""


def _freeze(t) -> tuple:
    return tuple(tuple(tuple(r) for r in plane) for plane in t)


@dataclass(frozen=True)
class SuperAlgebra:
    m: int
    n: int
    alpha: tuple
    beta: tuple
    gamma: tuple
    delta: tuple
    # two algebras with equal constants are equal whatever their names
    name: str = field(default="", compare=False)

    @cached_property
    def _hash(self) -> int:
        return hash((self.m, self.n, self.alpha, self.beta, self.gamma, self.delta))

    def __hash__(self) -> int:
        """The hash of the constants, computed once: an algebra is frozen."""
        return self._hash

    @cached_property
    def _tables(self) -> Dict[Tuple[int, ...], "Table"]:
        """The Table of each basis order read so far, keyed by the label
        positions of the order."""
        return {}

    def table(self, basis_order: Optional[Sequence[str]] = None) -> "Table":
        """The flat table in a basis order (label order by default), built
        on first use and kept with the algebra, with its cleared form and
        groups once a kernel reads them.  Only the label-order table is read
        from the blocks (``flatten``); any other order permutes it."""
        pos = tuple(range(self.dim)) if basis_order is None else _positions(self, basis_order)
        table = self._tables.get(pos)
        if table is None:
            if pos == tuple(range(self.dim)):
                table = flatten(self, self.labels())
            else:
                table = _permuted(self.table(), pos)
            self._tables[pos] = table
        return table

    # ---- basis bookkeeping -------------------------------------------------
    @property
    def dim(self) -> int:
        return self.m + self.n

    def labels(self) -> List[str]:
        return list(basis_labels(self.m, self.n)[0])

    def basis_element(self, label: str) -> Vector:
        """The coordinate vector of a basis label, in label order."""
        pos = label_position(label, self.m, self.n)
        return tuple(Fraction(int(k == pos)) for k in range(self.dim))

    # ---- multiplication ----------------------------------------------------
    def multiply(self, x: Vector, y: Vector) -> Vector:
        """x y for coordinate vectors in label order, read from the four
        blocks: the parities of the positions a and b pick the block of
        x_a y_b and the positions its row lands on."""
        m = self.m
        w = [Fraction(0)] * self.dim
        for a, xa in enumerate(x):
            if not xa:
                continue
            for b, yb in enumerate(y):
                if not yb:
                    continue
                if a < m:
                    row, shift = (self.alpha[a][b], 0) if b < m else (self.beta[a][b - m], m)
                else:
                    row, shift = (self.gamma[a - m][b], m) if b < m else (self.delta[a - m][b - m], 0)
                c = xa * yb
                for k, r in enumerate(row):
                    if r:
                        w[shift + k] = w[shift + k] + c * r
        return tuple(w)


def label_parity(label: str) -> int:
    """0 for an even basis vector (e, e1, ...), 1 for an odd one (f, f1, ...).
    A basis change is a superalgebra one, i.e. lies in the structure group
    GL_m x GL_n, iff it never mixes labels of different parity."""
    return 0 if label.startswith("e") else 1


@lru_cache(maxsize=None)
def basis_labels(m: int, n: int) -> Tuple[Tuple[str, ...], Dict[str, int]]:
    """The basis labels of type (m, n) in label order (e or e1..em, then f
    or f1..fn), and the flat position of each label in that order; e and e1
    name the same vector, and so do f and f1.  The dict is shared: read it
    only."""
    ev = ("e",) if m == 1 else tuple(f"e{i+1}" for i in range(m))
    od = ("f",) if n == 1 else tuple(f"f{i+1}" for i in range(n))
    position = {lab: i for i, lab in enumerate(ev + od)}
    if m:
        position.setdefault("e", 0)
        position.setdefault("e1", 0)
    if n:
        position.setdefault("f", m)
        position.setdefault("f1", m)
    return ev + od, position


def label_position(label: str, m: int, n: int) -> int:
    """The flat position of a basis label of type (m, n) in label order."""
    try:
        return basis_labels(m, n)[1][label]
    except KeyError:
        raise KeyError(f"unknown basis vector {label!r} for type ({m},{n})") from None


def default_basis_order(m: int, n: int) -> List[str]:
    """Odd vectors first for type (1,3), even first otherwise."""
    labels = list(basis_labels(m, n)[0])
    return labels[m:] + labels[:m] if (m, n) == (1, 3) else labels


# ---------------------------------------------------------------------------
# Loader
# ---------------------------------------------------------------------------

ProductTerm = Tuple[Scalar, str]
ProductSpec = Tuple[str, str, Sequence[ProductTerm]]


Products = Dict[Tuple[int, int], Dict[int, Scalar]]


def add_product(
    products: Products, mn: Tuple[int, int], left: str, right: str, terms: Sequence[ProductTerm]
) -> None:
    """Enter the basis product ``left*right = terms`` of a type ``mn`` table,
    and the mirrored product that supercommutativity fixes, into
    ``products``: the products entered so far, by flat positions (a, b) ->
    {k: nonzero constant}.  A product entered again must agree with the
    value already there."""
    m, n = mn

    def position(label: str) -> Tuple[int, int]:
        """(parity, index in label order) of a basis label."""
        pos = label_position(label, m, n)
        return int(pos >= m), pos

    lp, a = position(left)
    rp, b = position(right)
    result_parity = (lp + rp) % 2
    value: Dict[int, Scalar] = {}
    for coeff, res in terms:
        tp, k = position(res)
        if tp != result_parity:
            raise GradingViolation(
                f"{left}*{right} is {'odd' if result_parity else 'even'} "
                f"but result names {res}"
            )
        value[k] = value.get(k, Fraction(0)) + coeff
    value = {k: v for k, v in value.items() if v}
    if lp == 1 and rp == 1 and a == b and value:
        raise SquareOfOdd(f"nonzero square {left}*{right}")

    mirror_sign = -1 if (lp == 1 and rp == 1) else 1
    mirror = {k: mirror_sign * v for k, v in value.items()}
    for key, v2 in (((a, b), value), ((b, a), mirror)):
        if products.setdefault(key, v2) != v2:
            raise DuplicateProduct(f"conflicting values for {left}*{right}")


def table_algebra(products: Products, mn: Tuple[int, int], name: str = "") -> SuperAlgebra:
    """The SuperAlgebra whose nonzero constants are ``products``."""
    m, n = mn
    d = m + n
    table = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for (a, b), value in products.items():
        for k, v in value.items():
            table[a][b][k] = v
    return unflatten(table, m, n, name=name)


def load(products: Sequence[ProductSpec], mn: Tuple[int, int], name: str = "") -> SuperAlgebra:
    """Build a SuperAlgebra from a list of basis products (``add_product``).

    Each listed product fixes the mirrored product by supercommutativity;
    listing both orders is allowed only when consistent.
    """
    entered: Products = {}
    for left, right, terms in products:
        add_product(entered, mn, left, right, terms)
    return table_algebra(entered, mn, name=name)


# ---------------------------------------------------------------------------
# The graded Jordan identity
# ---------------------------------------------------------------------------


def _sign(exp: int) -> int:
    return -1 if exp % 2 else 1


def _parity(J: SuperAlgebra, v: Vector) -> int:
    """0 for an even vector, 1 for an odd one; raises on a mixed one."""
    has_even, has_odd = any(v[: J.m]), any(v[J.m :])
    if has_even and has_odd:
        raise NonHomogeneousArgument(f"mixed-parity vector {v}")
    return int(has_odd)


def jordan_defect(J: SuperAlgebra, x: Vector, y: Vector, z: Vector, t: Vector) -> Vector:
    """Defect of the four-variable graded identity on homogeneous vectors.

    Vanishing on every basis quadruple is equivalent (by multilinearity over
    homogeneous arguments) to the graded Jordan identity.  On a
    supercommutative J the defect is supersymmetric in x, y and t:

        J(y, x, z, t) = (-1)^{|x||y|} J(x, y, z, t)
        J(x, t, z, y) = (-1)^{|y||t| + |y||z| + |z||t|} J(x, y, z, t)

    Each swap maps the six terms onto the six terms, once the products are
    reordered by supercommutativity.  ``check_super_jordan`` relies on both
    rules; this function evaluates any quadruple as given, so it stays the
    independent reference.
    """
    px, py, pz, pt = (_parity(J, v) for v in (x, y, z, t))
    mul = J.multiply
    terms = (
        (1, mul(mul(mul(x, y), z), t)),
        (_sign(py * pz + py * pt + pz * pt), mul(mul(mul(x, t), z), y)),
        (_sign(px * py + px * pz + px * pt + pz * pt), mul(mul(mul(y, t), z), x)),
        (-1, mul(mul(x, y), mul(z, t))),
        (-_sign(pt * (py + pz)), mul(mul(x, t), mul(y, z))),
        (-_sign(py * pz), mul(mul(x, z), mul(y, t))),
    )
    return tuple(sum((sign * w[k] for sign, w in terms), Fraction(0)) for k in range(J.dim))


@dataclass(frozen=True)
class IdentityReport:
    ok: bool
    supercommutative: bool
    violation: Optional[Tuple[str, str, str, str]] = None
    defect: Optional[Vector] = None
    detail: str = ""

    def __bool__(self):
        return self.ok


def check_super_jordan(J: SuperAlgebra) -> IdentityReport:
    """Supercommutativity plus defect vanishing on all basis quadruples.

    The six terms of the defect are summed exactly, in ints or over Z[s],
    on the table times its scale (``cleared_table``): the defect is cubic
    in the constants, so it vanishes where the unscaled one does.  They are summed
    from the pair products e_a e_b and the triple products (e_a e_b) e_c,
    both computed once per call.  The first failing quadruple in label order
    is reported with its ``jordan_defect`` on the unscaled J.

    Only the quadruples (a, b, c, d) with a <= b <= d are evaluated, in label
    order: d * C(d+2, 3) of the d^4, 80 of 256 at d = 4.  This is exact.  The
    loop runs only on a supercommutative table, where the two sign rules of
    ``jordan_defect`` hold: swapping x with y, or y with t, multiplies the
    defect by a sign.  The two swaps generate every permutation of the
    positions of x, y and t, so the defect vanishes on all of an orbit or on
    none of it.  Sorting the x, y, t positions of a failing quadruple q gives
    a failing q' <= q in label order, so the first failing quadruple is
    sorted and the reduced loop meets it first: the report is the one the
    full loop gives.
    """
    labels = J.labels()
    dim = len(labels)
    table, par = graded_table(J)
    sviol = _supercommutativity_violations(table, par, labels)
    if sviol:
        return IdentityReport(False, False, detail="; ".join(sviol[:3]))
    # T[a][b] = lambda e_a e_b as sparse (k, c) pairs, indices in label order
    T = [[[(k, c) for k, c in enumerate(row) if c] for row in plane] for plane in table.cleared[1]]
    unit = [((a, 1),) for a in range(dim)]
    # P[a][b][c] = (e_a e_b) e_c, read only with a <= b
    P = [
        [[_sparse_product(T, T[a][b], unit[c]) for c in range(dim)] if a <= b else None for b in range(dim)]
        for a in range(dim)
    ]
    for a in range(dim):
        for b in range(a, dim):
            for c in range(dim):
                for d in range(b, dim):
                    px, py, pz, pt = par[a], par[b], par[c], par[d]
                    s2 = _sign(py * pz + py * pt + pz * pt)
                    s3 = _sign(px * py + px * pz + px * pt + pz * pt)
                    acc: Dict[int, Scalar] = {}
                    _add_product(acc, T, P[a][b][c], unit[d], 1)
                    _add_product(acc, T, P[a][d][c], unit[b], s2)
                    _add_product(acc, T, P[b][d][c], unit[a], s3)
                    _add_product(acc, T, T[a][b], T[c][d], -1)
                    _add_product(acc, T, T[a][d], T[b][c], -_sign(pt * (py + pz)))
                    _add_product(acc, T, T[a][c], T[b][d], -_sign(py * pz))
                    if not any(acc.values()):
                        continue
                    quad = (labels[a], labels[b], labels[c], labels[d])
                    return IdentityReport(
                        False,
                        True,
                        violation=quad,
                        defect=jordan_defect(J, *(J.basis_element(lab) for lab in quad)),
                        detail=f"J({','.join(quad)}) != 0",
                    )
    return IdentityReport(True, True)


def _supercommutativity_violations(table, par: Sequence[int], labels: Sequence[str]) -> List[str]:
    """The nonzero constants c[a,b,k] of a flat table that break
    x_a x_b = (-1)^{|a||b|} x_b x_a; an odd square must vanish.  A zero
    constant with a nonzero mirror is found at its mirror."""
    out = []
    for a, b, k, c in nonzero_constants(table):
        odd = par[a] and par[b]
        if table[b][a][k] != (-c if odd else c):
            sign = "-" if odd else ""
            out.append(f"{labels[a]}*{labels[b]} != {sign}{labels[b]}*{labels[a]} at {labels[k]}")
    return out


def _add_product(acc: Dict[int, Scalar], T, u, v, sign: int) -> None:
    """acc += sign * u v for sparse vectors u, v."""
    for k, cu in u:
        for l, cv in v:
            for r, t in T[k][l]:
                x = cu * cv * t
                acc[r] = acc.get(r, 0) + x if sign > 0 else acc.get(r, 0) - x


def _sparse_product(T, u, v) -> Tuple[Tuple[int, Scalar], ...]:
    """u v as sparse (k, c) pairs, zero coefficients dropped."""
    acc: Dict[int, Scalar] = {}
    _add_product(acc, T, u, v, 1)
    return tuple((k, c) for k, c in acc.items() if c)


# ---------------------------------------------------------------------------
# Flattening to an ungraded table
# ---------------------------------------------------------------------------


class Table(tuple):
    """A flat d x d x d table of structure constants as nested tuples, with
    the forms the kernels read, each built on first use and kept with it:
    ``cleared`` is ``cleared_table`` of it, ``groups`` its
    ``product_groups``.  The kernels read ``cleared`` and the groups of the
    cleared table; a basis change over Fraction (``apply_graded_change``)
    reads the groups of the table itself."""

    @cached_property
    def cleared(self) -> Tuple[Union[int, Poly], "Table"]:
        return cleared_table(self)

    @cached_property
    def groups(self) -> Tuple[Tuple[int, int, tuple], ...]:
        return product_groups(self)


def as_table(table) -> Table:
    """``table`` itself if it is a Table, else a new Table of its constants:
    a kernel given a raw table builds the forms it reads once per call."""
    return table if isinstance(table, Table) else Table(_freeze(table))


def _positions(J: SuperAlgebra, basis_order: Sequence[str]) -> Tuple[int, ...]:
    """The label positions of a basis order, which must list each basis
    vector of J once."""
    pos = tuple(label_position(lab, J.m, J.n) for lab in basis_order)
    if sorted(pos) != list(range(J.dim)):
        raise ValueError(f"basis order {list(basis_order)} is not a basis of type ({J.m},{J.n})")
    return pos


def _permuted(table, pos: Sequence[int]) -> Table:
    """The table in the basis x_pos[0], x_pos[1], ...:
    T'[a][b][k] = T[pos[a]][pos[b]][pos[k]]."""
    return Table(tuple(tuple(tuple(table[a][b][k] for k in pos) for b in pos) for a in pos))


def flatten(J: SuperAlgebra, basis_order: Optional[Sequence[str]] = None) -> Table:
    """Full (m+n)^3 structure tensor in the given basis ordering (default
    ``default_basis_order``), read from the blocks into a new Table; the
    kernels read the one ``SuperAlgebra.table`` keeps per order."""
    pos = _positions(J, basis_order or default_basis_order(J.m, J.n))
    m, zero = J.m, Fraction(0)
    pad_even, pad_odd = (zero,) * m, (zero,) * J.n

    def row(a: int, b: int) -> tuple:
        """x_a x_b in label order: its block row, padded with zeros."""
        if a < m:
            return (*J.alpha[a][b], *pad_odd) if b < m else (*pad_even, *J.beta[a][b - m])
        return (*pad_even, *J.gamma[a - m][b]) if b < m else (*J.delta[a - m][b - m], *pad_odd)

    d = J.dim
    table = Table(tuple(tuple(c or zero for c in row(a, b)) for b in range(d)) for a in range(d))
    return table if pos == tuple(range(d)) else _permuted(table, pos)


def graded_table(J: SuperAlgebra) -> Tuple[Table, List[int]]:
    """The flat table in label order (even vectors first), as J keeps it
    (``SuperAlgebra.table``), and the parity of each of its basis vectors:
    the one input of the kernels."""
    return J.table(), [0] * J.m + [1] * J.n


def unflatten(table, m: int, n: int, name: str = "") -> SuperAlgebra:
    """The inverse of ``graded_table``: the four blocks of a flat table whose
    first m basis vectors are even and last n odd.  Parity-mixing constants
    are dropped; a graded table has none."""
    ev, od = range(m), range(m, m + n)

    def block(A, B, C):
        return tuple(tuple(tuple(table[a][b][c] for c in C) for b in B) for a in A)

    return SuperAlgebra(
        m, n, block(ev, ev, ev), block(ev, od, od), block(od, ev, od), block(od, od, ev), name=name
    )


def cleared_table(table) -> Tuple[Union[int, Poly], Table]:
    """(scale, a flat d x d x d table times its scale), the scale chosen by
    ``clear_denominators``: lambda and ints when every constant is rational,
    D and Z[s] values (Poly) when one is a RatFun."""
    d = len(table)
    scale, flat = clear_denominators([c for plane in table for row in plane for c in row])
    rows = [tuple(flat[i : i + d]) for i in range(0, d * d * d, d)]
    return scale, Table(tuple(rows[a * d : (a + 1) * d]) for a in range(d))


def nonzero_constants(table) -> List[Tuple[int, int, int, Scalar]]:
    """The nonzero constants (a, b, k, c[a,b,k]) of a flat d x d x d table."""
    d = len(table)
    return [
        (a, b, k, table[a][b][k])
        for a in range(d)
        for b in range(d)
        for k in range(d)
        if table[a][b][k]
    ]


def direct_sum(A: SuperAlgebra, B: SuperAlgebra, name: str = "") -> SuperAlgebra:
    """A + B with basis (even of A, even of B, odd of A, odd of B)."""
    m, n = A.m + B.m, A.n + B.n
    d = m + n
    table = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for J, eo, oo in ((A, 0, 0), (B, A.m, A.n)):
        pos = [eo + i for i in range(J.m)] + [m + oo + p for p in range(J.n)]
        for a, b, k, c in nonzero_constants(graded_table(J)[0]):
            table[pos[a]][pos[b]][pos[k]] = c
    return unflatten(table, m, n, name=name)


# ---------------------------------------------------------------------------
# Basis changes and the power filtration
# ---------------------------------------------------------------------------


def product_groups(table) -> Tuple[Tuple[int, int, tuple], ...]:
    """The nonzero constants of a flat table (``nonzero_constants``) grouped
    by product: one (a, b, ((k, c[a,b,k]), ...)) per product x_a x_b that is
    not zero."""
    groups: Dict[Tuple[int, int], list] = {}
    for a, b, k, c in nonzero_constants(table):
        groups.setdefault((a, b), []).append((k, c))
    return tuple((a, b, tuple(kc)) for (a, b), kc in groups.items())


def product_row(groups, u, v, zero) -> List[Scalar]:
    """The coordinates of u v, for coordinate vectors u and v of the table
    whose constants are ``groups`` (``product_groups``); ``zero`` is the
    zero of the scalars.  The one product step of the basis changes (u and
    v rows of P, y_a y_b in x-coordinates), the powers J^r, associativity
    and the Burde traces (the rows of L(x) transposed and of its powers)."""
    w = [zero] * len(u)
    for a, b, kc in groups:
        x = u[a]
        if x:
            f = x * v[b]
            if f:
                for k, c in kc:
                    w[k] = w[k] + f * c
    return w


def change_basis(table, P, Q, zero) -> List[List[List[Scalar]]]:
    """Constants of a flat table in the basis y_a = sum_c P[a][c] x_c, scaled
    by s where P Q = s I: Q = P^-1 gives the constants themselves, Q = adj(P)
    gives them times det(P) without a division (over Z, or Z[s]).

    ``zero`` is the zero of the scalars (0, Fraction(0), the zero Poly or the
    zero RatFun).  The scalars may be int, Fraction, Poly or RatFun: zeros
    are skipped by their truth value.
    """
    groups = as_table(table).groups
    d = len(table)
    moved = []
    for pa in P:
        plane = []
        for pb in P:
            live = [(k, x) for k, x in enumerate(product_row(groups, pa, pb, zero)) if x]
            plane.append([sum((x * Q[k][l] for k, x in live if Q[k][l]), zero) for l in range(d)])
        moved.append(plane)
    return moved


def apply_graded_change(
    J: SuperAlgebra, p_even: Sequence[Sequence[Fraction]], p_odd: Sequence[Sequence[Fraction]]
) -> SuperAlgebra:
    """Structure constants after the graded basis change E_i = sum P0[i][j] e_j,
    F_p = sum P1[p][q] f_q (matrices over Fraction, must be invertible)."""
    m, n = J.m, J.n
    P = [[Fraction(x) for x in row] + [Fraction(0)] * n for row in p_even] + [
        [Fraction(0)] * m + [Fraction(x) for x in row] for row in p_odd
    ]
    table, _par = graded_table(J)
    moved = change_basis(table, P, invert_field_matrix(P), Fraction(0))
    return unflatten(moved, m, n, name=J.name)


def power_spans(table) -> List[List[List]]:
    """Bases of the powers T^1, ..., T^d of a flat d-dimensional table,
    where T^1 is the whole space and T^r = sum_{i<r} T^i T^(r-i): each basis
    is the one of ``row_reduce_basis``.  The products are taken in ints, or
    over Z[s], on the table times lambda (``cleared_table``), whose powers
    are those of the table: lambda (U W) spans U W."""
    table = as_table(table).cleared[1]
    groups = table.groups
    d = len(table)
    powers = [[[int(i == j) for j in range(d)] for i in range(d)]]
    for r in range(2, d + 1):
        vecs = []
        for i in range(1, r):
            products = (product_row(groups, u, w, 0) for u in powers[i - 1] for w in powers[r - i - 1])
            vecs.extend(row_reduce_basis([v for v in products if any(v)]))
        powers.append(row_reduce_basis(vecs))
    return powers


@lru_cache(maxsize=None)
def power_filtration(J: SuperAlgebra) -> Tuple[Tuple[int, int], ...]:
    """Graded dimensions of J^r for r = 1..m+n.

    J^r is a graded subspace, so its basis in the flat table's coordinates
    (a multiple of the reduced row-echelon one, row by row) is homogeneous:
    each basis vector has the parity of its pivot coordinate.  Cached by
    table, as the fingerprint and the orbit dimension are."""
    table, par = graded_table(J)
    dims = []
    for basis in power_spans(table):
        odd = sum(par[next(j for j, x in enumerate(v) if x)] for v in basis)
        dims.append((len(basis) - odd, odd))
    return tuple(dims)
