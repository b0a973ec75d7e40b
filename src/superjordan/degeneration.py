"""Parametric witness replay: basis-change action on structure constants
and t -> 0 limits.

A witness gives the new basis as linear combinations of the source basis
with coefficients that are rational functions of the deformation
parameter t, possibly with fractional powers t^(p/q).  Fractional powers
are removed by the global ramification substitution t = s^N (N = lcm of
the exponent denominators, refused at load above MAX_EXPONENT), after which
everything lives in the ordinary rational-function field over s.
``parse_witness`` keeps N as ``Witness.ram``.  It reads each coefficient,
and the source parameter of a family source, at its line, in one walk with
t = s^N for the N of the lines so far; an exponent that N does not clear
raises N to the lcm and reads that text again.  The values read before are
then lifted to the final N: ``Witness.basis`` and ``Witness.param`` hold
RatFun values with t = s^N.

The replay itself runs over the polynomials Z[s].  ``linalg.clear_denominators``
clears each row of the basis matrix P by the lcm D_a of its denominators,
giving R, and ``algebra.cleared_table`` clears the source table by the lcm
of its own, D_T (an int lambda for a rational source).  det(R) and adj(R)
come from the Bareiss loop of ``linalg``, and one basis change with
Q = adj(R) diag(D) gives every moved constant as a polynomial over the one
denominator D_a D_b det(R) D_T of its product.  A rational function is
reduced only where a caller asks for one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Optional, Tuple

from .algebra import (
    SuperAlgebra,
    _freeze,
    basis_labels,
    change_basis,
    cleared_table,
    default_basis_order,
    flatten,
    label_parity,
)
from .linalg import SingularMatrix, clear_denominators, int_matrix_det_adjugate
from .ratfun import RF_ZERO, Poly, RatFun, ratfun_compose
from .tablefmt import (
    MAX_EXPONENT,
    ParseError,
    excerpt,
    read_arithmetic,
    read_lines,
    split_combination,
    unknown_line,
)


class WitnessError(ParseError):
    pass


class _Uncleared(WitnessError):
    """An exponent p/q that the ramification does not clear; ``den`` is q."""

    def __init__(self, message: str, den: int):
        super().__init__(message)
        self.den = den


# ---------------------------------------------------------------------------
# Coefficient expressions in t
# ---------------------------------------------------------------------------


def _s_exponent(node: ast.expr, exp: Fraction, ram: int) -> int:
    """The power of s that t^exp is, for t = s^ram."""
    if not (isinstance(node, ast.Name) and node.id == "t"):
        raise WitnessError(f"unknown name {excerpt(ast.unparse(node))}; coefficients are written in t")
    if (ram * exp.numerator) % exp.denominator:
        raise _Uncleared(f"ramification {ram} does not clear exponent {exp}", exp.denominator)
    return ram * exp.numerator // exp.denominator


def eval_t_expression(text: str, ram: int) -> RatFun:
    """Evaluate a coefficient expression in t with t = s^ram."""
    return read_arithmetic(
        text, lambda node, exp: RatFun.monomial(_s_exponent(node, exp, ram)), RatFun.const, WitnessError
    )


# ---------------------------------------------------------------------------
# Witness files
# ---------------------------------------------------------------------------


# How a witness basis relates to the printed one; the errata ledger explains
# every basis that is not "published".  All but "corrected" count as
# published rows.
STATUSES = (
    "published",  # as printed
    "published-rationalized",  # printed, rescaled to rational coefficients
    "published-graded",  # printed, with the terms that mix parities dropped
    "corrected",  # not the printed basis
)


@dataclass
class Witness:
    source: str
    target: str
    source_param: Optional[str] = None  # family parameter expression in t
    basis: List[Tuple[str, List[Tuple[RatFun, str]]]] = None  # (slot, [(coeff, src_label)])
    note: str = ""
    label: str = ""
    status: str = "published"  # one of STATUSES
    ram: int = 1  # N, the lcm of the exponent denominators: t = s^N clears them
    param: Optional[RatFun] = None  # source_param with t = s^ram
    path: str = "<string>"  # the file it was read from, named by errors after the parse

    @property
    def family_swept(self) -> bool:
        """True iff the source moves through its family with t: a source
        parameter that is not constant."""
        return self.param is not None and not self.param.is_constant()


def parse_witness(text: str, source_name: str = "<string>") -> Witness:
    wit = Witness(source=None, target=None, basis=[], path=source_name)
    param = None

    def read(expr: str) -> Tuple[RatFun, int]:
        """(``expr`` with t = s^N, N) for the N of the lines so far, read at
        its line so that an error (a division by zero) names it.  An
        exponent p/q that N does not clear raises N to lcm(N, q), and
        ``expr`` is read again.  An N above MAX_EXPONENT is refused, as the
        replay builds powers of s up to it."""
        while True:
            try:
                return eval_t_expression(expr, wit.ram), wit.ram
            except _Uncleared as exc:
                wit.ram = lcm(wit.ram, exc.den)
                if wit.ram > MAX_EXPONENT:
                    raise WitnessError(f"ramification {wit.ram} is above {MAX_EXPONENT}") from None

    def handle(key: str, val: str) -> None:
        nonlocal param
        if key == "basis:":
            slot, eq, rhs = val.partition("=")
            if not eq:
                raise WitnessError(f"a basis line is 'slot = combination', got {excerpt(val)}")
            wit.basis.append((slot.strip(), [(read(c), label) for c, label in split_combination(rhs)]))
        elif key == "source":
            wit.source, caret, expr = (part.strip() for part in val.partition("^"))
            if caret:
                wit.source_param, param = expr, read(expr)
        elif key in ("target", "note", "label"):
            setattr(wit, key, val)
        else:
            raise unknown_line(key, val)

    wit.status = read_lines(text, source_name, handle, "degeneration", STATUSES)
    if wit.source is None or wit.target is None:
        raise WitnessError(f"{source_name}: source and target are required")

    def lifted(value: Tuple[RatFun, int]) -> RatFun:  # from t = s^N' to t = s^wit.ram
        x, ram = value
        return x if ram == wit.ram else ratfun_compose(x, RatFun.monomial(wit.ram // ram))

    wit.basis = [(slot, [(lifted(v), label) for v, label in terms]) for slot, terms in wit.basis]
    wit.param = None if param is None else lifted(param)
    return wit


def parse_witness_file(path) -> Witness:
    with open(path, "r", encoding="utf-8") as fh:
        wit = parse_witness(fh.read(), source_name=str(path))
    if not wit.label:
        wit.label = str(path)
    return wit


# ---------------------------------------------------------------------------
# Basis-change action and replay
# ---------------------------------------------------------------------------


def apply_basis_change_table(table, P, Q, zero=RF_ZERO):
    """Constants of the same product in the basis y_a = sum_c P[a][c] x_c,
    times s where P Q = s I: Q = P^-1 over Q(s) gives the constants, and
    Q = adj(P) over Z[s] (``zero`` the zero Poly) gives them times det(P)."""
    return _freeze(change_basis(table, P, Q, zero))


def witness_matrix(wit: Witness, J: SuperAlgebra):
    """The parametric basis matrix over RatFun in s, t = s^wit.ram (rows =
    new basis slots, columns = source basis vectors in the canonical
    flatten order)."""
    order = default_basis_order(J.m, J.n)
    labels, position = basis_labels(J.m, J.n)
    # the index in ``order`` of every label, aliases included
    where = {lab: order.index(labels[pos]) for lab, pos in position.items()}
    d = J.dim
    P = [[RatFun.const(0)] * d for _ in range(d)]
    rows = []
    for slot, terms in wit.basis:
        if slot not in where:
            raise WitnessError(f"slot {slot!r} not a basis vector of type ({J.m},{J.n})")
        row = where[slot]
        rows.append(row)
        for coeff, lab in terms:
            if lab not in where:
                raise WitnessError(f"unknown source basis vector {lab!r}")
            P[row][where[lab]] = P[row][where[lab]] + coeff
    if sorted(rows) != list(range(d)):
        raise WitnessError(f"witness must define every slot of {order} exactly once")
    return P, order


def is_graded_matrix(P, order: List[str]) -> bool:
    """True iff P never mixes basis vectors of different parity."""
    parities = [label_parity(lab) for lab in order]
    for a in range(len(order)):
        for b in range(len(order)):
            if parities[a] != parities[b] and P[a][b]:
                return False
    return True


@dataclass(frozen=True)
class Verdict:
    status: str  # Verified | LimitDiverges | LimitMismatch | NonGradedWitness | SingularMatrix | Error
    detail: str = ""
    limit_table: Optional[tuple] = None
    diff: Tuple[Tuple[int, int, int], ...] = ()

    @property
    def verified(self) -> bool:
        return self.status == "Verified"


def _constants_in_basis(source: SuperAlgebra, P, order: List[str]):
    """Structure constants of ``source`` in the basis given by the rows of P,
    as polynomials N over one denominator per product: the constant (a, b, l)
    is N[a][b][l] / den[a][b].  Raises SingularMatrix."""
    D, R = zip(*map(clear_denominators, P))
    det, adj = int_matrix_det_adjugate(list(R))
    if not det:
        raise SingularMatrix("witness basis is singular")
    D_T, T = cleared_table(flatten(source, order))
    # P^-1 = adj(R) diag(D) / det(R), so with Q = adj(R) diag(D) each constant
    # is N[a][b][l] / (D_a D_b det(R) D_T)
    Q = [[x * D_l for x, D_l in zip(row, D)] for row in adj]
    N = apply_basis_change_table(T, R, Q, Poly())
    dt = det * D_T
    return N, [[D_a * D_b * dt for D_b in D] for D_a in D]


def verify_degeneration(wit: Witness, source: SuperAlgebra, target: SuperAlgebra) -> Verdict:
    """Replay the witness and compare the t -> 0 limit with the target.

    Only a basis in the structure group GL_m x GL_n is a superalgebra basis,
    so a witness whose matrix mixes parities is rejected before replay."""
    if (source.m, source.n) != (target.m, target.n):
        raise WitnessError("source and target types differ")
    try:
        P, order = witness_matrix(wit, source)
    except WitnessError as exc:
        return Verdict("Error", str(exc))
    if not is_graded_matrix(P, order):
        return Verdict("NonGradedWitness", "basis mixes even and odd vectors")
    try:
        N, den = _constants_in_basis(source, P, order)
    except SingularMatrix:
        return Verdict("SingularMatrix", "witness basis is singular")

    # the limit of x / q at s = 0 is 0, x_i / q_j at equal orders i = j, and
    # diverges where the order of x is below that of q
    d = source.dim
    limit = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for a in range(d):
        for b in range(d):
            q = den[a][b]
            j = q.ord()
            for k, x in enumerate(N[a][b]):
                if not x:
                    continue
                i = x.ord()
                if i < j:
                    return Verdict(
                        "LimitDiverges", f"entry c[{a+1},{b+1}]^{k+1} diverges: valuation {i - j}"
                    )
                if i == j:
                    limit[a][b][k] = Fraction(x[i], q[j])
    limit_t = _freeze(limit)
    target_table = flatten(target, default_basis_order(target.m, target.n))
    if limit_t != target_table:
        diff = tuple(
            (a + 1, b + 1, k + 1)
            for a in range(d)
            for b in range(d)
            for k in range(d)
            if limit_t[a][b][k] != target_table[a][b][k]
        )
        return Verdict(
            "LimitMismatch",
            f"{len(diff)} entries differ from {target.name}: {diff[:6]}",
            limit_table=limit_t,
            diff=diff,
        )
    return Verdict("Verified", limit_table=limit_t)


def specialize_witness(wit: Witness, source: SuperAlgebra, t0: Fraction):
    """Structure constants at a fixed parameter value t = t0 (s = t0^(1/N)
    is not needed: we substitute s0 with s0^N = t0 only when N = 1, otherwise
    we evaluate the RatFun entries at any s0 with s0^N = t0 rational).

    For witnesses with ramification N, the fiber at s = s0 corresponds to
    t = s0^N, so this function takes s0 directly when N > 1.  A constant
    whose common denominator vanishes at s0 is reduced first, and raises
    ZeroDivisionError only if its reduced denominator vanishes there too.
    """
    P, order = witness_matrix(wit, source)
    N, den = _constants_in_basis(source, P, order)

    def value(x: Poly, q: Poly) -> Fraction:
        qv = q.evaluate(t0)
        return x.evaluate(t0) / qv if qv else RatFun(x, q).evaluate(t0)

    d = len(order)
    return _freeze([[[value(x, den[a][b]) for x in N[a][b]] for b in range(d)] for a in range(d)]), wit.ram
