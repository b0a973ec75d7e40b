"""Closed-set certificates for non-degenerations.

A certificate is a conjunction of conditions on the structure constants
c[a,b,k] of a flattened table in a declared basis x_1..x_d, written as

  * polynomial equations, e.g.  c[4,4,4] = 2*c[2,4,2].  Each ``*`` index is
    its own for-all index, on either side of ``=``: c[*,1,1] = c[*,2,2]
    stands for the d^2 equations c[i,1,1] = c[j,2,2];
  * span containments on tail flags A_i = span(x_i, ..., x_d), e.g.
        span(A2*A2) <= span(A2)
        span(J*J) <= span(x2,x3,x4)        (J is the whole space)
        A1*A4 = 0

Each condition is parsed once into the polynomials in the constants that
must vanish: lhs - rhs for every assignment of the ``*`` indices, and one
atom c[a,b,k] for each product x_a x_b whose k-th coordinate a containment
bans.  A condition with no polynomial would hold on every table, so it is
refused at parse.  Every polynomial must be homogeneous, which is checked
at parse: the trials below run on the table cleared to ints
(``algebra.cleared_table``) and scaled by det(g), and a homogeneous
polynomial vanishes on a scaled table iff it vanishes on the table.

The published claim pattern: the source satisfies the conditions, the set
is stable under the triangular subgroup (so it traps the whole orbit
closure), and the target violates the conditions in every basis of the
superalgebra.  The two unpublished halves are exercised here by seeded
random trials: upper-triangular changes for stability, and changes in the
structure group GL_m x GL_n for separation.

The structure group is the set of invertible changes that never mix even
and odd basis vectors, so a separation change is drawn block-diagonal by
the parity pattern of the certificate's basis labels.  A parity-mixing
basis is not a superalgebra basis, and it can put the target in the set:
J15 multiplies as v w = (lam(v) w + lam(w) v)/2 with lam the e-coefficient
functional, so it satisfies every condition of the J16, J17 and J19
certificates (basis f1 f2 f3 e) whenever lam(x4) = 0.  In a graded basis
x4 = c*e with c != 0, so lam(x4) = c never vanishes.  The full triangular
group of the stability trials contains the graded one, so a stability pass
is stronger than needed.

Every test at one (kind, key, trials, seed) replays the same matrices,
whatever the certificate or table; the key is the dimension for stability
and the parity pattern for separation.  Each such sequence is drawn, and
each of its matrices inverted, once per process.  Each certificate's
conditions are compiled once into a ``TrialPlan``: the moved coordinates
(a, b, l) they read, in the order they first read them.  A trial walks the
polynomials in order.  For each it computes in ints the product rows
y_a y_b (``algebra.product_row``, the one product step of every kernel
that multiplies vectors, ``algebra.change_basis`` among them) and the
coordinates that it reads first, contracting only those columns
with the adjugate, and the first polynomial that does not vanish ends the
trial.  Over the packaged certificates, at 20 or 1000 trials, a trial
computes about 9 % of the coordinates of the moved table (about 23 % of
its product rows).
"""

from __future__ import annotations

import ast
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import count, product
from typing import Iterator, List, Optional, Tuple

from .algebra import SuperAlgebra, as_table, change_basis, label_parity, product_row
from .linalg import int_matrix_det_adjugate
from .tablefmt import ParseError, excerpt, read_arithmetic, read_lines, unknown_line


class BasisMismatch(ValueError):
    pass


class CertificateParseError(ParseError):
    pass


# ---------------------------------------------------------------------------
# Conditions: polynomials in the structure constants that must vanish
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Condition:
    """One ``condition:`` line: it holds on a table iff every polynomial
    vanishes there.  A polynomial is a tuple of (coefficient, monomial)
    terms, the coefficient an int where its denominator is 1; a monomial is
    a sorted tuple of 0-based atoms (a, b, k), each standing for
    c[a+1,b+1,k+1], and the empty monomial is the constant 1."""

    polys: tuple
    text: str


# How a certificate relates to the printed one; the errata ledger explains
# every "corrected" certificate.
STATUSES = ("published", "corrected")


@dataclass
class ClosedSet:
    source: str
    targets: List[str]
    basis: List[str]
    conditions: List[Condition]
    label: str = ""
    status: str = "published"  # one of STATUSES
    path: str = "<string>"  # the file it was read from, named by errors after the parse

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def plan(self) -> "TrialPlan":
        """The conditions compiled for the trials, once per certificate."""
        return _compile_plan(self)


def condition_holds(cond: Condition, table) -> bool:
    for poly in cond.polys:
        total = 0
        for coef, mono in poly:
            term = coef
            for a, b, k in mono:
                term *= table[a][b][k]
            total += term
        if total:
            return False
    return True


def closed_set_eval(table, cs: ClosedSet) -> bool:
    """True iff every condition holds exactly on the table, which must be
    written in the certificate's basis (see ``certificate_table``)."""
    if len(table) != cs.dim:
        raise BasisMismatch(f"table dim {len(table)} != certificate dim {cs.dim}")
    return failing_condition(table, cs) is None


def failing_condition(table, cs: ClosedSet) -> Optional[Condition]:
    for cond in cs.conditions:
        if not condition_holds(cond, table):
            return cond
    return None


def certificate_table(cs: ClosedSet, J: SuperAlgebra):
    """``J``'s table in the certificate's basis, which must list each basis
    vector of ``J`` exactly once: the Table ``J`` keeps for that order
    (``SuperAlgebra.table``), so its source, stability and separation tests
    share one cleared table and one grouping of it."""
    try:
        return J.table(cs.basis)
    except (KeyError, ValueError):
        raise CertificateParseError(
            f"{cs.path}: basis {' '.join(cs.basis)} does not fit {J.name} of type ({J.m},{J.n})"
        ) from None


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _Poly(dict):
    """A polynomial while a condition is read: {monomial: coefficient} with
    no zero coefficient.  An index of a monomial's atom may be a wildcard
    slot s, stored as ~s (a negative int)."""

    @staticmethod
    def of(terms) -> "_Poly":
        """The sum of the (monomial, coefficient) terms."""
        out: dict = {}
        for mono, coef in terms:
            out[mono] = out.get(mono, 0) + coef
        return _Poly({mono: coef for mono, coef in out.items() if coef})

    @staticmethod
    def const(c: int) -> "_Poly":
        return _Poly.of([((), Fraction(c))])

    def __add__(self, other: "_Poly") -> "_Poly":
        return _Poly.of([*self.items(), *other.items()])

    def __neg__(self) -> "_Poly":
        return _Poly({mono: -coef for mono, coef in self.items()})

    def __sub__(self, other: "_Poly") -> "_Poly":
        return self + -other

    def __mul__(self, other: "_Poly") -> "_Poly":
        return _Poly.of(
            (tuple(sorted(m1 + m2)), c1 * c2) for m1, c1 in self.items() for m2, c2 in other.items()
        )

    def __truediv__(self, other: "_Poly") -> "_Poly":
        if not other:
            raise ZeroDivisionError
        if set(other) != {()}:
            raise CertificateParseError("a condition divides by numbers only")
        return _Poly({mono: coef / other[()] for mono, coef in self.items()})

    def __pow__(self, k: int):
        raise CertificateParseError("a condition has no powers")


def _atom(node: ast.expr, exp: Fraction, d: int, slots: Iterator[int]) -> _Poly:
    """``c[a,b,k]`` as a polynomial; each ``*`` index, which the reader
    passes as ``...``, takes the next wildcard slot."""
    is_c = isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "c"
    elts = node.slice.elts if is_c and isinstance(node.slice, ast.Tuple) else []
    parts = [elt.value if isinstance(elt, ast.Constant) else None for elt in elts]
    if len(parts) != 3 or not all(p is ... or type(p) is int and 1 <= p <= d for p in parts):
        raise CertificateParseError(f"bad atom {excerpt(ast.unparse(node).replace('...', '*'))}")
    if exp != 1:
        raise CertificateParseError("a condition has no powers")
    return _Poly({(tuple(~next(slots) if p is ... else p - 1 for p in parts),): 1})


# The most "*" indices of one condition.  It stands for d^slots
# polynomials, so a longer one is refused at parse, before any is built.
MAX_WILDCARDS = 4


def _expand(poly: dict, d: int, slots: int) -> tuple:
    """One polynomial per assignment of basis positions to the wildcard
    slots; those that vanish identically are dropped."""
    out = []
    for combo in product(range(d), repeat=slots):
        inst = _Poly.of(
            (tuple(sorted(tuple(i if i >= 0 else combo[~i] for i in atom) for atom in mono)), coef)
            for mono, coef in poly.items()
        )
        terms = tuple(
            (int(coef) if coef.denominator == 1 else coef, mono) for mono, coef in sorted(inst.items())
        )
        if terms:
            out.append(terms)
    return tuple(out)


def _parse_index_set(text: str, d: int) -> Tuple[int, ...]:
    text = text.strip()
    if text == "J":
        return tuple(range(1, d + 1))
    mobj = re.fullmatch(r"A(\d+)", text)
    if mobj:
        i = int(mobj.group(1))
        if not 1 <= i <= d:
            raise CertificateParseError(f"flag index out of range in {text!r}")
        return tuple(range(i, d + 1))
    raise CertificateParseError(f"bad subspace name {excerpt(text)} (expected J or A<i>)")


def _parse_allowed(text: str, d: int) -> Tuple[int, ...]:
    text = text.strip()
    if text == "0":
        return ()
    if re.fullmatch(r"A\d+", text):
        return _parse_index_set(text, d)
    mobj = re.fullmatch(r"span\(([^)]*)\)", text)
    if mobj:
        out = []
        for part in mobj.group(1).split(","):
            part = part.strip()
            m2 = re.fullmatch(r"x(\d+)", part)
            if not m2:
                raise CertificateParseError(f"bad span member {part!r}")
            i = int(m2.group(1))
            if not 1 <= i <= d:
                raise CertificateParseError(f"span member out of range in {text!r}")
            out.append(i)
        return tuple(sorted(out))
    raise CertificateParseError(f"bad span right side {excerpt(text)}")


def parse_condition(text: str, d: int) -> Condition:
    text = text.strip()
    if "c[" in text:
        lhs_text, _, rhs_text = text.partition("=")
        if not rhs_text:
            raise CertificateParseError(f"polynomial condition needs '=': {excerpt(text)}")
        slots = count()  # numbered across both sides
        leaf = partial(_atom, d=d, slots=slots)
        lhs, rhs = (
            read_arithmetic(side, leaf, _Poly.const, CertificateParseError) for side in (lhs_text, rhs_text)
        )
        poly = lhs - rhs
        # the trials clear denominators and scale by det(g): only a
        # homogeneous polynomial vanishes on the scaled table iff on the table
        if len({len(mono) for mono in poly}) > 1:
            raise CertificateParseError(f"non-homogeneous condition {excerpt(text)}")
        wildcards = next(slots)
        if wildcards > MAX_WILDCARDS:
            raise CertificateParseError(
                f"a condition has at most {MAX_WILDCARDS} '*' indices in {excerpt(text)}"
            )
        return _condition(_expand(poly, d, wildcards), text)
    mobj = re.fullmatch(
        r"(?:span\(\s*)?([AJ]\d*)\s*\*\s*([AJ]\d*)\s*\)?\s*(<=|=)\s*(.+)", text
    )
    if mobj:
        left_name, right_name, op, rhs = mobj.groups()
        left = _parse_index_set(left_name, d)
        right = _parse_index_set(right_name, d)
        allowed = _parse_allowed(rhs, d)
        if op == "=" and allowed:
            raise CertificateParseError(
                f"use <= for containment in a nonzero span: {excerpt(text)}"
            )
        # every banned coordinate of every product is one atom that must vanish
        banned = [k for k in range(1, d + 1) if k not in allowed]
        polys = tuple(
            ((1, ((a - 1, b - 1, k - 1),)),) for a in left for b in right for k in banned
        )
        return _condition(polys, text)
    raise CertificateParseError(f"cannot parse condition {excerpt(text)}")


def _condition(polys: tuple, text: str) -> Condition:
    """The condition of these polynomials; with none, it would hold on every
    table and check nothing, so it is refused."""
    if not polys:
        raise CertificateParseError(f"condition holds on every table: {excerpt(text)}")
    return Condition(polys, text)


def parse_closed_set(text: str, source_name: str = "<string>") -> ClosedSet:
    cs = ClosedSet(source=None, targets=[], basis=[], conditions=[], path=source_name)

    def handle(key: str, val: str) -> None:
        if key in ("condition:", ""):  # a bare line is a condition under "conditions:"
            if not cs.basis:
                raise CertificateParseError("a condition needs the basis line above it")
            cs.conditions.append(parse_condition(val, cs.dim))
        elif key in ("source", "label"):
            setattr(cs, key, val)
        elif key in ("targets", "basis"):
            if key == "targets" and not val:
                raise CertificateParseError("targets names no entry")
            setattr(cs, key, val.split())
        elif key != "conditions:" or val:
            raise unknown_line(key, val)

    cs.status = read_lines(text, source_name, handle, "closedset", STATUSES)
    if cs.source is None or not cs.targets or not cs.basis:
        raise CertificateParseError(f"{source_name}: source, targets and basis are required")
    return cs


def parse_closed_set_file(path) -> ClosedSet:
    with open(path, "r", encoding="utf-8") as fh:
        cs = parse_closed_set(fh.read(), source_name=str(path))
    if not cs.label:
        cs.label = str(path)
    return cs


# ---------------------------------------------------------------------------
# Randomized stability / separation
# ---------------------------------------------------------------------------


def transform_int_table(table_int, g: List[List[int]]):
    """det(g)-scaled constants of the table in the basis y_a = sum g[a][c] x_c."""
    det, adj = int_matrix_det_adjugate(g)
    if det == 0:
        raise ValueError("singular change of basis")
    return change_basis(table_int, g, adj, 0)


@dataclass(frozen=True)
class RandomizedReport:
    kind: str  # "stability" | "separation"
    hits: int
    trials: int
    seed: int
    detail: str = ""


def _random_triangular(rng: random.Random, d: int) -> List[List[int]]:
    g = [[0] * d for _ in range(d)]
    for i in range(d):
        g[i][i] = rng.choice((-3, -2, -1, 1, 2, 3))
        for j in range(i + 1, d):
            g[i][j] = rng.randint(-3, 3)
    return g


def _random_invertible(rng: random.Random, pattern: Tuple[int, ...]):
    """An invertible g in the structure group of the parity ``pattern``
    (g[a][b] = 0 unless a and b have the same parity), with its adjugate,
    from the det/adjugate call that rejects the singular draws."""
    # Wider range than the stability sampler: small ranges put visible
    # probability mass on the measure-zero coincidence sets (entries hitting
    # exact linear relations), which would understate the rejection rate.
    d = len(pattern)
    while True:
        g = [
            [rng.randint(-7, 7) if pattern[a] == pattern[b] else 0 for b in range(d)]
            for a in range(d)
        ]
        det, adj = int_matrix_det_adjugate(g)
        if det != 0:
            return g, adj


# One sweep's draw keys: the stability dimension, and every parity pattern
# of a 4-dimensional basis that has both parities (2^4 - 2 of them).
@lru_cache(maxsize=1 + 2**4 - 2)
def _changes(kind: str, key, trials: int, seed: int):
    """The ``trials`` seeded basis changes of one randomized test, as
    immutable (g, adjugate) pairs: upper-triangular of dimension ``key`` for
    ``"stability"``, graded by the parity pattern ``key`` for
    ``"separation"``.  Every test at one (kind, key, trials, seed) replays
    this draw, so it is made, and each matrix inverted, once."""
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        if kind == "stability":
            g = _random_triangular(rng, key)
            adj = int_matrix_det_adjugate(g)[1]
        else:
            g, adj = _random_invertible(rng, key)
        out.append((tuple(map(tuple, g)), tuple(map(tuple, adj))))
    return tuple(out)


@dataclass(frozen=True)
class TrialPlan:
    """A certificate's conditions compiled for the trials: ``coords`` are the
    distinct moved coordinates (a, b, l) in the order the polynomials first
    read them, and coordinate s is kept in slot s.  One step per polynomial,
    in condition order: (the product rows (r, a, b) it reads first, the
    coordinates (s, r, l) it reads first, in row r, and its terms
    (coefficient, slots))."""

    steps: tuple
    rows: int
    coords: tuple


def _compile_plan(cs: ClosedSet) -> TrialPlan:
    """The plan of the conditions, slots and rows numbered by first read."""
    row_of: dict = {}
    slot_of: dict = {}
    steps = []
    for cond in cs.conditions:
        for poly in cond.polys:
            new_rows, new_coords, terms = [], [], []
            for coef, mono in poly:
                for a, b, l in mono:
                    if (a, b) not in row_of:
                        row_of[a, b] = len(row_of)
                        new_rows.append((row_of[a, b], a, b))
                    if (a, b, l) not in slot_of:
                        slot_of[a, b, l] = len(slot_of)
                        new_coords.append((slot_of[a, b, l], row_of[a, b], l))
                terms.append((coef, tuple(slot_of[atom] for atom in mono)))
            steps.append((tuple(new_rows), tuple(new_coords), tuple(terms)))
    return TrialPlan(tuple(steps), len(row_of), tuple(slot_of))


def _trial_holds(plan: TrialPlan, groups, g, adj, rows: list, slots: list) -> bool:
    """Whether the conditions hold on the table of constants ``groups``
    (``product_groups``) moved by g and scaled by det(g), adj the adjugate
    of g.  Each step computes the product rows and the coordinates its
    polynomial reads first, into the scratch lists ``rows`` and ``slots``,
    and the first polynomial that does not vanish ends the trial."""
    for new_rows, new_coords, terms in plan.steps:
        for r, a, b in new_rows:
            rows[r] = product_row(groups, g[a], g[b], 0)
        for s, r, l in new_coords:
            acc = 0
            for k, x in enumerate(rows[r]):
                if x:
                    acc += x * adj[k][l]
            slots[s] = acc
        total = 0
        for coef, mono in terms:
            for s in mono:
                coef *= slots[s]
            total += coef
        if total:
            return False
    return True


def _trials(kind: str, cs: ClosedSet, table, trials: int, seed: int):
    """Yield (g, whether the table cleared to ints and moved by g satisfies
    the certificate) for each basis change."""
    if len(table) != cs.dim:
        raise BasisMismatch(f"table dim {len(table)} != certificate dim {cs.dim}")
    plan = cs.plan
    groups = as_table(table).cleared[1].groups
    rows, slots = [None] * plan.rows, [None] * len(plan.coords)
    key = cs.dim if kind == "stability" else tuple(map(label_parity, cs.basis))
    for g, adj in _changes(kind, key, trials, seed):
        yield g, _trial_holds(plan, groups, g, adj, rows, slots)


def stability_test(cs: ClosedSet, source_table, trials: int = 1000, seed: int = 0) -> RandomizedReport:
    """Fraction of random upper-triangular basis changes under which the
    source still satisfies the certificate (expected: all of them)."""
    hits = 0
    first_fail = ""
    for g, holds in _trials("stability", cs, source_table, trials, seed):
        if holds:
            hits += 1
        elif not first_fail:
            moved = transform_int_table(as_table(source_table).cleared[1], g)
            bad = failing_condition(moved, cs)
            first_fail = f"fails {bad.text if bad else '?'} at g={[list(row) for row in g]}"
    return RandomizedReport("stability", hits, trials, seed, first_fail)


def separation_test(cs: ClosedSet, target_table, trials: int = 1000, seed: int = 0) -> RandomizedReport:
    """Fraction of random changes in the structure group under which the
    target violates the certificate (expected: all of them)."""
    rejections = sum(
        1 for _, holds in _trials("separation", cs, target_table, trials, seed) if not holds
    )
    return RandomizedReport("separation", rejections, trials, seed)
