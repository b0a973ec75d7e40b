"""Closed-set certificates for non-degenerations.

A certificate is a conjunction of conditions on the structure constants
c[a,b,k] of a flattened table in a declared basis x_1..x_d:

  * polynomial equations, e.g.  c[4,4,4] = 2*c[2,4,2]   (wildcard * = for all)
  * span containments on tail flags A_i = span(x_i, ..., x_d), e.g.
        span(A2*A2) <= span(A2)
        span(J*J) <= span(x2,x3,x4)        (J is the whole space)
        A1*A4 = 0

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
each of its matrices inverted, once per process.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra import change_basis, label_parity, nonzero_constants
from .linalg import int_matrix_det_adjugate
from .tablefmt import ParseError


class BasisMismatch(ValueError):
    pass


class CertificateParseError(ParseError):
    pass


# ---------------------------------------------------------------------------
# Condition ASTs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyEq:
    """lhs - rhs = 0; each side is a polynomial AST over c[a,b,k] atoms."""

    lhs: tuple
    rhs: tuple
    text: str

    def wildcard_slots(self) -> int:
        return _count_wildcards(self.lhs) + _count_wildcards(self.rhs)

    def is_homogeneous(self) -> bool:
        degs = _monomial_degrees(self.lhs) | _monomial_degrees(self.rhs)
        degs.discard(None)
        return len(degs) <= 1


@dataclass(frozen=True)
class SpanContain:
    """Products of two index sets land inside a coordinate span."""

    left: Tuple[int, ...]  # row indices (1-based) of the first factor
    right: Tuple[int, ...]
    allowed: Tuple[int, ...]  # coordinates allowed to be nonzero
    text: str


Condition = Union[PolyEq, SpanContain]


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

    @property
    def dim(self) -> int:
        return len(self.basis)


# AST node formats:
#   ("const", Fraction)
#   ("atom", a, b, k)            1-based indices; 0 encodes a wildcard slot
#   ("add", left, right) / ("sub", left, right) / ("mul", left, right)
#   ("neg", node)


def _count_wildcards(node) -> int:
    kind = node[0]
    if kind == "const":
        return 0
    if kind == "atom":
        return sum(1 for x in node[1:] if x == 0)
    if kind == "neg":
        return _count_wildcards(node[1])
    return _count_wildcards(node[1]) + _count_wildcards(node[2])


def _monomial_degrees(node) -> set:
    """Set of total atom-degrees of the monomials in an AST (None for 0)."""
    kind = node[0]
    if kind == "const":
        return {0 if node[1] != 0 else None}
    if kind == "atom":
        return {1}
    if kind == "neg":
        return _monomial_degrees(node[1])
    if kind in ("add", "sub"):
        return _monomial_degrees(node[1]) | _monomial_degrees(node[2])
    # mul: all combinations of degrees add
    left = _monomial_degrees(node[1])
    right = _monomial_degrees(node[2])
    out = set()
    for a in left:
        for b in right:
            out.add(None if a is None or b is None else a + b)
    return out


_POLY_TOKEN = re.compile(r"\s*(c\[[^\]]*\]|\d+/\d+|\d+|[()+\-*])")


class _PolyParser:
    def __init__(self, text: str, d: int):
        self.d = d
        self.toks: List[str] = []
        pos = 0
        while pos < len(text):
            mobj = _POLY_TOKEN.match(text, pos)
            if not mobj:
                if text[pos:].strip():
                    raise CertificateParseError(f"cannot tokenize {text[pos:]!r}")
                break
            self.toks.append(mobj.group(1))
            pos = mobj.end()
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise CertificateParseError("unexpected end of polynomial")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise CertificateParseError(f"trailing tokens {self.toks[self.pos:]}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() == "*":
            self.take()
            node = ("mul", node, self.unary())
        return node

    def unary(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.unary())
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.atom()

    def atom(self):
        tok = self.take()
        if tok == "(":
            node = self.expr()
            if self.take() != ")":
                raise CertificateParseError("unbalanced parentheses")
            return node
        if tok.startswith("c["):
            parts = [p.strip() for p in tok[2:-1].split(",")]
            if len(parts) != 3 or not all(
                p == "*" or p.isdecimal() and 1 <= int(p) <= self.d for p in parts
            ):
                raise CertificateParseError(f"bad atom {tok!r}")
            return ("atom",) + tuple(0 if p == "*" else int(p) for p in parts)
        try:
            return ("const", Fraction(tok))
        except ZeroDivisionError:
            raise CertificateParseError(f"zero denominator in {tok!r}") from None


def _eval_poly(node, table, wild: Dict[int, int], counter: List[int]):
    kind = node[0]
    if kind == "const":
        return node[1]
    if kind == "atom":
        idx = []
        for x in node[1:]:
            if x == 0:
                slot = counter[0]
                counter[0] += 1
                idx.append(wild[slot])
            else:
                idx.append(x)
        a, b, k = idx
        return table[a - 1][b - 1][k - 1]
    if kind == "neg":
        return -_eval_poly(node[1], table, wild, counter)
    left = _eval_poly(node[1], table, wild, counter)
    right = _eval_poly(node[2], table, wild, counter)
    if kind == "add":
        return left + right
    if kind == "sub":
        return left - right
    return left * right


def _poly_eq_holds(eq: PolyEq, table, d: int) -> bool:
    slots = eq.wildcard_slots()
    if slots == 0:
        lhs = _eval_poly(eq.lhs, table, {}, [0])
        rhs = _eval_poly(eq.rhs, table, {}, [0])
        return lhs == rhs
    # each wildcard occurrence is an independent universal index
    from itertools import product as iproduct

    for combo in iproduct(range(1, d + 1), repeat=slots):
        wild = dict(enumerate(combo))
        lhs = _eval_poly(eq.lhs, table, wild, [0])
        rhs = _eval_poly(eq.rhs, table, wild, [0])
        if lhs != rhs:
            return False
    return True


def _span_holds(cond: SpanContain, table, d: int) -> bool:
    banned = [k for k in range(1, d + 1) if k not in cond.allowed]
    for a in cond.left:
        for b in cond.right:
            row = table[a - 1][b - 1]
            for k in banned:
                if row[k - 1] != 0:
                    return False
    return True


def condition_holds(cond: Condition, table) -> bool:
    d = len(table)
    if isinstance(cond, PolyEq):
        return _poly_eq_holds(cond, table, d)
    return _span_holds(cond, table, d)


def closed_set_eval(table, cs: ClosedSet, basis_order: Optional[Sequence[str]] = None) -> bool:
    """True iff every condition holds exactly on the table.

    When ``basis_order`` is given it must equal the certificate's declared
    basis (the conditions are basis-sensitive).
    """
    if basis_order is not None and list(basis_order) != list(cs.basis):
        raise BasisMismatch(f"table basis {basis_order} != certificate basis {cs.basis}")
    if len(table) != cs.dim:
        raise BasisMismatch(f"table dim {len(table)} != certificate dim {cs.dim}")
    return all(condition_holds(cond, table) for cond in cs.conditions)


def failing_condition(table, cs: ClosedSet) -> Optional[Condition]:
    for cond in cs.conditions:
        if not condition_holds(cond, table):
            return cond
    return None


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


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
    raise CertificateParseError(f"bad subspace name {text!r} (expected J or A<i>)")


def _parse_allowed(text: str, d: int) -> Tuple[int, ...]:
    text = text.strip()
    if text == "0":
        return ()
    mobj = re.fullmatch(r"A(\d+)", text)
    if mobj:
        return tuple(range(int(mobj.group(1)), d + 1))
    mobj = re.fullmatch(r"span\(([^)]*)\)", text)
    if mobj:
        out = []
        for part in mobj.group(1).split(","):
            part = part.strip()
            m2 = re.fullmatch(r"x(\d+)", part)
            if not m2:
                raise CertificateParseError(f"bad span member {part!r}")
            out.append(int(m2.group(1)))
        return tuple(sorted(out))
    raise CertificateParseError(f"bad span right side {text!r}")


def parse_condition(text: str, d: int) -> Condition:
    text = text.strip()
    if "c[" in text:
        lhs_text, _, rhs_text = text.partition("=")
        if not rhs_text:
            raise CertificateParseError(f"polynomial condition needs '=': {text!r}")
        lhs = _PolyParser(lhs_text, d).parse()
        rhs = _PolyParser(rhs_text, d).parse()
        return PolyEq(lhs, rhs, text)
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
                f"use <= for containment in a nonzero span: {text!r}"
            )
        return SpanContain(left, right, allowed, text)
    raise CertificateParseError(f"cannot parse condition {text!r}")


def parse_closed_set(text: str, source_name: str = "<string>") -> ClosedSet:
    source = None
    targets: List[str] = []
    basis: List[str] = []
    label = ""
    status = "published"
    cond_lines: List[Tuple[int, str]] = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[closedset]":
            saw_header = True
            continue
        if line.startswith("condition:"):
            cond_lines.append((lineno, line[len("condition:") :].strip()))
            continue
        if line == "conditions:":
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key == "source":
            source = val
        elif key == "targets":
            targets = val.split()
        elif key == "basis":
            basis = val.split()
        elif key == "label":
            label = val
        elif key == "status":
            if val not in STATUSES:
                raise CertificateParseError(
                    f"{source_name}:{lineno}: bad status {val!r} (expected one of {', '.join(STATUSES)})"
                )
            status = val
        else:
            # bare condition lines under a "conditions:" block
            cond_lines.append((lineno, line))
    if not saw_header:
        raise CertificateParseError(f"{source_name}: missing [closedset] header")
    if source is None or not basis:
        raise CertificateParseError(f"{source_name}: source and basis are required")
    d = len(basis)
    conditions = []
    for lineno, text in cond_lines:
        try:
            conditions.append(parse_condition(text, d))
        except CertificateParseError as exc:
            raise CertificateParseError(f"{source_name}:{lineno}: {exc}") from None
    return ClosedSet(source, targets, basis, conditions, label=label, status=status)


def parse_closed_set_file(path) -> ClosedSet:
    with open(path, "r", encoding="utf-8") as fh:
        cs = parse_closed_set(fh.read(), source_name=str(path))
    if not cs.label:
        cs.label = str(path)
    return cs


# ---------------------------------------------------------------------------
# Randomized stability / separation
# ---------------------------------------------------------------------------


def _int_table(table) -> List[List[List[int]]]:
    """Clear denominators (a global scale, harmless for homogeneous tests)."""
    lcm = 1
    for plane in table:
        for row in plane:
            for x in row:
                den = Fraction(x).denominator
                lcm = lcm * den // gcd(lcm, den)
    return [
        [[int(Fraction(x) * lcm) for x in row] for row in plane] for plane in table
    ]


def transform_int_table(table_int, g: List[List[int]]):
    """det(g)-scaled constants of the table in the basis y_a = sum g[a][c] x_c."""
    det, adj = int_matrix_det_adjugate(g)
    if det == 0:
        raise ValueError("singular change of basis")
    return change_basis(nonzero_constants(table_int), len(table_int), g, adj, 0)


def certificate_is_scale_safe(cs: ClosedSet) -> bool:
    """All polynomial equations homogeneous: global table scalings are harmless,
    so the integer fast path is exact."""
    return all(
        cond.is_homogeneous() for cond in cs.conditions if isinstance(cond, PolyEq)
    )


@dataclass(frozen=True)
class RandomizedReport:
    kind: str  # "stability" | "separation"
    hits: int
    trials: int
    seed: int
    detail: str = ""

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.hits, self.trials) if self.trials else Fraction(0)


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


@lru_cache(maxsize=4)
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


def _moved_tables(kind: str, cs: ClosedSet, table, trials: int, seed: int):
    """Yield (g, the integer table moved by g) for each basis change."""
    if not certificate_is_scale_safe(cs):
        raise CertificateParseError(
            f"{cs.label or cs.source}: non-homogeneous equation; integer path unsafe"
        )
    table_int = _int_table(table)
    entries, d = nonzero_constants(table_int), len(table_int)
    key = cs.dim if kind == "stability" else tuple(map(label_parity, cs.basis))
    for g, adj in _changes(kind, key, trials, seed):
        yield g, change_basis(entries, d, g, adj, 0)


def stability_test(cs: ClosedSet, source_table, trials: int = 1000, seed: int = 0) -> RandomizedReport:
    """Fraction of random upper-triangular basis changes under which the
    source still satisfies the certificate (expected: all of them)."""
    hits = 0
    first_fail = ""
    for g, moved in _moved_tables("stability", cs, source_table, trials, seed):
        if closed_set_eval(moved, cs):
            hits += 1
        elif not first_fail:
            bad = failing_condition(moved, cs)
            first_fail = f"fails {bad.text if bad else '?'} at g={[list(row) for row in g]}"
    return RandomizedReport("stability", hits, trials, seed, first_fail)


def separation_test(cs: ClosedSet, target_table, trials: int = 1000, seed: int = 0) -> RandomizedReport:
    """Fraction of random changes in the structure group under which the
    target violates the certificate (expected: all of them)."""
    rejections = sum(
        1
        for _, moved in _moved_tables("separation", cs, target_table, trials, seed)
        if not closed_set_eval(moved, cs)
    )
    return RandomizedReport("separation", rejections, trials, seed)
