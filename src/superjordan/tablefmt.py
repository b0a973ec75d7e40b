"""The data files and the one reader they share.

Every data file is read line by line by ``read_lines``:

* ``#`` begins a comment, and blank lines are skipped;
* a table, witness or certificate begins with its ``[header]`` line;
* ``key = value`` and ``key: value`` lines, ``key`` a word, are split at
  the first ``=`` or ``:``, and every other line is read whole;
* the separator says whether a key may repeat: a ``key = value`` line may
  appear once per record, and a second one is an error (``duplicate key``),
  while ``key: value`` lines (``product:``, ``basis:``, ``condition:``,
  ``detail:``) may repeat; a bare ``[word]`` line starts a new record;
* ``status``, in a file that has one, is checked against its values;
* every error is one line that begins ``FILE:LINE:``.

A line may use only what the lines above it declare: a product its type
and family symbol, a certificate condition its basis.  Unknown keys are
errors.  Each product is entered as it is read, so an error about the
table (a conflicting, misgraded or odd-square product, an unknown label)
names the line of the product that causes it.

Algebra tables (``.alg``, read by ``parse_algebra``)::

    [algebra]
    name = J5
    type = 1,3
    even = e                        # informative only, as is "odd"
    odd = f1 f2 f3
    orbit = 12                      # optional catalog metadata
    decomposition = S1_3 + S1_1     # optional; "Indecomposable" for none
    even_part = U2                  # optional declared label
    family = t                      # optional family parameter symbol
    product: e*f1 = f2
    product: f1*f2 = 1/2 e + t e2   # a zero product is "= 0" or not listed

The constants are stored and read in label order (even vectors first), so
a file names no basis order; a ``basis_order`` key is a parse error.  The
file is read once, into an ``AlgebraFile``: the table, built after the last
line, and the metadata above, which the catalog keeps as its entry.

Witnesses (``.wit``, ``[degeneration]``, read by
``degeneration.parse_witness``) name ``source = NAME`` or
``source = NAME^(expr in t)``, ``target``, an optional ``label``, ``note``
and ``status``, and one ``basis: slot = combination`` line per new basis
vector.  Their ``status`` is ``published`` (the default),
``published-rationalized``, ``published-graded`` or ``corrected``.  A
witness keeps the ramification N of its exponents (t = s^N), and the value
of its source expression with t = s^N, read at the source line.

Certificates (``.cs``, ``[closedset]``, read by
``certificates.parse_closed_set``) name ``source``, ``targets``, ``basis``,
an optional ``label`` and ``status`` (``published`` or ``corrected``), and
one ``condition:`` line per condition.  Only a ``published`` witness or
certificate can be logged by an erratum.

The catalog's other files (read in ``catalog``): the errata ledger is a
list of ``[erratum]`` records of one ``id``, ``kind``, ``key`` and
``detail`` line each, the detail continued by any ``detail:`` lines; a
graph (``.edges``) has one ``A -> B`` line per edge; a component list has
``dimension``, ``rigid`` and ``families``; and the lemma pairs have one
``SOURCE -/-> TARGET ... ; reason = R`` line per group, R an item of the
screen (``invariants.SCREEN_ITEMS``).

A linear combination (a product's right side, a witness basis vector) is
split by ``split_combination`` into terms ``coefficient label``, the ``*``
between them optional.  Every number in every file but a count (``type``,
``orbit``, ``dimension``: decimal digits) is read by ``read_arithmetic``:
integer literals, ``+ - * /``, unary signs, parentheses and ``^``.  An
exponent is k, -k or a fraction (p/q), as in ``t^-1`` or ``t^(-1/2)``, with
|p| and |q| at most 64; only ``t`` in a witness takes a fractional one, and
``t^2^2`` is an error.  The names are the family symbol in a table, ``t``
in a witness and ``c[a,b,k]`` in a certificate, whose ``*`` index is a
wildcard.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

from .algebra import Products, SuperAlgebra, add_product, table_algebra
from .ratfun import RatFun


class ParseError(ValueError):
    """Malformed input text; the algebra, witness and certificate parsers
    raise this or a subclass of it."""


# ---------------------------------------------------------------------------
# Arithmetic: witness coefficients and certificate conditions
# ---------------------------------------------------------------------------

_OPERATORS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv
}
_LEAVES = (ast.Name, ast.Subscript)
# The largest |p| and |q| of an exponent p/q; a larger power is refused at
# load, before anything is computed with it.
MAX_EXPONENT = 64
_WILDCARD = re.compile(r"(?<=[\[,])\s*\*\s*(?=[,\]])")  # a "*" index, read as "..."


def excerpt(text: str) -> str:
    """``text`` quoted, cut after its first 40 characters."""
    return repr(text) if len(text) <= 40 else repr(text[:40]) + "..."


def _signed_int(node: ast.expr) -> Optional[int]:
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        sign, node = -1, node.operand
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return sign * node.value
    return None


@lru_cache(maxsize=4096)
def _parse(text: str) -> ast.Expression:
    """Python's tree of ``text``, with ``^`` as ``**`` and each ``*`` index as
    ``...``; the files repeat their expressions, so each is parsed once."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # e.g. "1or 2" warns before it is refused
        return ast.parse(_WILDCARD.sub("...", text.replace("^", "**")), mode="eval")


def read_arithmetic(text: str, leaf: Callable, const: Callable, error: type):
    """The value of ``text``, read from Python's tree of it; nothing is run.
    An integer literal k is ``const(k)``, a name or subscript x is
    ``leaf(x, 1)`` and x^e is ``leaf(x, e)``.  Everything else is computed
    with the operators of those values; any other node, a division by zero
    or a tree too deep to read raises ``error``."""
    text = text.strip()
    try:
        tree = _parse(text)
    except (SyntaxError, ValueError, RecursionError, MemoryError):
        raise error(f"cannot read {excerpt(text)}") from None

    def exponent(node: ast.expr) -> Fraction:
        num, den = node, ast.Constant(1)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            num, den = node.left, node.right
        p, q = _signed_int(num), _signed_int(den)
        if p is None or q is None:
            raise error(f"an exponent is an integer or a fraction of two in {excerpt(text)}")
        if q == 0:
            raise error(f"exponent denominator 0 in {excerpt(text)}")
        if abs(p) > MAX_EXPONENT or abs(q) > MAX_EXPONENT:
            raise error(f"an exponent's terms are at most {MAX_EXPONENT} in {excerpt(text)}")
        return Fraction(p, q)

    def walk(node: ast.expr):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exp = exponent(node.right)
            if isinstance(node.left, _LEAVES):
                return leaf(node.left, exp)
            if exp.denominator != 1:
                raise error(f"a fractional exponent needs a name as its base in {excerpt(text)}")
            return walk(node.left) ** exp.numerator
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            return _OPERATORS[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            value = walk(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, _LEAVES):
            return leaf(node, Fraction(1))
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return const(node.value)
        raise error(f"cannot read {excerpt(text)}")

    try:
        return walk(tree.body)
    except ZeroDivisionError:
        raise error(f"division by zero in {excerpt(text)}") from None
    except RecursionError:
        raise error(f"{excerpt(text)} is nested too deeply") from None


# ---------------------------------------------------------------------------
# Lines and linear combinations
# ---------------------------------------------------------------------------

_KEY = re.compile(r"(\w+)\s*([:=])\s*(.*)")
_RECORD = re.compile(r"\[\w+\]")


def read_lines(
    text: str,
    source: str,
    handle: Callable[[str, str], None],
    header: Optional[str] = None,
    statuses: Tuple[str, ...] = (),
) -> Optional[str]:
    """Hand each line of a data file to ``handle(key, value)``: ``key =
    value`` gives the key, ``key: value`` the key and its colon, and any
    other line the key ``""`` and the whole line.  A ``key =`` line may
    appear once per record, a ``key:`` line any number of times; a
    ``[word]`` line starts a new record.  Given a ``header``, the first line
    must be ``[header]``, and is not handed on.  Given ``statuses``, the
    ``status`` key is checked here, and its value, by default the first, is
    returned.  A ParseError raised while a line is read gets the prefix
    ``source:line:``."""
    status = statuses[0] if statuses else None
    started = header is None
    seen = set()  # the keys of the current record
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if not started:
                if line != f"[{header}]":
                    raise ParseError(f"expected [{header}], got {excerpt(line)}")
                started = True
                continue
            match = _KEY.fullmatch(line)
            if not match:
                if _RECORD.fullmatch(line):
                    seen.clear()
                handle("", line)
                continue
            key, sep, value = match.groups()
            if sep == ":":
                key += ":"
            elif key in seen:
                raise ParseError(f"duplicate key {key!r}")
            seen.add(key)
            if key == "status" and statuses:
                if value not in statuses:
                    raise ParseError(f"bad status {value!r} (expected one of {', '.join(statuses)})")
                status = value
            else:
                handle(key, value)
        except ParseError as exc:
            raise type(exc)(f"{source}:{lineno}: {exc}") from None
    if not started:
        raise ParseError(f"{source}: missing [{header}] header")
    return status


def unknown_line(key: str, value: str) -> ParseError:
    """The error for a line that no key of its format reads."""
    return ParseError(f"unknown key {key!r}" if key else f"cannot parse {excerpt(value)}")


_LABEL = re.compile(r"[ef]\d*\s*$")


def split_combination(rhs: str) -> List[Tuple[str, str]]:
    """Split 'c1*v1 + c2 v2 - v3' into (coefficient text, label) pairs.

    Splitting happens at top-level +/- only (never inside parentheses), and
    never at the sign of an exponent (t^-1); signs in a row multiply.
    """
    chunks: List[Tuple[str, str]] = []
    depth = 0
    cur = ""
    sign = "+"
    for ch in rhs:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and not cur.rstrip().endswith("^"):
            if cur.strip():
                chunks.append((sign, cur.strip()))
                sign = ch
            else:  # a sign after a sign: "- -v" is "+v"
                sign = "+" if (sign == "-") == (ch == "-") else "-"
            cur = ""
        else:
            cur += ch
    if cur.strip():
        chunks.append((sign, cur.strip()))
    terms = []
    for sign, chunk in chunks:
        label = _LABEL.search(chunk)
        if not label:
            raise ParseError(f"term {excerpt(chunk)} does not end with a basis label")
        coeff = chunk[: label.start()].strip()
        if coeff.endswith("*"):
            coeff = coeff[:-1].strip()
        coeff = coeff or "1"
        terms.append((f"-({coeff})" if sign == "-" else coeff, label.group().strip()))
    return terms


# ---------------------------------------------------------------------------
# Algebra tables
# ---------------------------------------------------------------------------


@dataclass
class AlgebraFile:
    """One ``.alg`` file, read once: its built table and the metadata it
    declares.  The catalog keeps this record as the entry of the file."""

    name: str
    mn: Tuple[int, int]
    algebra: SuperAlgebra  # a family's constants are RatFun in its symbol
    orbit: Optional[int] = None
    decomposition: Optional[str] = None
    even_part_label: Optional[str] = None
    family: Optional[str] = None

    @property
    def is_family(self) -> bool:
        return self.family is not None


def read_count(text: str) -> int:
    """A decimal count, as in ``type = 1,3``."""
    text = text.strip()
    if not text.isdecimal():
        raise ParseError(f"expected a count, got {text!r}")
    return int(text)


def _product(spec: str, family: Optional[str]):
    """(left, right, [(coefficient, label)]) of a ``product:`` line."""
    lhs, eq, rhs = spec.partition("=")
    left, star, right = lhs.partition("*")
    if not (eq and star):
        raise ParseError(f"a product is 'a*b = combination', got {excerpt(spec)}")

    def leaf(node: ast.expr, exp: Fraction) -> RatFun:
        if not (family and isinstance(node, ast.Name) and node.id == family):
            raise ParseError(
                f"unknown name {excerpt(ast.unparse(node))}; a table's one name is the family symbol"
            )
        if exp.denominator != 1:
            raise ParseError(f"the family symbol takes integer powers only, got {exp}")
        return RatFun.monomial(exp.numerator)

    terms = [] if rhs.strip() == "0" else split_combination(rhs)
    return left.strip(), right.strip(), [
        (read_arithmetic(coeff, leaf, Fraction, ParseError), label) for coeff, label in terms
    ]


# the AlgebraFile field of each key of a table
_FIELDS = {
    "name": "name", "type": "mn", "orbit": "orbit", "decomposition": "decomposition",
    "even_part": "even_part_label", "family": "family",
}


def parse_algebra(text: str, source: str = "<string>") -> AlgebraFile:
    """The record of an ``.alg`` text; the table is built once, after its
    last line."""
    fields = {}
    products: Products = {}  # the nonzero constants, as ``add_product`` enters them

    def handle(key: str, val: str) -> None:
        if key in _FIELDS:
            if key == "type":
                parts = val.split(",")
                if len(parts) != 2:
                    raise ParseError(f"bad type {val!r}")
                val = (read_count(parts[0]), read_count(parts[1]))
            elif key == "orbit":
                val = read_count(val)
            fields[_FIELDS[key]] = val
        elif key == "product:":
            if "mn" not in fields:
                raise ParseError("a product needs the type line above it")
            left, right, terms = _product(val, fields.get("family"))
            try:
                add_product(products, fields["mn"], left, right, terms)
            except (KeyError, ValueError) as exc:
                raise ParseError(exc.args[0]) from None
        elif key not in ("even", "odd"):  # informative only; counts come from `type`
            raise unknown_line(key, val)

    read_lines(text, source, handle, "algebra")
    if "mn" not in fields:
        raise ParseError(f"{source}: missing type")
    name = fields.setdefault("name", "")
    return AlgebraFile(algebra=table_algebra(products, fields["mn"], name=name), **fields)


def parse_algebra_file(path) -> AlgebraFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read(), source=str(path))
