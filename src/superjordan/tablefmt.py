"""Line-oriented text formats: algebra tables, witnesses, closed sets.

Algebra files:

    [algebra]
    name = J5
    type = 1,3
    even = e
    odd = f1 f2 f3
    orbit = 12                      # optional catalog metadata
    decomposition = S1_3 + S1_1     # optional; "Indecomposable" for none
    even_part = U2                  # optional declared label
    family = t                      # optional family parameter symbol
    product: e*f1 = f2
    product: f1*f2 = 1/2 e + t e2   # rational or family-parameter coefficients

The constants are stored and read in label order (even vectors first), so
a file names no basis order; a ``basis_order`` key is a parse error.

Witness files (``[degeneration]``) and closed-set certificates
(``[closedset]``) are parsed in ``degeneration`` and ``certificates``.  Both
take an optional ``status``: ``published`` (the default) or ``corrected``
for a certificate, and witnesses add ``published-rationalized`` and
``published-graded``.  Only a ``published`` row can be logged by an erratum.

Whitespace around tokens is ignored; ``#`` begins a comment.  An unknown
key is a parse error (``even`` and ``odd`` are informative only).

Witness coefficients (``t^(1/2) - 2*t``) and both sides of a certificate
equation (``c[4,4,4] = 1/2*c[*,2,2]``) are read by ``read_arithmetic``:
integer literals, ``+ - * /``, unary signs, parentheses and ``^``.  An
exponent is k, -k or a fraction (p/q), as in ``t^-1`` or ``t^(-1/2)``, with
|p| and |q| at most 64; only a name takes a fractional one, and ``t^2^2``
is an error.  The names are ``t`` in a witness and ``c[a,b,k]`` in a
certificate, whose ``*`` index is a wildcard.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Optional, Tuple, Union

from .algebra import SuperAlgebra, load
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


class _Unread:
    """Every value while a text is only checked: each operation gives it back."""

    def _same(self, *_):
        return self

    __add__ = __sub__ = __mul__ = __truediv__ = __pow__ = __neg__ = _same


_UNREAD = _Unread()


def check_arithmetic(text: str, leaf: Callable, error: type) -> None:
    """Read ``text`` as ``read_arithmetic`` does and let ``leaf`` check each
    name and subscript, but compute nothing."""

    def checked(node: ast.expr, exp: Fraction) -> _Unread:
        leaf(node, exp)
        return _UNREAD

    read_arithmetic(text, checked, lambda _k: _UNREAD, error)


@dataclass
class AlgebraFile:
    name: str
    mn: Tuple[int, int]
    products: List[Tuple[str, str, List[Tuple[Union[Fraction, RatFun], str]]]]
    orbit: Optional[int] = None
    decomposition: Optional[str] = None
    even_part: Optional[str] = None
    family: Optional[str] = None

    def build(self) -> SuperAlgebra:
        try:
            return load(self.products, self.mn, name=self.name)
        except (KeyError, ValueError) as exc:
            raise ParseError(f"{self.name or 'algebra'}: {exc}") from None


_TERM_SPLIT = re.compile(r"(?=[+-])")


def _parse_terms(rhs: str, family: Optional[str]):
    rhs = rhs.strip()
    if rhs == "0":
        return []
    terms = []
    for chunk in _TERM_SPLIT.split(rhs.replace(" - ", " +- ").replace("+ -", "+-")):
        chunk = chunk.strip()
        if not chunk or chunk == "+":
            continue
        if chunk.startswith("+"):
            chunk = chunk[1:].strip()
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        tokens = chunk.split()
        if not tokens:
            continue
        label = tokens[-1]
        coeff: Union[Fraction, RatFun] = Fraction(sign)
        for tok in tokens[:-1]:
            if family is not None and tok == family:
                coeff = coeff * RatFun.var()
            else:
                coeff = coeff * Fraction(tok)
        terms.append((coeff, label))
    return terms


def _count(text: str, source: str, lineno: int) -> int:
    if not text.isdecimal():
        raise ParseError(f"{source}:{lineno}: expected a count, got {text!r}")
    return int(text)


def parse_algebra(text: str, source: str = "<string>") -> AlgebraFile:
    name = ""
    mn: Optional[Tuple[int, int]] = None
    products = []
    orbit = None
    decomposition = None
    even_part = None
    family = None
    saw_header = False
    raw_products: List[str] = []

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[algebra]":
            saw_header = True
            continue
        if line.startswith("product:"):
            raw_products.append(line[len("product:") :].strip())
            continue
        if "=" not in line:
            raise ParseError(f"{source}:{lineno}: cannot parse {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key == "name":
            name = val
        elif key == "type":
            parts = [p.strip() for p in val.split(",")]
            if len(parts) != 2:
                raise ParseError(f"{source}:{lineno}: bad type {val!r}")
            mn = (_count(parts[0], source, lineno), _count(parts[1], source, lineno))
        elif key == "orbit":
            orbit = _count(val, source, lineno)
        elif key == "decomposition":
            decomposition = val
        elif key == "even_part":
            even_part = val
        elif key in ("family", "family_param"):
            family = val
        elif key not in ("even", "odd"):  # informative only; counts come from `type`
            raise ParseError(f"{source}:{lineno}: unknown key {key!r}")

    if not saw_header:
        raise ParseError(f"{source}: missing [algebra] header")
    if mn is None:
        raise ParseError(f"{source}: missing type")

    for spec in raw_products:
        if "=" not in spec:
            raise ParseError(f"{source}: bad product line {spec!r}")
        lhs, _, rhs = spec.partition("=")
        lhs = lhs.strip()
        if "*" not in lhs:
            raise ParseError(f"{source}: product left side needs a*b, got {lhs!r}")
        left, _, right = lhs.partition("*")
        try:
            terms = _parse_terms(rhs, family)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{source}: bad product line {spec!r}: {exc}") from None
        products.append((left.strip(), right.strip(), terms))

    return AlgebraFile(
        name=name,
        mn=mn,
        products=products,
        orbit=orbit,
        decomposition=decomposition,
        even_part=even_part,
        family=family,
    )


def parse_algebra_file(path) -> AlgebraFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read(), source=str(path))
