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

Whitespace around tokens is ignored; ``#`` begins a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .algebra import SuperAlgebra, load
from .ratfun import RatFun


class ParseError(ValueError):
    """Malformed input text; the algebra, witness and certificate parsers
    raise this or a subclass of it."""


@dataclass
class AlgebraFile:
    name: str
    mn: Tuple[int, int]
    products: List[Tuple[str, str, List[Tuple[Union[Fraction, RatFun], str]]]]
    orbit: Optional[int] = None
    decomposition: Optional[str] = None
    even_part: Optional[str] = None
    family: Optional[str] = None
    extras: Dict[str, str] = field(default_factory=dict)

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
    extras: Dict[str, str] = {}
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
        elif key == "basis_order":
            # flat tables are in label order; a stored ordering would be ignored
            raise ParseError(f"{source}:{lineno}: unknown key 'basis_order'")
        elif key == "orbit":
            orbit = _count(val, source, lineno)
        elif key == "decomposition":
            decomposition = val
        elif key == "even_part":
            even_part = val
        elif key in ("family", "family_param"):
            family = val
        elif key in ("even", "odd"):
            extras[key] = val  # informative only; counts come from `type`
        else:
            extras[key] = val

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
        extras=extras,
    )


def parse_algebra_file(path) -> AlgebraFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read(), source=str(path))
