"""Exact univariate polynomials over the integers, and rational functions.

``Poly`` is a dense univariate polynomial with int coefficients in one
formal variable ``s``, an element of the ring Z[s]: ``+``, ``-`` and ``*``
take an int on either side, and ``//`` is exact division in Z[s], which
raises on any remainder, one left by the integer content included.  A
coefficient that is not an int (a Fraction, a float) raises TypeError.
``RatFun`` is an element of Q(s): a pair of coprime polynomials of Z[s]
whose denominator has a positive leading coefficient, so equality is
structural equality.  The kernels run on tables cleared to Z[s]
(``linalg.clear_denominators``), and the witness replay takes its t -> 0
limits from the orders of ``Poly`` numerators and denominators
(``Poly.ord``), not from ``RatFun``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _poly(cs: list) -> "Poly":
    """The Poly of the int list ``cs``, which loses its trailing zeros."""
    while cs and not cs[-1]:
        cs.pop()
    p = object.__new__(Poly)
    object.__setattr__(p, "coeffs", tuple(cs))
    return p


def _coerce(x: Union["Poly", int]) -> "Poly":
    """x as a Poly: an int as a constant."""
    return x if isinstance(x, Poly) else Poly((x,))


class Poly:
    """Univariate polynomial with int coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise TypeError(f"Poly coefficients are ints, got {c!r}")
        object.__setattr__(self, "coeffs", _poly(cs).coeffs)

    @staticmethod
    def var() -> "Poly":
        return _poly([0, 1])

    @staticmethod
    def monomial(exp: int, c: int = 1) -> "Poly":
        if exp < 0:
            raise ValueError("monomial exponent must be >= 0")
        return Poly([0] * exp + [c])

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    def __bool__(self) -> bool:
        """Nonzero, as for RatFun, so a zero polynomial can be skipped."""
        return bool(self.coeffs)

    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self.coeffs) - 1

    def ord(self) -> Union[int, float]:
        """Order of vanishing at 0; +inf for the zero polynomial."""
        if not self.coeffs:
            return inf
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise AssertionError("unnormalized polynomial")

    def __getitem__(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: Union["Poly", int]) -> "Poly":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly([-c for c in self.coeffs])

    def __sub__(self, other: Union["Poly", int]) -> "Poly":
        return self + (-other)

    def __rsub__(self, other: int) -> "Poly":
        return -self + other

    def __mul__(self, other: Union["Poly", int]) -> "Poly":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a:
            return self
        if not b:
            return other
        if b == (1,):
            return self
        if a == (1,):
            return other
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return _poly(out)

    __rmul__ = __mul__

    def __floordiv__(self, other: Union["Poly", int]) -> "Poly":
        """self / other in Z[s]; raises ArithmeticError when other does not
        divide self there (2s // 4 raises, as 1/2 is not an int)."""
        b = _coerce(other).coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if b == (1,) or not self.coeffs:
            return self
        rem = list(self.coeffs)
        db, lead = len(b) - 1, b[-1]
        quot = [0] * max(len(rem) - db, 0)
        for k in range(len(quot) - 1, -1, -1):
            q, r = divmod(rem[db + k], lead)
            if r:
                raise ArithmeticError(f"{other!r} does not divide {self!r}")
            quot[k] = q
            if q:
                for j, c in enumerate(b):
                    rem[j + k] -= q * c
        if any(rem):
            raise ArithmeticError(f"{other!r} does not divide {self!r}")
        return _poly(quot)

    def evaluate(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*s" if c != 1 else "s")
            else:
                parts.append(f"{c}*s^{i}" if c != 1 else f"s^{i}")
        return "Poly(" + " + ".join(parts) + ")"


def _positive(p: Poly) -> Poly:
    """p or -p, whichever has a positive leading coefficient."""
    return -p if p.coeffs and p.coeffs[-1] < 0 else p


def _primitive_prem(a: Poly, b: Poly) -> Poly:
    """The primitive part of the pseudo-remainder of a by b (deg a >= deg b):
    each step scales the remainder by the leading coefficient of b before it
    subtracts a multiple of b, so every quotient stays in Z."""
    rem = list(a.coeffs)
    bc = b.coeffs
    db, lead = len(bc) - 1, bc[-1]
    for k in range(len(rem) - 1 - db, -1, -1):
        top = rem[db + k]
        rem = [x * lead for x in rem]
        for j, c in enumerate(bc):
            rem[j + k] -= top * c
    r = _poly(rem)
    return r // gcd(*r.coeffs) if r.coeffs else r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The gcd in Z[s], with a positive leading coefficient: the gcd of the
    integer contents times that of the primitive parts, from a primitive
    pseudo-remainder sequence."""
    if not a.coeffs or not b.coeffs:
        return _positive(a + b)
    ca, cb = gcd(*a.coeffs), gcd(*b.coeffs)
    if len(a.coeffs) == 1 or len(b.coeffs) == 1:  # a constant: the contents alone
        return _poly([gcd(ca, cb)])
    a, b = a // ca, b // cb
    if len(a.coeffs) < len(b.coeffs):
        a, b = b, a
    while b.coeffs:
        a, b = b, _primitive_prem(a, b)
    return _positive(a) * gcd(ca, cb)


def poly_lcm(a: Poly, b: Poly) -> Poly:
    """The lcm in Z[s] of two nonzero polynomials, with a positive leading
    coefficient; a gcd only when neither is constant and they differ."""
    if a == b:
        return _positive(a)
    if len(b.coeffs) == 1:
        a, b = b, a
    if len(a.coeffs) == 1:  # a constant c: lcm(c, b) = b c / gcd(c, content(b))
        c = abs(a.coeffs[0])
        return _positive(b) * (c // gcd(c, *b.coeffs))
    return _positive(a * (b // poly_gcd(a, b)))


_ZERO = Poly()
_ONE = Poly([1])


class RatFun:
    """num / den with num and den coprime in Z[s], and the leading
    coefficient of den positive."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _ONE, _reduced: bool = False):
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not _reduced:
            if not num:
                den = _ONE
            elif den != _ONE:
                g = poly_gcd(num, den)
                if g != _ONE:
                    num, den = num // g, den // g
                if den.coeffs[-1] < 0:
                    num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    @staticmethod
    def const(c: Scalar) -> "RatFun":
        return RatFun(_poly([c.numerator]), _poly([c.denominator]), _reduced=True)

    @staticmethod
    def var() -> "RatFun":
        return RatFun(Poly.var(), _ONE, _reduced=True)

    @staticmethod
    def monomial(exp: int, c: Scalar = 1) -> "RatFun":
        """c * s**exp, exp may be negative."""
        c = Fraction(c)
        if not c:
            return RF_ZERO
        num = Poly.monomial(max(exp, 0), c.numerator)
        return RatFun(num, Poly.monomial(max(-exp, 0), c.denominator), _reduced=True)

    def __bool__(self) -> bool:
        """Nonzero, as for int and Fraction, so one truthiness test skips
        zeros whatever the scalars."""
        return bool(self.num)

    def is_constant(self) -> bool:
        return self.num.degree() <= 0 and self.den.degree() == 0

    def as_constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self!r} is not constant")
        return Fraction(self.num[0], self.den[0])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other)
        return (
            isinstance(other, RatFun)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "RatFun") -> "RatFun":
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other)
        # a sum with zero is the other term, already reduced: no gcd
        if not self.num:
            return other
        if not other.num:
            return self
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den, _reduced=True)

    def __sub__(self, other: "RatFun") -> "RatFun":
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "RatFun":
        return (-self) + other

    def __mul__(self, other: "RatFun") -> "RatFun":
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other)
        if not (self.num and other.num):
            return RF_ZERO
        # cross-reduce: the quotients stay coprime, and their products too
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        num = (self.num // g1) * (other.num // g2)
        return RatFun(num, (self.den // g2) * (other.den // g1), _reduced=True)

    __rmul__ = __mul__

    def inverse(self) -> "RatFun":
        if not self.num:
            raise ZeroDivisionError("inverse of the zero function")
        if self.num.coeffs[-1] < 0:
            return RatFun(-self.den, -self.num, _reduced=True)
        return RatFun(self.den, self.num, _reduced=True)

    def __pow__(self, k: int) -> "RatFun":
        out = RF_ONE
        for _ in range(abs(k)):
            out = out * self
        return out if k >= 0 else out.inverse()

    def __truediv__(self, other: "RatFun") -> "RatFun":
        if isinstance(other, (int, Fraction)):
            other = RatFun.const(other)
        return self * other.inverse()

    def __rtruediv__(self, other) -> "RatFun":
        return self.inverse() * other

    def evaluate(self, x: Scalar) -> Fraction:
        dv = self.den.evaluate(x)
        if dv == 0:
            raise ZeroDivisionError(f"denominator vanishes at {x}")
        return self.num.evaluate(x) / dv

    def __repr__(self):
        if self.den == _ONE:
            return f"RatFun({self.num!r})"
        return f"RatFun({self.num!r} / {self.den!r})"


RF_ZERO = RatFun(_ZERO, _ONE, _reduced=True)
RF_ONE = RatFun(_ONE, _ONE, _reduced=True)


def poly_compose(p: Poly, g: RatFun) -> RatFun:
    """p(g) by Horner's rule."""
    acc = RF_ZERO
    for c in reversed(p.coeffs):
        acc = acc * g + RatFun.const(c)
    return acc


def ratfun_compose(f: RatFun, g: RatFun) -> RatFun:
    """f(g) for rational functions (raises if the denominator vanishes)."""
    num = poly_compose(f.num, g)
    den = poly_compose(f.den, g)
    return num / den
