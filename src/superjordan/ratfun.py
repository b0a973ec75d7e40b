"""Exact univariate polynomials and rational functions over the rationals.

Scalars are ``fractions.Fraction`` (arbitrary-precision, always reduced).
``Poly`` is a dense univariate polynomial in one formal variable ``s``, an
element of the ring Q[s]: ``+``, ``-`` and ``*`` take a number on either
side, and ``//`` is exact division, which raises on a remainder.
``RatFun`` is a reduced fraction of two polynomials with a monic
denominator, so equality is structural equality.  The kernels run on tables
cleared to Q[s] (``linalg.clear_denominators``), and the witness replay
takes its t -> 0 limits from the orders of ``Poly`` numerators and
denominators (``Poly.ord``), not from ``RatFun``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, inf
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _normalize(coeffs: Iterable[Scalar]) -> tuple[Fraction, ...]:
    cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _coerce(x: Union["Poly", Scalar]) -> "Poly":
    """x as a Poly: a number as a constant."""
    return x if isinstance(x, Poly) else Poly((x,))


class Poly:
    """Univariate polynomial with Fraction coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    # construction helpers
    @staticmethod
    def const(c: Scalar) -> "Poly":
        return Poly([c])

    @staticmethod
    def var() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def monomial(exp: int, c: Scalar = 1) -> "Poly":
        if exp < 0:
            raise ValueError("monomial exponent must be >= 0")
        return Poly([0] * exp + [c])

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

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
            if c != 0:
                return i
        raise AssertionError("unnormalized polynomial")

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: Union["Poly", Scalar]) -> "Poly":
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
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: Union["Poly", Scalar]) -> "Poly":
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Poly":
        return -self + other

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
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
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb != 0:
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __floordiv__(self, other: Union["Poly", Scalar]) -> "Poly":
        """self / other; raises ArithmeticError when other does not divide self."""
        other = _coerce(other)
        if not self.coeffs and other.coeffs:
            return self
        if other.degree() == 0:  # a nonzero constant divides every polynomial
            c = other.coeffs[0]
            return self if c == 1 else Poly([x / c for x in self.coeffs])
        quot, rem = self.divmod(other)
        if rem:
            raise ArithmeticError(f"{other!r} does not divide {self!r}")
        return quot

    def scale(self, c: Scalar) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly()
        return Poly([c * x for x in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == 1:
            return self
        return self.scale(1 / lead)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree()
        if dn < dd:
            return Poly(), self
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            c = rem[dd + k] / lead
            quot[k] = c
            if c != 0:
                for j, oc in enumerate(other.coeffs):
                    rem[j + k] -= c * oc
        return Poly(quot), Poly(rem)

    def evaluate(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # integer content / primitive part, used to keep gcd chains canonical
    def content_and_primitive(self) -> tuple[Fraction, "Poly"]:
        if self.is_zero():
            return Fraction(0), self
        num_gcd = 0
        den_lcm = 1
        for c in self.coeffs:
            num_gcd = int_gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
        content = Fraction(num_gcd, den_lcm)
        if self.leading() < 0:
            content = -content
        return content, self.scale(1 / content)

    def __repr__(self):
        if self.is_zero():
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


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via a content/primitive-part Euclidean chain."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    _, a = a.content_and_primitive()
    _, b = b.content_and_primitive()
    while not b.is_zero():
        _, r = a.divmod(b)
        if not r.is_zero():
            _, r = r.content_and_primitive()
        a, b = b, r
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    """Monic lcm of two nonzero polynomials; a gcd only when neither divides
    the other trivially (equal, or one of them constant)."""
    if b.degree() == 0 or a == b:
        return a.monic()
    if a.degree() == 0:
        return b.monic()
    return (a * b.divmod(poly_gcd(a, b))[0]).monic()


_ZERO = Poly()
_ONE = Poly([1])


class RatFun:
    """Reduced quotient of polynomials; denominator monic and coprime to numerator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _ONE, _reduced: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _reduced:
            if num.is_zero():
                den = _ONE
            else:
                g = poly_gcd(num, den)
                if g.degree() > 0:
                    num, _ = num.divmod(g)
                    den, _ = den.divmod(g)
                lead = den.leading()
                if lead != 1:
                    num = num.scale(1 / lead)
                    den = den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    @staticmethod
    def const(c: Scalar) -> "RatFun":
        return RatFun(Poly.const(c), _ONE, _reduced=True)

    @staticmethod
    def var() -> "RatFun":
        return RatFun(Poly.var(), _ONE, _reduced=True)

    @staticmethod
    def monomial(exp: int, c: Scalar = 1) -> "RatFun":
        """c * s**exp, exp may be negative."""
        if exp >= 0:
            return RatFun(Poly.monomial(exp, c), _ONE, _reduced=True)
        return RatFun(Poly.const(c), Poly.monomial(-exp))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        """Nonzero, as for int and Fraction, so one truthiness test skips
        zeros whatever the scalars."""
        return not self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.degree() <= 0 and self.den.degree() == 0

    def as_constant(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self!r} is not constant")
        if self.num.is_zero():
            return Fraction(0)
        return self.num.coeffs[0] / self.den.coeffs[0]

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
        if self.is_zero() or other.is_zero():
            return RF_ZERO
        # cross-reduce first to keep intermediate degrees small
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num if g1.degree() <= 0 else self.num.divmod(g1)[0]
        d2 = other.den if g1.degree() <= 0 else other.den.divmod(g1)[0]
        n2 = other.num if g2.degree() <= 0 else other.num.divmod(g2)[0]
        d1 = self.den if g2.degree() <= 0 else self.den.divmod(g2)[0]
        num = n1 * n2
        den = d1 * d2
        lead = den.leading()
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        return RatFun(num, den, _reduced=True)

    __rmul__ = __mul__

    def inverse(self) -> "RatFun":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        return RatFun(self.den, self.num)

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
