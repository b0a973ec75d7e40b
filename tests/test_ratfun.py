from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superjordan.ratfun import Poly, RatFun, poly_gcd, ratfun_compose

from conftest import LimitUndefined, limit_at_zero, try_limit_at_zero, valuation

coeffs = st.integers(min_value=-4, max_value=4)
polys = st.lists(coeffs, min_size=0, max_size=4).map(Poly)
nonzero_polys = polys.filter(bool)


@st.composite
def ratfuns(draw):
    num = draw(polys)
    den = draw(nonzero_polys)
    return RatFun(num, den)


nonzero_ratfuns = ratfuns().filter(bool)


def test_valuation_examples():
    s = RatFun.var()
    assert valuation(s / (1 + s)) == 1
    assert valuation(1 / s) == -1
    assert valuation(RatFun.const(0)) == inf


def test_limit_examples():
    s = RatFun.var()
    assert limit_at_zero((2 * s + 3) / (s * s + 1)) == 3
    assert limit_at_zero(s * s / s) == 0
    with pytest.raises(LimitUndefined):
        limit_at_zero(1 / s)
    assert try_limit_at_zero(1 / s) is None


def test_normal_form_over_the_integers():
    s = RatFun.var()
    f = (2 * s * s + 2 * s) / (4 * s)  # = (s+1)/2
    assert (f.num, f.den) == (Poly([1, 1]), Poly([2]))
    g = RatFun(Poly([2, 2]), Poly([4]))
    assert g == f and hash(g) == hash(f)
    # the sign sits in the numerator
    h = RatFun(Poly([1, 1]), Poly([-2]))
    assert (h.num, h.den) == (Poly([-1, -1]), Poly([2])) and h == -f
    half = RatFun.const(Fraction(1, 2))
    assert (half.num, half.den) == (Poly([1]), Poly([2]))
    assert RatFun(Poly([0, 1]), Poly([0, 2])).as_constant() == Fraction(1, 2)  # s/(2s)
    assert (f.inverse().num, f.inverse().den) == (Poly([2]), Poly([1, 1]))
    assert RatFun(Poly([3]), Poly([-1, -1])) == RatFun(Poly([-3]), Poly([1, 1]))


def test_gcd_over_the_integers():
    a = Poly([1, 2, 1])  # (1+s)^2
    b = Poly([1, 1])
    assert poly_gcd(a, b) == Poly([1, 1])
    # the integer contents meet too, and the leading coefficient is positive
    assert poly_gcd(Poly([-4, -4]), Poly([6, 12, 6])) == Poly([2, 2])
    assert poly_gcd(Poly([4, 6]), Poly([6])) == Poly([2])
    assert poly_gcd(Poly(), Poly([-2, 1, -3])) == Poly([2, -1, 3])
    assert poly_gcd(Poly(), Poly()) == Poly()


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=100, deadline=None)
def test_gcd_divides_and_is_greatest(a, b, c):
    g = poly_gcd(a * c, b * c)
    assert g.coeffs[-1] > 0
    # g divides both (``//`` raises on a remainder), and is gcd(a, b) c up to sign
    assert (a * c) // g * g == a * c and (b * c) // g * g == b * c
    assert g in (poly_gcd(a, b) * c, -(poly_gcd(a, b) * c))


def test_coefficients_are_ints():
    for bad in ([Fraction(1, 2)], [1, 0.5], [Fraction(2)]):
        with pytest.raises(TypeError):
            Poly(bad)
    s = Poly.var()
    with pytest.raises(TypeError):
        s + Fraction(1, 2)
    with pytest.raises(TypeError):
        s * 0.5
    assert all(type(c) is int for c in (s * s - 2 * s + 3).coeffs)


@given(ratfuns(), ratfuns(), ratfuns())
@settings(max_examples=60, deadline=None)
def test_field_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + RatFun.const(0) == f
    assert f * RatFun.const(1) == f


@given(nonzero_ratfuns)
@settings(max_examples=40, deadline=None)
def test_multiplicative_inverse(f):
    assert f * f.inverse() == RatFun.const(1)


@given(nonzero_ratfuns, nonzero_ratfuns)
@settings(max_examples=60, deadline=None)
def test_valuation_additivity(f, g):
    assert valuation(f * g) == valuation(f) + valuation(g)


@given(ratfuns(), ratfuns())
@settings(max_examples=60, deadline=None)
def test_limit_additivity(f, g):
    lf, lg = try_limit_at_zero(f), try_limit_at_zero(g)
    if lf is None or lg is None:
        return
    total = try_limit_at_zero(f + g)
    # the sum can only be better-behaved than its parts
    assert total == lf + lg


def test_compose():
    s = RatFun.var()
    f = (1 + s) / (1 - s)
    g = ratfun_compose(f, s * s)
    assert g == (1 + s * s) / (1 - s * s)


def test_evaluate():
    s = RatFun.var()
    f = (2 * s + 3) / (s - 1)
    assert f.evaluate(2) == 7
    with pytest.raises(ZeroDivisionError):
        f.evaluate(1)


@given(polys, nonzero_polys)
@settings(max_examples=150, deadline=None)
def test_exact_division_undoes_multiplication(a, b):
    assert (a * b) // b == a
    assert (b * a) // b == a


def test_exact_division_raises_on_a_remainder():
    s = Poly.var()
    with pytest.raises(ArithmeticError):
        (s * s + 1) // (s + 1)
    with pytest.raises(ArithmeticError):
        Poly([1]) // s
    with pytest.raises(ZeroDivisionError):
        s // Poly()
    with pytest.raises(ZeroDivisionError):
        s // 0
    # a constant divides only the multiples of its value
    assert Poly([2, 4]) // 2 == Poly([1, 2]) == Poly([2, 4]) // Poly([2])
    assert Poly([-3, 6]) // -3 == Poly([1, -2])
    with pytest.raises(ArithmeticError):
        Poly([2, 3]) // 2
    with pytest.raises(ArithmeticError):
        Poly([0, 2]) // Poly([0, 4])


@given(polys, coeffs)
@settings(max_examples=60, deadline=None)
def test_numbers_act_on_either_side(p, c):
    const = Poly([c])
    assert p + c == c + p == p + const
    assert p - c == p - const
    assert c - p == const - p
    assert p * c == c * p == p * const
    assert 0 + p == p == 1 * p == p * 1 and 0 * p == Poly()
