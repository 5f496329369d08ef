"""Exact integer polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dt4.poly import Poly, gcd, grlex_key, poly_str

from oracles import generic_gcd

X = Poly.variable(3, 0)
Y = Poly.variable(3, 1)
Z = Poly.variable(3, 2)


def small_polys(nvars=3, max_terms=4, max_deg=3, max_coeff=6):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
    term = st.tuples(exps, st.integers(-max_coeff, max_coeff))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: Poly(nvars, {e: c for e, c in ts if c}))


def test_constructor_drops_zero_terms():
    p = Poly(2, {(1, 0): 0, (0, 1): 2})
    assert p.terms == {(0, 1): 2}


def test_constants_and_variables():
    assert Poly.const(3, 0).is_zero()
    assert Poly.const(3, 1).is_one()
    assert Poly.const(3, 7).const_value() == 7
    assert X.terms == {(1, 0, 0): 1}


def test_linear_form():
    p = Poly.linear_form((2, -1, 3))
    assert p == 2 * X - Y + 3 * Z
    assert p.terms == {(1, 0, 0): 2, (0, 1, 0): -1, (0, 0, 1): 3}
    assert Poly.linear_form((0, 0, 0)).is_zero()


def test_support_vars():
    p = X * X + Z
    assert p.support_vars() == {0, 2}
    assert Poly.const(3, 5).support_vars() == set()


def test_grlex_lead():
    # total degree first, then lexicographic on exponents
    p = X * Y + Z * Z * Z
    assert p.lead()[0] == (0, 0, 3)
    q = X * Y + X * Z
    assert q.lead()[0] == (1, 1, 0)
    assert grlex_key((1, 1, 0)) > grlex_key((1, 0, 1))


def test_arithmetic_identities():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert (X + Y) ** 2 == X * X + 2 * X * Y + Y * Y
    assert (X - X).is_zero()
    assert (-(X + Y)) + X + Y == Poly.zero(3)


def test_pow_validation():
    assert (X ** 0).is_one()
    with pytest.raises(ValueError):
        X ** -1


def test_content_primitive():
    p = 6 * X + 9 * Y
    assert p.content() == 3
    assert p.primitive() == (3, 2 * X + 3 * Y)
    # signed content follows the leading coefficient
    assert (-2 * X).primitive() == (-2, X)


def test_divexact():
    a = (X + Y) * (X - 2 * Y + Z)
    assert a.divexact(X + Y) == X - 2 * Y + Z
    with pytest.raises(ValueError):
        (X * X + Y).divexact(X + Y)


def test_divides():
    assert (X + Y).divides((X + Y) * Z)
    assert not (X + Y).divides(X * Z)


def test_gcd_known():
    a = (X + Y) * (X - Y)
    b = (X + Y) * (X + Y)
    g = gcd(a, b)
    assert g == X + Y or g == -(X + Y)
    assert gcd(Poly.zero(3), a) == a
    assert gcd(Poly.const(3, 4), Poly.const(3, 6)).const_value() in (2, -2)


def test_substitute_scaled():
    # substitute x -> 1/2, leave others symbolic; denominators cleared
    p = X * X + Y
    q, scale = p.substitute_scaled({0: Fraction(1, 2)})
    assert scale == 4
    assert q == Poly.const(3, 1) + 4 * Y
    # q / scale agrees with direct evaluation at any y
    full = q.evaluate({0: Fraction(0), 1: Fraction(3), 2: Fraction(0)})
    assert Fraction(full, scale) == p.evaluate({0: Fraction(1, 2),
                                                1: Fraction(3),
                                                2: Fraction(0)})


def test_evaluate():
    p = X * X * Y - 3 * Z
    val = p.evaluate({0: Fraction(2), 1: Fraction(1, 2), 2: Fraction(1)})
    assert val == Fraction(2) ** 2 * Fraction(1, 2) - 3


def test_poly_str():
    names = ("x", "y", "z")
    assert poly_str(X + Y, names) == "x + y"
    assert poly_str(Poly.const(3, -4), names) == "-4"
    assert poly_str(2 * X * X - Z, names) in ("2*x^2 - z", "-z + 2*x^2")


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_divexact_inverts_product(a, b):
    if b.is_zero():
        return
    assert (a * b).divexact(b) == a


@settings(max_examples=30, deadline=None)
@given(small_polys(), small_polys())
def test_gcd_divides_both(a, b):
    if a.is_zero() and b.is_zero():
        return
    g = gcd(a, b)
    assert g.divides(a) and g.divides(b)


@settings(max_examples=60, deadline=None)
@given(small_polys(max_terms=1), small_polys())
def test_monomial_gcd_matches_recursion(m, b):
    if m.is_zero() or b.is_zero():
        return
    assert gcd(m, b) == generic_gcd(m, b)
    assert gcd(b, m) == generic_gcd(b, m)
