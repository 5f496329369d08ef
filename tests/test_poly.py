"""Exact integer polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dt4.localize import WeightMap
from dt4.poly import Poly, grlex_key, newton_recurrence, poly_str

from oracles import (binomial_product, exact_quotient, linear_power_product,
                     poly_gcd)

# the first three of the ring's four variables, s, sp and e1
X = Poly.variable(0)
Y = Poly.variable(1)
Z = Poly.variable(2)


def small_polys(max_terms=4, max_deg=3, max_coeff=6):
    """Polynomials in X, Y, Z: the fourth exponent stays 0, which keeps
    the reference gcd fast."""
    exps = st.tuples(*[st.integers(0, max_deg)] * 3, st.just(0))
    term = st.tuples(exps, st.integers(-max_coeff, max_coeff))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: Poly({e: c for e, c in ts if c}))


# a non-constant form in s, sp, e1, e2 with a constant part
AFFINE_FORMS = st.tuples(st.tuples(*[st.integers(-3, 3)] * 4).filter(any),
                         st.integers(-3, 3)).map(
    lambda t: Poly.linear_form(*t))

WEIGHTS = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
WEIGHT_PAIRS = st.lists(st.tuples(WEIGHTS, st.integers(-3, 3)), max_size=5)


def rank(x):
    return sum(x.terms.values())


def test_constructor_drops_zero_terms():
    p = Poly({(1, 0, 0, 0): 0, (0, 1, 0, 0): 2})
    assert p.terms == {(0, 1, 0, 0): 2}
    assert Poly().is_zero()


def test_constants_and_variables():
    assert Poly.const(0).is_zero()
    assert Poly.const(1).is_one()
    assert Poly.const(7).const_value() == 7
    assert X.terms == {(1, 0, 0, 0): 1}


def test_linear_form():
    p = Poly.linear_form((2, -1, 3, 0))
    assert p == 2 * X - Y + 3 * Z
    assert p.terms == {(1, 0, 0, 0): 2, (0, 1, 0, 0): -1, (0, 0, 1, 0): 3}
    assert Poly.linear_form((0, 0, 0, 0)).is_zero()
    assert Poly.linear_form((1, 0, 0, 0), -2) == X - Poly.const(2)


def test_grlex_lead():
    # total degree first, then lexicographic on exponents
    p = X * Y + Z * Z * Z
    assert max(p.terms, key=grlex_key) == (0, 0, 3, 0)
    q = X * Y + X * Z
    assert max(q.terms, key=grlex_key) == (1, 1, 0, 0)
    assert grlex_key((1, 1, 0, 0)) > grlex_key((1, 0, 1, 0))


def test_arithmetic_identities():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert (X + Y) ** 2 == X * X + 2 * X * Y + Y * Y
    assert (X - X).is_zero()
    assert (-(X + Y)) + X + Y == Poly()


def test_pow_validation():
    assert (X ** 0).is_one()
    with pytest.raises(ValueError):
        X ** -1


def test_content_primitive():
    p = 6 * X + 9 * Y
    assert p.content() == 3
    assert p.divexact(p.content()) == 2 * X + 3 * Y
    # the content is nonnegative whatever the signs
    assert (-2 * X).content() == 2
    assert Poly().content() == 0


def test_divexact():
    a = (X + Y) * (X - 2 * Y + Z)
    assert a.divexact(X + Y) == X - 2 * Y + Z
    with pytest.raises(ValueError):
        (X * X + Y).divexact(X + Y)


def test_divides():
    assert (X + Y).divides((X + Y) * Z)
    assert not (X + Y).divides(X * Z)


# the reference gcd of tests/oracles.py, which the coprimality checks of
# test_eqalg rely on

def test_gcd_known():
    a = (X + Y) * (X - Y)
    b = (X + Y) * (X + Y)
    assert poly_gcd(a, b) == X + Y
    assert poly_gcd(Poly(), a) == a
    assert poly_gcd(Poly.const(4), Poly.const(6)) == Poly.const(2)
    assert poly_gcd(6 * X * Y, 4 * X * Z) == 2 * X
    assert poly_gcd((Y - X) * (Z + 1), (X - Y) * Z) == X - Y


def evaluate(p, assign):
    """p at a point: the substitution of every variable is a constant."""
    q, scale = p.substitute_scaled(assign)
    return Fraction(q.const_value(), scale)


def test_substitute_scaled():
    # substitute x -> 1/2, leave others symbolic; denominators cleared
    p = X * X + Y
    q, scale = p.substitute_scaled({0: Fraction(1, 2)})
    assert scale == 4
    assert q == Poly.const(1) + 4 * Y
    # q / scale agrees with direct evaluation at any y
    full = {0: Fraction(1, 2), 1: Fraction(3), 2: Fraction(0), 3: Fraction(0)}
    assert (evaluate(q, {**full, 0: Fraction(0)}) / scale
            == evaluate(p, full))


def test_evaluate():
    p = X * X * Y - 3 * Z
    val = evaluate(p, {0: Fraction(2), 1: Fraction(1, 2), 2: Fraction(1),
                       3: Fraction(5)})
    assert val == Fraction(2) ** 2 * Fraction(1, 2) - 3


def test_poly_str():
    # printed in the ring's variables s, sp, e1, e2
    assert poly_str(X + Y) == "s + sp"
    assert poly_str(Poly.const(-4)) == "-4"
    assert poly_str(2 * X * X - Z) == "2*s^2 - e1"
    assert poly_str(Poly.variable(3) ** 2) == "e2^2"


@pytest.mark.parametrize("a", [-24, -3, -1, 0, 1, 2, 5])
def test_newton_recurrence_divisor_sums(a):
    """p_i = -a sigma(i) expands prod (1 - q^m)^a, the q-series route."""
    n = 30
    p = [-a * sum(d for d in range(1, i + 1) if i % d == 0)
         for i in range(n + 1)]
    assert newton_recurrence(p) == binomial_product(a, n)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-4, 4)),
                max_size=4), st.integers(0, 8))
def test_newton_recurrence_linear_factors(pairs, k):
    """p_i = -sum m (-r)^i expands prod (1 + r x)^m, the classical-limit
    route."""
    p = [0] + [-sum(m * (-r) ** i for r, m in pairs) for i in range(1, k + 1)]
    assert newton_recurrence(p) == linear_power_product(pairs, k)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(WEIGHT_PAIRS.map(Poly.from_pairs), WEIGHT_PAIRS.map(Poly.from_pairs),
       WEIGHT_PAIRS.map(Poly.from_pairs), WEIGHTS)
def test_character_arithmetic(a, b, c, v):
    # characters are Laurent polynomials in (e1, e2), weights negative too
    assert rank(a + b) == rank(a) + rank(b)
    assert rank(a - b) == rank(a) - rank(b)
    assert rank(a * b) == rank(a) * rank(b)
    assert a.dual().dual() == a
    assert (a * b).dual() == a.dual() * b.dual()
    assert a * (b + c) == a * b + a * c
    assert a.shift(v) == a * Poly({v: 1})
    for x in (a + b, a - b, a * b, -a, a * 2, a.dual(), a.shift(v)):
        assert 0 not in x.terms.values()


@settings(max_examples=60, deadline=None)
@given(WEIGHT_PAIRS, st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
# (1 - t1)(1 - t2) at a chart with w1 = (1, 0), w2 = (0, 1): on the line
# (1, 1), t1 and t2 both become (1, 0), and a dict literal would keep one
@example([((0, 0), 1), ((1, 0), -1), ((0, 1), -1), ((1, 1), 1)], (1, 1))
def test_from_pairs_sums_repeats_and_drops_zeros(pairs, line):
    x = Poly.from_pairs(pairs)
    assert x == sum((Poly({w: m}) for w, m in pairs), Poly())
    assert rank(x) == sum(m for _, m in pairs)
    assert x.terms == {w: t for w in {w for w, _ in pairs}
                       if (t := sum(m for u, m in pairs if u == w))}
    # weights that one WeightMap line sends to one form add up
    form = WeightMap(line).form
    mapped = Poly.from_pairs((form(w), m) for w, m in pairs)
    assert rank(mapped) == rank(x)
    assert mapped == sum((Poly({form(w): m}) for w, m in pairs), Poly())


@settings(max_examples=40, deadline=None)
@given(small_polys(), st.one_of(st.integers(-6, 6).filter(bool),
                                AFFINE_FORMS))
def test_divexact_inverts_product(a, b):
    assert (a * b).divexact(b) == a


@settings(max_examples=60, deadline=None)
@given(small_polys(), st.one_of(
    st.integers(-6, 6).filter(lambda k: abs(k) > 1).map(Poly.const),
    AFFINE_FORMS))
def test_division_is_exact_or_refused(q, d):
    assert d.divides(q * d) == q
    assert d.divides(q * d + 1) is None
    assert d.divides(Poly()) == Poly()


@settings(max_examples=30, deadline=None)
@given(small_polys(), AFFINE_FORMS, AFFINE_FORMS)
def test_a_divisor_of_degree_two_is_a_type_error(q, f, g):
    # even where it divides, so that no such divisor reads as "does not
    # divide"
    for d in (f * g, f * X * Y + 1, Z ** 3):
        with pytest.raises(TypeError):
            (q * d).divexact(d)
        with pytest.raises(TypeError):
            d.divides(q * d)


@settings(max_examples=30, deadline=None)
@given(small_polys(), small_polys(), small_polys(max_terms=2))
def test_gcd_divides_both(a, b, c):
    if c.is_zero() or (a.is_zero() and b.is_zero()):
        return
    g = poly_gcd(a * c, b * c)
    assert exact_quotient(a * c, g) * g == a * c
    assert exact_quotient(b * c, g) * g == b * c
    assert exact_quotient(g, c) * c == g
