"""The one scalar type, factored residues, the classes of characters."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dt4.eqalg import (FactoredScalar, NonGenericWeightError, chern_part,
                       euler_of_character, exact_str, factored_sum, gcd,
                       residue)
from dt4.poly import NAMES, Poly, grlex_key

from oracles import poly_gcd

S = FactoredScalar.var("s")
SP = FactoredScalar.var("sp")
E1 = FactoredScalar.var("e1")
E2 = FactoredScalar.var("e2")
ZERO = FactoredScalar.const(0)
ONE = FactoredScalar.const(1)
SP_W = (0, 1, 0, 0)
SP_FORM = SP_W + (0,)


def rationals():
    return st.fractions(min_value=-8, max_value=8, max_denominator=6)


def linear_scalars():
    """Nonzero-denominator scalars: (a + b s + c e1) / (d + e sp)."""
    c = st.integers(-4, 4)

    def build(a, b, cc, d, e):
        const = FactoredScalar.const
        num = const(a) + const(b) * S + const(cc) * E1
        den = const(d) + const(e) * SP
        return num, den
    return st.builds(build, c, c, c, c, c).filter(
        lambda nd: not nd[1].is_zero()).map(lambda nd: nd[0] / nd[1])


def test_ring_variables():
    assert NAMES == ("s", "sp", "e1", "e2")
    with pytest.raises(ValueError):
        FactoredScalar.var("nope")
    assert FactoredScalar.var("e1").num == Poly.variable(2)
    assert FactoredScalar.var("e2").num.terms == {(0, 0, 0, 1): 1}


def test_const_accepts_fractions():
    half = FactoredScalar.const(Fraction(1, 2))
    assert half + half == ONE
    assert str(half) == "(1)/(2)"


def test_canonical_strings():
    assert str(ONE) == "1"
    assert str(FactoredScalar.const(-3)) == "-3"
    v = ONE / (FactoredScalar.const(4) * S * S)
    assert str(v) == "(1)/(4*s^2)"
    assert str(S / S) == "1"


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(-10 ** 30, 10 ** 30),
                 st.fractions(max_denominator=10 ** 12)))
@example(0)
@example(Fraction(-6, 3))
@example(Fraction(-3, 4))
def test_exact_str_prints_as_the_scalar(x):
    assert exact_str(x) == str(FactoredScalar.const(x))


def test_gcd_with_forms():
    """Each form divides out as often as it divides the numerator, at most
    its multiplicity, which drops by as much."""
    s, e1 = (1, 0, 0, 0, 0), (0, 0, 1, 0, 0)
    forms = {s: 3, e1: 1}
    assert gcd((S * S * (S + E1)).num, forms) == (S * S).num
    assert forms == {s: 1, e1: 1}
    assert gcd(S.num, {e1: 2}).is_one()


def test_canonical_form_is_unique():
    a = (S * S - E1 * E1) / (S - E1)
    assert a == S + E1
    b = (FactoredScalar.const(2) * S) / FactoredScalar.const(4)
    assert b == S / FactoredScalar.const(2)
    # one value, three representations, one canonical form
    s_plus_e1 = (1, 0, 1, 0, 0)
    for x in (FactoredScalar(2 * S.num, {}, Fraction(1, 4)),
              FactoredScalar(S.num * (S + E1).num, {s_plus_e1: 1},
                             Fraction(1, 2)),
              FactoredScalar(-S.num, {}, Fraction(-1, 2))):
        c = x.canonical()
        assert (c.num, c.forms, c.scalar) == (S.num, {}, Fraction(1, 2))
        assert x == b and hash(x) == hash(b) and str(x) == "(s)/(2)"
        assert c.canonical() is c


def test_field_operations():
    x = S / (S + E1)
    y = E1 / (S + E1)
    assert x + y == ONE
    assert x - x == ZERO
    assert (x * x.inverse()) == ONE
    assert x / y == S / E1
    assert (ONE / x) * x == ONE
    assert 1 + S == S + 1
    assert 2 * x == x + x
    assert 1 - x == y


def test_pow():
    assert S ** 0 == ONE
    assert S ** 3 == S * S * S
    assert S ** -2 == ONE / (S * S)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    # a numerator that is no product of forms cannot become a denominator
    with pytest.raises(ValueError, match="not a product of forms"):
        ONE / (S * S + E1 * E1)


def test_specialize():
    x = (S + E1) / (S - E1)
    v = x.specialize({"s": Fraction(3), "e1": Fraction(1)})
    assert v == FactoredScalar.const(2)
    partial = x.specialize({"e1": Fraction(0)})
    assert partial == ONE
    # forms become affine; one that becomes constant joins the scalar
    y = ONE / (S + E1) / (E1 - E2) / SP
    half = y.specialize({"e1": Fraction(1, 2), "e2": Fraction(-1, 3)})
    assert str(half) == "(12)/(10*s*sp + 5*sp)"
    with pytest.raises(ZeroDivisionError):
        y.specialize({"e1": Fraction(1), "e2": Fraction(1)})


def test_as_fraction():
    three_quarters = FactoredScalar.const(3) / FactoredScalar.const(4)
    assert three_quarters.as_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError):
        S.as_fraction()


def factored(num, weights=None):
    """``num`` (a polynomial FactoredScalar) times the Euler class of the
    weights, as a FactoredScalar."""
    return num * euler_of_character(Poly(weights))


def res(x):
    return residue(x, "sp").canonical()


def test_residue_basics():
    assert res(factored(ONE, {SP_W: -1})) == ONE
    # s/sp + 5/sp^2
    assert res(factored(S * SP + 5, {SP_W: -2})) == S
    assert res(factored(S + SP * E1)) == ZERO
    assert res(ZERO) == ZERO


def test_residue_of_shifted_pole_is_zero_at_origin():
    # pole at sp = -s only; expansion around 0 is regular
    assert res(factored(ONE, {(1, 1, 0, 0): -1})) == ZERO


def test_residue_expands_mixed_forms():
    # 1/(sp^2 (sp + s)): the sp coefficient of 1/(s (1 + sp/s))
    assert res(factored(ONE, {SP_W: -2, (1, 1, 0, 0): -1})) == \
        FactoredScalar.const(-1) / (S * S)
    # r = -2 e1 is neither primitive nor positive: 1/(sp^2 (sp - 2 e1))
    assert res(factored(ONE, {SP_W: -2, (0, 1, -2, 0): -1})) == \
        FactoredScalar.const(-1) / (FactoredScalar.const(4) * E1 * E1)
    # (s + sp)/(sp (2 sp + e1)^2) at sp = 0, with an sp-free form passing
    # through
    assert res(factored(ONE, {SP_W: -1, (0, 2, 1, 0): -2,
                                    (1, 1, 0, 0): 1, (0, 0, 1, 1): -1})) == \
        S / E1 ** 2 / (E1 + E2)


def test_weight_character_algebra():
    c = Poly({(1, 0, 0, 0): 2, (0, 0, 1, 0): -1})
    assert sum(c.terms.values()) == 1
    assert (-c).terms == {(1, 0, 0, 0): -2, (0, 0, 1, 0): 1}
    d = Poly({(1, 0, 0, 0): -2})
    assert (c + d).terms == {(0, 0, 1, 0): -1}
    assert c.dual().terms == {(-1, 0, 0, 0): 2, (0, 0, -1, 0): -1}
    assert c.shift((0, 0, 0, 1)).terms == {(1, 0, 0, 1): 2, (0, 0, 1, 1): -1}
    assert Poly.from_pairs([((1, 0, 0, 0), 2), ((1, 0, 0, 0), -2),
                            ((0, 0, 1, 0), 1), ((0, 0, 1, 0), 1)]).terms \
        == {(0, 0, 1, 0): 2}


def test_weight_character_product():
    a = Poly({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1})
    b = Poly({(0, 0, 1, 0): 1})
    assert (a * b).terms == {(1, 0, 1, 0): 1, (0, 1, 1, 0): 1}


def test_euler_of_character():
    c = Poly({(1, 0, 0, 0): 2, (0, 0, 1, 1): -1})
    assert euler_of_character(c).canonical() == S * S / (E1 + E2)
    with pytest.raises(NonGenericWeightError):
        euler_of_character(Poly({(0, 0, 0, 0): 1}))


def test_euler_of_zero_multiplicity_weight():
    c = Poly({(1, 0, 0, 0): 1})
    assert euler_of_character(c + (-c)).canonical() == ONE


def test_chern_part():
    c = Poly({(1, 0, 0, 0): 1, (0, 0, 1, 0): 1})
    assert chern_part(c, 0) == ONE.num
    assert chern_part(c, 1) == (S + E1).num
    assert chern_part(c, 2) == (S * E1).num
    # zero weights are legal in Chern classes and contribute nothing
    z = Poly({(0, 0, 0, 0): 3, (1, 0, 0, 0): 1})
    assert chern_part(z, 1) == S.num


def test_chern_part_negative_multiplicity():
    # (1 + s)^-1 expands as 1 - s + s^2 - ...
    c = Poly({(1, 0, 0, 0): -1})
    assert chern_part(c, 1) == (-S).num
    assert chern_part(c, 2) == (S * S).num


def test_chern_top_equals_euler():
    c = Poly({(1, 0, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1})
    assert chern_part(c, sum(c.terms.values())) == \
        euler_of_character(c).canonical().num


@settings(max_examples=40, deadline=None)
@given(linear_scalars(), linear_scalars(), linear_scalars())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    if not a.is_zero():
        assert a * a.inverse() == ONE


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), rationals()),
                min_size=1, max_size=5))
def test_residue_linearity(terms):
    # sum of c * sp^k has residue = sum of c at k = -1
    x = factored_sum([FactoredScalar((SP ** max(k, 0)).num * c.numerator,
                                     {SP_FORM: -k} if k < 0 else {},
                                     Fraction(1, c.denominator))
                      for k, c in terms])
    expected = ZERO
    for k, c in terms:
        if k == -1:
            expected = expected + FactoredScalar.const(c)
    assert res(x) == expected


# -- the one type's arithmetic against exact evaluation ----------------------

# Every nonzero form with coefficients in [-2, 2] is nonzero at POINT: the
# denominators 3, 19, 2 and 13 are distinct primes, and modulo each of
# them only one coordinate survives.
POINT = {"s": Fraction(7, 3), "sp": Fraction(3, 19), "e1": Fraction(-5, 2),
         "e2": Fraction(11, 13)}
AT = [POINT[n] for n in NAMES] + [Fraction(1)]


def value_at(x):
    """x at POINT from its raw fields, bypassing ``canonical``."""
    den = Fraction(1)
    for p, m in x.forms.items():
        den *= sum(c * v for c, v in zip(p, AT)) ** m
    num, scale = x.num.substitute_scaled(
        {i: POINT[n] for i, n in enumerate(NAMES)})
    return x.scalar * Fraction(num.const_value(), scale) / den


def forms(names=NAMES):
    """Nonzero forms over the named variables, coefficients in [-2, 2]."""
    c = st.integers(-2, 2)
    return st.lists(c, min_size=len(names), max_size=len(names)).map(
        lambda cs: sum((k * FactoredScalar.var(n) for k, n in zip(cs, names)),
                       ZERO)).filter(lambda f: not f.is_zero())


def products(names=NAMES):
    """Up to three forms over up to two, times a small rational."""
    return st.tuples(st.lists(forms(names), min_size=1, max_size=3),
                     st.lists(forms(names), max_size=2), rationals()).map(
        lambda t: _quotient(t[0], t[1]) * t[2])


def _quotient(nums, dens):
    out = ONE
    for x in nums:
        out = out * x
    for x in dens:
        out = out / x
    return out


def assert_canonical(x):
    c = x.canonical()
    if c.num.is_zero():
        assert (c.forms, c.scalar) == ({}, 1)
        return
    assert c.scalar.numerator == 1
    assert poly_gcd(c.num, c.den).is_one()
    assert c.den.terms[max(c.den.terms, key=grlex_key)] > 0


@settings(max_examples=60, deadline=None)
@given(products(), products(), forms(), st.integers(-3, 3))
def test_arithmetic_results_are_canonical(a, b, f, k):
    """``+ - *`` of any two scalars and ``/`` by a form or an s-monomial,
    over forms in all four variables, against exact evaluation."""
    va, vb, vf = value_at(a), value_at(b), value_at(f)
    assert value_at(a + b) == va + vb
    assert value_at(a - b) == va - vb
    assert value_at(b - 1) == vb - 1
    assert value_at(a * b) == va * vb
    assert value_at(a / f) == va / vf
    assert value_at(a / S ** k) == va / POINT["s"] ** k
    assert value_at(2 / f) == 2 / vf
    for x in (a + b, a * b, a / f):
        c = x.canonical()
        assert value_at(c) == value_at(x)
        assert str(c) == str(x)
    assert a + b == b + a and a * b == b * a
    assert (a - b) + b == a
    assert (a / f) * f == a


@settings(max_examples=40, deadline=None)
@given(products(("s", "e1", "e2")), products(("s", "e1", "e2")),
       forms(("s", "e1", "e2")))
def test_homogeneous_results_are_coprime(a, b, f):
    """On the homogeneous (s, e1, e2) subset, where the reference gcd is
    fast, the canonical numerator and denominator are coprime."""
    for x in (a + b, a - b, a * b, a / f):
        assert_canonical(x)


@settings(max_examples=40, deadline=None)
@given(products(), products())
def test_specialisation_matches_evaluation(a, b):
    """Specialising the chart parameters, then s and sp, keeps the value."""
    x = a + b
    eps = {"e1": POINT["e1"], "e2": POINT["e2"]}
    on_point = x.specialize(eps)
    assert all(p[2:4] == (0, 0) for p in on_point.forms)
    assert value_at(on_point) == value_at(x)
    assert on_point == a.specialize(eps) + b.specialize(eps)
    assert on_point.specialize(POINT).as_fraction() == value_at(x)


WEIGHTS = st.tuples(st.integers(-1, 1), st.just(0), st.integers(-1, 1),
                    st.integers(-1, 1)).filter(any)


def _num(c, weights):
    """The numerator c * prod(weights) of a factored term."""
    out = Poly.const(c)
    for w in weights:
        out = out * Poly.linear_form(w)
    return out


def factored_terms():
    """(numerator Poly, character) pairs over a small pool of weights."""
    char = st.lists(st.tuples(WEIGHTS, st.integers(-2, 2)), max_size=3).map(
        Poly.from_pairs)
    num = st.tuples(st.integers(-3, 3), st.lists(WEIGHTS, max_size=2)).map(
        lambda cv: _num(*cv))
    return st.tuples(num, char)


def assert_reduced_over_forms(x):
    """``assert_canonical`` without a gcd, for inhomogeneous numerators.
    The denominator is q times primitive forms with a positive leading
    coefficient, so the fraction is reduced iff the numerator's content is
    coprime to q and the numerator vanishes on no form's hyperplane: with
    p = a x_i + r, a^deg num(x_i = -r / a) is not zero."""
    c = x.canonical()
    if c.num.is_zero():
        assert (c.forms, c.scalar) == ({}, 1)
        return
    assert c.scalar.numerator == 1
    assert math.gcd(c.num.content(), c.scalar.denominator) == 1
    for p in c.forms:
        i = next(i for i, a in enumerate(p) if a)
        assert math.gcd(*p) == 1 and p[i] > 0
        r = Poly.linear_form(p[:i] + (0,) + p[i + 1:-1], p[-1])
        parts = c.num.by_var(i)
        top = max(parts)
        assert not sum((q * (-r) ** d * p[i] ** (top - d)
                        for d, q in parts.items()), Poly()).is_zero(), p
    assert c.den.terms[max(c.den.terms, key=grlex_key)] > 0


def euler_by_products(char):
    out = ONE
    for w, m in char.terms.items():
        out = out * FactoredScalar(Poly.linear_form(w)) ** m
    return out


@settings(max_examples=40, deadline=None)
@given(st.lists(factored_terms(), min_size=1, max_size=3))
# a draw that once took half a minute when checked with a polynomial gcd
@example([(_num(2, [(0, 0, 0, 1), (0, 0, 1, -1)]),
           Poly({(-1, 0, 1, 0): 1, (-1, 0, 1, 1): -2})),
          (_num(2, [(0, 0, 0, 1), (-1, 0, 1, 0)]), Poly()),
          (_num(-3, [(1, 0, 0, 0), (1, 0, 1, -1)]),
           Poly({(0, 0, 0, 1): -2, (1, 0, 0, 1): -2, (1, 0, 1, -1): 2}))])
def test_factored_sum_matches_plain_sum(terms):
    plain = ZERO
    for num, char in terms:
        e = euler_of_character(char).canonical()
        assert e == euler_by_products(char)
        plain = plain + FactoredScalar(num) * e
    got = factored_sum([FactoredScalar(num) * euler_of_character(char)
                        for num, char in terms])
    assert got == plain
    assert value_at(got) == value_at(plain)
    assert_reduced_over_forms(got)
