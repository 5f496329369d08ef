"""The one scalar type, factored residues, weight characters."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dt4.eqalg import (DEFAULT_REGISTRY as REG, FactoredScalar,
                       NonGenericWeightError, WeightCharacter,
                       chern_part, euler_of_character, factored_sum, gcd,
                       residue)
from dt4.poly import Poly

from oracles import poly_gcd

S = REG.var("s")
SP = REG.var("sp")
E1 = REG.var("e1")
E2 = REG.var("e2")
SP_W = (0, 1, 0, 0)
SP_FORM = SP_W + (0,)


def rationals():
    return st.fractions(min_value=-8, max_value=8, max_denominator=6)


def linear_scalars():
    """Nonzero-denominator scalars: (a + b s + c e1) / (d + e sp)."""
    c = st.integers(-4, 4)

    def build(a, b, cc, d, e):
        num = REG.const(a) + REG.const(b) * S + REG.const(cc) * E1
        den = REG.const(d) + REG.const(e) * SP
        return num, den
    return st.builds(build, c, c, c, c, c).filter(
        lambda nd: not nd[1].is_zero()).map(lambda nd: nd[0] / nd[1])


def test_registry():
    assert REG.nvars == 4
    assert REG.names == ("s", "sp", "e1", "e2")
    assert REG.index("e2") == 3
    with pytest.raises(KeyError):
        REG.index("nope")
    assert REG.var("e1").num == Poly.variable(4, 2)


def test_const_accepts_fractions():
    half = REG.const(Fraction(1, 2))
    assert half + half == REG.one()
    assert str(half) == "(1)/(2)"


def test_canonical_strings():
    assert str(REG.one()) == "1"
    assert str(REG.const(-3)) == "-3"
    v = REG.one() / (REG.const(4) * S * S)
    assert str(v) == "(1)/(4*s^2)"
    assert str(S / S) == "1"


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
    b = (REG.const(2) * S) / REG.const(4)
    assert b == S / REG.const(2)
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
    assert x + y == REG.one()
    assert x - x == REG.zero()
    assert (x * x.inverse()) == REG.one()
    assert x / y == S / E1
    assert (REG.one() / x) * x == REG.one()
    assert 1 + S == S + 1
    assert 2 * x == x + x
    assert 1 - x == y


def test_pow():
    assert S ** 0 == REG.one()
    assert S ** 3 == S * S * S
    assert S ** -2 == REG.one() / (S * S)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        REG.zero().inverse()
    # a numerator that is no product of forms cannot become a denominator
    with pytest.raises(ValueError, match="not a product of forms"):
        REG.one() / (S * S + E1 * E1)


def test_specialize():
    x = (S + E1) / (S - E1)
    v = x.specialize({"s": Fraction(3), "e1": Fraction(1)})
    assert v == REG.const(2)
    partial = x.specialize({"e1": Fraction(0)})
    assert partial == REG.one()
    # forms become affine; one that becomes constant joins the scalar
    y = REG.one() / (S + E1) / (E1 - E2) / SP
    half = y.specialize({"e1": Fraction(1, 2), "e2": Fraction(-1, 3)})
    assert str(half) == "(12)/(10*s*sp + 5*sp)"
    with pytest.raises(ZeroDivisionError):
        y.specialize({"e1": Fraction(1), "e2": Fraction(1)})


def test_as_fraction():
    assert (REG.const(3) / REG.const(4)).as_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError):
        S.as_fraction()


def factored(num, weights=None):
    """``num`` (a polynomial EqScalar) times the Euler class of the
    weights, as a FactoredScalar."""
    return euler_of_character(WeightCharacter(weights), num.num)


def res(x):
    return residue(x, "sp").canonical()


def test_residue_basics():
    assert res(factored(REG.one(), {SP_W: -1})) == REG.one()
    # s/sp + 5/sp^2
    assert res(factored(S * SP + 5, {SP_W: -2})) == S
    assert res(factored(S + SP * E1)) == REG.zero()
    assert res(FactoredScalar.zero()) == REG.zero()


def test_residue_of_shifted_pole_is_zero_at_origin():
    # pole at sp = -s only; expansion around 0 is regular
    assert res(factored(REG.one(), {(1, 1, 0, 0): -1})) == REG.zero()


def test_residue_expands_mixed_forms():
    # 1/(sp^2 (sp + s)): the sp coefficient of 1/(s (1 + sp/s))
    assert res(factored(REG.one(), {SP_W: -2, (1, 1, 0, 0): -1})) == \
        REG.const(-1) / (S * S)
    # r = -2 e1 is neither primitive nor positive: 1/(sp^2 (sp - 2 e1))
    assert res(factored(REG.one(), {SP_W: -2, (0, 1, -2, 0): -1})) == \
        REG.const(-1) / (REG.const(4) * E1 * E1)
    # (s + sp)/(sp (2 sp + e1)^2) at sp = 0, with an sp-free form passing
    # through
    assert res(factored(REG.one(), {SP_W: -1, (0, 2, 1, 0): -2,
                                    (1, 1, 0, 0): 1, (0, 0, 1, 1): -1})) == \
        S / E1 ** 2 / (E1 + E2)


def test_weight_character_algebra():
    c = WeightCharacter({(1, 0, 0, 0): 2, (0, 0, 1, 0): -1})
    assert c.rank() == 1
    assert (-c).weights == {(1, 0, 0, 0): -2, (0, 0, 1, 0): 1}
    d = WeightCharacter({(1, 0, 0, 0): -2})
    assert (c + d).weights == {(0, 0, 1, 0): -1}
    assert c.conjugate().weights == {(-1, 0, 0, 0): 2, (0, 0, -1, 0): -1}
    assert c.shift((0, 0, 0, 1)).weights == {(1, 0, 0, 1): 2, (0, 0, 1, 1): -1}


def test_weight_character_product():
    a = WeightCharacter({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1})
    b = WeightCharacter({(0, 0, 1, 0): 1})
    assert (a * b).weights == {(1, 0, 1, 0): 1, (0, 1, 1, 0): 1}


def test_euler_of_character():
    c = WeightCharacter({(1, 0, 0, 0): 2, (0, 0, 1, 1): -1})
    assert euler_of_character(c).canonical() == S * S / (E1 + E2)
    with pytest.raises(NonGenericWeightError):
        euler_of_character(WeightCharacter({(0, 0, 0, 0): 1}))


def test_euler_of_zero_multiplicity_weight():
    c = WeightCharacter({(1, 0, 0, 0): 1})
    assert euler_of_character(c + (-c)).canonical() == REG.one()


def test_chern_part():
    c = WeightCharacter({(1, 0, 0, 0): 1, (0, 0, 1, 0): 1})
    assert chern_part(c, 0) == REG.one().num
    assert chern_part(c, 1) == (S + E1).num
    assert chern_part(c, 2) == (S * E1).num
    # zero weights are legal in Chern classes and contribute nothing
    z = WeightCharacter({(0, 0, 0, 0): 3, (1, 0, 0, 0): 1})
    assert chern_part(z, 1) == S.num


def test_chern_part_negative_multiplicity():
    # (1 + s)^-1 expands as 1 - s + s^2 - ...
    c = WeightCharacter({(1, 0, 0, 0): -1})
    assert chern_part(c, 1) == (-S).num
    assert chern_part(c, 2) == (S * S).num


def test_chern_top_equals_euler():
    c = WeightCharacter({(1, 0, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1})
    assert chern_part(c, c.rank()) == euler_of_character(c).canonical().num


@settings(max_examples=40, deadline=None)
@given(linear_scalars(), linear_scalars(), linear_scalars())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    if not a.is_zero():
        assert a * a.inverse() == REG.one()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), rationals()),
                min_size=1, max_size=5))
def test_residue_linearity(terms):
    # sum of c * sp^k has residue = sum of c at k = -1
    x = factored_sum([FactoredScalar((SP ** max(k, 0)).num * c.numerator,
                                     {SP_FORM: -k} if k < 0 else {},
                                     Fraction(1, c.denominator))
                      for k, c in terms])
    expected = REG.zero()
    for k, c in terms:
        if k == -1:
            expected = expected + REG.const(c)
    assert res(x) == expected


# -- the one type's arithmetic against exact evaluation ----------------------

# Every nonzero form with coefficients in [-2, 2] is nonzero at POINT: the
# denominators 3, 19, 2 and 13 are distinct primes, and modulo each of
# them only one coordinate survives.
POINT = {"s": Fraction(7, 3), "sp": Fraction(3, 19), "e1": Fraction(-5, 2),
         "e2": Fraction(11, 13)}
AT = [POINT[n] for n in REG.names] + [Fraction(1)]


def value_at(x):
    """x at POINT from its raw fields, bypassing ``canonical``."""
    den = Fraction(1)
    for p, m in x.forms.items():
        den *= sum(c * v for c, v in zip(p, AT)) ** m
    return x.scalar * x.num.evaluate(
        {i: POINT[n] for i, n in enumerate(REG.names)}) / den


def forms(names=REG.names):
    """Nonzero forms over the named variables, coefficients in [-2, 2]."""
    c = st.integers(-2, 2)
    return st.lists(c, min_size=len(names), max_size=len(names)).map(
        lambda cs: sum((k * REG.var(n) for k, n in zip(cs, names)),
                       REG.zero())).filter(lambda f: not f.is_zero())


def products(names=REG.names):
    """Up to three forms over up to two, times a small rational."""
    return st.tuples(st.lists(forms(names), min_size=1, max_size=3),
                     st.lists(forms(names), max_size=2), rationals()).map(
        lambda t: _quotient(t[0], t[1]) * t[2])


def _quotient(nums, dens):
    out = REG.one()
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
    assert c.den.lead()[1] > 0


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


def factored_terms():
    """(numerator Poly, character) pairs over a small pool of weights."""
    char = st.lists(st.tuples(WEIGHTS, st.integers(-2, 2)), max_size=3).map(
        lambda ws: WeightCharacter(ws))
    num = st.tuples(st.integers(-3, 3), st.lists(WEIGHTS, max_size=2)).map(
        lambda cv: _quotient([REG.const(cv[0])]
                             + [FactoredScalar(Poly.linear_form(w))
                                for w in cv[1]], []).num)
    return st.tuples(num, char)


def euler_by_products(char):
    out = REG.one()
    for w, m in char.items():
        out = out * FactoredScalar(Poly.linear_form(w)) ** m
    return out


@settings(max_examples=40, deadline=None)
@given(st.lists(factored_terms(), min_size=1, max_size=3))
def test_factored_sum_matches_plain_sum(terms):
    plain = REG.zero()
    for num, char in terms:
        e = euler_of_character(char).canonical()
        assert e == euler_by_products(char)
        plain = plain + FactoredScalar(num) * e
    got = factored_sum([euler_of_character(char, num)
                        for num, char in terms])
    assert got == plain
    assert value_at(got) == value_at(plain)
    assert_canonical(got)
