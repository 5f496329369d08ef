"""Vertex characters, Euler-class sums, and the component integrals."""

import functools
import random
from fractions import Fraction

import pytest

from dt4.eqalg import (DEFAULT_REGISTRY as REG, NonGenericWeightError,
                       WeightCharacter, chern_part, euler_of_character)
from dt4.localize import (SYMBOLIC, PrefactorData, TwistedBundleSpec,
                          _mochizuki_term, assemble_sum, chi_character,
                          difference_character, mochizuki_coefficient,
                          pure_s_monomial, tangent_character,
                          tautological_character, twisted_tangent_character,
                          typeII_component_integral)
from dt4.partitions import HilbFixedPoint, hilb_fixed_points
from dt4.surfaces import from_preset

from oracles import tangent_weights_oracle

S = REG.var("s")
PLANE = from_preset("plane")
QUADRIC = from_preset("quadric")
UNIT_PREFACTOR = PrefactorData.from_numbers(0, 0, 0, 0, 0)
LINE = (89, -55)
AT_ORIGIN = {"e1": Fraction(0)}


def classical_integral(model, L, n1, n2, **kw):
    """Unit-prefactor integral, restricted to a generic parameter line and
    evaluated at its origin."""
    val = typeII_component_integral(model, L, n1=n1, n2=n2,
                                    prefactor=UNIT_PREFACTOR,
                                    eps_line=LINE, **kw)
    return val.specialize(AT_ORIGIN)


# -- bundle specs ----------------------------------------------------------

def test_twisted_bundle_spec():
    spec = TwistedBundleSpec.make({"H": 2, "A": -1}, t_weight=1)
    assert spec.divisor == (("A", -1), ("H", 2))
    assert spec.divisor_map() == {"A": -1, "H": 2}
    assert TwistedBundleSpec.make(None).divisor == ()


# -- characters ------------------------------------------------------------

def test_tangent_matches_deformation_oracle():
    for model in (PLANE, QUADRIC):
        for n in range(4):
            for fp in hilb_fixed_points(model, n):
                got = tangent_character(fp, model)
                assert got.weights == tangent_weights_oracle(fp, model)
                assert got.rank() == 2 * n


def test_twisted_tangent_shifts_charts():
    fp = hilb_fixed_points(PLANE, 2)[0]
    spec = TwistedBundleSpec.make({"H": 1}, t_weight=1)
    plain = tangent_character(fp, PLANE)
    twisted = twisted_tangent_character(fp, spec, PLANE)
    assert twisted.rank() == plain.rank()
    # every twisted weight carries the t-grading
    assert all(w[0] == 1 for w in twisted.weights)


def test_chi_character_rank():
    for model, div in ((PLANE, {"H": 1}), (QUADRIC, {"A": 1, "B": 1})):
        chi = model.chi(div)
        for n1 in range(3):
            for n2 in range(3 - n1):
                for fp1 in hilb_fixed_points(model, n1):
                    for fp2 in hilb_fixed_points(model, n2):
                        c = chi_character(fp1, fp2, div, model)
                        assert c.rank() == chi - n1 - n2


def test_difference_character_rank_and_consistency():
    div = {"H": 2}
    for n1, n2 in ((0, 0), (1, 0), (1, 1), (2, 1)):
        for fp1 in hilb_fixed_points(PLANE, n1)[:4]:
            for fp2 in hilb_fixed_points(PLANE, n2)[:4]:
                d = difference_character(fp1, fp2, div, PLANE)
                assert d.rank() == n1 + n2
                c = chi_character(fp1, fp2, div, PLANE)
                total = WeightCharacter(
                    {(0, 0) + w: m
                     for w, m in PLANE.cohomology_character(div).items()})
                assert (c + d).weights == total.weights


def test_diagonal_difference_of_trivial_bundle_is_tangent():
    # nested pair (I, I) with no twist deforms exactly like one ideal
    for n in range(4):
        for fp in hilb_fixed_points(PLANE, n):
            d = difference_character(fp, fp, None, PLANE)
            assert d.weights == tangent_character(fp, PLANE).weights


def test_tautological_character():
    for n in range(4):
        for fp in hilb_fixed_points(QUADRIC, n):
            t = tautological_character(fp, None, QUADRIC)
            assert t.rank() == n
    fp = hilb_fixed_points(PLANE, 1)[0]
    plain = tautological_character(fp, None, PLANE)
    tw = tautological_character(fp, {"H": 1}, PLANE)
    assert plain.rank() == tw.rank() == 1
    assert plain.weights != tw.weights


@pytest.mark.parametrize("left,right", [("plane", "hirzebruch2"),
                                        ("quadric", "hirzebruch1")])
def test_characters_add_over_disjoint_unions(left, right):
    a, b = from_preset(left), from_preset(right)
    union = a.disjoint_union(b)
    da = {k: i + 1 for i, k in enumerate(a.basis)}
    db = {k: 1 - 2 * i for i, k in enumerate(b.basis)}
    du = {**{"a." + k: v for k, v in da.items()},
          **{"b." + k: v for k, v in db.items()}}
    sa, sb, su = (TwistedBundleSpec.make(d, 1, -2) for d in (da, db, du))
    points = [(fa, fb)
              for fa in [p for n in range(3) for p in hilb_fixed_points(a, n)]
              for fb in [p for n in range(2) for p in hilb_fixed_points(b, n)]]

    def joined(fa, fb):
        return HilbFixedPoint(fa.assignment + fb.assignment)

    for fa, fb in points:
        fu = joined(fa, fb)
        assert (tangent_character(fu, union)
                == tangent_character(fa, a) + tangent_character(fb, b))
        for char in (twisted_tangent_character, tautological_character):
            assert char(fu, su, union) == char(fa, sa, a) + char(fb, sb, b)
    for (fa1, fb1), (fa2, fb2) in zip(points + points,
                                      points + points[::-1]):
        f1, f2 = joined(fa1, fb1), joined(fa2, fb2)
        for char in (chi_character, difference_character):
            assert (char(f1, f2, su, union)
                    == char(fa1, fa2, sa, a) + char(fb1, fb2, sb, b))


# -- prefactors ------------------------------------------------------------

def test_prefactor_k3_numbers():
    pre = PrefactorData.from_numbers(2, 2, 2, 0, 0)
    assert pre.value() == REG.one() / (REG.const(4) * S * S)


def test_prefactor_from_model():
    pre = PrefactorData.from_model(PLANE, {"H": 1})
    assert pre.value() == REG.one() / (REG.const(64) * S ** 9)


def test_prefactor_parity_error():
    pre = PrefactorData.from_numbers(0, 0, 0, 1, 0)
    with pytest.raises(ValueError, match="parity"):
        pre.value()


def test_prefactor_variant_sign():
    base = PrefactorData.from_numbers(2, 2, 2, 2, 0)
    flipped = PrefactorData.from_numbers(2, 2, 2, 2, 0, variant="typeIIB",
                                         alpha_pair=1)
    assert flipped.value() == -base.value()
    with pytest.raises(ValueError, match="variant"):
        PrefactorData.from_numbers(0, 0, 0, 0, 0, variant="nope")


# -- component integrals ---------------------------------------------------

def test_length_zero_returns_prefactor():
    for model, div in ((PLANE, {"H": 1}), (QUADRIC, {"A": 1, "B": 1})):
        pre = PrefactorData.from_model(model, div)
        val = typeII_component_integral(model, div, n1=0, n2=0)
        assert val == pre.value()


def test_frozen_plane_integrals():
    assert classical_integral(PLANE, {"H": 1}, 1, 0) == REG.const(-42)
    assert classical_integral(PLANE, {"H": 1}, 0, 1) == REG.zero()
    assert classical_integral(PLANE, {"H": 1}, 2, 0) == REG.const(765)
    assert classical_integral(PLANE, {"H": 1}, 1, 1) == REG.const(145)
    assert classical_integral(PLANE, {"H": 1}, 0, 2) == REG.zero()


def test_frozen_quadric_integrals():
    assert classical_integral(QUADRIC, {"A": 1, "B": 1}, 1, 1) == REG.const(148)
    assert classical_integral(QUADRIC, {"A": 2, "B": 1}, 2, 0) == REG.const(854)


def test_second_factor_of_trivial_twist_vanishes_symbolically():
    # symbolic, no parameter restriction at all
    val = typeII_component_integral(PLANE, {"H": 1}, n1=0, n2=1,
                                    prefactor=UNIT_PREFACTOR)
    assert val == REG.zero()


def test_eps_specializations_agree():
    symbolic = typeII_component_integral(PLANE, {"H": 1}, n1=1, n2=0,
                                         prefactor=UNIT_PREFACTOR)
    rng = random.Random(11)
    for _ in range(2):
        eps = (Fraction(rng.randint(1, 40), rng.randint(1, 7)),
               Fraction(-rng.randint(41, 80), rng.randint(1, 7)))
        via_path = typeII_component_integral(PLANE, {"H": 1}, n1=1, n2=0,
                                             prefactor=UNIT_PREFACTOR, eps=eps)
        direct = symbolic.specialize({"e1": eps[0], "e2": eps[1]})
        assert via_path == direct


def test_eps_line_agrees_with_symbolic():
    symbolic = typeII_component_integral(PLANE, {"H": 1}, n1=1, n2=0,
                                         prefactor=UNIT_PREFACTOR)
    on_line = typeII_component_integral(PLANE, {"H": 1}, n1=1, n2=0,
                                        prefactor=UNIT_PREFACTOR,
                                        eps_line=LINE)
    # the line value at parameter u equals the symbolic value at (89u, -55u)
    u = Fraction(1, 3)
    assert on_line.specialize({"e1": u}) == symbolic.specialize(
        {"e1": 89 * u, "e2": -55 * u})


def test_degenerate_eps_raises():
    with pytest.raises(NonGenericWeightError):
        typeII_component_integral(PLANE, {"H": 1}, n1=2, n2=0,
                                  prefactor=UNIT_PREFACTOR,
                                  eps=(Fraction(1), Fraction(1)))


def test_twisted_divisor_argument_rejected():
    spec = TwistedBundleSpec.make({"H": 1}, t_weight=2)
    with pytest.raises(ValueError):
        typeII_component_integral(PLANE, spec, n1=0, n2=0)


def test_jobs_and_audit():
    rows = []
    serial = typeII_component_integral(PLANE, {"H": 1}, n1=1, n2=1,
                                       prefactor=UNIT_PREFACTOR, eps_line=LINE,
                                       audit=rows.append)
    parallel = typeII_component_integral(PLANE, {"H": 1}, n1=1, n2=1,
                                         prefactor=UNIT_PREFACTOR,
                                         eps_line=LINE, jobs=2)
    assert serial == parallel
    assert len(rows) == 9
    assert all(set(r) == {"fixed_point", "term"} for r in rows)


def test_assemble_sum_batching():
    term = lambda fp1, fp2: euler_of_character(WeightCharacter())
    small = assemble_sum(PLANE, 1, 1, term)
    assert small.canonical() == REG.const(9)
    assert assemble_sum(PLANE, 0, 0, term).canonical() == REG.one()


# -- pairwise residue machinery --------------------------------------------

def test_mochizuki_zero_charge():
    assert mochizuki_coefficient(PLANE, {}, {}, {}, 0, 0) == REG.zero()


def test_mochizuki_frozen_value():
    val = mochizuki_coefficient(PLANE, {}, {}, {}, 1, 0)
    e1, e2 = REG.var("e1"), REG.var("e2")
    want = (REG.const(-9) * S * S - 3 * e1 * e1 + 3 * e1 * e2
            - 3 * e2 * e2) / S ** 3
    assert val == want


def test_mochizuki_eps_consistency():
    eps = (Fraction(10), Fraction(-7))
    cases = ([(PLANE, {}, n) for n in (1, 2, 3)]
             + [(from_preset(name), div, 2)
                for name, div in ROUTE_DIVISORS.items()])
    for model, div, n in cases:
        sym = mochizuki_coefficient(model, {}, {}, div, n, 0)
        num = mochizuki_coefficient(model, {}, {}, div, n, 0, eps=eps)
        assert num == sym.specialize({"e1": eps[0], "e2": eps[1]})


def test_mochizuki_negative_budget_is_zero():
    # split pairing exceeds the charge: empty range of splittings
    assert mochizuki_coefficient(PLANE, {"H": 1}, {"H": 1}, {}, 0,
                                 0) == REG.zero()


def test_mochizuki_integrand_zero_weight_term():
    # trivial twist data puts an honest zero weight in the numerator
    empty = hilb_fixed_points(PLANE, 0)[0]
    one_pt = hilb_fixed_points(PLANE, 1)[0]
    trivial = TwistedBundleSpec.make({})
    val = _mochizuki_term(PLANE, trivial, trivial, trivial, 0, SYMBOLIC,
                          one_pt, empty)
    assert val.canonical() == REG.zero()


def test_mochizuki_audit():
    rows = []
    mochizuki_coefficient(PLANE, {}, {}, {}, 1, 0, audit=rows.append)
    assert rows and all("term" in r for r in rows)


# -- misc ------------------------------------------------------------------

def test_pure_s_monomial():
    assert pure_s_monomial(REG.one() / (REG.const(4) * S * S)) == \
        (Fraction(1, 4), -2)
    assert pure_s_monomial(REG.const(5)) == (Fraction(5), 0)
    assert pure_s_monomial(S ** 3 * REG.const(-2)) == (Fraction(-2), 3)
    assert pure_s_monomial(S + REG.one()) is None
    assert pure_s_monomial(S * REG.var("e1")) is None


# -- route agreement: symbolic, rational point, parameter line --------------

ROUTE_DIVISORS = {"plane": {"H": 1}, "quadric": {"A": 1, "B": 1},
                  "hirzebruch1": {"C0": 1, "F": 1},
                  "hirzebruch2": {"C0": 1, "F": 2},
                  "hirzebruch3": {"C0": 1, "F": 3}}
ROUTE_POINT = (Fraction(3, 7), Fraction(-5, 11))
ROUTE_CASES = ([(name, n1, n - n1) for name in ROUTE_DIVISORS
                for n in range(3) for n1 in range(n + 1)]
               + [("plane", n1, 3 - n1) for n1 in range(4)]
               + [(name, n1, 3 - n1) for name in ROUTE_DIVISORS
                  if name != "plane" for n1 in range(3)]
               + [("quadric", 3, 0)])


@pytest.mark.parametrize("name,n1,n2", ROUTE_CASES)
def test_routes_agree_under_specialisation(name, n1, n2):
    model = from_preset(name)
    div = ROUTE_DIVISORS[name]

    def integral(**kw):
        return typeII_component_integral(model, div, n1=n1, n2=n2,
                                         prefactor=UNIT_PREFACTOR, **kw)
    symbolic = integral()
    e1, e2 = ROUTE_POINT
    assert integral(eps=ROUTE_POINT) == symbolic.specialize(
        {"e1": e1, "e2": e2})
    u = Fraction(2, 5)
    assert integral(eps_line=LINE).specialize({"e1": u}) == \
        symbolic.specialize({"e1": LINE[0] * u, "e2": LINE[1] * u})


# -- the rational-point route: WeightMap.finish ------------------------------

EPS_POINTS = (ROUTE_POINT, (Fraction(10), Fraction(-7)))


@pytest.mark.parametrize("name", sorted(ROUTE_DIVISORS))
def test_eps_route_is_the_symbolic_value_specialised(name):
    """``eps`` (the line value finished at u = 1/D) against the symbolic
    value specialised exactly, for localize and mochizuki at n <= 2.  The
    finished value is already reduced: canonicalising it divides out no
    form."""
    model, div = from_preset(name), ROUTE_DIVISORS[name]
    values = ([functools.partial(typeII_component_integral, model, div,
                                 n1=n1, n2=n - n1, prefactor=UNIT_PREFACTOR)
               for n in range(3) for n1 in range(n + 1)]
              + [functools.partial(mochizuki_coefficient, model, {}, {}, div,
                                   n, 0) for n in range(3)])
    for value in values:
        symbolic = value()
        for e1, e2 in EPS_POINTS:
            got = value(eps=(e1, e2))
            want = symbolic.specialize({"e1": e1, "e2": e2})
            assert got == want and str(got) == str(want)
            assert got.canonical().forms == got.forms
