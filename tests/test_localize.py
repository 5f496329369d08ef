"""Vertex characters, Euler-class sums, and the component integrals."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dt4 import localize
from dt4.eqalg import (FactoredScalar, NonGenericWeightError, chern_part,
                       euler_of_character)
from dt4.localize import (SYMBOLIC, PrefactorData, TwistedBundleSpec,
                          _as_spec, _mochizuki_term, assemble_sum,
                          chi_character, difference_character,
                          mochizuki_coefficient, pure_s_monomial,
                          split_budget, tangent_character,
                          tautological_character, twisted_tangent_character,
                          typeII_component_integral)
from dt4.partitions import hilb_fixed_points, is_nested, partitions_of
from dt4.poly import Poly
from dt4.surfaces import PRESET_NAMES, from_preset
from dt4.universal import classical_limit

from oracles import (chart_tangent_oracle, nested_support,
                     tangent_weights_oracle)

S = FactoredScalar.var("s")
ZERO = FactoredScalar.const(0)
ONE = FactoredScalar.const(1)
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
    # a spec passes through; a divisor map or None becomes an untwisted one
    spec = TwistedBundleSpec({"H": 2, "A": -1}, t_weight=1)
    assert _as_spec(spec) is spec
    divisor = {"H": 2, "A": -1}
    coerced = _as_spec(divisor)
    assert coerced == TwistedBundleSpec({"A": -1, "H": 2}, 0, 0)
    assert coerced.divisor is not divisor
    assert _as_spec(None) == _as_spec({}) == TwistedBundleSpec({}, 0, 0)


# -- characters ------------------------------------------------------------

def test_tangent_matches_deformation_oracle():
    for model in (PLANE, QUADRIC):
        for n in range(4):
            for fp in hilb_fixed_points(model, n):
                got = tangent_character(fp, model)
                assert got.terms == tangent_weights_oracle(fp, model)
                assert sum(got.terms.values()) == 2 * n


FORMS = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 10).flatmap(lambda n: st.sampled_from(partitions_of(n))),
       FORMS, FORMS)
def test_diagonal_pair_correction_is_the_arm_leg_tangent(lam, w1, w2):
    # an identity of Laurent polynomials, so it holds at every pair of
    # integer forms, degenerate ones included
    got = localize._pair_correction(lam, lam, w1, w2)
    assert got.terms == chart_tangent_oracle(lam, w1, w2)
    assert sum(got.terms.values()) == 2 * sum(lam)


def test_twisted_tangent_shifts_charts():
    fp = hilb_fixed_points(PLANE, 2)[0]
    spec = TwistedBundleSpec({"H": 1}, t_weight=1)
    plain = tangent_character(fp, PLANE)
    twisted = twisted_tangent_character(fp, spec, PLANE)
    assert sum(twisted.terms.values()) == sum(plain.terms.values())
    # every twisted weight carries the t-grading
    assert all(w[0] == 1 for w in twisted.terms)


def test_chi_character_rank():
    for model, div in ((PLANE, {"H": 1}), (QUADRIC, {"A": 1, "B": 1})):
        chi = model.chi(div)
        for n1 in range(3):
            for n2 in range(3 - n1):
                for fp1 in hilb_fixed_points(model, n1):
                    for fp2 in hilb_fixed_points(model, n2):
                        c = chi_character(fp1, fp2, div, model)
                        assert sum(c.terms.values()) == chi - n1 - n2


def test_difference_character_rank_and_consistency():
    div = {"H": 2}
    for n1, n2 in ((0, 0), (1, 0), (1, 1), (2, 1)):
        for fp1 in hilb_fixed_points(PLANE, n1)[:4]:
            for fp2 in hilb_fixed_points(PLANE, n2)[:4]:
                d = difference_character(fp1, fp2, div, PLANE)
                assert sum(d.terms.values()) == n1 + n2
                c = chi_character(fp1, fp2, div, PLANE)
                coh = PLANE.cohomology_character(div).terms
                total = Poly({(0, 0) + w: m for w, m in coh.items()})
                assert (c + d).terms == total.terms


def test_diagonal_difference_of_trivial_bundle_is_tangent():
    # nested pair (I, I) with no twist deforms exactly like one ideal
    for n in range(4):
        for fp in hilb_fixed_points(PLANE, n):
            d = difference_character(fp, fp, None, PLANE)
            assert d.terms == tangent_weights_oracle(fp, PLANE)


def test_tautological_character():
    for n in range(4):
        for fp in hilb_fixed_points(QUADRIC, n):
            t = tautological_character(fp, None, QUADRIC)
            assert sum(t.terms.values()) == n
    fp = hilb_fixed_points(PLANE, 1)[0]
    plain = tautological_character(fp, None, PLANE)
    tw = tautological_character(fp, {"H": 1}, PLANE)
    assert sum(plain.terms.values()) == sum(tw.terms.values()) == 1
    assert plain.terms != tw.terms


@pytest.mark.parametrize("left,right", [("plane", "hirzebruch2"),
                                        ("quadric", "hirzebruch1")])
def test_characters_add_over_disjoint_unions(left, right):
    a, b = from_preset(left), from_preset(right)
    union = a.disjoint_union(b)
    da = {k: i + 1 for i, k in enumerate(a.basis)}
    db = {k: 1 - 2 * i for i, k in enumerate(b.basis)}
    du = {**{"a." + k: v for k, v in da.items()},
          **{"b." + k: v for k, v in db.items()}}
    sa, sb, su = (TwistedBundleSpec(d, 1, -2) for d in (da, db, du))
    points = [(fa, fb)
              for fa in [p for n in range(3) for p in hilb_fixed_points(a, n)]
              for fb in [p for n in range(2) for p in hilb_fixed_points(b, n)]]

    for fa, fb in points:
        fu = fa + fb
        assert (tangent_character(fu, union)
                == tangent_character(fa, a) + tangent_character(fb, b))
        for char in (twisted_tangent_character, tautological_character):
            assert char(fu, su, union) == char(fa, sa, a) + char(fb, sb, b)
    for (fa1, fb1), (fa2, fb2) in zip(points + points,
                                      points + points[::-1]):
        f1, f2 = fa1 + fb1, fa2 + fb2
        for char in (chi_character, difference_character):
            assert (char(f1, f2, su, union)
                    == char(fa1, fa2, sa, a) + char(fb1, fb2, sb, b))


# -- prefactors ------------------------------------------------------------

def test_prefactor_k3_numbers():
    pre = PrefactorData.from_numbers(2, 2, 2, 0, 0)
    assert pre.value() == ONE / (FactoredScalar.const(4) * S * S)


def test_prefactor_from_model():
    pre = PrefactorData.from_model(PLANE, {"H": 1})
    assert pre.value() == ONE / (FactoredScalar.const(64) * S ** 9)


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
    const = FactoredScalar.const
    assert classical_integral(PLANE, {"H": 1}, 1, 0) == const(-42)
    assert classical_integral(PLANE, {"H": 1}, 0, 1) == ZERO
    assert classical_integral(PLANE, {"H": 1}, 2, 0) == const(765)
    assert classical_integral(PLANE, {"H": 1}, 1, 1) == const(145)
    assert classical_integral(PLANE, {"H": 1}, 0, 2) == ZERO


def test_frozen_quadric_integrals():
    const = FactoredScalar.const
    assert classical_integral(QUADRIC, {"A": 1, "B": 1}, 1, 1) == const(148)
    assert classical_integral(QUADRIC, {"A": 2, "B": 1}, 2, 0) == const(854)


def test_second_factor_of_trivial_twist_vanishes_symbolically():
    # symbolic, no parameter restriction at all
    val = typeII_component_integral(PLANE, {"H": 1}, n1=0, n2=1,
                                    prefactor=UNIT_PREFACTOR)
    assert val == ZERO


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


def test_eps_and_eps_line_together_are_refused():
    with pytest.raises(ValueError, match="not both"):
        typeII_component_integral(PLANE, {"H": 1}, 1, 0, eps=(1, 2),
                                  eps_line=(3, 4))


HALF_H = {"H": 1.5}


@pytest.mark.parametrize("call", [
    lambda: PLANE.pair(HALF_H, {"H": 1}),
    lambda: PLANE.chi(HALF_H),
    lambda: PLANE.bundle_weights(HALF_H),
    lambda: PLANE.cohomology_character(HALF_H),
    lambda: PrefactorData.from_model(PLANE, HALF_H),
    lambda: split_budget(PLANE, HALF_H, {"H": -1}, 2),
    lambda: typeII_component_integral(PLANE, HALF_H, 1, 0),
    lambda: mochizuki_coefficient(PLANE, {"H": 1}, {"H": -1}, HALF_H, 0, 1),
    lambda: classical_limit(PLANE, HALF_H, 1, 0)],
    ids=["pair", "chi", "bundle_weights", "cohomology_character",
         "prefactor", "split_budget", "typeII", "mochizuki",
         "classical_limit"])
def test_a_divisor_coefficient_that_is_no_int_is_refused(call):
    # classical_limit once read H = 1.5 as 2L = 3 in K - 2L and as H = 1 in
    # every other bundle, and returned -45 between H = 1 (-42) and H = 2
    with pytest.raises(ValueError, match="is not an integer"):
        call()


def test_twisted_divisor_argument_rejected():
    spec = TwistedBundleSpec({"H": 1}, t_weight=2)
    with pytest.raises(ValueError):
        typeII_component_integral(PLANE, spec, n1=0, n2=0)


def test_jobs_and_audit(monkeypatch):
    monkeypatch.setattr(localize, "POOL_BUDGET_S", 0)
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


@pytest.fixture
def tick(monkeypatch):
    """``pow`` that takes one tick of localize's clock, which only it moves."""
    now = [0]
    monkeypatch.setattr(localize, "perf_counter", lambda: now[0])

    def ticking_pow(x, y):
        now[0] += 1
        return x ** y
    return ticking_pow


@pytest.fixture
def pools(monkeypatch):
    """Stands in for localize.Pool: records each pool's worker count and
    tasks, and runs the tasks in this process."""
    made = []

    class RecordingPool:
        def __init__(self, processes):
            self.processes = processes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            made.append((self.processes, list(args)))
            return [fn(*a) for a in args]
    monkeypatch.setattr(localize, "Pool", RecordingPool)
    return made


ARGS = [(x, 3) for x in range(10)]


@pytest.mark.parametrize("budget", [len(ARGS), float("inf")])
def test_parallel_starmap_within_the_budget_starts_no_pool(
        budget, tick, pools, monkeypatch):
    monkeypatch.setattr(localize, "POOL_BUDGET_S", budget)
    assert localize.parallel_starmap(tick, ARGS, jobs=2) == \
        [x ** y for x, y in ARGS]
    assert pools == []


@pytest.mark.parametrize("k", [0, 1, 4, 7])
def test_parallel_starmap_pools_the_tasks_left_at_the_budget(
        k, tick, pools, monkeypatch):
    # a budget of k ticks is spent after k tasks
    monkeypatch.setattr(localize, "POOL_BUDGET_S", k)
    assert localize.parallel_starmap(tick, ARGS, jobs=3) == \
        localize.parallel_starmap(pow, ARGS)
    assert pools == [(3, ARGS[k:])]


@pytest.mark.parametrize("tasks, workers", [(0, []), (1, []), (2, [2]),
                                            (3, [3]), (5, [4])])
def test_parallel_starmap_starts_no_more_workers_than_tasks(
        tasks, workers, pools, monkeypatch):
    monkeypatch.setattr(localize, "POOL_BUDGET_S", 0)
    args = ARGS[:tasks]
    assert localize.parallel_starmap(pow, args, jobs=4) == \
        [x ** y for x, y in args]
    assert [n for n, _ in pools] == workers


def test_assemble_sum_batching():
    term = lambda fp1, fp2: euler_of_character(Poly())
    small = assemble_sum(PLANE, 1, 1, term)
    assert small.canonical() == FactoredScalar.const(9)
    assert assemble_sum(PLANE, 0, 0, term).canonical() == ONE


def test_pair_sums_above_the_maximum_are_refused_before_any_term():
    def term(fp1, fp2):
        raise AssertionError("no term may run")
    # 7868 ** 2 pairs, each factor admitted on its own
    with pytest.raises(ValueError, match="^61905424 fixed-point pairs, above "
                       f"the maximum {localize.MAX_PAIRS}$"):
        assemble_sum(PLANE, 12, 12, term)
    # the splittings of a point budget of 10^30 are never listed
    with pytest.raises(ValueError, match=f"^the Hilbert scheme of {10 ** 30} "
                       "points on 3 charts has at least"):
        mochizuki_coefficient(PLANE, {"H": 10 ** 15}, {"H": -10 ** 15}, {},
                              0, 0)


# -- pairwise residue machinery --------------------------------------------

def test_mochizuki_zero_charge():
    assert mochizuki_coefficient(PLANE, {}, {}, {}, 0, 0) == ZERO


def test_mochizuki_frozen_value():
    val = mochizuki_coefficient(PLANE, {}, {}, {}, 1, 0)
    e1, e2 = FactoredScalar.var("e1"), FactoredScalar.var("e2")
    want = (FactoredScalar.const(-9) * S * S - 3 * e1 * e1 + 3 * e1 * e2
            - 3 * e2 * e2) / S ** 3
    assert val == want


# two nonzero splittings (split1, split2) per preset
TWISTED_SPLITS = {
    "plane": [({"H": 1}, {"H": 1}), ({"H": 1}, {"H": -1})],
    "quadric": [({"A": 1}, {"B": 1}), ({"B": -1}, {"A": 1})],
    **{f"hirzebruch{k}": [({"C0": 1}, {"F": 1}),
                          ({"F": 1}, {"C0": -1, "F": 1})] for k in (1, 2, 3)},
}


def test_mochizuki_eps_consistency():
    eps = (Fraction(10), Fraction(-7))
    cases = ([(PLANE, {}, {}, {}, n, 0) for n in (1, 2, 3)]
             + [(from_preset(name), {}, {}, div, 2, 0)
                for name, div in ROUTE_DIVISORS.items()])
    # twisted splittings, each with a point budget of 1 after pairing
    for name, splits in TWISTED_SPLITS.items():
        model = from_preset(name)
        for (s1, s2), p_g in itertools.product(splits, (0, 1)):
            n = 1 + model.pair(s1, s2)
            assert split_budget(model, s1, s2, n) == 1
            cases.append((model, s1, s2, ROUTE_DIVISORS[name], n, p_g))
    assert len(cases) == 28
    for model, s1, s2, div, n, p_g in cases:
        sym = mochizuki_coefficient(model, s1, s2, div, n, p_g)
        num = mochizuki_coefficient(model, s1, s2, div, n, p_g, eps=eps)
        assert num == sym.specialize({"e1": eps[0], "e2": eps[1]})


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_mochizuki_symbolic_is_the_point_route_at_three_points(name):
    eps = (Fraction(10), Fraction(-7))
    model, div = from_preset(name), ROUTE_DIVISORS[name]
    sym = mochizuki_coefficient(model, {}, {}, div, 3, 0)
    num = mochizuki_coefficient(model, {}, {}, div, 3, 0, eps=eps)
    assert num == sym.specialize({"e1": eps[0], "e2": eps[1]})


def test_mochizuki_negative_budget_is_zero():
    # split pairing exceeds the charge: empty range of splittings
    assert split_budget(PLANE, {"H": 1}, {"H": 1}, 0) == -1
    assert mochizuki_coefficient(PLANE, {"H": 1}, {"H": 1}, {}, 0,
                                 0) == ZERO


def test_mochizuki_integrand_zero_weight_term():
    # trivial twist data puts an honest zero weight in the numerator
    empty = hilb_fixed_points(PLANE, 0)[0]
    one_pt = hilb_fixed_points(PLANE, 1)[0]
    trivial = TwistedBundleSpec({})
    val = _mochizuki_term(PLANE, trivial, trivial, trivial, 0, SYMBOLIC,
                          one_pt, empty)
    assert val.canonical() == ZERO


def test_mochizuki_audit():
    rows = []
    mochizuki_coefficient(PLANE, {}, {}, {}, 1, 0, audit=rows.append)
    assert rows and all("term" in r for r in rows)


# -- misc ------------------------------------------------------------------

def test_pure_s_monomial():
    assert pure_s_monomial(ONE / (FactoredScalar.const(4) * S * S)) == \
        (Fraction(1, 4), -2)
    assert pure_s_monomial(FactoredScalar.const(5)) == (Fraction(5), 0)
    assert pure_s_monomial(S ** 3 * FactoredScalar.const(-2)) == \
        (Fraction(-2), 3)
    assert pure_s_monomial(S + ONE) is None
    assert pure_s_monomial(S * FactoredScalar.var("e1")) is None


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
               + [("quadric", 3, 0), ("plane", 3, 1)])


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


# -- the typeII integrand lives on nested pairs -------------------------------

@pytest.mark.parametrize("name", PRESET_NAMES)
def test_top_chern_part_of_diff0_is_supported_on_nested_pairs(name):
    # the oracle asserts c_n(diff(0)) != 0 exactly on boxwise nested pairs,
    # and that diff(0) is honest of rank n there, at every cell n <= 4
    pairs, support = nested_support(from_preset(name), 4)
    assert [p for p in pairs if is_nested(*p)] == support


@pytest.mark.parametrize("extra", [
    Poly({(1, 2): 1, (2, 1): -1}),     # a negative multiplicity
    Poly({(1, 2): 1})])                # rank n + 1
def test_a_dishonest_diff0_raises_on_both_routes(extra, monkeypatch):
    correction = localize._pair_correction
    monkeypatch.setattr(localize, "_pair_correction",
                        lambda *a: correction(*a) + extra)
    with pytest.raises(ValueError, match="not an honest character"):
        typeII_component_integral(PLANE, {"H": 1}, n1=1, n2=1)
    with pytest.raises(ValueError, match="not an honest character"):
        classical_limit(PLANE, {"H": 1}, 1, 0)


def _degenerate(model, eps):
    """Whether some chart tangent form vanishes at the point ``eps``."""
    return any(eps[0] * w[0] + eps[1] * w[1] == 0
               for chart in model.fixed_points for w in chart)


# every kind of degenerate integer point of the five presets (the axes,
# both diagonals, and the lines b = -2a, b = -3a), and points such as
# (1, -1) on plane where diff(0) of a nested pair has a zero weight while
# the rest has none, so that its term is 0
DEGENERATE_GRID = [(a, b) for a in range(-1, 4) for b in range(-3, 4)]


@pytest.mark.parametrize("name", sorted(ROUTE_DIVISORS))
def test_integer_eps_grid_outcomes(name):
    """At a point where a chart tangent form vanishes, a cell with n1 >= n2
    raises; elsewhere it is the symbolic value specialised.  A cell with
    n2 > n1 has no nested pair and is 0 at every point."""
    model, div = from_preset(name), ROUTE_DIVISORS[name]
    for n1, n2 in ((1, 0), (0, 1), (1, 1)):
        def integral(**kw):
            return typeII_component_integral(model, div, n1=n1, n2=n2,
                                             prefactor=UNIT_PREFACTOR, **kw)
        symbolic = integral()
        for e1, e2 in DEGENERATE_GRID:
            if n2 > n1:
                assert integral(eps=(e1, e2)) == ZERO
            elif _degenerate(model, (e1, e2)):
                with pytest.raises(NonGenericWeightError):
                    integral(eps=(e1, e2))
            else:
                assert integral(eps=(e1, e2)) == symbolic.specialize(
                    {"e1": Fraction(e1), "e2": Fraction(e2)}), (n1, n2, e1, e2)
