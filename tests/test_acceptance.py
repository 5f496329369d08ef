"""End-to-end acceptance battery.

One test per criterion, named ``test_criterion_<k>_<slug>`` so a verbose
run prints one pass/fail line for each.  Every expected number here is
either computed by an independent oracle from ``oracles.py`` or is a
structural zero; all comparisons are exact, with a single wall-clock
bound where stated.
"""

import json
import math
import random
import time
from fractions import Fraction

from dt4 import cli, localize
from dt4.eqalg import (FactoredScalar, NonGenericWeightError,
                       euler_of_character, residue)
from dt4.localize import (PrefactorData, tangent_character,
                          tautological_character, assemble_sum,
                          chi_character, typeII_component_integral)
from dt4.moduli import (EllipticSurface, assemble_typeII_K3_series,
                        enumerate_typeII_K3, wall_threshold)
from dt4.partitions import hilb_fixed_points
from dt4.poly import Poly
from dt4.qseries import (goettsche_series, k3_entries, z_typeI_closed_form,
                         z_typeI_series, z_typeII_conjecture_series)
from dt4.surfaces import PRESET_NAMES, from_preset
from dt4.universal import (FIELDS, FIT_FIELDS, K3_POINT, battery_configs,
                           fit_universal, typeII_samples)

from oracles import (chi_riemann_roch, colored_counts, k3_component_count,
                     residue_series_oracle, tangent_weights_oracle)

S = FactoredScalar.var("s")
SP = FactoredScalar.var("sp")


def _passed(num, slug):
    print(f"criterion {num} ({slug}): PASS")


def test_criterion_1_nonnested_series_identity():
    start = time.perf_counter()
    via_product = z_typeI_series(18)
    via_sqrt_average = z_typeI_closed_form(18)
    assert via_product == via_sqrt_average
    elapsed = time.perf_counter() - start

    counts = colored_counts(24, 5)
    assert counts[1] == 24 and counts[3] == 3200 and counts[5] == 176256
    for exp, idx in ((0, 1), (1, 3), (2, 5)):
        assert via_product.coefficient(exp) == counts[idx]
    # the builders return s times the series; the report prints the 1/s
    for series in (via_product, via_sqrt_average):
        assert k3_entries(series)[0] == {
            "exponent_num": 0, "exponent_den": 1, "coefficient": "(24)/(s)"}
    assert elapsed < 5.0
    _passed(1, "non-nested series identity")


def test_criterion_2_conjecture_series_spots():
    counts = colored_counts(24, 2)
    ser = z_typeII_conjecture_series(2)
    for exp, idx in ((-2, 0), (0, 1), (2, 2)):
        assert ser.coefficient(exp) == Fraction(counts[idx], 4)
    assert ser.coefficient(-2) == Fraction(1, 4)
    assert ser.coefficient(0) == 6
    assert ser.coefficient(2) == 81
    assert [e["coefficient"] for e in k3_entries(ser)] == [
        "(1)/(4*s)", "(6)/(s)", "(81)/(s)"]
    # only even exponents survive
    big = z_typeII_conjecture_series(12)
    assert all(e % 2 == 0 for e in big.units)
    _passed(2, "conjecture series spot values")


def test_criterion_3_even_twist_vanishing():
    for m in (2, 4):
        for n in range(6):
            comps = enumerate_typeII_K3(m, n)
            assert comps
            assert all(c["vanishes"] for c in comps)
        assert not assemble_typeII_K3_series(m, 5).units
    _passed(3, "even twist vanishing")


def test_criterion_4_fixed_point_counts():
    for name in PRESET_NAMES:
        model = from_preset(name)
        chi = model.chern.c2
        series = goettsche_series(chi, 7)
        counts = colored_counts(chi, 6)
        for n in range(7):
            got = len(hilb_fixed_points(model, n))
            assert got == series.coefficient(n) == counts[n]
    plane = from_preset("plane")
    assert [len(hilb_fixed_points(plane, n)) for n in range(6)] == \
        [1, 3, 9, 22, 51, 108]
    _passed(4, "fixed point counts match product formula")


def _top_chern_term(model, bundle):
    """Summand of the square of the top induced Chern class against the
    two tangent Euler classes, as the Euler class of one virtual
    character; an honestly zero numerator weight means a zero term, not a
    failure."""
    def term(fp1, fp2):
        char = (2 * tautological_character(fp1, bundle, model)
                + 2 * tautological_character(fp2, bundle, model)
                - tangent_character(fp1, model)
                - tangent_character(fp2, model))
        try:
            return euler_of_character(char)
        except NonGenericWeightError:
            return FactoredScalar.const(0)
    return term


def test_criterion_5_localization_engine():
    unit = PrefactorData.from_numbers(0, 0, 0, 0, 0)
    divisors = {"plane": {"H": 2}, "quadric": {"A": 1, "B": 2},
                "hirzebruch1": {"C0": 1, "F": 3},
                "hirzebruch2": {"C0": 1, "F": 4},
                "hirzebruch3": {"C0": 1, "F": 5}}

    # (a) tangent characters against the deformation-space oracle
    for name in PRESET_NAMES:
        model = from_preset(name)
        for n in range(4):
            for fp in hilb_fixed_points(model, n):
                got = tangent_character(fp, model)
                assert got.terms == tangent_weights_oracle(fp, model)

    # (b) pair characteristic rank drops by one per point
    for name in PRESET_NAMES:
        model = from_preset(name)
        div = divisors[name]
        chi_div = chi_riemann_roch(model, div)
        points = {n: hilb_fixed_points(model, n) for n in range(5)}
        for n1 in range(5):
            for n2 in range(5 - n1):
                for fp1 in points[n1]:
                    for fp2 in points[n2]:
                        char = chi_character(fp1, fp2, div, model)
                        assert sum(char.terms.values()) == chi_div - n1 - n2

    # (c) sums of honest top Chern classes have constant denominator
    for name in ("plane", "quadric"):
        model = from_preset(name)
        term = _top_chern_term(model, divisors[name])
        for n1 in range(3):
            for n2 in range(3 - n1):
                total = assemble_sum(model, n1, n2, term)
                assert total.canonical().den.is_const()

    # (d) invariance under random rational torus parameters
    rng = random.Random(17)
    for name, (n1, n2) in (("plane", (1, 0)), ("quadric", (1, 0))):
        model = from_preset(name)
        div = divisors[name]
        symbolic = typeII_component_integral(model, div, n1=n1, n2=n2,
                                             prefactor=unit)
        for _ in range(3):
            eps = (Fraction(rng.randint(1, 60), rng.randint(1, 9)),
                   Fraction(-rng.randint(61, 120), rng.randint(1, 9)))
            direct = typeII_component_integral(model, div, n1=n1, n2=n2,
                                               prefactor=unit, eps=eps)
            assert direct == symbolic.specialize({"e1": eps[0], "e2": eps[1]})
    _passed(5, "localization engine properties")


def test_criterion_6_trivial_length_and_k3_numbers(capsys):
    plane = from_preset("plane")
    pre = PrefactorData.from_model(plane, {"H": 1})
    val = typeII_component_integral(plane, {"H": 1}, n1=0, n2=0, prefactor=pre)
    assert val == pre.value()

    k3 = PrefactorData.from_numbers(2, 2, 2, 0, 0)
    assert k3.value() == FactoredScalar.const(Fraction(1, 4)) / (S * S)

    code = cli.main(["localize", "--n1", "0", "--n2", "0",
                     "--chi-numbers", "2,2,2,0,0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["results"]["value"] == "(1)/(4*s^2)"
    ratio = report["results"]["conjecture_leading_ratio"]
    assert ratio["pure_s_monomial"] is True
    _passed(6, "length-zero case and fiberwise numbers")


def test_criterion_7_universal_fits(monkeypatch):
    monkeypatch.setattr(localize, "POOL_BUDGET_S", 0)    # real workers
    configs = battery_configs()
    for n1, n2, bound in ((1, 0, 1), (1, 1, 2), (0, 2, 2)):
        samples = typeII_samples(configs, n1, n2, jobs=2)
        train, held = samples[:-1], samples[-1]
        poly = fit_universal(train, bound)
        # universal in the four invariants L^2, L.c1, c1^2 and c2 only
        assert {f for term in poly.to_json()["terms"]
                for f, e in zip(FIELDS, term["exponents"]) if e} \
            <= set(FIT_FIELDS)
        assert poly.evaluate(held[0]) == held[1]
        # at K3 the nested series is prod_j (1 - (q1 q2)^j)^-24
        assert poly.evaluate(K3_POINT) == (
            colored_counts(24, n1)[n1] if n1 == n2 else 0), (n1, n2)
    _passed(7, "universal fits with held-out reproduction")


def test_criterion_8_chamber_and_component_counts():
    k3_base = EllipticSurface(0)
    for n in range(11):
        assert wall_threshold(k3_base, 2, n) == Fraction(1, 1 + 8 * n)
    for m in range(1, 8):
        for n in range(8):
            assert len(enumerate_typeII_K3(m, n)) == k3_component_count(m, n)
    _passed(8, "chamber thresholds and component counts")


# s, e1, e2 at this point are off every linear form with coefficients in
# [-12, 12]: 182 a - 195 b + 66 c = 0 forces c = 0 (mod 13), then
# 14 a = 15 b forces a = b = 0
RESIDUE_POINT = {"s": Fraction(7, 3), "e1": Fraction(-5, 2),
                 "e2": Fraction(11, 13)}


def _random_factored_term(rng):
    """A pole sp^-(1..4), mixed forms c sp + r with r possibly not
    primitive or with a negative leading coefficient, sp-free forms, and
    a numerator with powers of sp, as one FactoredScalar."""
    def free():
        r = (0, 0, 0)
        while not any(r):
            r = tuple(rng.randint(-3, 3) for _ in range(3))
        return r

    weights = [((0, 1, 0, 0), -rng.randint(1, 4))]
    for _ in range(rng.randint(0, 3)):
        s, e1, e2 = free()
        if rng.random() < 0.5 and (e1 or e2):
            s = 0                       # sp leads, r may be negative
        k = rng.choice((-2, -1, 1, 2))  # odd c keeps 2 r unprimitive
        c = rng.choice((-3, -1, 1, 3))
        weights.append(((k * s, c, k * e1, k * e2),
                        rng.choice((-2, -1, -1, 1))))
    for _ in range(rng.randint(0, 2)):
        s, e1, e2 = free()
        weights.append(((s, 0, e1, e2), rng.choice((-2, -1, 1))))
    num = FactoredScalar.const(0)
    for e in range(5):
        if rng.random() < 0.6:
            lin = (FactoredScalar.const(rng.randint(-9, 9))
                   + rng.randint(-3, 3) * S)
            num = num + lin * SP ** e
    return num * euler_of_character(Poly.from_pairs(weights))


def _awkward_mixed_form(w):
    """c sp + r with r not primitive or with negative leading entry."""
    r = [w[0]] + list(w[2:])
    if not w[1] or not any(r):
        return False
    return (math.gcd(*r) > 1 or next(x for x in r if x) < 0)


def test_criterion_9_residue_against_series_oracle():
    rng = random.Random(20260825)
    nonzero = awkward = 0
    for _ in range(50):
        x = _random_factored_term(rng)
        got = residue(x, "sp").canonical().specialize(RESIDUE_POINT)
        want = residue_series_oracle(
            x.canonical().specialize(RESIDUE_POINT), "sp")
        assert got.as_fraction() == want
        if want:
            nonzero += 1
        awkward += any(_awkward_mixed_form(w) for w in x.forms)
    assert nonzero >= 20
    assert awkward >= 10
    _passed(9, "residues match series oracle")
