"""Universal-polynomial fitting over the toric battery."""

from fractions import Fraction

import pytest

from dt4 import universal
from dt4.eqalg import (DEFAULT_REGISTRY as REG, NonGenericWeightError,
                       WeightCharacter)
from dt4.surfaces import from_preset, validate_model
from dt4.universal import (EPS_LINE, FIELDS, ChernNumbers, UniversalPolynomial,
                           battery_configs, chern_invariants, classical_limit,
                           fit_universal, typeII_samples, _add_laurent_term,
                           _constant_term, _monomial_name, _monomials)

from test_localize import ROUTE_DIVISORS, classical_integral

F4 = ("D_sq", "D_c1", "c1_sq", "c2")


def test_fields_layout():
    assert FIELDS == ("b1_sq", "b2_sq", "b1_c1", "b2_c1", "b1_D", "b2_D",
                      "b1_b2", "D_sq", "D_c1", "c1_sq", "c2")
    assert len(ChernNumbers.k3_point().as_vector()) == len(FIELDS)


def test_chern_numbers_vector_roundtrip():
    cn = ChernNumbers.k3_point()
    assert cn.c2 == 24
    assert sum(abs(x) for x in cn.as_vector()) == 24
    assert ChernNumbers.k3_point(0) == ChernNumbers.k3_point(5)


def test_chern_invariants_plane():
    plane = from_preset("plane")
    cn = chern_invariants(plane, None, None, {"H": 1})
    assert (cn.D_sq, cn.D_c1, cn.c1_sq, cn.c2) == (1, 3, 9, 3)
    assert (cn.b1_sq, cn.b2_sq, cn.b1_b2) == (0, 0, 0)
    cn2 = chern_invariants(plane, {"H": 1}, {"H": 2}, {"H": 1})
    assert (cn2.b1_sq, cn2.b2_sq, cn2.b1_b2) == (1, 4, 2)
    assert (cn2.b1_c1, cn2.b2_c1) == (3, 6)
    assert (cn2.b1_D, cn2.b2_D) == (1, 2)


def test_chern_invariants_quadric():
    quadric = from_preset("quadric")
    cn = chern_invariants(quadric, None, None, {"A": 2, "B": 1})
    assert (cn.D_sq, cn.D_c1, cn.c1_sq, cn.c2) == (4, 6, 8, 4)


def test_monomials_graded_lex():
    mons = _monomials(2, (7, 10))
    degs = [sum(m) for m in mons]
    assert degs == sorted(degs)
    assert mons[0] == (0,) * 11
    assert len(mons) == 6  # 1, two linear, three quadratic
    assert len(_monomials(2, tuple(FIELDS.index(f) for f in F4))) == 15


def test_monomial_names():
    assert _monomial_name((0,) * 11) == "1"
    e = [0] * 11
    e[7] = 1
    assert _monomial_name(tuple(e)) == "D_sq"
    e[10] = 2
    assert _monomial_name(tuple(e)) == "D_sq*c2^2"


def test_universal_polynomial_evaluate():
    e_dsq = [0] * 11
    e_dsq[7] = 1
    poly = UniversalPolynomial({tuple(e_dsq): 3, (0,) * 11: 1}, 1)
    plane = from_preset("plane")
    cn = chern_invariants(plane, None, None, {"H": 2})
    assert poly.evaluate(cn) == 1 + 3 * 4


def test_universal_polynomial_drops_zero_terms():
    poly = UniversalPolynomial({(0,) * 11: Fraction(0)}, 0)
    assert poly.terms == {}
    assert poly.evaluate(ChernNumbers.k3_point()) == 0


def test_universal_polynomial_json():
    e = [0] * 11
    e[8] = 1
    poly = UniversalPolynomial({tuple(e): -2, (0,) * 11: Fraction(-7, 2)},
                               1)
    blob = poly.to_json()
    assert blob["degree_bound"] == 1
    # Fractions print like every exact value
    assert blob["terms"] == [{"exponents": [0] * 11, "monomial": "1",
                              "coefficient": "(-7)/(2)"},
                             {"exponents": e, "monomial": "D_c1",
                              "coefficient": "-2"}]


def test_battery_geometry():
    configs = battery_configs()
    assert len(configs) == 29
    seen = set()
    for model, div in configs:
        model.check_divisor(div)
        key = (model.name, tuple(sorted(div.items())))
        assert key not in seen
        seen.add(key)
    # single surfaces satisfy c1^2 + c2 = 12; unions sit on higher lines
    lines = {model.chern.c1_sq + model.chern.c2 for model, _ in configs}
    assert lines == {12, 24, 36}


def test_battery_unions_validate():
    for model, _ in battery_configs():
        if "+" in model.name:
            validate_model(model)


def _synthetic_samples(target_terms, bound):
    poly = UniversalPolynomial(target_terms, bound)
    out = []
    for model, div in battery_configs():
        cn = chern_invariants(model, None, None, div)
        out.append((cn, poly.evaluate(cn)))
    return poly, out


def test_fit_recovers_synthetic_polynomial():
    e_c2 = [0] * 11
    e_c2[10] = 1
    e_mixed = [0] * 11
    e_mixed[8] = 1
    e_mixed[9] = 1
    target = {(0,) * 11: Fraction(1, 2), tuple(e_c2): Fraction(-3),
              tuple(e_mixed): Fraction(7, 5)}
    poly, samples = _synthetic_samples(target, 2)
    fitted = fit_universal(samples, 2, F4)
    assert fitted.terms == poly.terms


def test_fit_underdetermined():
    _, samples = _synthetic_samples({(0,) * 11: 1}, 1)
    with pytest.raises(ValueError, match="underdetermined"):
        fit_universal(samples[:3], 1, F4)


def test_fit_inconsistent():
    _, samples = _synthetic_samples({(0,) * 11: 1}, 1)
    bad = samples[:-1] + [(samples[-1][0], samples[-1][1] + 1)]
    # the battery contains repeated invariant vectors with distinct values
    with pytest.raises(ValueError, match="inconsistent"):
        fit_universal(bad + samples, 1, F4)


def test_typeII_samples_length_zero():
    configs = battery_configs()[:4]
    samples = typeII_samples(configs, 0, 0)
    assert all(v == 1 for _, v in samples)


def test_eps_line_constants():
    a, b = EPS_LINE
    assert a != 0 and b != 0 and a != b


# -- the Laurent route against the four-variable line route -----------------

# every n1 + n2 <= 3 with the route divisor and the zero divisor, and
# n1 + n2 = 4 with the route divisor on plane and quadric
ROUTE_CASES = ([pytest.param(name, div, range(4), id=f"{name}-{kind}-n<=3")
                for name in ROUTE_DIVISORS
                for kind, div in (("L", ROUTE_DIVISORS[name]), ("zero", {}))]
               + [pytest.param(name, ROUTE_DIVISORS[name], (4,),
                               id=f"{name}-L-n=4")
                  for name in ("plane", "quadric")])


@pytest.mark.parametrize("name,div,sizes", ROUTE_CASES)
def test_classical_limit_equals_the_line_route_at_its_origin(name, div,
                                                             sizes):
    model = from_preset(name)
    for n in sizes:
        for n1 in range(n + 1):
            want = classical_integral(model, div, n1, n - n1)
            assert REG.const(classical_limit(model, div, n1, n - n1)) == \
                want, (n1, n - n1)


def _laurent_sum(*chars):
    acc = {}
    for char in chars:
        _add_laurent_term(acc, WeightCharacter(), WeightCharacter(char), 0, 1)
    return _constant_term(acc)


def test_cancelling_poles_leave_the_constant_term():
    # (s + u)/u + s/(-u) = 1 at s = 1
    assert _laurent_sum({(0, 0, 1, 0): -1, (1, 0, 1, 0): 1},
                        {(0, 0, -1, 0): -1, (1, 0, 0, 0): 1}) == 1


def test_a_pole_that_does_not_cancel_raises():
    with pytest.raises(ValueError, match="u\\^-1 coefficient 1 .*cancel"):
        _laurent_sum({(0, 0, 1, 0): -1, (1, 0, 1, 0): 1})


def test_a_term_of_nonzero_s_degree_raises():
    with pytest.raises(ValueError, match="s-degree 1"):
        _laurent_sum({(1, 0, 0, 0): 1})


def test_degenerate_line_raises(monkeypatch):
    monkeypatch.setattr(universal, "EPS_LINE", (1, 1))
    with pytest.raises(NonGenericWeightError):
        classical_limit(from_preset("plane"), {"H": 1}, 2, 0)
