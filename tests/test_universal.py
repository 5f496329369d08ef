"""Universal-polynomial fitting over the toric battery."""

import re
from fractions import Fraction

import pytest

from dt4 import universal
from dt4.eqalg import FactoredScalar, NonGenericWeightError
from dt4.localize import (PrefactorData, TwistedBundleSpec,
                          typeII_component_integral)
from dt4.poly import Poly
from dt4.surfaces import from_preset
from dt4.universal import (EPS_LINE, FIELDS, FIT_FIELDS, K3_POINT,
                           UniversalPolynomial, battery_configs,
                           classical_limit, fit_universal, invariants,
                           typeII_samples, _laurent_term, _monomial_name,
                           _monomials)

from oracles import (classical_limit_pair_walk, colored_counts, hilbert_row,
                     twelve_ray_surface, validate_model)
from test_localize import ROUTE_DIVISORS, classical_integral
from test_surfaces import two_point_blowup


def test_fields_layout():
    assert FIELDS == ("b1_sq", "b2_sq", "b1_c1", "b2_c1", "b1_D", "b2_D",
                      "b1_b2", "D_sq", "D_c1", "c1_sq", "c2")
    assert FIT_FIELDS == ("D_sq", "D_c1", "c1_sq", "c2") == FIELDS[7:]
    assert len(K3_POINT) == len(FIT_FIELDS)


def test_k3_point():
    # fiber-multiple classes on K3: every pairing vanishes, c2 = 24
    assert K3_POINT == (0, 0, 0, 24)


def test_invariants_plane():
    plane = from_preset("plane")
    assert invariants(plane, {"H": 1}) == (1, 3, 9, 3)
    assert invariants(plane, {}) == (0, 0, 9, 3)


def test_invariants_quadric():
    quadric = from_preset("quadric")
    assert invariants(quadric, {"A": 2, "B": 1}) == (4, 6, 8, 4)


def test_monomials_graded_lex():
    mons = _monomials(2)
    degs = [sum(m) for m in mons]
    assert degs == sorted(degs)
    assert mons[0] == (0,) * 4
    # c2, c1_sq, D_c1, D_sq: the order the report's monomials print in
    assert mons[1:5] == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0),
                         (1, 0, 0, 0)]
    assert len(mons) == 15  # 1, four linear, ten quadratic
    assert len(set(mons)) == len(mons)


def test_monomial_names():
    assert _monomial_name((0,) * 4) == "1"
    assert _monomial_name((1, 0, 0, 0)) == "D_sq"
    assert _monomial_name((1, 0, 0, 2)) == "D_sq*c2^2"


def test_universal_polynomial_evaluate():
    poly = UniversalPolynomial({(1, 0, 0, 0): 3, (0,) * 4: 1}, 1)
    plane = from_preset("plane")
    assert poly.evaluate(invariants(plane, {"H": 2})) == 1 + 3 * 4


def test_universal_polynomial_drops_zero_terms():
    poly = UniversalPolynomial({(0,) * 4: Fraction(0)}, 0)
    assert poly.terms == {}
    assert poly.evaluate(K3_POINT) == 0


def test_universal_polynomial_json():
    poly = UniversalPolynomial({(0, 1, 0, 0): -2, (0,) * 4: Fraction(-7, 2)},
                               1)
    blob = poly.to_json()
    assert blob["degree_bound"] == 1
    # Fractions print like every exact value; the report's exponents keep
    # the seven beta slots of FIELDS, always 0
    assert blob["terms"] == [{"exponents": [0] * 11, "monomial": "1",
                              "coefficient": "(-7)/(2)"},
                             {"exponents": [0] * 8 + [1, 0, 0],
                              "monomial": "D_c1", "coefficient": "-2"}]


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
        at = invariants(model, div)
        out.append((at, poly.evaluate(at)))
    return poly, out


def test_fit_recovers_synthetic_polynomial():
    target = {(0,) * 4: Fraction(1, 2), (0, 0, 0, 1): Fraction(-3),
              (0, 1, 1, 0): Fraction(7, 5)}
    poly, samples = _synthetic_samples(target, 2)
    fitted = fit_universal(samples, 2)
    assert fitted.terms == poly.terms


def test_fit_underdetermined():
    _, samples = _synthetic_samples({(0,) * 4: 1}, 1)
    with pytest.raises(ValueError, match="underdetermined"):
        fit_universal(samples[:3], 1)


def test_fit_inconsistent():
    _, samples = _synthetic_samples({(0,) * 4: 1}, 1)
    bad = samples[:-1] + [(samples[-1][0], samples[-1][1] + 1)]
    # the battery contains repeated invariant vectors with distinct values
    with pytest.raises(ValueError, match="inconsistent"):
        fit_universal(bad + samples, 1)


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
            got = classical_limit(model, div, n1, n - n1)
            assert FactoredScalar.const(got) == want, (n1, n - n1)


def _laurent_sum(k, *chars):
    terms = (_laurent_term(Poly(char), k, k) for char in chars)
    return [sum(c) for c in zip(*([Fraction(x, den) for x in nums]
                                  for nums, den in terms))]


def test_cancelling_poles_leave_the_constant_term():
    # (s + u)/u + s/(-u) = 1 at s = 1
    assert _laurent_sum(1, {(0, 0, 1, 0): -1, (1, 0, 1, 0): 1},
                        {(0, 0, -1, 0): -1, (1, 0, 0, 0): 1}) == [0, 1]


def _classical_limit_of(monkeypatch, char):
    """``classical_limit`` of cell (1, 0) on the plane at H = 1, with
    ``char`` in place of the character of every nested pair."""
    monkeypatch.setattr(universal, "_typeII_character",
                        lambda *args: Poly(char))
    return classical_limit(from_preset("plane"), {"H": 1}, 1, 0)


def test_a_pole_that_does_not_cancel_raises(monkeypatch):
    # (s + u)/u at each of the three nested pairs of cell (1, 0)
    with pytest.raises(ValueError, match="u\\^-1 coefficient 3 .*cancel"):
        _classical_limit_of(monkeypatch, {(0, 0, 1, 0): -1, (1, 0, 1, 0): 1})


def test_a_term_of_another_u_order_raises(monkeypatch):
    # s/(s + u) has u-order 0, and every term of cell (1, 0) has -1
    with pytest.raises(ValueError, match="u-order 0, not -1"):
        _classical_limit_of(monkeypatch, {(1, 0, 0, 0): 1, (1, 0, 1, 0): -1})
    # s (s + u)/u^2 has u-order -2
    with pytest.raises(ValueError, match="u-order -2, not -1"):
        _classical_limit_of(monkeypatch, {(0, 0, 1, 0): -2, (1, 0, 1, 0): 1,
                                          (1, 0, 0, 0): 1})


def test_a_term_of_nonzero_s_degree_raises():
    with pytest.raises(ValueError, match="s-degree 1"):
        _laurent_term(Poly({(1, 0, 0, 0): 1}), 0, 0)


def test_degenerate_line_raises(monkeypatch):
    monkeypatch.setattr(universal, "EPS_LINE", (1, 1))
    with pytest.raises(NonGenericWeightError):
        classical_limit(from_preset("plane"), {"H": 1}, 2, 0)


def test_a_cell_with_n2_above_n1_builds_no_tangent(monkeypatch):
    # no pair of such a cell is nested, so its value is 0 before any
    # character, tangents included, is built
    calls = []
    character = universal._typeII_character
    monkeypatch.setattr(universal, "_typeII_character",
                        lambda *args: calls.append(args) or character(*args))
    plane = from_preset("plane")
    for n1, n2 in ((0, 1), (1, 2)):
        assert classical_limit(plane, {"H": 1}, n1, n2) == 0
    assert calls == []
    classical_limit(plane, {"H": 1}, 1, 0)
    assert len(calls) == 3              # one per nested pair


def test_a_cell_with_n2_above_n1_checks_its_inputs_first():
    plane = from_preset("plane")
    with pytest.raises(ValueError, match="untwisted"):
        classical_limit(plane, TwistedBundleSpec({"H": 1}, 1), 0, 1)
    for n1, n2 in ((-1, 0), (-1, 1), (0, -1)):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            classical_limit(plane, {"H": 1}, n1, n2)


# -- the Hilbert-scheme row against its closed form --------------------------

def test_hilbert_row_on_the_plane():
    assert hilbert_row(3, 9, 6) == [1, -42, 765, -8120, 57294, -290196,
                                    1106702]


def test_the_one_point_cell_of_a_surface_no_preset_covers():
    model = two_point_blowup()
    for L, want in (({"H": 1}, -34), ({"H": 2, "E1": -1}, -38),
                    ({"H": 1, "E1": -1}, -32)):
        _, L_c1, c1_sq, _ = invariants(model, L)
        assert -2 * L_c1 - 4 * c1_sq == want
        assert classical_limit(model, L, 1, 0) == want


# three divisors per preset, one of them negative
HILBERT_ROW_CASES = [
    ("plane", {"H": 1}, 5), ("plane", {"H": 2}, 5), ("plane", {"H": -2}, 5),
    ("quadric", {"A": 1, "B": 1}, 5), ("quadric", {"A": 1, "B": 2}, 5),
    ("quadric", {"A": -1, "B": 1}, 5),
    ("hirzebruch1", {"C0": 1, "F": 2}, 5), ("hirzebruch1", {"C0": 2, "F": 3}, 5),
    ("hirzebruch1", {"C0": -1}, 5),
    ("hirzebruch2", {"C0": 1, "F": 2}, 5), ("hirzebruch2", {"F": 1}, 5),
    ("hirzebruch2", {"C0": -1, "F": -1}, 5),
    ("hirzebruch3", {"C0": 1, "F": 5}, 5), ("hirzebruch3", {"C0": 1, "F": 3}, 5),
    ("hirzebruch3", {"C0": -1}, 5),
    ("blowup2", {"H": 1}, 5), ("blowup2", {"H": 2, "E1": -1}, 5),
    ("plane+quadric", {"a.H": 1, "b.A": 1, "b.B": 1}, 4),
]


def _hilbert_row_model(name):
    if name == "blowup2":
        return two_point_blowup()
    if "+" in name:
        a, b = name.split("+")
        return from_preset(a).disjoint_union(from_preset(b))
    return from_preset(name)


@pytest.mark.parametrize("name,L,N", HILBERT_ROW_CASES,
                         ids=[name + "-" + ",".join(f"{k}={v}" for k, v in
                                                   L.items())
                              for name, L, _ in HILBERT_ROW_CASES])
def test_the_hilbert_row_has_its_closed_form(name, L, N):
    model = _hilbert_row_model(name)
    _, L_c1, c1_sq, _ = invariants(model, L)
    row = [classical_limit(model, L, n, 0) for n in range(N + 1)]
    assert row == hilbert_row(L_c1, c1_sq, N)


def test_the_L0_series_of_a_12_ray_surface_is_its_diagonal():
    # every cell n1 + n2 <= 6: 1, 12, 90, 520 on the diagonal, 0 off it
    model = twelve_ray_surface()
    assert (model.chern.c1_sq, model.chern.c2) == (0, 12)
    want = colored_counts(12, 3)
    for n1 in range(7):
        for n2 in range(7 - n1):
            got = classical_limit(model, {}, n1, n2)
            assert got == (want[n1] if n1 == n2 else 0), (n1, n2)


# -- the chart product against the walk over every fixed-point pair -------

PAIR_WALK_CASES = list(ROUTE_DIVISORS.items()) + [
    ("plane+quadric", {"a.H": 1, "b.A": 1, "b.B": 1}),
    ("plane+plane", {"a.H": 1, "b.H": 1})]


@pytest.mark.parametrize("name,L", PAIR_WALK_CASES,
                         ids=[name for name, _ in PAIR_WALK_CASES])
def test_the_chart_product_is_the_pair_walk(name, L):
    model = _hilbert_row_model(name)
    for n in range(6):
        for n1 in range(n + 1):
            assert (classical_limit(model, L, n1, n - n1)
                    == classical_limit_pair_walk(model, L, n1, n - n1)), \
                (n1, n - n1)


def test_a_cell_above_the_maximum_is_refused_before_any_character(
        monkeypatch):
    def no_character(*args):
        raise AssertionError("a character was built")
    monkeypatch.setattr(universal, "_typeII_character", no_character)
    top = universal.MAX_CLASSICAL_POINTS
    for n1, n2 in ((top + 1, 0), (top, 1), (10 ** 30, 10 ** 30)):
        with pytest.raises(ValueError, match=re.escape(
                f"classical limit at n1 + n2 = {n1 + n2}, above the maximum "
                f"{top}")):
            classical_limit(from_preset("plane"), {"H": 1}, n1, n2)


# one divisor per preset and two more, negative ones among them
SYMBOLIC_ROW_CASES = [
    ("plane", {"H": 1}), ("plane", {"H": -2}), ("quadric", {"A": 1, "B": 2}),
    ("hirzebruch1", {"C0": 1, "F": 2}), ("hirzebruch2", {"F": 1}),
    ("hirzebruch3", {"C0": -1}), ("hirzebruch3", {"C0": 1, "F": 5}),
]


def test_symbolic_one_and_two_point_integrals_are_the_hilbert_row():
    # divided by the prefactor and taken at e1 = e2 = 0 and s = 1, the
    # symbolic (n, 0) integral is the classical cell
    for name, L in SYMBOLIC_ROW_CASES:
        model = from_preset(name)
        _, L_c1, c1_sq, _ = invariants(model, L)
        pre = PrefactorData.from_model(model, L).value()
        got = [(typeII_component_integral(model, L, n, 0) / pre).specialize(
            {"s": 1, "e1": 0, "e2": 0}).as_fraction() for n in (1, 2)]
        assert got == hilbert_row(L_c1, c1_sq, 2)[1:], (name, L)
