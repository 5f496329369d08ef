"""Toric surface models and their preset data files."""

import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dt4.surfaces import (PRESET_DIR, PRESET_NAMES, ToricSurfaceModel,
                          from_preset)
from dt4.universal import battery_configs

from oracles import (assert_localized_intersections, chi_riemann_roch,
                     twelve_ray_surface, validate_model)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def test_preset_names():
    assert PRESET_NAMES == ("plane", "quadric", "hirzebruch1", "hirzebruch2",
                            "hirzebruch3")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_validate(name):
    validate_model(from_preset(name))


def test_unknown_preset():
    with pytest.raises(ValueError):
        from_preset("banana")


def packaged_preset(name):
    from importlib import resources
    return json.loads((resources.files("dt4") / "presets" /
                       f"{name}.json").read_text())


NOT_A_FAN = "the rays of {} are not a smooth complete fan listed " \
    "counterclockwise"


def bad_fan_presets():
    """(preset data, the error it ends in): presets written as the
    keyword arguments of ``from_fan`` whose fan is no smooth complete
    surface listed counterclockwise, or whose basis misses the canonical
    class."""
    plane = [[1, 0], [0, 1], [-1, -1]]
    return [
        # the quadric with its first ray negated: two copies of (-1, 0)
        ({"name": "quadric", "rays": [[-1, 0], [0, 1], [-1, 0], [0, -1]],
          "ray_coeffs": {"A": [1, 0, 0, 0], "B": [0, 1, 0, 0]}},
         NOT_A_FAN.format("quadric")),
        # the plane's rays twice: every cone unimodular, winding twice
        ({"name": "plane", "rays": plane * 2,
          "ray_coeffs": {"H": [1, 0, 0, 0, 0, 0]}},
         NOT_A_FAN.format("plane")),
        ({"name": "plane", "rays": plane[::-1], "ray_coeffs": {"H": [0, 0, 1]}},
         NOT_A_FAN.format("plane")),
        # without F, the solved canonical class is {"C0": 0}
        ({"name": "hirzebruch2", "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
          "ray_coeffs": {"C0": [0, 1, 0, 0]}},
         "the basis divisors of hirzebruch2 do not span its canonical class"),
    ]


def test_bad_fans_are_refused():
    for data, message in bad_fan_presets():
        with pytest.raises(ValueError) as exc:
            ToricSurfaceModel.from_fan(**data)
        assert str(exc.value) == message


@pytest.mark.parametrize("rays,ray_coeffs,message", [
    ([(1.0, 0), (0, 1), (-1, -1)], {"H": (1, 0, 0)},
     "malformed preset: rays[0][0] is 1.0, not an integer"),
    ([(1, 0), (0, 1), (-1, -1)], {"H": (1.0, 0, 0)},
     "malformed preset: ray_coeffs['H'][0] is 1.0, not an integer"),
    ([(1, 0), (0, 1), (-1, -1)], {"H": (1, 0, True)},
     "malformed preset: ray_coeffs['H'][2] is True, not an integer")],
    ids=["float-ray", "float-coefficient", "bool-coefficient"])
def test_from_fan_refuses_entries_that_are_not_ints(rays, ray_coeffs,
                                                    message):
    # a float ray once ended in a TypeError from math.lcm, and a float
    # coefficient loaded with the float pairing {'H': {'H': 1.0}}
    with pytest.raises(ValueError) as exc:
        ToricSurfaceModel.from_fan("p", rays, ray_coeffs)
    assert str(exc.value) == message


@pytest.mark.parametrize("rays,ray_coeffs,message", [
    ([(1, 0), (0, 1), (-1, -1)], {"H": (1, 0)},
     "malformed preset: p stores ray_coeffs without one entry per ray"),
    ([(1, 0), (0, 1), (-1, -1)], {"H": (1, 0, 0, 0)},
     "malformed preset: p stores ray_coeffs without one entry per ray"),
    ([(1, 0, 0), (0, 1), (-1, -1)], {"H": (1, 0, 0)},
     "malformed preset: p stores a ray without two coordinates")],
    ids=["short-coefficients", "long-coefficients", "three-coordinate-ray"])
def test_from_fan_refuses_lists_of_the_wrong_length(rays, ray_coeffs,
                                                    message):
    # a short list once ended in an IndexError, and the other two loaded
    # as the plane, their extra entries never read
    with pytest.raises(ValueError) as exc:
        ToricSurfaceModel.from_fan("p", rays, ray_coeffs)
    assert str(exc.value) == message


def test_a_preset_with_a_shape_and_a_type_error_reports_the_shape(
        tmp_path, monkeypatch):
    # shapes are checked before types, so the float in the three-coordinate
    # ray is never reached
    blob = packaged_preset("plane")
    blob["rays"][0] = [1.0, 0, 0]
    (tmp_path / "plane.json").write_text(json.dumps(blob))
    monkeypatch.setenv("DT4_PRESET_DIR", str(tmp_path))
    with pytest.raises(ValueError) as exc:
        from_preset("plane")
    assert str(exc.value) == ("malformed preset: plane stores a ray without "
                              "two coordinates")


def test_preset_dir_env(tmp_path, monkeypatch):
    blob = packaged_preset("plane")
    blob["name"] = "custom"
    # entries other than the arguments of from_fan are ignored
    blob["comment"] = "plane under another name"
    (tmp_path / "custom.json").write_text(json.dumps(blob))
    monkeypatch.setenv("DT4_PRESET_DIR", str(tmp_path))
    model = from_preset("custom")
    assert model.name == "custom"
    validate_model(model)


def test_intersection_numbers():
    plane = from_preset("plane")
    assert plane.pair({"H": 1}, {"H": 1}) == 1
    quadric = from_preset("quadric")
    assert quadric.pair({"A": 1}, {"B": 1}) == 1
    assert quadric.pair({"A": 1}, {"A": 1}) == 0
    for k in (1, 2, 3):
        h = from_preset(f"hirzebruch{k}")
        assert h.pair({"C0": 1}, {"C0": 1}) == -k
        assert h.pair({"C0": 1}, {"F": 1}) == 1
        assert h.pair({"F": 1}, {"F": 1}) == 0


def test_canonical_divisors():
    assert from_preset("plane").canonical == {"H": -3}
    assert from_preset("quadric").canonical == {"A": -2, "B": -2}
    h2 = from_preset("hirzebruch2")
    # K = -2 C0 - (2 + k) F on the k-th ruled surface
    assert h2.canonical == {"C0": -2, "F": -4}


def test_check_divisor():
    plane = from_preset("plane")
    assert plane.check_divisor({"H": 2}) == {"H": 2}
    assert plane.check_divisor({"H": 0}) == {}
    with pytest.raises(ValueError):
        plane.check_divisor({"A": 1})
    # a coefficient that is no plain int is refused, not truncated to one
    for value in (1.5, True, "2", Fraction(2)):
        with pytest.raises(ValueError) as exc:
            plane.check_divisor({"H": value})
        assert str(exc.value) == (f"divisor coefficient H={value!r} is not "
                                  "an integer")


def test_chern_data():
    plane = from_preset("plane")
    assert (plane.chern.c1_sq, plane.chern.c2, plane.chern.chi_O) == (9, 3, 1)
    quadric = from_preset("quadric")
    assert (quadric.chern.c1_sq, quadric.chern.c2) == (8, 4)
    # Noether, with K.K from the pairing rather than the c1_sq the
    # constructor sets to 12 chi(O) - c2, on every preset and union
    for model in battery_models():
        ch = model.chern
        assert 12 * ch.chi_O == model.pair(model.canonical,
                                           model.canonical) + ch.c2, model.name


def test_euler_char_counts_fixed_points():
    # c2 counts the fixed points, one per cone, and a complete fan has as
    # many cones as rays
    for model in battery_models():
        assert model.chern.c2 == sum(len(fan.rays) for fan in model.fans)


def test_chi_matches_riemann_roch_oracle():
    cases = {
        "plane": [{}, {"H": 1}, {"H": 2}, {"H": -1}, {"H": 4}],
        "quadric": [{}, {"A": 1}, {"A": 1, "B": 1}, {"A": 2, "B": 1}],
        "hirzebruch2": [{}, {"C0": 1, "F": 2}, {"C0": 1, "F": 3}, {"F": 1}],
    }
    for name, divisors in cases.items():
        model = from_preset(name)
        for d in divisors:
            assert model.chi(d) == chi_riemann_roch(model, d)


def test_chi_spot_values():
    plane = from_preset("plane")
    assert plane.chi({}) == 1
    assert plane.chi({"H": 1}) == 3
    assert plane.chi({"H": 2}) == 6
    quadric = from_preset("quadric")
    # chi(aA + bB) = (a+1)(b+1) for a, b >= -1
    for a in range(3):
        for b in range(3):
            assert quadric.chi({"A": a, "B": b}) == (a + 1) * (b + 1)


def test_cohomology_character_rank():
    for name in ("plane", "quadric", "hirzebruch1"):
        model = from_preset(name)
        for d in ({}, model.canonical):
            coh = model.cohomology_character(d)
            assert sum(coh.terms.values()) == model.chi(d)
    plane = from_preset("plane")
    assert sum(plane.cohomology_character({"H": 2}).terms.values()) == 6


def test_cohomology_of_structure_sheaf():
    # rational surfaces: only the trivial weight, multiplicity one
    for name in PRESET_NAMES:
        model = from_preset(name)
        assert model.cohomology_character({}).terms == {(0, 0): 1}


def test_tangent_weights_are_dual_bases():
    # each chart's weights span the lattice with determinant +-1
    for name in PRESET_NAMES:
        model = from_preset(name)
        for w1, w2 in model.fixed_points:
            det = w1[0] * w2[1] - w1[1] * w2[0]
            assert det in (1, -1)


def test_bundle_weight_linearity():
    model = from_preset("quadric")
    wa = model.bundle_weights({"A": 1})
    wb = model.bundle_weights({"B": 1})
    assert model.bundle_weights({"A": 2, "B": -1}) == [
        (2 * a[0] - b[0], 2 * a[1] - b[1]) for a, b in zip(wa, wb)]
    assert model.bundle_weights({}) == [(0, 0)] * 4


def test_disjoint_union():
    plane = from_preset("plane")
    quadric = from_preset("quadric")
    u = plane.disjoint_union(quadric)
    validate_model(u)
    assert u.chern.c2 == 7
    assert u.chern.chi_O == 2
    assert len(u.fixed_points) == 7
    assert set(u.basis) == {"a.H", "b.A", "b.B"}
    # blockwise intersection: cross terms vanish
    assert u.pair({"a.H": 1}, {"b.A": 1}) == 0
    assert u.pair({"a.H": 1}, {"a.H": 1}) == 1
    assert u.pair({"b.A": 1}, {"b.B": 1}) == 1
    assert u.chi({"a.H": 1, "b.A": 1, "b.B": 1}) == 3 + 4


def battery_models():
    """Every distinct model the fit battery samples, in order of first use:
    the five presets and five unions."""
    models = []
    for model, _ in battery_configs():
        if all(model is not m for m in models):
            models.append(model)
    return models


def battery_model_charts():
    """Name, charts, basis, basis bundle weights, pairing, canonical class
    and Chern numbers of every battery model, as JSON values."""
    return [{"name": m.name,
             "fixed_points": [[list(w1), list(w2)]
                              for w1, w2 in m.fixed_points],
             "basis": list(m.basis),
             "bundle_weights": {k: [list(w) for w in m.bundle_weights({k: 1})]
                                for k in m.basis},
             "pairing": {k: {j: m.pair({k: 1}, {j: 1})
                             for j in fan.ray_coeffs}
                         for fan in m.fans for k in fan.ray_coeffs},
             "canonical": m.canonical,
             "chern": m.chern._asdict()} for m in battery_models()]


def test_battery_model_charts_are_golden():
    # five presets and five unions; the chart order inside a union fixes
    # the order of --audit rows and of the pairs handed to a pool
    with open(os.path.join(DATA, "battery_model_charts.json")) as fh:
        golden = json.load(fh)
    assert len(golden) == 10
    assert battery_model_charts() == golden


def test_the_pairing_and_canonical_class_match_localization():
    # the toric formula against Bott localization over the fixed points
    for model in battery_models() + [twelve_ray_surface(),
                                     two_point_blowup()]:
        assert_localized_intersections(model)


# the plane blown up in two torus-fixed points, a surface that no preset
# covers: rays and ray coefficients alone
BLOWUP2 = {"name": "blowup2",
           "rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1]],
           "ray_coeffs": {"H": [0, 0, 0, 1, 1], "E1": [0, 1, 0, 0, 0],
                          "E2": [0, 0, 0, 1, 0]}}


def two_point_blowup():
    return ToricSurfaceModel.from_fan(**BLOWUP2)


def test_a_fan_fixes_the_intersection_data():
    model = two_point_blowup()
    # H^2 = 1, E1^2 = E2^2 = -1, K = -3H + E1 + E2, c1^2 = 9 - 2
    assert {(k, j): model.pair({k: 1}, {j: 1})
            for k in model.basis for j in model.basis} == {
        ("H", "H"): 1, ("E1", "E1"): -1, ("E2", "E2"): -1,
        ("H", "E1"): 0, ("H", "E2"): 0, ("E1", "H"): 0, ("E1", "E2"): 0,
        ("E2", "H"): 0, ("E2", "E1"): 0}
    assert model.canonical == {"H": -3, "E1": 1, "E2": 1}
    assert model.chern._asdict() == {"c1_sq": 7, "c2": 5, "chi_O": 1}
    validate_model(model)
    again = ToricSurfaceModel.from_json(json.loads(json.dumps(BLOWUP2)))
    assert again.fixed_points == model.fixed_points
    assert (again.fans, again.canonical) == (model.fans, model.canonical)


def test_a_basis_that_fixes_no_canonical_class_raises():
    rays = [(1, 0), (0, 1), (-1, -1)]
    # two names for the same class
    with pytest.raises(ValueError, match="not independent"):
        ToricSurfaceModel.from_fan("plane", rays, {"H": (1, 0, 0),
                                                   "G": (0, 1, 0)})
    # K = -3/2 (2H)
    with pytest.raises(ValueError, match="no integral combination"):
        ToricSurfaceModel.from_fan("plane", rays, {"H2": (2, 0, 0)})


def test_packaged_presets_are_from_fan_arguments():
    # one file per preset name, holding exactly the arguments of from_fan
    assert sorted(os.listdir(PRESET_DIR)) == sorted(
        f"{name}.json" for name in PRESET_NAMES)
    for name in PRESET_NAMES:
        data = packaged_preset(name)
        assert sorted(data) == ["name", "ray_coeffs", "rays"]
        assert data["name"] == name


@st.composite
def blown_up_fans(draw):
    """Rays of the plane or of F_e, e <= 3, after 0-4 toric blow-ups: each
    inserts v_i + v_(i+1) between two consecutive rays."""
    e = draw(st.sampled_from([None, 0, 1, 2, 3]))
    rays = ([[1, 0], [0, 1], [-1, -1]] if e is None
            else [[1, 0], [0, 1], [-1, e], [0, -1]])
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rays) - 1))
        u, v = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, [u[0] + v[0], u[1] + v[1]])
    return rays


def fan_preset(rays):
    """Preset data of a fan with the basis D_2 ... D_(n-1)."""
    n = len(rays)
    return {"name": "fan", "rays": rays,
            "ray_coeffs": {f"D{r}": [int(q == r) for q in range(1, n + 1)]
                           for r in range(2, n)}}


@settings(max_examples=30, deadline=None)
@given(blown_up_fans(), st.data())
def test_generated_fans_load_and_their_perturbations_are_refused_or_valid(
        rays, data):
    model = ToricSurfaceModel.from_json(json.loads(json.dumps(
        fan_preset(rays))))
    validate_model(model)
    assert_localized_intersections(model)
    assert model.chern.c1_sq == 12 - len(rays)
    # negate one coordinate of one ray, or list the rays clockwise
    r = data.draw(st.integers(0, len(rays) - 1))
    x = data.draw(st.integers(0, 1))
    negated = [list(v) for v in rays]
    negated[r][x] = -negated[r][x]
    for perturbed in (fan_preset(negated), fan_preset(rays[::-1])):
        try:
            model = ToricSurfaceModel.from_json(perturbed)
        except ValueError:
            continue
        validate_model(model)
        assert_localized_intersections(model)


@settings(max_examples=30, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3))
def test_pair_bilinear_symmetric(a, b, c, d):
    model = from_preset("hirzebruch1")
    d1 = {"C0": a, "F": b}
    d2 = {"C0": c, "F": d}
    assert model.pair(d1, d2) == model.pair(d2, d1)
    dsum = {"C0": a + c, "F": b + d}
    assert model.pair(dsum, d2) == model.pair(d1, d2) + model.pair(d2, d2)


def test_malformed_preset_raises_value_error(tmp_path, monkeypatch):
    blob = packaged_preset("plane")
    monkeypatch.setenv("DT4_PRESET_DIR", str(tmp_path))
    # fan entries that are not integers
    floats = {**blob, "ray_coeffs": {"H": [1.5, 0, 0]}}
    bools = {**blob, "ray_coeffs": {"H": [True, 0, 0]}}
    float_ray = {**blob, "rays": [[1.0, 0], [0, 1], [-1, -1]]}
    # one coefficient more than rays, which the fiber weights never read
    extra = {**blob, "ray_coeffs": {"H": [1, 0, 0, 7]}}
    # the layout that stored the fan under "fan" beside derived copies
    old = {"name": "plane", "fan": {k: blob[k] for k in ("rays",
                                                         "ray_coeffs")},
           "chern": {"c1_sq": 9, "c2": 3, "chi_O": 1}}
    for broken in ({"name": "plane"}, {**blob, "rays": [[1, 0]]}, floats,
                   bools, float_ray, extra, old):
        (tmp_path / "plane.json").write_text(json.dumps(broken))
        with pytest.raises(ValueError, match="malformed preset"):
            from_preset("plane")
    (tmp_path / "plane.json").write_text(json.dumps(old))
    with pytest.raises(ValueError) as exc:
        from_preset("plane")
    assert str(exc.value) == ("malformed preset: missing or ill-typed entry "
                              "(KeyError: 'rays')")


def test_unreadable_preset_raises_value_error(tmp_path, monkeypatch):
    monkeypatch.setenv("DT4_PRESET_DIR", str(tmp_path))
    (tmp_path / "folder.json").mkdir()
    (tmp_path / "latin1.json").write_bytes('{"name": "é"}'.encode("latin-1"))
    (tmp_path / "truncated.json").write_text('{"name": ')
    for name, cause in (("folder", "IsADirectoryError"),
                        ("latin1", "UnicodeDecodeError"),
                        ("truncated", "JSONDecodeError")):
        with pytest.raises(ValueError, match=f"malformed preset: {name} "
                                             f"is not readable JSON .{cause}"):
            from_preset(name)
