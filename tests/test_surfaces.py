"""Toric surface models and their preset data files."""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from dt4.surfaces import (PRESET_NAMES, ToricSurfaceModel, from_preset,
                          validate_model)

from oracles import chi_riemann_roch


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


def inconsistent_presets():
    """(preset name, data): copies of packaged presets whose stored charts
    or bundle weights disagree with their fan: truncated, one weight per
    bundle, reversed."""
    plane, quadric = packaged_preset("plane"), packaged_preset("quadric")
    return [
        ("plane",
         {**plane, "fixed_points": plane["fixed_points"][:2],
          "bundles": {"H": {"weights": plane["bundles"]["H"]["weights"][:2]}}}),
        ("quadric",
         {**quadric, "bundles": {k: {"weights": rec["weights"][:1]}
                                 for k, rec in quadric["bundles"].items()}}),
        ("plane", {**plane, "fixed_points": plane["fixed_points"][::-1]}),
    ]


def test_preset_dir_env(tmp_path, monkeypatch):
    blob = packaged_preset("plane")
    blob["name"] = "custom"
    # entries that to_json does not write are ignored
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
    assert from_preset("plane").canonical_divisor() == {"H": -3}
    assert from_preset("quadric").canonical_divisor() == {"A": -2, "B": -2}
    h2 = from_preset("hirzebruch2")
    # K = -2 C0 - (2 + k) F on the k-th ruled surface
    assert h2.canonical_divisor() == {"C0": -2, "F": -4}


def test_check_divisor():
    plane = from_preset("plane")
    assert plane.check_divisor({"H": 2}) == {"H": 2}
    assert plane.check_divisor({"H": 0}) == {}
    with pytest.raises(ValueError):
        plane.check_divisor({"A": 1})


def test_chern_data():
    plane = from_preset("plane")
    assert (plane.chern.c1_sq, plane.chern.c2, plane.chern.chi_O) == (9, 3, 1)
    quadric = from_preset("quadric")
    assert (quadric.chern.c1_sq, quadric.chern.c2) == (8, 4)
    # Noether holds for every preset
    for name in PRESET_NAMES:
        ch = from_preset(name).chern
        assert 12 * ch.chi_O == ch.c1_sq + ch.c2


def test_euler_char_counts_fixed_points():
    for name in PRESET_NAMES:
        model = from_preset(name)
        assert model.euler_char == model.chern.c2
        assert len(model.fixed_points) == model.chern.c2


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
        for d in ({}, model.canonical_divisor()):
            coh = model.cohomology_character(d)
            assert sum(coh.values()) == model.chi(d)
    plane = from_preset("plane")
    assert sum(plane.cohomology_character({"H": 2}).values()) == 6


def test_cohomology_of_structure_sheaf():
    # rational surfaces: only the trivial weight, multiplicity one
    for name in PRESET_NAMES:
        model = from_preset(name)
        assert model.cohomology_character({}) == {(0, 0): 1}


def test_tangent_weights_are_dual_bases():
    # each chart's weights span the lattice with determinant +-1
    for name in PRESET_NAMES:
        model = from_preset(name)
        for fp in model.fixed_points:
            w1, w2 = fp.w1, fp.w2
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
    assert u.euler_char == 7
    assert set(u.basis) == {"a.H", "b.A", "b.B"}
    # blockwise intersection: cross terms vanish
    assert u.pair({"a.H": 1}, {"b.A": 1}) == 0
    assert u.pair({"a.H": 1}, {"a.H": 1}) == 1
    assert u.pair({"b.A": 1}, {"b.B": 1}) == 1
    assert u.chi({"a.H": 1, "b.A": 1, "b.B": 1}) == 3 + 4


def test_to_json_roundtrip():
    plane = from_preset("plane")
    blob = plane.to_json()
    again = ToricSurfaceModel.from_json(blob)
    assert again.name == plane.name
    assert again.basis == plane.basis
    assert again.pair({"H": 1}, {"H": 1}) == 1
    validate_model(again)


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
    cases = [("plane", broken) for broken in (
        {"name": "plane"}, {**blob, "chern": {"c2": 3}},
        {**blob, "fixed_points": blob["fixed_points"] * 2},
        {**blob, "fan": {"rays": [[1, 0]]}})]
    cases += inconsistent_presets()
    for name, broken in cases:
        (tmp_path / f"{name}.json").write_text(json.dumps(broken))
        with pytest.raises(ValueError, match="malformed preset"):
            from_preset(name)
