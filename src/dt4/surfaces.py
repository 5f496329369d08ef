"""Toric surface models: fixed-point weights, line bundle data, cohomology.

A model is one or more complete smooth fan components.  Each torus fixed
point is a two dimensional cone; its chart carries a pair of tangent weight
forms (w1, w2) in the deformation parameters (e1, e2).  Weight convention,
fixed once and validated by the oracles in ``validate_model``:

- a character chi^m contributes the additive weight -(m0*e1 + m1*e2);
- tangent weights at a cone are the dual basis forms of the cone;
- the fiber weight of O(D) at a fixed point is -m_p(D), where m_p(D) is
  the local trivializing character of D on that cone.

Divisor classes are maps from basis divisor names to integers.  Disjoint
unions concatenate everything blockwise, reusing the same (e1, e2) pair
for every component; that specialization keeps all localization
denominators nonzero because no character ever mixes components.
"""

from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction
from typing import NamedTuple


class SurfaceChernData(NamedTuple):
    """Chern numbers of the model surface."""
    c1_sq: int
    c2: int
    chi_O: int


class FixedPointChart(NamedTuple):
    """One torus fixed point: component and cone indices plus tangent
    weight forms, each a coefficient pair over (e1, e2)."""
    component: int
    cone: int
    w1: tuple
    w2: tuple


class _FanComponent:
    """One connected complete smooth fan with its ray divisor data."""

    __slots__ = ("rays", "cones", "ray_coeffs")

    def __init__(self, rays, cones, ray_coeffs):
        self.rays = [tuple(r) for r in rays]
        self.cones = [tuple(c) for c in cones]
        # basis divisor name -> per-ray integer coefficients
        self.ray_coeffs = {k: tuple(v) for k, v in ray_coeffs.items()}

    def divisor_coeffs(self, d):
        """Per-ray coefficients of the divisor map ``d`` on this fan."""
        coeffs = [0] * len(self.rays)
        for k, c in d.items():
            rc = self.ray_coeffs.get(k)
            if rc is not None:
                for r in range(len(coeffs)):
                    coeffs[r] += c * rc[r]
        return coeffs

    def cone_weight(self, cone, a, b):
        """The integral m with <m, v_i> = a and <m, v_j> = b, cone (i, j)."""
        i, j = self.cones[cone]
        return _as_int_pair(*_solve2(self.rays[i], self.rays[j], a, b))

    def dual_basis(self, cone):
        """Tangent weight forms at a cone: its dual basis (m1, m2)."""
        return self.cone_weight(cone, 1, 0), self.cone_weight(cone, 0, 1)

    def basis_weight(self, k, cone):
        """Fiber weight form -m_p(D_k) of O(D_k) at a cone."""
        a = self.ray_coeffs.get(k)
        if a is None:
            return (0, 0)
        i, j = self.cones[cone]
        m = self.cone_weight(cone, -a[i], -a[j])
        return (-m[0], -m[1])


def _solve2(v1, v2, b1, b2):
    """Solve m·v1 = b1, m·v2 = b2 for m, exactly."""
    det = v1[0] * v2[1] - v1[1] * v2[0]
    if det == 0:
        raise ValueError("degenerate cone")
    x = Fraction(b1 * v2[1] - b2 * v1[1], det)
    y = Fraction(v1[0] * b2 - v2[0] * b1, det)
    return x, y


def _as_int_pair(x, y):
    if x.denominator != 1 or y.denominator != 1:
        raise ValueError("non-integral weight; fan is not smooth")
    return (int(x), int(y))


class ToricSurfaceModel:
    """Localization target data for one or more toric surface components."""

    def __init__(self, name, components, fixed_points, basis, pairing,
                 canonical, chern):
        self.name = name
        self.components = components
        self.fixed_points = fixed_points
        self.basis = tuple(basis)
        self.pairing = {k: dict(v) for k, v in pairing.items()}
        self.canonical = dict(canonical)
        self.chern = chern
        # basis divisor name -> its fiber weight form at every fixed point
        self._basis_weights = {
            k: [components[fp.component].basis_weight(k, fp.cone)
                for fp in fixed_points]
            for k in self.basis}
        self._coh_cache = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_fan(cls, name, rays, ray_coeffs, pairing, canonical, chern):
        """Build a one-component model; cones are consecutive ray pairs,
        rays listed counterclockwise."""
        n = len(rays)
        if n < 3:
            raise ValueError(f"fan of {name} has {n} rays, fewer than three")
        cones = [(i, (i + 1) % n) for i in range(n)]
        comp = _FanComponent(rays, cones, ray_coeffs)
        fps = [FixedPointChart(0, ci, *comp.dual_basis(ci))
               for ci in range(n)]
        return cls(name, [comp], fps, sorted(ray_coeffs), pairing, canonical,
                   chern)

    @property
    def euler_char(self):
        return len(self.fixed_points)

    # -- divisor arithmetic ------------------------------------------------

    def check_divisor(self, d):
        unknown = set(d) - set(self.basis)
        if unknown:
            raise ValueError(f"divisor outside the model lattice: "
                             f"{sorted(unknown)}")
        return {k: int(v) for k, v in d.items() if v}

    def pair(self, d1, d2):
        d1 = self.check_divisor(d1)
        d2 = self.check_divisor(d2)
        total = 0
        for k1, c1 in d1.items():
            row = self.pairing.get(k1, {})
            for k2, c2 in d2.items():
                total += c1 * c2 * row.get(k2, 0)
        return total

    def canonical_divisor(self):
        return dict(self.canonical)

    def chi(self, d):
        """Euler characteristic of O(d) by Riemann-Roch."""
        k = self.canonical_divisor()
        return self.chern.chi_O + (self.pair(d, d) - self.pair(d, k)) // 2

    # -- per-fixed-point weights -------------------------------------------

    def bundle_weights(self, d):
        """Fiber weight forms of O(d) at every fixed point, over (e1, e2)."""
        out = [(0, 0)] * self.euler_char
        for k, c in self.check_divisor(d).items():
            out = [(x + c * a, y + c * b)
                   for (x, y), (a, b) in zip(out, self._basis_weights[k])]
        return out

    # -- sheaf cohomology --------------------------------------------------

    def cohomology_character(self, d):
        """Weight form -> multiplicity for the full cohomology of O(d).

        H^0 and H^2 lattice points count +1, an H^1 point with c failing
        arcs counts -(c-1); the alternating-sum rank equals chi(d).
        """
        d = self.check_divisor(d)
        key = tuple(sorted(d.items()))
        cached = self._coh_cache.get(key)
        if cached is not None:
            return dict(cached)
        out = {}
        for comp in self.components:
            coeffs = comp.divisor_coeffs(d)
            for (m, mult) in _lattice_cohomology(comp.rays, coeffs):
                w = (-m[0], -m[1])
                n = out.get(w, 0) + mult
                if n:
                    out[w] = n
                else:
                    del out[w]
        self._coh_cache[key] = dict(out)
        return out

    # -- composition -------------------------------------------------------

    def disjoint_union(self, other):
        """Blockwise union; basis names get the prefixes "a." and "b."."""

        def relabel(model, prefix, comp_offset):
            comps = [_FanComponent(c.rays, c.cones,
                                   {prefix + k: v for k, v in c.ray_coeffs.items()})
                     for c in model.components]
            fps = [FixedPointChart(fp.component + comp_offset, fp.cone,
                                   fp.w1, fp.w2)
                   for fp in model.fixed_points]
            basis = [prefix + k for k in model.basis]
            pairing = {prefix + k1: {prefix + k2: v for k2, v in row.items()}
                       for k1, row in model.pairing.items()}
            canonical = {prefix + k: v for k, v in model.canonical.items()}
            return comps, fps, basis, pairing, canonical

        ca, fa, ba, paira, kana = relabel(self, "a.", 0)
        cb, fb, bb, pairb, kanb = relabel(other, "b.", len(self.components))
        chern = SurfaceChernData(self.chern.c1_sq + other.chern.c1_sq,
                                 self.chern.c2 + other.chern.c2,
                                 self.chern.chi_O + other.chern.chi_O)
        pairing = {**paira, **pairb}
        return ToricSurfaceModel(f"{self.name}+{other.name}", ca + cb, fa + fb,
                                 ba + bb, pairing, {**kana, **kanb}, chern)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        if len(self.components) != 1:
            raise ValueError("only one-component models serialize to presets")
        comp = self.components[0]
        return {
            "name": self.name,
            "fixed_points": [{"w1": list(fp.w1), "w2": list(fp.w2)}
                             for fp in self.fixed_points],
            "bundles": {k: {"weights": [list(w) for w in ws]}
                        for k, ws in self._basis_weights.items()},
            "chern": {"c1_sq": self.chern.c1_sq, "c2": self.chern.c2,
                      "chi_O": self.chern.chi_O},
            "pairing": {k1: dict(row) for k1, row in self.pairing.items()},
            "canonical": dict(self.canonical),
            "fan": {"rays": [list(r) for r in comp.rays],
                    "cones": [list(c) for c in comp.cones],
                    "ray_coeffs": {k: list(v) for k, v in
                                   comp.ray_coeffs.items()}},
        }

    @classmethod
    def from_json(cls, data):
        """Model from preset data; malformed data raises ValueError."""
        try:
            return cls._from_json(data)
        except (KeyError, TypeError, IndexError, AttributeError) as exc:
            raise ValueError(f"malformed preset: missing or ill-typed entry "
                             f"({type(exc).__name__}: {exc})") from None

    @classmethod
    def _from_json(cls, data):
        """Model from its fan; stored entries must equal ``to_json``'s."""
        fan = data["fan"]
        basis = sorted(fan["ray_coeffs"])
        _check_ints(data["chern"], "chern")
        _check_ints(data["canonical"], "canonical", basis)
        _check_ints(data["pairing"], "pairing", basis, depth=2)
        model = cls.from_fan(data["name"], fan["rays"], fan["ray_coeffs"],
                             data["pairing"], data["canonical"],
                             SurfaceChernData(**data["chern"]))
        for key, derived in model.to_json().items():
            if data[key] != derived:
                raise ValueError(f"malformed preset: {data['name']} stores "
                                 f"{key} that disagree with its fan")
        return model


def _check_ints(mapping, what, basis=None, depth=1):
    """Preset entries at nesting ``depth`` are plain ints (no bools,
    strings or floats), keyed by basis divisor names given a ``basis``."""
    for k, v in mapping.items():
        if basis is not None and k not in basis:
            raise ValueError(f"malformed preset: {what} names {k!r}, "
                             "which is not a basis divisor")
        if depth > 1:
            _check_ints(v, f"{what}[{k!r}]", basis, depth - 1)
        elif type(v) is not int:
            raise ValueError(f"malformed preset: {what}[{k!r}] is {v!r}, "
                             "not an integer")


PRESET_NAMES = ("plane", "quadric", "hirzebruch1", "hirzebruch2", "hirzebruch3")
PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")


def from_preset(name):
    """Load a surface model by name from DT4_PRESET_DIR if it holds the
    preset, else from the packaged presets next to this module."""
    if os.path.basename(name) != name:
        raise ValueError(f"unknown surface preset: {name}")
    env = os.environ.get("DT4_PRESET_DIR")
    path = os.path.join(env or PRESET_DIR, f"{name}.json")
    if env and not os.path.exists(path):
        path = os.path.join(PRESET_DIR, f"{name}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"unknown surface preset: {name}") from None
    return ToricSurfaceModel.from_json(data)


# -- lattice-point cohomology ----------------------------------------------

def _lattice_cohomology(rays, coeffs):
    """Cohomology weights of O(sum coeffs[r] * D_r) on a complete smooth
    surface fan, as (lattice point, signed multiplicity) pairs.

    For each lattice point m the rays with <m, v> < -a fail; no failures
    is an H^0 point, all failing is H^2, and c >= 2 circular arcs of
    failures contribute H^1 with multiplicity c - 1 (sign -1 in the
    alternating sum).  Only finitely many points have c != 1 and they lie
    within the bounding box of the pairwise line intersections.
    """
    n = len(rays)
    xs, ys = [Fraction(0)], [Fraction(0)]
    for i in range(n):
        for j in range(i + 1, n):
            try:
                x, y = _solve2(rays[i], rays[j], -coeffs[i], -coeffs[j])
            except ValueError:
                continue
            xs.append(x)
            ys.append(y)
    x0, x1 = int(min(xs)) - 2, int(max(xs)) + 2
    y0, y1 = int(min(ys)) - 2, int(max(ys)) + 2
    out = []
    for mx in range(x0, x1 + 1):
        for my in range(y0, y1 + 1):
            fails = [mx * v[0] + my * v[1] < -a for v, a in zip(rays, coeffs)]
            nf = sum(fails)
            if nf == 0:
                out.append(((mx, my), 1))
            elif nf == n:
                out.append(((mx, my), 1))
            else:
                arcs = sum(1 for r in range(n)
                           if fails[r] and not fails[(r - 1) % n])
                if arcs > 1:
                    out.append(((mx, my), -(arcs - 1)))
    return out


# -- validation oracles ----------------------------------------------------

def validate_model(model):
    """Cross-check a model's declared data against independent routes.

    Raises AssertionError with a diagnostic on any mismatch.  Checks:
    Noether's formula, Euler characteristic vs fixed points, trivial
    bundle cohomology, Riemann-Roch ranks vs lattice cohomology, Serre
    duality at character level, and the declared pairing matrix against
    equivariant localization with specialized weights.
    """
    ch = model.chern
    assert 12 * ch.chi_O == ch.c1_sq + ch.c2, \
        f"{model.name}: Noether fails: 12*{ch.chi_O} != {ch.c1_sq}+{ch.c2}"
    assert model.euler_char == ch.c2, \
        f"{model.name}: fixed point count {model.euler_char} != c2 {ch.c2}"
    kd = model.canonical_divisor()
    assert model.pair(kd, kd) == ch.c1_sq, \
        f"{model.name}: K.K {model.pair(kd, kd)} != c1_sq {ch.c1_sq}"

    triv = model.cohomology_character({})
    assert triv == {(0, 0): len(model.components)}, \
        f"{model.name}: cohomology of O is {triv}"

    div_iter = _divisor_samples(model)
    eps = (Fraction(97, 89), Fraction(-61, 53))
    for d in div_iter:
        coh = model.cohomology_character(d)
        rank = sum(coh.values())
        assert rank == model.chi(d), \
            f"{model.name}: rank {rank} != chi {model.chi(d)} for {d}"
        # character-level Serre duality per component, with the canonical
        # linearization a_r = -1 on every ray
        for comp in model.components:
            coeffs = comp.divisor_coeffs(d)
            here = {}
            for m, mult in _lattice_cohomology(comp.rays, coeffs):
                here[m] = here.get(m, 0) + mult
            dual = {}
            for m, mult in _lattice_cohomology(comp.rays,
                                               [-1 - c for c in coeffs]):
                dual[m] = dual.get(m, 0) + mult
            conj = {(-m[0], -m[1]): v for m, v in here.items() if v}
            dual = {m: v for m, v in dual.items() if v}
            assert dual == conj, f"{model.name}: Serre duality fails for {d}"

    for k1 in model.basis:
        for k2 in model.basis:
            total = Fraction(0)
            for fp, b1, b2 in zip(model.fixed_points,
                                  model.bundle_weights({k1: 1}),
                                  model.bundle_weights({k2: 1})):
                w1, w2 = fp.w1, fp.w2
                den = ((w1[0] * eps[0] + w1[1] * eps[1])
                       * (w2[0] * eps[0] + w2[1] * eps[1]))
                num = ((b1[0] * eps[0] + b1[1] * eps[1])
                       * (b2[0] * eps[0] + b2[1] * eps[1]))
                total += num / den
            expected = model.pair({k1: 1}, {k2: 1})
            assert total == expected, \
                f"{model.name}: localized {k1}.{k2} = {total} != {expected}"


def _divisor_samples(model):
    """Every divisor with coefficients in [-2, 2] on the first two basis
    divisors."""
    names = model.basis[:2]
    return [model.check_divisor(dict(zip(names, coeffs)))
            for coeffs in itertools.product(range(-2, 3), repeat=len(names))]
