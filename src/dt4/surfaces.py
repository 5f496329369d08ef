"""Toric surface models: fixed-point weights, line bundle data, cohomology.

A model is its fans: complete smooth fans with the basis divisors'
coefficients on their rays.  Each torus fixed point is a cone, a pair of
consecutive rays, and ``model.fixed_points`` holds its tangent weight forms
(w1, w2) in the deformation parameters (e1, e2), cones in ray order and
fans in order.  Weight convention, fixed once and validated by the oracles
in ``validate_model``:

- a character chi^m contributes the additive weight -(m0*e1 + m1*e2);
- tangent weights at a cone are the dual basis forms of the cone;
- the fiber weight of O(D) at a fixed point is -m_p(D), where m_p(D) is
  the local trivializing character of D on that cone.

Divisor classes are maps from basis divisor names to integers.  The fans
also fix the pairing, the canonical class and the Chern numbers, so a
model derives them and takes none as input.  Disjoint unions concatenate
the fans, reusing the same (e1, e2) pair for every fan; that
specialization keeps all localization denominators nonzero because no
character ever mixes fans.
"""

import itertools
import json
import math
import os
from fractions import Fraction
from typing import NamedTuple


class SurfaceChernData(NamedTuple):
    """Chern numbers of the model surface."""
    c1_sq: int
    c2: int
    chi_O: int


class _FanComponent(NamedTuple):
    """One connected complete smooth fan: its rays, counterclockwise, and
    per basis divisor name its integer coefficient on every ray.  Cone i
    is the ray pair (i, i + 1 mod the ray count)."""
    rays: tuple
    ray_coeffs: dict

    def divisor_coeffs(self, d):
        """Per-ray coefficients of the divisor map ``d`` on this fan."""
        terms = [(c, self.ray_coeffs[k]) for k, c in d.items()
                 if k in self.ray_coeffs]
        return [sum(c * a[r] for c, a in terms) for r in range(len(self.rays))]


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


def _fan_intersections(name, charts, weights):
    """The pairing and the canonical class of one fan's basis divisors,
    by localization at (e1, e2) = (1, m), where no tangent form of the
    ``charts`` vanishes: D.E sums D(p) E(p) / (w1(p) w2(p)) over the
    charts, with the fiber forms of the basis divisors in ``weights`` and
    -(w1 + w2) for K; the canonical class solves pairing(K, k) = K.k for
    every basis name k."""
    m = 1 + max(abs(w[0]) for chart in charts for w in chart)
    values = {k: [w[0] + m * w[1] for w in ws] for k, ws in weights.items()}
    tangents = [(w1[0] + m * w1[1], w2[0] + m * w2[1]) for w1, w2 in charts]
    dens = [t1 * t2 for t1, t2 in tangents]
    common = math.lcm(*dens)

    def integral(f, g):
        total, rest = divmod(sum(a * b * (common // d)
                                 for a, b, d in zip(f, g, dens)), common)
        if rest:
            raise ValueError(f"{name}: a fan whose intersection numbers "
                             "are not integers")
        return total

    names = sorted(values)
    pairing = {k: {j: integral(values[k], values[j]) for j in names}
               for k in names}
    rows = [[Fraction(pairing[k][j]) for j in names] for k in names]
    rhs = [Fraction(integral([-t1 - t2 for t1, t2 in tangents], values[k]))
           for k in names]
    if len(_eliminate(rows, rhs, len(names))) < len(names):
        raise ValueError(f"the basis divisors of {name} are not independent")
    if any(x.denominator != 1 for x in rhs):
        raise ValueError(f"the canonical class of {name} is no integral "
                         "combination of its basis divisors")
    return pairing, {k: int(x) for k, x in zip(names, rhs)}


def _eliminate(rows, rhs, ncols):
    """Exact Gauss-Jordan elimination in place; the right-hand sides
    ``rhs`` follow every row operation.  Returns {pivot column: row index}."""
    piv_of_col = {}
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rhs[r], rhs[p] = rhs[p], rhs[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        rhs[r] = rhs[r] * inv
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                rhs[i] = rhs[i] - rhs[r] * f
        piv_of_col[c] = r
        r += 1
    return piv_of_col


class ToricSurfaceModel:
    """Localization target data, derived from its fans: at the cone (i, j)
    the tangent forms (w1, w2) are the cone's dual basis, and a basis
    divisor D = sum a_r D_r has the fiber weight a_i w1 + a_j w2."""

    def __init__(self, name, fans):
        self.name = name
        self.fans = tuple(fans)
        self.basis = tuple(sorted(k for fan in self.fans
                                  for k in fan.ray_coeffs))
        self.fixed_points = []
        # basis divisor name -> its fiber weight form at every fixed point
        self._basis_weights = {k: [] for k in self.basis}
        self.pairing, self.canonical = {}, {}
        for fan in self.fans:
            n, start = len(fan.rays), len(self.fixed_points)
            for i in range(n):
                j = (i + 1) % n
                w1 = _as_int_pair(*_solve2(fan.rays[i], fan.rays[j], 1, 0))
                w2 = _as_int_pair(*_solve2(fan.rays[i], fan.rays[j], 0, 1))
                self.fixed_points.append((w1, w2))
                for k, weights in self._basis_weights.items():
                    a = fan.ray_coeffs.get(k, (0,) * n)
                    weights.append((a[i] * w1[0] + a[j] * w2[0],
                                    a[i] * w1[1] + a[j] * w2[1]))
            pairing, canonical = _fan_intersections(
                name, self.fixed_points[start:],
                {k: self._basis_weights[k][start:] for k in fan.ray_coeffs})
            self.pairing.update(pairing)
            self.canonical.update(canonical)
        # every smooth complete toric surface is rational: chi(O) = 1 per fan
        c2 = len(self.fixed_points)
        self.chern = SurfaceChernData(12 * len(self.fans) - c2, c2,
                                      len(self.fans))
        self._coh_cache = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_fan(cls, name, rays, ray_coeffs):
        """A one-fan model; rays listed counterclockwise."""
        if len(rays) < 3:
            raise ValueError(f"fan of {name} has {len(rays)} rays, fewer "
                             "than three")
        fan = _FanComponent(tuple(map(tuple, rays)),
                            {k: tuple(v) for k, v in ray_coeffs.items()})
        return cls(name, [fan])

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
        d2 = self.check_divisor(d2)
        return sum(c1 * c2 * self.pairing[k1].get(k2, 0)
                   for k1, c1 in self.check_divisor(d1).items()
                   for k2, c2 in d2.items())

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
        for fan in self.fans:
            coeffs = fan.divisor_coeffs(d)
            for (m, mult) in _lattice_cohomology(fan.rays, coeffs):
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
        """Blockwise union: the fans of both in order, basis names prefixed
        "a." and "b."."""
        fans = [fan._replace(ray_coeffs={prefix + k: a for k, a in
                                         fan.ray_coeffs.items()})
                for prefix, model in (("a.", self), ("b.", other))
                for fan in model.fans]
        return ToricSurfaceModel(f"{self.name}+{other.name}", fans)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        if len(self.fans) != 1:
            raise ValueError("only one-component models serialize to presets")
        fan, = self.fans
        n = len(fan.rays)
        return {
            "name": self.name,
            "fixed_points": [{"w1": list(w1), "w2": list(w2)}
                             for w1, w2 in self.fixed_points],
            "bundles": {k: {"weights": [list(w) for w in ws]}
                        for k, ws in self._basis_weights.items()},
            "chern": self.chern._asdict(),
            "pairing": {k1: dict(row) for k1, row in self.pairing.items()},
            "canonical": dict(self.canonical),
            "fan": {"rays": [list(r) for r in fan.rays],
                    "cones": [[i, (i + 1) % n] for i in range(n)],
                    "ray_coeffs": {k: list(v) for k, v in
                                   fan.ray_coeffs.items()}},
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
        """Model from its fan; stored entries must equal ``to_json``'s in
        type as well as value, so they are compared as canonical JSON."""
        if type(data["name"]) is not str:
            raise ValueError("malformed preset: its name is not a string")
        fan = data["fan"]
        basis = sorted(fan["ray_coeffs"])
        _check_ints(data["chern"], "chern", SurfaceChernData._fields)
        _check_ints(data["canonical"], "canonical", basis)
        _check_ints(data["pairing"], "pairing", basis, depth=2)
        for key in ("rays", "ray_coeffs"):
            _check_ints(fan[key], f"fan[{key!r}]", depth=2)
        rays = len(fan["rays"])
        if any(len(a) != rays for a in fan["ray_coeffs"].values()):
            raise ValueError(f"malformed preset: {data['name']} stores "
                             "ray_coeffs without one entry per ray")
        if any(len(v) != 2 for v in fan["rays"]):
            raise ValueError(f"malformed preset: {data['name']} stores "
                             "a ray without two coordinates")
        model = cls.from_fan(data["name"], fan["rays"], fan["ray_coeffs"])
        for key, derived in model.to_json().items():
            if (json.dumps(data[key], sort_keys=True)
                    != json.dumps(derived, sort_keys=True)):
                raise ValueError(f"malformed preset: {data['name']} stores "
                                 f"{key} that disagree with its fan")
        return model


def _check_ints(entries, what, keys=None, depth=1):
    """Preset entries at nesting ``depth`` are plain ints (no bools,
    strings or floats), keyed by exactly the names ``keys`` if given;
    list entries are keyed by position."""
    if keys is not None and sorted(entries) != sorted(keys):
        raise ValueError(f"malformed preset: {what} is keyed by "
                         f"{sorted(entries)}, not by {sorted(keys)}")
    for k, v in (entries.items() if isinstance(entries, dict)
                 else enumerate(entries)):
        if depth > 1:
            _check_ints(v, f"{what}[{k!r}]", keys, depth - 1)
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
    except (OSError, ValueError) as exc:    # unreadable, undecodable, not JSON
        raise ValueError(f"malformed preset: {name} is not readable JSON "
                         f"({type(exc).__name__}: {exc})") from None
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
            if nf in (0, n):
                out.append(((mx, my), 1))
            else:
                arcs = sum(1 for r in range(n)
                           if fails[r] and not fails[(r - 1) % n])
                if arcs > 1:
                    out.append(((mx, my), -(arcs - 1)))
    return out


# -- validation oracles ----------------------------------------------------

def validate_model(model):
    """Cross-check a model's derived data against independent routes.

    Raises AssertionError with a diagnostic on any mismatch.  Checks:
    K.K against c1 squared, trivial bundle cohomology, Riemann-Roch ranks
    vs lattice cohomology, and Serre duality at character level.
    """
    kd = model.canonical_divisor()
    assert model.pair(kd, kd) == model.chern.c1_sq, \
        f"{model.name}: K.K {model.pair(kd, kd)} != c1_sq {model.chern.c1_sq}"

    triv = model.cohomology_character({})
    assert triv == {(0, 0): len(model.fans)}, \
        f"{model.name}: cohomology of O is {triv}"

    for d in _divisor_samples(model):
        coh = model.cohomology_character(d)
        rank = sum(coh.values())
        assert rank == model.chi(d), \
            f"{model.name}: rank {rank} != chi {model.chi(d)} for {d}"
        # character-level Serre duality per component, with the canonical
        # linearization a_r = -1 on every ray
        for fan in model.fans:
            coeffs = fan.divisor_coeffs(d)
            here = _lattice_cohomology(fan.rays, coeffs)
            dual = _lattice_cohomology(fan.rays, [-1 - c for c in coeffs])
            assert dict(dual) == {(-m[0], -m[1]): v for m, v in here}, \
                f"{model.name}: Serre duality fails for {d}"


def _divisor_samples(model):
    """Every divisor with coefficients in [-2, 2] on the first two basis
    divisors."""
    names = model.basis[:2]
    return [model.check_divisor(dict(zip(names, coeffs)))
            for coeffs in itertools.product(range(-2, 3), repeat=len(names))]
