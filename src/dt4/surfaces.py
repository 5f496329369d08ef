"""Toric surface models: fixed-point weights, line bundle data, cohomology.

A model is its fans: complete smooth fans with the basis divisors'
coefficients on their rays.  Each torus fixed point is a cone, a pair of
consecutive rays, and ``model.fixed_points`` holds its tangent weight forms
(w1, w2) in the deformation parameters (e1, e2), cones in ray order and
fans in order.  Weight convention, fixed once and validated by the test
oracles:

- a character chi^m contributes the additive weight -(m0*e1 + m1*e2);
- tangent weights at a cone are the dual basis forms of the cone;
- the fiber weight of O(D) at a fixed point is -m_p(D), where m_p(D) is
  the local trivializing character of D on that cone.

Divisor classes are maps from basis divisor names to integers.  The fans
also fix the pairing, the canonical class and the Chern numbers, so a
model derives them from the toric intersection numbers of the ray
divisors and takes none as input.  Disjoint unions concatenate the fans,
reusing the same (e1, e2) pair for every fan; that specialization keeps
all localization denominators nonzero because no character mixes fans.
"""

import json
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


def _check_ints(rays, ray_coeffs):
    """ValueError unless every entry is a plain int."""
    for key, lists in (("rays", enumerate(rays)),
                       ("ray_coeffs", ray_coeffs.items())):
        for k, entries in lists:
            for i, v in enumerate(entries):
                if type(v) is not int:
                    raise ValueError(f"malformed preset: {key}[{k!r}][{i}] is "
                                     f"{v!r}, not an integer")


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _solve2(v1, v2, b1, b2):
    """Solve m·v1 = b1, m·v2 = b2 for m, exactly."""
    det = _det(v1, v2)
    if det == 0:
        raise ValueError("degenerate cone")
    x = Fraction(b1 * v2[1] - b2 * v1[1], det)
    y = Fraction(v1[0] * b2 - v2[0] * b1, det)
    return x, y


def _fan_intersections(name, fan, self_int):
    """The pairing and the canonical class of one fan's basis divisors,
    by the toric intersection numbers of its ray divisors: neighbouring
    rays meet once, D_r^2 = ``self_int[r]`` and any other pair is 0.  The
    canonical class solves pairing(K, k) = K.k for every basis name k,
    where K = -sum D_r."""
    n, names = len(fan.rays), sorted(fan.ray_coeffs)

    def dot(a, b):
        return sum(x * (s * b[r] + b[r - 1] + b[(r + 1) % n])
                   for r, (x, s) in enumerate(zip(a, self_int)))

    pairing = {k: {j: dot(fan.ray_coeffs[k], fan.ray_coeffs[j])
                   for j in names} for k in names}
    rows = [[Fraction(pairing[k][j]) for j in names] for k in names]
    rhs = [Fraction(dot(fan.ray_coeffs[k], [-1] * n)) for k in names]
    if len(_eliminate(rows, rhs, len(names))) < len(names):
        raise ValueError(f"the basis divisors of {name} are not independent")
    if any(x.denominator != 1 for x in rhs):
        raise ValueError(f"the canonical class of {name} is no integral "
                         "combination of its basis divisors")
    canonical = {k: int(x) for k, x in zip(names, rhs)}
    # K - sum c_k D_k must be principal, sum <m, v_r> D_r for the one
    # character m that the first cone fixes
    b = [-1 - c for c in fan.divisor_coeffs(canonical)]
    m = _solve2(fan.rays[0], fan.rays[1], b[0], b[1])
    if any(m[0] * x + m[1] * y != c for (x, y), c in zip(fan.rays, b)):
        raise ValueError(f"the basis divisors of {name} do not span its "
                         "canonical class")
    return pairing, canonical


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
    divisor D = sum a_r D_r has the fiber weight a_i w1 + a_j w2.

    Every cone must be unimodular, det(v_i, v_j) = 1, and the rays must
    wind once around the origin: D_i^2 = -det(v_{i-1}, v_{i+1}), and these
    sum to 12 - 3n on a smooth complete surface with n rays.  The same
    self-intersections, with D_i.D_{i+1} = 1 and every other pair 0, give
    the pairing; K minus its solved combination of basis divisors must be
    principal, or the basis does not span K."""

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
            n, v = len(fan.rays), fan.rays
            self_int = [-_det(v[i - 1], v[(i + 1) % n]) for i in range(n)]
            if (any(_det(v[i - 1], v[i]) != 1 for i in range(n))
                    or sum(self_int) != 12 - 3 * n):
                raise ValueError(f"the rays of {name} are not a smooth "
                                 "complete fan listed counterclockwise")
            for i in range(n):
                j = (i + 1) % n
                # the dual basis of the unimodular cone (v_i, v_j)
                w1, w2 = (v[j][1], -v[j][0]), (-v[i][1], v[i][0])
                self.fixed_points.append((w1, w2))
                for k, weights in self._basis_weights.items():
                    a = fan.ray_coeffs.get(k, (0,) * n)
                    weights.append((a[i] * w1[0] + a[j] * w2[0],
                                    a[i] * w1[1] + a[j] * w2[1]))
            pairing, canonical = _fan_intersections(name, fan, self_int)
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
        """A one-fan model; rays listed counterclockwise, each with two
        coordinates, one coefficient per ray for each basis name, all ints."""
        if any(len(a) != len(rays) for a in ray_coeffs.values()):
            raise ValueError(f"malformed preset: {name} stores "
                             "ray_coeffs without one entry per ray")
        if any(len(v) != 2 for v in rays):
            raise ValueError(f"malformed preset: {name} stores "
                             "a ray without two coordinates")
        if len(rays) < 3:
            raise ValueError(f"fan of {name} has {len(rays)} rays, fewer "
                             "than three")
        _check_ints(rays, ray_coeffs)
        fan = _FanComponent(tuple(map(tuple, rays)),
                            {k: tuple(v) for k, v in ray_coeffs.items()})
        return cls(name, [fan])

    # -- divisor arithmetic ------------------------------------------------

    def check_divisor(self, d):
        """``d`` less zeros; ValueError unless it maps basis names to ints."""
        unknown = set(d) - set(self.basis)
        if unknown:
            raise ValueError(f"divisor outside the model lattice: "
                             f"{sorted(unknown)}")
        for k, v in d.items():
            if type(v) is not int:
                raise ValueError(f"divisor coefficient {k}={v!r} is not an "
                                 "integer")
        return {k: v for k, v in d.items() if v}

    def pair(self, d1, d2):
        d2 = self.check_divisor(d2)
        return sum(c1 * c2 * self.pairing[k1].get(k2, 0)
                   for k1, c1 in self.check_divisor(d1).items()
                   for k2, c2 in d2.items())

    def chi(self, d):
        """Euler characteristic of O(d) by Riemann-Roch."""
        return self.chern.chi_O + (self.pair(d, d)
                                   - self.pair(d, self.canonical)) // 2

    # -- per-fixed-point weights -------------------------------------------

    def bundle_weights(self, d):
        """Fiber weight forms of O(d) at every fixed point, over (e1, e2)."""
        out = [(0, 0)] * len(self.fixed_points)
        for k, c in self.check_divisor(d).items():
            out = [(x + c * a, y + c * b)
                   for (x, y), (a, b) in zip(out, self._basis_weights[k])]
        return out

    # -- sheaf cohomology --------------------------------------------------

    def cohomology_character(self, d):
        """The character of the cohomology of O(d): a Laurent Poly in (e1, e2).

        H^0 and H^2 lattice points count +1, an H^1 point with c failing
        arcs counts -(c-1); the alternating-sum rank equals chi(d).
        """
        d = self.check_divisor(d)
        key = tuple(sorted(d.items()))
        if key not in self._coh_cache:
            from .poly import Poly      # loading a preset never imports it
            self._coh_cache[key] = Poly.from_pairs(
                ((-m[0], -m[1]), mult) for fan in self.fans
                for m, mult in _lattice_cohomology(
                    fan.rays, fan.divisor_coeffs(d)))
        return self._coh_cache[key]

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

    @classmethod
    def from_json(cls, data):
        """Model from the arguments of ``from_fan``, with a string name;
        other keys are ignored, and malformed data raises ValueError."""
        try:
            name, rays, coeffs = data["name"], data["rays"], data["ray_coeffs"]
            if type(name) is not str:
                raise ValueError("malformed preset: its name is not a "
                                 "string")
            return cls.from_fan(name, rays, coeffs)
        except (KeyError, TypeError, IndexError, AttributeError) as exc:
            raise ValueError(f"malformed preset: missing or ill-typed entry "
                             f"({type(exc).__name__}: {exc})") from None


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

