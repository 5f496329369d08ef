"""Universality fitting: localized nested integrals as exact polynomials
in intersection numbers.

The eleven invariants of a configuration (surface, beta1, beta2, D) are
listed in FIELDS.  A fit solves an exact linear system over the chosen
monomials; exactness is the point, so rank deficiency and inconsistency
are errors, never least-squares compromises.  The localized integrals
depend on the toric parameters only through the choice of equivariant
lift; the classical value used for fitting is the value at the origin of
the parameter line (e1, e2) = EPS_LINE * u.  ``classical_limit`` computes
it without any multivariate polynomial: only pairs nested chart by chart
contribute, at s = 1 each of their terms is the Euler class of one
character and a Laurent series in u with integer coefficients over one
integer denominator, and the u^0 coefficient of their sum is the value.
The negative-order coefficients of that sum must cancel exactly; when
they do not, the sample is an error, never a value.
"""

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .eqalg import exact_str
from .localize import (WeightMap, _typeII_character, _typeII_charts,
                       _typeII_tangent, parallel_starmap)
# perfbench's tracer wraps this module global; fit itself never calls it
from .localize import typeII_component_integral  # noqa: F401
from .partitions import hilb_fixed_points, is_nested
from .poly import newton_recurrence
from .surfaces import _eliminate, from_preset

FIELDS = ("b1_sq", "b2_sq", "b1_c1", "b2_c1", "b1_D", "b2_D", "b1_b2",
          "D_sq", "D_c1", "c1_sq", "c2")
# the fit basis: beta classes are zero on every sampled route
FIT_FIELDS = ("D_sq", "D_c1", "c1_sq", "c2")

# generic direction for the exact parameter line; any pair works as long
# as no chart weight degenerates on it
EPS_LINE = (89, -55)


class ChernNumbers(NamedTuple):
    b1_sq: int
    b2_sq: int
    b1_c1: int
    b2_c1: int
    b1_D: int
    b2_D: int
    b1_b2: int
    D_sq: int
    D_c1: int
    c1_sq: int
    c2: int

    def as_vector(self):
        return tuple(self)

    @classmethod
    def k3_point(cls, m=0):
        """Fiber-multiple configurations on a K3 target: every pairing
        vanishes regardless of m; only c2 = 24 survives."""
        return cls(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 24)


def chern_invariants(model, beta1, beta2, D):
    """The eleven pairings of a configuration on a toric model.

    ``None`` stands for the zero divisor class.
    """
    b1 = model.check_divisor(beta1 or {})
    b2 = model.check_divisor(beta2 or {})
    d = model.check_divisor(D or {})
    kd = model.canonical_divisor()
    c1 = {k: -v for k, v in kd.items()}
    p = model.pair
    return ChernNumbers(
        b1_sq=p(b1, b1), b2_sq=p(b2, b2),
        b1_c1=p(b1, c1), b2_c1=p(b2, c1),
        b1_D=p(b1, d), b2_D=p(b2, d),
        b1_b2=p(b1, b2),
        D_sq=p(d, d), D_c1=p(d, c1),
        c1_sq=p(c1, c1), c2=model.chern.c2)


def _monomial_name(exps):
    parts = []
    for f, e in zip(FIELDS, exps):
        if e == 1:
            parts.append(f)
        elif e > 1:
            parts.append(f"{f}^{e}")
    return "*".join(parts) if parts else "1"


def _monomials(degree_bound, field_indices):
    """Exponent vectors over the chosen fields, total degree <= bound,
    in graded-lex order."""
    out = []
    for total in range(degree_bound + 1):
        for combo in itertools.combinations_with_replacement(field_indices,
                                                            total):
            e = [0] * len(FIELDS)
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    seen = sorted(set(out), key=lambda e: (sum(e), e))
    return seen


def _monomial_value(exps, vec):
    v = 1
    for e, x in zip(exps, vec):
        if e:
            v *= x ** e
    return v


class UniversalPolynomial:
    """Polynomial in the eleven invariants with Fraction coefficients."""

    __slots__ = ("terms", "degree_bound")

    def __init__(self, terms, degree_bound):
        self.terms = {tuple(e): Fraction(c) for e, c in terms.items() if c}
        self.degree_bound = degree_bound

    def evaluate(self, at):
        vec = at.as_vector()
        return sum((c * _monomial_value(e, vec) for e, c in self.terms.items()),
                   Fraction(0))

    def to_json(self):
        entries = []
        for exps, coeff in sorted(self.terms.items(),
                                  key=lambda t: (sum(t[0]), t[0])):
            entries.append({"exponents": list(exps),
                            "monomial": _monomial_name(exps),
                            "coefficient": exact_str(coeff)})
        return {"degree_bound": self.degree_bound, "terms": entries}


def fit_basis(sample_count, degree_bound):
    """Monomials of a fit over FIT_FIELDS up to the degree bound; raises
    when they outnumber ``sample_count``, which callers can check before
    computing any sample."""
    monos = _monomials(degree_bound, [FIELDS.index(f) for f in FIT_FIELDS])
    if sample_count < len(monos):
        raise ValueError(
            f"fit underdetermined: {sample_count} samples for {len(monos)} "
            f"monomials ({', '.join(_monomial_name(e) for e in monos)})")
    return monos


def fit_universal(samples, degree_bound):
    """Solve for the unique polynomial in FIT_FIELDS of the given degree
    matching the samples exactly.

    ``samples`` is a list of (ChernNumbers, Fraction value).
    Underdetermined or inconsistent systems raise, naming the monomials
    without a pivot.
    """
    monos = fit_basis(len(samples), degree_bound)
    rows = [[Fraction(_monomial_value(e, cn.as_vector())) for e in monos]
            for cn, _ in samples]
    rhs = [Fraction(val) for _, val in samples]
    ncols = len(monos)
    piv_of_col = _eliminate(rows, rhs, ncols)
    missing = [c for c in range(ncols) if c not in piv_of_col]
    if missing:
        names = ", ".join(_monomial_name(monos[c]) for c in missing)
        raise ValueError(f"fit underdetermined: no independent data for "
                         f"monomials: {names}")
    if any(rhs[len(piv_of_col):]):
        raise ValueError("fit inconsistent: samples are not matched by "
                         "any polynomial of this degree")
    return UniversalPolynomial({monos[c]: rhs[r]
                                for c, r in piv_of_col.items()}, degree_bound)


# -- test-surface battery ---------------------------------------------------

def battery_configs():
    """Deterministic list of (model, bundle divisor) configurations
    covering the presets, a spread of divisors, and disjoint unions
    (the unions break the fixed linear relation between c1 squared and
    c2 that any single small toric surface satisfies)."""
    plane = from_preset("plane")
    quadric = from_preset("quadric")
    h1 = from_preset("hirzebruch1")
    h2 = from_preset("hirzebruch2")
    h3 = from_preset("hirzebruch3")
    configs = [
        (plane, {"H": 1}), (plane, {"H": 2}), (plane, {"H": 3}),
        (plane, {"H": 4}), (h3, {"C0": 1, "F": 5}),
        (quadric, {"A": 1}), (quadric, {"A": 1, "B": 1}),
        (quadric, {"A": 2, "B": 1}), (quadric, {"A": 1, "B": 2}),
        (quadric, {"A": 2, "B": 2}),
        (h1, {"C0": 1, "F": 1}), (h1, {"C0": 1, "F": 2}),
        (h1, {"C0": 2, "F": 3}),
        (h2, {"C0": 1, "F": 2}), (h2, {"C0": 1, "F": 3}),
        (h3, {"C0": 1, "F": 3}), (h3, {"C0": 1, "F": 4}),
    ]
    pq = plane.disjoint_union(quadric)
    pp = plane.disjoint_union(plane)
    qq = quadric.disjoint_union(quadric)
    ppp = pp.disjoint_union(plane)
    ppq = pp.disjoint_union(quadric)
    return configs + [
        (pq, {"a.H": 1}), (pq, {"a.H": 1, "b.A": 1, "b.B": 1}),
        (pq, {"a.H": 2, "b.A": 1}),
        (pp, {"a.H": 1}), (pp, {"a.H": 1, "b.H": 1}),
        (pp, {"a.H": 2, "b.H": 1}),
        (qq, {"a.A": 1, "b.B": 1}), (qq, {"a.A": 1, "a.B": 1, "b.A": 1}),
        (ppp, {"a.a.H": 1, "b.H": 1}), (ppp, {"a.a.H": 1, "a.b.H": 2}),
        (ppq, {"a.a.H": 1, "b.A": 1}), (ppq, {"a.b.H": 2, "b.B": 1}),
    ]


def typeII_samples(configs, n1, n2, jobs=1):
    """Classical (chart-parameter-free) integral parts of the nested
    component integrals, paired with their invariants.

    Each value is ``classical_limit``; beta classes are zero on this
    route, so only the bundle and surface invariants vary.  ``jobs`` > 1
    spreads the configurations left after ``localize.POOL_BUDGET_S`` of
    serial work over one process pool (see ``parallel_starmap``).
    """
    return parallel_starmap(functools.partial(_typeII_sample, n1=n1, n2=n2),
                            configs, jobs)


def _typeII_sample(model, L, n1, n2):
    return (chern_invariants(model, {}, {}, L),
            classical_limit(model, L, n1, n2))


# -- the classical limit as a Laurent series on the parameter line ----------

def classical_limit(model, L, n1, n2):
    """The unit-prefactor nested component integral, restricted to the
    parameter line (e1, e2) = EPS_LINE * u and evaluated at u = 0: a
    Fraction.

    Every term is homogeneous of s-degree 0, so s = 1 loses nothing and
    every weight becomes a + c u.  Only pairs nested chart by chart
    contribute (none does when n2 > n1, so such a cell is 0), each the
    Euler class of one character (see ``localize._typeII_character``): its
    pure-u weights (a = 0) give a power u^-k, and every mixed form is
    expanded through u^k.  The
    u^-K .. u^-1 coefficients of the sum must cancel exactly and the u^0
    coefficient is the value; a term of nonzero s-degree or a pole that
    does not cancel raises ValueError, a zero weight outside diff(0)
    NonGenericWeightError.  This equals
    ``typeII_component_integral(..., eps_line=EPS_LINE)`` with a unit
    prefactor, specialised at e1 = 0.
    """
    charts, shifts = _typeII_charts(model, L, WeightMap(EPS_LINE))
    if n2 > n1 >= 0:
        return Fraction(0)
    # a mixed weight is a + c u with a one of the bundle twists; with
    # u = scale v it is a (1 + r v) for an integer r
    scale = math.lcm(*filter(None, (shift[0][0] for shift in shifts)))

    def with_tangents(n):
        return [(fp, _typeII_tangent(charts, shifts, fp))
                for fp in hilb_fixed_points(model, n)]
    acc = {}
    for (fp1, tan1), (fp2, tan2) in itertools.product(with_tangents(n1),
                                                      with_tangents(n2)):
        if is_nested(fp1, fp2):
            char = _typeII_character(charts, shifts, fp1, fp2, tan1 + tan2)
            if char is not None:
                _add_laurent_term(acc, char, scale)
    return _constant_term(acc)


def _add_laurent_term(acc, char, scale):
    """Add the u^-k .. u^0 coefficients of the Euler class of ``char``, a
    character of rank 0 without zero weights, into ``acc`` (order ->
    Fraction), over one integer denominator."""
    if sum(char.terms.values()):
        raise ValueError("classical limit: a term of s-degree "
                         f"{sum(char.terms.values())}, not 0")
    order, num, den, mixed = 0, 1, 1, []
    for (a, _, c, _), m in char.terms.items():
        if not a:
            order += m                              # (c u)^m
        elif c:
            mixed.append((c * scale // a, m))       # a^m (1 + r v)^m
        if m > 0:
            num *= (a or c) ** m
        else:
            den *= (a or c) ** -m
    k = -order
    if k < 0:
        return
    den *= scale ** k
    for j, e in enumerate(_power_product(mixed, k)):
        acc[j - k] = acc.get(j - k, 0) + Fraction(num * e * scale ** (k - j),
                                                  den)


def _power_product(forms, k):
    """Coefficients of x^0 .. x^k of prod (1 + r x)^m over integer pairs
    (r, m), all integers: the Newton recurrence with p_i = -sum m (-r)^i."""
    p = [0] * (k + 1)
    for r, m in forms:
        x = -m
        for i in range(1, k + 1):
            x *= -r
            p[i] += x
    return newton_recurrence(p)


def _constant_term(acc):
    """The u^0 coefficient of a summed Laurent series whose negative orders
    must all cancel."""
    for order, c in sorted(acc.items()):
        if order < 0 and c:
            raise ValueError(f"classical limit: the u^{order} coefficient "
                             f"{c} of the sum does not cancel")
    return acc.get(0, Fraction(0))
