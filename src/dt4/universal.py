"""Universality fitting: localized nested integrals as exact polynomials
in intersection numbers.

A configuration (surface, L) enters only through its four invariants
(L^2, L.c1, c1^2, c2), in FIT_FIELDS order: by Ellingsrud-Goettsche-Lehn
every classical nested integral depends on nothing else.  A fit solves an
exact linear system over the chosen monomials; exactness is the point, so
rank deficiency and inconsistency are errors, never least-squares
compromises.  The localized integrals depend on the toric parameters only
through the choice of equivariant lift; the classical value used for
fitting is the value at the origin of the parameter line
(e1, e2) = EPS_LINE * u.  ``classical_limit`` computes it without any
multivariate polynomial: only pairs nested chart by chart contribute, at
s = 1 each of their terms is the Euler class of one character and a
Laurent series in u with integer coefficients over one integer
denominator, and the u^0 coefficient of their sum is the value.  The
negative-order coefficients of that sum must cancel exactly; when they do
not, the sample is an error, never a value.
"""

import functools
import itertools
import math
from fractions import Fraction

from .eqalg import exact_str
from .localize import (WeightMap, _typeII_character, _typeII_charts,
                       pair_counts, parallel_starmap)
# perfbench's tracer wraps this module global; fit itself never calls it
from .localize import typeII_component_integral  # noqa: F401
from .partitions import hilb_fixed_points, is_nested
from .poly import newton_recurrence
from .surfaces import _eliminate, from_preset

# the report's exponent layout; the seven beta slots are always 0
FIELDS = ("b1_sq", "b2_sq", "b1_c1", "b2_c1", "b1_D", "b2_D", "b1_b2",
          "D_sq", "D_c1", "c1_sq", "c2")
FIT_FIELDS = FIELDS[7:]
# fiber-multiple classes on a K3 target: every pairing vanishes, c2 = 24
K3_POINT = (0, 0, 0, 24)

# generic direction for the exact parameter line; any pair works as long
# as no chart weight degenerates on it
EPS_LINE = (89, -55)


def invariants(model, L):
    """The configuration's (L^2, L.c1, c1^2, c2), in FIT_FIELDS order."""
    c1 = {k: -v for k, v in model.canonical.items()}
    return (model.pair(L, L), model.pair(L, c1), model.chern.c1_sq,
            model.chern.c2)


def _monomial_name(exps):
    return "*".join(f if e == 1 else f"{f}^{e}"
                    for f, e in zip(FIT_FIELDS, exps) if e) or "1"


def _monomials(degree_bound):
    """Exponent vectors over FIT_FIELDS of total degree <= bound, in
    graded-lex order."""
    fields = range(len(FIT_FIELDS))
    return sorted((tuple(map(combo.count, fields))
                   for total in range(degree_bound + 1)
                   for combo in itertools.combinations_with_replacement(
                       fields, total)),
                  key=lambda e: (sum(e), e))


class UniversalPolynomial:
    """Polynomial in the four invariants with Fraction coefficients."""

    __slots__ = ("terms", "degree_bound")

    def __init__(self, terms, degree_bound):
        self.terms = {tuple(e): Fraction(c) for e, c in terms.items() if c}
        self.degree_bound = degree_bound

    def evaluate(self, at):
        return sum((c * math.prod(map(pow, at, e))
                    for e, c in self.terms.items()), Fraction(0))

    def to_json(self):
        beta = [0] * (len(FIELDS) - len(FIT_FIELDS))
        entries = []
        for exps, coeff in sorted(self.terms.items(),
                                  key=lambda t: (sum(t[0]), t[0])):
            entries.append({"exponents": beta + list(exps),
                            "monomial": _monomial_name(exps),
                            "coefficient": exact_str(coeff)})
        return {"degree_bound": self.degree_bound, "terms": entries}


def fit_basis(sample_count, degree_bound):
    """Monomials of a fit over FIT_FIELDS up to the degree bound; raises
    before building any when they outnumber ``sample_count``, which
    callers can check before computing any sample."""
    count = math.comb(degree_bound + len(FIT_FIELDS), len(FIT_FIELDS))
    if sample_count < count:
        raise ValueError(f"fit underdetermined: {sample_count} samples for "
                         f"{count} monomials at degree bound {degree_bound}")
    return _monomials(degree_bound)


def fit_universal(samples, degree_bound):
    """Solve for the unique polynomial in FIT_FIELDS of the given degree
    matching the samples exactly.

    ``samples`` is a list of (invariants, Fraction value).
    Underdetermined or inconsistent systems raise, naming the monomials
    without a pivot.
    """
    monos = fit_basis(len(samples), degree_bound)
    rows = [[Fraction(math.prod(map(pow, at, e))) for e in monos]
            for at, _ in samples]
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

    Each value is ``classical_limit``.  ``jobs`` > 1 spreads the
    configurations left after ``localize.POOL_BUDGET_S`` of serial work
    over one process pool (see ``parallel_starmap``).
    """
    return parallel_starmap(functools.partial(_typeII_sample, n1=n1, n2=n2),
                            configs, jobs)


def _typeII_sample(model, L, n1, n2):
    return invariants(model, L), classical_limit(model, L, n1, n2)


# -- the classical limit as a Laurent series on the parameter line ----------

def classical_limit(model, L, n1, n2):
    """The unit-prefactor nested component integral, restricted to the
    parameter line (e1, e2) = EPS_LINE * u and evaluated at u = 0: a
    Fraction.

    Every term is homogeneous of s-degree 0, so s = 1 loses nothing and
    every weight becomes a + c u.  Only pairs nested chart by chart
    contribute (none does when n2 > n1, so such a cell is 0), each the
    Euler class of one character (see ``localize._typeII_character``) of
    pure-u order -K, K = n1 + n2 (see ``_laurent_term``).  The u^-K ..
    u^-1 coefficients of the sum must cancel exactly and the u^0
    coefficient is the value; a term of nonzero s-degree or of another
    u-order, or a pole that does not cancel, raises ValueError, a zero
    weight outside diff(0) NonGenericWeightError.  This equals
    ``typeII_component_integral(..., eps_line=EPS_LINE)`` with a unit
    prefactor, specialised at e1 = 0.  Too many pairs are refused before
    any fixed point is built (``localize.pair_counts``).
    """
    charts, shifts = _typeII_charts(model, L, WeightMap(EPS_LINE))
    if n2 > n1 >= 0:
        return Fraction(0)
    pair_counts(model, [(n1, n2)])
    # a mixed weight is a + c u with a one of the bundle twists; with
    # u = scale v it is a (1 + r v) for an integer r
    scale = math.lcm(*filter(None, (shift[0][0] for shift in shifts)))
    k = n1 + n2
    acc = [Fraction(0)] * (k + 1)
    for fp1, fp2 in itertools.product(hilb_fixed_points(model, n1),
                                      hilb_fixed_points(model, n2)):
        if is_nested(fp1, fp2):
            char = _typeII_character(charts, shifts, fp1, fp2)
            if char is not None:
                term = _laurent_term(char, scale, k)
                acc = [x + y for x, y in zip(acc, term)]
    for j, c in enumerate(acc[:k]):
        if c:
            raise ValueError(f"classical limit: the u^{j - k} coefficient "
                             f"{c} of the sum does not cancel")
    return acc[k]


def _laurent_term(char, scale, k):
    """The u^-k .. u^0 coefficients of the Euler class of ``char``, a
    character of rank 0 without zero weights, over one integer denominator.
    Only diff(0), which adds k pure-u weights, and the two tangents, which
    take away 2k, carry twist 0, so a pure-u order other than -k raises
    ValueError, as does a nonzero s-degree."""
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
    if order != -k:
        raise ValueError(f"classical limit: a term of u-order {order}, "
                         f"not {-k}")
    den *= scale ** k
    return [Fraction(num * e * scale ** (k - j), den)
            for j, e in enumerate(_power_product(mixed, k))]


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
