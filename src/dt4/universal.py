"""Universality fitting: localized nested integrals as exact polynomials
in intersection numbers.

A configuration (surface, L) enters only through its four invariants
(L^2, L.c1, c1^2, c2), in FIT_FIELDS order: by Ellingsrud-Goettsche-Lehn
every classical nested integral depends on nothing else.  A fit solves an
exact linear system over the chosen monomials; exactness is the point, so
rank deficiency and inconsistency are errors, never least-squares
compromises.  The classical value used for fitting is the localized
integral at the origin of the parameter line (e1, e2) = EPS_LINE * u
(``classical_limit``).
"""

import functools
import itertools
import math
from fractions import Fraction

from .eqalg import exact_str
from .localize import (WeightMap, _typeII_character, _typeII_charts,
                       parallel_starmap)
# perfbench's tracer wraps this module global; fit itself never calls it
from .localize import typeII_component_integral  # noqa: F401
from .partitions import partitions_of
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
    """The invariants and the ``classical_limit`` of every configuration,
    each a product of per-chart series.  ``jobs`` > 1 spreads those left
    after ``localize.POOL_BUDGET_S`` of serial work over one process pool
    (see ``parallel_starmap``)."""
    return parallel_starmap(functools.partial(_typeII_sample, n1=n1, n2=n2),
                            configs, jobs)


def _typeII_sample(model, L, n1, n2):
    return invariants(model, L), classical_limit(model, L, n1, n2)


# -- the classical limit as a product of per-chart Laurent series ----------

# the slowest cells at n1 + n2 = 16, (12, 4) and (13, 3) on the 10-chart
# battery union plane+plane+quadric, take about 8 s in process and peak under
# 45 MB resident; (16, 4) took 41 s and 138 MB (2-vCPU Linux, Python 3.11.7)
MAX_CLASSICAL_POINTS = 16


def classical_limit(model, L, n1, n2):
    """The unit-prefactor nested component integral on the parameter line
    (e1, e2) = EPS_LINE * u at u = 0, a Fraction: the unit-prefactor
    ``typeII_component_integral(..., eps_line=EPS_LINE)`` at e1 = 0.

    A term is the Euler class of ``localize._typeII_character``, a sum over
    the charts, so the cell is the x^n1 y^n2 coefficient of the product
    over the charts of 1 + sum x^|l1| y^|l2| e(l1, l2) over the chart's
    nested pairs l2 in l1, l1 not empty (none when n2 > n1: the cell is 0);
    as |l1| >= |l2|, no x^a y^b with a - b > n1 - n2 is built.  Each
    e(l1, l2) is a Laurent series in u (``_laurent_term``); the product's
    u^-K .. u^-1 coefficients, K = n1 + n2, must cancel and its u^0
    coefficient is the value, else ValueError, as for K above the maximum.
    """
    charts, shifts = _typeII_charts(model, L, WeightMap(EPS_LINE))
    if min(n1, n2) < 0:
        raise ValueError("n must be nonnegative")
    if n2 > n1:
        return Fraction(0)
    if (k := n1 + n2) > MAX_CLASSICAL_POINTS:
        raise ValueError(f"classical limit at n1 + n2 = {k}, above the "
                         f"maximum {MAX_CLASSICAL_POINTS}")
    sides = [[(size, lam) for size in range(lo, n + 1)
              for lam in partitions_of(size)] for lo, n in ((1, n1), (0, n2))]
    zero, cells = ([0] * (k + 1), 1), {(0, 0): ([1] + [0] * k, 1)}
    for i, chart in enumerate(charts):
        chart_shifts = [[shift[i]] for shift in shifts]
        series = {}
        for (a, lam1), (b, lam2) in itertools.product(*sides):
            if a - b <= n1 - n2 and (char := _typeII_character(
                    [chart], chart_shifts, (lam1,), (lam2,))) is not None:
                series[a, b] = _plus(series.get((a, b), zero),
                                     _laurent_term(char, a + b, k))
        for (a, b), (xs, dx) in list(cells.items()):
            for (da, db), (ys, dy) in series.items():
                if 0 <= n2 - b - db <= n1 - a - da:
                    key = (a + da, b + db)
                    cells[key] = _plus(cells.get(key, zero), (
                        [sum(xs[t] * ys[j - t] for t in range(j + 1))
                         for j in range(k + 1)], dx * dy))
    acc, den = cells.get((n1, n2), zero)
    for j, c in enumerate(acc[:k]):
        if c:
            raise ValueError(f"classical limit: the u^{j - k} coefficient "
                             f"{Fraction(c, den)} of the sum does not cancel")
    return Fraction(acc[k], den)


def _plus(x, y):
    """The sum of two series, each (integer numerators, one denominator)."""
    den = math.lcm(x[1], y[1])
    return [a * (den // x[1]) + b * (den // y[1])
            for a, b in zip(x[0], y[0])], den


def _laurent_term(char, k, degree):
    """The u^-k .. u^(degree - k) coefficients of the Euler class of
    ``char`` at s = 1, a series (see ``_plus``).  Only diff(0), which adds
    k pure-u weights, and the two tangents, which take away 2k, carry
    twist 0, so a pure-u order other than -k raises ValueError, as does a
    nonzero s-degree.  With u = scale v, scale the lcm of the twists, a
    mixed weight a + c u is a (1 + r v) for an integer r, and the Newton
    recurrence on p_i = -sum m (-r)^i multiplies out the (1 + r v)^m."""
    if sum(char.terms.values()):
        raise ValueError("classical limit: a term of s-degree "
                         f"{sum(char.terms.values())}, not 0")
    scale = math.lcm(*filter(None, (w[0] for w in char.terms)))
    order, num, den, p = 0, 1, 1, [0] * (degree + 1)
    for (a, _, c, _), m in char.terms.items():
        if not a:
            order += m                              # (c u)^m
        elif c:
            x, r = -m, c * scale // a               # a^m (1 + r v)^m
            for i in range(1, degree + 1):
                x *= -r
                p[i] += x
        if m > 0:
            num *= (a or c) ** m
        else:
            den *= (a or c) ** -m
    if order != -k:
        raise ValueError(f"classical limit: a term of u-order {order}, "
                         f"not {-k}")
    return ([num * e * scale ** (degree - j)
             for j, e in enumerate(newton_recurrence(p))],
            den * scale ** degree)
