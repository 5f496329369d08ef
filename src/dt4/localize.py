"""Equivariant localization integrands over Hilbert schemes of points.

All characters are Laurent ``Poly``s whose exponents are weights over
(s, sp, e1, e2), or (e1, e2) at one chart: s is the fiber-scaling
parameter, sp the residue parameter, (e1, e2) the toric chart parameters.
A twisted line bundle contributes its per-chart fiber form plus t_weight *
s plus tprime_weight * sp to every weight it touches.

Conventions inherited from the surface layer: boxes (i, j) of a chart
partition carry weight -(i*w1 + j*w2); the correction character of an
ideal-sheaf pair at one chart is

    N(V1, V2) = V2 + conj(V1)*t1*t2 - conj(V1)*V2*(1-t1)(1-t2)

with t_i the one dimensional character of weight w_i and V the box
character of the chart partition.  Summed over charts and shifted by the
bundle weights this reproduces the full pair Euler characteristic.  The
tangent of the Hilbert scheme at an ideal I is the diagonal case
chi(O, O) - chi(I, I) = N(V, V); the small-n oracles in the test suite pin
it against the arm/leg weights and the pair formula against direct
sheaf-cohomology computations.
"""

import functools
import itertools
import math
from fractions import Fraction
from time import perf_counter
from typing import NamedTuple

from .eqalg import (FactoredScalar, NonGenericWeightError, euler_of_character,
                    factored_sum, residue)
# perfbench's tracer wraps this module global; no route calls it
from .eqalg import chern_part  # noqa: F401
from .partitions import boxes, fixed_point_count, hilb_fixed_points, is_nested
from .poly import CONSTANT as ZERO_WEIGHT, Poly


class TwistedBundleSpec(NamedTuple):
    """Line bundle data: a divisor map plus integer t and t' twists."""
    divisor: dict
    t_weight: int = 0
    tprime_weight: int = 0


def _as_spec(bundle):
    """A TwistedBundleSpec as it is; a divisor map, or None for the trivial
    class, untwisted."""
    return (bundle if isinstance(bundle, TwistedBundleSpec)
            else TwistedBundleSpec(dict(bundle or {})))


def _combine(*terms):
    """The divisor map sum(c * d) of (integer c, divisor map d) terms,
    without zero entries."""
    out = {}
    for c, d in terms:
        for k, v in d.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


# -- the weight map: one specialisation for every route ---------------------

class WeightMap(NamedTuple):
    """Integer map on weight vectors, applied before any polynomial exists.

    ``line=None`` is the identity (fully symbolic).  ``line=(a, b)``
    restricts the chart parameters to (e1, e2) = (a u, b u), with u kept
    in the e1 slot.  A rational point (x, y) = (a/D, b/D) is that line
    followed by ``finish``, which evaluates the summed value at u = 1/D.
    Characters are linear in the chart data and Chern classes commute with
    the map, so mapping the chart data (``charts``) or the character
    suffices.
    """
    line: tuple = None
    at: Fraction = None

    @classmethod
    def make(cls, eps=None, eps_line=None):
        if eps is None:
            return cls(eps_line and tuple(eps_line))
        if eps_line is not None:
            raise ValueError("give eps or eps_line, not both")
        x, y = Fraction(eps[0]), Fraction(eps[1])
        d = math.lcm(x.denominator, y.denominator)
        return cls((int(x * d), int(y * d)), Fraction(1, d))

    def form(self, v):
        """The image of a form (e1, e2 coefficients)."""
        return tuple(v) if self.line is None else (
            self.line[0] * v[0] + self.line[1] * v[1], 0)

    def charts(self, model, *bundles):
        """Mapped chart data: the tangent forms (w1, w2) of every chart, and
        per bundle its weight shift (t, t', fiber form) at every chart."""
        charts = [(self.form(w1), self.form(w2))
                  for w1, w2 in model.fixed_points]
        return charts, [
            [(b.t_weight, b.tprime_weight) + self.form(mu)
             for mu in model.bundle_weights(b.divisor)]
            for b in map(_as_spec, bundles)]

    def finish(self, x):
        """The canonical sum ``x`` at u = 1/D.  Its homogeneous numerator
        stays divisible by no form and its forms stay pairwise
        non-proportional (u becomes a constant), so ``specialize`` needs no
        polynomial gcd, only each form's integer content and sign."""
        return x if self.at is None else x.specialize({"e1": self.at})


SYMBOLIC = WeightMap()


# -- chart-level character calculus ----------------------------------------

def _chart_sum(local, charts, shifts, *fps):
    """One character per entry of ``shifts`` (see WeightMap.charts):
    the sum over the charts of nonempty partitions of ``local(partitions,
    w1, w2)`` over (e1, e2), computed once per chart, shifted by the entry."""
    out = [[] for _ in shifts]
    for i, ((w1, w2), *lams) in enumerate(zip(charts, *fps)):
        if any(lams):
            items = local(*lams, w1, w2).terms.items()
            for pairs, shift in zip(out, shifts):
                t, tp, x, y = shift[i]
                pairs += [((t, tp, w[0] + x, w[1] + y), m) for w, m in items]
    return [Poly.from_pairs(pairs) for pairs in out]


def _box_character(lam, w1, w2):
    return Poly.from_pairs(((-(i * w1[0] + j * w2[0]),
                             -(i * w1[1] + j * w2[1])), 1)
                           for (i, j) in boxes(lam))


@functools.lru_cache(maxsize=None)
def _pair_correction(lam1, lam2, w1, w2):
    """Chart character N(V1, V2) of an ideal-sheaf pair; N(V, V) is the
    tangent.  Memoised on its arguments, all tuples: no bundle shift enters,
    so one Poly serves every pair, tangent and twist with the same chart
    forms, and callers only read it."""
    v1 = _box_character(lam1, w1, w2)
    v2 = _box_character(lam2, w1, w2)
    if v1.is_zero():
        return v2
    c1 = v1.dual()
    t12 = (w1[0] + w2[0], w1[1] + w2[1])
    out = v2 + c1.shift(t12)
    if not v2.is_zero():
        # (1 - t1)(1 - t2) = 1 - t1 - t2 + t1 t2
        out = out - c1 * v2 * Poly.from_pairs(
            [((0, 0), 1), (w1, -1), (w2, -1), (t12, 1)])
    return out


# -- public characters -----------------------------------------------------
# None of these calls another by name: perfbench's tracer counts each call
# of one of them as one character.

def tangent_character(fp, model):
    """Tangent weights of the Hilbert scheme at a monomial fixed point:
    exactly 2n weights with multiplicity."""
    return _chart_sum(_pair_correction, *SYMBOLIC.charts(model, None),
                      fp, fp)[0]


# no route calls this; tests and perfbench's tracer do
def twisted_tangent_character(fp, bundle, model):
    """Tangent character shifted at each chart by the twisted bundle."""
    return _chart_sum(_pair_correction, *SYMBOLIC.charts(model, bundle),
                      fp, fp)[0]


def chi_character(fp1, fp2, bundle, model):
    """Pair Euler characteristic character of (ideal 1, ideal 2 x bundle).

    Cohomology of the bundle minus the chart corrections; the rank is
    chi(bundle) - n1 - n2.
    """
    spec = _as_spec(bundle)
    coh = model.cohomology_character(spec.divisor)
    sheaf = Poly({(spec.t_weight, spec.tprime_weight) + w: m
                  for w, m in coh.terms.items()})
    return sheaf - _chart_sum(_pair_correction, *SYMBOLIC.charts(model, spec),
                              fp1, fp2)[0]


# no route calls this; tests and perfbench's tracer do
def difference_character(fp1, fp2, bundle, model):
    """Character of (cohomology of bundle) minus (pair characteristic);
    rank n1 + n2 identically."""
    return _chart_sum(_pair_correction, *SYMBOLIC.charts(model, bundle),
                      fp1, fp2)[0]


def tautological_character(fp, bundle, model):
    """Push-forward of the bundle along the universal subscheme: one
    weight per box, shifted by the chart fiber weight."""
    return _chart_sum(_box_character, *SYMBOLIC.charts(model, bundle), fp)[0]


# -- generic localization sum ----------------------------------------------

# Wall time the caller spends on tasks before it starts a pool: about what
# importing ``multiprocessing.pool``, starting two workers and closing them
# costs (README, "Parallel runs").
POOL_BUDGET_S = 0.05


def Pool(processes):
    """A ``multiprocessing`` pool; runs that never start one never import
    the module."""
    import multiprocessing
    return multiprocessing.Pool(processes)


def parallel_starmap(fn, args, jobs=1):
    """``[fn(*a) for a in args]``, in order.

    With ``jobs`` > 1 the caller runs the calls itself, in order, until they
    have taken ``POOL_BUDGET_S`` of wall time, and only then hands those
    left to a pool of at most ``jobs`` workers, never more workers than
    calls left and no pool for a last single call.  A run shorter than the
    budget never imports ``multiprocessing``; a longer one gives up at most
    the budget plus one call of parallelism.  ``fn`` and the arguments are
    pickled, so ``fn`` must be a top-level function or a
    ``functools.partial`` of one; then every start method works."""
    args = list(args)
    out, start = [], perf_counter()
    for a in args:
        left = len(args) - len(out)
        if jobs > 1 and left > 1 and perf_counter() - start >= POOL_BUDGET_S:
            with Pool(min(jobs, left)) as pool:
                return out + pool.starmap(fn, args[len(out):])
        out.append(fn(*a))
    return out


def assemble_sum(model, n1, n2, term_fn, jobs=1, audit=None, wmap=SYMBOLIC):
    """Sum term_fn(fp1, fp2) over all fixed-point pairs of the product of
    the n1- and n2-point Hilbert schemes (see _pair_sum)."""
    return _pair_sum(model, [(n1, n2)], term_fn, jobs, audit, wmap)


# the plane's 1,972,971 pairs at (n1, n2) = (11, 7) list in 0.2 s and peak
# at 151 MB resident
MAX_PAIRS = 2_000_000


def _pair_sum(model, splittings, term_fn, jobs, audit, wmap):
    """The ``factored_sum``, left to the caller to canonicalise, of the
    FactoredScalars term_fn over the fixed-point pairs of every splitting
    (n1, n2) in turn, in one ``parallel_starmap``; audited terms are
    canonicalised one by one and pass through ``wmap.finish``.  More than
    MAX_PAIRS pairs in all is a ValueError before any fixed point is built."""
    sizes = {(n1, n2): math.prod(fixed_point_count(len(model.fixed_points), n)
                                 for n in (n1, n2)) for n1, n2 in splittings}
    if (total := sum(sizes.values())) > MAX_PAIRS:
        raise ValueError(f"{total} fixed-point pairs, above the maximum "
                         f"{MAX_PAIRS}")
    pairs = [pair for n1, n2 in sizes
             for pair in itertools.product(hilb_fixed_points(model, n1),
                                           hilb_fixed_points(model, n2))]
    terms = parallel_starmap(term_fn, pairs, jobs)
    if audit is not None:
        for (fp1, fp2), t in zip(pairs, terms):
            audit({"fixed_point": [list(map(list, fp1)), list(map(list, fp2))],
                   "term": str(wmap.finish(t.canonical()))})
    return factored_sum(terms)


# -- type II component integral --------------------------------------------

PREFACTOR_VARIANTS = ("product", "typeIIB")
# |chi(2L)| above this is a domain error: 2^chi(2L) would have more than
# 30,103 digits
MAX_CHI_L2 = 100_000


class PrefactorData(NamedTuple):
    """Numerical inputs of the component prefactor.

    ``sign_exponent_doubled`` stores twice the sign exponent so that the
    integrality requirement stays checkable; an odd value is a hard
    error at evaluation time.
    """
    chi_L2: int
    chi_L: int
    chi_Linv: int
    sign_exponent_doubled: int

    @classmethod
    def from_model(cls, model, L_divisor, variant="product", alpha_pair=0):
        """Resolve the exponents from divisor arithmetic on a model.

        ``alpha_pair`` is the pairing of the twist class with the bundle
        class; it only enters the sign in the ``typeIIB`` variant.
        """
        L = model.check_divisor(L_divisor)
        return cls.from_numbers(
            model.chi(_combine((2, L))), model.chi(L),
            model.chi(_combine((-1, L))), model.pair(L, L),
            -model.pair(L, model.canonical), variant, alpha_pair)

    @classmethod
    def from_numbers(cls, chi_L2, chi_L, chi_Linv, D_sq, D_c1,
                     variant="product", alpha_pair=0):
        if variant not in PREFACTOR_VARIANTS:
            raise ValueError(f"unknown prefactor variant: {variant}")
        if abs(chi_L2) > MAX_CHI_L2:
            raise ValueError(f"prefactor too large: |chi(2L)| = {abs(chi_L2)} "
                             f"exceeds {MAX_CHI_L2}")
        twist = 2 * alpha_pair if variant == "typeIIB" else 0
        return cls(chi_L2, chi_L, chi_Linv, D_c1 + 3 * D_sq - twist)

    def value(self):
        if self.sign_exponent_doubled % 2:
            raise ValueError("prefactor parity undefined: sign exponent "
                             f"{self.sign_exponent_doubled}/2 is not an integer")
        sign = -1 if (self.sign_exponent_doubled // 2) % 2 else 1
        s_exp = self.chi_L2 + self.chi_L - self.chi_Linv
        return (FactoredScalar.const(sign / Fraction(2) ** self.chi_L2)
                / (-FactoredScalar.var("s")) ** s_exp)


def typeII_component_integral(model, L, n1=0, n2=0, prefactor=None,
                              eps=None, eps_line=None, jobs=1, audit=None):
    """Contribution of one nested component, reduced to the product of
    two Hilbert schemes of points.

    The integrand is the top Chern part of the untwisted pair difference
    class diff(0) times an Euler class, and it is 0 unless the pair is
    nested chart by chart (``partitions.is_nested``).  There diff(0) is an
    honest character of rank n1 + n2, so the integrand is the Euler class
    of the one virtual character

        diff(0) + tangent_1 x L t + tangent_2 x L t + diff(K - 2L) t^-2
        - diff(K - L) t^-1 - diff(-L) t^-1 - tangent_1 - tangent_2,

    kept factored over its denominator forms; the pair sum times the
    prefactor is canonicalised once.  A zero weight outside diff(0) raises
    NonGenericWeightError; a zero weight of diff(0) makes the integrand 0.
    ``eps`` pins (e1, e2) to exact rationals or ``eps_line`` restricts
    them to a line (see WeightMap), never both; the result is invariant
    under that choice whenever no weight degenerates.
    """
    if prefactor is None:
        prefactor = PrefactorData.from_model(model, _as_spec(L).divisor)
    pre = prefactor.value()
    wmap = WeightMap.make(eps, eps_line)
    term = functools.partial(_typeII_term, *_typeII_charts(model, L, wmap))
    return wmap.finish((pre * assemble_sum(model, n1, n2, term, jobs=jobs,
                                           audit=audit,
                                           wmap=wmap)).canonical())


def _typeII_charts(model, L, wmap):
    """Mapped chart data (see WeightMap.charts) of the integrand's bundles:
    untwisted, L t, (K - 2L) t^-2, (K - L) t^-1 and -L t^-1."""
    L = _as_spec(L)
    if L.t_weight or L.tprime_weight:
        raise ValueError("the bundle class must be untwisted here; twists "
                         "are fixed by the integrand")
    kd = model.canonical
    return wmap.charts(model, None, L._replace(t_weight=1), *(  # kK - lL t^-l
        TwistedBundleSpec(_combine((k, kd), (-l, L.divisor)), -l)
        for k, l in ((1, 2), (1, 1), (0, 1))))


def _typeII_character(charts, shifts, fp1, fp2):
    """The character whose Euler class is the integrand at a pair: diff(0)
    + diff(K - 2L) t^-2 - diff(K - L) t^-1 - diff(-L) t^-1 plus tangent x
    L t - tangent at both fixed points; None where the integrand is 0, as
    at every pair not nested chart by chart (``partitions.is_nested``).

    At a nested pair diff(0) must be honest of rank n1 + n2, so that its
    Euler class is its top Chern part; otherwise ValueError.  A zero weight
    of the rest raises NonGenericWeightError, and then a zero weight of
    diff(0) makes the integrand 0 (its top Chern part vanishes)."""
    if not is_nested(fp1, fp2):
        return None
    e_cls, k2l, kl, negl = _chart_sum(_pair_correction, charts,
                                      shifts[:1] + shifts[2:], fp1, fp2)
    n = sum(map(sum, fp1 + fp2))
    mults = e_cls.terms.values()
    if sum(mults) != n or any(m < 0 for m in mults):
        raise ValueError(f"typeII term: diff(0) at the nested pair {fp1}, "
                         f"{fp2} is not an honest character of rank {n}")
    rest = k2l - kl - negl
    for fp in (fp1, fp2):
        tan, twisted = _chart_sum(_pair_correction, charts, shifts[:2], fp, fp)
        rest = rest + (twisted - tan)
    if ZERO_WEIGHT in rest.terms:
        raise NonGenericWeightError(
            "zero torus weight: Euler class is not invertible")
    if ZERO_WEIGHT in e_cls.terms:
        return None
    return e_cls + rest


def _typeII_term(charts, shifts, fp1, fp2):
    """Integrand of typeII_component_integral at one fixed-point pair: 0
    where ``_typeII_character`` is None."""
    char = _typeII_character(charts, shifts, fp1, fp2)
    return FactoredScalar.const(0) if char is None else euler_of_character(char)


# -- Mochizuki-style residue coefficients ----------------------------------

# sp-carrying weights of one term, with multiplicity, all expanded into the
# residue: at the one pair of `mochizuki --surface plane --n 0`, --divisor
# H=8 has 92 and takes 0.7-1.3 s, H=9 112 and 1.6 s, H=10 134 and 2-3.5 s
MAX_SP_WEIGHTS = 100

def _mochizuki_term(model, Lb1, Lb2, L, p_g, wmap, fp1, fp2):
    """Residue in sp of the integrand at one fixed-point pair.

    The integrand is e(V1) P e(V2 t'^2) / ((2 sp)^(n1+n2-p_g) Q) over the
    two tangent Euler classes, where V_i are the tautological characters
    of the twist bundles, P the Euler class of minus the full
    self-interaction characteristic of (ideal 1 x t'^-1 + ideal 2 x t')
    twisted by L t, and Q the Euler class of minus the two cross
    characteristics without the L t twist.  A genuinely zero weight of V1
    makes the term 0.  The residue is linear over the sp-free weights, so
    only the weights that carry sp are expanded into its series; more
    than MAX_SP_WEIGHTS of them, with multiplicity, is a ValueError."""
    v1 = tautological_character(fp1, Lb1, model)
    if ZERO_WEIGHT in v1.terms:
        return FactoredScalar.const(0)
    char = v1 + tautological_character(fp2, Lb2, model).shift((0, 2, 0, 0))
    # chi of (ideal A x divA x t'^cA, ideal B x divB x t'^cB), twisted by
    # L t on all four pairs (t = 1) and untwisted on the two cross pairs
    one, two = (fp1, Lb1.divisor, -1), (fp2, Lb2.divisor, 1)
    for (fa, da, ca), (fb, db, cb), t in (
            (one, one, 1), (one, two, 1), (two, one, 1), (two, two, 1),
            (one, two, 0), (two, one, 0)):
        spec = TwistedBundleSpec(
            _combine((1, db), (-1, da), (t, L.divisor)), t, cb - ca)
        char = char - chi_character(fa, fb, spec, model)
    # (2 sp)^(n1+n2-p_g) in the denominator is the weight 2 sp
    n = sum(map(sum, fp1 + fp2))
    char = (char + Poly({(0, 2, 0, 0): p_g - n})
            - tangent_character(fp1, model) - tangent_character(fp2, model))
    free, rest = [], []
    for w, m in char.terms.items():
        (rest if w[1] else free).append((w[:2] + wmap.form(w[2:]), m))
    if (count := sum(abs(m) for _, m in rest)) > MAX_SP_WEIGHTS:
        raise ValueError(f"a Mochizuki term with {count} sp-carrying "
                         f"weights, above the maximum {MAX_SP_WEIGHTS}")
    return (euler_of_character(Poly.from_pairs(free))
            * residue(euler_of_character(Poly.from_pairs(rest)), "sp"))


def split_budget(model, Lb1, Lb2, n):
    """n - Lb1.Lb2, the point count n1 + n2 of every splitting that
    ``mochizuki_coefficient`` sums over; there is none when it is negative."""
    return n - model.pair(_as_spec(Lb1).divisor, _as_spec(Lb2).divisor)


def mochizuki_coefficient(model, Lb1, Lb2, L, n, p_g, eps=None, jobs=1,
                          audit=None):
    """Sum of residues in sp of the integrand over all point splittings
    n1 + n2 = ``split_budget``, localized over fixed-point pairs: the
    pairs of all splittings form one sum, canonicalised once."""
    Lb1, Lb2, L = map(_as_spec, (Lb1, Lb2, L))
    budget = split_budget(model, Lb1, Lb2, n)
    wmap = WeightMap.make(eps)
    term = functools.partial(_mochizuki_term, model, Lb1, Lb2, L, p_g, wmap)
    total = _pair_sum(model, ((k, budget - k) for k in range(budget, -1, -1)),
                      term, jobs, audit, wmap)
    return wmap.finish(total.canonical())


# -- small analysis helpers ------------------------------------------------

def pure_s_monomial(x):
    """If x = c * s^k with c rational, return (c, k); else None."""
    x = x.canonical()
    if x.is_zero() or len(x.num.terms) != 1 or len(x.den.terms) != 1:
        return None
    (en, cn), = x.num.terms.items()
    (ed, cd), = x.den.terms.items()
    if any(en[1:]) or any(ed[1:]):
        return None
    return Fraction(cn, cd), en[0] - ed[0]
