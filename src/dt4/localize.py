"""Equivariant localization integrands over Hilbert schemes of points.

All characters are finite weight multisets over the ring's variables
(s, sp, e1, e2): s is the fiber-scaling parameter, sp the auxiliary
residue parameter, (e1, e2) the toric chart parameters.  A twisted line
bundle contributes its per-chart fiber form plus t_weight * s plus
tprime_weight * sp to every weight it touches.

Conventions inherited from the surface layer: boxes (i, j) of a chart
partition carry weight -(i*w1 + j*w2); the correction character of an
ideal-sheaf pair at one chart is

    N(V1, V2) = V2 + conj(V1)*t1*t2 - conj(V1)*V2*(1-t1)(1-t2)

with t_i the one dimensional character of weight w_i and V the box
character of the chart partition.  Summed over charts and shifted by the
bundle weights this reproduces the full pair Euler characteristic; the
small-n oracles in the test suite pin both the tangent and the pair
formulas against direct deformation-space and sheaf-cohomology
computations.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .eqalg import (DEFAULT_REGISTRY as REG, FactoredScalar, WeightCharacter,
                    chern_part, euler_of_character, factored_sum, residue)
from .partitions import arm_leg, hilb_fixed_points


class TwistedBundleSpec(NamedTuple):
    """Line bundle data: a divisor class plus integer t and t' twists."""
    divisor: tuple
    t_weight: int = 0
    tprime_weight: int = 0

    @classmethod
    def make(cls, divisor, t_weight=0, tprime_weight=0):
        return cls(tuple(sorted((divisor or {}).items())), t_weight,
                   tprime_weight)

    def divisor_map(self):
        return dict(self.divisor)


def _as_spec(bundle):
    return (bundle if isinstance(bundle, TwistedBundleSpec)
            else TwistedBundleSpec.make(bundle))


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
        if eps is None or eps_line is not None:
            return cls(eps_line and tuple(eps_line))
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
        charts = [(self.form(c.w1), self.form(c.w2))
                  for c in model.fixed_points]
        return charts, [
            [(b.t_weight, b.tprime_weight) + self.form(mu)
             for mu in model.bundle_weights(b.divisor_map())]
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
    """One WeightCharacter per entry of ``shifts`` (see WeightMap.charts):
    the sum over the charts of nonempty partitions of ``local(partitions,
    w1, w2)`` over (e1, e2), computed once per chart, shifted by the entry."""
    out = [[] for _ in shifts]
    for i, ((w1, w2), *lams) in enumerate(
            zip(charts, *(fp.assignment for fp in fps))):
        if any(lam.parts for lam in lams):
            items = local(*lams, w1, w2).items()
            for pairs, shift in zip(out, shifts):
                t, tp, x, y = shift[i]
                pairs += [((t, tp, w[0] + x, w[1] + y), m) for w, m in items]
    return [WeightCharacter(pairs) for pairs in out]


def _tangent_chart(lam, w1, w2):
    """Weight -> multiplicity: each box contributes the arm/leg pair
    (l+1)*w1 - a*w2 and -l*w1 + (a+1)*w2."""
    out = {}
    for box in lam.boxes():
        a, l = arm_leg(lam, box)
        for (c1, c2) in (((l + 1), -a), (-l, (a + 1))):
            w = (c1 * w1[0] + c2 * w2[0], c1 * w1[1] + c2 * w2[1])
            out[w] = out.get(w, 0) + 1
    return out


def _box_character(lam, w1, w2):
    return WeightCharacter([((-(i * w1[0] + j * w2[0]),
                              -(i * w1[1] + j * w2[1])), 1)
                            for (i, j) in lam.boxes()])


def _pair_correction(lam1, lam2, w1, w2):
    """Chart character N(V1, V2) of an ideal-sheaf pair."""
    v1 = _box_character(lam1, w1, w2)
    v2 = _box_character(lam2, w1, w2)
    if v1.is_zero():
        return v2
    c1 = v1.conjugate()
    t12 = (w1[0] + w2[0], w1[1] + w2[1])
    out = v2 + c1.shift(t12)
    if not v2.is_zero():
        # (1 - t1)(1 - t2) = 1 - t1 - t2 + t1 t2
        out = out - c1 * v2 * WeightCharacter(
            [((0, 0), 1), (w1, -1), (w2, -1), (t12, 1)])
    return out


# -- public characters -----------------------------------------------------
# None of these calls another by name: perfbench's tracer counts each call
# of one of them as one character.

def tangent_character(fp, model):
    """Tangent weights of the Hilbert scheme at a monomial fixed point:
    exactly 2n weights with multiplicity."""
    return _chart_sum(_tangent_chart, *SYMBOLIC.charts(model, None), fp)[0]


def twisted_tangent_character(fp, bundle, model):
    """Tangent character shifted at each chart by the twisted bundle."""
    return _chart_sum(_tangent_chart, *SYMBOLIC.charts(model, bundle), fp)[0]


def chi_character(fp1, fp2, bundle, model):
    """Pair Euler characteristic character of (ideal 1, ideal 2 x bundle).

    Cohomology of the bundle minus the chart corrections; the rank is
    chi(bundle) - n1 - n2.
    """
    spec = _as_spec(bundle)
    coh = model.cohomology_character(spec.divisor_map())
    sheaf = WeightCharacter([((spec.t_weight, spec.tprime_weight) + w, m)
                             for w, m in coh.items()])
    return sheaf - _chart_sum(_pair_correction, *SYMBOLIC.charts(model, spec),
                              fp1, fp2)[0]


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

def Pool(processes):
    """A ``multiprocessing`` pool; serial runs never import the module."""
    import multiprocessing
    return multiprocessing.Pool(processes)


def parallel_starmap(fn, args, jobs=1):
    """``[fn(*a) for a in args]`` in order; ``jobs`` > 1 spreads the calls
    over that many pool workers.  ``fn`` and the arguments are pickled, so
    ``fn`` must be a top-level function or a ``functools.partial`` of one;
    then every start method works."""
    args = list(args)
    if jobs < 2:
        return [fn(*a) for a in args]
    with Pool(jobs) as pool:
        return pool.starmap(fn, args, chunksize=max(1, len(args) // jobs))


def assemble_sum(model, n1, n2, term_fn, jobs=1, audit=None, wmap=SYMBOLIC):
    """Sum term_fn(fp1, fp2) over all fixed-point pairs of the product of
    the n1- and n2-point Hilbert schemes (see _pair_sum)."""
    return _pair_sum(model, [(n1, n2)], term_fn, jobs, audit, wmap)


def _pair_sum(model, splittings, term_fn, jobs, audit, wmap):
    """The ``factored_sum`` of the FactoredScalars term_fn over the pairs of
    every splitting (n1, n2) in turn, one ``parallel_starmap`` for all, left
    to the caller to canonicalise; audited terms are canonicalised one by
    one and pass through ``wmap.finish``."""
    pairs = [p for n1, n2 in splittings for p in itertools.product(
        hilb_fixed_points(model, n1), hilb_fixed_points(model, n2))]
    terms = parallel_starmap(term_fn, pairs, jobs)
    if audit is not None:
        for (fp1, fp2), t in zip(pairs, terms):
            audit({"fixed_point": [[list(p.parts) for p in fp1.assignment],
                                   [list(p.parts) for p in fp2.assignment]],
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
            -model.pair(L, model.canonical_divisor()), variant, alpha_pair)

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
        return (REG.const(sign / Fraction(2) ** self.chi_L2)
                / (-REG.var("s")) ** s_exp)


def typeII_component_integral(model, L, n1=0, n2=0, prefactor=None,
                              eps=None, eps_line=None, jobs=1, audit=None):
    """Contribution of one nested component, reduced to the product of
    two Hilbert schemes of points.

    The integrand at a fixed-point pair is the top Chern part of the pair
    difference class times the Euler class of the one virtual character

        tangent_1 x L t + tangent_2 x L t + diff(K - 2L) t^-2
        - diff(K - L) t^-1 - diff(-L) t^-1 - tangent_1 - tangent_2,

    kept factored over its denominator forms; the pair sum times the
    prefactor is canonicalised once.  ``eps`` pins (e1, e2) to exact
    rationals and ``eps_line`` restricts them to a line (see WeightMap);
    the result is invariant under that choice whenever no weight
    degenerates.
    """
    if prefactor is None:
        prefactor = PrefactorData.from_model(model, _as_spec(L).divisor_map())
    pre = prefactor.value()
    wmap = WeightMap.make(eps, eps_line)
    term = functools.partial(_typeII_term, *_typeII_charts(model, L, wmap),
                             n1 + n2)
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
    Ld, kd = L.divisor_map(), model.canonical_divisor()
    return wmap.charts(model, None, L._replace(t_weight=1), *(  # kK - lL t^-l
        TwistedBundleSpec.make(_combine((k, kd), (-l, Ld)), -l)
        for k, l in ((1, 2), (1, 1), (0, 1))))


def _typeII_tangent(charts, shifts, fp):
    """tangent x L t - tangent at one fixed point."""
    tangent, twisted = _chart_sum(_tangent_chart, charts, shifts[:2], fp)
    return twisted - tangent


def _typeII_difference(charts, shifts, fp1, fp2):
    """diff(0) and diff(K - 2L) t^-2 - diff(K - L) t^-1 - diff(-L) t^-1."""
    e_cls, k2l, kl, negl = _chart_sum(_pair_correction, charts,
                                      shifts[:1] + shifts[2:], fp1, fp2)
    return e_cls, k2l - kl - negl


def _typeII_term(charts, shifts, n, fp1, fp2):
    """Integrand of typeII_component_integral at one fixed-point pair."""
    e_cls, char = _typeII_difference(charts, shifts, fp1, fp2)
    return euler_of_character(char + _typeII_tangent(charts, shifts, fp1)
                              + _typeII_tangent(charts, shifts, fp2),
                              chern_part(e_cls, n))


# -- Mochizuki-style residue coefficients ----------------------------------

def _mochizuki_character(fp1, fp2, Lb1, Lb2, L, p_g, model):
    """Virtual character whose Euler class is the residue integrand before
    division by the tangent Euler classes; None when a genuinely zero
    weight in the numerator kills the term."""
    d1, d2, dl = (b.divisor_map() for b in (Lb1, Lb2, L))
    v1 = tautological_character(fp1, Lb1, model)
    if any(not any(w) for w in v1.weights):
        return None
    char = v1 + tautological_character(fp2, Lb2, model).shift((0, 2, 0, 0))
    # chi of (ideal A x divA x t'^cA, ideal B x divB x t'^cB), twisted by
    # L t on all four pairs (t = 1) and untwisted on the two cross pairs
    one, two = (fp1, d1, -1), (fp2, d2, 1)
    for (fa, da, ca), (fb, db, cb), t in (
            (one, one, 1), (one, two, 1), (two, one, 1), (two, two, 1),
            (one, two, 0), (two, one, 0)):
        spec = TwistedBundleSpec.make(_combine((1, db), (-1, da), (t, dl)),
                                      t, cb - ca)
        char = char - chi_character(fa, fb, spec, model)
    # (2 sp)^(n1+n2-p_g) in the denominator is the weight 2 sp
    return char + WeightCharacter({(0, 2, 0, 0): p_g - fp1.total - fp2.total})


def _mochizuki_term(model, Lb1, Lb2, L, p_g, wmap, fp1, fp2):
    """Residue in sp of the integrand at one fixed-point pair.

    The integrand is e(V1) P e(V2 t'^2) / ((2 sp)^(n1+n2-p_g) Q) over the
    two tangent Euler classes, where V_i are the tautological characters
    of the twist bundles, P the Euler class of minus the full
    self-interaction characteristic of (ideal 1 x t'^-1 + ideal 2 x t')
    twisted by L t, and Q the Euler class of minus the two cross
    characteristics without the L t twist.
    """
    char = _mochizuki_character(fp1, fp2, Lb1, Lb2, L, p_g, model)
    if char is None:
        return FactoredScalar.zero()
    char = (char - tangent_character(fp1, model)
            - tangent_character(fp2, model))
    return residue(euler_of_character(WeightCharacter(
        [(w[:2] + wmap.form(w[2:]), m) for w, m in char.items()])), "sp")


def mochizuki_coefficient(model, Lb1, Lb2, L, n, p_g, eps=None, jobs=1,
                          audit=None):
    """Sum of residues in sp of the integrand over all point splittings
    n1 + n2 = n - (twist pairing), localized over fixed-point pairs: the
    pairs of all splittings form one sum, canonicalised once."""
    Lb1, Lb2, L = map(_as_spec, (Lb1, Lb2, L))
    budget = n - model.pair(Lb1.divisor_map(), Lb2.divisor_map())
    wmap = WeightMap.make(eps)
    term = functools.partial(_mochizuki_term, model, Lb1, Lb2, L, p_g, wmap)
    total = _pair_sum(model, [(k, budget - k) for k in range(budget, -1, -1)],
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
