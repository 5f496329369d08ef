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
        if divisor is None:
            divisor = ()
        elif isinstance(divisor, dict):
            divisor = tuple(sorted(divisor.items()))
        return cls(tuple(divisor), t_weight, tprime_weight)

    def divisor_map(self):
        return dict(self.divisor)


def _as_spec(bundle):
    if isinstance(bundle, TwistedBundleSpec):
        return bundle
    return TwistedBundleSpec.make(bundle or {})


def _combine(*terms):
    """The divisor map sum(c * d) of (integer c, divisor map d) terms,
    without zero entries."""
    out = {}
    for c, d in terms:
        for k, v in d.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


# -- chart-level character calculus ----------------------------------------

def _chart_sum(local, bundle, model, *fps):
    """Sum over the charts of ``local(partitions at the chart, w1, w2)``,
    a WeightCharacter or weight -> multiplicity dict, each shifted by
    (t, t', fiber form of the bundle at that chart).  Charts whose
    partitions are all empty are skipped."""
    spec = _as_spec(bundle)
    t, tp = spec.t_weight, spec.tprime_weight
    mus = model.bundle_weights(spec.divisor_map())
    pairs = []
    for chart, (x, y), *lams in zip(model.fixed_points, mus,
                                    *(fp.assignment for fp in fps)):
        if any(lam.parts for lam in lams):
            pairs += [((w[0] + t, w[1] + tp, w[2] + x, w[3] + y), m)
                      for w, m in local(*lams, chart.w1, chart.w2).items()]
    return WeightCharacter(pairs)


def _tangent_chart(lam, w1, w2):
    """Weight -> multiplicity: each box contributes the arm/leg pair
    (l+1)*w1 - a*w2 and -l*w1 + (a+1)*w2."""
    out = {}
    for box in lam.boxes():
        a, l = arm_leg(lam, box)
        for (c1, c2) in (((l + 1), -a), (-l, (a + 1))):
            w = (0, 0, c1 * w1[0] + c2 * w2[0], c1 * w1[1] + c2 * w2[1])
            out[w] = out.get(w, 0) + 1
    return out


def _box_character(lam, w1, w2):
    return WeightCharacter([
        ((0, 0, -(i * w1[0] + j * w2[0]), -(i * w1[1] + j * w2[1])), 1)
        for (i, j) in lam.boxes()])


def _pair_correction(lam1, lam2, w1, w2):
    """Chart character N(V1, V2) of an ideal-sheaf pair."""
    v1 = _box_character(lam1, w1, w2)
    v2 = _box_character(lam2, w1, w2)
    if v1.is_zero():
        return v2
    c1 = v1.conjugate()
    out = v2 + c1.shift((0, 0, w1[0] + w2[0], w1[1] + w2[1]))
    if not v2.is_zero():
        one = WeightCharacter({(0, 0, 0, 0): 1})
        t1 = one.shift((0, 0) + tuple(w1))
        t2 = one.shift((0, 0) + tuple(w2))
        out = out - c1 * v2 * (one - t1) * (one - t2)
    return out


# -- public characters -----------------------------------------------------
# None of these calls another by name: perfbench's tracer counts each call
# of one of them as one character.

def tangent_character(fp, model):
    """Tangent weights of the Hilbert scheme at a monomial fixed point:
    exactly 2n weights with multiplicity."""
    return _chart_sum(_tangent_chart, None, model, fp)


def twisted_tangent_character(fp, bundle, model):
    """Tangent character with every chart's weights shifted by the chart
    fiber weight of the twisted bundle."""
    return _chart_sum(_tangent_chart, bundle, model, fp)


def chi_character(fp1, fp2, bundle, model):
    """Pair Euler characteristic character of (ideal 1, ideal 2 x bundle).

    Cohomology of the bundle minus the chart corrections; the rank is
    chi(bundle) - n1 - n2.
    """
    spec = _as_spec(bundle)
    coh = model.cohomology_character(spec.divisor_map())
    sheaf = WeightCharacter([((spec.t_weight, spec.tprime_weight) + w, m)
                             for w, m in coh.items()])
    return sheaf - _chart_sum(_pair_correction, spec, model, fp1, fp2)


def difference_character(fp1, fp2, bundle, model):
    """Character of (cohomology of bundle) minus (pair characteristic);
    rank n1 + n2 identically."""
    return _chart_sum(_pair_correction, bundle, model, fp1, fp2)


def tautological_character(fp, bundle, model):
    """Push-forward of the bundle along the universal subscheme: one
    weight per box, shifted by the chart fiber weight."""
    return _chart_sum(_box_character, bundle, model, fp)


# -- the weight map: one specialisation for every route ---------------------

class WeightMap(NamedTuple):
    """Integer map on weight vectors, applied before any polynomial exists.

    ``line=None`` is the identity (fully symbolic).  ``line=(a, b)``
    restricts the chart parameters to (e1, e2) = (a u, b u), with u kept
    in the e1 slot.  A rational point (x, y) = (a/D, b/D) is that line
    followed by ``finish``, which evaluates the summed value at u = 1/D.
    Chern classes commute with the map, so mapping the character suffices.
    """
    line: tuple = None
    at: Fraction = None

    @classmethod
    def make(cls, eps=None, eps_line=None):
        if eps_line is not None:
            return cls(tuple(eps_line))
        if eps is None:
            return cls()
        x, y = Fraction(eps[0]), Fraction(eps[1])
        d = math.lcm(x.denominator, y.denominator)
        return cls((int(x * d), int(y * d)), Fraction(1, d))

    def __call__(self, char):
        if self.line is None:
            return char
        a, b = self.line
        mapped = [((w[0], w[1], a * w[2] + b * w[3], 0), m)
                  for w, m in char.items()]
        return WeightCharacter(mapped)

    def finish(self, x):
        return x if self.at is None else x.specialize({"e1": self.at})


SYMBOLIC = WeightMap()


# -- generic localization sum ----------------------------------------------

def Pool(processes):
    """A ``multiprocessing`` pool; the module is imported only here, so
    serial runs never load it."""
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
    the n1- and n2-point Hilbert schemes.

    Terms are FactoredScalars; the sum is their ``factored_sum``, left
    for the caller to canonicalise once.  Audited terms are canonicalised
    one by one and pass through ``wmap.finish``.  Deterministic pair
    order; ``jobs`` > 1 evaluates terms with ``parallel_starmap``.
    """
    pairs = list(itertools.product(hilb_fixed_points(model, n1),
                                   hilb_fixed_points(model, n2)))
    terms = parallel_starmap(term_fn, pairs, jobs)
    if audit is not None:
        for (fp1, fp2), t in zip(pairs, terms):
            audit({"fixed_point": [[list(p.parts) for p in fp1.assignment],
                                   [list(p.parts) for p in fp2.assignment]],
                   "term": str(wmap.finish(t.canonical()))})
    return factored_sum(terms)


# -- type II component integral --------------------------------------------

PREFACTOR_VARIANTS = ("product", "typeIIB")


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
    variant: str = "product"

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
        doubled = D_c1 + 3 * D_sq
        if variant == "typeIIB":
            doubled += -2 * alpha_pair
        return cls(chi_L2, chi_L, chi_Linv, doubled, variant)

    def value(self):
        if self.sign_exponent_doubled % 2:
            raise ValueError("prefactor parity undefined: sign exponent "
                             f"{self.sign_exponent_doubled}/2 is not an integer")
        sign = -1 if (self.sign_exponent_doubled // 2) % 2 else 1
        minus_s = -REG.var("s")
        s_exp = self.chi_L2 + self.chi_L - self.chi_Linv
        return (REG.const(sign)
                / (REG.const(2) ** self.chi_L2 * minus_s ** s_exp))


def typeII_component_integral(model, L, n1=0, n2=0, prefactor=None,
                              eps=None, eps_line=None, jobs=1, audit=None):
    """Contribution of one nested component, reduced to the product of
    two Hilbert schemes of points.

    The integrand at a fixed-point pair is the top Chern part of the pair
    difference class times the Euler class of the one virtual character

        tangent_1 x L t + tangent_2 x L t + diff(K - 2L) t^-2
        - diff(K - L) t^-1 - diff(-L) t^-1 - tangent_1 - tangent_2,

    kept factored over its denominator forms; the pair sum is canonicalised
    once and multiplied by the prefactor.  ``eps`` pins (e1, e2) to exact
    rationals and ``eps_line`` restricts them to a line (see WeightMap);
    the result is invariant under that choice whenever no weight
    degenerates.
    """
    L = _as_spec(L)
    if L.t_weight or L.tprime_weight:
        raise ValueError("the bundle class must be untwisted here; twists "
                         "are fixed by the integrand")
    Ld = L.divisor_map()
    kd = model.canonical_divisor()
    if prefactor is None:
        prefactor = PrefactorData.from_model(model, Ld)
    pre = prefactor.value()

    m_k2l = TwistedBundleSpec.make(_combine((1, kd), (-2, Ld)), -2)
    m_kl = TwistedBundleSpec.make(_combine((1, kd), (-1, Ld)), -1)
    m_negl = TwistedBundleSpec.make(_combine((-1, Ld)), -1)
    l_t = TwistedBundleSpec.make(Ld, 1)

    wmap = WeightMap.make(eps, eps_line)
    term = functools.partial(_typeII_term, model, l_t, m_k2l, m_kl, m_negl,
                             n1 + n2, wmap)
    total = assemble_sum(model, n1, n2, term, jobs=jobs, audit=audit,
                         wmap=wmap)
    return pre * wmap.finish(total.canonical())


def _typeII_term(model, l_t, m_k2l, m_kl, m_negl, n, wmap, fp1, fp2):
    """Integrand of typeII_component_integral at one fixed-point pair."""
    e_cls = wmap(difference_character(fp1, fp2, None, model))
    top = chern_part(e_cls, n)
    char = (twisted_tangent_character(fp1, l_t, model)
            + twisted_tangent_character(fp2, l_t, model)
            + difference_character(fp1, fp2, m_k2l, model)
            - difference_character(fp1, fp2, m_kl, model)
            - difference_character(fp1, fp2, m_negl, model)
            - tangent_character(fp1, model)
            - tangent_character(fp2, model))
    return euler_of_character(wmap(char), top.num)


# -- Mochizuki-style residue coefficients ----------------------------------

def _mochizuki_character(fp1, fp2, Lb1, Lb2, L, p_g, model):
    """Virtual character whose Euler class is the residue integrand before
    division by the tangent Euler classes; None when a genuinely zero
    weight in the numerator kills the term."""
    d1 = Lb1.divisor_map()
    d2 = Lb2.divisor_map()
    dl = L.divisor_map()
    v1 = tautological_character(fp1, Lb1, model)
    if any(not any(w) for w in v1.weights):
        return None
    v2 = tautological_character(fp2, Lb2, model).shift((0, 2, 0, 0))
    char = v1 + v2
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
    return residue(euler_of_character(wmap(char)), "sp")


def mochizuki_coefficient(model, Lb1, Lb2, L, n, p_g, eps=None, jobs=1,
                          audit=None):
    """Sum of residues in sp of the integrand over all point splittings
    n1 + n2 = n - (twist pairing), localized over fixed-point pairs; the
    factored sums of all splittings are canonicalised once."""
    Lb1 = _as_spec(Lb1)
    Lb2 = _as_spec(Lb2)
    L = _as_spec(L)
    cross = model.pair(Lb1.divisor_map(), Lb2.divisor_map())
    budget = n - cross
    wmap = WeightMap.make(eps)
    term = functools.partial(_mochizuki_term, model, Lb1, Lb2, L, p_g, wmap)
    total = factored_sum([assemble_sum(model, n1, budget - n1, term,
                                       jobs=jobs, audit=audit, wmap=wmap)
                          for n1 in range(budget, -1, -1)])
    return wmap.finish(total.canonical())


# -- small analysis helpers ------------------------------------------------

def pure_s_monomial(x):
    """If x = c * s^k with c rational, return (c, k); else None."""
    if x.is_zero():
        return None
    if len(x.num.terms) != 1 or len(x.den.terms) != 1:
        return None
    (en, cn), = x.num.terms.items()
    (ed, cd), = x.den.terms.items()
    if any(en[i] for i in range(1, len(en))) or any(ed[i] for i in range(1, len(ed))):
        return None
    return Fraction(cn, cd), en[0] - ed[0]
