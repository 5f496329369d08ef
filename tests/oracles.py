"""Independent desk oracles used by the tests.

Everything here is derived by a different route than the library code it
checks: plain integer recurrences, the arm/leg weights of box diagrams,
Riemann-Roch arithmetic, Fraction-valued series expansion, a
polynomial gcd, which the library does not have, a lattice search over
divisor classes on an elliptic surface, the total Chern class of the
pair difference character, lattice-point cohomology and localization
against the intersection data of a toric surface model, and the closed
form of the Hilbert-scheme row of the nested integrals.
"""

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from dt4 import moduli
from dt4.eqalg import chern_part
from dt4.localize import difference_character
from dt4.partitions import boxes, hilb_fixed_points
from dt4.poly import NAMES, Poly, grlex_key
from dt4.surfaces import ToricSurfaceModel, _lattice_cohomology


# -- counting --------------------------------------------------------------

def partition_numbers(n):
    """p(0..n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k = 1
        total = 0
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


def conjugate(lam):
    """The transposed partition: the column lengths of ``lam``."""
    width = lam[0] if lam else 0
    return tuple(sum(1 for p in lam if p > j) for j in range(width))


def colored_counts(colors, n):
    """Coefficients of (sum p(k) q^k)^colors through q^n, by convolution."""
    p = partition_numbers(n)
    acc = [1] + [0] * n
    for _ in range(colors):
        acc = [sum(acc[j] * p[i - j] for j in range(i + 1))
               for i in range(n + 1)]
    return acc


def diagonal_log(k):
    """The (q1 q2)^k coefficients of log A and log D, where
    A = prod_j (1 - (q1 q2)^j)^-4 and D = prod_j (1 - (q1 q2)^j)^-1: the
    L^2 and c2 columns of the log of the nested series at the diagonal
    cell (k, k).  Since -log(1 - x) = sum_m x^m / m, they are
    (4 sigma(k) / k, sigma(k) / k) with sigma the divisor sum."""
    sigma = sum(d for d in range(1, k + 1) if k % d == 0)
    return Fraction(4 * sigma, k), Fraction(sigma, k)


def binomial_product(a, n):
    """Coefficients of prod_{m>=1} (1 - q^m)^a through q^n for an integer
    a, multiplying in one truncated binomial series per factor."""
    def binom(j):
        if a >= 0:
            return math.comb(a, j)
        return (-1) ** j * math.comb(j - a - 1, j)

    acc = [1] + [0] * n
    for m in range(1, n + 1):
        acc = [sum((-1) ** j * binom(j) * acc[e - j * m]
                   for j in range(e // m + 1))
               for e in range(n + 1)]
    return acc


def linear_power_product(pairs, k):
    """Coefficients of x^0 .. x^k of prod (1 + r x)^m over integer pairs
    (r, m): |m| truncated multiplications by 1 + r x, or by the geometric
    series of 1/(1 + r x) when m < 0."""
    acc = [1] + [0] * k
    for r, m in pairs:
        step = [1, r] if m >= 0 else [(-r) ** j for j in range(k + 1)]
        for _ in range(abs(m)):
            acc = [sum(c * acc[e - i] for i, c in enumerate(step[:e + 1]))
                   for e in range(k + 1)]
    return acc


def k3_component_count(m, n):
    """Closed-form count of the nested components at fiber twist m,
    charge n: the twist splits into (b, m+1-b) with b from 1 to the
    midpoint; a balanced split (only for odd m) halves the point range."""
    half = (m + 1) // 2
    if m % 2:
        return (half - 1) * (n + 1) + n // 2 + 1
    return half * (n + 1)


# -- nested components on an elliptic surface, by lattice search -----------

class DivisorClass(NamedTuple):
    """a * section + b * fiber, integer coefficients, with the lattice
    operations."""
    a: int
    b: int

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __add__(self, other):
        return DivisorClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return DivisorClass(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return DivisorClass(-self.a, -self.b)

    def scale(self, m):
        return DivisorClass(m * self.a, m * self.b)


SECTION = DivisorClass(1, 0)
FIBER = DivisorClass(0, 1)
ZERO_DIVISOR = DivisorClass(0, 0)


class TypeIIGeneralComponent(NamedTuple):
    """Decomposition datum of the general nested enumeration."""
    beta1: DivisorClass
    beta2: DivisorClass
    n1: int
    n2: int
    alpha: DivisorClass


def _pair_q(a1, b1, a2, b2, k):
    return -(k + 2) * a1 * a2 + a1 * b2 + a2 * b1


def pair(d1, d2, S):
    """Intersection number on the section/fiber lattice."""
    return _pair_q(d1.a, d1.b, d2.a, d2.b, S.k)


def pair_h(h, d, S):
    """Intersection of a rational polarization with a divisor class."""
    return Fraction(_pair_q(h.t, h.u, Fraction(d.a), Fraction(d.b), S.k))


def is_effective(d):
    """Membership in the effective cone spanned by section and fiber."""
    return d.a >= 0 and d.b >= 0


def enumerate_typeII_general(beta, m, k, n, h, search_box):
    """Nested decompositions on a general fibration inside a lattice box,
    against ``moduli.enumerate_typeII_K3``'s closed form on K3.

    ``search_box`` bounds the divisor-class search: either an integer B
    (both coefficients of the first class range over [-B, B]) or a pair
    of (lo, hi) ranges.  Finiteness outside the stable chamber is not
    guaranteed, hence the explicit box.
    """
    S = moduli.EllipticSurface(k)
    D = DivisorClass(0, m)
    if isinstance(search_box, int):
        search_box = ((-search_box, search_box),) * 2
    (alo, ahi), (blo, bhi) = search_box
    out = []
    for a1 in range(alo, ahi + 1):
        for b1 in range(blo, bhi + 1):
            beta1 = DivisorClass(a1, b1)
            beta2 = beta - beta1
            alpha = beta2 + D - beta1
            if not is_effective(alpha):
                continue
            if not pair_h(h, beta2, S) < pair_h(h, beta1, S):
                continue
            budget = n - pair(beta1, beta2, S)
            if budget < 0:
                continue
            lo = (budget + 1) // 2 if alpha.is_zero() else 0
            for n1 in range(budget, lo - 1, -1):
                out.append(TypeIIGeneralComponent(beta1, beta2, n1,
                                                  budget - n1, alpha))
    return out


# -- the support of the typeII integrand ------------------------------------

def nested_support(model, n):
    """Every fixed-point pair of every cell n1 + n2 <= n, and those whose
    untwisted difference character diff(0) has a nonzero top Chern part
    c_{n1+n2}.

    Asserts that those are exactly the pairs nested chart by chart (the
    boxes of the second partition inside those of the first at every
    chart), and that diff(0) is honest of rank n1 + n2 on each of them:
    every multiplicity positive.
    """
    pairs, support = [], []
    for size in range(n + 1):
        for n1 in range(size + 1):
            for fp1, fp2 in itertools.product(hilb_fixed_points(model, n1),
                                              hilb_fixed_points(model,
                                                                size - n1)):
                diff = difference_character(fp1, fp2, None, model)
                nested = all(set(boxes(lam2)) <= set(boxes(lam1))
                             for lam1, lam2 in zip(fp1, fp2))
                top = not chern_part(diff, size).is_zero()
                assert top == nested, (fp1, fp2, top)
                if nested:
                    assert sum(diff.terms.values()) == size and all(
                        m > 0 for m in diff.terms.values()), (fp1, fp2, diff)
                    support.append((fp1, fp2))
                pairs.append((fp1, fp2))
    return pairs, support


# -- arm/leg weights over one chart ----------------------------------------

def arm_leg(lam, box):
    """(arm, leg) of a box: cells strictly right in its row, strictly below
    in its column."""
    i, j = box
    if not (0 <= i < len(lam) and 0 <= j < lam[i]):
        raise ValueError(f"box {box} outside the diagram of {lam}")
    return lam[i] - j - 1, sum(1 for p in lam[i + 1:] if p > j)


def chart_tangent_oracle(lam, w1, w2):
    """Tangent weights of one chart with forms w1, w2 by Ellingsrud-Stromme
    (Nakajima, Lectures on Hilbert schemes of points on surfaces, Prop.
    5.8): a box with arm a and leg l contributes (l + 1) w1 - a w2 and
    -l w1 + (a + 1) w2.  Returns {(e1, e2) weight: multiplicity}."""
    out = {}
    for box in boxes(lam):
        a, l = arm_leg(lam, box)
        for c1, c2 in ((l + 1, -a), (-l, a + 1)):
            w = (c1 * w1[0] + c2 * w2[0], c1 * w1[1] + c2 * w2[1])
            out[w] = out.get(w, 0) + 1
    return out


def tangent_weights_oracle(fp, model):
    """Aggregate chart tangent weights into 4-component weight vectors."""
    acc = {}
    for lam, (w1, w2) in zip(fp, model.fixed_points):
        for w, c in chart_tangent_oracle(lam, w1, w2).items():
            acc[(0, 0) + w] = acc.get((0, 0) + w, 0) + c
    return acc


# -- Riemann-Roch ----------------------------------------------------------

def chi_riemann_roch(model, divisor):
    """chi(O(D)) = chi(O) + D.(D - K)/2 with chi(O) from Noether."""
    chi_O = (model.chern.c1_sq + model.chern.c2) // 12
    k = model.canonical
    d = model.check_divisor(divisor)
    dd = model.pair(d, d)
    dk = model.pair(d, k)
    assert (dd - dk) % 2 == 0
    return chi_O + (dd - dk) // 2


# -- surface models, by lattice cohomology ---------------------------------

def validate_model(model):
    """Cross-check a model's derived data against independent routes.

    Raises AssertionError with a diagnostic on any mismatch.  Checks:
    K.K against c1 squared, trivial bundle cohomology, Riemann-Roch ranks
    vs lattice cohomology, and Serre duality at character level.
    """
    kd = model.canonical
    assert model.pair(kd, kd) == model.chern.c1_sq, \
        f"{model.name}: K.K {model.pair(kd, kd)} != c1_sq {model.chern.c1_sq}"

    triv = model.cohomology_character({})
    assert triv.terms == {(0, 0): len(model.fans)}, \
        f"{model.name}: cohomology of O is {triv}"

    for d in _divisor_samples(model):
        coh = model.cohomology_character(d)
        rank = sum(coh.terms.values())
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


# -- intersection numbers, by localization ---------------------------------

def localized_intersections(model):
    """The pairing of the basis divisors and K.k for every basis name k, by
    localization at the integer point (e1, e2) = (1, m), where no tangent
    form vanishes: D.E sums D(p) E(p) / (w1(p) w2(p)) over the fixed
    points, with the fiber weight -(w1 + w2) for K."""
    m = 1 + max(abs(w[0]) for fp in model.fixed_points for w in fp)

    def at(w):
        return w[0] + m * w[1]

    tangents = [(at(w1), at(w2)) for w1, w2 in model.fixed_points]

    def integral(f, g):
        total = sum(Fraction(a * b, t1 * t2)
                    for a, b, (t1, t2) in zip(f, g, tangents))
        assert total.denominator == 1, f"{model.name}: {total} not integral"
        return int(total)

    fibers = {k: [at(w) for w in model.bundle_weights({k: 1})]
              for k in model.basis}
    canonical = [-t1 - t2 for t1, t2 in tangents]
    pairing = {k: {j: integral(fibers[k], fibers[j]) for j in model.basis}
               for k in model.basis}
    return pairing, {k: integral(canonical, fibers[k]) for k in model.basis}


def assert_localized_intersections(model):
    """``model.pair`` on basis divisors and ``model.canonical`` against
    ``localized_intersections``; basis divisors on different fans meet 0
    times."""
    pairing, k_dot = localized_intersections(model)
    for k, row in pairing.items():
        for j, v in row.items():
            got = model.pair({k: 1}, {j: 1})
            assert got == v, f"{model.name}: {k}.{j} is {got}, not {v}"
    assert {k: model.pair(model.canonical, {k: 1}) for k in model.basis} \
        == k_dot, f"{model.name}: K.k is not {k_dot}"


# -- a 12-ray surface with c1^2 = 0 -----------------------------------------

T12_RAYS = ((1, 0), (2, 1), (3, 2), (1, 1), (2, 3), (1, 2), (1, 3), (0, 1),
            (-1, 0), (-2, -1), (-1, -1), (0, -1))


def twelve_ray_surface():
    """The plane blown up nine times at torus-fixed points: twelve rays,
    so c1^2 = 12 - 12 = 0 and c2 = 12.  Its basis is D2 .. D11, where D_k
    is the divisor of ray k, counting rays from 1.  At L = 0 universality
    leaves D^c2 of the nested series, D = prod_j (1 - (q1 q2)^j)^-1, so
    its (k, k) cell is ``colored_counts(12, k)[k]`` and every other cell
    is 0."""
    n = len(T12_RAYS)
    return ToricSurfaceModel.from_fan("T12", T12_RAYS, {
        f"D{k}": tuple(int(r == k - 1) for r in range(n))
        for k in range(2, n)})


# -- the Hilbert-scheme row in closed form ---------------------------------

def hilbert_row(L_c1, c1_sq, N):
    """The (n, 0) cells n = 0..N of the classical nested integral on a
    surface with line bundle L, as exact Fractions: [x^n] B^{L.c1}
    C^{c1^2}, where B(0) = C(0) = 1 and

        16x B^2 - (1 + 18x - 27x^2) B + 1 = 0,
        16x^2 C^2 + (1 - x)^2 (1 - 9x)(1 + 3x) C - (1 - x)^3 (1 - 9x) = 0.

    B and C come from fixed-point iteration on power series truncated at
    x^N; each pass fixes one more coefficient."""
    def mul(*factors):
        out = [Fraction(1)] + [Fraction(0)] * N
        for f in factors:
            f = list(f) + [0] * (N + 1 - len(f))
            out = [sum(out[i] * f[k - i] for i in range(k + 1))
                   for k in range(N + 1)]
        return out

    def power(f, a):
        # f^a for f(0) = 1 and any integer a, by Miller's recurrence
        # k g_k = sum_{i=1}^{k} ((a + 1) i - k) f_i g_{k-i}
        g = [Fraction(1)] + [Fraction(0)] * N
        for k in range(1, N + 1):
            g[k] = sum(((a + 1) * i - k) * f[i] * g[k - i]
                       for i in range(1, k + 1)) / k
        return g

    P = mul((1, -1), (1, -1), (1, -9), (1, 3))
    Q = mul((1, -1), (1, -1), (1, -1), (1, -9))
    B = C = mul()
    for _ in range(N):
        # B = 1 + x (16 B^2 - 18 B) + 27 x^2 B
        # C = Q - 16 x^2 C^2 - (P - 1) C
        B2, C2, PC = mul(B, B), mul(C, C), mul(P, C)
        B = [(k == 0) + (16 * B2[k - 1] - 18 * B[k - 1] if k else 0)
             + (27 * B[k - 2] if k > 1 else 0) for k in range(N + 1)]
        C = [Q[k] - PC[k] + C[k] - (16 * C2[k - 2] if k > 1 else 0)
             for k in range(N + 1)]
    return mul(power(B, L_c1), power(C, c1_sq))


# -- univariate residue oracle ---------------------------------------------

def _poly_in_var(p, v):
    """Coefficients of a Poly supported on one variable, as {exp: Fraction}."""
    out = {}
    for e, c in p.terms.items():
        for i, ei in enumerate(e):
            if i != v and ei:
                raise ValueError("polynomial not univariate after specialization")
        out[e[v]] = out.get(e[v], Fraction(0)) + c
    return out


def residue_series_oracle(x, var):
    """Coefficient of var^-1 of a scalar, by Fraction series expansion.

    The scalar's value is ``scalar.numerator * num / den``; both must
    already be free of the other variables (specialize first).  The
    expansion inverts the denominator as a geometric series.
    """
    v = NAMES.index(var)
    num = {k: c * x.scalar.numerator
           for k, c in _poly_in_var(x.num, v).items()}
    den = _poly_in_var(x.den, v)
    if not num:
        return Fraction(0)
    a = min(den)
    b = min(num)
    d0 = den[a]
    # want coefficient of var^-1: series index j with b - a + j = -1
    jmax = -1 - (b - a)
    if jmax < 0:
        return Fraction(0)
    # invert (d0 + d1 var + ...) up to var^jmax
    inv = [Fraction(1) / d0]
    for j in range(1, jmax + 1):
        s = Fraction(0)
        for i in range(1, j + 1):
            s += den.get(a + i, Fraction(0)) * inv[j - i]
        inv.append(-s / d0)
    total = Fraction(0)
    for k, c in num.items():
        j = -1 - (k - a)
        if 0 <= j <= jmax:
            total += c * inv[j]
    return total


# -- reference gcd ----------------------------------------------------------

def _primitive(p):
    """(signed content, primitive part with positive leading coefficient)."""
    c = p.content()
    if p.terms[max(p.terms, key=grlex_key)] < 0:
        c = -c
    return c, p.divexact(c)


def exact_quotient(a, b):
    """a / b for a nonzero polynomial b that divides a, else ValueError:
    long division in the top variable of b, each leading coefficient
    divided recursively, down to the integer division of a constant."""
    if b.is_const():
        return a.divexact(b.const_value())
    v = max(i for e in b.terms for i, k in enumerate(e) if k)
    bv = b.by_var(v)
    db = max(bv)
    q = Poly()
    while not a.is_zero():
        av = a.by_var(v)
        da = max(av)
        if da < db:
            raise ValueError("inexact polynomial division")
        c = exact_quotient(av[da], bv[db])
        t = Poly({e[:v] + (da - db,) + e[v + 1:]: k
                  for e, k in c.terms.items()})
        q, a = q + t, a - t * b
    return q


def _prem(a, b):
    """Pseudo-remainder of univariate-in-v polynomials as degree maps."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        nr = {d: p * lb for d, p in r.items()}
        for d, p in b.items():
            q = nr.get(d + dr - db, Poly()) - p * lr
            nr[d + dr - db] = q
        r = {d: p for d, p in nr.items() if not p.is_zero()}
    return r


def _content_of(parts):
    g = Poly()
    for p in parts.values():
        g = poly_gcd(g, p)
    return g


def poly_gcd(a, b):
    """Polynomial gcd over the integers with positive leading coefficient:
    integer contents, then a primitive pseudo-remainder sequence in the
    top occurring variable, recursing on the coefficients.  It can take
    minutes on dense four-variable inputs, so tests keep it to small
    homogeneous ones in s, e1, e2."""
    if a.is_zero() or b.is_zero():
        p = b if a.is_zero() else a
        return p if p.is_zero() else _primitive(p)[1] * p.content()
    (ca, pa), (cb, pb) = _primitive(a), _primitive(b)
    used = [i for e in (*pa.terms, *pb.terms) for i, k in enumerate(e) if k]
    g = Poly.const(math.gcd(ca, cb))
    if not used:
        return g
    v = max(used)
    pa, pb = pa.by_var(v), pb.by_var(v)
    conta, contb = _content_of(pa), _content_of(pb)
    pa = {d: exact_quotient(p, conta) for d, p in pa.items()}
    pb = {d: exact_quotient(p, contb) for d, p in pb.items()}
    if max(pa) < max(pb):
        pa, pb = pb, pa
    while pb:
        r = _prem(pa, pb)
        if r:
            rc = _content_of(r)
            r = {d: exact_quotient(p, rc) for d, p in r.items()}
        pa, pb = pb, r
    lift = Poly({e[:v] + (e[v] + d,) + e[v + 1:]: c
                 for d, p in pa.items() for e, c in p.terms.items()})
    return _primitive(lift)[1] * poly_gcd(conta, contb) * g
