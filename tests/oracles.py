"""Independent desk oracles used by the tests.

Everything here is derived by a different route than the library code it
checks: plain integer recurrences, dictionary Laurent algebra over box
diagrams, Riemann-Roch arithmetic, and Fraction-valued series expansion.
"""

import math
from fractions import Fraction

from dt4.eqalg import DEFAULT_REGISTRY
from dt4.poly import _gcd_prim


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


def colored_counts(colors, n):
    """Coefficients of (sum p(k) q^k)^colors through q^n, by convolution."""
    p = partition_numbers(n)
    acc = [1] + [0] * n
    for _ in range(colors):
        acc = [sum(acc[j] * p[i - j] for j in range(i + 1))
               for i in range(n + 1)]
    return acc


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


def k3_component_count(m, n):
    """Closed-form count of the nested components at fiber twist m,
    charge n: the twist splits into (b, m+1-b) with b from 1 to the
    midpoint; a balanced split (only for odd m) halves the point range."""
    half = (m + 1) // 2
    if m % 2:
        return (half - 1) * (n + 1) + n // 2 + 1
    return half * (n + 1)


# -- dictionary Laurent algebra over one chart -----------------------------

def _ldict_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            n = out.get(e, 0) + ca * cb
            if n:
                out[e] = n
            else:
                out.pop(e, None)
    return out


def _ldict_add(a, b):
    out = dict(a)
    for e, c in b.items():
        n = out.get(e, 0) + c
        if n:
            out[e] = n
        else:
            out.pop(e, None)
    return out


def chart_tangent_oracle(lam):
    """Tangent weights of one chart from the ideal-sheaf character.

    With V the character of the quotient ring (one monomial x^-i y^-j per
    box), the tangent space is V + Vbar*x*y - V*Vbar*(1-x)(1-y); returns
    the multiset of (p, q) exponents meaning p*w1 + q*w2.
    """
    V = {}
    for (i, j) in lam.boxes():
        e = (-i, -j)
        V[e] = V.get(e, 0) + 1
    Vbar = {(-e0, -e1): c for (e0, e1), c in V.items()}
    xy = {(1, 1): 1}
    one_minus = _ldict_mul({(0, 0): 1, (1, 0): -1}, {(0, 0): 1, (0, 1): -1})
    t = _ldict_add(V, _ldict_mul(Vbar, xy))
    t = _ldict_add(t, {e: -c for e, c in _ldict_mul(_ldict_mul(V, Vbar),
                                                    one_minus).items()})
    return t


def tangent_weights_oracle(fp, model):
    """Aggregate chart tangent weights into 4-component weight vectors."""
    acc = {}
    for idx, lam in enumerate(fp.assignment):
        chart = model.fixed_points[idx]
        w1, w2 = chart.w1, chart.w2
        for (p, q), c in chart_tangent_oracle(lam).items():
            w = (0, 0, p * w1[0] + q * w2[0], p * w1[1] + q * w2[1])
            n = acc.get(w, 0) + c
            if n:
                acc[w] = n
            else:
                acc.pop(w, None)
    return acc


# -- Riemann-Roch ----------------------------------------------------------

def chi_riemann_roch(model, divisor):
    """chi(O(D)) = chi(O) + D.(D - K)/2 with chi(O) from Noether."""
    chi_O = (model.chern.c1_sq + model.chern.c2) // 12
    k = model.canonical_divisor()
    d = model.check_divisor(divisor)
    dd = model.pair(d, d)
    dk = model.pair(d, k)
    assert (dd - dk) % 2 == 0
    return chi_O + (dd - dk) // 2


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
    """Coefficient of var^-1 of an EqScalar, by Fraction series expansion.

    The num/den must already be free of the other variables (specialize
    first); expansion inverts the denominator as a geometric series.
    """
    v = DEFAULT_REGISTRY.index(var)
    num = _poly_in_var(x.num, v)
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


# -- reference path for the gcd fast paths ---------------------------------

def generic_gcd(a, b):
    """Polynomial gcd through the content/primitive-part recursion alone,
    bypassing the single-term shortcut of ``dt4.poly.gcd`` at the top."""
    ca, pa = a.primitive()
    cb, pb = b.primitive()
    return _gcd_prim(pa, pb) * math.gcd(ca, cb)
