"""Exact multivariate polynomials over the integers.

A polynomial is stored as a map from exponent tuples to nonzero integer
coefficients.  Monomials are ordered graded-lex (total degree first, ties
broken lexicographically on the exponent tuple); that order fixes leading
terms, canonical signs and printing everywhere else in the package.

There is no polynomial gcd.  Every denominator dt4 builds is a product of
linear (or, after specialisation, affine) forms, so exact division by one
form (``divides``) and the integer ``content`` are all that reducing a
fraction needs (see ``eqalg.FactoredScalar.canonical``).
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from operator import add, sub


def grlex_key(exps):
    """Sort key realizing the graded-lex order on exponent tuples."""
    return (sum(exps), exps)


def binom(m, j):
    """Binomial coefficient C(m, j) for any integer m and j >= 0."""
    if m >= 0:
        return math.comb(m, j) if j <= m else 0
    return (-1) ** j * math.comb(-m + j - 1, j)


def _desc(exps):
    """Min-heap entry that pops exponent tuples in descending grlex order."""
    return (-sum(exps), tuple(-x for x in exps), exps)


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        c = int(c)
        return cls(nvars, {(0,) * nvars: c} if c else None)

    @classmethod
    def variable(cls, nvars, idx):
        e = [0] * nvars
        e[idx] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def linear_form(cls, coeffs, const=0):
        """Polynomial sum(coeffs[i] * x_i) + const."""
        n = len(coeffs)
        units = (tuple(int(i == j) for j in range(n)) for i in range(n))
        return cls(n, {**dict(zip(units, coeffs)), (0,) * n: const})

    # -- predicates and views ----------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and (0,) * self.nvars in self.terms)

    def const_value(self):
        if not self.is_const():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, 0)

    def is_one(self):
        return self.terms == {(0,) * self.nvars: 1}

    def lead(self):
        """Leading (exponent, coefficient) in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def key(self):
        """Hashable canonical identity of the polynomial."""
        return (self.nvars, tuple(sorted(self.terms.items())))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Poly({self.nvars}, {self.terms!r})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.const(self.nvars, other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            n = t.get(e, 0) + c
            if n:
                t[e] = n
            else:
                t.pop(e, None)
        return Poly(self.nvars, t)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return Poly(self.nvars)
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        t = {}
        right = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                n = t.get(e, 0) + c1 * c2
                if n:
                    t[e] = n
                else:
                    t.pop(e, None)
        return Poly(self.nvars, t)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- content and exact division ----------------------------------------

    def content(self):
        """gcd of the integer coefficients (nonnegative)."""
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
            if g == 1:
                return 1
        return g

    def divexact(self, other):
        """Exact division; raises ValueError when not divisible."""
        if isinstance(other, int):
            other = Poly.const(self.nvars, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.is_const():
            d = other.const_value()
            q = {}
            for e, c in self.terms.items():
                if c % d:
                    raise ValueError("inexact polynomial division")
                q[e] = c // d
            return Poly(self.nvars, q)
        oe, oc = other.lead()
        rest = [(e, c) for e, c in other.terms.items() if e != oe]
        r = dict(self.terms)
        # remainder terms in a heap, largest graded-lex first; new terms
        # always sort below the one being cancelled
        heap = [_desc(e) for e in r]
        heapq.heapify(heap)
        q = {}
        while heap:
            e = heapq.heappop(heap)[2]
            c = r.pop(e, 0)
            if not c:
                continue
            de = tuple(map(sub, e, oe))
            if min(de) < 0 or c % oc:
                raise ValueError("inexact polynomial division")
            qc = c // oc
            q[de] = qc
            for e2, c2 in rest:
                ne = tuple(map(add, de, e2))
                nc = r.get(ne, 0) - qc * c2
                if ne not in r:
                    heapq.heappush(heap, _desc(ne))
                if nc:
                    r[ne] = nc
                else:
                    r.pop(ne, None)
        return Poly(self.nvars, q)

    def divides(self, other):
        """Return other/self when the division is exact, else None."""
        try:
            return other.divexact(self)
        except (ValueError, ZeroDivisionError):
            return None

    # -- univariate views --------------------------------------------------

    def by_var(self, v):
        """Coefficients as a map v-degree -> Poly (with the v slot zeroed)."""
        out = {}
        for e, c in self.terms.items():
            d = e[v]
            e0 = e[:v] + (0,) + e[v + 1:]
            sub = out.setdefault(d, {})
            sub[e0] = sub.get(e0, 0) + c
        return {d: Poly(self.nvars, t) for d, t in out.items() if any(t.values())}

    # -- evaluation --------------------------------------------------------

    def substitute_scaled(self, assign):
        """Substitute Fractions for the variables in ``assign`` (index->value).

        Returns (P, d): the substituted polynomial with integer coefficients
        after clearing denominators, so that self == P / d on the assignment.
        """
        acc = {}
        for e, c in self.terms.items():
            val = Fraction(c)
            e2 = list(e)
            for v, x in assign.items():
                if e[v]:
                    val *= Fraction(x) ** e[v]
                    e2[v] = 0
            k = tuple(e2)
            acc[k] = acc.get(k, Fraction(0)) + val
        acc = {e: v for e, v in acc.items() if v}
        den = 1
        for v in acc.values():
            den = den * v.denominator // math.gcd(den, v.denominator)
        terms = {e: int(v * den) for e, v in acc.items()}
        return Poly(self.nvars, terms), den

    def evaluate(self, assign):
        """Full evaluation to a Fraction (every support variable assigned)."""
        p, d = self.substitute_scaled(assign)
        return Fraction(p.const_value(), d)


def poly_str(p, names):
    """Render in graded-lex descending order with explicit * and ^."""
    if p.is_zero():
        return "0"
    parts = []
    for e, c in sorted(p.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True):
        mono = []
        for i, k in enumerate(e):
            if k:
                mono.append(names[i] if k == 1 else f"{names[i]}^{k}")
        ac = abs(c)
        if not mono:
            body = str(ac)
        elif ac == 1:
            body = "*".join(mono)
        else:
            body = "*".join([str(ac)] + mono)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)
