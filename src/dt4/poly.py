"""Exact polynomials over the integers in the ring's four variables.

The variables are fixed: the fiber-scaling parameter ``s``, the secondary
parameter ``sp`` of residue integrals, and the two toric chart parameters
``e1``, ``e2``, in that order (:data:`NAMES`).  This module is their one
home.  A polynomial is stored as a map from exponent tuples to nonzero
integer coefficients.  Monomials are ordered graded-lex (total degree
first, ties broken lexicographically on the exponent tuple); that order
fixes leading terms, canonical signs and printing everywhere else in the
package.

A torus character is a Laurent polynomial of the same kind: its exponent
tuples are its weights, possibly negative, in the slots s, sp, e1, e2 (or
e1, e2 at one chart), and its coefficients their multiplicities.  ``+``,
``-``, ``*``, ``from_pairs``, ``dual``, ``shift`` and ``is_zero`` apply to
it, and its rank is ``sum(x.terms.values())``; ordering, division and
printing are for polynomials.

There is no polynomial gcd.  Every denominator dt4 builds is a product of
linear (or, after specialisation, affine) forms, so exact division by one
form (``divides``) and the integer ``content`` are all that reducing a
fraction needs (see ``eqalg.FactoredScalar.canonical``).  ``divexact``
divides by an int or by one polynomial of degree at most one, and by
nothing else: a divisor of higher degree is a TypeError.
"""

import math
from fractions import Fraction
from operator import add, mul

NAMES = ("s", "sp", "e1", "e2")
NVARS = len(NAMES)
# the exponent tuple of each variable, and of the constant monomial
UNITS = tuple(tuple(int(i == j) for j in range(NVARS)) for i in range(NVARS))
CONSTANT = (0,) * NVARS


def grlex_key(exps):
    """Sort key realizing the graded-lex order on exponent tuples."""
    return (sum(exps), exps)


def binom(m, j):
    """Binomial coefficient C(m, j) for any integer m and j >= 0."""
    if m >= 0:
        return math.comb(m, j) if j <= m else 0
    return (-1) ** j * math.comb(-m + j - 1, j)


def newton_recurrence(p):
    """The integers e_0 .. e_k with e_0 = 1 and

        j e_j = p_1 e_(j-1) + p_2 e_(j-2) + ... + p_j e_0

    for integers p_1 .. p_k (``p[0]`` is unused): the coefficients of
    exp(sum_i p_i x^i / i), Newton's identities with the signs in p.
    Every caller expands a product of integer powers of integer
    polynomials, whose coefficients are integers, so each division by j
    is exact.  k coefficients cost O(k^2) multiplications.
    """
    e = [1] + [0] * (len(p) - 1)
    for j in range(1, len(p)):
        e[j] = sum(map(mul, p[1:j + 1], e[j - 1::-1])) // j
    return e


def product_power_coefficients(a, order):
    """The q^0 .. q^(order-1) coefficients f_n of prod_{m>=1} (1 - q^m)^a
    for an integer a.  They follow from log prod (1 - q^m)^a =
    -a sum_n sigma(n) q^n / n, sigma(n) the sum of the divisors of n,
    whose derivative gives the Newton recurrence (``newton_recurrence``)

        n f_n = -a (sigma(1) f_{n-1} + sigma(2) f_{n-2} + ... + sigma(n) f_0),

    in integers.  N coefficients cost O(N^2) multiplications.
    """
    p = [0] * order                    # p_k = -a sigma(k)
    for d in range(1, order):
        for k in range(d, order, d):
            p[k] -= a * d
    return newton_recurrence(p)


class Poly:
    """``Poly()`` is zero."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {e: c for e, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, terms):
        """The Poly over ``terms``, which must hold no zero coefficient."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def from_pairs(cls, pairs):
        """Sum of (exponent, coefficient) pairs; repeats add, zeros drop."""
        t = {}
        for e, c in pairs:
            n = t.get(e, 0) + c
            if n:
                t[e] = n
            else:
                t.pop(e, None)
        return cls._of(t)

    @classmethod
    def const(cls, c):
        return cls({CONSTANT: int(c)})

    @classmethod
    def variable(cls, idx):
        return cls({UNITS[idx]: 1})

    @classmethod
    def linear_form(cls, coeffs, const=0):
        """Polynomial sum(coeffs[i] * x_i) + const."""
        return cls({**dict(zip(UNITS, coeffs)), CONSTANT: const})

    # -- predicates and views ----------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and CONSTANT in self.terms)

    def const_value(self):
        if not self.is_const():
            raise ValueError("polynomial is not constant")
        return self.terms.get(CONSTANT, 0)

    def is_one(self):
        return self.terms == {CONSTANT: 1}

    def key(self):
        """Hashable canonical identity of the polynomial."""
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Poly({self.terms!r})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.const(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            n = t.get(e, 0) + c
            if n:
                t[e] = n
            else:
                t.pop(e, None)
        return Poly._of(t)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly({e: c * other for e, c in self.terms.items()})
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
        return Poly._of(t)

    __rmul__ = __mul__

    def dual(self):
        """The dual character: every exponent negated."""
        return Poly._of({tuple(-x for x in e): c for e, c in self.terms.items()})

    def shift(self, v):
        """The product with the monomial of exponent ``v``."""
        return Poly._of({tuple(map(add, e, v)): c for e, c in self.terms.items()})

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1)
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
        """Exact division by an int or by a polynomial of degree at most
        one; raises ValueError when not divisible, TypeError for a divisor
        of higher degree."""
        if isinstance(other, int):
            other = Poly.const(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.is_const():
            d = other.const_value()
            q = {}
            for e, c in self.terms.items():
                if c % d:
                    raise ValueError("inexact polynomial division")
                q[e] = c // d
            return Poly._of(q)
        if any(e != CONSTANT and e not in UNITS for e in other.terms):
            raise TypeError("division by a polynomial of degree above one")
        # other = a x + b with b free of x.  With self = sum N_d x^d, the
        # quotient's coefficients follow from the top x-degree down,
        # q_(d-1) = (N_d - b q_d) / a, and N_lo - b q_lo must vanish.
        x = next(u for u in UNITS if u in other.terms)
        a, v = other.terms[x], UNITS.index(x)
        b = Poly._of({e: c for e, c in other.terms.items() if e != x})
        parts = self.by_var(v)
        lo, q, qd = min([0, *parts]), {}, Poly()
        for d in range(max(parts, default=0), lo, -1):
            qd = (parts.get(d, Poly()) - b * qd).divexact(a)
            q.update((e[:v] + (d - 1,) + e[v + 1:], c)
                     for e, c in qd.terms.items())
        if not (parts.get(lo, Poly()) - b * qd).is_zero():
            raise ValueError("inexact polynomial division")
        return Poly._of(q)

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
        return {d: Poly(t) for d, t in out.items() if any(t.values())}

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
        return Poly(terms), den


def poly_str(p):
    """Render in the variables :data:`NAMES`, in graded-lex descending
    order with explicit * and ^."""
    if p.is_zero():
        return "0"
    parts = []
    for e, c in sorted(p.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True):
        mono = []
        for i, k in enumerate(e):
            if k:
                mono.append(NAMES[i] if k == 1 else f"{NAMES[i]}^{k}")
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
