"""Exact rational functions and torus weight characters.

All equivariant quantities live in the fraction field of one integer
polynomial ring.  Its variables are fixed: the fiber-scaling parameter
``s``, the secondary parameter ``sp`` of residue integrals, and the two
toric chart parameters ``e1``, ``e2``, in that order.
:data:`DEFAULT_REGISTRY` is the ring's one object.

A :class:`WeightCharacter` is a finite multiset of integer linear forms in
these variables; it models the character of a virtual torus
representation.  Euler classes and Chern class parts are read off from it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .poly import Poly, binom, gcd, poly_str

NAMES = ("s", "sp", "e1", "e2")
NVARS = len(NAMES)


class NonGenericWeightError(ValueError):
    """A zero torus weight occurred where an invertible Euler class is needed."""


class Registry:
    """The ring's variables, in the fixed order of :data:`NAMES`."""

    __slots__ = ("names", "_index")

    def __init__(self):
        self.names = NAMES
        self._index = {n: i for i, n in enumerate(NAMES)}

    @property
    def nvars(self):
        return NVARS

    def index(self, name):
        return self._index[name]

    def var(self, name):
        return EqScalar(Poly.variable(NVARS, self._index[name]))

    def const(self, c):
        if isinstance(c, Fraction):
            return EqScalar(c.numerator, c.denominator)
        return EqScalar(c)

    def zero(self):
        return self.const(0)

    def one(self):
        return self.const(1)


DEFAULT_REGISTRY = Registry()


class EqScalar:
    """Element of the rational function field of the ring.

    Stored in canonical form: numerator and denominator coprime over the
    integers and the denominator with positive graded-lex leading
    coefficient.  Zero is ``0/1``.  Arithmetic keeps that form without a
    final reduction: ``*`` cancels the two cross gcds, ``+`` cancels
    gcd(sum, gcd of denominators) (Henrici), and leading coefficients of
    products are products of leading coefficients.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        if isinstance(num, int):
            num = Poly.const(NVARS, num)
        if den is None:
            den = Poly.const(NVARS, 1)
        elif isinstance(den, int):
            den = Poly.const(NVARS, den)
        if not _canonical:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    # -- canonical form ----------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def key(self):
        return (self.num.key(), self.den.key())

    def __eq__(self, other):
        if not isinstance(other, EqScalar):
            if isinstance(other, (int, Fraction)):
                other = DEFAULT_REGISTRY.const(other)
            else:
                return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        ns = poly_str(self.num, NAMES)
        if self.den.is_one():
            return ns
        return f"({ns})/({poly_str(self.den, NAMES)})"

    def __repr__(self):
        return f"EqScalar({self})"

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, EqScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return DEFAULT_REGISTRY.const(other)
        if isinstance(other, Poly):
            return EqScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        if b == d:
            g, t, den = b, a + c, Poly.const(NVARS, 1)
        else:
            g = gcd(b, d)
            b0 = b.divexact(g)
            d0 = d.divexact(g)
            t, den = a * d0 + c * b0, b0 * d0
        if t.is_zero():
            return DEFAULT_REGISTRY.zero()
        if not g.is_one():
            # Henrici: gcd(t, b0*d0*g) == gcd(t, g), so one gcd makes the
            # sum canonical
            h = gcd(t, g)
            if not h.is_one():
                t = t.divexact(h)
                g = g.divexact(h)
        return EqScalar(t, den * g, _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return EqScalar(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        if a.is_zero() or c.is_zero():
            return DEFAULT_REGISTRY.zero()
        g1 = gcd(a, d)
        g2 = gcd(c, b)
        if not g1.is_one():
            a = a.divexact(g1)
            d = d.divexact(g1)
        if not g2.is_one():
            c = c.divexact(g2)
            b = b.divexact(g2)
        # a*c and b*d are now coprime, and b*d keeps a positive leading
        # coefficient (leading terms multiply under a monomial order)
        return EqScalar(a * c, b * d, _canonical=True)

    __rmul__ = __mul__

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.num.lead()[1] < 0:
            return EqScalar(-self.den, -self.num, _canonical=True)
        return EqScalar(self.den, self.num, _canonical=True)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        r = DEFAULT_REGISTRY.one()
        b = self
        while k:
            if k & 1:
                r = r * b
            k >>= 1
            if k:
                b = b * b
        return r

    # -- evaluation --------------------------------------------------------

    def specialize(self, assign):
        """Substitute Fractions for named variables, staying exact."""
        idx = {DEFAULT_REGISTRY.index(n): Fraction(v)
               for n, v in assign.items()}
        pn, dn = self.num.substitute_scaled(idx)
        pd, dd = self.den.substitute_scaled(idx)
        if pd.is_zero():
            raise ZeroDivisionError("denominator vanishes under specialization")
        return EqScalar(pn * dd, pd * dn)

    def as_fraction(self):
        """Value as a Fraction; requires a constant rational function."""
        if not (self.num.is_const() and self.den.is_const()):
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.num.const_value(), self.den.const_value())


def _reduce(num, den):
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return num, Poly.const(num.nvars, 1)
    g = gcd(num, den)
    if not g.is_one():
        num = num.divexact(g)
        den = den.divexact(g)
    _, lc = den.lead()
    if lc < 0:
        num = -num
        den = -den
    return num, den


# -- weight characters -----------------------------------------------------

class WeightCharacter:
    """Finite multiset of integer weight vectors with integer multiplicity.

    Vectors are coefficient tuples over the ring's variables.  Addition
    and subtraction are of virtual representations; ``mul`` is the tensor
    product (weights add, multiplicities multiply).
    """

    __slots__ = ("weights",)

    def __init__(self, weights=None):
        self.weights = {}
        if weights:
            for w, m in (weights.items() if isinstance(weights, dict) else weights):
                if m:
                    w = tuple(w)
                    n = self.weights.get(w, 0) + m
                    if n:
                        self.weights[w] = n
                    else:
                        del self.weights[w]

    def items(self):
        return self.weights.items()

    def rank(self):
        return sum(self.weights.values())

    def is_zero(self):
        return not self.weights

    def __eq__(self, other):
        return (isinstance(other, WeightCharacter)
                and self.weights == other.weights)

    def __repr__(self):
        items = sorted(self.weights.items())
        return f"WeightCharacter({items!r})"

    def __add__(self, other):
        t = dict(self.weights)
        for w, m in other.weights.items():
            n = t.get(w, 0) + m
            if n:
                t[w] = n
            else:
                del t[w]
        out = WeightCharacter()
        out.weights = t
        return out

    def __neg__(self):
        out = WeightCharacter()
        out.weights = {w: -m for w, m in self.weights.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            out = WeightCharacter()
            if other:
                out.weights = {w: m * other for w, m in self.weights.items()}
            return out
        t = {}
        for w1, m1 in self.weights.items():
            for w2, m2 in other.weights.items():
                w = tuple(a + b for a, b in zip(w1, w2))
                n = t.get(w, 0) + m1 * m2
                if n:
                    t[w] = n
                else:
                    del t[w]
        out = WeightCharacter()
        out.weights = t
        return out

    __rmul__ = __mul__

    def shift(self, vec):
        """Tensor with the one dimensional representation of weight ``vec``."""
        vec = tuple(vec)
        out = WeightCharacter()
        out.weights = {tuple(a + b for a, b in zip(w, vec)): m
                       for w, m in self.weights.items()}
        return out

    def conjugate(self):
        """Dual representation: all weights negated."""
        out = WeightCharacter()
        out.weights = {tuple(-a for a in w): m for w, m in self.weights.items()}
        return out


def _primitive_form(w):
    """Split a nonzero weight vector as k * p with p primitive and its
    first nonzero entry (the graded-lex leading coefficient) positive."""
    k = math.gcd(*w)
    if not k:
        raise NonGenericWeightError(
            "zero torus weight: Euler class is not invertible")
    if next(x for x in w if x) < 0:
        k = -k
    return k, tuple(x // k for x in w)


class FactoredScalar(NamedTuple):
    """``scalar * num / prod(form ** mult)`` over distinct linear forms.

    ``forms`` maps primitive weight vectors with positive leading entry to
    positive multiplicities.  Distinct such forms are pairwise coprime
    irreducibles, so trial division by each form replaces the gcd when the
    value is put in canonical form.
    """
    num: Poly
    forms: dict
    scalar: Fraction

    @classmethod
    def zero(cls):
        return cls(Poly.zero(NVARS), {}, Fraction(1))

    def canonical(self):
        """The canonical EqScalar: trial division by each form, then the
        integer content; the denominator's sign is already positive."""
        num, q = self.num, self.scalar
        if num.is_zero():
            return DEFAULT_REGISTRY.zero()
        den = Poly.const(NVARS, q.denominator)
        for p, m in self.forms.items():
            f = Poly.linear_form(p)
            while m:
                quo = f.divides(num)
                if quo is None:
                    break
                num, m = quo, m - 1
            den = den * f ** m
        g = math.gcd(num.content(), q.denominator)
        return EqScalar(num.divexact(g) * q.numerator, den.divexact(g),
                        _canonical=True)


def euler_of_character(char, num=None):
    """``num`` (default 1) times the equivariant Euler class of the
    character: product of weight forms to their multiplicities, factored.

    Multiplicities cancel per primitive form before any product.  A zero
    weight with nonzero multiplicity has no invertible Euler class and
    raises :class:`NonGenericWeightError`.
    """
    mult = {}
    scalar = Fraction(1)
    for w, m in char.items():
        k, p = _primitive_form(w)
        scalar *= Fraction(k) ** m
        mult[p] = mult.get(p, 0) + m
    if num is None:
        num = Poly.const(NVARS, 1)
    for p, m in mult.items():
        if m > 0:
            num = num * Poly.linear_form(p) ** m
    return FactoredScalar(num, {p: -m for p, m in mult.items() if m < 0},
                          scalar)


def factored_sum(terms):
    """Sum of FactoredScalars over one least common denominator (the
    largest multiplicity of each form): one numerator sum, no reduction."""
    terms = [t for t in terms if not t.num.is_zero()]
    forms, lcd = {}, 1
    for t in terms:
        for p, m in t.forms.items():
            forms[p] = max(forms.get(p, 0), m)
        lcd = math.lcm(lcd, t.scalar.denominator)
    lin = {p: Poly.linear_form(p) for p in forms}
    acc = {}
    for t in terms:
        x = t.num * (t.scalar.numerator * (lcd // t.scalar.denominator))
        for p, m in forms.items():
            k = m - t.forms.get(p, 0)
            if k:
                x = x * lin[p] ** k
        for e, c in x.terms.items():
            acc[e] = acc.get(e, 0) + c
    return FactoredScalar(Poly(NVARS, acc), forms, Fraction(1, lcd))


def residue(x, var):
    """Coefficient of ``var``^(-1) of the FactoredScalar ``x`` around 0.

    The multiplicity p of the form ``var`` is the pole order.  Each mixed
    form c var + r (r != 0) to the power m is expanded as
    r^-m (1 + c var / r)^-m through order p - 1, over the denominator
    r^(m + p - 1), with r split into an integer and a primitive form;
    forms free of ``var`` pass through.  The result is a FactoredScalar
    and no gcd runs.
    """
    v = DEFAULT_REGISTRY.index(var)
    pole = tuple(int(i == v) for i in range(NVARS))
    order = x.forms.get(pole, 0) - 1
    if order < 0:
        return FactoredScalar.zero()
    # coefficients of var^0 .. var^order, each free of var
    parts = x.num.by_var(v)
    series = [parts.get(d, Poly.zero(NVARS)) for d in range(order + 1)]
    forms, scalar = {}, x.scalar
    for w, m in x.forms.items():
        if not w[v]:
            forms[w] = forms.get(w, 0) + m
        elif w != pole:
            c, r = w[v], w[:v] + (0,) + w[v + 1:]
            k, p = _primitive_form(r)
            forms[p] = forms.get(p, 0) + m + order
            scalar /= Fraction(k) ** (m + order)
            rf = Poly.linear_form(r)
            series = _truncated_product(series, [
                rf ** (order - j) * (binom(-m, j) * c ** j)
                for j in range(order + 1)])
    return FactoredScalar(series[order], forms, scalar)


def _truncated_product(a, b):
    """Product of two power series, given as coefficient lists of one
    length, truncated to that length."""
    zero = Poly.zero(a[0].nvars)
    return [sum((a[i - j] * b[j] for j in range(i + 1)
                 if not a[i - j].is_zero() and not b[j].is_zero()), zero)
            for i in range(len(a))]


def chern_part(char, k):
    """Degree ``k`` part of the total Chern class of the character.

    The total class is the product over weights w of (1 + w)^mult, with
    negative multiplicities expanded as formal power series.  Zero weights
    are legal and contribute nothing.
    """
    coeffs = [Poly.const(NVARS, 1)] + [Poly.zero(NVARS)] * k
    for w, m in char.weights.items():
        if any(w):
            lf = Poly.linear_form(w)
            coeffs = _truncated_product(
                coeffs, [lf ** j * binom(m, j) for j in range(k + 1)])
    return EqScalar(coeffs[k], _canonical=True)
