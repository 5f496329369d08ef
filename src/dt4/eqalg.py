"""Exact scalars and torus weight characters.

All equivariant quantities live in the fraction field of one integer
polynomial ring.  Its variables are fixed: the fiber-scaling parameter
``s``, the secondary parameter ``sp`` of residue integrals, and the two
toric chart parameters ``e1``, ``e2``, in that order.
:data:`DEFAULT_REGISTRY` is the ring's one object.

Every Atiyah-Bott denominator is a product of torus weights, which are
linear forms, so every scalar is a :class:`FactoredScalar`: a numerator
polynomial over a product of forms, times a rational number.  ``*`` adds
multiplicities, ``+`` lifts both numerators to the union of the forms,
``/`` turns a divisor's numerator into forms, and ``specialize`` maps
forms to affine ones.  None of them reduces: ``canonical()`` is the one
place that does, and it finds its gcd by trial division by each form.

A :class:`WeightCharacter` is a finite multiset of integer linear forms in
these variables; it models the character of a virtual torus
representation.  Euler classes and Chern class parts are read off from it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import Poly, binom, poly_str

NAMES = ("s", "sp", "e1", "e2")
NVARS = len(NAMES)
ONE = Fraction(1)
_UNITS = tuple(tuple(int(i == j) for j in range(NVARS)) for i in range(NVARS))
_CONSTANT = (0,) * NVARS


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
        return FactoredScalar(Poly.variable(NVARS, self._index[name]))

    def const(self, c):
        c = Fraction(c)
        return FactoredScalar(Poly.const(NVARS, c.numerator), {},
                              Fraction(1, c.denominator))

    def zero(self):
        return self.const(0)

    def one(self):
        return self.const(1)


DEFAULT_REGISTRY = Registry()


# -- forms -----------------------------------------------------------------

# A form is a tuple of the coefficients of s, sp, e1, e2, then the constant.

def _form_gcd(num, forms):
    """The gcd of ``num`` and ``prod(form ** mult)`` as a Poly.  Distinct
    forms are coprime irreducibles, so it is each form to the number of
    times it divides ``num``, at most ``mult``, found by trial division;
    ``forms`` is lowered in place to the multiplicities left over."""
    g = Poly.const(NVARS, 1)
    for p, m in forms.items():
        f = Poly.linear_form(p[:-1], p[-1])
        while m and (quo := f.divides(num)) is not None:
            num, m, g = quo, m - 1, g * f
        forms[p] = m
    return g


# canonical() calls the gcd by this name, which perfbench's tracer counts
# as poly.gcd
gcd = _form_gcd


def _primitive_form(w):
    """Split a nonzero weight vector or form as k * p with p primitive and
    its first nonzero entry (the graded-lex leading coefficient, whenever a
    variable has one) positive."""
    k = math.gcd(*w)
    if not k:
        raise NonGenericWeightError(
            "zero torus weight: Euler class is not invertible")
    if next(x for x in w if x) < 0:
        k = -k
    return k, tuple(x // k for x in w)


def _as_forms(num):
    """(forms, k) with num == k * prod(forms): for a nonzero constant, a
    single term (its variables are the forms) or a polynomial of degree
    one; any other numerator has no known factorisation into forms."""
    if len(num.terms) == 1:
        (e, k), = num.terms.items()
        return {u + (0,): m for u, m in zip(_UNITS, e) if m}, k
    if max(map(sum, num.terms)) == 1:
        k, p = _primitive_form(tuple(num.terms.get(u, 0) for u in _UNITS)
                               + (num.terms.get(_CONSTANT, 0),))
        return {p: 1}, k
    raise ValueError("division by a numerator that is not a product of "
                     "forms")


def _coerce(x):
    if isinstance(x, FactoredScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return DEFAULT_REGISTRY.const(x)
    return None


class FactoredScalar:
    """``scalar * num / prod(form ** mult)``: the one scalar type.

    ``num`` is a Poly and ``scalar`` a Fraction.  ``forms`` maps forms,
    primitive with positive leading coefficient, to positive
    multiplicities; it is never changed in place.  Distinct such
    forms are pairwise coprime irreducibles, so ``canonical`` reduces by
    trial division alone, and ``==``, hashing and printing read the
    canonical form.
    """

    __slots__ = ("num", "forms", "scalar", "_canon")

    def __init__(self, num, forms=None, scalar=ONE):
        self.num = num
        self.forms = forms or {}
        self.scalar = scalar
        self._canon = None

    @staticmethod
    def zero():
        return DEFAULT_REGISTRY.zero()

    # -- canonical form ----------------------------------------------------

    def canonical(self):
        """The canonical form: every form that divides the numerator is
        divided out, then the integer content.  Its scalar is 1/q with q a
        positive integer coprime to the numerator's content, so ``num``
        over ``den`` is the reduced fraction, with a positive leading
        coefficient in ``den``.  Zero is 0/1."""
        if self._canon is None:
            num, q, forms = self.num, self.scalar, dict(self.forms)
            if num.is_zero():
                q, forms = ONE, {}
            else:
                g = gcd(num, forms)
                num = num if g.is_one() else num.divexact(g)
                forms = {p: m for p, m in forms.items() if m}
                g = math.gcd(num.content(), q.denominator)
                num = num.divexact(g) * q.numerator
                q = Fraction(1, q.denominator // g)
            self._canon = FactoredScalar(num, forms, q)
            self._canon._canon = self._canon
        return self._canon

    @property
    def den(self):
        """The denominator polynomial: the scalar's denominator times the
        forms.  The value is ``scalar.numerator * num / den``."""
        den = Poly.const(NVARS, self.scalar.denominator)
        for p, m in self.forms.items():
            den = den * Poly.linear_form(p[:-1], p[-1]) ** m
        return den

    def is_zero(self):
        return self.num.is_zero()

    def key(self):
        x = self.canonical()
        return x.num.key(), tuple(sorted(x.forms.items())), x.scalar

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.key() == o.key()

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        x = self.canonical()
        ns = poly_str(x.num, NAMES)
        if not x.forms and x.scalar == 1:
            return ns
        return f"({ns})/({poly_str(x.den, NAMES)})"

    def __repr__(self):
        return f"FactoredScalar({self})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return factored_sum([self, o])

    __radd__ = __add__

    def __neg__(self):
        return FactoredScalar(-self.num, self.forms, self.scalar)

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        forms = dict(self.forms)
        for p, m in o.forms.items():
            forms[p] = forms.get(p, 0) + m
        return FactoredScalar(self.num * o.num, forms, self.scalar * o.scalar)

    __rmul__ = __mul__

    def inverse(self):
        """1/self; the canonical numerator must be a product of forms (see
        ``_as_forms``), and it becomes the denominator."""
        x = self.canonical()
        if x.is_zero():
            raise ZeroDivisionError("inverse of zero")
        forms, k = _as_forms(x.num)
        return FactoredScalar(x.den, forms, Fraction(1, k))

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** -k
        return FactoredScalar(self.num ** k,
                              {p: m * k for p, m in self.forms.items() if k},
                              self.scalar ** k)

    # -- evaluation --------------------------------------------------------

    def specialize(self, assign):
        """Substitute Fractions for named variables, staying exact.  Each
        form becomes an affine one, or a constant that joins the scalar."""
        x = self.canonical()
        idx = {DEFAULT_REGISTRY.index(n): Fraction(v)
               for n, v in assign.items()}
        num, d = x.num.substitute_scaled(idx)
        scalar, forms = x.scalar / d, {}
        for p, m in x.forms.items():
            const = p[NVARS] + sum(p[i] * v for i, v in idx.items())
            lin = [0 if i in idx else c for i, c in enumerate(p[:NVARS])]
            if not any(lin):
                if not const:
                    raise ZeroDivisionError(
                        "denominator vanishes under specialization")
                scalar /= Fraction(const) ** m
                continue
            dd = Fraction(const).denominator
            k, q = _primitive_form(tuple(c * dd for c in lin)
                                   + (int(const * dd),))
            scalar *= Fraction(dd, k) ** m
            forms[q] = forms.get(q, 0) + m
        return FactoredScalar(num, forms, scalar)

    def as_fraction(self):
        """Value as a Fraction; requires a constant."""
        x = self.canonical()
        if x.forms or not x.num.is_const():
            raise ValueError(f"not a constant: {x}")
        return x.num.const_value() * x.scalar


# perfbench's tracer counts the arithmetic of the one scalar type under
# this name
EqScalar = FactoredScalar


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
        k, p = _primitive_form(w + (0,))
        scalar *= Fraction(k) ** m
        mult[p] = mult.get(p, 0) + m
    if num is None:
        num = Poly.const(NVARS, 1)
    for p, m in mult.items():
        if m > 0:
            num = num * Poly.linear_form(p[:-1], p[-1]) ** m
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
    lin = {p: Poly.linear_form(p[:-1], p[-1]) for p in forms}
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
    pole = _UNITS[v] + (0,)
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
            rf = Poly.linear_form(r[:-1], r[-1])
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
    """Degree ``k`` part of the total Chern class of the character: a Poly.

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
    return coeffs[k]
