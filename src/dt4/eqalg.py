"""Exact scalars, and the Euler and Chern classes of torus characters.

All equivariant quantities live in the fraction field of one integer
polynomial ring, whose variables ``s``, ``sp``, ``e1``, ``e2`` are fixed
in ``poly`` (``poly.NAMES``).  ``FactoredScalar.var(name)`` and
``FactoredScalar.const(c)`` name its scalars.

Every Atiyah-Bott denominator is a product of torus weights, which are
linear forms, so every scalar is a :class:`FactoredScalar`: a numerator
polynomial over a product of forms, times a rational number.  ``*`` adds
multiplicities, ``+`` lifts both numerators to the union of the forms,
``/`` turns a divisor's numerator into forms, and ``specialize`` maps
forms to affine ones.  None of them reduces: ``canonical()`` is the one
place that does, and it finds its gcd by trial division by each form.

A character of a virtual torus representation is a Laurent ``Poly`` (see
``poly``): its exponent tuples are its weights, integer linear forms in
the variables s, sp, e1, e2, and its coefficients their multiplicities.
Euler classes and Chern class parts are read off from its ``terms``.
"""

import math
from fractions import Fraction

from .poly import CONSTANT, NAMES, UNITS, Poly, binom, poly_str

ONE = Fraction(1)


class NonGenericWeightError(ValueError):
    """A zero torus weight occurred where an invertible Euler class is needed."""


# -- forms -----------------------------------------------------------------

# A form is a tuple of the coefficients of s, sp, e1, e2, then the constant.

def _form_gcd(num, forms):
    """The gcd of ``num`` and ``prod(form ** mult)`` as a Poly.  Distinct
    forms are coprime irreducibles, so it is each form to the number of
    times it divides ``num``, at most ``mult``, found by trial division;
    ``forms`` is lowered in place to the multiplicities left over."""
    g = Poly.const(1)
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
        return {u + (0,): m for u, m in zip(UNITS, e) if m}, k
    if max(map(sum, num.terms)) == 1:
        k, p = _primitive_form(tuple(num.terms.get(u, 0) for u in UNITS)
                               + (num.terms.get(CONSTANT, 0),))
        return {p: 1}, k
    raise ValueError("division by a numerator that is not a product of "
                     "forms")


def _coerce(x):
    if isinstance(x, FactoredScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return FactoredScalar.const(x)
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

    @classmethod
    def var(cls, name):
        """The variable ``name`` of :data:`NAMES`."""
        return cls(Poly.variable(NAMES.index(name)))

    @classmethod
    def const(cls, c):
        """The constant ``c``, an int or a Fraction."""
        c = Fraction(c)
        return cls(Poly.const(c.numerator), {}, Fraction(1, c.denominator))

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
                # gcd lowers forms in place; divide by what it took away
                gcd(num, forms)
                for p, m in forms.items():
                    for _ in range(self.forms[p] - m):
                        num = num.divexact(Poly.linear_form(p[:-1], p[-1]))
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
        den = Poly.const(self.scalar.denominator)
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
        ns = poly_str(x.num)
        if not x.forms and x.scalar == 1:
            return ns
        return f"({ns})/({poly_str(x.den)})"

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
        idx = {NAMES.index(n): Fraction(v) for n, v in assign.items()}
        num, d = x.num.substitute_scaled(idx)
        scalar, forms = x.scalar / d, {}
        for p, m in x.forms.items():
            const = p[-1] + sum(p[i] * v for i, v in idx.items())
            lin = [0 if i in idx else c for i, c in enumerate(p[:-1])]
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


def exact_str(x):
    """An exact value as dt4 prints it: an int or a Fraction as ``n`` or
    ``(n)/(d)``, which is how a constant FactoredScalar prints, and a
    FactoredScalar as itself."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"({x.numerator})/({x.denominator})"
    return str(x)


def euler_of_character(char):
    """The equivariant Euler class of the character: product of weight
    forms to their multiplicities, factored.

    Multiplicities cancel per primitive form before any product.  A zero
    weight with nonzero multiplicity has no invertible Euler class and
    raises :class:`NonGenericWeightError`.
    """
    mult = {}
    scalar = Fraction(1)
    for w, m in char.terms.items():
        k, p = _primitive_form(w + (0,))
        scalar *= Fraction(k) ** m
        mult[p] = mult.get(p, 0) + m
    num = Poly.const(1)
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
    return FactoredScalar(Poly(acc), forms, Fraction(1, lcd))


def residue(x, var):
    """Coefficient of ``var``^(-1) of the FactoredScalar ``x`` around 0.

    The multiplicity p of the form ``var`` is the pole order.  Each mixed
    form c var + r (r != 0) to the power m is expanded as
    r^-m (1 + c var / r)^-m through order p - 1, over the denominator
    r^(m + p - 1), with r split into an integer and a primitive form;
    forms free of ``var`` pass through.  The result is a FactoredScalar
    and no gcd runs.
    """
    v = NAMES.index(var)
    pole = UNITS[v] + (0,)
    order = x.forms.get(pole, 0) - 1
    if order < 0:
        return FactoredScalar.const(0)
    # coefficients of var^0 .. var^order, each free of var
    parts = x.num.by_var(v)
    series = [parts.get(d, Poly()) for d in range(order + 1)]
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
    return [sum((a[i - j] * b[j] for j in range(i + 1)
                 if not a[i - j].is_zero() and not b[j].is_zero()), Poly())
            for i in range(len(a))]


def chern_part(char, k):
    """Degree ``k`` part of the total Chern class of the character: a Poly.

    The total class is the product over weights w of (1 + w)^mult, with
    negative multiplicities expanded as formal power series.  Zero weights
    are legal and contribute nothing.
    """
    coeffs = [Poly.const(1)] + [Poly()] * k
    for w, m in char.terms.items():
        if any(w):
            lf = Poly.linear_form(w)
            coeffs = _truncated_product(
                coeffs, [lf ** j * binom(m, j) for j in range(k + 1)])
    return coeffs[k]
