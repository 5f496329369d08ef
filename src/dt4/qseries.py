"""Truncated Laurent series in q^(1/2) with exact coefficients, and the
fiberwise rank-two K3 series built from them.

Exponents are stored as integer counts of half-units (q^(1/2) is exponent
1, q is exponent 2), so products and substitutions stay integral.  Every
series carries an exclusive truncation bound; arithmetic propagates it
pessimistically and coefficient access beyond it is an error rather than
a silent zero.

Coefficients may be int, Fraction, or FactoredScalar; builders produce ints and
scaling promotes as needed.  The K3 series (the non-nested count, its
closed form, and the conjectured nested series behind the paper's
modularity prediction) are products and substitutions of these series
scaled by exact scalars in s.
"""

from fractions import Fraction
from operator import index

from .eqalg import FactoredScalar, exact_str
from .poly import newton_recurrence


def _units(e):
    """Exponent (int, Fraction, or half-integer float-free) to half-units."""
    u = Fraction(e) * 2
    if u.denominator != 1:
        raise ValueError(f"exponent {e} is not a half-integer")
    return int(u)


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class HalfQSeries:
    """Laurent series in q^(1/2), truncated, with exact coefficients."""

    __slots__ = ("units", "min_units", "trunc_units")

    def __init__(self, units, min_units, trunc_units):
        self.units = {u: c for u, c in units.items() if not _is_zero(c)}
        self.min_units = min_units
        self.trunc_units = trunc_units
        for u in self.units:
            if not (min_units <= u < trunc_units):
                raise ValueError(f"exponent {Fraction(u, 2)} outside "
                                 f"[{self.min_exponent}, {self.truncation_order})")

    @property
    def min_exponent(self):
        return Fraction(self.min_units, 2)

    @property
    def truncation_order(self):
        """Exclusive upper bound on known exponents."""
        return Fraction(self.trunc_units, 2)

    @property
    def coefficients(self):
        return {Fraction(u, 2): c for u, c in sorted(self.units.items())}

    def coefficient(self, e):
        """Coefficient at exponent ``e``; known zeros are 0, beyond truncation errors."""
        u = _units(e)
        if u >= self.trunc_units:
            raise ValueError(f"coefficient at q^{e} is beyond the truncation "
                             f"order {self.truncation_order}")
        return self.units.get(u, 0)

    def __eq__(self, other):
        return (isinstance(other, HalfQSeries)
                and self.units == other.units
                and self.min_units == other.min_units
                and self.trunc_units == other.trunc_units)

    def matches(self, other, through=None):
        """Coefficient equality on the window both series know.

        ``through`` (an exponent) narrows the window; asking beyond the
        common truncation raises instead of passing silently.
        """
        common = min(self.trunc_units, other.trunc_units)
        if through is not None:
            t = _units(through)
            if t >= common:
                raise ValueError(f"comparison through q^{through} exceeds the "
                                 f"common truncation {Fraction(common, 2)}")
            common = t + 1
        for u in set(self.units) | set(other.units):
            if u < common and self.units.get(u, 0) != other.units.get(u, 0):
                return False
        return True

    def __repr__(self):
        parts = [f"q^{Fraction(u, 2)}: {c}" for u, c in sorted(self.units.items())]
        return (f"HalfQSeries({{{', '.join(parts)}}}, "
                f"trunc={self.truncation_order})")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        trunc = min(self.trunc_units, other.trunc_units)
        t = {u: c for u, c in self.units.items() if u < trunc}
        for u, c in other.units.items():
            if u < trunc:
                t[u] = t.get(u, 0) + c
        return HalfQSeries(t, min(self.min_units, other.min_units), trunc)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        trunc = min(self.trunc_units + other.min_units,
                    other.trunc_units + self.min_units)
        t = {}
        for u1, c1 in self.units.items():
            for u2, c2 in other.units.items():
                u = u1 + u2
                if u < trunc:
                    t[u] = t.get(u, 0) + c1 * c2
        return HalfQSeries(t, self.min_units + other.min_units, trunc)

    def scale(self, c):
        """Multiply every coefficient by a scalar (int, Fraction, FactoredScalar)."""
        return HalfQSeries({u: _norm_coeff(c * v) for u, v in self.units.items()},
                           self.min_units, self.trunc_units)

    def shift_exponent(self, delta):
        """Multiply by q^delta (delta a half-integer)."""
        d = _units(delta)
        return HalfQSeries({u + d: c for u, c in self.units.items()},
                           self.min_units + d, self.trunc_units + d)

    # -- serialization -----------------------------------------------------

    def to_json_entries(self):
        out = []
        for u, c in sorted(self.units.items()):
            e = Fraction(u, 2)
            out.append({"exponent_num": e.numerator, "exponent_den": e.denominator,
                        "coefficient": exact_str(c)})
        return out


def _is_zero(c):
    if isinstance(c, (int, Fraction)):
        return c == 0
    return c.is_zero()


# -- builders --------------------------------------------------------------

def product_power(exponent, order):
    """Truncated expansion of prod_{m>=1} (1 - q^m)^a for an integer a.

    ``order`` is the exclusive truncation bound (a half-integer).  The
    q^n coefficients f_n follow from log prod (1 - q^m)^a
    = -a sum_n sigma(n) q^n / n, sigma(n) the sum of the divisors of n,
    whose derivative gives the Newton recurrence (``poly.newton_recurrence``)

        n f_n = -a (sigma(1) f_{n-1} + sigma(2) f_{n-2} + ... + sigma(n) f_0).

    For integer a every f_n is an integer, so the arithmetic stays in
    integers.  N coefficients cost O(N^2) multiplications.

    >>> product_power(-1, 5).coefficient(4)
    5
    """
    a = index(exponent)
    trunc = _units(order)
    if trunc <= 0:
        raise ValueError("order must be positive")
    emax = (trunc - 1) // 2
    p = [0] * (emax + 1)               # p_k = -a sigma(k)
    for d in range(1, emax + 1):
        for k in range(d, emax + 1, d):
            p[k] -= a * d
    f = newton_recurrence(p)
    return HalfQSeries({2 * e: c for e, c in enumerate(f)}, 0, trunc)


def goettsche_series(euler_char, order):
    """prod (1 - q^m)^(-euler_char); the q^n coefficient is the Euler
    number of the Hilbert scheme of n points on a surface with that
    topological Euler characteristic."""
    return product_power(-euler_char, order)


def delta_inverse(order):
    """q^(-1) prod (1 - q^m)^(-24), known through q^order inclusive.

    >>> delta_inverse(2).coefficient(1)
    324
    """
    if 2 * Fraction(order) <= -2:
        raise ValueError("order must exceed -1")
    return product_power(-24, Fraction(order) + 2).shift_exponent(-1)


# -- substitutions ---------------------------------------------------------

def substitute_sqrt(series, sign):
    """q -> sign * q^(1/2); requires integer exponents only.

    A term c q^e maps to c * sign^e * q^(e/2).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    units = {}
    for u, c in series.units.items():
        if u % 2:
            raise ValueError("series has a half-integer exponent; "
                             "square-root substitution undefined")
        e = u // 2
        units[e] = c if (e % 2 == 0 or sign == 1) else -c
    new_min = -((-series.min_units) // 2)
    new_trunc = -((-series.trunc_units) // 2)
    return HalfQSeries(units, new_min, new_trunc)


def substitute_power(series, k):
    """q -> q^k for a positive integer k; exponents scale by k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return HalfQSeries({u * k: c for u, c in series.units.items()},
                       series.min_units * k, series.trunc_units * k)


# -- K3 partition-function series ------------------------------------------

# ``zseries --order 1000`` takes about 1.3 s in a fresh process (README)
MAX_K3_ORDER = 1000


def _k3_order(order):
    """``order`` as a Fraction.  Every K3 series starts at q^-2, so a
    window known through q^order must reach past it, and it may not pass
    MAX_K3_ORDER."""
    order = Fraction(order)
    if order <= -2:
        raise ValueError("order must exceed -2")
    if order > MAX_K3_ORDER:
        raise ValueError(f"order {order} exceeds the maximum {MAX_K3_ORDER}")
    return order


def typeI_DT_K3(n):
    """Fiberwise rank-two count of the non-nested locus on K3.

    Zero for n <= 1 (empty moduli); otherwise 1/s times the Euler number
    of the Hilbert scheme of 2n-3 points of a K3 surface.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 1:
        return FactoredScalar.const(0)
    return z_typeI_series(n - 2).coefficient(n - 2)


def z_typeI_series(order):
    """Series of non-nested counts typeI_DT_K3(n) at exponent n-2, known
    through q^order inclusive; every Euler number is read off one
    expansion of the Hilbert-scheme generating series."""
    trunc = int(2 * _k3_order(order)) + 2
    # every n with 2(n - 2) < trunc, in half-units
    nmax = (trunc - 1) // 2 + 2
    chi = goettsche_series(24, max(2 * nmax - 2, 1))
    s = FactoredScalar.var("s")
    units = {2 * (n - 2): FactoredScalar.const(chi.coefficient(2 * n - 3)) / s
             for n in range(2, nmax + 1)}
    return HalfQSeries(units, -4, trunc)


def z_typeI_closed_form(order):
    """Independent route to z_typeI_series: average the two square-root
    substitutions into the inverse discriminant form, scale by 1/s.

    Same truncation window as z_typeI_series(order).
    """
    inner = delta_inverse(max(int(2 * _k3_order(order)) + 1, 0))
    plus = substitute_sqrt(inner, 1)
    minus = substitute_sqrt(inner, -1)
    avg = (plus + minus).scale(Fraction(1, 2))
    return avg.scale(FactoredScalar.const(1) / FactoredScalar.var("s"))


def z_typeII_conjecture_series(order):
    """Conjectured nested series: 1/(4s) times the inverse discriminant
    form evaluated at q^2; known at least through q^order inclusive."""
    inner = delta_inverse(max(-(-_k3_order(order) // 2), 0))
    expanded = substitute_power(inner, 2)
    return expanded.scale(FactoredScalar.const(Fraction(1, 4))
                           / FactoredScalar.var("s"))
