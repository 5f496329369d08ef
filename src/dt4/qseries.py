"""Truncated Laurent series in q with exact coefficients, and the
fiberwise rank-two K3 series built from them.

Exponents are ints.  A series is its coefficients below one exclusive
truncation order; arithmetic propagates the order pessimistically and
coefficient access at or beyond it is an error rather than a silent zero.

Coefficients may be int, Fraction, or FactoredScalar; builders produce ints and
scaling promotes as needed.  The K3 series (the non-nested count, its
closed form, and the conjectured nested series behind the paper's
modularity prediction) are product formulas and substitutions of these
series scaled by exact scalars in s.
"""

from fractions import Fraction
from operator import index

from .eqalg import FactoredScalar, exact_str
from .poly import product_power_coefficients


class QSeries:
    """Laurent series in q, truncated, with exact coefficients: ``units``
    maps int exponents below ``truncation_order`` to nonzero
    coefficients."""

    __slots__ = ("units", "truncation_order")

    def __init__(self, units, truncation_order):
        self.units = {e: c for e, c in units.items() if not _is_zero(c)}
        self.truncation_order = truncation_order
        for e in self.units:
            if e >= truncation_order:
                raise ValueError(f"exponent {e} outside the window below "
                                 f"{truncation_order}")

    def coefficient(self, e):
        """Coefficient at exponent ``e``; known zeros are 0, beyond truncation errors."""
        e = index(e)
        if e >= self.truncation_order:
            raise ValueError(f"coefficient at q^{e} is beyond the truncation "
                             f"order {self.truncation_order}")
        return self.units.get(e, 0)

    def __eq__(self, other):
        return (isinstance(other, QSeries)
                and self.units == other.units
                and self.truncation_order == other.truncation_order)

    def __repr__(self):
        parts = [f"q^{e}: {c}" for e, c in sorted(self.units.items())]
        return (f"QSeries({{{', '.join(parts)}}}, "
                f"trunc={self.truncation_order})")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        trunc = min(self.truncation_order, other.truncation_order)
        t = {e: c for e, c in self.units.items() if e < trunc}
        for e, c in other.units.items():
            if e < trunc:
                t[e] = t.get(e, 0) + c
        return QSeries(t, trunc)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        """Multiply every coefficient by a scalar (int, Fraction, FactoredScalar)."""
        return QSeries({e: c * v for e, v in self.units.items()},
                       self.truncation_order)

    def shift_exponent(self, delta):
        """Multiply by q^delta."""
        d = index(delta)
        return QSeries({e + d: c for e, c in self.units.items()},
                       self.truncation_order + d)

    # -- serialization -----------------------------------------------------

    def to_json_entries(self):
        # the report format spells an exponent as a fraction num/den
        return [{"exponent_num": e, "exponent_den": 1,
                 "coefficient": exact_str(c)}
                for e, c in sorted(self.units.items())]


def _is_zero(c):
    if isinstance(c, (int, Fraction)):
        return c == 0
    return c.is_zero()


# -- builders --------------------------------------------------------------

def product_power(exponent, order):
    """Truncated expansion of prod_{m>=1} (1 - q^m)^a for an integer a;
    ``order`` is the exclusive truncation bound, and the coefficients are
    ``poly.product_power_coefficients``.

    >>> product_power(-1, 5).coefficient(4)
    5
    """
    a = index(exponent)
    trunc = index(order)
    if trunc <= 0:
        raise ValueError("order must be positive")
    return QSeries(dict(enumerate(product_power_coefficients(a, trunc))),
                   trunc)


def goettsche_series(chi, order):
    """prod (1 - q^m)^(-chi); the q^n coefficient is the Euler number of
    the Hilbert scheme of n points on a surface whose topological Euler
    characteristic is chi."""
    return product_power(-chi, order)


def delta_inverse(order):
    """q^(-1) prod (1 - q^m)^(-24), known through q^order inclusive.

    >>> delta_inverse(2).coefficient(1)
    324
    """
    order = index(order)
    if order <= -1:
        raise ValueError("order must exceed -1")
    return product_power(-24, order + 2).shift_exponent(-1)


# -- substitutions ---------------------------------------------------------

def sqrt_average(f):
    """The average of the two square-root substitutions q -> +-q^(1/2):

        (f(q^(1/2)) + f(-q^(1/2))) / 2 = sum_e f_(2e) q^e,

    the odd powers of f cancelling.  Known below ceil(trunc/2) for f
    known below trunc.
    """
    return QSeries({e // 2: c for e, c in f.units.items() if e % 2 == 0},
                   -(-f.truncation_order // 2))


def substitute_power(series, k):
    """q -> q^k for a positive integer k; exponents scale by k."""
    if index(k) < 1:
        raise ValueError("k must be a positive integer")
    return QSeries({e * k: c for e, c in series.units.items()},
                   series.truncation_order * k)


# -- K3 partition-function series ------------------------------------------

# ``zseries --order 1000`` takes about 1.3 s in a fresh process (README)
MAX_K3_ORDER = 1000


def _k3_order(order):
    """``order`` as an int.  Every K3 series starts at q^-2, so a window
    known through q^order must reach past it, and it may not pass
    MAX_K3_ORDER."""
    order = index(order)
    if order <= -2:
        raise ValueError("order must exceed -2")
    if order > MAX_K3_ORDER:
        raise ValueError(f"order {order} exceeds the maximum {MAX_K3_ORDER}")
    return order


def z_typeI_series(order):
    """Series of the fiberwise rank-two counts of the non-nested locus on
    K3, known through q^order inclusive.  The count at charge n sits at
    exponent n-2: 1/s times the Euler number of the Hilbert scheme of
    2n-3 points of a K3 surface, and 0 for n <= 1 (empty moduli).  Every
    Euler number is read off one expansion of the Hilbert-scheme
    generating series."""
    order = _k3_order(order)
    chi = goettsche_series(24, max(2 * order + 2, 1))
    s = FactoredScalar.var("s")
    units = {n - 2: FactoredScalar.const(chi.coefficient(2 * n - 3)) / s
             for n in range(2, order + 3)}
    return QSeries(units, order + 1)


def z_typeI_closed_form(order):
    """Independent route to z_typeI_series: average the two square-root
    substitutions into the inverse discriminant form, scale by 1/s.

    Same truncation order as z_typeI_series(order) when order >= 0.
    """
    inner = delta_inverse(max(2 * _k3_order(order) + 1, 0))
    return sqrt_average(inner).scale(FactoredScalar.const(1)
                                     / FactoredScalar.var("s"))


def z_typeII_conjecture_series(order):
    """Conjectured nested series: 1/(4s) times the inverse discriminant
    form evaluated at q^2; known at least through q^order inclusive."""
    inner = delta_inverse(max(-(-_k3_order(order) // 2), 0))
    expanded = substitute_power(inner, 2)
    return expanded.scale(FactoredScalar.const(Fraction(1, 4))
                           / FactoredScalar.var("s"))
