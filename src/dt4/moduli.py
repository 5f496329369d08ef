"""Rank and divisor arithmetic on Weierstrass elliptic fibrations.

A surface here is determined by the single integer k with canonical
class k times the fiber class; divisor classes live in the rank-two
lattice spanned by the section and the fiber.  On top of the
intersection form the module provides the no-wall chamber test for the
adiabatic polarizations and the enumeration of the nested fixed-locus
components.  The partition-function series of the fiberwise count are
q-series and live in ``qseries``.
"""

from fractions import Fraction
from typing import NamedTuple


class DivisorClass(NamedTuple):
    """a * section + b * fiber, integer coefficients."""
    a: int
    b: int

    def __add__(self, other):
        return DivisorClass(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return DivisorClass(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return DivisorClass(-self.a, -self.b)

    def scale(self, m):
        return DivisorClass(m * self.a, m * self.b)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def to_json(self):
        return {"a": self.a, "b": self.b}


SECTION = DivisorClass(1, 0)
FIBER = DivisorClass(0, 1)
ZERO_DIVISOR = DivisorClass(0, 0)


class EllipticSurface(NamedTuple("EllipticSurface", [("k", int)])):
    """Weierstrass fibration with canonical class k * fiber; k = 0 is
    the K3 case."""
    __slots__ = ()

    def __new__(cls, k):
        if k < 0:
            raise ValueError("k must be nonnegative")
        return super().__new__(cls, k)


class Polarization(NamedTuple("Polarization",
                                [("t", Fraction), ("u", Fraction)])):
    """t * section + u * fiber with positive rational coefficients."""
    __slots__ = ()

    def __new__(cls, t, u):
        t, u = Fraction(t), Fraction(u)
        if t <= 0 or u <= 0:
            raise ValueError("polarization coefficients must be positive")
        return super().__new__(cls, t, u)


class TypeIIComponent(NamedTuple):
    """One nested component over the K3 fiberwise count."""
    b: int
    n1: int
    n2: int
    alpha: DivisorClass
    vanishes: bool

    def to_json(self):
        return {"b": self.b, "n1": self.n1, "n2": self.n2,
                "alpha": self.alpha.to_json(), "vanishes": self.vanishes}


class TypeIIGeneralComponent(NamedTuple):
    """Decomposition datum of the general nested enumeration."""
    beta1: DivisorClass
    beta2: DivisorClass
    n1: int
    n2: int
    alpha: DivisorClass

    def to_json(self):
        return {"beta1": self.beta1.to_json(), "beta2": self.beta2.to_json(),
                "n1": self.n1, "n2": self.n2, "alpha": self.alpha.to_json()}


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


def is_ample(h, S):
    return 0 < (S.k + 2) * h.t < h.u


def wall_threshold(S, r, delta):
    """Upper bound on t/u below which no wall meets the chamber."""
    if r <= 0:
        raise ValueError("rank must be positive")
    if delta < 0:
        raise ValueError("discriminant must be nonnegative")
    return Fraction(2, S.k + 2 + 2 * r ** 3 * delta)


def in_stable_chamber(h, S, r, delta):
    """Strict chamber membership; rejects non-ample polarizations."""
    if not is_ample(h, S):
        raise ValueError("polarization is not ample")
    return h.t / h.u < wall_threshold(S, r, delta)


def enumerate_typeII_K3(m, n):
    """Nested components of the K3 fiberwise count at fiber twist m and
    point budget n.

    Components are indexed by 1 <= b <= (m+1)/2 and splittings
    n1 + n2 = n, with n1 >= n2 required exactly in the middle case
    2b = m+1; the leftover twist class is (m+1-2b) fibers and the
    component contributes zero whenever that class is nonzero.
    """
    if m < 1:
        raise ValueError("fiber twist m must be at least 1")
    if n < 0:
        raise ValueError("point budget must be nonnegative")
    out = []
    for b in range(1, (m + 1) // 2 + 1):
        middle = (2 * b == m + 1)
        alpha = DivisorClass(0, m + 1 - 2 * b)
        lo = (n + 1) // 2 if middle else 0
        for n1 in range(n, lo - 1, -1):
            out.append(TypeIIComponent(b, n1, n - n1, alpha,
                                       not alpha.is_zero()))
    return out


def enumerate_typeII_general(beta, m, k, n, h, search_box):
    """Nested decompositions on a general fibration inside a lattice box.

    ``search_box`` bounds the divisor-class search: either an integer B
    (both coefficients of the first class range over [-B, B]) or a pair
    of (lo, hi) ranges.  Finiteness outside the stable chamber is not
    guaranteed, hence the explicit box.
    """
    S = EllipticSurface(k)
    D = DivisorClass(0, m)
    if isinstance(search_box, int):
        (alo, ahi), (blo, bhi) = (-search_box, search_box), (-search_box, search_box)
    else:
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


# -- partition function assembly -------------------------------------------

def assemble_typeII_K3_series(m, order):
    """Sum of nested-component contributions at fiber twist m.

    Components flagged as vanishing contribute exactly zero.  A
    non-vanishing component has no closed-form value here, so assembling
    an odd-twist series raises; for even m the result is the zero
    series on the nose.
    """
    # imported here so that the chamber and fixed-locus commands never
    # load the exact arithmetic or the q-series
    from .qseries import HalfQSeries, _k3_order
    order = _k3_order(order)
    units = {}
    n = 0
    while n - 2 <= order:
        for comp in enumerate_typeII_K3(m, n):
            if not comp.vanishes:
                raise ValueError(
                    "component with nonzero contribution at "
                    f"(m={m}, n={n}); only the conjecture series gives "
                    "its value")
        n += 1
    return HalfQSeries(units, -4, int(2 * order) + 2)
