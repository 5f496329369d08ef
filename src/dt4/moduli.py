"""Rank and divisor arithmetic on Weierstrass elliptic fibrations.

A surface here is determined by the single integer k with canonical
class k times the fiber class; divisor classes live in the rank-two
lattice spanned by the section and the fiber.  The module provides the
no-wall chamber test for the adiabatic polarizations and the nested
fixed-locus components of the K3 fiberwise count, as the rows that
``fixedloci`` prints.  The partition-function series of that count are
q-series and live in ``qseries``.
"""

from fractions import Fraction
from typing import NamedTuple


class EllipticSurface(NamedTuple("EllipticSurface", [("k", int)])):
    """Weierstrass fibration with canonical class k * fiber; k = 0 is
    the K3 case."""
    __slots__ = ()

    def __new__(cls, k):
        if type(k) is not int:
            raise ValueError("k must be an integer")
        if k < 0:
            raise ValueError("k must be nonnegative")
        return super().__new__(cls, k)


class Polarization(NamedTuple("Polarization",
                                [("t", Fraction), ("u", Fraction)])):
    """t * section + u * fiber with positive rational coefficients."""
    __slots__ = ()

    def __new__(cls, t, u):
        if isinstance(t, float) or isinstance(u, float):
            raise ValueError("polarization coefficients must not be floats")
        t, u = Fraction(t), Fraction(u)
        if t <= 0 or u <= 0:
            raise ValueError("polarization coefficients must be positive")
        return super().__new__(cls, t, u)


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


# ``fixedloci`` at this many components takes about 1.5 s in a fresh
# process, prints a 16 MB report and peaks at 70 MB resident (README)
MAX_K3_COMPONENTS = 100_000


def enumerate_typeII_K3(m, n):
    """Nested components of the K3 fiberwise count at fiber twist m and
    point budget n, as report rows.

    Components are indexed by 1 <= b <= (m+1)/2 and splittings
    n1 + n2 = n, with n1 >= n2 required exactly in the middle case
    2b = m+1.  The leftover twist class alpha = (m+1-2b) fibers is the
    row's {"a": 0, "b": m+1-2b}, and the component contributes zero
    ("vanishes") whenever that class is nonzero.  More than
    MAX_K3_COMPONENTS components are refused before any row is built.
    """
    if m < 1:
        raise ValueError("fiber twist m must be at least 1")
    if n < 0:
        raise ValueError("point budget must be nonnegative")
    # n + 1 splittings per b, n // 2 + 1 in the middle case of an odd m
    count = (m + 1) // 2 * (n + 1) - m % 2 * (n - n // 2)
    if count > MAX_K3_COMPONENTS:
        raise ValueError(f"{count} components exceed the maximum "
                         f"{MAX_K3_COMPONENTS}")
    out = []
    for b in range(1, (m + 1) // 2 + 1):
        middle = (2 * b == m + 1)
        lo = (n + 1) // 2 if middle else 0
        out += [{"b": b, "n1": n1, "n2": n - n1,
                  "alpha": {"a": 0, "b": m + 1 - 2 * b},
                  "vanishes": not middle} for n1 in range(n, lo - 1, -1)]
    return out


# -- partition function assembly -------------------------------------------

def assemble_typeII_K3_series(m, order):
    """Sum of nested-component contributions at fiber twist m.

    Only the middle b = (m+1)/2 of an odd m has a zero leftover twist
    class, and it does from point budget n = 0 on; every other component
    contributes exactly zero.  That component has no closed-form value
    here, so an odd twist raises; for even m the result is the zero
    series on the nose.
    """
    # imported here so that the chamber and fixed-locus commands never
    # load the q-series or the polynomials they are built on
    from .qseries import QSeries, _k3_order
    order = _k3_order(order)
    if m < 1:
        raise ValueError("fiber twist m must be at least 1")
    if m % 2:
        raise ValueError(f"component with nonzero contribution at (m={m}, "
                         "n=0); only the conjecture series gives its value")
    return QSeries({}, order + 1)
