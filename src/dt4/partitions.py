"""Integer partitions and monomial-ideal fixed point enumeration.

A partition is the tuple of its row lengths, positive and weakly
decreasing; the empty partition is ``()``.  Box convention, used
everywhere downstream: box (i, j) sits in row i (0-based, top row first)
and column j, so the boxes of ``lam`` are the (i, j) with j < lam[i].  A
fixed point of the Hilbert scheme of points on a toric surface model is
the tuple of one partition per chart of ``model.fixed_points``; its point
count is the total size of its partitions.
"""

from functools import lru_cache

from .poly import product_power_coefficients

# ``hilb_fixed_points`` on the plane at n = 24 lists 1,762,462 fixed points
# in about 1 s and peaks at 163 MB resident; n = 25 (2,606,604) peaks at
# 228 MB
MAX_FIXED_POINTS = 2_000_000


@lru_cache(maxsize=None)
def _partition_tuples(n, cap):
    if n == 0:
        return ((),)
    out = []
    for p in range(min(n, cap), 0, -1):
        for rest in _partition_tuples(n - p, p):
            out.append((p,) + rest)
    return tuple(out)


def partitions_of(n):
    """All partitions of n in reverse-lex order.

    >>> partitions_of(3)
    ((3,), (2, 1), (1, 1, 1))
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _partition_tuples(n, n if n else 1)


def boxes(lam):
    """The boxes (row, col) of a partition, row by row."""
    return [(i, j) for i, p in enumerate(lam) for j in range(p)]


def is_nested(fp1, fp2):
    """Whether the pair is nested chart by chart: the partition of ``fp2``
    fits inside that of ``fp1`` at every chart.

    >>> is_nested(((2, 1),), ((1, 1),))
    True
    """
    return all(len(lam2) <= len(lam1)
               and all(q <= p for p, q in zip(lam1, lam2))
               for lam1, lam2 in zip(fp1, fp2))


def fixed_point_count(charts, n):
    """The number of fixed points of the Hilbert scheme of n points on a
    model with ``charts`` charts: the ``charts``-coloured partitions of n,
    the q^n coefficient of prod (1 - q^k)^-charts.  A count above
    MAX_FIXED_POINTS is a ValueError.

    >>> fixed_point_count(3, 2)
    9
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    counts = _fixed_point_counts(charts)
    count = counts[min(n, len(counts) - 1)]
    if count > MAX_FIXED_POINTS:
        more = "at least " if n >= len(counts) else ""
        raise ValueError(f"the Hilbert scheme of {n} points on {charts} "
                         f"charts has {more}{count} fixed points, above the "
                         f"maximum {MAX_FIXED_POINTS}")
    return count


@lru_cache(maxsize=None)
def _fixed_point_counts(charts):
    """The counts at n = 0, 1, ..., 2^k - 1, for the least k whose last
    count is above MAX_FIXED_POINTS.  On one chart or more, a part 1 added
    to the first chart's partition maps the fixed points at n into those
    at n + 1, so no later count is smaller; on none the counts are 1, 0,
    0, ..."""
    order = 2
    while (charts and product_power_coefficients(-charts, order)[-1]
           <= MAX_FIXED_POINTS):
        order *= 2
    return product_power_coefficients(-charts, order)


def hilb_fixed_points(model, n):
    """All monomial fixed points of the Hilbert scheme of n points on a
    toric surface model.  Order is deterministic: lexicographic over
    charts, with each chart running through larger partition sizes first
    and reverse-lex within a size.  More than MAX_FIXED_POINTS fixed
    points are refused before any is built (``fixed_point_count``).
    """
    fixed_point_count(len(model.fixed_points), n)
    return _fixed_point_tuples(len(model.fixed_points), n)


@lru_cache(maxsize=None)
def _fixed_point_tuples(charts, n):
    if not charts:
        return ((),) if n == 0 else ()
    return tuple((lam,) + rest for size in range(n, -1, -1)
                 for lam in partitions_of(size)
                 for rest in _fixed_point_tuples(charts - 1, n - size))
