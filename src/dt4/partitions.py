"""Integer partitions and monomial-ideal fixed point enumeration.

Box convention, used everywhere downstream: box (i, j) sits in row i
(0-based, top row first) and column j; a partition lists row lengths.
"""

from functools import lru_cache


class Partition:
    """Weakly decreasing positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        self.parts = parts

    @property
    def size(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts!r}"

    def boxes(self):
        """Yield boxes (row, col) row by row."""
        for i, p in enumerate(self.parts):
            for j in range(p):
                yield (i, j)

    def conjugate(self):
        if not self.parts:
            return Partition()
        return Partition(tuple(sum(1 for p in self.parts if p > j)
                               for j in range(self.parts[0])))

    def contains(self, box):
        i, j = box
        return 0 <= i < len(self.parts) and 0 <= j < self.parts[i]


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

    >>> [p.parts for p in partitions_of(3)]
    [(3,), (2, 1), (1, 1, 1)]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [Partition(t) for t in _partition_tuples(n, n if n else 1)]


def arm_leg(lam, box):
    """(arm, leg) of a box: cells strictly right in its row, strictly below
    in its column."""
    if not lam.contains(box):
        raise ValueError(f"box {box} outside the diagram of {lam}")
    i, j = box
    arm = lam.parts[i] - j - 1
    leg = sum(1 for p in lam.parts[i + 1:] if p > j)
    return arm, leg


class HilbFixedPoint:
    """Assignment of one partition per toric fixed point; total is the
    point count of the corresponding monomial subscheme."""

    __slots__ = ("assignment",)

    def __init__(self, assignment):
        self.assignment = tuple(assignment)

    @property
    def total(self):
        return sum(p.size for p in self.assignment)

    def __eq__(self, other):
        return isinstance(other, HilbFixedPoint) and self.assignment == other.assignment

    def __hash__(self):
        return hash(self.assignment)

    def __repr__(self):
        return f"HilbFixedPoint{tuple(p.parts for p in self.assignment)!r}"


def is_nested(fp1, fp2):
    """Whether the pair is nested chart by chart: the partition of ``fp2``
    fits inside that of ``fp1`` at every chart.

    >>> is_nested(HilbFixedPoint([Partition((2, 1))]),
    ...           HilbFixedPoint([Partition((1, 1))]))
    True
    """
    return all(len(lam2) <= len(lam1)
               and all(q <= p for p, q in zip(lam1.parts, lam2.parts))
               for lam1, lam2 in zip(fp1.assignment, fp2.assignment))


def hilb_fixed_points(model, n):
    """All monomial fixed points of the Hilbert scheme of n points on a
    toric surface model.  Order is deterministic: lexicographic over
    charts, with each chart running through larger partition sizes first
    and reverse-lex within a size.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = len(model.fixed_points)
    out = []

    def rec(idx, remaining, acc):
        if idx == k - 1:
            for lam in partitions_of(remaining):
                out.append(HilbFixedPoint(acc + [lam]))
            return
        for size in range(remaining, -1, -1):
            for lam in partitions_of(size):
                rec(idx + 1, remaining - size, acc + [lam])

    rec(0, n, [])
    return out
