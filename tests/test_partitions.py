"""Partitions and monomial fixed points."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from dt4.partitions import (MAX_FIXED_POINTS, boxes, fixed_point_count,
                            hilb_fixed_points, partitions_of)
from dt4.surfaces import from_preset

from oracles import arm_leg, colored_counts, conjugate, partition_numbers


def test_partition_counts_vs_pentagonal_oracle():
    p = partition_numbers(12)
    for n in range(13):
        got = partitions_of(n)
        assert len(got) == p[n]
        assert len(set(got)) == p[n]
        assert all(sum(lam) == n for lam in got)


def test_partitions_order():
    assert list(partitions_of(4)) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    with pytest.raises(ValueError):
        partitions_of(-1)


def test_boxes():
    assert boxes((2, 1)) == [(0, 0), (0, 1), (1, 0)]
    assert boxes((1, 1)) == [(0, 0), (1, 0)]
    assert boxes(()) == []


def test_conjugate_involution():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    for n in range(7):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_arm_leg():
    lam = (3, 1)
    assert arm_leg(lam, (0, 0)) == (2, 1)
    assert arm_leg(lam, (0, 2)) == (0, 0)
    assert arm_leg(lam, (1, 0)) == (0, 0)
    for box in ((1, 1), (0, 3), (2, 0), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            arm_leg(lam, box)


def test_arm_leg_sum():
    # sum over boxes of (arm + leg + 1) counts hook lengths; total hook sum
    # for any partition of n with the conjugate trick: a + l + 1 per box
    for lam in partitions_of(5):
        hooks = [sum(arm_leg(lam, b)) + 1 for b in boxes(lam)]
        assert len(hooks) == 5
        assert all(h >= 1 for h in hooks)


def test_hilb_fixed_points_counts_vs_convolution():
    # chart count c: number of fixed points of size n is the n-th
    # coefficient of (partition generating series)^c
    plane = from_preset("plane")
    for model in (plane, from_preset("quadric"), plane.disjoint_union(plane)):
        charts = len(model.fixed_points)
        want = colored_counts(charts, 6)
        for n in range(7):
            fps = hilb_fixed_points(model, n)
            assert len(fps) == want[n]
            assert len(set(fps)) == want[n]
            assert all(sum(map(sum, fp)) == n for fp in fps)
            assert all(len(fp) == charts for fp in fps)


def test_hilb_fixed_points_deterministic():
    plane = from_preset("plane")
    assert hilb_fixed_points(plane, 3) == hilb_fixed_points(plane, 3)
    with pytest.raises(ValueError):
        hilb_fixed_points(plane, -1)


def test_fixed_point_count_is_the_number_built():
    for charts in range(7):
        model = SimpleNamespace(fixed_points=[None] * charts)
        for n in range(7 if charts < 5 else 5):
            assert (fixed_point_count(charts, n)
                    == len(hilb_fixed_points(model, n))), (charts, n)


def test_fixed_point_count_refuses_above_the_maximum():
    plane = from_preset("plane")
    # the plane at n = 24 is admitted; at n = 25 it is refused with its
    # count, and far beyond with a lower bound, never counted exactly
    assert colored_counts(3, 25)[24:] == [1762462, 2606604]
    assert fixed_point_count(3, 24) == 1762462 <= MAX_FIXED_POINTS
    with pytest.raises(ValueError, match="^the Hilbert scheme of 25 points "
                       "on 3 charts has 2606604 fixed points, above the "
                       f"maximum {MAX_FIXED_POINTS}$"):
        hilb_fixed_points(plane, 25)
    for n in (1000, 10 ** 30):
        with pytest.raises(ValueError, match=f"^the Hilbert scheme of {n} "
                           "points on 3 charts has at least [0-9]+ fixed "
                           "points, above the maximum"):
            hilb_fixed_points(plane, n)
    # no chart, no point
    assert fixed_point_count(0, 10 ** 30) == 0
    with pytest.raises(ValueError, match="nonnegative"):
        fixed_point_count(3, -1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 8))
def test_conjugate_preserves_size(n):
    for lam in partitions_of(n):
        assert sum(conjugate(lam)) == n


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 6))
def test_arm_leg_conjugate_swap(n):
    # conjugation transposes the diagram, swapping arms and legs
    for lam in partitions_of(n):
        mu = conjugate(lam)
        for (i, j) in boxes(lam):
            a, l = arm_leg(lam, (i, j))
            a2, l2 = arm_leg(mu, (j, i))
            assert (a, l) == (l2, a2)
