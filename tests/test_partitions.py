"""Partitions and monomial fixed points."""

import pytest
from hypothesis import given, settings, strategies as st

from dt4.partitions import (HilbFixedPoint, Partition, arm_leg,
                            hilb_fixed_points, partitions_of)
from dt4.surfaces import from_preset

from oracles import colored_counts, partition_numbers


def test_partition_validation():
    assert Partition((3, 1)).parts == (3, 1)
    assert Partition().size == 0
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))


def test_partition_counts_vs_pentagonal_oracle():
    p = partition_numbers(12)
    for n in range(13):
        got = partitions_of(n)
        assert len(got) == p[n]
        assert len(set(got)) == p[n]
        assert all(lam.size == n for lam in got)


def test_partitions_order():
    assert [p.parts for p in partitions_of(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    with pytest.raises(ValueError):
        partitions_of(-1)


def test_boxes():
    lam = Partition((2, 1))
    assert sorted(lam.boxes()) == [(0, 0), (0, 1), (1, 0)]
    assert lam.contains((0, 1))
    assert not lam.contains((1, 1))
    assert not lam.contains((-1, 0))


def test_conjugate_involution():
    lam = Partition((4, 2, 1))
    assert lam.conjugate().parts == (3, 2, 1, 1)
    for n in range(7):
        for lam in partitions_of(n):
            assert lam.conjugate().conjugate() == lam


def test_arm_leg():
    lam = Partition((3, 1))
    assert arm_leg(lam, (0, 0)) == (2, 1)
    assert arm_leg(lam, (0, 2)) == (0, 0)
    assert arm_leg(lam, (1, 0)) == (0, 0)
    with pytest.raises(ValueError):
        arm_leg(lam, (1, 1))


def test_arm_leg_sum():
    # sum over boxes of (arm + leg + 1) counts hook lengths; total hook sum
    # for any partition of n with the conjugate trick: a + l + 1 per box
    for lam in partitions_of(5):
        hooks = [sum(arm_leg(lam, b)) + 1 for b in lam.boxes()]
        assert len(hooks) == 5
        assert all(h >= 1 for h in hooks)


def test_hilb_fixed_point_type():
    fp = HilbFixedPoint([Partition((2,)), Partition()])
    assert fp.total == 2
    assert fp == HilbFixedPoint([Partition((2,)), Partition()])
    assert hash(fp) == hash(HilbFixedPoint([Partition((2,)), Partition()]))


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
            assert all(fp.total == n for fp in fps)
            assert all(len(fp.assignment) == charts for fp in fps)


def test_hilb_fixed_points_deterministic():
    plane = from_preset("plane")
    assert hilb_fixed_points(plane, 3) == hilb_fixed_points(plane, 3)
    with pytest.raises(ValueError):
        hilb_fixed_points(plane, -1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 8))
def test_conjugate_preserves_size(n):
    for lam in partitions_of(n):
        assert lam.conjugate().size == n


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 6))
def test_arm_leg_conjugate_swap(n):
    # conjugation transposes the diagram, swapping arms and legs
    for lam in partitions_of(n):
        mu = lam.conjugate()
        for (i, j) in lam.boxes():
            a, l = arm_leg(lam, (i, j))
            a2, l2 = arm_leg(mu, (j, i))
            assert (a, l) == (l2, a2)
