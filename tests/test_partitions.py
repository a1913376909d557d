"""Partition helpers and exact scalar sanity checks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chowkit.grassmann import (
    complement_in_box,
    conjugate,
    fits_in_box,
    partition,
)
from chowkit.linexpr import LinExpr, collapse

from _oracles import partitions_in_box

fractions = st.fractions(max_denominator=1000)


@given(fractions, fractions, fractions)
def test_fraction_field_axioms(a, b, c):
    x, y, z = LinExpr(a), LinExpr(b), LinExpr(c)
    assert collapse((x + y) + z) == collapse(x + (y + z)) == a + b + c
    assert collapse(x * (y + z)) == collapse(x * y + x * z) == a * (b + c)
    if a != 0:
        assert collapse(x * (LinExpr(1) / x)) == 1


def test_partition_normalizes():
    assert partition([3, 2, 0, 0]) == (3, 2)
    assert partition(()) == ()
    assert partition([5]) == (5,)


def test_partition_rejects_increasing():
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([3, -1])


def test_weight_and_box():
    assert fits_in_box((), 0, 0)
    assert fits_in_box((2,), 1, 2)
    assert not fits_in_box((3,), 1, 2)
    assert not fits_in_box((1, 1), 1, 5)
    assert fits_in_box((2, 2), 2, 2)
    assert not fits_in_box((3,), 2, 2)
    assert not fits_in_box((1, 1, 1), 2, 2)


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2, 2)) == (3, 3)


boxed = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda rc: st.lists(st.integers(0, rc[1]), max_size=rc[0])
    .map(lambda xs: partition(sorted(xs, reverse=True)))
    .map(lambda lam: (lam, rc[0], rc[1]))
)


@given(boxed)
def test_conjugate_involution(item):
    lam, _, _ = item
    assert conjugate(conjugate(lam)) == lam


@given(boxed)
def test_complement_involution(item):
    lam, rows, cols = item
    mu = complement_in_box(lam, rows, cols)
    assert fits_in_box(mu, rows, cols)
    assert complement_in_box(mu, rows, cols) == lam
    assert sum(lam) + sum(mu) == rows * cols


def test_partitions_in_box_counts():
    # all partitions in a 2x2 box: (), (1), (2), (1,1), (2,2), (2,1)
    assert len(list(partitions_in_box(2, 2))) == 6
    assert set(partitions_in_box(2, 2, total=2)) == {(2,), (1, 1)}
    # C(rows+cols, rows) partitions in the box
    assert len(list(partitions_in_box(3, 2))) == 10


def test_partitions_in_box_are_sorted_by_weight_within_degree():
    for lam in partitions_in_box(3, 4, total=5):
        assert sum(lam) == 5
        assert fits_in_box(lam, 3, 4)
