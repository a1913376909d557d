"""Linear expressions in named unknowns and the exact linear solver."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chowkit.linexpr import (
    InconsistentSystem,
    LinExpr,
    NonlinearError,
    UnderdeterminedSystem,
    solve_linear,
)


def test_basic_arithmetic():
    a = LinExpr.unknown("a")
    e = 2 * a + 3 - a
    assert e.coeffs == {"a": Fraction(1)}
    assert e.const == 3
    assert (e - e).is_constant


def test_equal_to_a_scalar_hashes_like_it():
    a = LinExpr.unknown("a")
    for e, k in [(LinExpr(3), 3), (a + 3 - a, Fraction(3)), (a - a, 0)]:
        assert e == k
        assert hash(e) == hash(k)


def test_nonlinear_product_rejected():
    a = LinExpr.unknown("a")
    with pytest.raises(NonlinearError):
        a * a


def test_substitute_and_as_fraction():
    a = LinExpr.unknown("a")
    e = 3 * a + 1
    assert e.substitute({"a": Fraction(2)}).as_fraction() == 7
    with pytest.raises(ValueError):
        e.as_fraction()


def test_solve_linear_simple():
    x = LinExpr.unknown("x")
    y = LinExpr.unknown("y")
    sol = solve_linear([x + y - 3, x - y - 1], ["x", "y"])
    assert sol == {"x": Fraction(2), "y": Fraction(1)}


def test_solve_linear_inconsistent():
    x = LinExpr.unknown("x")
    with pytest.raises(InconsistentSystem):
        solve_linear([x - 1, x - 2], ["x"])


def test_solve_linear_underdetermined():
    x = LinExpr.unknown("x")
    y = LinExpr.unknown("y")
    with pytest.raises(UnderdeterminedSystem):
        solve_linear([x + y - 3], ["x", "y"])


coeff = st.fractions(max_denominator=50)


@given(coeff, coeff, coeff, coeff)
def test_solve_round_trip(a, b, c, d):
    # build a system with a known unique solution (c, d)
    x = LinExpr.unknown("x")
    y = LinExpr.unknown("y")
    e1 = x + a * y - (c + a * d)
    e2 = b * x + y - (b * c + d)
    if a * b == 1:
        return  # singular by construction
    sol = solve_linear([e1, e2], ["x", "y"])
    assert sol["x"] == c
    assert sol["y"] == d


@given(coeff, coeff, coeff)
def test_linexpr_distributivity(a, b, c):
    x = LinExpr.unknown("x")
    left = a * (b * x + c)
    right = a * b * x + a * c
    assert left.coeffs.get("x", 0) == right.coeffs.get("x", 0)
    assert left.const == right.const
