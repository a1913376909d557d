"""Linear expressions in named unknowns and the exact linear solver."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import resummed_add, resummed_scale, resummed_sub, resummed_substitute
from chowkit.lattice import ClassExpr, RuledLattice
from chowkit.linexpr import (
    ONE,
    Combination,
    InconsistentSystem,
    LinExpr,
    NonlinearError,
    SpaceMismatch,
    UnderdeterminedSystem,
    collapse,
    shown,
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


def test_substitute_and_collapse():
    a = LinExpr.unknown("a")
    e = 3 * a + 1
    assert collapse(e.substitute({"a": Fraction(2)})) == Fraction(7)
    assert collapse(e) is e  # still depends on `a`, so it stays a LinExpr


def test_solve_linear_simple():
    x = LinExpr.unknown("x")
    y = LinExpr.unknown("y")
    sol = solve_linear([x + y - 3, x - y - 1])
    assert sol == {"x": Fraction(2), "y": Fraction(1)}


def test_solve_linear_inconsistent():
    x = LinExpr.unknown("x")
    with pytest.raises(InconsistentSystem):
        solve_linear([x - 1, x - 2])


def test_solve_linear_underdetermined():
    x = LinExpr.unknown("x")
    y = LinExpr.unknown("y")
    with pytest.raises(UnderdeterminedSystem):
        solve_linear([x + y - 3])


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
    sol = solve_linear([e1, e2])
    assert sol["x"] == c
    assert sol["y"] == d


@given(coeff, coeff, coeff)
def test_linexpr_distributivity(a, b, c):
    x = LinExpr.unknown("x")
    left = a * (b * x + c)
    right = a * b * x + a * c
    assert left.coeffs.get("x", 0) == right.coeffs.get("x", 0)
    assert left.const == right.const


def _gauss_jordan(equations) -> dict:
    """Reference solver: Gauss-Jordan elimination over Fractions.

    Pivots on the first row at or below the current one whose entry in the
    column is nonzero, like `solve_linear`, and raises the same errors.
    """
    equations = [LinExpr.coerce(e) for e in equations]
    unknowns = sorted({n for e in equations for n in e.terms if n != ONE})
    rows = []
    for e in equations:
        rows.append([e.terms.get(n, Fraction(0)) for n in unknowns] + [-e.const])

    ncols = len(unknowns)
    pivot_of = {}
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        scale = rows[r][col]
        rows[r] = [x / scale for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_of[col] = r
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ncols] != 0:
            raise InconsistentSystem("constraints have no common solution")
    free = [unknowns[c] for c in range(ncols) if c not in pivot_of]
    if free:
        raise UnderdeterminedSystem(f"system does not determine: {', '.join(free)}")
    return {unknowns[c]: rows[pivot_of[c]][ncols] for c in pivot_of}


def _outcome(solver, equations):
    """The assignment, or the exception's type and message."""
    try:
        return solver(equations)
    except ValueError as exc:
        return type(exc), str(exc)


# sparse rows, so that pivots are skipped and rows swapped
entry = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-40, 40), st.integers(1, 30))
)


@st.composite
def rational_systems(draw):
    """A square, over-determined, rank-deficient or inconsistent system.

    The constants fit a drawn solution.  A rank-deficient system has a row
    that combines others; the inconsistent variant is the same with that
    row's constant moved.
    """
    n = draw(st.integers(1, 5))
    names = [f"x{i}" for i in range(n)]
    kind = draw(st.sampled_from(["square", "over", "deficient", "inconsistent"]))
    m = n + draw(st.integers(1, 3)) if kind == "over" else n
    solution = draw(st.lists(entry, min_size=n, max_size=n))
    rows = []
    for _ in range(m):
        coeffs = draw(st.lists(entry, min_size=n, max_size=n))
        rows.append((coeffs, -sum(c * x for c, x in zip(coeffs, solution))))
    if kind in ("deficient", "inconsistent"):
        weights = draw(st.lists(entry, min_size=m - 1, max_size=m - 1))
        coeffs = [sum(w * row[j] for w, (row, _) in zip(weights, rows)) for j in range(n)]
        const = sum(w * c for w, (_, c) in zip(weights, rows))
        if kind == "inconsistent":
            const += draw(entry.filter(bool))
        rows.insert(draw(st.integers(0, m)), (coeffs, const))
    return [LinExpr(const, dict(zip(names, coeffs))) for coeffs, const in rows]


@settings(max_examples=200, deadline=None)
@given(rational_systems())
def test_solve_linear_agrees_with_gauss_jordan(equations):
    assert _outcome(solve_linear, equations) == _outcome(_gauss_jordan, equations)


def test_solve_linear_dense_20x20_mixed_denominators():
    rng = random.Random(20)
    n = 20
    names = [f"x{i}" for i in range(n)]
    solution = {x: Fraction(rng.randint(-99, 99), rng.randint(1, 97)) for x in names}
    equations = []
    for _ in range(n):
        coeffs = {x: Fraction(rng.randint(-99, 99), rng.randint(1, 97)) for x in names}
        const = -sum(c * solution[x] for x, c in coeffs.items())
        equations.append(LinExpr(const, coeffs))
    assert solve_linear(equations) == solution == _gauss_jordan(equations)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", ONE]),
            st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)),
        ),
        max_size=6,
    ),
    st.randoms(use_true_random=False),
)
def test_printing_does_not_depend_on_insertion_order(terms, rng):
    def build(pairs):
        return sum((LinExpr(c) if k == ONE else c * LinExpr.unknown(k) for k, c in pairs), LinExpr(0))

    shuffled = list(terms)
    rng.shuffle(shuffled)
    e, f = build(terms), build(shuffled)
    assert e == f and str(e) == str(f)


# -- summed arithmetic against the re-summing oracle ----------------------

LATTICE = RuledLattice(("a", "b", "c"))
OTHER = RuledLattice(("a", "b", "c"))  # the same basis, another space

small = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=3))
small_linexprs = st.builds(
    LinExpr, small, st.dictionaries(st.sampled_from(("x", "y")), small, max_size=2)
)
# a class coefficient: a scalar, or a LinExpr that holds an unknown
class_coefficients = st.one_of(small, small_linexprs.map(collapse))


def classes(space):
    return st.dictionaries(
        st.sampled_from(space.basis), class_coefficients, max_size=3
    ).map(lambda terms: ClassExpr(space, terms))


def _shape(value):
    """The class, space and terms of `value` in order, each coefficient with
    its type; a scalar with its type."""
    if isinstance(value, Combination):
        return type(value), value.space, [(k, _shape(c)) for k, c in value.terms.items()]
    return type(value), value


def _result(f, *args):
    """`_shape` of what f returns, or the exception's type (and message,
    unless it is the TypeError of an unsupported operand)."""
    try:
        return _shape(f(*args))
    except TypeError:
        return TypeError
    except ValueError as exc:
        return type(exc), str(exc)


def _agree(x, y, k, assignment):
    """Every summed operation on x matches the oracle that re-sums."""
    pairs = [
        (lambda: x + y, lambda: resummed_add(x, y)),
        (lambda: x - y, lambda: resummed_sub(x, y)),
        (lambda: x.scale(k), lambda: resummed_scale(x, k)),
        (lambda: -x, lambda: resummed_scale(x, -1)),
        (lambda: x.substitute(assignment), lambda: resummed_substitute(x, assignment)),
    ]
    if isinstance(y, (int, Fraction)):
        pairs.append((lambda: y - x, lambda: resummed_add(resummed_scale(x, -1), y)))
    for ours, oracle in pairs:
        assert _result(ours) == _result(oracle)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_summed_arithmetic_matches_the_resumming_oracle(data):
    if data.draw(st.booleans()):
        same = small_linexprs
        others = st.one_of(same, small)
        k = data.draw(small)
    else:
        same = classes(LATTICE)
        others = st.one_of(same, classes(OTHER), small)
        k = data.draw(st.one_of(small, small_linexprs))
    x = data.draw(same)
    y = data.draw(st.one_of(
        others,
        st.just(x),  # x + x
        st.just(resummed_scale(x, -1)),  # cancels to zero
        st.builds(resummed_add, st.just(resummed_scale(x, -1)), same),  # in part
    ))
    assignment = data.draw(st.dictionaries(st.sampled_from(("x", "y")), small))
    _agree(x, y, k, assignment)


X, Y = LinExpr.unknown("x"), LinExpr.unknown("y")


@pytest.mark.parametrize(
    "x, y",
    [
        (X + 1, X + 1),
        (2 * X - Y, Y - 2 * X),
        (ClassExpr(LATTICE, {"a": X + 1, "b": 2}), ClassExpr(LATTICE, {"a": -X})),
        (ClassExpr(LATTICE, {"a": X, "b": Fraction(1, 2)}), ClassExpr(LATTICE, {"b": Fraction(1, 2)})),
        (ClassExpr(LATTICE, {"a": 1}), ClassExpr(OTHER, {"a": 1})),
        (X + Fraction(1, 2), Fraction(1, 2)),
    ],
    ids=["x-plus-x", "cancels-to-zero", "collapses-to-a-scalar", "x-plus-x-class",
         "space-mismatch", "scalar-operand"],
)
def test_summed_arithmetic_cases(x, y):
    _agree(x, y, Fraction(-2, 3), {"x": 3})
    if isinstance(y, Combination) and y.space is OTHER:
        with pytest.raises(SpaceMismatch, match="^ClassExprs live on different spaces$"):
            x + y


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no limit on str(int)"
)
def test_shown_gives_the_length_of_a_number_too_long_to_print():
    assert [shown(5), shown(Fraction(-3, 2)), shown(Fraction(4))] == ["5", "-3/2", "4"]
    k = sys.get_int_max_str_digits()
    for digits in (k + 1, 2 * k, 10 * k):
        assert shown(10 ** digits - 1) == f"<{digits} digits>"
        assert shown(-(10 ** (digits - 1))) == f"-<{digits} digits>"
    assert shown(Fraction(1, 10 ** k)) == f"1/<{k + 1} digits>"
