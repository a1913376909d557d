"""Intersection lattices on ruled surfaces: solving, adjunction, genus."""

import gc
import pathlib
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import bilinear_sum, genus_by_the_bilinear_sum
from chowkit.lattice import (
    ClassExpr,
    InconsistentSystem,
    IntersectionForm,
    NonlinearError,
    RuledLattice,
    UnderdeterminedSystem,
    adjunction_genus,
    genus_additivity,
    intersect,
)
from chowkit.linexpr import ONE, LinExpr, SpaceMismatch, collapse, solve_linear
from chowkit.worksheet import parse
from chowkit.worksheet.builtins import BUILTINS
from chowkit.worksheet.evaluate import Evaluator

ROOT = pathlib.Path(__file__).resolve().parents[1]


def secant_scroll():
    """Ruled surface over a genus-22 curve carrying the secant scroll data."""
    lat = RuledLattice(("l", "F"))
    x = lat.add_unknown("x")
    kc = lat.add_unknown("kc")
    lat.set_gram("l", "F", 1)
    lat.set_gram("F", "F", 0)
    lat.set_gram("l", "l", x)
    lat.canonical = ClassExpr(lat, {"l": -2, "F": kc})
    return lat


def test_intersect_with_unknown_is_linear():
    lat = secant_scroll()
    l = lat.generator("l")
    v = intersect(l, l)
    assert isinstance(v, LinExpr)
    assert v.coeffs == {"x": Fraction(1)}


def test_triangular_solve_reproduces_scroll_chain():
    lat = secant_scroll()
    l = lat.generator("l")
    F = lat.generator("F")
    H = l + 15 * F  # hyperplane class: 21 - multiplicity 6 along the axis
    G = 2 * H  # before the correction term
    lat.substitute(solve_linear([intersect(H, l) - 6]))
    assert intersect(l, l) == -9
    K = lat.canonical
    lat.substitute(solve_linear([intersect(l, l + K) - (2 * 22 - 2)]))
    assert intersect(l, lat.canonical) == 51
    bt = lat.add_unknown("bt")
    G = G - ClassExpr(lat, {"F": bt})
    sol = solve_linear([intersect(H, G) - 30])
    lat.substitute(sol)
    assert sol["bt"] == 12
    G = G.substitute(sol)
    assert intersect(G, G) == 36
    A = 6 * H - 2 * G
    assert intersect(A, F) == 2
    assert intersect(A, G) == 108


@pytest.mark.parametrize("where", ["gram-entry", "canonical", "unknown-list"])
def test_substitute_reports_an_unknown_until_the_last_is_solved(where):
    """a and b sit in one place only; the lattice is open until both are solved."""
    lat = RuledLattice(("l", "F"))
    a, b = LinExpr.unknown("a"), LinExpr.unknown("b")
    lat.set_gram("l", "l", a + b if where == "gram-entry" else 1)
    lat.set_gram("l", "F", 1)
    lat.set_gram("F", "F", 0)
    if where == "canonical":
        lat.canonical = ClassExpr(lat, {"l": a, "F": b})
    if where == "unknown-list":
        lat.add_unknown("a")
        lat.add_unknown("b")
    assert lat.substitute({"c": Fraction(5)})
    assert lat.substitute({"a": Fraction(1)})
    assert not lat.substitute({"b": Fraction(2)})
    assert not lat.substitute({})


def test_adjunction_genus_values():
    lat = secant_scroll()
    lat.substitute({"x": Fraction(-9), "kc": Fraction(33)})
    l = lat.generator("l")
    F = lat.generator("F")
    H = l + 15 * F
    assert adjunction_genus(6 * H) == 442
    G = 2 * H - 12 * F
    assert adjunction_genus(2 * G) == 139
    assert adjunction_genus(F) == 0
    assert adjunction_genus(l) == 22


def test_adjunction_genus_when_unknowns_cancel():
    lat = RuledLattice(("l", "F"))
    lat.set_gram("l", "l", lat.add_unknown("x"))
    lat.set_gram("l", "F", 1)
    lat.set_gram("F", "F", 0)
    lat.canonical = ClassExpr(lat, {"l": -1})
    assert adjunction_genus(lat.generator("l")) == 1


def test_a_lattice_with_a_canonical_class_is_freed_without_the_cyclic_gc():
    text = (ROOT / "worksheets" / "step2_secants.ws").read_text(encoding="utf-8")
    enabled = gc.isenabled()
    gc.disable()
    try:
        ev = Evaluator()
        ev.run(parse(text))
        lat = next(v for v in ev.env.values() if isinstance(v, RuledLattice))
        assert lat.canonical is not None
        ref = weakref.ref(lat)
        del ev, lat
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_canonical_class_is_a_class_of_its_lattice():
    lat, other = RuledLattice(("C",)), RuledLattice(("C",))
    lat.canonical = ClassExpr(lat, {"C": 3})
    assert lat.canonical == ClassExpr(lat, {"C": 3}) and lat.canonical.space is lat
    with pytest.raises(SpaceMismatch, match="^the canonical class lives on another lattice$"):
        lat.canonical = ClassExpr(other, {"C": 1})


def test_adjunction_requires_even_self_plus_canonical():
    lat = RuledLattice(("C",))
    lat.set_gram("C", "C", 2)
    lat.canonical = ClassExpr(lat, {"C": 1})
    # C^2 + C.K = 4, fine
    assert adjunction_genus(lat.generator("C")) == 3
    lat2 = RuledLattice(("C",))
    lat2.set_gram("C", "C", 1)
    lat2.canonical = ClassExpr(lat2, {"C": 0})
    with pytest.raises(ValueError, match=r"^C\^2 \+ C.K = 1 is odd$"):
        adjunction_genus(lat2.generator("C"))


def test_solver_error_taxonomy():
    lat = secant_scroll()
    l = lat.generator("l")
    with pytest.raises(InconsistentSystem):
        solve_linear([intersect(l, l) - 1, intersect(l, l) - 2])
    lat2 = secant_scroll()
    l2 = lat2.generator("l")
    with pytest.raises(UnderdeterminedSystem, match="^system does not determine: x$"):
        solve_linear([intersect(l2, l2 + lat2.canonical) - 1])  # -x + kc == 1


def test_lattice_mismatch():
    a = secant_scroll()
    b = secant_scroll()
    with pytest.raises(SpaceMismatch):
        intersect(a.generator("l"), b.generator("l"))


def test_bitangent_scroll_solve():
    # four-generator lattice; gamma = l + al*F with two constraints
    lat = RuledLattice(("l", "F", "H", "Cq"))
    al = lat.add_unknown("al")
    ll = lat.add_unknown("ll")
    for pair, v in {
        ("l", "F"): 1,
        ("F", "F"): 0,
        ("l", "l"): ll,
        ("H", "F"): 1,
        ("H", "l"): 72,
        ("Cq", "F"): 1,
        ("Cq", "l"): 0,
        ("H", "H"): 0,
        ("H", "Cq"): 0,
        ("Cq", "Cq"): 0,
    }.items():
        lat.set_gram(pair[0], pair[1], v)
    l = lat.generator("l")
    F = lat.generator("F")
    H = lat.generator("H")
    Cq = lat.generator("Cq")
    G = l + ClassExpr(lat, {"F": al})
    sol = solve_linear([intersect(H, G) - 108, intersect(l, G)])
    lat.substitute(sol)
    assert sol["al"] == 36
    G = G.substitute(sol)
    A = 6 * H - 2 * G - Cq
    assert intersect(A, F) == 3
    assert intersect(A, G) == 540


@given(st.integers(0, 60), st.integers(0, 60), st.integers(0, 40))
def test_genus_additivity_symmetric_and_shifts(p1, p2, n):
    assert genus_additivity(p1, p2, n) == genus_additivity(p2, p1, n)
    assert genus_additivity(p1, p2, n + 1) == genus_additivity(p1, p2, n) + 1
    assert genus_additivity(p1, 0, 1) == p1


def test_genus_additivity_example():
    # two components of genus 4 and 22 meeting in 108 points
    assert genus_additivity(4, 22, 108) == 133


rationals = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=6)
)
linexprs = st.builds(
    LinExpr, rationals, st.dictionaries(st.sampled_from(("x", "y")), rationals, max_size=2)
)
scalars = st.one_of(rationals, linexprs)


@st.composite
def intersection_forms(draw):
    """A form over one to three classes; now and then an entry is left out."""
    basis = ("a", "b", "c")[: draw(st.integers(1, 3))]
    form = IntersectionForm(basis)
    for i, a in enumerate(basis):
        for b in basis[i:]:
            if draw(st.integers(0, 4)):
                form.set_gram(a, b, draw(scalars))
    return form


def outcome(f, *args):
    """The value f returns, or the type and message of what it raises."""
    try:
        value = f(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return value, str(value)


@settings(max_examples=200, deadline=None)
@given(intersection_forms(), st.data())
def test_pair_agrees_with_the_bilinear_sum(form, data):
    vectors = st.dictionaries(st.sampled_from(form.basis), scalars, max_size=3)
    u, v = data.draw(vectors), data.draw(vectors)
    ours = outcome(form.pair, u, v)
    assert ours == outcome(bilinear_sum, form, u, v)
    if isinstance(ours[0], LinExpr):  # each coefficient with its type
        typed = [sorted((str(k), type(c), c) for k, c in e.terms.items())
                 for e in (ours[0], bilinear_sum(form, u, v))]
        assert typed[0] == typed[1]


X = LinExpr.unknown("x")


@pytest.mark.parametrize(
    "gram, u, v, key",
    [
        # b.b times a Fraction 0 adds nothing, so the constant from b.a stays an int
        ({("a", "a"): 0, ("a", "b"): 1, ("b", "b"): 3}, {"b": 1}, {"a": 1, "b": Fraction(0)}, ONE),
        # x cancels after a.a and a.b, so the int 1 from c.b starts it afresh
        (
            {("a", "a"): X, ("a", "b"): X, ("a", "c"): 0, ("b", "c"): X},
            {"a": 1, "c": 1},
            {"a": Fraction(-1), "b": 1},
            "x",
        ),
    ],
    ids=["zero-product", "cancelled-sum"],
)
def test_pair_keeps_an_int_coefficient_an_int(gram, u, v, key):
    form = IntersectionForm(sorted({a for entry in gram for a in entry}))
    for (a, b), value in gram.items():
        form.set_gram(a, b, value)
    got = form.pair(u, v)
    assert got == bilinear_sum(form, u, v)
    assert type(got.terms[key]) is int and got.terms[key] == 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_genus_builtin_matches_the_bilinear_sum(data):
    basis = ("l", "F", "E")[: data.draw(st.integers(1, 3))]
    entries = st.integers(-5, 5)
    lat = RuledLattice(basis)
    for i, a in enumerate(basis):
        for b in basis[i:]:
            if data.draw(st.integers(0, 6)):  # now and then an entry is left out
                lat.set_gram(a, b, data.draw(entries))
    vectors = st.dictionaries(st.sampled_from(basis), st.integers(-4, 4), max_size=3)
    C, k = ClassExpr(lat, data.draw(vectors)), data.draw(st.none() | vectors)
    if k is not None:
        lat.canonical = ClassExpr(lat, k)
        k = lat.canonical.terms  # without its zero coefficients, as C's
    got = outcome(lambda C: BUILTINS["genus"].call([[C]], {}), C)
    assert got == outcome(genus_by_the_bilinear_sum, lat, C.terms, k)


@pytest.mark.parametrize(
    "u, error, message",
    [
        (
            {"l": LinExpr.unknown("y")},
            NonlinearError,
            "product of two expressions with unknowns is not linear",
        ),
        ({"F": 1}, ValueError, "intersection number F.l was never declared"),
    ],
    ids=["unknown-times-unknown", "never-declared"],
)
def test_pair_errors_are_those_of_the_bilinear_sum(u, error, message):
    form = IntersectionForm(("l", "F"))
    form.set_gram("l", "l", LinExpr.unknown("x") + 1)
    v = {"l": Fraction(1, 2)}
    for f in (form.pair, lambda u, v: bilinear_sum(form, u, v)):
        with pytest.raises(error) as exc:
            f(u, v)
        assert str(exc.value) == message
