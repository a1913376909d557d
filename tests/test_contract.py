"""The kernels' contract: ints stay ints until a division, a rational input is
read one way, and each precondition is checked once, with its own message."""

from fractions import Fraction

import pytest

from chowkit.curves import correspondence_coincidences, plucker_solve, residual_degree
from chowkit.grassmann import GrassmannContext, SchubertElement, complement_in_box
from chowkit.lattice import ClassExpr, RuledLattice, genus_additivity
from chowkit.linexpr import LinExpr
from chowkit.surface import BundleSpec, SurfaceClass, SurfaceRing, jet_chern, sym_power
from chowkit.worksheet.builtins import BUILTINS

G35 = GrassmannContext(3, 5)
RING = SurfaceRing(["H", "K"], {("H", "H"): 6, ("H", "K"): 0, ("K", "K"): 0}, euler=24)
H = RING.divisor("H")
OMEGA = BundleSpec(2, RING.divisor("K"), 24)


def scroll_line():
    lat = RuledLattice(("l", "F"))
    lat.set_gram("l", "l", 1)
    lat.set_gram("l", "F", 1)
    lat.set_gram("F", "F", 0)
    lat.canonical = ClassExpr(lat, {"l": -2, "F": -1})
    return lat.generator("l")


# every builtin, with int arguments: (positional groups, named arguments)
INT_CALLS = {
    "integrate": ([[SchubertElement(G35, {(2, 2, 2): 120})]], {}),
    "pdeg": ([[SchubertElement(G35, {(1, 1, 1): 120, (2, 1): 16}), 3]], {}),
    "jet2_c2": ([[H]], {}),
    "tau": ([[6, 0, 0, 24]], {}),
    "genus": ([[scroll_line()]], {}),
    "glue_genus": ([[3, 3, 4]], {}),
    "hurwitz": ([[3, 0, 2]], {}),
    "coincidences": ([[2, 3]], {}),
    "salmon_cayley": ([[1, 1, 2], [0, 0, 1]], {}),
    "secant_pluecker": ([[4, 1]], {}),
    "odd_theta": ([[4]], {}),
    "degmult": ([[3]], {}),
    "residual": ([[624], [600, 8]], {}),
    "pluecker": ([], {"d": 6, "nodes": 6}),
}


def test_int_calls_cover_every_builtin():
    assert INT_CALLS.keys() == BUILTINS.keys()


@pytest.mark.parametrize("name", INT_CALLS)
def test_int_arguments_give_an_int(name):
    groups, named = INT_CALLS[name]
    value = BUILTINS[name].call(groups, named)
    for v in value.values() if isinstance(value, dict) else [value]:
        assert type(v) is int, (name, value)


@pytest.mark.parametrize(
    "name, groups, named, want",
    [
        ("integrate", [[SchubertElement(G35, {(2, 2, 2): Fraction(1, 2)})]], {}, Fraction(1, 2)),
        ("pdeg", [[SchubertElement(G35, {(2, 1): Fraction(1, 3)}), 3]], {}, Fraction(2, 3)),
        ("glue_genus", [[Fraction(1, 2), 0, 0]], {}, Fraction(-1, 2)),
        ("coincidences", [[Fraction(1, 2), 1]], {}, Fraction(3, 2)),
        ("residual", [[Fraction(7, 2)], [1, 1]], {}, Fraction(3, 2)),
        ("tau", [[Fraction(1, 2), 0, 0, 0]], {}, Fraction(15, 2)),
    ],
    ids=["integrate", "pdeg", "glue_genus", "coincidences", "residual", "tau"],
)
def test_a_fraction_argument_gives_a_fraction_where_not_integral(name, groups, named, want):
    value = BUILTINS[name].call(groups, named)
    assert value == want and type(value) is type(want)


def test_a_given_pluecker_character_keeps_its_type():
    data = plucker_solve(d=6, nodes=Fraction(13, 2), cusps=0)
    assert type(data["d"]) is int and type(data["nodes"]) is Fraction
    assert data["genus"] == Fraction(7, 2)


@pytest.mark.parametrize("bad", [2.0, "2"], ids=["float", "string"])
@pytest.mark.parametrize(
    "kernel",
    [
        lambda x: correspondence_coincidences(x, 1),
        lambda x: correspondence_coincidences(1, x),
        lambda x: residual_degree(x, []),
        lambda x: residual_degree(5, [(x, 1)]),
        lambda x: residual_degree(5, [(1, x)]),
        lambda x: genus_additivity(x, 0, 0),
        lambda x: genus_additivity(0, 0, x),
        lambda x: plucker_solve(d=x, nodes=0, cusps=0),
    ],
    ids=["coincidences-e", "coincidences-f", "residual-total", "residual-multiplicity",
         "residual-degree", "glue-genus-p1", "glue-genus-inter", "pluecker-given"],
)
def test_a_float_or_a_string_is_refused(kernel, bad):
    with pytest.raises(TypeError, match=f"^expected a rational scalar, got {bad!r}$"):
        kernel(bad)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ClassExpr(scroll_line().space, {"Z": 1}), ValueError, "unknown basis class 'Z'"),
        (lambda: SurfaceClass(RING, {"Z": 1}), ValueError, "unknown divisor 'Z'"),
        (lambda: BundleSpec(0, H, 0), ValueError, "rank must be positive"),
        (lambda: sym_power(OMEGA, -1), ValueError, "negative symmetric power"),
        (lambda: sym_power(BundleSpec(3, H, 0), 2), ValueError, "sym_power only supports rank-2 bundles"),
        (lambda: jet_chern(H, -1, OMEGA), ValueError, "negative jet order"),
        # the cotangent bundle's rank is checked once, by sym_power at i = 0
        (lambda: jet_chern(H, 2, BundleSpec(3, H, 0)), ValueError, "sym_power only supports rank-2 bundles"),
        (lambda: complement_in_box((3,), 2, 2), ValueError, r"partition \(3,\) does not fit in a 2x2 box"),
        (lambda: LinExpr.unknown("a") / 0, ZeroDivisionError, "division by zero"),
        (lambda: SchubertElement.sigma(G35, (1,)) / LinExpr(), ZeroDivisionError, "division by zero"),
    ],
    ids=["unknown-basis-class", "unknown-divisor", "rank-zero", "negative-symmetric-power",
         "symmetric-power-of-rank-3", "negative-jet-order", "jet-of-a-rank-3-cotangent-bundle",
         "complement-outside-the-box", "linexpr-over-zero", "class-over-a-zero-linexpr"],
)
def test_a_precondition_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_symmetric_powers_and_jets_of_int_data_have_int_coefficients():
    # e2 of the roots is halved exactly, so no division leaves a Fraction behind
    for bundle in (sym_power(OMEGA, 1), sym_power(BundleSpec(2, H, 5), 4), jet_chern(H, 2, OMEGA)):
        coefficients = [*bundle.c1.terms.values(), *bundle.c2.terms.values()]
        assert coefficients and all(type(c) is int for c in coefficients), bundle.c2
