"""Classical curve and scroll formulas."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    dual_characters,
    odd_refinements,
    reference_plucker_solve,
    secants_by_projection,
)
from chowkit import curves
from chowkit.curves import (
    MAX_EXPONENT,
    correspondence_coincidences,
    degeneration_multiplicity,
    hurwitz_ramification,
    odd_theta_count,
    plucker_solve,
    residual_degree,
    salmon_cayley,
    secant_plucker_degree,
)
from chowkit.grassmann import GrassmannContext, SchubertElement, multiply, integrate
from chowkit.linexpr import InconsistentSystem, UnderdeterminedSystem
from chowkit.worksheet.builtins import BUILTINS

CHARACTERS = ("d", "m", "nodes", "cusps", "bitangents", "flexes", "genus")


def test_plucker_nodal_sextic():
    data = plucker_solve(d=6, nodes=6, cusps=0)
    assert data == {
        "d": 6, "m": 18, "nodes": 6, "cusps": 0, "bitangents": 96, "flexes": 36, "genus": 4
    }
    assert tuple(data) == CHARACTERS


def test_plucker_smooth_quartic():
    data = plucker_solve(d=4, nodes=0, cusps=0)
    assert data["m"] == 12
    assert data["genus"] == 3
    assert data["bitangents"] == 28
    assert data["flexes"] == 24


def test_plucker_from_dual_side():
    data = plucker_solve(m=18, bitangents=96, flexes=36)
    assert data["d"] == 6
    assert data["nodes"] == 6
    assert data["cusps"] == 0
    assert tuple(data) == CHARACTERS


def test_plucker_dual_involution():
    data = plucker_solve(d=6, nodes=6, cusps=0)
    dd = dual_characters(data)
    assert dd["d"] == data["m"]
    assert dd["nodes"] == data["bitangents"]
    assert dd["cusps"] == data["flexes"]
    assert dual_characters(dd) == data
    # the dual data solves to the same curve characters
    assert plucker_solve(**dd)["genus"] == 4


def test_plucker_underdetermined_and_inconsistent():
    with pytest.raises(UnderdeterminedSystem):
        plucker_solve(d=6)
    with pytest.raises(InconsistentSystem):
        plucker_solve(d=6, nodes=6, cusps=0, genus=5)


def _typed(chars: dict) -> list:
    return [(n, type(v), v) for n, v in chars.items()]


def _pluecker_outcome(chars: dict):
    """The `pluecker{...}` record, or the message it raises."""
    try:
        return _typed(BUILTINS["pluecker"].call([], chars))
    except ValueError as exc:
        return str(exc)


# the (d, nodes) pairs of the worksheet-bulk suites' `pluecker{d=, nodes=}`
BULK_CURVES = [(d, nodes) for d in range(3, 9) for nodes in range((d - 1) * (d - 2) // 2 + 1)]


def test_pluecker_matches_the_solve_linear_path_on_the_bulk_curves(monkeypatch):
    builtin = []
    for d, nodes in BULK_CURVES:
        data = plucker_solve(d=d, nodes=nodes, cusps=0)
        assert _typed(data) == _typed(reference_plucker_solve(d=d, nodes=nodes, cusps=0))
        # the dual curve, solved from its own degree and singularities
        dual = dual_characters(data)
        given = {n: dual[n] for n in ("d", "nodes", "cusps")}
        assert plucker_solve(**given) == dual
        assert _typed(plucker_solve(**given)) == _typed(reference_plucker_solve(**given))
        builtin.append(_pluecker_outcome({"d": d, "nodes": nodes}))
    monkeypatch.setattr(curves, "plucker_solve", reference_plucker_solve)
    assert builtin == [_pluecker_outcome({"d": d, "nodes": n}) for d, n in BULK_CURVES]


@pytest.mark.parametrize(
    "given, error, message",
    [
        (
            dict(d=6, nodes=6, cusps=0, genus=5),
            InconsistentSystem,
            "relation violated on bitangents=96, cusps=0, d=6, flexes=36, genus=5, m=18, nodes=6",
        ),
        (
            dict(m=5, bitangents=0, flexes=0, d=3),
            InconsistentSystem,
            "relation violated on bitangents=0, d=3, flexes=0, m=5",
        ),
        (
            dict(d=6),
            UnderdeterminedSystem,
            "cannot determine: bitangents, cusps, flexes, genus, m, nodes",
        ),
        (
            dict(d=5, nodes=1),
            UnderdeterminedSystem,
            "cannot determine: bitangents, cusps, flexes, genus, m",
        ),
    ],
    ids=["inconsistent", "inconsistent-dual", "underdetermined", "underdetermined-partly"],
)
def test_plucker_solve_error_messages(given, error, message):
    for solve in (plucker_solve, reference_plucker_solve):
        with pytest.raises(error) as exc:
            solve(**given)
        assert str(exc.value) == message


def test_plucker_solve_rejects_an_unknown_character():
    with pytest.raises(ValueError, match="^unknown Pluecker character 'degree'$"):
        plucker_solve(degree=6, nodes=6)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(3, 12),
    st.integers(0, 4),
    st.integers(0, 2),
    st.sets(st.sampled_from(CHARACTERS)),
)
def test_plucker_solve_is_exact_or_underdetermined(d, nodes, cusps, given_names):
    m = d * (d - 1) - 2 * nodes - 3 * cusps
    flexes = 3 * d * (d - 2) - 6 * nodes - 8 * cusps
    truth = dict(
        d=d,
        m=m,
        nodes=nodes,
        cusps=cusps,
        bitangents=Fraction(m * (m - 1) - d - 3 * flexes, 2),
        flexes=flexes,
        genus=Fraction((d - 1) * (d - 2), 2) - nodes - cusps,
    )
    try:
        assert plucker_solve(**{n: truth[n] for n in given_names}) == truth
    except UnderdeterminedSystem:
        pass


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.integers(0, 3))
def test_plucker_genus_consistency(d, nodes):
    max_nodes = (d - 1) * (d - 2) // 2
    if nodes > max_nodes:
        nodes = max_nodes
    data = plucker_solve(d=d, nodes=nodes, cusps=0)
    assert data["genus"] == Fraction((d - 1) * (d - 2), 2) - nodes
    # class from genus: m = 2d + 2g - 2 for a nodal curve
    assert data["m"] == 2 * d + 2 * data["genus"] - 2


def test_hurwitz_examples():
    assert hurwitz_ramification(13, 4, 2) == 12
    assert hurwitz_ramification(4, 0, 6) == 18
    assert hurwitz_ramification(88, 22, 2) == 90
    assert hurwitz_ramification(0, 0, 2) == 2


def test_hurwitz_rejects_negative_ramification():
    with pytest.raises(ValueError, match=r"^invalid cover data: ramification -6 < 0$"):
        hurwitz_ramification(0, 2, 2)


def test_correspondence_coincidences():
    assert correspondence_coincidences(72, 540) == 612
    assert correspondence_coincidences(Fraction(1), Fraction(2)) == 3


def test_salmon_cayley_headline():
    deg, m1, m2, m3 = salmon_cayley(1, 6, 18, 0, 0, 36)
    assert (deg, m1, m2, m3) == (180, 72, 18, 6)


def test_salmon_cayley_three_skew_lines():
    # lines meeting three pairwise skew lines form a quadric surface
    deg, m1, m2, m3 = salmon_cayley(1, 1, 1, 0, 0, 0)
    assert deg == 2
    assert (m1, m2, m3) == (1, 1, 1)


def test_salmon_cayley_rejects_negative_input():
    with pytest.raises(ValueError, match="^scroll input data must be non-negative$"):
        salmon_cayley(1, 1, 1, 0, -1, 0)


def schubert_scroll_degree(n1, n2, n3):
    """Scroll of lines meeting three general curves, via Gr(2,4)."""
    ctx = GrassmannContext(2, 4)
    s1 = SchubertElement.sigma(ctx, (1,))
    e = multiply(multiply(s1.scale(n1), s1.scale(n2)), multiply(s1.scale(n3), s1))
    return integrate(e)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9))
def test_salmon_cayley_matches_schubert_oracle(n1, n2, n3):
    # no incidences: degree is the Schubert count 2 n1 n2 n3
    got = BUILTINS["salmon_cayley"].call([[n1, n2, n3], [0, 0, 0]], {})
    assert got == {
        "degree": schubert_scroll_degree(n1, n2, n3),
        "m1": n2 * n3,
        "m2": n1 * n3,
        "m3": n1 * n2,
    }


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 4),
)
def test_salmon_cayley_incidence_corrections(n1, n2, n3, i12, i13, i23):
    # clamp so every multiplicity stays non-negative
    i12 = min(i12, n1 * n2)
    i13 = min(i13, n1 * n3)
    i23 = min(i23, n2 * n3)
    if 2 * n1 * n2 * n3 < i23 * n1 + i13 * n2 + i12 * n3:
        return  # configuration with negative scroll degree is rejected
    deg, m1, m2, m3 = salmon_cayley(n1, n2, n3, i12, i13, i23)
    assert deg == 2 * n1 * n2 * n3 - (i23 * n1 + i13 * n2 + i12 * n3)
    assert m1 == n2 * n3 - i23
    assert m2 == n1 * n3 - i13
    assert m3 == n1 * n2 - i12


def test_secant_plucker_degree():
    assert secant_plucker_degree(6, 4) == 21
    # twisted cubic: 1 secant through a point, 3 in a plane
    assert secant_plucker_degree(3, 0) == 4


def test_odd_theta_counts():
    assert odd_theta_count(1) == 1
    assert odd_theta_count(2) == 6
    assert odd_theta_count(3) == 28
    assert odd_theta_count(4) == 120


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_odd_theta_counts_the_refinements_of_arf_invariant_one(g):
    assert BUILTINS["odd_theta"].call([[g]], {}) == odd_refinements(g)


@given(st.integers(3, 30), st.integers(0, 450))
def test_secant_pluecker_counts_the_nodes_of_a_projection(d, g):
    """Above g = C(d-1, 2) the projection would need a negative number of
    nodes, and the builtin refuses the genus."""
    if secants_by_projection(d, g) < comb(d, 2):
        with pytest.raises(ValueError, match="cannot have genus"):
            BUILTINS["secant_pluecker"].call([[d, g]], {})
    else:
        assert BUILTINS["secant_pluecker"].call([[d, g]], {}) == secants_by_projection(d, g)


@given(st.integers(1, 12))
def test_theta_counts_sum_to_all_characteristics(g):
    odd = odd_theta_count(g)
    even = 2 ** (g - 1) * (2 ** g + 1)
    assert odd + even == 4 ** g


class _NoArithmetic(int):
    """An int that fails the test if any power or difference is taken of it."""

    def _refuse(self, *_):
        raise AssertionError("arithmetic on a capped exponent")

    __pow__ = __rpow__ = __sub__ = __rsub__ = _refuse


@pytest.mark.parametrize(
    "formula, what",
    [(odd_theta_count, "genus"), (degeneration_multiplicity, "contact count")],
)
def test_exponent_cap_fires_before_the_power(formula, what):
    assert formula(MAX_EXPONENT) > 2 ** (MAX_EXPONENT - 1)
    for n in (MAX_EXPONENT + 1, 10**9):
        with pytest.raises(ValueError, match=f"^{what} {n} is above the cap of {MAX_EXPONENT}$"):
            formula(_NoArithmetic(n))


def test_degeneration_multiplicity():
    assert degeneration_multiplicity(1) == 2
    assert degeneration_multiplicity(2) == 4
    assert degeneration_multiplicity(3) == 8


def test_residual_degree_examples():
    assert residual_degree(792, [(1, 612), (4, 18)]) == 108
    assert residual_degree(624, [(2, 108), (4, 90), (8, 4)]) == 16


def test_residual_degree_rejects_overshoot():
    with pytest.raises(ValueError, match="^ledger residual -2 is negative$"):
        residual_degree(10, [(3, 4)])

