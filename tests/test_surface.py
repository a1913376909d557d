"""Truncated Chern calculus on surfaces: jets, symmetric powers, tau."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowkit.linexpr import LinExpr, SpaceMismatch, collapse
from chowkit.surface import (
    BundleSpec,
    SurfaceRing,
    jet_chern,
    ring_product,
    sym_power,
    tensor_line,
    triple_point_count,
)
from chowkit.worksheet.builtins import BUILTINS

from _oracles import symbolic_surface


def k3_genus4_ring() -> SurfaceRing:
    """The numeric instance: K = 0, H^2 = 6, e = 24 enters via Omega."""
    return SurfaceRing(
        ["H", "K"],
        {("H", "H"): 6, ("H", "K"): 0, ("K", "K"): 0},
    )


def test_k3_ring_pairing():
    ring = k3_genus4_ring()
    H = ring.divisor("H")
    assert ring_product(H, H).c2 == 6
    K = ring.divisor("K")
    assert ring_product(H, K).c2 == 0


def test_ring_mismatch_rejected():
    r1 = k3_genus4_ring()
    r2 = k3_genus4_ring()
    with pytest.raises(SpaceMismatch):
        ring_product(r1.divisor("H"), r2.divisor("H"))


def test_whitney_product_truncates_at_degree_two():
    ring = k3_genus4_ring()
    H = ring.divisor("H")
    p = BundleSpec(1, H, 0)
    sq = p * p
    assert sq.c1 == H + H
    assert sq.c2 == 6


def test_tensor_line_rank_one_is_addition():
    ring = k3_genus4_ring()
    H = ring.divisor("H")
    L = BundleSpec(1, H, 0)
    tw = tensor_line(L, H)
    assert tw.c1 == H + H
    assert tw.c2 == LinExpr(0)


def random_ring(rng):
    gram = {
        (a, b): Fraction(rng.randint(-6, 6))
        for a, b in itertools.combinations_with_replacement(("D", "E"), 2)
    }
    return SurfaceRing(("D", "E"), gram)


def random_rank2(ring, rng):
    D = ring.divisor("D")
    E = ring.divisor("E")
    c1 = rng.randint(-4, 4) * D + rng.randint(-4, 4) * E
    return BundleSpec(2, c1, Fraction(rng.randint(-30, 30)))


def split_sym_oracle(E, n):
    """Symmetric power through explicit Chern roots a, b with a + b = c1.

    The roots of Sym^n are i*a + (n-i)*b; pairwise products reduce to
    the three pairings a.a, a.c1, c1^2 with a.b = c2 fixed.  The answer
    cannot depend on which root is which, so evaluate at two different
    choices of a.c1 and demand agreement; that certifies independence
    and gives the oracle value.
    """
    ring = E.c1.space
    c1sq = collapse(ring.pair(E.c1.c1, E.c1.c1))
    c2 = collapse(E.c2)
    aa = LinExpr.unknown("aa")
    ac1 = LinExpr.unknown("ac1")

    def dot(i, j):
        # (i a + (n-i) b).(j a + (n-j) b) with b = c1 - a
        ab = ac1 - aa
        bb = c1sq - 2 * ac1 + aa
        return i * j * aa + (i * (n - j) + j * (n - i)) * ab + (n - i) * (n - j) * bb

    e2 = LinExpr(0)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            e2 = e2 + dot(i, j)
    # impose a.b = c2, i.e. a.a = a.c1 - c2, at two root choices
    v0 = collapse(e2.substitute({"ac1": Fraction(0), "aa": -c2}))
    v1 = collapse(e2.substitute({"ac1": Fraction(1), "aa": 1 - c2}))
    assert v0 == v1, "oracle expansion should not depend on the root"
    return v0


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(0, 5))
def test_sym_power_matches_splitting_oracle(seed, n):
    rng = random.Random(seed)
    ring = random_ring(rng)
    E = random_rank2(ring, rng)
    S = sym_power(E, n)
    assert S.rank == n + 1
    assert S.c1 == (n * (n + 1) // 2) * E.c1
    assert S.c2 == split_sym_oracle(E, n)


def test_sym_power_low_cases():
    ring = k3_genus4_ring()
    H = ring.divisor("H")
    E = BundleSpec(2, H, Fraction(5))
    assert sym_power(E, 0) == BundleSpec(1, 0 * H, 0)
    assert sym_power(E, 1) == E
    S2 = sym_power(E, 2)
    # roots 2a, a+b, 2b: c1 = 3c1(E), c2 = 2c1^2 + 4c2... check directly
    assert S2.c1 == 3 * H
    assert S2.c2 == 2 * 6 + 4 * 5


def test_sym_power_rejects_other_ranks():
    ring = k3_genus4_ring()
    with pytest.raises(ValueError):
        sym_power(BundleSpec(3, ring.divisor("H"), 0), 2)


def test_whitney_sum_ranks_and_classes():
    ring = k3_genus4_ring()
    H = ring.divisor("H")
    L1 = BundleSpec(1, H, 0)
    L2 = BundleSpec(1, 2 * H, 0)
    S = L1 * L2
    assert S.rank == 2
    assert S.c1 == 3 * H
    assert S.c2 == 2 * 6  # H . 2H


def test_jet_bundle_second_order_on_k3():
    ring = k3_genus4_ring()
    H = ring.divisor("H")
    K = ring.divisor("K")
    omega = BundleSpec(2, K, 24)
    J = jet_chern(H, 2, omega)
    assert J.rank == 6
    assert J.c2 == 210


def test_jet_c2_matches_triple_point_formula_symbolically():
    ring = symbolic_surface(("H", "K"))
    ring.euler = LinExpr.unknown("e")
    pairings = [LinExpr.unknown(p) for p in ("H.H", "H.K", "K.K")]
    jet = BUILTINS["jet2_c2"].call([[ring.divisor("H")]], {})
    assert jet == BUILTINS["tau"].call([[*pairings, ring.euler]], {})


def jet2_c2_by_chern_roots(h2, hk, k2, e):
    """c2 of the second jet bundle of L on a surface, from explicit Chern roots.

    The roots of J^2(L) are L + i*a + j*b for i + j <= 2, where a and b are
    the roots of the cotangent bundle: a + b = K and a.b = e.  c2 is the sum
    of the products of pairs of roots.  The pairings L.a and a.a are free
    symbols, so the answer is taken at two choices of them, which must agree.
    """
    La, aa = LinExpr.unknown("La"), LinExpr.unknown("aa")
    Lb, bb = hk - La, k2 - 2 * e - aa  # L.b = L.K - L.a; b.b = K.K - 2 a.b - a.a

    def dot(r, s):
        (i, j), (k, l) = r, s
        return h2 + (i + k) * La + (j + l) * Lb + i * k * aa + (i * l + j * k) * e + j * l * bb

    roots = [(i, j) for i in range(3) for j in range(3 - i)]
    c2 = sum((dot(r, s) for r, s in itertools.combinations(roots, 2)), LinExpr(0))
    values = {collapse(c2.substitute({"La": x, "aa": y})) for x, y in ((0, 0), (1, 3))}
    assert len(values) == 1, "the roots' pairings should not matter"
    return values.pop()


surface_numbers = st.fractions(-30, 30, max_denominator=4)


@settings(max_examples=100, deadline=None)
@given(surface_numbers, surface_numbers, surface_numbers, surface_numbers)
def test_tau_matches_jet_c2_on_random_surfaces(h2, hk, k2, e):
    gram = {("H", "H"): h2, ("H", "K"): hk, ("K", "K"): k2}
    ring = SurfaceRing(("H", "K"), gram, euler=e)
    want = jet2_c2_by_chern_roots(h2, hk, k2, e)
    assert BUILTINS["jet2_c2"].call([[ring.divisor("H")]], {}) == want
    assert BUILTINS["tau"].call([[h2, hk, k2, e]], {}) == want


def test_triple_point_headline_value():
    assert triple_point_count(6, 0, 0, 24) == 210
    assert triple_point_count(Fraction(6), Fraction(0), Fraction(0), Fraction(24)) == 210
