"""End-to-end acceptance suite.

Ten headline checks, every comparison exact.  Each test prints a
one-line pass/fail verdict so a bare `pytest -s tests/test_acceptance.py`
reads as a checklist.
"""

import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from chowkit.curves import (
    odd_theta_count,
    plucker_solve,
    residual_degree,
)
from chowkit.grassmann import (
    GrassmannContext,
    SchubertElement,
    integrate,
    multiply,
    plucker_degree,
)
from chowkit.lattice import (
    ClassExpr,
    RuledLattice,
    adjunction_genus,
    genus_additivity,
    intersect,
)
from chowkit.linexpr import LinExpr, collapse, solve_linear
from chowkit.partitions import complement_in_box
from chowkit.surface import (
    BundleSpec,
    SurfaceRing,
    jet_chern,
    sym_power,
    triple_point_count,
)
from chowkit.worksheet import evaluate, parse, pretty_print

from _oracles import dual_characters, duality_pair, partitions_in_box, symbolic_surface

ROOT = pathlib.Path(__file__).resolve().parents[1]


def ws(name):
    return evaluate(parse((ROOT / "worksheets" / name).read_text(encoding="utf-8")))


def verdict(num, label, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_01_jet_c2_symbolic_identity():
    ring = symbolic_surface(("H", "K"))
    H = ring.divisor("H")
    K = ring.divisor("K")
    e = LinExpr.unknown("e")
    J = jet_chern(H, 2, BundleSpec(2, K, e))
    expected = (
        5 * LinExpr.unknown("K.K")
        + 20 * LinExpr.unknown("H.K")
        + 15 * LinExpr.unknown("H.H")
        + 5 * e
    )
    diff = J.c2 - expected
    verdict(
        1,
        "second-jet c2 equals 5K^2 + 20HK + 15H^2 + 5e symbolically",
        diff == 0,
    )


def test_criterion_02_triple_point_count_210():
    verdict(2, "triple-point count on the genus-4 K3 is 210", triple_point_count(6, 0, 0, 24) == 210)


def test_criterion_03_gr35_schubert_suite():
    ctx = GrassmannContext(3, 5)

    def sig(*lam):
        return SchubertElement.sigma(ctx, lam)

    # both middle-dimensional generators are self-dual in the 3x2 box
    ok = (
        duality_pair((1, 1, 1), (1, 1, 1), ctx) == 1
        and duality_pair((2, 1), (2, 1), ctx) == 1
        and duality_pair((1, 1, 1), (2, 1), ctx) == 0
        and duality_pair((2, 1), (1, 1, 1), ctx) == 0
        and integrate(multiply(sig(2, 1), sig(2, 1))) == 1
        and integrate(multiply(sig(1, 1, 1), sig(1, 1, 1))) == 1
        and integrate(multiply(sig(1, 1, 1), sig(2, 1))) == 0
    )
    cube = sig(1) * sig(1) * sig(1)
    ok = ok and cube.terms == {(1, 1, 1): 1, (2, 1): 2}
    sixth = cube * cube
    ok = ok and integrate(sixth) == 5
    # symbolic degree: a*[plane pencil class] + b*[point-line class] has
    # degree a + 2b
    a = LinExpr.unknown("a")
    b = LinExpr.unknown("b")
    sym = sig(1, 1, 1).scale(a) + sig(2, 1).scale(b)
    deg = plucker_degree(sym, 3)
    ok = ok and deg.coeffs == {"a": Fraction(1), "b": Fraction(2)} and deg.const == 0
    ok = ok and plucker_degree(sig(1, 1, 1).scale(120) + sig(2, 1).scale(16), 3) == 152
    verdict(3, "Gr(3,5) Schubert suite incl. symbolic degree a + 2b and 152", ok)


def test_criterion_04_gr24_bitangent_cycle_degree():
    ctx = GrassmannContext(2, 4)
    e = SchubertElement.sigma(ctx, (2,)).scale(60) + SchubertElement.sigma(
        ctx, (1, 1)
    ).scale(72)
    d = plucker_degree(e, 2)
    verdict(4, "line-cycle 60*s[2] + 72*s[1,1] has degree 132, scaled 792", d == 132 and 6 * d == 792)


def test_criterion_05_step1_worksheet_chain():
    report = ws("step1_bitangents.ws")
    values = dict(report.bindings)
    ok = report.all_passed and [
        values[k]
        for k in ("total", "polar_gamma", "e", "f", "D1", "D2", "Z1")
    ] == ["792", "36", "72", "540", "612", "18", "108"]
    verdict(5, "bitangent-scroll worksheet: 180/72/18/6, 36, 72, 540, 612, 18, 108", ok)


def test_criterion_06_step2_worksheet_chain():
    report = ws("step2_secants.ws")
    values = dict(report.bindings)
    ok = (
        report.all_passed
        and values["H2"] == "21"
        and values["pA"] == "88"
        and values["Z2"] == "90"
    )
    verdict(6, "secant-scroll worksheet: 21, -9, 33, 12, 36, 2, 108, 442, 139, 88, 90", ok)


def test_criterion_07_final_degree_16_and_152():
    report = ws("final_degree.ws")
    values = dict(report.bindings)
    ok = (
        report.all_passed
        and residual_degree(624, [(2, 108), (4, 90), (8, 4)]) == 16
        and values["degZS"] == "16"
        and values["degXS"] == "152"
    )
    verdict(7, "final assembly: residual 16 and total degree 152", ok)


def test_criterion_08_theta_suite():
    report = ws("theta_counts.ws")
    ok = (
        report.all_passed
        and odd_theta_count(4) == 120
        and odd_theta_count(3) == 28
        and residual_degree(120, [(2, 28)]) == 64
    )
    sol = solve_linear([LinExpr(64) + 28 * LinExpr.unknown("m") - 120], ["m"])
    ok = ok and sol["m"] == 2
    verdict(8, "theta counts 120/28, residual 64, multiplicity solve m=2", ok)


def test_criterion_09_randomized_property_suites():
    rng = random.Random(20260823)
    ok = True

    # Schubert associativity + duality orthogonality, >= 1000 cases
    ctxs = [GrassmannContext(2, 4), GrassmannContext(2, 5), GrassmannContext(3, 5), GrassmannContext(3, 6)]
    cases = 0
    for ctx in ctxs:
        opts = list(partitions_in_box(ctx.rows, ctx.cols))
        for _ in range(260):
            lam, mu, nu = (rng.choice(opts) for _ in range(3))
            a = SchubertElement.sigma(ctx, lam)
            b = SchubertElement.sigma(ctx, mu)
            c = SchubertElement.sigma(ctx, nu)
            ok = ok and multiply(multiply(a, b), c).terms == multiply(a, multiply(b, c)).terms
            comp = complement_in_box(lam, ctx.rows, ctx.cols)
            ok = ok and duality_pair(lam, comp, ctx) == 1
            cases += 1
    assert cases >= 1000

    # splitting-principle oracle for symmetric powers, >= 100 random bundles
    for _ in range(110):
        gram = {
            (x, y): Fraction(rng.randint(-6, 6))
            for x, y in itertools.combinations_with_replacement(("D", "E"), 2)
        }
        ring = SurfaceRing(("D", "E"), gram)
        c1 = rng.randint(-4, 4) * ring.divisor("D") + rng.randint(-4, 4) * ring.divisor("E")
        E = BundleSpec(2, c1, Fraction(rng.randint(-20, 20)))
        n = rng.randint(0, 5)
        S = sym_power(E, n)
        # oracle: pairwise root products at two root choices; the value
        # must agree (root-independence) and match the closed form
        aa = LinExpr.unknown("aa")
        ac1 = LinExpr.unknown("ac1")
        c1sq = collapse(ring.pair(E.c1.c1, E.c1.c1))
        c2 = collapse(E.c2)
        ab = ac1 - aa
        bb = c1sq - 2 * ac1 + aa

        def dot(i, j):
            return (
                i * j * aa
                + (i * (n - j) + j * (n - i)) * ab
                + (n - i) * (n - j) * bb
            )

        e2 = LinExpr(0)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                e2 = e2 + dot(i, j)
        v0 = collapse(e2.substitute({"ac1": Fraction(0), "aa": -c2}))
        v1 = collapse(e2.substitute({"ac1": Fraction(1), "aa": 1 - c2}))
        ok = ok and v0 == v1 and S.c2 == v0

    # adjunction additivity on random ruled lattices: attaching a fibre
    # (genus 0) through a nodes shifts the genus by a - 1, m times over
    for _ in range(200):
        x = rng.randint(-6, 6)
        kc = x + 2 * rng.randint(-4, 4)  # same parity keeps every genus integral
        lat = RuledLattice(("l", "F"))
        lat.set_gram("l", "F", 1)
        lat.set_gram("F", "F", 0)
        lat.set_gram("l", "l", x)
        lat.canonical = ClassExpr(lat, {"l": -2, "F": kc})
        a = rng.randint(1, 4)
        b = rng.randint(-6, 6)
        C = a * lat.generator("l") + b * lat.generator("F")
        m = rng.randint(0, 5)
        lhs = adjunction_genus(C + ClassExpr(lat, {"F": m}))
        expected = adjunction_genus(C)
        running = C
        for _ in range(m):
            fibre = lat.generator("F")
            expected = genus_additivity(expected, 0, intersect(running, fibre))
            running = running + fibre
        ok = ok and lhs == expected

    # Pluecker duality involution
    for _ in range(200):
        d = rng.randint(3, 10)
        nodes = rng.randint(0, min(4, (d - 1) * (d - 2) // 2))
        data = plucker_solve(d=d, nodes=nodes, cusps=0)
        ok = ok and dual_characters(dual_characters(data)) == data
        ok = ok and plucker_solve(**dual_characters(data))["genus"] == data["genus"]

    # worksheet parse/print round-trip on the shipped corpus
    for path in sorted((ROOT / "worksheets").glob("*.ws")):
        program = parse(path.read_text(encoding="utf-8"))
        ok = ok and parse(pretty_print(program)) == program

    verdict(9, "randomized property suites (>=1000 Schubert cases)", ok)


def test_criterion_10_bitangent_count_discrepancy_is_logged():
    data = plucker_solve(d=6, nodes=6, cusps=0)
    report = ws("step1_bitangents.ws")
    noted = any("96" in note and "72" in note for note in report.notes)
    consumed = dict(report.bindings).get("d") == "72"
    verdict(
        10,
        "raw bitangent count 96 vs consumed input 72, with a provenance note",
        data["bitangents"] == 96 and report.all_passed and noted and consumed,
    )
