"""Schubert calculus: Littlewood-Richardson products and closed-form Pluecker
degrees, checked against the Pieri, Giambelli, duality and torus-localization
oracles."""

import gc
import itertools
import platform
import random
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chowkit.grassmann as grassmann
from chowkit.grassmann import (
    GrassmannContext,
    SchubertElement,
    _strip_product,
    integrate,
    lr_coefficient,
    multiply,
    plucker_degree,
)
from chowkit.linexpr import LinExpr, NonlinearError, SpaceMismatch
from chowkit.partitions import (
    complement_in_box,
    conjugate,
    fits_in_box,
    weight,
)
from chowkit.worksheet.builtins import BUILTINS

from _oracles import (
    duality_pair,
    localized_integral,
    partitions_in_box,
    pieri,
    pieri_degree,
    reference_lr_product,
)

G24 = GrassmannContext(2, 4)
G25 = GrassmannContext(2, 5)
G35 = GrassmannContext(3, 5)
G48 = GrassmannContext(4, 8)
STAIRCASE = (5, 4, 3, 2, 1)
A, B = LinExpr.unknown("a"), LinExpr.unknown("b")


def sig(ctx, *lam):
    return SchubertElement.sigma(ctx, lam)


def hook_count(lam):
    """Standard Young tableaux of shape lam, by the hook-length formula."""
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return factorial(weight(lam)) // hooks


def test_context_basics():
    assert G35.rows == 3 and G35.cols == 2
    assert G35.dimension == 6
    assert G35.top_partition == (2, 2, 2)
    assert G24.dimension == 4


def test_pieri_square_of_hyperplane_gr24():
    e = pieri(sig(G24, 1), 1)
    assert e.terms == {(2,): 1, (1, 1): 1}


def test_hyperplane_cube_gr35():
    e = sig(G35, 1) * sig(G35, 1) * sig(G35, 1)
    assert e.terms == {(1, 1, 1): 1, (2, 1): 2}


def test_hyperplane_powers_integrate_to_degree():
    # deg Gr(2,4) = 2, deg Gr(2,5) = 5, deg Gr(3,5) = 5, and deg Gr(k,2k)
    # is the number of standard tableaux of the k x k box
    boxes = [(GrassmannContext(k, 2 * k), hook_count((k,) * k)) for k in range(1, 6)]
    for ctx, expected in [(G24, 2), (G25, 5), (G35, 5)] + boxes:
        e = sig(ctx, 1)
        acc = e
        for _ in range(ctx.dimension - 1):
            acc = acc * e
        assert integrate(acc) == expected


def test_lr_coefficient_examples():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (2, 2, 1, 1)) == 1
    assert lr_coefficient((2,), (1, 1), (2, 2)) == 0
    assert lr_coefficient((2,), (1, 1), (3, 1)) == 1
    assert lr_coefficient((2,), (1, 1), (2, 1, 1)) == 1
    # the empty content runs no strip: each seed is its own final state
    for lam in [(), (1,), (2, 1), (3, 3, 1)]:
        assert lr_coefficient(lam, (), lam) == 1


def test_duality_pairs_gr35():
    # s[2,2,2] is the point class; complementary pairs integrate to 1
    assert duality_pair((2, 2), (2,), G35) == 1
    assert duality_pair((2, 2, 2), (), G35) == 1
    assert duality_pair((1,), (2, 2, 1), G35) == 1
    assert duality_pair((1, 1), (2, 2), G35) == 0
    assert duality_pair((2, 1), (2, 1), G35) == 1
    assert duality_pair((1, 1, 1), (2, 1), G35) == 0


def test_duality_requires_complementary_weight():
    with pytest.raises(ValueError, match=r"^weights 1 \+ 1 != dim 6$"):
        duality_pair((1,), (1,), G35)


def test_context_mismatch_rejected():
    with pytest.raises(SpaceMismatch):
        multiply(sig(G24, 1), sig(G35, 1))


def test_plucker_degree_examples():
    # the two generators of codimension 3 on Gr(3,5)
    assert plucker_degree(sig(G35, 1, 1, 1), 3) == 1
    assert plucker_degree(sig(G35, 2, 1), 3) == 2
    # line counts on Gr(2,4)
    assert plucker_degree(sig(G24, 2), 2) == 1
    assert plucker_degree(sig(G24, 1, 1), 2) == 1
    # headline combinations
    e = sig(G24, 2).scale(60) + sig(G24, 1, 1).scale(72)
    assert plucker_degree(e, 2) == 132
    f = sig(G35, 1, 1, 1).scale(120) + sig(G35, 2, 1).scale(16)
    assert plucker_degree(f, 3) == 152


def test_integrate_returns_a_fraction_or_a_linexpr():
    built = SchubertElement(G35, {(1, 1, 1): 120, (2, 1): 16})  # int coefficients
    via_sigma = sig(G35, 1, 1, 1).scale(120) + sig(G35, 2, 1).scale(16)
    for e in (built, via_sigma):
        degree = plucker_degree(e, 3)
        assert type(degree) is Fraction and degree == 152
    absent = integrate(sig(G35, 1))
    assert type(absent) is Fraction and absent == 0
    a = LinExpr.unknown("a")
    assert integrate(SchubertElement(G35, {(2, 2, 2): a})) == a


def test_plucker_degree_rejects_mixed_codimension():
    e = sig(G35, 1) + sig(G35, 2)
    with pytest.raises(ValueError, match="^element is not pure of codimension 3$"):
        plucker_degree(e, 3)


def test_symbolic_coefficients_stay_linear():
    a = LinExpr.unknown("a")
    b = LinExpr.unknown("b")
    e = sig(G35, 1, 1, 1).scale(a) + sig(G35, 2, 1).scale(b)
    prod = multiply(e, sig(G35, 1) * sig(G35, 1) * sig(G35, 1))
    top = prod.terms[(2, 2, 2)]
    assert top.coeffs == {"a": Fraction(1), "b": Fraction(2)}


def test_symbolic_coefficients_print_in_parentheses():
    a = LinExpr.unknown("a")
    assert str((a + 1) * sig(G24, 1)) == "(a + 1)*s[1]"
    assert str(sig(G24, 2) - a * sig(G24, 1, 1)) == "(-a)*s[1,1] + s[2]"


ctxs = st.sampled_from([G24, G25, G35, GrassmannContext(2, 6)])


def random_partition(ctx, rng):
    opts = list(partitions_in_box(ctx.rows, ctx.cols))
    return rng.choice(opts)


@settings(max_examples=60, deadline=None)
@given(ctxs, st.integers(0, 10 ** 9))
def test_multiply_commutes_and_associates(ctx, seed):
    rng = random.Random(seed)
    a = sig(ctx, *random_partition(ctx, rng))
    b = sig(ctx, *random_partition(ctx, rng))
    c = sig(ctx, *random_partition(ctx, rng))
    assert multiply(a, b).terms == multiply(b, a).terms
    assert multiply(multiply(a, b), c).terms == multiply(a, multiply(b, c)).terms


@settings(max_examples=60, deadline=None)
@given(ctxs, st.integers(1, 4), st.integers(0, 10 ** 9))
def test_pieri_agrees_with_multiply(ctx, a, seed):
    rng = random.Random(seed)
    lam = random_partition(ctx, rng)
    if a > ctx.cols:
        a = ctx.cols
    via_pieri = pieri(sig(ctx, *lam), a)
    via_lr = multiply(sig(ctx, *lam), sig(ctx, a))
    assert via_pieri.terms == via_lr.terms


def giambelli_product(lam: tuple, mu: tuple, ctx: GrassmannContext) -> SchubertElement:
    """Oracle for `multiply`: expand both factors as Giambelli determinants
    in one-row classes and evaluate using only iterated Pieri products."""
    out = SchubertElement(ctx, {})
    one = SchubertElement(ctx, {(): Fraction(1)})
    for sign1, rows1 in _giambelli_terms(lam):
        for sign2, rows2 in _giambelli_terms(mu):
            term = one
            for a in rows1 + rows2:
                term = pieri(term, a)
            out = out + (sign1 * sign2) * term
    return out


def _giambelli_terms(lam: tuple):
    """Signed monomials of det(h_{lam_i + j - i}): (sign, row sizes)."""
    n = len(lam)
    if n == 0:
        yield 1, ()
        return
    for perm in permutations(range(n)):
        rows = []
        ok = True
        for i in range(n):
            a = lam[i] + perm[i] - i
            if a < 0:
                ok = False
                break
            rows.append(a)
        if ok:
            yield _sign(perm), tuple(rows)


def _sign(perm) -> int:
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([G24, G25, G35, GrassmannContext(2, 6), G48, GrassmannContext(3, 7)]),
    st.integers(0, 10 ** 9),
)
def test_giambelli_oracle_matches_lr_multiply(ctx, seed):
    # determinantal expansion through Pieri only, checked against LR
    rng = random.Random(seed)
    lam = random_partition(ctx, rng)
    mu = random_partition(ctx, rng)
    assert giambelli_product(lam, mu, ctx).terms == multiply(
        sig(ctx, *lam), sig(ctx, *mu)
    ).terms


@settings(max_examples=60, deadline=None)
@given(ctxs, st.integers(0, 10 ** 9))
def test_integral_of_product_matches_duality(ctx, seed):
    rng = random.Random(seed)
    lam = random_partition(ctx, rng)
    mu = complement_in_box(lam, ctx.rows, ctx.cols)
    assert integrate(multiply(sig(ctx, *lam), sig(ctx, *mu))) == duality_pair(
        lam, mu, ctx
    )
    assert duality_pair(lam, mu, ctx) == 1


def test_duality_orthogonality_full_scan():
    # across all of Gr(3,5): <lam, mu> = 1 iff mu is the box complement
    for lam, mu in itertools.product(partitions_in_box(3, 2), repeat=2):
        if weight(lam) + weight(mu) != 6:
            continue
        want = 1 if mu == complement_in_box(lam, 3, 2) else 0
        assert duality_pair(lam, mu, G35) == want


def staircase_square(k):
    ctx = GrassmannContext(k, 2 * k)
    return multiply(sig(ctx, *STAIRCASE), sig(ctx, *STAIRCASE)).terms


def test_staircase_square_satisfies_hook_length_identity():
    # sum_nu c^nu f^nu = C(|lam|+|mu|, |lam|) f^lam f^mu; nothing is
    # truncated in the 10 x 10 box
    total = sum(c * hook_count(nu) for nu, c in staircase_square(10).items())
    assert total == comb(30, 15) * hook_count(STAIRCASE) ** 2


def test_truncated_staircase_square_is_the_restricted_square():
    big, small = staircase_square(10), staircase_square(7)
    assert small == {nu: c for nu, c in big.items() if fits_in_box(nu, 7, 7)}
    assert len(small) < len(big)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_lr_coefficient_matches_multiply(seed):
    rng = random.Random(seed)
    lam = random_partition(G48, rng)
    mu = random_partition(G48, rng)
    product = multiply(sig(G48, *lam), sig(G48, *mu)).terms
    for nu in partitions_in_box(4, 4, weight(lam) + weight(mu)):
        assert lr_coefficient(lam, mu, nu) == product.get(nu, 0)


def partitions(rows, cols, min_rows=0):
    """Partitions of min_rows to rows rows, each at most cols long."""
    return st.lists(st.integers(1, cols), min_size=min_rows, max_size=rows).map(
        lambda parts: tuple(sorted(parts, reverse=True))
    )


@st.composite
def lr_cases(draw):
    """(lam, mu, outer) with lam and mu in a box up to 7 x 7.  The outer
    bound is the box, a nu of the box product (as `lr_coefficient` passes
    it; it may have fewer rows than the box), or any partition with rows
    enough for lam and mu, which need not contain them."""
    k, c = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    lam, mu = draw(partitions(k, c)), draw(partitions(k, c))
    box = (c,) * k
    kind = draw(st.sampled_from(["box", "nu", "any"]))
    if kind == "any":
        return lam, mu, draw(partitions(7, 7, min_rows=max(len(lam), len(mu))))
    nus = sorted(reference_lr_product(lam, mu, box)) if kind == "nu" else []
    return lam, mu, draw(st.sampled_from(nus)) if nus else box


@settings(max_examples=400, deadline=None)
@given(lr_cases())
# the larger factor sticks out of outer in one row while other rows have
# room for the strip: the branch is dead, and a kernel that stepped over
# negative room would keep it
@example(((7, 3), (2,), (4, 3, 2, 1, 1, 1)))
# the one-cell last strip meets a row that sticks out of outer: the answer
# is {}, and a scan that stepped over that row would give {(7, 5, 3, 1): 1}
@example(((5, 4, 3), (3, 1), (7, 5, 1, 1)))
# the one-cell strip of 2s on states whose first row has zero ceiling: a
# scan from row 0 would put a 2 with no 1 above it
@example(((2, 1), (2, 1), (3, 3, 3)))
# s(2,2,1)^2 in Gr(3,5): every state dies at the first label
@example(((2, 2, 1), (2, 2, 1), (2, 2, 2)))
# the strip of 2s is followed by a one-cell strip: every next ceiling has
# a zero prefix and is shared
@example(((3, 2), (2, 1), (5, 4, 2)))
# the strip of 3s under a cap of 2 can leave a nonzero prefix, which is
# built afresh
@example(((3, 2, 1), (3, 2), (6, 4, 3, 1)))
# a one-cell strip that is not the last one shares its next ceiling
@example(((2, 1), (1, 1), (3, 2, 1, 1)))
def test_lr_product_matches_the_reference_kernel(case):
    lam, mu, outer = case
    if len(mu) > len(lam):  # the content has fewer rows, as lr_coefficient takes it
        lam, mu = mu, lam
    assert _strip_product({lam: 1}, mu, outer) == reference_lr_product(lam, mu, outer)



def per_pair_product(e1: SchubertElement, e2: SchubertElement) -> SchubertElement:
    """`multiply` as it was: one reference strip product per pair of terms."""
    box = e1.ctx.top_partition
    return SchubertElement._make(e1.ctx, (
        (nu, m * c1 * c2)
        for lam, c1 in e1.terms.items()
        for mu, c2 in e2.terms.items()
        for nu, m in reference_lr_product(lam, mu, box).items()
    ))


coefficients = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(2, 4)),
    st.builds(
        lambda x, k, j: k * x + j,
        st.sampled_from([A, B]),
        st.integers(-2, 2).filter(bool),
        st.sampled_from([0, 1, -2, Fraction(1, 2)]),
    ),
)


@st.composite
def factor_pairs(draw):
    """Two elements of 1-4 terms in a box up to 5 x 5."""
    k, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    ctx = GrassmannContext(k, k + c)
    shapes = st.sampled_from(list(partitions_in_box(k, c)))
    e1, e2 = (
        SchubertElement(ctx, draw(st.dictionaries(shapes, coefficients, min_size=1, max_size=4)))
        for _ in range(2)
    )
    return e1, e2


@settings(max_examples=200, deadline=None)
@given(factor_pairs())
# the unknowns of a*s[2] and -a*s[1,1] cancel in the seeded count of s[2,1],
# while each pair's own product with b*s[1] is not linear
@example((SchubertElement(G24, {(2,): A, (1, 1): -A}), SchubertElement(G24, {(1,): B})))
# a*s[2,2] * b*s[1] is zero in the box, so it raises nothing
@example((SchubertElement(G24, {(2, 2): A, (1,): 1}), SchubertElement(G24, {(1,): B})))
@example((sig(G35, 1, 1, 1).scale(120) + sig(G35, 2, 1).scale(16), sig(G35, 1) * sig(G35, 1) * sig(G35, 1)))
# the s[3] coefficient sums to -3 in both; the seeded sum cancels b and
# the constant, so the type follows the last addend unless collapse fixes it
@example((
    SchubertElement(GrassmannContext(1, 4), {(): 2, (1,): -3, (2,): Fraction(1), (3,): B + 1}),
    SchubertElement(GrassmannContext(1, 4), {(3,): B + 1, (): Fraction(1), (1,): -3, (2,): B + 1}),
))
# one content term: every term of the pass cancels, so the product is 0
@example((SchubertElement(G24, {(2,): 1, (1, 1): -1}), sig(G24, 1)))
# one content term: the unknowns cancel in the seeded count of s[2,1],
# whose coefficient is the int 1
@example((SchubertElement(G24, {(2,): A, (1, 1): 1 - A}), sig(G24, 1)))
def test_multiply_matches_the_per_pair_sum(pair):
    e1, e2 = pair
    try:
        want = per_pair_product(e1, e2)
    except NonlinearError:
        with pytest.raises(NonlinearError):
            multiply(e1, e2)
        return
    got = multiply(e1, e2)
    assert got.terms == want.terms
    assert {nu: type(c) for nu, c in got.terms.items()} == {nu: type(c) for nu, c in want.terms.items()}
    assert str(got) == str(want)


def test_multiply_runs_one_strip_product_per_content_term(monkeypatch):
    passes = []
    kernel = grassmann._strip_product

    def counted(seeds, mu, outer):
        passes.append(mu)
        return kernel(seeds, mu, outer)

    monkeypatch.setattr(grassmann, "_strip_product", counted)
    ctx = GrassmannContext(3, 6)
    e = SchubertElement(ctx, {(1,): 2, (2,): 1, (1, 1): -1, (2, 1): Fraction(1, 2), (3,): 5})
    assert multiply(e, sig(ctx, 1)) == per_pair_product(e, sig(ctx, 1))
    assert passes == [(1,)]  # one pass seeded with all five terms, not five


@pytest.mark.parametrize("ctx", [GrassmannContext(14, 28), GrassmannContext(10, 20)], ids=["gr1428", "gr1020"])
def test_multiply_cuts_the_box_to_the_rows_a_product_reaches(ctx, monkeypatch):
    outers = []
    kernel = grassmann._strip_product

    def recorded(seeds, mu, outer):
        outers.append(len(outer))
        return kernel(seeds, mu, outer)

    monkeypatch.setattr(grassmann, "_strip_product", recorded)
    e1 = SchubertElement(ctx, {(2, 1): A + 1, (3,): 2, (1, 1, 1): Fraction(1, 2)})
    e2 = SchubertElement(ctx, {(2, 2): 1, (1,): -3})
    got, want = multiply(e1, e2), per_pair_product(e1, e2)  # the reference walks the full box
    assert got.terms == want.terms and str(got) == str(want)
    assert {nu: type(c) for nu, c in got.terms.items()} == {nu: type(c) for nu, c in want.terms.items()}
    # the deepest seed has 3 rows, and each content term adds at most its own
    assert outers == [5, 4]
    # the nonlinearity pass runs on the cut box too, and finds a*s[2,1] * b*s[1]
    outers.clear()
    with pytest.raises(NonlinearError):
        per_pair_product(e1, SchubertElement(ctx, {(1,): B, (2,): 1}))
    with pytest.raises(NonlinearError):
        multiply(e1, SchubertElement(ctx, {(1,): B, (2,): 1}))
    assert outers == [4]


def test_a_product_past_the_state_budget_is_refused_part_way(monkeypatch):
    # s(5,4,3,2,1)^2 in Gr(10,20) makes 4,519 states over its five strips
    monkeypatch.setattr(grassmann, "MAX_STATES", 1000)
    ctx = GrassmannContext(10, 20)
    with pytest.raises(ValueError, match=r"^Schubert product needs more than 1000 strip states") as exc:
        multiply(sig(ctx, *STAIRCASE), sig(ctx, *STAIRCASE))
    # checked once per input state, so it fires within one state's output
    # past the budget: after real work, and long before the product's end
    made = int(exc.value.args[0].rpartition("stopped at ")[2].rstrip(")"))
    assert 1000 < made <= 1100
    monkeypatch.setattr(grassmann, "MAX_STATES", 4519)
    assert len(multiply(sig(ctx, *STAIRCASE), sig(ctx, *STAIRCASE)).terms) == 1433


@pytest.mark.skipif(platform.python_implementation() != "CPython", reason="CPython's GC")
# s(2,2,1)^2 in Gr(3,5) prunes every state at once; in Gr(10,20),
# s(5,4,3,2,1)^2 keeps 1,433
@pytest.mark.parametrize(
    "lam, box", [((2, 2, 1), (2, 2, 2)), ((5, 4, 3, 2, 1), (10,) * 10)], ids=["gr35", "gr1020"]
)
def test_lr_product_leaves_no_cyclic_garbage(lam, box):
    gc.collect()
    gc.disable()
    try:
        _strip_product({lam: 1}, lam, box)
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([5, 6]), st.integers(0, 10 ** 9))
def test_untruncated_products_satisfy_the_hook_length_identity(k, seed):
    # factors of 4 or 5 rows in the k x k box of Gr(k, 2k); an outer bound of
    # lam_1 + mu_1 columns and len(lam) + len(mu) rows cuts off no nu, so
    # sum_nu c^nu f^nu = C(|lam|+|mu|, |lam|) f^lam f^mu
    rng = random.Random(seed)
    lam, mu = (
        tuple(sorted((rng.randint(1, k) for _ in range(rng.randint(4, 5))), reverse=True))
        for _ in range(2)
    )
    product = _strip_product({lam: 1}, mu, (lam[0] + mu[0],) * (len(lam) + len(mu)))
    total = sum(c * hook_count(nu) for nu, c in product.items())
    assert total == comb(weight(lam) + weight(mu), weight(lam)) * hook_count(lam) * hook_count(mu)


WALKED = [(2, 4), (2, 6), (3, 5), (3, 6), (3, 7), (4, 8), (4, 9), (5, 9)]


def test_plucker_degree_matches_the_pieri_walk_on_every_class():
    classes = 0
    for k, n in WALKED:
        ctx = GrassmannContext(k, n)
        for lam in partitions_in_box(ctx.rows, ctx.cols):
            e, dim = sig(ctx, *lam), ctx.dimension - weight(lam)
            degree, walked = plucker_degree(e, dim), pieri_degree(e, dim)
            assert degree == walked and type(degree) is type(walked), (ctx, lam)
            classes += 1
    assert classes == 408



@pytest.mark.parametrize(
    "e, dim, want",
    [
        (A * sig(G35, 1, 1, 1) + B * sig(G35, 2, 1), 3, A + 2 * B),
        (A * sig(G35, 1, 1, 1) - (A / 2) * sig(G35, 2, 1), 3, Fraction(0)),
        (SchubertElement(G35, {}), -3, Fraction(0)),
        (SchubertElement(G35, {}), 99, Fraction(0)),
    ],
    ids=["symbolic", "cancelling", "empty-below", "empty-above"],
)
def test_plucker_degree_edge_cases_match_the_pieri_walk(e, dim, want):
    for degree in (plucker_degree(e, dim), pieri_degree(e, dim)):
        assert degree == want and type(degree) is type(want)


def test_mixed_codimension_is_a_grading_error_for_both_degrees():
    e = sig(G35, 1) + sig(G35, 2)
    for degree in (plucker_degree, pieri_degree):
        with pytest.raises(ValueError, match="^element is not pure of codimension 3$"):
            degree(e, 3)


def test_localization_gives_the_paper_numbers():
    assert localized_integral(G24, [], 4, seed=1) == 2
    headline = 120 * localized_integral(G35, [(1, 1, 1)], 3, seed=2)
    headline += 16 * localized_integral(G35, [(2, 1)], 3, seed=3)
    assert headline == 152


LOCALIZED = [G24, G25, G35, GrassmannContext(2, 6), GrassmannContext(3, 6),
             GrassmannContext(3, 7), G48]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LOCALIZED), st.integers(0, 10 ** 9))
def test_integrals_match_torus_localization(ctx, seed):
    # int s[lam] * s[mu] * s[1]^d over the whole box, by the worksheet builtins
    # `integrate` of the LR product and `pdeg`, the closed-form degree, against
    # localization at the torus fixed points
    rng = random.Random(seed)
    lam = random_partition(ctx, rng)
    mu = rng.choice([
        mu for mu in partitions_in_box(ctx.rows, ctx.cols)
        if weight(lam) + weight(mu) <= ctx.dimension
    ])
    d = ctx.dimension - weight(lam) - weight(mu)
    want = localized_integral(ctx, [lam, mu], d, seed)
    product = multiply(sig(ctx, *lam), sig(ctx, *mu))
    power = sig(ctx)
    for _ in range(d):
        power = multiply(power, sig(ctx, 1))
    assert BUILTINS["integrate"].call([[multiply(product, power)]], {}) == want
    assert BUILTINS["pdeg"].call([[product, d]], {}) == want
