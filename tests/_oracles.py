"""Enumeration helpers and slow reference computations that tests share."""

import random
import re
from fractions import Fraction
from itertools import chain, combinations, permutations
from math import comb, factorial, prod
from numbers import Rational
from typing import NamedTuple

from chowkit.curves import CHARACTERS, plucker_solve
from chowkit.grassmann import SchubertElement, complement_in_box, integrate, partition
from chowkit.linexpr import (
    ONE,
    InconsistentSystem,
    LinExpr,
    NonlinearError,
    SpaceMismatch,
    UnderdeterminedSystem,
    collapse,
    solve_linear,
)
from chowkit.surface import SurfaceRing
from chowkit.worksheet.parse import WorksheetSyntaxError


def partitions_in_box(rows: int, cols: int, total: int | None = None):
    """All partitions fitting in a rows x cols box, optionally of fixed weight."""

    def rec(maxpart, remaining_rows):
        yield ()
        if remaining_rows == 0:
            return
        for first in range(1, maxpart + 1):
            for rest in rec(first, remaining_rows - 1):
                yield (first,) + rest

    for lam in rec(cols, rows):
        if total is None or sum(lam) == total:
            yield lam


def bilinear_sum(form, u: dict, v: dict):
    """sum(u[a] * v[b] * (a.b)) over an intersection form, one product at a
    time through the public LinExpr arithmetic."""
    total = LinExpr(0)
    for a, ca in u.items():
        for b, cb in v.items():
            try:
                entry = form.gram[(a, b)]
            except KeyError:
                raise ValueError(f"intersection number {a}.{b} was never declared")
            total = total + ca * cb * entry
    return total


def symbolic_surface(basis) -> SurfaceRing:
    """The surface ring whose pairings are the free symbols `a.b`."""
    basis = tuple(basis)
    gram = {}
    for i, a in enumerate(basis):
        for b in basis[i:]:
            gram[(a, b)] = LinExpr.unknown(f"{a}.{b}")
    return SurfaceRing(basis, gram)


# `Combination`'s arithmetic as it was when every operation re-summed its
# terms: each builds its (key, coefficient) pairs and sums them afresh.


def _resummed(like, pairs):
    """The combination of `like`'s class and space that is sum(c * key)."""
    terms = {}
    for key, c in pairs:
        terms[key] = terms[key] + c if key in terms else c
    out = type(like).__new__(type(like))
    out.space = like.space
    out.terms = {key: collapse(c) for key, c in terms.items() if c}
    return out


def _resummed_operand(x, other):
    if isinstance(other, Rational) and x.unit is not None:
        return _resummed(x, ((x.unit, other),))
    if type(other) is not type(x):
        raise TypeError(f"cannot combine {type(x).__name__} with {type(other).__name__}")
    if other.space != x.space:
        raise SpaceMismatch(f"{type(x).__name__}s live on different spaces")
    return other


def resummed_add(x, y):
    y = _resummed_operand(x, y)
    return _resummed(x, chain(x.terms.items(), y.terms.items()))


def resummed_scale(x, k):
    return _resummed(x, ((key, k * c) for key, c in x.terms.items()))


def resummed_sub(x, y):
    return resummed_add(x, resummed_scale(_resummed_operand(x, y), -1))


def resummed_substitute(x, assignment: dict):
    keys = assignment if isinstance(x, LinExpr) else ()
    return _resummed(x, (
        (ONE, c * assignment[key]) if key in keys
        else (key, resummed_substitute(c, assignment) if isinstance(c, LinExpr) else c)
        for key, c in x.terms.items()
    ))


def pieri(e: SchubertElement, a: int) -> SchubertElement:
    """Multiply by the special class s[a]: add a horizontal a-strip."""
    if a < 0:
        raise ValueError("Pieri index must be non-negative")
    if a == 0:
        return e
    ctx = e.space
    return SchubertElement._make(ctx, (
        (mu, c)
        for lam, c in e.terms.items()
        for mu in _horizontal_strips(lam, a, ctx.rows, ctx.cols)
    ))


def _horizontal_strips(lam: tuple, a: int, rows: int, cols: int) -> list:
    """Partitions mu in the box with mu/lam a horizontal strip of size a."""
    lam = tuple(lam) + (0,) * (rows - len(lam))
    mu = list(lam)
    out = []

    def rec(i, remaining):
        if remaining == 0:
            n = rows
            while n and not mu[n - 1]:
                n -= 1
            out.append(tuple(mu[:n]))
            return
        # strip condition: mu[i] <= lam[i-1]; box: mu[0] <= cols
        high = cols if i == 0 else lam[i - 1]
        if remaining > high - lam[-1]:
            return  # rows i.. hold at most high - lam[rows-1] more cells
        for add in range(min(high - lam[i], remaining) + 1):
            mu[i] = lam[i] + add
            rec(i + 1, remaining - add)
        mu[i] = lam[i]

    rec(0, a)
    return out


def pieri_degree(e: SchubertElement, dim: int):
    """Degree in the Pluecker embedding by walking the box: integrate e after
    `dim` Pieri products with s[1]."""
    codim = e.space.dimension - dim
    if any(sum(lam) != codim for lam in e.terms):
        raise ValueError(f"element is not pure of codimension {codim}")
    for _ in range(dim):
        e = pieri(e, 1)
    return integrate(e)


def duality_pair(lam, mu, ctx) -> int:
    """Poincare pairing of two Schubert classes of complementary weight."""
    lam, mu = partition(lam), partition(mu)
    if sum(lam) + sum(mu) != ctx.dimension:
        raise ValueError(
            f"weights {sum(lam)} + {sum(mu)} != dim {ctx.dimension}"
        )
    return 1 if mu == complement_in_box(lam, ctx.rows, ctx.cols) else 0


def localized_integral(ctx, factors, d: int, seed: int) -> Fraction:
    """The integral over Gr(k, n) of prod(s[lam] for lam in factors) * s[1]^d,
    by Atiyah-Bott localization (Ellingsrud and Stromme, "Bott's formula and
    enumerative geometry", JAMS 1996), for a product of degree dim Gr(k, n).

    A torus with distinct integer weights t (drawn from `seed`) fixes the
    coordinate k-planes, one for each k-subset I of range(n); the tangent
    weights there are t[j] - t[i] for i in I and j not in I.  The quotient
    bundle restricts to the weights Q = {t[j] : j not in I}, so s[a] is the
    elementary symmetric function e_a(Q) and s[lam] the Giambelli
    determinant det(e_{lam[i] + j - i}(Q)).  The sum over the fixed points
    of the restricted integrand over the product of the tangent weights is
    the integral, whatever the weights.
    """
    k, n = ctx.k, ctx.n
    t = random.Random(seed).sample(range(-20 * n, 20 * n), n)
    total = Fraction(0)
    for subset in combinations(range(n), k):
        q = [t[j] for j in range(n) if j not in subset]
        e = [1]  # e[a] = e_a(q), built one variable at a time
        for x in q:
            e = [a + x * b for a, b in zip(e + [0], [0] + e)]
        restricted = sum(q) ** d * prod(_giambelli(lam, e) for lam in factors)
        euler = prod(t[j] - t[i] for i in subset for j in range(n) if j not in subset)
        total += Fraction(restricted, euler)
    return total


def _giambelli(lam: tuple, e: list) -> int:
    """det(e[lam[i] + j - i]) by the Leibniz expansion; e[a] is 0 off its range."""
    size = len(lam)

    def entry(i, j):
        a = lam[i] + j - i
        return e[a] if 0 <= a < len(e) else 0

    total = 0
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        total += (-1) ** inversions * prod(entry(i, perm[i]) for i in range(size))
    return total


def reference_lr_product(lam: tuple, mu: tuple, outer: tuple) -> dict:
    """{nu: c^nu_{lam,mu}} over the partitions nu inside `outer`, by the
    strip product as it was before it capped the ceiling, started each
    strip at its first allowed row and stepped over rows with no room.

    `outer` lists the row lengths nu may not exceed, such as the k x (n-k)
    box of a product; lam and mu have at most len(outer) rows.  Shapes
    only grow, so pruning at `outer` is exact.

    The factor with fewer rows is the content: starting from the other
    one, strip i adds mu[i] cells labelled i as a horizontal strip.  The
    reading word (right to left, top to bottom) stays a lattice word iff,
    for every row r, the i's in rows <= r number at most the (i-1)'s in
    rows < r.  A state is the shape and those (i-1) counts; equal states
    merge by adding their counts, so every nu comes out of one pass.
    """
    if len(mu) > len(lam):
        lam, mu = mu, lam
    rows = len(outer)
    last = rows - 1
    states = {(tuple(lam) + (0,) * (rows - len(lam)), None): 1}
    for label, size in enumerate(mu, 1):
        final = label == len(mu)
        merged = {}
        for (shape, ceiling), count in states.items():
            if ceiling is not None and size > ceiling[last]:
                continue  # too few (i-1)s above the last row
            new = list(shape)
            below = [0] * rows  # cells of this strip in rows < r
            floor = shape[last]

            def rec(r, left):
                if left == 0:
                    if final:
                        key = (tuple(new), None)
                    else:
                        key = (tuple(new), tuple(below[:r]) + (size,) * (rows - r))
                    merged[key] = merged.get(key, 0) + count
                    return
                top = outer[r]
                if r and shape[r - 1] < top:
                    top = shape[r - 1]
                if left > top - floor:
                    return  # rows r.. hold at most top - shape[last] more cells
                high = top - shape[r]
                if ceiling is not None and ceiling[r] - below[r] < high:
                    high = ceiling[r] - below[r]
                if high > left:
                    high = left
                if r < last:
                    for add in range(high + 1):
                        new[r] = shape[r] + add
                        below[r + 1] = below[r] + add
                        rec(r + 1, left - add)
                    new[r] = shape[r]
                elif high == left:
                    new[r] = shape[r] + left
                    rec(rows, 0)
                    new[r] = shape[r]

            rec(0, size)
        states = merged
    out = {}
    for (shape, _), c in states.items():
        n = rows
        while n and not shape[n - 1]:
            n -= 1
        out[shape[:n]] = c
    return out


def per_pair_product(e1: SchubertElement, e2: SchubertElement) -> SchubertElement:
    """`multiply` as it was: one reference strip product per pair of terms."""
    ctx = e1.space
    box = (ctx.cols,) * ctx.rows
    return SchubertElement._make(ctx, (
        (nu, m * c1 * c2)
        for lam, c1 in e1.terms.items()
        for mu, c2 in e2.terms.items()
        for nu, m in reference_lr_product(lam, mu, box).items()
    ))


def skew_tableaux(alpha: tuple, beta: tuple) -> int:
    """The standard tableaux of the skew shape alpha/beta, 0 unless beta fits
    in alpha, by Aitken's determinant N! det[1/(alpha_i - beta_j - i + j)!]
    with N = |alpha| - |beta| and 1/m! = 0 for m < 0 (Stanley, Enumerative
    Combinatorics 2, Cor. 7.16.3), eliminated in `Fraction`s.

    The integral of s[lam] * s[mu] * s[1]^d over a Grassmannian is the count
    for mu's box complement over lam, so this checks Pluecker degrees of
    products without forming the product.
    """
    alpha = [a for a in alpha if a]
    beta = [b for b in beta if b]
    n = len(alpha)
    if len(beta) > n or any(b > a for a, b in zip(alpha, beta)):
        return 0
    beta += [0] * (n - len(beta))

    def inverse_factorial(k):
        return Fraction(1, factorial(k)) if k >= 0 else Fraction(0)

    m = [[inverse_factorial(alpha[i] - beta[j] - i + j) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    count = factorial(sum(alpha) - sum(beta)) * det
    assert count.denominator == 1, count
    return count.numerator


_REFERENCE_TOKEN = re.compile(
    r"""
      [ \t\r]+
    | \#[^\n]*
    | (?P<NEWLINE> \n )
    | (?P<STRING>  "[^"\n]*" )
    | (?P<INT>     \d+ )
    | (?P<NAME>    [^\W\d][\w']* )
    | (?P<PUNCT>   == | [(){}\[\],;.=+\-*/] )
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    """A token of `reference_tokenize`, with its position as a `(line, col)` tuple."""

    kind: str
    text: str
    pos: tuple


def reference_tokenize(text: str) -> list:
    """The worksheet lexer as it was before `tokenize` became one `finditer`
    pass: one `match` at each offset, every token through `Token(...)`."""
    tokens = []
    line, line_start = 1, 0
    depth = 0  # inside ( ) or [ ]: newlines are plain whitespace
    i = 0
    while i < len(text):
        m = _REFERENCE_TOKEN.match(text, i)
        c = text[i]
        if m is None or (m.lastgroup == "NAME" and not (c.isalpha() or c == "_")):
            pos = (line, i - line_start + 1)
            if c == '"':
                raise WorksheetSyntaxError("unterminated string literal", pos)
            raise WorksheetSyntaxError(f"unexpected character {c!r}", pos)
        kind, start, i = m.lastgroup, i, m.end()
        if kind is None:  # blanks or a comment
            continue
        pos = (line, start - line_start + 1)
        if kind == "NEWLINE":
            # a blank inside brackets, first, or after a line end or a comma
            blank = depth > 0 or not tokens or tokens[-1].kind in {"NEWLINE", ","}
            if not blank:
                tokens.append(Token("NEWLINE", "\n", pos))
            line, line_start = line + 1, i
        elif kind == "STRING":
            tokens.append(Token("STRING", m.group()[1:-1], pos))
        elif kind == "PUNCT":
            p = m.group()
            if p in ("(", "["):
                depth += 1
            elif p in (")", "]"):
                depth = max(0, depth - 1)
            tokens.append(Token(p, p, pos))
        else:
            tokens.append(Token(kind, m.group(), pos))
    tokens.append(Token("EOF", "", (line, len(text) - line_start + 1)))
    return tokens


# The five Pluecker relations as expressions in the characters, kept here apart
# from the table `curves.plucker_solve` reads, so that this oracle shares none
# of its arithmetic.
_RELATIONS = (
    lambda d, m, nodes, cusps, **_: m - d * (d - 1) + 2 * nodes + 3 * cusps,
    lambda d, nodes, cusps, flexes, **_: flexes - 3 * d * (d - 2) + 6 * nodes + 8 * cusps,
    lambda d, m, bitangents, flexes, **_: d - m * (m - 1) + 2 * bitangents + 3 * flexes,
    lambda m, bitangents, flexes, cusps, **_: (
        cusps - 3 * m * (m - 2) + 6 * bitangents + 8 * flexes
    ),
    lambda d, nodes, cusps, genus, **_: 2 * (genus + nodes + cusps) - (d - 1) * (d - 2),
)


def reference_plucker_solve(**given) -> dict:
    """`curves.plucker_solve` as it was when each relation linear in one
    unknown went through the general `solve_linear`."""
    for name in given:
        if name not in CHARACTERS:
            raise ValueError(f"unknown Pluecker character {name!r}")
    vals = {n: given[n] if n in given else LinExpr.unknown(n) for n in CHARACTERS}
    changed = True
    while changed:
        changed = False
        for rel in _RELATIONS:
            try:
                r = collapse(rel(**vals))
            except NonlinearError:
                continue
            if isinstance(r, LinExpr):
                if len(r.coeffs) == 1:
                    vals.update(solve_linear([r]))
                    changed = True
            elif r != 0:
                known = ", ".join(
                    f"{n}={v}" for n, v in sorted(vals.items()) if not isinstance(v, LinExpr)
                )
                raise InconsistentSystem(f"relation violated on {known}")
    unset = sorted(n for n, v in vals.items() if isinstance(v, LinExpr))
    if unset:
        raise UnderdeterminedSystem(f"cannot determine: {', '.join(unset)}")
    return vals


_DUAL = {"d": "m", "nodes": "bitangents", "cusps": "flexes"}
_DUAL.update({v: k for k, v in _DUAL.items()}, genus="genus")


def dual_characters(chars: dict) -> dict:
    """The Pluecker characters of the dual curve: d<->m, nodes<->bitangents,
    cusps<->flexes, the same genus."""
    return {_DUAL[n]: v for n, v in chars.items()}


def odd_refinements(g: int) -> int:
    """The quadratic refinements of the standard symplectic form on F_2^{2g}
    with Arf invariant 1, counted one by one; these are the odd theta
    characteristics of a genus-g curve (Mumford, "Theta characteristics of
    an algebraic curve", 1971; Atiyah, "Riemann surfaces and spin
    structures", 1971).

    A vector is a pair (a, b) of g-bit masks over the symplectic basis e, f.
    A refinement is fixed by its values qa, qb on the basis, and
    q(a, b) = <a, qa> + <b, qb> + <a, b> mod 2.  Its Arf invariant is 1 when
    q takes the value 1 on more than half of the 4^g vectors.
    """
    masks = range(2**g)
    count = 0
    for qa in masks:
        for qb in masks:
            ones = sum(
                (a & qa ^ b & qb ^ a & b).bit_count() & 1 for a in masks for b in masks
            )
            count += 2 * ones > 4**g
    return count


def secants_by_projection(d: int, g: int) -> int:
    """The degree of the secant variety of a degree-d, genus-g space curve,
    C(d-1, 2) - g + C(d, 2), by another route: the secants through a general
    point are the nodes of the projection from it, a plane curve of degree
    d and genus g, whose nodes `plucker_solve` finds.  This is a second code
    path through the Pluecker relations, not a second proof."""
    return plucker_solve(d=d, genus=g, cusps=0)["nodes"] + comb(d, 2)


# Each worksheet builtin and what checks it from outside its own code: the
# tests that compare it with an independent oracle, or, for a one-line
# formula, a note that names the formula it is by definition.
BUILTIN_ORACLES = {
    "integrate": (
        "test_grassmann.py::test_integrals_match_torus_localization",
        "test_cli.py::test_worksheets_match_the_references_under_the_oracles",
    ),
    "pdeg": (
        "test_grassmann.py::test_integrals_match_torus_localization",
        "test_grassmann.py::test_plucker_degree_matches_the_pieri_walk_on_every_class",
        "test_cli.py::test_worksheets_match_the_references_under_the_oracles",
    ),
    "salmon_cayley": ("test_curves.py::test_salmon_cayley_matches_schubert_oracle",),
    "jet2_c2": (
        "test_surface.py::test_tau_matches_jet_c2_on_random_surfaces",
        "test_surface.py::test_jet_c2_matches_triple_point_formula_symbolically",
        "test_surface.py::test_sym_power_matches_splitting_oracle",
        "test_acceptance.py::test_criterion_01_jet_c2_symbolic_identity",
    ),
    "tau": (
        "test_surface.py::test_tau_matches_jet_c2_on_random_surfaces",
        "test_surface.py::test_jet_c2_matches_triple_point_formula_symbolically",
    ),
    "pluecker": (
        "test_curves.py::test_plucker_dual_involution",
        "test_curves.py::test_pluecker_matches_the_solve_linear_path_on_the_bulk_curves",
    ),
    "genus": (
        "test_lattice.py::test_genus_builtin_matches_the_bilinear_sum",
        "test_lattice.py::test_pair_agrees_with_the_bilinear_sum",
    ),
    "odd_theta": (
        "test_curves.py::test_odd_theta_counts_the_refinements_of_arf_invariant_one",
        "test_cli.py::test_worksheets_match_the_references_under_the_oracles",
    ),
    "secant_pluecker": ("test_curves.py::test_secant_pluecker_counts_the_nodes_of_a_projection",),
    "hurwitz": (
        "definitional: the Riemann-Hurwitz formula 2g' - 2 = n(2g - 2) + R,"
        " solved for the total ramification R (Hartshorne, Algebraic Geometry, IV.2.4)",
    ),
    "coincidences": (
        "definitional: Chasles' correspondence principle, a correspondence of"
        " indices [e, f] on a line has e + f coincidences",
    ),
    "residual": (
        "definitional: the specialization ledger, the total degree less the"
        " multiplicity times the degree of each part that is accounted for",
    ),
    "degmult": (
        "definitional: each tangency of the degeneration contributes multiplicity 2,"
        " so `contacts` tangencies contribute 2^contacts",
    ),
    "glue_genus": (
        "definitional: the arithmetic genus of two connected curves of genera p1 and p2"
        " glued at `inter` nodes, p1 + p2 + inter - 1, from the additivity of the"
        " Euler characteristic of the structure sheaf",
    ),
}
