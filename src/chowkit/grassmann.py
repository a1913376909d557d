"""Chow ring of a Grassmannian in the Schubert basis.

Convention: Gr(k, n) parametrizes k-dimensional subspaces of an
n-dimensional vector space; the class s[lam] has codimension |lam| and
lam lives in the k x (n-k) box.  Partitions leaving the box multiply to
zero silently (ring truncation).

Products use the Littlewood-Richardson rule, counted by direct
enumeration of LR skew tableaux; `pieri` is implemented independently
and doubles as an oracle in the test suite (together with Giambelli
determinants evaluated through iterated Pieri products).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .linexpr import Combination
from .partitions import (
    complement_in_box,
    fits_in_box,
    partition,
    partitions_in_box,
    weight,
)


class GradingError(ValueError):
    """An operation required a pure-codimension element and did not get one."""


@dataclass(frozen=True)
class GrassmannContext:
    """Gr(k, n): k-planes in an n-space; Schubert box is k x (n-k)."""

    k: int
    n: int

    def __post_init__(self):
        if not 0 < self.k < self.n:
            raise ValueError(f"need 0 < k < n, got Gr({self.k}, {self.n})")

    @property
    def rows(self) -> int:
        return self.k

    @property
    def cols(self) -> int:
        return self.n - self.k

    @property
    def dimension(self) -> int:
        return self.k * (self.n - self.k)

    @property
    def top_partition(self) -> tuple:
        return (self.cols,) * self.rows


class SchubertElement(Combination):
    """Formal linear combination of box-bounded Schubert classes.

    Coefficients are exact rationals by default but any commutative
    scalar with rational arithmetic works (the tests use LinExpr
    coefficients for genuinely symbolic identities).
    """

    __slots__ = ()
    unit = ()

    @property
    def ctx(self) -> GrassmannContext:
        return self.space

    @staticmethod
    def sigma(ctx: GrassmannContext, lam) -> "SchubertElement":
        return SchubertElement(ctx, {lam: Fraction(1)})

    def _key(self, lam) -> tuple:
        lam, ctx = partition(lam), self.space
        if not fits_in_box(lam, ctx.rows, ctx.cols):
            raise ValueError(f"{lam} does not fit the {ctx.rows}x{ctx.cols} box")
        return lam

    def _label(self, lam) -> str:
        return f"s[{','.join(map(str, lam))}]"

    def __mul__(self, other):
        if isinstance(other, SchubertElement):
            return multiply(self, other)
        return Combination.__mul__(self, other)

    def is_pure(self, codim: int) -> bool:
        return all(weight(lam) == codim for lam in self.terms)


def pieri(e: SchubertElement, a: int) -> SchubertElement:
    """Multiply by the special class s[a]: add a horizontal a-strip."""
    if a < 0:
        raise ValueError("Pieri index must be non-negative")
    if a == 0:
        return e
    ctx = e.ctx
    out = {}
    for lam, c in e.terms.items():
        for mu in _horizontal_strips(lam, a, ctx.rows, ctx.cols):
            out[mu] = out.get(mu, 0) + c
    return SchubertElement._make(ctx, out)


def _horizontal_strips(lam: tuple, a: int, rows: int, cols: int):
    """Partitions mu in the box with mu/lam a horizontal strip of size a."""
    lam = tuple(lam) + (0,) * (rows - len(lam))

    def rec(i, remaining, prev_mu):
        if i == rows:
            if remaining == 0:
                yield ()
            return
        low = lam[i]
        # strip condition: mu[i] <= lam[i-1]; box: mu[i] <= cols; order: <= prev
        high = min(prev_mu, cols if i == 0 else lam[i - 1])
        for mu_i in range(low, high + 1):
            add = mu_i - lam[i]
            if add > remaining:
                break
            for rest in rec(i + 1, remaining - add, mu_i):
                yield (mu_i,) + rest

    for mu in rec(0, a, cols):
        yield partition(mu)


@lru_cache(maxsize=None)
def lr_coefficient(lam: tuple, mu: tuple, nu: tuple) -> int:
    """Number of LR skew tableaux of shape nu/lam and content mu."""
    if weight(nu) != weight(lam) + weight(mu):
        return 0
    lam = tuple(lam) + (0,) * (len(nu) - len(lam))
    if any(lam[i] > nu[i] for i in range(len(nu))):
        return 0
    nvals = len(mu)
    # cells in reverse reading order: rows top to bottom, right to left
    cells = [(r, c) for r in range(len(nu)) for c in range(nu[r] - 1, lam[r] - 1, -1)]
    tableau = {}
    counts = [0] * (nvals + 1)

    def place(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        lo = 1
        hi = nvals
        above = tableau.get((r - 1, c))
        if above is not None:
            lo = above + 1
        right = tableau.get((r, c + 1))
        if right is not None:
            hi = min(hi, right)
        total = 0
        for v in range(lo, hi + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # lattice word condition
            tableau[(r, c)] = v
            counts[v] += 1
            total += place(idx + 1)
            counts[v] -= 1
            del tableau[(r, c)]
        return total

    return place(0)


def multiply(e1: SchubertElement, e2: SchubertElement) -> SchubertElement:
    """Littlewood-Richardson product, truncated to the box."""
    e1._check(e2)
    ctx = e1.ctx
    out = {}
    for lam, c1 in e1.terms.items():
        for mu, c2 in e2.terms.items():
            c = c1 * c2
            for nu in partitions_in_box(ctx.rows, ctx.cols, weight(lam) + weight(mu)):
                m = lr_coefficient(lam, mu, nu)
                if m:
                    out[nu] = out.get(nu, 0) + m * c
    return SchubertElement._make(ctx, out)


def integrate(e: SchubertElement):
    """Coefficient of the full-box (point) class; 0 if absent."""
    return e.terms.get(e.ctx.top_partition, Fraction(0))


def duality_pair(lam, mu, ctx: GrassmannContext) -> int:
    """Poincare pairing of two Schubert classes of complementary weight."""
    lam, mu = partition(lam), partition(mu)
    if weight(lam) + weight(mu) != ctx.dimension:
        raise GradingError(
            f"weights {weight(lam)} + {weight(mu)} != dim {ctx.dimension}"
        )
    return 1 if mu == complement_in_box(lam, ctx.rows, ctx.cols) else 0


def plucker_degree(e: SchubertElement, dim: int):
    """Degree in the Pluecker embedding: integral of e * s[1]^dim."""
    codim = e.ctx.dimension - dim
    if not e.is_pure(codim):
        raise GradingError(f"element is not pure of codimension {codim}")
    for _ in range(dim):
        e = pieri(e, 1)
    return integrate(e)


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
