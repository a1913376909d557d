"""Chow ring of a Grassmannian in the Schubert basis.

Convention: Gr(k, n) parametrizes k-dimensional subspaces of an
n-dimensional vector space; the class s[lam] has codimension |lam| and
lam lives in the k x (n-k) box.  Partitions leaving the box multiply to
zero silently (ring truncation).

Products use the Littlewood-Richardson rule in one pass per term of the
content factor: the content's rows are added as horizontal strips under
the lattice-word condition, with equal intermediate states merged, so
every nu comes out at once and nothing leaves the box.  The pass starts
from every term of the other factor at once, each seed counted with its
coefficient.  Merging states of different seeds is exact, because a
state's future placements depend only on its shape and lattice ceiling:
the merged count is the sum of c_lam times the paths from each lam.  The
content is the factor with fewer terms, and between two single classes
the one with fewer rows, so s[1]^N is one pass per factor and a product
of two single classes is the pass it was before seeding.  A pair of
coefficients with unknowns raises NonlinearError wherever their classes'
product is not zero, even if the merged count cancels the unknowns.

`multiply` builds only the first len(lam) + len(mu) rows of the box, the
most any nu of the product has, so a small product on a big Grassmannian
pays only for the rows it reaches.  It takes a one-term content's pass as
it comes, without summing it again; `_strip_product` lists the savings.

A product may make at most MAX_STATES strip states, counted over all its
strips; past that it raises ValueError, about 1.3 s into the work, so a
cheap product on a big Grassmannian still runs and an expensive one on
any Grassmannian is refused.

`lr_coefficient` reads one nu from the same strip product.  Pluecker
degrees come in closed form from the hook-length formula, for a
dimension in 0..k(n-k) unless the element is empty.  The formula walks
dim cells per term; past MAX_CELLS cells in all it raises ValueError
before any work.  `integrate` builds no k-long tuple unless a term has k
rows.  `pieri` is a test oracle in `tests/_oracles.py`, as are Giambelli
products through it, the Pieri walk for degrees and the strip product
before these savings.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .linexpr import Combination, LinExpr, NonlinearError, collapse, shown
from .partitions import complement_in_box, conjugate, fits_in_box, partition, weight


class GrassmannContext(namedtuple("GrassmannContext", "k n")):
    """Gr(k, n): k-planes in an n-space; Schubert box is k x (n-k)."""

    __slots__ = ()

    def __new__(cls, k: int, n: int):
        if not 0 < k < n:
            raise ValueError(f"need 0 < k < n, got Gr({k}, {n})")
        return super().__new__(cls, k, n)

    @property
    def rows(self) -> int:
        return self.k

    @property
    def cols(self) -> int:
        return self.n - self.k

    @property
    def dimension(self) -> int:
        return self.k * (self.n - self.k)


class SchubertElement(Combination):
    """Formal linear combination of box-bounded Schubert classes.

    Coefficients are exact rationals by default but any commutative
    scalar with rational arithmetic works (the tests use LinExpr
    coefficients for genuinely symbolic identities).
    """

    __slots__ = ()
    unit = ()

    @staticmethod
    def sigma(ctx: GrassmannContext, lam) -> "SchubertElement":
        return SchubertElement(ctx, {lam: 1})

    def _key(self, lam) -> tuple:
        lam, ctx = partition(lam), self.space
        if not fits_in_box(lam, ctx.k, ctx.n - ctx.k):  # fields, not properties: this runs per key
            raise ValueError(f"{self._label(lam)} does not fit the {ctx.rows}x{ctx.cols} box")
        return lam

    def _label(self, lam) -> str:
        return f"s[{','.join(map(str, lam))}]"

    def __mul__(self, other):
        if isinstance(other, SchubertElement):
            return multiply(self, other)
        return Combination.__mul__(self, other)


MAX_STATES = 100_000  # strip states one product may make: about 1.3 s on 2 vCPUs, CPython 3.11
MAX_CELLS = 40_000  # cells one Pluecker degree's hook lengths may walk: 0.3-0.5 s, as above


def _over_budget(made: int) -> ValueError:
    return ValueError(f"Schubert product needs more than {MAX_STATES} strip states (stopped at {made})")


def _strip_product(seeds: dict, mu: tuple, outer: tuple) -> dict:
    """{nu: sum of c * c^nu_{lam,mu} over the seeds {lam: c}}, nu inside `outer`.

    Each seed has at most len(outer) rows; shapes only grow, so pruning at
    `outer` is exact.  Starting from every seed at once, with its
    coefficient as its count, strip i adds mu[i] cells labelled i as a
    horizontal strip.  The reading word (right to left, top to bottom)
    stays a lattice word iff, for every row r, the i's in rows <= r number
    at most the (i-1)'s in rows < r, the state's ceiling at r.  A state is
    the shape and that ceiling, and its future placements depend on
    nothing else, so equal states merge by adding their counts, whichever
    seed they came from: every nu of every seed comes out of one pass.
    Four exact savings cut the work per nu:

    - The ceiling is capped at the next strip's size.  That strip has no
      more cells in all, so a higher ceiling never binds, and states that
      differ only above the cap merge.
    - A strip starts at the first row whose ceiling is positive: a row
      with no (i-1) above it can hold no i.
    - A row with no room is stepped over in a loop, not a call.  Only zero
      room is skipped: room is negative only where the shape already
      sticks out of `outer`, and that branch must still be pruned.
    - A strip of one cell is placed by a scan down the rows, under the
      walk's rules and in its order, with no walk built.

    A next ceiling whose capped rows start at j and whose rows above j hold
    no cell of the strip is (0,) * j + (cap,) * (rows - j); each strip builds
    it once, on first use, from a dict of its own.  When the next strip has
    one cell every next ceiling is of this kind.  A state of the last strip
    is its shape alone, as are the seeds when `mu` is empty.

    The states made over all strips are checked against MAX_STATES once
    per input state, so the budget costs nothing per emitted state and
    fires at most one input state's output past it.
    """
    rows = len(outer)
    last = rows - 1
    # the first strip's ceiling is its own size, which never binds
    start = (mu[0] if mu else 0,) * rows
    states = {}
    for lam, c in seeds.items():
        shape = lam + (0,) * (rows - len(lam))
        states[(shape, start) if mu else shape] = c  # a final state is its shape
    budget = MAX_STATES  # states the strips still left may make
    for label, size in enumerate(mu, 1):
        final = label == len(mu)
        cap = 0 if final else mu[label]
        nexts = {}  # j -> the next ceiling (0,) * j + (cap,) * (rows - j), built on first use
        merged = {}
        if size == 1:
            # the walk below for one cell: each row it can take, top row first
            for (shape, ceiling), count in states.items():
                if len(merged) > budget:
                    raise _over_budget(MAX_STATES - budget + len(merged))
                floor = shape[last]
                for r in range(ceiling.count(0), rows):
                    top = outer[r]
                    if r and shape[r - 1] < top:
                        top = shape[r - 1]
                    if top <= floor:
                        break  # rows r.. hold no more cells
                    room = top - shape[r]
                    if room < 0:
                        break  # the shape sticks out of `outer`
                    if room:
                        new = list(shape)
                        new[r] += 1
                        if final:
                            key = tuple(new)
                        else:
                            nxt = nexts.get(r + 1)
                            if nxt is None:
                                nxt = nexts[r + 1] = (0,) * (r + 1) + (cap,) * (last - r)
                            key = (tuple(new), nxt)
                        merged[key] = merged.get(key, 0) + count
        else:

            def rec(r, left):
                while True:
                    top = outer[r]
                    if r and shape[r - 1] < top:
                        top = shape[r - 1]
                    if left > top - floor:
                        return  # rows r.. hold at most top - shape[last] more cells
                    high = top - shape[r]
                    if ceiling[r] - below[r] < high:
                        high = ceiling[r] - below[r]
                    if high or r == last:
                        break
                    r += 1  # no room in row r
                    below[r] = below[r - 1]
                if high >= left:  # the strip can end in row r
                    new[r] = shape[r] + left
                    if final:
                        key = tuple(new)
                    else:  # the next ceiling: below[:r + 1] is sorted, rows j.. reach the cap
                        j = bisect_left(below, cap, 0, r + 1)  # j >= 1, as below[0] == 0 < cap
                        if below[j - 1]:
                            key = (tuple(new), tuple(below[:j]) + (cap,) * (rows - j))
                        else:  # rows ..j-1 hold no cell of this strip, as always when cap == 1
                            nxt = nexts.get(j)
                            if nxt is None:
                                nxt = nexts[j] = (0,) * j + (cap,) * (rows - j)
                            key = (tuple(new), nxt)
                    merged[key] = merged.get(key, 0) + count
                    high = left - 1
                if r < last:
                    for add in range(high + 1):
                        new[r] = shape[r] + add
                        below[r + 1] = below[r] + add
                        rec(r + 1, left - add)
                new[r] = shape[r]

            for (shape, ceiling), count in states.items():
                if len(merged) > budget:
                    raise _over_budget(MAX_STATES - budget + len(merged))
                if size > ceiling[last]:
                    continue  # too few (i-1)s above the last row
                new = list(shape)
                below = [0] * rows  # cells of this strip in rows < r
                floor = shape[last]
                rec(ceiling.count(0), size)  # the ceiling never falls: zeros lead
            # `rec` reaches itself through its closure cell; unbound here, it and
            # the states its cells hold are freed on return, not by the cyclic GC
            del rec
        if not merged:
            return {}  # every state died: no later strip can be placed
        budget -= len(merged)
        states = merged
    out = {}
    for shape, c in states.items():
        n = rows
        while n and not shape[n - 1]:
            n -= 1
        out[shape[:n]] = c
    return out


@lru_cache(maxsize=None)
def lr_coefficient(lam: tuple, mu: tuple, nu: tuple) -> int:
    """c^nu_{lam,mu}: the coefficient of s[nu] in s[lam]*s[mu]."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    if weight(nu) != weight(lam) + weight(mu) or max(len(lam), len(mu)) > len(nu):
        return 0
    if len(mu) > len(lam):  # the factor with fewer rows is the content
        lam, mu = mu, lam
    return _strip_product({lam: 1}, mu, nu).get(nu, 0)


def multiply(e1: SchubertElement, e2: SchubertElement) -> SchubertElement:
    """Littlewood-Richardson product, truncated to the box.

    The content is the factor with fewer terms; between two single
    classes it is the one with fewer rows, and otherwise on a tie `e2`.
    One strip product per content term, seeded with every term of the
    other factor, is scaled by that term's coefficient.
    """
    e1._check(e2)
    ctx = e1.space
    seeds, content = e1.terms, e2.terms
    # len(*terms) is the row count of a single class
    if len(seeds) < len(content) or len(seeds) == len(content) == 1 and len(*seeds) < len(*content):
        seeds, content = content, seeds
    k, cols = ctx.k, ctx.n - ctx.k  # fields, not properties: this runs per call
    deepest = 0  # rows of the longest seed; a loop costs less than max(map(...)) here
    for lam in seeds:
        if len(lam) > deepest:
            deepest = len(lam)
    out = []
    for mu, c in content.items():
        # each column of nu/lam holds distinct labels 1..len(mu), so nu has at
        # most len(lam) + len(mu) rows; the box's other rows are never built
        cut = (cols,) * min(k, deepest + len(mu))
        # a seed's unknowns times c's unknowns is not linear, even if the merged
        # count cancels them; LR counts are positive, so this pass finds such a pair
        if isinstance(c, LinExpr) and _strip_product(
            {lam: 1 for lam, c1 in seeds.items() if isinstance(c1, LinExpr)}, mu, cut
        ):
            raise NonlinearError("product of two expressions with unknowns is not linear")
        product = _strip_product(seeds, mu, cut)
        if len(content) == 1:  # one pass: its nu are distinct, so nothing is summed
            terms = {}
            for nu, m in product.items():
                m = collapse(m * c)
                if m:
                    terms[nu] = m
            return SchubertElement._of(ctx, terms)
        for nu, m in product.items():
            out.append((nu, m * c))
    return SchubertElement._make(ctx, out)


def integrate(e: SchubertElement):
    """Point-class coefficient: a Fraction (0 if absent), or a LinExpr."""
    ctx = e.space
    cols = ctx.n - ctx.k
    # the point class (cols,) * k, found without building that k-long key
    c = next((coef for lam, coef in e.terms.items() if len(lam) == ctx.k and lam[-1] == cols), 0)
    return c if isinstance(c, LinExpr) else Fraction(c)


def _standard_tableaux(lam: tuple) -> int:
    """f^lam by the hook-length formula: |lam|! over the product of the hooks."""
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return factorial(weight(lam)) // hooks


def plucker_degree(e: SchubertElement, dim: int):
    """Degree in the Pluecker embedding: integral of e * s[1]^dim.

    The integral of s[lam] * s[1]^dim counts the standard tableaux of the
    skew shape box/lam, which turned by 180 degrees is the box complement
    of lam; the hook-length formula (Frame, Robinson and Thrall 1954)
    counts them in closed form, walking the dim cells of that complement.
    Those cells, summed over the terms, may number at most MAX_CELLS.
    """
    ctx = e.space
    k, cols = ctx.k, ctx.n - ctx.k  # fields, not properties, read once per call
    top = k * cols
    if e.terms and not 0 <= dim <= top:
        raise ValueError(f"dimension {shown(dim)} is out of range 0..{top} for Gr({k}, {ctx.n})")
    codim = top - dim
    if any(weight(lam) != codim for lam in e.terms):
        raise ValueError(f"element is not pure of codimension {codim}")
    cells = dim * len(e.terms)
    if cells > MAX_CELLS:
        raise ValueError(f"Pluecker degree needs {shown(cells)} hook-length cells, more than {MAX_CELLS}")
    degree = collapse(sum(
        c * _standard_tableaux(complement_in_box(lam, k, cols)) for lam, c in e.terms.items()
    ))
    return degree if isinstance(degree, LinExpr) else Fraction(degree)
