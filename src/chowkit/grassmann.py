"""Chow ring of a Grassmannian in the Schubert basis.

Convention: Gr(k, n) parametrizes k-dimensional subspaces of an
n-dimensional vector space; the class s[lam] has codimension |lam| and
lam lives in the k x (n-k) box.  Partitions leaving the box multiply to
zero silently (ring truncation).

Products use the Littlewood-Richardson rule in one pass per term of the
content factor: the content's rows are added as horizontal strips under
the lattice-word condition, with equal intermediate states merged, so
every nu comes out at once and nothing leaves the box.  One loop places
each strip cell by cell, in rows that never go up, with no recursion; it
places the last cell by a scan down the rows.  The pass starts from every
term of the other factor at once, each seed counted with its coefficient.
Merging states of different seeds is exact, because a state's future
placements depend only on its shape and lattice ceiling: the merged count
is the sum of c_lam times the paths from each lam.  The content is the
factor with fewer terms, and between two single classes the one with
fewer rows, so s[1]^N is one pass per factor and a product of two single
classes is the pass it was before seeding.  A pair of coefficients with
unknowns raises NonlinearError wherever their classes' product is not
zero, even if the merged count cancels the unknowns.

`multiply` builds only the first len(lam) + len(mu) rows of the box, the
most any nu of the product has, so a small product on a big Grassmannian
pays only for the rows it reaches.  It takes a one-term content's pass as
it comes, without summing it again; `_strip_product` lists the savings.

A product may make at most MAX_STATES strip states, counted over all its
strips; past that it raises ValueError, about 0.8 s into the work, so a
cheap product on a big Grassmannian still runs and an expensive one on
any Grassmannian is refused.

`lr_coefficient` is 0 at once unless nu holds both factors, and else
reads nu from the strip product in the len(nu) x nu[0] box.  Pluecker
degrees come in closed form from the hook-length formula, for a
dimension in 0..k(n-k) unless the element is empty.  The formula walks
dim cells per term; past MAX_CELLS cells in all it raises ValueError
before any work.  `integrate` builds no k-long tuple unless a term has k
rows.  `pieri` is a test oracle in `tests/_oracles.py`, as are Giambelli
products through it, the Pieri walk for degrees and the strip product
before these savings.
"""

from __future__ import annotations

from collections import namedtuple
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


MAX_STATES = 100_000  # strip states one product may make: about 0.8 s on 2 vCPUs, CPython 3.11
MAX_CELLS = 40_000  # cells one Pluecker degree's hook lengths may walk: 0.3-0.5 s, as above


def _over_budget(made: int) -> ValueError:
    return ValueError(f"Schubert product needs more than {MAX_STATES} strip states (stopped at {made})")


def _next_ceiling(rs: list, cap: int, rows: int) -> tuple:
    """The next strip's ceiling: in each row, how many of the first `cap` cells, in rows rs[:cap], lie above it."""
    out, t = (), 0
    for i in range(cap):
        out += (i,) * (rs[i] + 1 - t)
        t = rs[i] + 1
    return out + (cap,) * (rows - t)


def _strip_product(seeds: dict, mu: tuple, rows: int, cols: int) -> dict:
    """{nu: sum of c * c^nu_{lam,mu} over the seeds {lam: c}}, nu in the rows x cols box.

    Each seed lies inside the box; shapes only grow, so pruning at the box
    is exact.  Starting from every seed at once, with its coefficient as
    its count, strip i adds mu[i] cells labelled i as a horizontal strip.
    The reading word (right to left, top to bottom) stays a lattice word
    iff, for every row r, the i's in rows <= r number at most the (i-1)'s
    in rows < r, the state's ceiling at r.  A state is the shape and that
    ceiling, and its future placements depend on nothing else, so equal
    states merge by adding their counts, whichever seed they came from:
    every nu of every seed comes out of one pass.

    One loop places a strip's cells one at a time, in rows that never go
    up: an odometer over their rows rs, backtracking in place on one list
    `new`.  Cell j may go in row r when new[r] < top, the old row above
    (cols in row 0), and when ceiling[r] > j, as cells 0..j all lie in
    rows <= r.  Four exact savings cut the work:

    - The ceiling is capped at the next strip's size.  That strip has no
      more cells in all, so a higher ceiling never binds, and states that
      differ only above the cap merge.
    - A strip starts at the first row whose ceiling is positive: a row
      with no (i-1) above it can hold no i.
    - Rows r.. hold at most top - shape[last] cells of the strip, so a
      cell is tried no lower once the cells left and those already in row
      r outnumber that.  Only a row with no room is stepped over.
    - The last cell is placed by a scan down the rows, each row that takes
      it giving a state, with no backtrack.

    The next ceiling counts, in each row, the strip's cells above it, up
    to the next strip's size `cap`, so the rows of the first cap cells
    decide it; each strip builds it once per such rows, on first use, in
    a dict of its own.  A state of the last strip is its shape alone, as
    are the seeds when `mu` is empty.

    The states made over all strips are checked against MAX_STATES once
    per input state, so the budget costs nothing per emitted state and
    fires at most one input state's output past it.
    """
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
        nexts = {}  # the rows of the first cap cells -> the next ceiling
        merged = {}
        rs = [0] * size  # the row of each placed cell
        end = size - 1
        for (shape, ceiling), count in states.items():
            if len(merged) > budget:
                raise _over_budget(MAX_STATES - budget + len(merged))
            if size > ceiling[last]:
                continue  # too few (i-1)s above the last row
            new = list(shape)
            floor = shape[last]
            j = 0  # the cell to place
            r = ceiling.count(0)  # the ceiling never falls: zeros lead
            while True:
                while r < rows:  # cell j goes in the first row >= r that takes it
                    top = shape[r - 1] if r else cols
                    here = new[r]
                    if here < top and ceiling[r] > j:
                        if j < end:
                            if size - j + here - shape[r] > top - floor:
                                break  # rows r.. hold fewer cells than are left
                            new[r] = here + 1
                            rs[j] = r
                            j += 1
                            continue
                        new[r] = here + 1
                        if final:
                            key = tuple(new)
                        else:
                            rs[j] = r
                            first = rs[0] if cap == 1 else tuple(rs[:cap])
                            nxt = nexts.get(first)
                            if nxt is None:
                                nxt = nexts[first] = _next_ceiling(rs, cap, rows)
                            key = (tuple(new), nxt)
                        merged[key] = merged.get(key, 0) + count
                        new[r] = here
                    elif size - j + here - shape[r] > top - floor:
                        break  # too many cells left for rows r..
                    r += 1
                if not j:
                    break
                j -= 1  # backtrack: cell j tries the next row down
                r = rs[j]
                new[r] -= 1
                r += 1
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
    """c^nu_{lam,mu}: the coefficient of s[nu] in s[lam]*s[mu], 0 before any walk unless nu holds
    lam and mu; the walk, and its MAX_STATES budget, are the len(nu) x nu[0] box's, not nu's."""
    lam, mu, nu = partition(lam), partition(mu), partition(nu)
    outside = any(len(p) > len(nu) or any(a > b for a, b in zip(p, nu)) for p in (lam, mu))
    if outside or weight(nu) != weight(lam) + weight(mu):
        return 0
    if len(mu) > len(lam):  # the factor with fewer rows is the content
        lam, mu = mu, lam
    return _strip_product({lam: 1}, mu, len(nu), nu[0] if nu else 0).get(nu, 0)


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
        rows = min(k, deepest + len(mu))
        # a seed's unknowns times c's unknowns is not linear, even if the merged
        # count cancels them; LR counts are positive, so this pass finds such a pair
        if isinstance(c, LinExpr) and _strip_product(
            {lam: 1 for lam, c1 in seeds.items() if isinstance(c1, LinExpr)}, mu, rows, cols
        ):
            raise NonlinearError("product of two expressions with unknowns is not linear")
        product = _strip_product(seeds, mu, rows, cols)
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
    """Point-class coefficient as it is, so an int for int coefficients; 0 if absent."""
    ctx = e.space
    cols = ctx.n - ctx.k
    # the point class (cols,) * k, found without building that k-long key
    return next((c for lam, c in e.terms.items() if len(lam) == ctx.k and lam[-1] == cols), 0)


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
    Those cells, summed over the terms, may number at most MAX_CELLS.  An
    int for int coefficients; a LinExpr while unknowns remain.
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
    return collapse(sum(
        c * _standard_tableaux(complement_in_box(lam, k, cols)) for lam, c in e.terms.items()
    ))
