"""Independent reference computations for Schubert calculus.

Nothing here imports chowkit.  Partitions are tuples of weakly decreasing
positive integers; a box is `rows` x `cols` (Gr(k, n) has rows = k and
cols = n - k).  Products are expanded with a Pieri rule written from
scratch and the Jacobi-Trudi determinant, so they share no code with the
Littlewood-Richardson tableau count the library uses.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, factorial, prod


def hook_count(lam) -> int:
    """f^lam: standard Young tableaux of shape lam, by the hook-length formula."""
    n = sum(lam)
    conj = [sum(1 for x in lam if x > c) for c in range(lam[0])] if lam else []
    hooks = prod(
        (lam[i] - j) + (conj[j] - i) - 1 for i in range(len(lam)) for j in range(lam[i])
    )
    return factorial(n) // hooks


def deg_grassmannian(k: int, n: int) -> int:
    """deg Gr(k, n) in the Pluecker embedding: (k(n-k))! prod i!/(n-k+i)!."""
    num = Fraction(factorial(k * (n - k)))
    for i in range(k):
        num *= Fraction(factorial(i), factorial(n - k + i))
    return int(num)


def _strip_extensions(lam, a, rows, cols):
    """All mu in the box with mu/lam a horizontal strip of a boxes."""
    lam = list(lam) + [0] * (rows - len(lam))
    out = []

    def grow(i, left, acc):
        if i == rows:
            if left == 0:
                mu = tuple(x for x in acc if x)
                out.append(mu)
            return
        top = cols if i == 0 else lam[i - 1]
        for add in range(0, min(left, top - lam[i]) + 1):
            grow(i + 1, left - add, acc + [lam[i] + add])

    grow(0, a, [])
    return out


def pieri_row(terms: dict, a: int, rows: int, cols: int) -> dict:
    """Multiply a {partition: coefficient} combination by h_a inside the box."""
    out: dict = {}
    for lam, c in terms.items():
        for mu in _strip_extensions(lam, a, rows, cols):
            out[mu] = out.get(mu, 0) + c
    return {mu: c for mu, c in out.items() if c}


def _jacobi_trudi(lam):
    """Signed row-length sequences of det(h_{lam_i - i + j})."""
    n = len(lam)
    for perm in permutations(range(n)):
        parts = [lam[i] - i + perm[i] for i in range(n)]
        if min(parts, default=0) < 0:
            continue
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        yield (-1) ** inversions, parts


def jt_expand(lam, rows: int, cols: int, start=None) -> dict:
    """start * s_lam in the box, through Jacobi-Trudi and the Pieri rule."""
    start = {(): 1} if start is None else start
    out: dict = {}
    for sign, parts in _jacobi_trudi(tuple(lam)):
        terms = start
        for a in parts:
            terms = pieri_row(terms, a, rows, cols)
        for mu, c in terms.items():
            out[mu] = out.get(mu, 0) + sign * c
    return {mu: c for mu, c in out.items() if c}


def jt_product(lam, mu, rows: int, cols: int) -> dict:
    """s_lam * s_mu truncated to the box."""
    return jt_expand(mu, rows, cols, start=jt_expand(lam, rows, cols))


def top_count(terms: dict, dim: int, rows: int, cols: int) -> int:
    """Coefficient of the full box in terms * s_1^dim (a Pluecker degree)."""
    for _ in range(dim):
        terms = pieri_row(terms, 1, rows, cols)
    return terms.get((cols,) * rows, 0)


def lr_hook_identity(lam, mu, product: dict) -> bool:
    """sum_nu c^nu f^nu == C(|lam|+|mu|, |lam|) f^lam f^mu (untruncated products)."""
    lhs = sum(c * hook_count(nu) for nu, c in product.items())
    rhs = comb(sum(lam) + sum(mu), sum(lam)) * hook_count(lam) * hook_count(mu)
    return lhs == rhs


def fits(lam, rows: int, cols: int) -> bool:
    return len(lam) <= rows and (not lam or lam[0] <= cols)


def untruncated(lam, mu, rows: int, cols: int) -> bool:
    """True when every nu in s_lam * s_mu fits the box."""
    return len(lam) + len(mu) <= rows and (lam[:1] or (0,))[0] + (mu[:1] or (0,))[0] <= cols
