"""Truncated characteristic-class calculus on a formal surface.

A surface here is nothing but a ring: a divisor basis with its
intersection form (`lattice.IntersectionForm`), the point class, and
optionally the topological Euler number.  Gram entries may be exact
rationals or symbols, so the same code evaluates both the numeric K3
instance and the fully symbolic identity behind the triple-point count.
Degree-2 components are linear expressions in the pairing symbols with
rational coefficients; products of degree > 2 vanish.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from math import comb
from operator import mul

from .lattice import IntersectionForm
from .linexpr import ONE, Combination, LinExpr, collapse, holds_unknown


POINT = 2  # the key of the point class in a SurfaceClass


class SurfaceRing(IntersectionForm):
    """`gram` maps (a, b) to the degree-2 value of a*b: a constant, or a
    pairing symbol for a symbolic surface.  Each entry is given once, and
    every pair of the basis has one.  `euler` is c2 of the tangent bundle."""

    def __init__(self, basis, gram, euler=None):
        super().__init__(basis)
        self.euler = euler
        for (a, b), v in gram.items():
            self.set_gram(a, b, v)
        self.check_complete()

    def check_complete(self):
        for a in self.basis:
            for b in self.basis:
                if (a, b) not in self.gram:
                    raise ValueError(f"missing intersection number {a}.{b}")

    def divisor(self, name: str) -> "SurfaceClass":
        return SurfaceClass(self, {name: 1})

    def substitute(self, assignment: dict) -> bool:
        """Also in `euler`; whether it or a Gram entry still holds an unknown."""
        left_open = super().substitute(assignment)
        if isinstance(self.euler, LinExpr):
            self.euler = collapse(self.euler.substitute(assignment))
        return left_open or holds_unknown(self.euler)


class SurfaceClass(Combination):
    """Graded element: c0 * 1 + (divisor span) + c2 * point.

    The keys are ONE for the unit, the divisor names, and POINT.
    """

    __slots__ = ()
    unit = ONE

    @property
    def c0(self):
        return self.terms.get(ONE, 0)

    @property
    def c1(self) -> dict:
        return {k: v for k, v in self.terms.items() if k != ONE and k != POINT}

    @property
    def c2(self) -> LinExpr:
        return LinExpr.coerce(self.terms.get(POINT, 0))

    @property
    def is_divisor(self) -> bool:
        return ONE not in self.terms and POINT not in self.terms

    def _key(self, key):
        if key != ONE and key != POINT and key not in self.space.basis:
            raise ValueError(f"unknown divisor {key!r}")
        return key

    def _rank(self, key):
        return (key != ONE, key == POINT, str(key))  # unit, divisors, point

    def _label(self, key):
        return None if key == ONE else "pt" if key == POINT else key

    def __mul__(self, other):
        if isinstance(other, SurfaceClass):
            return ring_product(self, other)
        return Combination.__mul__(self, other)


def ring_product(a: SurfaceClass, b: SurfaceClass) -> SurfaceClass:
    """Graded product; everything of degree >= 3 vanishes."""
    a._check(b)
    a0, b0 = a.c0, b.c0
    return SurfaceClass._make(a.space, chain(
        ((k, a0 * v) for k, v in b.terms.items()),
        ((k, b0 * v) for k, v in a.terms.items() if k != ONE),
        [(POINT, a.space.pair(a.c1, b.c1))],
    ))


class BundleSpec:
    """Rank-r bundle known through c1 (divisor class) and c2 (degree-2).

    Not a tuple: `*` is the Whitney sum, and `+` must not concatenate.
    """

    __slots__ = ("rank", "c1", "c2")

    def __init__(self, rank: int, c1: SurfaceClass, c2):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank, self.c1, self.c2 = rank, c1, LinExpr.coerce(c2)

    def __eq__(self, other):
        if type(other) is not BundleSpec:
            return NotImplemented
        return (self.rank, self.c1, self.c2) == (other.rank, other.c1, other.c2)

    def __mul__(self, other: "BundleSpec") -> "BundleSpec":
        """The direct sum, whose total Chern class is the product
        (1 + c1 + c2)(1 + c1' + c2') truncated at degree two."""
        c1 = self.c1 + other.c1
        cross = self.c1.space.pair(self.c1.c1, other.c1.c1)
        return BundleSpec(self.rank + other.rank, c1, self.c2 + other.c2 + cross)


def tensor_line(E: BundleSpec, L: SurfaceClass) -> BundleSpec:
    """Twist a rank-r bundle by a line bundle."""
    r = E.rank
    ring = E.c1.space
    ll = ring.pair(L.c1, L.c1)
    c1l = ring.pair(E.c1.c1, L.c1)
    c1 = E.c1 + r * L
    c2 = E.c2 + (r - 1) * c1l + comb(r, 2) * ll
    return BundleSpec(r, c1, c2)


def sym_power(E: BundleSpec, n: int) -> BundleSpec:
    """Symmetric power of a rank-2 bundle.

    With Chern roots a, b of E, Sym^n has roots i*a + (n-i)*b; the
    elementary symmetric functions reduce to c1, c2 after truncation:
      sum r_i        = C(n+1, 2) c1
      sum r_i^2      = A (c1^2 - 2 c2) + 2 B c2,  A = sum i^2, B = sum i(n-i)
      e2(roots)      = ((sum r_i)^2 - sum r_i^2) / 2
                     = (C(n+1, 2)^2 - A) / 2 c1^2 + (A - B) c2
    where C(n+1, 2)^2 - A = 2 sum_{i<j} i*j, so int data give int coefficients.
    """
    if E.rank != 2:
        raise ValueError("sym_power only supports rank-2 bundles")
    if n < 0:
        raise ValueError("negative symmetric power")
    s1 = comb(n + 1, 2)
    A = sum(i * i for i in range(n + 1))
    B = sum(i * (n - i) for i in range(n + 1))
    c1sq = E.c1.space.pair(E.c1.c1, E.c1.c1)
    c2 = (s1 * s1 - A) // 2 * c1sq + (A - B) * E.c2
    return BundleSpec(n + 1, s1 * E.c1, c2)


def jet_chern(L: SurfaceClass, n: int, omega: BundleSpec) -> BundleSpec:
    """Chern data of the n-th jet bundle of a line bundle L.

    The Whitney product (`*`) of the graded pieces of the jet filtration,
    L (x) Sym^i(Omega) for i = 0..n; rank is C(n+2, 2).  `omega` is the
    cotangent bundle, `BundleSpec(2, K, euler)`: c1 = K, c2 = e times the point.
    """
    if n < 0:
        raise ValueError("negative jet order")
    return reduce(mul, (tensor_line(sym_power(omega, i), L) for i in range(n + 1)))


def triple_point_count(H2, HK, K2, e):
    """Expected hyperplane sections with a triple point, for a smooth
    linearly normal surface in P^4: 5 K^2 + 20 H.K + 15 H^2 + 5 e."""
    return collapse(5 * K2 + 20 * HK + 15 * H2 + 5 * e)
